"""Fixed-point solver for u'' + a*u(x-h) + int G(x-y) F(u(y), y) dy = 0.

One step of the map sends v to the solution u of the linear problem with
right-hand side G * F(v, .).  When 2*sqrt(pi)*N*l < 1 (N the kernel's
stability constant, l the Lipschitz constant of F) the map contracts in
the H2 norm and the iteration converges to the unique solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractionHypothesisFailed, MaxIterExceeded, NotFinite
from .kernels import KernelReport, contraction_margin, stability_constant
from .linear import apply_operator
from .spectral import (
    SQRT_2PI,
    Grid,
    GridFunction,
    dft,
    idft,
    l2_norm,
    parseval_norm,
    parseval_weight,
)
from .symbols import DEFAULT_TOL_ORTH, ShiftParams, inverse_symbol_on_grid

# The direct sum's blocked Toeplitz products: square tiles of _TILE_ROWS
# samples a side, _TILE_BLOCKS output blocks per product, so that one
# product's operands and result take about 1 MB at most, at any N
_TILE_ROWS = 128
_TILE_BLOCKS = 256

# Default H2 step norm at which the fixed-point iteration stops: the tol_h2
# of every solver signature
DEFAULT_TOL_H2 = 1e-10


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise nonlinearity F(u, x) with declared growth and Lipschitz
    constants and an envelope function.

    eval must be vectorized: it receives equal-shape arrays (u, x).  At
    construction the declared constants are spot-checked on a
    deterministic random sample:

        |F(u, x)|          <= k*|u| + envelope(x) + 1e-9
        |F(u1,x) - F(u2,x)| <= l*|u1 - u2| + 1e-9
    """

    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    k: float
    envelope: GridFunction
    l: float

    def __post_init__(self):
        for c in (self.k, self.l):
            if not (c >= 0) or not math.isfinite(c):
                raise ValueError("growth and Lipschitz constants must be finite and nonnegative")
        if not self.envelope.is_real or np.any(self.envelope.values < 0):
            raise ValueError("envelope must be real and nonnegative")
        self._spot_check()

    def _spot_check(self, n_u: int = 48, n_x: int = 96):
        rng = np.random.default_rng(20240817)
        x = self.envelope.grid.x
        idx = rng.choice(len(x), size=min(n_x, len(x)), replace=False)
        xs = x[idx]
        env = self.envelope.values[idx]
        us = np.concatenate([[0.0], rng.uniform(-8.0, 8.0, n_u)])
        U, X = np.meshgrid(us, xs, indexing="ij")
        F = np.asarray(self.eval(U, X), dtype=np.float64)
        bound = self.k * np.abs(U) + env[None, :] + 1e-9
        if np.any(np.abs(F) > bound):
            i, j = np.unravel_index(np.argmax(np.abs(F) - bound), F.shape)
            raise ValueError(
                f"growth check failed: |F({U[i,j]:.3g}, {X[i,j]:.3g})| = {abs(F[i,j]):.6g} "
                f"> k|u| + envelope = {bound[i,j]:.6g}"
            )
        u1 = rng.uniform(-8.0, 8.0, n_u)
        u2 = rng.uniform(-8.0, 8.0, n_u)
        U1, X = np.meshgrid(u1, xs, indexing="ij")
        U2, _ = np.meshgrid(u2, xs, indexing="ij")
        d = np.abs(np.asarray(self.eval(U1, X)) - np.asarray(self.eval(U2, X)))
        lip = self.l * np.abs(U1 - U2) + 1e-9
        if np.any(d > lip):
            i, j = np.unravel_index(np.argmax(d - lip), d.shape)
            raise ValueError(
                f"Lipschitz check failed: |F({U1[i,j]:.3g},x) - F({U2[i,j]:.3g},x)| "
                f"= {d[i,j]:.6g} > l*|u1-u2| = {lip[i,j]:.6g} at x = {X[i,j]:.3g}"
            )


@dataclass(frozen=True)
class FixedPointIteration:
    """The iteration itself: its last iterate u, the H2 step norms, the
    contraction factor q = 2*sqrt(pi)*N*l, the a priori iteration bound
    and the kernel's stability report the iteration was gated on."""

    u: GridFunction
    step_norms: list[float]
    q_bound: float
    iteration_bound: int
    stability: KernelReport


@dataclass(frozen=True)
class FixedPointResult:
    u: GridFunction
    iterations: int
    step_norms: list[float]
    observed_ratio: float
    q_bound: float
    residual_l2: float
    residual_tail_bound: float
    nontrivial: bool
    stability: KernelReport
    iteration_bound: int


def convolve(G: GridFunction, w: GridFunction) -> GridFunction:
    """Periodic convolution int G(x-y) w(y) dy: sqrt(2*pi) * G_hat * w_hat,
    G's factor built as in :func:`_multiplier`; real when both are real."""
    G.require_same_grid(w)
    if G.is_real == w.is_real:
        gs, ws = G.spectrum, w.spectrum
    else:
        gs, ws = _spectrum_like(w, G.values), _spectrum_like(G, w.values)
    c = G.grid.dx * gs
    c[1::2] *= -1.0
    return GridFunction(G.grid, idft(c * ws, G.grid.N))


def _direct_sum_window(G: GridFunction):
    """The circular window of kernel samples the direct sum runs over:
    (start index, length K, L1 mass of the dropped tail).

    The window is centred on argmax|G| and drops the smallest outer
    samples, one end at a time, for as long as their total dx*sum|G_j|
    stays at or below eps*||G||_L1: below the round-off of the full sum.
    Dropping in order of each arm's running maximum from the outside in
    is the same greedy order, without a Python loop.  A kernel with no
    negligible samples keeps all N; the all-zero kernel keeps one.
    """
    N = G.grid.N
    mag = np.abs(G.values)
    c = int(np.argmax(mag))
    ring = np.roll(mag, -c)
    right = ring[N // 2 : 0 : -1]  # offsets N/2 .. 1 from c, outside in
    left = ring[N // 2 + 1 :]  # offsets -(N/2 - 1) .. -1
    keys = np.concatenate([np.maximum.accumulate(right), np.maximum.accumulate(left)])
    order = np.argsort(keys, kind="stable")
    dropped = np.cumsum(np.concatenate([right, left])[order])
    n = int(np.searchsorted(dropped, np.finfo(np.float64).eps * mag.sum(), side="right"))
    n_left = n - int(np.count_nonzero(order[:n] < N // 2))
    tail_l1 = G.grid.dx * float(dropped[n - 1]) if n else 0.0
    return (c - (N // 2 - 1 - n_left)) % N, N - n, tail_l1


def convolve_direct(G: GridFunction, w: GridFunction) -> GridFunction:
    """Same convolution by direct summation with periodic wrap; the
    cross-check path, independent of the transform machinery.

    The sum runs over the kernel's numerical support only (see
    :func:`_direct_sum_window`), in O(N*K) time for K kept samples; by
    Young's inequality the dropped tail moves the result by at most
    ||G_tail||_L1 * ||w||_L2 in L2.
    """
    G.require_same_grid(w)
    return _convolve_on_window(G, w, _direct_sum_window(G))


def _convolve_on_window(G: GridFunction, w: GridFunction, window) -> GridFunction:
    """:func:`convolve_direct` over a window from :func:`_direct_sum_window`.

    The circular sum y[n] = sum_k g[k] w[(n - k) mod N] over the window's
    K samples g runs as blocked Toeplitz products through BLAS, not an FFT.
    With B = _TILE_ROWS, row j of the matrix X holds the B samples
    w[((j - Q + 1)*B + s) mod N], s < B, and y's block b of B samples is
    sum_q X[b + q] @ T_q over Q = ceil((K - 1)/B) + 1 square tiles
    T_q[s, i] = g[(Q - 1 - q)*B - s + i] (zero off the window).  Each tile
    is built once and multiplies the rows X[q : q + nb], a view, at most
    _TILE_BLOCKS of them at a time.
    """
    N = G.grid.N
    start, K, _ = window
    B = _TILE_ROWS
    Q = -(-(K - 1) // B) + 1
    nb = -(-N // B)
    dtype = np.result_type(G.values, w.values)
    # the window after B - 1 zeros: its length-B windows, last first, are
    # the rows of T_0, T_1, ...
    g = np.zeros(Q * B + B - 1, dtype)
    g[B - 1 : B - 1 + K] = np.roll(G.values, -start)[:K]
    tiles = sliding_window_view(g, B)[::-1]
    X = np.take(w.values, np.arange((1 - Q) * B, nb * B), mode="wrap").reshape(-1, B)
    y = np.zeros((nb, B), dtype)
    for q in range(Q):
        tile = np.ascontiguousarray(tiles[q * B : (q + 1) * B])
        for r in range(0, nb, _TILE_BLOCKS):
            n = min(_TILE_BLOCKS, nb - r)
            y[r : r + n] += X[q + r : q + r + n] @ tile
    return GridFunction(G.grid, G.grid.dx * np.roll(y.ravel()[:N], start - N // 2))


def apply_nonlinearity(F: Nonlinearity, v: GridFunction) -> GridFunction:
    """Pointwise w(x) = F(v(x), x) on v's grid."""
    return GridFunction(v.grid, _evaluate(F, v.values, v.grid.x))


def _evaluate(F: Nonlinearity, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F(v, x) as float64 samples; ValueError unless v is real."""
    if np.iscomplexobj(v):
        raise ValueError("nonlinearity arguments must be real-valued")
    return np.asarray(F.eval(v, x), dtype=np.float64)


def _spectrum_like(G: GridFunction, values: np.ndarray) -> np.ndarray:
    """dft of samples in G's layout: all N bins when G or they are complex."""
    return dft(values.astype(np.result_type(values, G.values), copy=False))


def _step(c: np.ndarray, F: Nonlinearity, v: np.ndarray, G: GridFunction):
    """One step of the map on samples: u_hat = c * dft(F(v)) and
    u = idft(u_hat), the one finiteness check on u (ValueError)."""
    uh = c * _spectrum_like(G, _evaluate(F, v, G.grid.x))
    u = idft(uh, G.grid.N)
    if not np.all(np.isfinite(u)):
        raise ValueError("values contain NaN or Inf")
    return uh, u


def _multiplier(G: GridFunction, params: ShiftParams, tol_orth: float):
    """The map's gate and multiplier: G's stability report, NotFinite
    unless it is finite (G_hat vanishing at +-sqrt(a) when resonant), and
    c = dx * (-1)^k * G.spectrum / lambda (see :func:`inverse_symbol`),
    sqrt(2*pi) * G_hat / lambda with the transform factors folded in;
    (-1)^k centres the convolution."""
    report = stability_constant(G, params, tol_orth)
    if not report.finite:
        raise NotFinite(
            "stability constant is infinite: kernel orthogonality fails at +-sqrt(a)",
            report=report,
        )
    c = G.grid.dx * G.spectrum * inverse_symbol_on_grid(G.grid, params)[: len(G.spectrum)]
    c[1::2] *= -1.0
    return report, c


def apply_T(
    v: GridFunction, G: GridFunction, F: Nonlinearity, params: ShiftParams
) -> GridFunction:
    """One step of the fixed-point map: the solution u of the linear
    problem with right-hand side G * F(v, .), computed as
    u_hat = sqrt(2*pi) * G_hat * F(v)_hat / lambda; u is real when G is.
    Gated on a finite stability report, as :func:`iterate_fixed_point` is.
    """
    G.require_same_grid(v)
    c = _multiplier(G, params, DEFAULT_TOL_ORTH)[1]
    return GridFunction(G.grid, _step(c, F, v.values, G)[1])


def nontriviality_check(
    G: GridFunction,
    F: Nonlinearity,
    grid: Grid,
    threshold: float | None = None,
) -> bool:
    """Whether the transforms of G and of x -> F(0, x) overlap on a set
    of bins of positive measure; grid must be G's (ValueError otherwise).

    With no overlap the zero function is the fixed point.  threshold is
    absolute for both transforms; by default each uses 1e-12 times its
    own maximum magnitude.  On half of real spectra: both magnitudes are
    even in p.  Raises ValueError for a threshold that is not finite.
    """
    if threshold is not None and not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    f0 = GridFunction(grid, _evaluate(F, np.zeros(grid.N), grid.x))
    G.require_same_grid(f0)
    gh = np.abs(G.spectrum)
    fh = np.abs(_spectrum_like(G, f0.values))
    # |dft| is |transform| * sqrt(2*pi)/dx
    unit = SQRT_2PI / grid.dx
    thr_g = threshold * unit if threshold is not None else 1e-12 * gh.max()
    thr_f = threshold * unit if threshold is not None else 1e-12 * fh.max()
    return bool(np.any((gh > thr_g) & (fh > thr_f)))


def _a_priori_iterations(q: float, first_step: float, tol: float) -> int:
    """Iteration cap from the contraction factor: distance to the fixed
    point after k steps is at most q^k * ||v1 - v0|| / (1 - q)."""
    if first_step <= tol:
        return 1
    if q <= 0.0:
        return 2
    # a sum of logs: tol * (1 - q) / first_step underflows for a tol near
    # the subnormal range
    k = (math.log(tol) + math.log1p(-q) - math.log(first_step)) / math.log(q)
    return max(2, int(math.ceil(k)))


def iterate_fixed_point(
    G: GridFunction,
    F: Nonlinearity,
    params: ShiftParams,
    v0: GridFunction | None = None,
    tol_h2: float = DEFAULT_TOL_H2,
    max_iter: int | None = None,
    tol_orth: float = DEFAULT_TOL_ORTH,
) -> FixedPointIteration:
    """Iterate the map from v0 (default zero) until the H2 step norm
    drops to tol_h2: G's transform ``G.spectrum`` (1 FFT, which the
    stability constant and the multiplier share, none once taken) and 2
    FFTs per iteration (half-length when G is real), no diagnostics.

    Requires a positive contraction margin 1 - 2*sqrt(pi)*N*l (raises
    ContractionHypothesisFailed otherwise, including the boundary) and,
    for resonant parameters, a finite stability constant (NotFinite).
    Raises MaxIterExceeded past the a priori bound plus 2, or max_iter.

    Raises ValueError, before any work, unless tol_h2 and tol_orth are
    positive and finite and max_iter (when given) is at least 1.
    """
    if not (math.isfinite(tol_h2) and tol_h2 > 0.0):
        raise ValueError(f"tol_h2 must be positive and finite, got {tol_h2}")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    grid = G.grid
    report, c = _multiplier(G, params, tol_orth)
    q = 2.0 * np.sqrt(np.pi) * report.N * F.l
    if contraction_margin(report.N, F.l) <= 0.0:
        raise ContractionHypothesisFailed(
            f"2*sqrt(pi)*N*l = {q:.6g} >= 1; the fixed-point map does not contract"
        )
    if v0 is None:
        # the zero start's spectrum is zero, with no FFT: uh - 0.0 is uh bit for bit
        v, vh = np.zeros(grid.N), 0.0
    else:
        # a complex v0 is rejected by the first step
        G.require_same_grid(v0)
        v = v0.values
        vh = _spectrum_like(G, v)
    # H2 step norm by Parseval on the spectra uh, before the inverse drops
    # the Nyquist bin's imaginary part, which the kernel's tail certificate
    # bounds.  An FFT round trip would add a floor ~eps*p_max^2*||u|| that
    # exceeds tol_h2 on fine grids.
    h2_weight = parseval_weight(grid, len(c))
    step_norms: list[float] = []
    cap = bound = None
    while True:
        uh, u = _step(c, F, v, G)
        step = parseval_norm(h2_weight, uh - vh)
        step_norms.append(step)
        if bound is None:
            bound = _a_priori_iterations(q, step, tol_h2)
            cap = bound + 2 if max_iter is None else min(max_iter, bound + 2)
        if step <= tol_h2:
            break
        if len(step_norms) >= cap:
            raise MaxIterExceeded(
                f"no convergence within {cap} iterations "
                f"(a priori bound {bound}, last step {step:.3e})"
            )
        v, vh = u, uh
    return FixedPointIteration(
        u=GridFunction(grid, u),
        step_norms=step_norms,
        q_bound=q,
        iteration_bound=bound,
        stability=report,
    )


def fixed_point_solve(
    G: GridFunction,
    F: Nonlinearity,
    params: ShiftParams,
    v0: GridFunction | None = None,
    tol_h2: float = DEFAULT_TOL_H2,
    max_iter: int | None = None,
    tol_orth: float = DEFAULT_TOL_ORTH,
) -> FixedPointResult:
    """:func:`iterate_fixed_point`, plus the report's diagnostics: the
    observed step ratios, the residual, its tail bound and the
    nontriviality check.

    G's transform ``G.spectrum`` serves the iteration and the
    nontriviality check, and u's the residual and any later norm of u.
    The residual of the full nonlocal equation is recomputed
    independently: operator application on one side, direct-sum
    convolution on the other.  The direct sum skips a kernel tail below
    round-off; residual_tail_bound = ||G_tail||_L1 * ||F(u)||_L2 bounds,
    by Young's inequality, how far that moves the convolution in L2.
    """
    it = iterate_fixed_point(G, F, params, v0, tol_h2, max_iter, tol_orth)
    u, step_norms = it.u, it.step_norms
    ratios = [
        step_norms[i + 1] / step_norms[i]
        for i in range(1, len(step_norms) - 1)
        if step_norms[i] > 0.0
    ]
    Fu = apply_nonlinearity(F, u)
    window = _direct_sum_window(G)
    residual = l2_norm(apply_operator(u, params) - _convolve_on_window(G, Fu, window))
    return FixedPointResult(
        u=u,
        iterations=len(step_norms),
        step_norms=step_norms,
        observed_ratio=max(ratios) if ratios else 0.0,
        q_bound=it.q_bound,
        residual_l2=residual,
        residual_tail_bound=window[2] * l2_norm(Fu),
        nontrivial=nontriviality_check(G, F, G.grid),
        stability=it.stability,
        iteration_bound=it.iteration_bound,
    )
