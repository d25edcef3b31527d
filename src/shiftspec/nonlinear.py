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

from .errors import ContractionHypothesisFailed, MaxIterExceeded, NotFinite
from .kernels import KernelReport, contraction_margin, stability_constant
from .linear import apply_operator
from .spectral import (
    SQRT_2PI,
    Grid,
    GridFunction,
    SpectralFunction,
    forward_transform,
    inverse_transform,
    l2_norm,
)
from .symbols import ShiftParams, classify, inverse_symbol


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
    """Periodic convolution int G(x-y) w(y) dy, spectral form
    sqrt(2*pi) * G_hat * w_hat."""
    G.require_same_grid(w)
    gh = forward_transform(G)
    wh = forward_transform(w)
    conv = inverse_transform(SpectralFunction(G.grid, SQRT_2PI * gh.values * wh.values))
    if G.is_real and w.is_real:
        return GridFunction(G.grid, conv.values.real)
    return conv


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
    """:func:`convolve_direct` over a window from :func:`_direct_sum_window`."""
    N = G.grid.N
    start, K, _ = window
    full = np.convolve(np.roll(G.values, -start)[:K], w.values)  # direct sliding sum, not FFT
    circ = full[:N].copy()
    circ[: K - 1] += full[N:]
    vals = G.grid.dx * np.roll(circ, start - N // 2)
    if G.is_real and w.is_real:
        vals = vals.real
    return GridFunction(G.grid, vals)


def apply_nonlinearity(F: Nonlinearity, v: GridFunction) -> GridFunction:
    """Pointwise w(x) = F(v(x), x) on v's grid."""
    if not v.is_real:
        raise ValueError("nonlinearity arguments must be real-valued")
    vals = np.asarray(F.eval(v.values, v.grid.x), dtype=np.float64)
    return GridFunction(v.grid, vals)


def _step(mult: np.ndarray, F: Nonlinearity, v: GridFunction, G: GridFunction):
    """u_hat = mult * F(v)_hat and its inverse transform u (real if G is)."""
    uh = mult * forward_transform(apply_nonlinearity(F, v)).values
    return uh, G.real_like(inverse_transform(SpectralFunction(v.grid, uh)).values)


def apply_T(
    v: GridFunction, G: GridFunction, F: Nonlinearity, params: ShiftParams
) -> GridFunction:
    """One step of the fixed-point map: the solution u of the linear
    problem with right-hand side G * F(v, .), computed as
    u_hat = sqrt(2*pi) * G_hat * F(v)_hat * :func:`inverse_symbol`; u is
    real when G is.  Resonant parameters require a finite kernel report
    (G_hat vanishing at +-sqrt(a)), which every step's right-hand side
    inherits.
    """
    cls = classify(params)
    if cls.is_resonant:
        report = stability_constant(G, params)
        if not report.finite:
            raise NotFinite(
                "kernel transform does not vanish at +-sqrt(a); the auxiliary "
                f"problem has no H2 solution (|G_hat(+sqrt a)| = {abs(report.Ghat_plus):.3e}, "
                f"|G_hat(-sqrt a)| = {abs(report.Ghat_minus):.3e})",
                report=report,
            )
    G.require_same_grid(v)
    mult = SQRT_2PI * forward_transform(G).values * inverse_symbol(G.grid.p, params, cls)
    return _step(mult, F, v, G)[1]


def nontriviality_check(
    G: GridFunction,
    F: Nonlinearity,
    grid: Grid,
    threshold: float | None = None,
) -> bool:
    """Whether the transforms of G and of x -> F(0, x) overlap on a set
    of bins of positive measure.

    With no overlap the zero function is the fixed point.  threshold is
    absolute for both transforms; by default each uses 1e-12 times its
    own maximum magnitude.
    """
    gh = np.abs(forward_transform(GridFunction(grid, np.asarray(G.values))).values)
    f0 = GridFunction(grid, np.asarray(F.eval(np.zeros(grid.N), grid.x), dtype=np.float64))
    fh = np.abs(forward_transform(f0).values)
    thr_g = threshold if threshold is not None else 1e-12 * gh.max()
    thr_f = threshold if threshold is not None else 1e-12 * fh.max()
    overlap_bins = int(np.count_nonzero((gh > thr_g) & (fh > thr_f)))
    return overlap_bins > 0


def _a_priori_iterations(q: float, first_step: float, tol: float) -> int:
    """Iteration cap from the contraction factor: distance to the fixed
    point after k steps is at most q^k * ||v1 - v0|| / (1 - q)."""
    if first_step <= tol:
        return 1
    if q <= 0.0:
        return 2
    k = math.log(tol * (1.0 - q) / first_step) / math.log(q)
    return max(2, int(math.ceil(k)))


def fixed_point_solve(
    G: GridFunction,
    F: Nonlinearity,
    params: ShiftParams,
    v0: GridFunction | None = None,
    tol_h2: float = 1e-10,
    max_iter: int | None = None,
    tol_orth: float = 1e-8,
) -> FixedPointResult:
    """Iterate the map from v0 (default zero) until the H2 step norm
    drops to tol_h2.

    Requires a positive contraction margin 1 - 2*sqrt(pi)*N*l (raises
    ContractionHypothesisFailed otherwise, including the boundary).  The
    residual of the full nonlocal equation is recomputed independently:
    operator application on one side, direct-sum convolution on the
    other.  The direct sum skips a kernel tail below round-off;
    residual_tail_bound = ||G_tail||_L1 * ||F(u)||_L2 bounds, by Young's
    inequality, how far that moves the convolution in L2.
    """
    grid = G.grid
    cls = classify(params)
    report = stability_constant(G, params, tol_orth)
    if not report.finite:
        raise NotFinite(
            "stability constant is infinite: kernel orthogonality fails at +-sqrt(a)",
            report=report,
        )
    q = 2.0 * np.sqrt(np.pi) * report.N * F.l
    if contraction_margin(report.N, F.l) <= 0.0:
        raise ContractionHypothesisFailed(
            f"2*sqrt(pi)*N*l = {q:.6g} >= 1; the fixed-point map does not contract"
        )
    v = v0 if v0 is not None else GridFunction(grid, np.zeros(grid.N))
    G.require_same_grid(v)
    # the map's multiplier sqrt(2*pi) * G_hat / lambda, built once
    mult = SQRT_2PI * forward_transform(G).values * inverse_symbol(grid.p, params, cls)
    # H2 step norm by Parseval on the spectra uh, before the real projection
    # of u: that projection drops only round-off and the unpaired -N/2 bin,
    # which the kernel's tail certificate bounds.  An FFT round trip would
    # add a floor ~eps*p_max^2*||u|| that exceeds tol_h2 on fine grids.
    h2_weight = grid.dp * (1.0 + (grid.p * grid.p) ** 2)
    vh = forward_transform(v).values
    step_norms: list[float] = []
    cap = bound = None
    while True:
        uh, u = _step(mult, F, v, G)
        step = float(np.sqrt(np.sum(h2_weight * np.abs(uh - vh) ** 2)))
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
        q_bound=q,
        residual_l2=residual,
        residual_tail_bound=window[2] * l2_norm(Fu),
        nontrivial=nontriviality_check(G, F, grid),
        stability=report,
        iteration_bound=bound,
    )
