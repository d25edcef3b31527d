"""Fourier symbol of the shifted-argument operator -u'' - a*u(x - h),
resonance classification, and the essential-spectrum gap constant.

The symbol is lambda(p) = p^2 - a*e^{-iph}.  It vanishes at p = +-sqrt(a)
exactly when h = 2*pi*n/sqrt(a) for a nonzero integer n (the resonant
shifts); otherwise |lambda(p)|^2 is bounded below by a positive constant
alpha, estimated here by dense sampling with local refinement.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularGrid, ShiftSpecError
from .spectral import MAX_POINTS, fft_frequencies

# Resonant grid bins are identified by a machine-zero symbol modulus
# relative to the natural scale |lambda(0)|^2 = a^2.  Only the bins at
# exactly +-sqrt(a) (aligned grids) fall below this.
RESONANT_BIN_GUARD = 1e-16

# _sampled_alpha samples |lambda|^2 and refines the sampled minima this
# many coarse samples at a time: a few MB however many samples it takes
_ALPHA_BLOCK = 2**14


@dataclass(frozen=True)
class ShiftParams:
    """Coefficient a > 0 of the shifted term and the nonzero shift h."""

    a: float
    h: float

    def __post_init__(self):
        if not np.isfinite(self.a) or self.a <= 0:
            raise ValueError(f"'a' must be positive and finite, got {self.a}")
        if not np.isfinite(self.h) or self.h == 0:
            raise ValueError(f"'h' must be nonzero and finite, got {self.h}")

    @property
    def sqrt_a(self) -> float:
        return float(np.sqrt(self.a))


class FredholmKind(enum.Enum):
    NON_RESONANT = "NonResonant"
    RESONANT = "Resonant"


@dataclass(frozen=True)
class FredholmClass:
    """Resonance classification of a (a, h) pair.

    Resonant carries the resonance index n (h = 2*pi*n/sqrt(a), n != 0);
    NonResonant carries alpha, a sampled lower bound estimate for
    |lambda(p)|^2 over the real line.
    """

    kind: FredholmKind
    n: int | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind is FredholmKind.RESONANT:
            if self.n is None or self.n == 0:
                raise ValueError("resonant classification requires a nonzero index n")
        else:
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("non-resonant classification requires alpha > 0")

    @property
    def is_resonant(self) -> bool:
        return self.kind is FredholmKind.RESONANT


def symbol(p, params: ShiftParams):
    """lambda(p) = p^2 - a*cos(ph) + i*a*sin(ph).  Vectorized in p."""
    p = np.asarray(p, dtype=np.float64)
    ph = p * params.h
    out = p**2 - params.a * np.cos(ph) + 1j * params.a * np.sin(ph)
    return complex(out) if out.ndim == 0 else out


def symbol_modulus_sq(p, params: ShiftParams):
    """|lambda(p)|^2 in the algebraically expanded form
    (p^2 - a)^2 + 2*a*p^2*(1 - cos(ph))."""
    p = np.asarray(p, dtype=np.float64)
    out = (p**2 - params.a) ** 2 + 2.0 * params.a * p**2 * (1.0 - np.cos(p * params.h))
    return float(out) if out.ndim == 0 else out


def inverse_symbol(p, params: ShiftParams):
    """1/lambda(p) on grid frequencies: the division rule of every solve,
    for the memoized :func:`classify` of params.

    Resonant parameters get 0 on the bins where
    |lambda|^2 < RESONANT_BIN_GUARD * a^2 (the symbol zeros at +-sqrt(a)
    on aligned grids).  Non-resonant ones raise NearSingularGrid when
    |lambda|^2 < alpha/2 anywhere, which would indicate a
    misclassification.
    """
    return _inverse(symbol(p, params), p, params)


def symbol_on_grid(grid, params: ShiftParams):
    """lambda on the grid in FFT order, the multiplier of
    :func:`shiftspec.spectral.dft` spectra: symbol(p, params) at
    p = fft_frequencies(grid, N), memoized on the grid (see ``Grid.memo``)
    and read-only.  A real input's half spectrum reads the first N/2 + 1
    entries."""
    return grid.memo("symbol", params, lambda: symbol(fft_frequencies(grid, grid.N), params))


def inverse_symbol_on_grid(grid, params: ShiftParams):
    """inverse_symbol on the grid in FFT order, as :func:`symbol_on_grid`,
    memoized on the grid and read-only.  A build that raises
    NearSingularGrid stores nothing, so every such call raises."""
    lam = symbol_on_grid(grid, params)
    return grid.memo(
        "inverse_symbol",
        params,
        lambda: _inverse(lam, fft_frequencies(grid, grid.N), params),
    )


def _inverse(lam, p, params: ShiftParams):
    """inverse_symbol from lambda(p)."""
    cls = classify(params)
    mod2 = symbol_modulus_sq(p, params)
    if cls.is_resonant:
        singular = mod2 < RESONANT_BIN_GUARD * params.a**2
        return np.where(singular, 0.0, 1.0 / np.where(singular, 1.0, lam))
    if np.any(mod2 < cls.alpha / 2.0):
        raise NearSingularGrid(
            "grid carries symbol values below alpha/2 for a non-resonant "
            "classification; grid or classification is pathological"
        )
    return 1.0 / lam


# Default bound on |transform(+-sqrt(a))| of the orthogonality checks: the
# tol or tol_orth of every solver signature
DEFAULT_TOL_ORTH = 1e-8


def check_orthogonality_tol(tol: float) -> None:
    """Raise ValueError unless tol, the bound on |transform(+-sqrt(a))|
    that the orthogonality checks compare with, is positive and finite."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"orthogonality tolerance must be positive and finite, got {tol}")


def default_resonance_tol(params: ShiftParams) -> float:
    """Default detection tolerance: 1e-9 relative in h."""
    return 1e-9 * max(1.0, abs(params.h))


def nearest_resonance(params: ShiftParams):
    """The integer n* = round(h*sqrt(a)/(2*pi)) and |h - 2*pi*n*/sqrt(a)|."""
    n_star = int(round(params.h * params.sqrt_a / (2.0 * np.pi)))
    dist = abs(params.h - 2.0 * np.pi * n_star / params.sqrt_a)
    return n_star, dist


@functools.lru_cache
def classify(params: ShiftParams, tol: float | None = None) -> FredholmClass:
    """Classify (a, h) as Resonant (with index n) or NonResonant (with a
    sampled alpha).  The only place resonance is decided.  tol is the
    absolute tolerance on |h - 2*pi*n/sqrt(a)| (default
    :func:`default_resonance_tol`); a pair beyond it is NonResonant and
    sampled, so an explicit tol below the default can return a tiny
    alpha.  tol must stay below pi/sqrt(a) so at most one index is a
    candidate; for the default tolerance that is max(1, |h|)*sqrt(a) < 1e9*pi.
    Raises ValueError before anything is sampled when it does not, or
    when a NonResonant (a, h) needs more than 2**24 samples
    (:func:`alpha_sample_count`); a Resonant one samples nothing.

    Memoized (128 entries): ShiftParams and FredholmClass are frozen.
    """
    if tol is None:
        tol = default_resonance_tol(params)
        if not tol < np.pi / params.sqrt_a:
            raise ValueError(
                "max(1, |h|)*sqrt(a) must be below 1e9*pi, so that the resonance tolerance "
                f"1e-9*max(1, |h|) stays below pi/sqrt(a); got a = {params.a}, h = {params.h}"
            )
    elif not 0 < tol < np.pi / params.sqrt_a:
        raise ValueError(
            f"tol must lie in (0, pi/sqrt(a)) = (0, {np.pi / params.sqrt_a:.6g}), got {tol}"
        )
    n_star, dist = nearest_resonance(params)
    if n_star != 0 and dist <= tol:
        return FredholmClass(kind=FredholmKind.RESONANT, n=n_star)
    return FredholmClass(kind=FredholmKind.NON_RESONANT, alpha=_sampled_alpha(params))


def alpha_sample_count(params: ShiftParams) -> int:
    """The number of coarse samples :func:`estimate_alpha` takes on [0, P],
    P = 2*(1 + sqrt(a)): at least ~8 per oscillation period 2*pi/|h|,
    and at least 4097.  Raises ValueError, before anything is allocated,
    when it passes MAX_POINTS: when (1 + sqrt(a))*|h| reaches
    2**24*pi/8 (about 6.6e6)."""
    P = 2.0 * (1.0 + params.sqrt_a)
    n = 8.0 * P * abs(params.h) / (2.0 * np.pi)
    if not n < MAX_POINTS:
        raise ValueError(
            f"estimate_alpha would sample |lambda|^2 at {n:.3g} points, more than 2**24: "
            f"(1 + sqrt(a))*|h| must stay below 2**24*pi/8 = {MAX_POINTS * np.pi / 8:.7g}, "
            f"got a = {params.a}, h = {params.h}"
        )
    return max(4097, int(n) + 1)


def estimate_alpha(params: ShiftParams) -> float:
    """Sampled minimum of |lambda(p)|^2 over the line for non-resonant
    parameters: ``classify(params).alpha``, memoized with it.

    |lambda|^2 is even in p and dominated by (p^2 - a)^2 outside
    [-P, P] with P = 2*(1 + sqrt(a)), so the search samples [0, P]
    densely (resolving the cos(ph) oscillation) and refines around every
    sampled local minimum.  The returned value is a sampled estimate,
    not a proven bound.  Raises ValueError when classify says Resonant,
    and whatever classify refuses, such as parameters that need more
    than 2**24 samples (:func:`alpha_sample_count`).
    """
    cls = classify(params)
    if cls.is_resonant:
        raise ValueError(
            f"resonant parameters (n={cls.n}): |lambda|^2 vanishes at +-sqrt(a), "
            "no positive lower bound exists"
        )
    return cls.alpha


def _sampled_alpha(params: ShiftParams) -> float:
    """The sampled minimum of :func:`estimate_alpha`, for classify."""
    a = params.a
    P = 2.0 * (1.0 + params.sqrt_a)
    n_coarse = alpha_sample_count(params)
    step = P / (n_coarse - 1)
    best = np.inf
    # the samples of np.linspace(0.0, P, n_coarse), block by block, with
    # the neighbour on each side that the local-minimum test and the
    # refinement windows read; each window is refined on its own and min
    # is exact, so the blocks bound the memory and leave the result's bits
    for start in range(0, n_coarse, _ALPHA_BLOCK):
        stop = min(start + _ALPHA_BLOCK, n_coarse)
        first, last = max(start - 1, 0), min(stop + 1, n_coarse)
        p = np.arange(first, last) * step
        if last == n_coarse:
            p[-1] = P
        v = symbol_modulus_sq(p, params)
        # the end points 0 and P and every local minimum; the block's own
        # first and last samples have both neighbours unless they are 0 or P
        lowest = np.ones(len(v), bool)
        lowest[1:-1] = (v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])
        own = slice(start - first, stop - first)
        best = min(best, float(v[own].min()))
        block = np.flatnonzero(lowest[own]) + own.start
        if len(block):
            lo = p[np.maximum(block - 1, 0)]
            hi = p[np.minimum(block + 1, len(p) - 1)]
            best = min(best, _refined_minimum(lo, hi, params, P))
    if best < 1e-18 * max(1.0, a * a):
        raise ValueError(
            "sampled minimum of |lambda|^2 is at machine zero; "
            "parameters are resonant or indistinguishable from resonant"
        )
    # beyond the window the modulus exceeds the sampled minimum already
    # through its (p^2-a)^2 part
    if not (P * P - a) ** 2 >= best:
        raise ShiftSpecError(
            f"sampled minimum {best:.17g} of |lambda|^2 exceeds (P^2-a)^2 at the "
            f"window edge P={P:.17g}; the search window misses the minimum"
        )
    return best


def _refined_minimum(lo, hi, params: ShiftParams, P: float) -> float:
    """The smallest |lambda|^2 that six rounds of 33-point samples find,
    each round zooming 8x into every window [lo, hi] around its best
    point, inside [0, P]."""
    rows = np.arange(len(lo))
    best = np.inf
    for _ in range(6):
        grids = np.linspace(lo, hi, 33, axis=1)
        vals = symbol_modulus_sq(grids, params)
        idx = np.argmin(vals, axis=1)
        best = min(best, float(vals[rows, idx].min()))
        centers = grids[rows, idx]
        width = (hi - lo) / 16.0
        lo = np.maximum(centers - width, 0.0)
        hi = np.minimum(centers + width, P)
    return best
