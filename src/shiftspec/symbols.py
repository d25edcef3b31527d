"""Fourier symbol of the shifted-argument operator -u'' - a*u(x - h),
resonance classification, and the essential-spectrum gap constant.

The symbol is lambda(p) = p^2 - a*e^{-iph}.  It vanishes at p = +-sqrt(a)
exactly when h = 2*pi*n/sqrt(a) for a nonzero integer n (the resonant
shifts); otherwise |lambda(p)|^2 is bounded below by a positive constant
alpha, estimated here by sampling, with local refinement, the band
around sqrt(a) where the minimum lies.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularGrid, ShiftSpecError
from .spectral import fft_frequencies

# Resonant grid bins are identified by a machine-zero symbol modulus
# relative to the natural scale |lambda(0)|^2 = a^2.  Only the bins at
# exactly +-sqrt(a) (aligned grids) fall below this.
RESONANT_BIN_GUARD = 1e-16


def check_shift_coefficient(a) -> None:
    """Raise ValueError unless a, the coefficient of the shifted term, is
    positive and finite: the one rule for a."""
    if not np.isfinite(a) or a <= 0:
        raise ValueError(f"'a' must be positive and finite, got {a}")


@dataclass(frozen=True)
class ShiftParams:
    """Coefficient a > 0 of the shifted term and the nonzero shift h."""

    a: float
    h: float

    def __post_init__(self):
        check_shift_coefficient(self.a)
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


def symbol_on_grid(grid, params: ShiftParams, bins: int):
    """lambda on the first ``bins`` grid frequencies in FFT order, the
    multiplier of a :func:`shiftspec.spectral.dft` spectrum of that
    length (N/2 + 1 for a real input, N for a complex one): symbol(p,
    params) at p = fft_frequencies(grid, bins), memoized on the grid
    under (params, bins) (see ``Grid.memo``) and read-only."""
    return grid.memo("symbol", (params, bins), lambda: symbol(fft_frequencies(grid, bins), params))


def inverse_symbol_on_grid(grid, params: ShiftParams, bins: int):
    """inverse_symbol on the first ``bins`` grid frequencies in FFT
    order, as :func:`symbol_on_grid`: the formula's bits, memoized on the
    grid under (params, bins) and read-only; the resonant zeros are
    +0+0j.  A build that raises NearSingularGrid stores nothing, so every
    such call raises."""
    lam = symbol_on_grid(grid, params, bins)
    return grid.memo(
        "inverse_symbol",
        (params, bins),
        lambda: _inverse(lam, fft_frequencies(grid, bins), params),
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
def classify(params: ShiftParams) -> FredholmClass:
    """Classify (a, h) as Resonant (with index n) or NonResonant (with a
    sampled alpha).  The only place resonance is decided, at the one
    tolerance :func:`default_resonance_tol` on |h - 2*pi*n/sqrt(a)|.  That
    tolerance must stay below pi/sqrt(a) so at most one index is a
    candidate: max(1, |h|)*sqrt(a) < 1e9*pi.  Raises ValueError before
    anything is sampled when it does not; a Resonant (a, h) samples
    nothing, a NonResonant one a few hundred points whatever |h| is
    (:func:`estimate_alpha`).

    Memoized (128 entries): ShiftParams and FredholmClass are frozen.
    """
    tol = default_resonance_tol(params)
    if not tol < np.pi / params.sqrt_a:
        raise ValueError(
            "max(1, |h|)*sqrt(a) must be below 1e9*pi, so that the resonance tolerance "
            f"1e-9*max(1, |h|) stays below pi/sqrt(a); got a = {params.a}, h = {params.h}"
        )
    n_star, dist = nearest_resonance(params)
    if n_star != 0 and dist <= tol:
        return FredholmClass(kind=FredholmKind.RESONANT, n=n_star)
    return FredholmClass(kind=FredholmKind.NON_RESONANT, alpha=_sampled_alpha(params))


def estimate_alpha(params: ShiftParams) -> float:
    """Sampled minimum of |lambda(p)|^2 over the line for non-resonant
    parameters: ``classify(params).alpha``, memoized with it.

    |lambda|^2 = (p^2 - a)^2 + 2*a*p^2*(1 - cos(ph)) is even in p, so
    p with |lambda|^2 <= U lie in the band |p^2 - a| <= sqrt(U) for any
    value U it takes.  U is the smallest of its values at p = 0 and at
    the points with cos(ph) = 1 next to sqrt(a).  The search samples
    [0, P], P = 2*(1 + sqrt(a)), on a grid of about 8 points per
    oscillation period 2*pi/|h| (at least 4097 points), but only the
    points within two grid steps of the band, and refines around every
    sampled local minimum there: a few hundred evaluations at any |h|.
    The result is min(U, that search): the full grid's sampled minimum
    bit for bit when that is at most U, and below it otherwise.  It is a
    sampled estimate, not a proven bound.  Raises ValueError when
    classify says Resonant, and whatever classify refuses.
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
    a, h = params.a, abs(params.h)
    P = 2.0 * (1.0 + params.sqrt_a)
    # about 8 coarse samples per oscillation period 2*pi/|h| of [0, P],
    # and at least 4097
    n_coarse = max(4097, int(8.0 * P * h / (2.0 * np.pi)) + 1)
    step = P / (n_coarse - 1)
    # |lambda|^2 >= (p^2 - a)^2, so p with |lambda|^2 <= U, a value that
    # |lambda|^2 takes, lie in the band |p^2 - a| <= sqrt(U): U is its
    # least value at the points p = 2*pi*m/|h| where cos(ph) = 1 at 0 and
    # on either side of sqrt(a), those in [0, P] (which keeps p finite)
    k = params.sqrt_a * h / (2.0 * np.pi)
    ones = [2.0 * np.pi * m / h for m in (0.0, np.floor(k), np.ceil(k)) if 2.0 * np.pi * m <= P * h]
    U = float(symbol_modulus_sq(np.array(ones), params).min())
    lo, hi = np.sqrt(max(a - np.sqrt(U), 0.0)), np.sqrt(a + np.sqrt(U))
    # each coarse sample's refinement window [p_{i-1}, p_{i+1}] zooms less
    # than step/7 past its ends, so a sample more than two steps from the
    # band neither takes nor refines to a value <= U; U <= a^2 keeps the
    # band below sqrt(2a), samples short of P
    start = max(int(np.ceil(lo / step)) - 2, 0)
    stop = int(hi / step) + 3
    # with the neighbour on each side that the local-minimum test reads
    first = max(start - 1, 0)
    p = np.arange(first, stop + 1) * step
    v = symbol_modulus_sq(p, params)
    # 0 and every local minimum
    lowest = np.ones(len(v), bool)
    lowest[1:-1] = (v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])
    own = np.flatnonzero(lowest[start - first : -1]) + start - first
    best = min(U, float(v.min()))
    if len(own):
        lo, hi = p[np.maximum(own - 1, 0)], p[own + 1]
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
