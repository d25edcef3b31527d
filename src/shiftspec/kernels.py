"""Stability constants of convolution kernels against the shifted-argument
symbol, and the contraction margin they induce.

For a kernel G the constant is

    N = max( sup_p |G_hat(p) / lambda(p)|,  sup_p |p^2 G_hat(p) / lambda(p)| ),

finite for every integrable kernel in the non-resonant regime, and in
the resonant regime finite iff G_hat vanishes at +-sqrt(a).  The sup is
taken over the resolvable band: grid frequencies, refinement samples
around +-sqrt(a), and (resonant case) difference-quotient caps inside
the singular bins.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .spectral import (
    SQRT_2PI,
    GridFunction,
    evaluate_transform_at,
    fft_frequencies,
    l1_norm,
    transform_at_pm,
    weighted_l1_norm,
)
from .errors import ShiftSpecError
from .symbols import (
    DEFAULT_TOL_ORTH,
    FredholmClass,
    ShiftParams,
    check_orthogonality_tol,
    check_shift_coefficient,
    classify,
    inverse_symbol_on_grid,
    symbol,
)


@dataclass(frozen=True)
class KernelReport:
    """Stability diagnostics for a kernel G.

    N/sup1/sup2 are None exactly when finite is False (resonant shift
    with orthogonality violated); the +inf sentinel is this explicit
    flag, never a float('inf') in arithmetic.  tail_sup certifies the
    band truncation: the kernel transform magnitude at the outermost
    resolvable frequencies.  ghat_sup is max|G_hat| over the grid.
    """

    N: float | None
    sup1: float | None
    sup2: float | None
    finite: bool
    Ghat_plus: complex
    Ghat_minus: complex
    l1_norm_G: float
    weighted_l1_G: float
    tail_sup: float
    classification: FredholmClass
    ghat_sup: float


def kernel_orthogonality(G: GridFunction, a: float, tol: float = DEFAULT_TOL_ORTH):
    """Transform of G at +-sqrt(a) and whether both are at most tol
    (positive and finite, or ValueError before any work, as for a)."""
    check_orthogonality_tol(tol)
    check_shift_coefficient(a)
    gp, gm = transform_at_pm(G, float(np.sqrt(a)))
    return gp, gm, _orthogonal(gp, gm, tol)


def _orthogonal(gp: complex, gm: complex, tol: float) -> bool:
    """The one orthogonality test: both transform values at +-sqrt(a) are
    at most tol in modulus."""
    return abs(gp) <= tol and abs(gm) <= tol


def stability_constant(
    G: GridFunction, params: ShiftParams, tol_orth: float = DEFAULT_TOL_ORTH
) -> KernelReport:
    """Compute the stability constant of G for the shift parameters.

    Resonant parameters with |G_hat(+-sqrt(a))| > tol_orth yield a
    report with finite=False and no constant (the sup diverges).  In the
    finite resonant case the quotients inside the singular bins are
    capped by the difference-quotient bound
    ||x G||_L1 / sqrt(2*pi*a)  (and, for the p^2 quotient, by
    max|G_hat| + a * that cap).  The on-grid quotients use
    :func:`inverse_symbol`, so a non-resonant grid with symbol values
    below alpha/2 raises NearSingularGrid.  The grid transform is
    ``G.spectrum``: 1 FFT on first use, none after.  Raises ValueError,
    before any work, unless tol_orth is positive and finite.
    """
    check_orthogonality_tol(tol_orth)
    grid = G.grid
    cls = classify(params)
    r = params.sqrt_a

    # refinement around +-sqrt(a): 65 in-band frequencies leading away
    # from each root on either side, over one grid step; resonant zeros
    # excluded and covered by the caps instead.  One evaluation gives
    # G_hat(+-sqrt(a)) and the refinement samples
    e_min = 1e-4 * r if cls.is_resonant else 0.0
    away = e_min + (grid.dp - e_min) / 64 * np.arange(65)
    p_ref = np.concatenate([r + away, r - away, -r + away, -r - away])
    p_ref = p_ref[np.abs(p_ref) <= grid.p_max]
    values = evaluate_transform_at(G, np.concatenate([[r, -r], p_ref]))
    gp, gm = complex(values[0]), complex(values[1])
    # |G_hat| on the grid; bins N/2 - 1 and N/2 hold the outermost
    # frequencies p_max - dp and -p_max in either layout
    gh_abs = (grid.dx / SQRT_2PI) * np.abs(G.spectrum)
    gh_max = float(gh_abs.max())
    tail_sup = float(max(gh_abs[grid.N // 2 - 1], gh_abs[grid.N // 2]))
    if tail_sup > 1e-14 * max(1.0, gh_max):
        warnings.warn(
            "kernel transform has not decayed below 1e-14 at the band edge; "
            "the reported sup is not certified beyond the resolvable band",
            RuntimeWarning,
            stacklevel=2,
        )
    weighted_l1_G = weighted_l1_norm(G)
    common = dict(
        Ghat_plus=gp,
        Ghat_minus=gm,
        l1_norm_G=l1_norm(G),
        weighted_l1_G=weighted_l1_G,
        tail_sup=tail_sup,
        classification=cls,
        ghat_sup=gh_max,
    )
    if cls.is_resonant and not _orthogonal(gp, gm, tol_orth):
        return KernelReport(N=None, sup1=None, sup2=None, finite=False, **common)

    # on half a real G's spectrum: |G_hat| and |lambda| are even in p
    quot = gh_abs * np.abs(inverse_symbol_on_grid(grid, params)[: len(gh_abs)])
    sup1 = float(quot.max())
    sup2 = float((fft_frequencies(grid, len(quot)) ** 2 * quot).max())

    if p_ref.size:
        gh_ref = np.abs(values[2:])
        # lambda's only real zeros are the resonant +-sqrt(a), which the
        # samples stay 1e-4*sqrt(a) away from
        lam_ref = np.abs(symbol(p_ref, params))
        sup1 = max(sup1, float((gh_ref / lam_ref).max()))
        sup2 = max(sup2, float((p_ref**2 * gh_ref / lam_ref).max()))

    if cls.is_resonant:
        cap1 = weighted_l1_G / (SQRT_2PI * r)
        cap2 = gh_max + params.a * cap1
        sup1 = max(sup1, cap1)
        sup2 = max(sup2, cap2)

    # consequence of p^2/lambda = 1 + a e^{-iph}/lambda; holds pointwise,
    # so a violation means the sampling above is inconsistent
    if not sup2 <= gh_max + params.a * sup1 + 1e-9 * (1.0 + gh_max + sup1):
        raise ShiftSpecError(
            "sampled sups violate |p^2 G_hat/lambda| <= |G_hat| + a*|G_hat/lambda|: "
            f"sup2={sup2:.17g}, max|G_hat|={gh_max:.17g}, sup1={sup1:.17g}"
        )

    return KernelReport(N=max(sup1, sup2), sup1=sup1, sup2=sup2, finite=True, **common)


def contraction_factor(N: float, l: float) -> float:
    """q = 2*sqrt(pi)*N*l, the fixed-point map's contraction factor.
    Raises ValueError unless N and l are finite and nonnegative."""
    if N < 0 or l < 0:
        raise ValueError("N and l must be nonnegative")
    for name, value in (("N", N), ("l", l)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return 2.0 * np.sqrt(np.pi) * N * l


def contraction_margin(N: float, l: float) -> float:
    """1 - :func:`contraction_factor`; positive iff the map contracts."""
    return 1.0 - contraction_factor(N, l)
