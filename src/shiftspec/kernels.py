"""Stability constants of convolution kernels against the shifted-argument
symbol, and the contraction margin they induce.

For a kernel G the constant is

    N = max( sup_p |G_hat(p) / lambda(p)|,  sup_p |p^2 G_hat(p) / lambda(p)| ),

finite for every integrable kernel in the non-resonant regime, and in
the resonant regime finite iff G_hat vanishes at +-sqrt(a).  The sup is
taken over the resolvable band: grid frequencies, refinement samples
near the roots, and (resonant case) difference-quotient caps inside
the singular bins.  The on-grid quotients are taken on G's own bins,
the N/2 + 1 of a real G's spectrum or the N of a complex one's.  The
refinement samples lead away from +sqrt(a) on either side, 65 per side
over one grid step, and for a complex G from -sqrt(a) too.  A real G
skips the samples around -sqrt(a): its |G_hat(-p)| = |G_hat(p)| and
|lambda(-p)| = |lambda(p)|, so they would repeat the quotients around
+sqrt(a) (the Hermitian symmetry that real-input FFTs use too).  Its
report is the same, bit for bit, at half the off-grid work: 132
frequencies instead of 262.
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
    ``G.spectrum``: 1 FFT on first use, none after.  G_hat(+-sqrt(a))
    and the refinement samples are one off-grid evaluation: around
    +sqrt(a) only for a real G (see the module docstring), around both
    roots for a complex one.  The frequencies, |lambda| there, and
    |1/lambda| and p^2 on G's bins are built once per (grid, params,
    number of bins) (:func:`_stability_tables`).  Raises ValueError,
    before any work, unless tol_orth is positive and finite.
    """
    check_orthogonality_tol(tol_orth)
    grid = G.grid
    cls = classify(params)
    r = params.sqrt_a
    # the norms first: their N-sample temporaries would set the peak
    # memory if the tables and the spectrum were held by then
    l1_norm_G, weighted_l1_G = l1_norm(G), weighted_l1_norm(G)
    p_eval, lam_ref, inv_abs, p2 = _stability_tables(grid, params, len(G.spectrum))
    # one evaluation gives G_hat(+-sqrt(a)) and the refinement samples
    values = evaluate_transform_at(G, p_eval)
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
    common = dict(
        Ghat_plus=gp,
        Ghat_minus=gm,
        l1_norm_G=l1_norm_G,
        weighted_l1_G=weighted_l1_G,
        tail_sup=tail_sup,
        classification=cls,
        ghat_sup=gh_max,
    )
    if cls.is_resonant and not _orthogonal(gp, gm, tol_orth):
        return KernelReport(N=None, sup1=None, sup2=None, finite=False, **common)

    # in place: |G_hat| is not read again
    quot = np.multiply(gh_abs, inv_abs, out=gh_abs)
    sup1 = float(quot.max())
    sup2 = float(np.multiply(quot, p2, out=quot).max())

    if lam_ref.size:
        p_ref, gh_ref = p_eval[2:], np.abs(values[2:])
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


def _stability_tables(grid, params: ShiftParams, bins: int):
    """The arrays that every stability report for (grid, params) reads,
    for a G whose spectrum has ``bins`` bins (N/2 + 1 real, N complex),
    built once per grid (``Grid.memo``, kind ``stability``) for the most
    recent (params, bins): the frequencies [sqrt(a), -sqrt(a),
    refinement samples], |lambda| at the refinement samples, and
    |1/lambda| and p^2 on the bins (8 bytes a bin each).

    The refinement samples are 65 in-band frequencies leading away from
    +sqrt(a) on either side, over one grid step, and for a complex G
    (``bins == grid.N``) the same around -sqrt(a) as their negatives
    (the same floats as -sqrt(a) +- the steps), in the same order for
    |lambda|.  A real G's |G_hat| and |lambda| are even in p, so those
    would repeat the quotients around +sqrt(a).  Resonant zeros are
    excluded (the steps start at 1e-4*sqrt(a)) and covered by the caps
    instead."""

    def build():
        r = params.sqrt_a
        e_min = 1e-4 * r if classify(params).is_resonant else 0.0
        away = e_min + (grid.dp - e_min) / 64 * np.arange(65)
        p_ref = np.concatenate([r + away, r - away])
        p_ref = p_ref[np.abs(p_ref) <= grid.p_max]
        if bins == grid.N:
            p_ref = np.concatenate([p_ref, -p_ref])
        # lambda's only real zeros are the resonant +-sqrt(a), which the
        # samples stay 1e-4*sqrt(a) away from
        lam_ref = np.abs(symbol(p_ref, params))
        inv_abs = np.abs(inverse_symbol_on_grid(grid, params, bins))
        return np.concatenate([[r, -r], p_ref]), lam_ref, inv_abs, fft_frequencies(grid, bins) ** 2

    return grid.memo("stability", (params, bins), build)


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
