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
    forward_transform,
    l1_norm,
    transform_at_pm,
    transform_on_progression,
    weighted_l1_norm,
)
from .errors import ShiftSpecError
from .symbols import FredholmClass, ShiftParams, classify, inverse_symbol, symbol


@dataclass(frozen=True)
class KernelReport:
    """Stability diagnostics for a kernel G.

    N/sup1/sup2 are None exactly when finite is False (resonant shift
    with orthogonality violated); the +inf sentinel is this explicit
    flag, never a float('inf') in arithmetic.  tail_sup certifies the
    band truncation: the kernel transform magnitude at the outermost
    resolvable frequencies.
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


def kernel_orthogonality(G: GridFunction, a: float, tol: float = 1e-8):
    """Transform of G at +-sqrt(a) and whether both are below tol."""
    if a <= 0:
        raise ValueError("a must be positive")
    r = float(np.sqrt(a))
    gp, gm = transform_at_pm(G, r)
    return gp, gm, (abs(gp) <= tol and abs(gm) <= tol)


def stability_constant(
    G: GridFunction, params: ShiftParams, tol_orth: float = 1e-8
) -> KernelReport:
    """Compute the stability constant of G for the shift parameters.

    Resonant parameters with |G_hat(+-sqrt(a))| > tol_orth yield a
    report with finite=False and no constant (the sup diverges).  In the
    finite resonant case the quotients inside the singular bins are
    capped by the difference-quotient bound
    ||x G||_L1 / sqrt(2*pi*a)  (and, for the p^2 quotient, by
    max|G_hat| + a * that cap).  The on-grid quotients use
    :func:`inverse_symbol`, so a non-resonant grid with symbol values
    below alpha/2 raises NearSingularGrid.
    """
    grid = G.grid
    cls = classify(params)
    gp, gm, orth_ok = kernel_orthogonality(G, params.a, tol_orth)
    Gh = forward_transform(G)
    gh_abs = np.abs(Gh.values)
    gh_max = float(gh_abs.max())
    tail_sup = float(max(gh_abs[0], gh_abs[-1]))
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
    )
    if cls.is_resonant and not orth_ok:
        return KernelReport(N=None, sup1=None, sup2=None, finite=False, **common)

    inv_abs = np.abs(inverse_symbol(grid.p, params, cls))
    sup1 = float((gh_abs * inv_abs).max())
    sup2 = float((grid.p**2 * gh_abs * inv_abs).max())
    r = params.sqrt_a

    # refinement around +-sqrt(a): 65-point progressions leading away from
    # each root on either side; resonant zeros excluded and covered by the
    # caps instead
    e_min = 1e-4 * r if cls.is_resonant else 0.0
    away = np.array([1.0, -1.0, 1.0, -1.0])
    starts = np.array([r, r, -r, -r]) + away * e_min
    steps = away * (grid.dp - e_min) / 64
    p_ref = (starts[:, None] + steps[:, None] * np.arange(65)).ravel()
    gh_ref = np.abs(transform_on_progression(G, starts, steps, 65)).ravel()
    band = np.abs(p_ref) <= grid.p_max
    p_ref, gh_ref = p_ref[band], gh_ref[band]
    if p_ref.size:
        lam_ref = np.abs(symbol(p_ref, params))
        keep = lam_ref > 0
        sup1 = max(sup1, float((gh_ref[keep] / lam_ref[keep]).max()))
        sup2 = max(sup2, float((p_ref[keep] ** 2 * gh_ref[keep] / lam_ref[keep]).max()))

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


def contraction_margin(N: float, l: float) -> float:
    """1 - 2*sqrt(pi)*N*l; positive iff the fixed-point map contracts."""
    if N < 0 or l < 0:
        raise ValueError("N and l must be nonnegative")
    return 1.0 - 2.0 * np.sqrt(np.pi) * N * l
