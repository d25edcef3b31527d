"""Spectral solver for -u'' - a*u(x - h) = f on the periodic box.

Division by the symbol solves the equation at every grid frequency.  In
the resonant regime the symbol vanishes at p = +-sqrt(a); solvability
then requires the transform of f to vanish there, and any grid bin
sitting on a symbol zero is dropped from the division (its quotient is
quadrature noise once orthogonality holds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonantNotSolvable
from .kernels import kernel_orthogonality
from .spectral import (
    SQRT_2PI,
    Grid,
    GridFunction,
    apply_multiplier,
    evaluate_transform_at,
    forward_transform,
    idft,
    l2_norm,
    make_grid,
    parseval_norm,
    parseval_weight,
    transform_at_pm,
    weighted_l1_norm,
)
from .symbols import (
    DEFAULT_TOL_ORTH,
    FredholmClass,
    ShiftParams,
    classify,
    inverse_symbol_on_grid,
    symbol,
    symbol_on_grid,
)


@dataclass(frozen=True)
class SolvabilityReport:
    """Orthogonality diagnostics for a right-hand side.

    fhat_plus/fhat_minus are the transform values at +-sqrt(a); in the
    resonant regime the problem is solvable iff both are below the
    tolerance.  weighted_l1 is ||x f||_L1, finite by construction on the
    box but reported because the resonant theory requires it.
    """

    classification: FredholmClass
    fhat_plus: complex
    fhat_minus: complex
    weighted_l1: float
    solvable: bool
    tolerance_used: float


@dataclass(frozen=True)
class SymbolDivision:
    """The solve itself: u, its spectrum uh in the layout of
    :func:`shiftspec.spectral.dft` (the N/2 + 1 bins of a real f, before
    the inverse drops the Nyquist bin's imaginary part) and the
    solvability report the division was gated on."""

    u: GridFunction
    uh: np.ndarray
    solvability: SolvabilityReport


@dataclass(frozen=True)
class LinearSolveResult:
    u: GridFunction
    residual_l2: float
    solvability: SolvabilityReport
    h2_norm_u: float


def apply_operator(u: GridFunction, params: ShiftParams) -> GridFunction:
    """-u'' - a*u(x - h): u_hat times the symbol lambda(p) = p^2 - a*e^{-iph}
    (``apply_multiplier``), 2 FFTs, half-length and real when u is real."""
    return apply_multiplier(u, symbol_on_grid(u.grid, params))


def check_solvability(
    f: GridFunction, params: ShiftParams, tol: float = DEFAULT_TOL_ORTH
) -> SolvabilityReport:
    """Evaluate the transform of f at +-sqrt(a) and decide solvability.

    Non-resonant parameters are always solvable; resonant ones require
    the verdict of :func:`kernel_orthogonality`, |f_hat(+-sqrt(a))| <= tol.
    Raises ValueError, before any work, unless tol is positive and finite.
    """
    fp, fm, orthogonal = kernel_orthogonality(f, params.a, tol)
    cls = classify(params)
    return SolvabilityReport(
        classification=cls,
        fhat_plus=fp,
        fhat_minus=fm,
        weighted_l1=weighted_l1_norm(f),
        solvable=orthogonal or not cls.is_resonant,
        tolerance_used=tol,
    )


def divide_by_symbol(
    f: GridFunction, params: ShiftParams, tol_orth: float = DEFAULT_TOL_ORTH
) -> SymbolDivision:
    """Solve -u'' - a*u(x-h) = f by symbol division on the grid: 2 FFTs
    (half-length when f is real) and the solvability check, no
    diagnostics.

    Resonant parameters require the orthogonality report to pass (raises
    ResonantNotSolvable otherwise); the division follows
    :func:`inverse_symbol`, which drops machine-zero symbol bins and
    screens non-resonant grids (NearSingularGrid).
    """
    grid = f.grid
    report = check_solvability(f, params, tol_orth)
    if not report.solvable:
        raise ResonantNotSolvable(
            "orthogonality violated at +-sqrt(a): "
            f"|f_hat(+sqrt(a))| = {abs(report.fhat_plus):.3e}, "
            f"|f_hat(-sqrt(a))| = {abs(report.fhat_minus):.3e}, tol = {tol_orth:.3e}",
            report=report,
        )
    s = f.spectrum
    uh = inverse_symbol_on_grid(grid, params)[: len(s)] * s
    return SymbolDivision(u=GridFunction(grid, idft(uh, grid.N)), uh=uh, solvability=report)


def solve_linear(
    f: GridFunction, params: ShiftParams, tol_orth: float = DEFAULT_TOL_ORTH
) -> LinearSolveResult:
    """:func:`divide_by_symbol`, plus the residual ||Lu - f||_L2 (the
    operator applied to u again, 2 more FFTs) and the H2 norm of u."""
    sol = divide_by_symbol(f, params, tol_orth)
    residual = l2_norm(apply_operator(sol.u, params) - f)
    # H2 norm by Parseval on uh, as fixed_point_solve takes its step norm:
    # the inverse to u drops only the Nyquist bin's imaginary part, where
    # a decaying f's transform is negligible
    h2 = parseval_norm(parseval_weight(f.grid, len(sol.uh)), sol.uh)
    return LinearSolveResult(
        u=sol.u, residual_l2=residual, solvability=sol.solvability, h2_norm_u=h2
    )


def _projection_basis(grid: Grid, params: ShiftParams):
    """project_solvable's windows b_+- = w(x) e^{+-i sqrt(a) x} and the
    2x2 matrix of their transforms at +-sqrt(a), all read-only and
    memoized on the grid.  Both take their phase from one complex
    exponential: e^{-i sqrt(a) x} is its conjugate bit for bit (cos is
    even, sin odd, and e^{+-i*0} = 1 +- 0j).  Each window is w(x) times
    a fresh temporary, as in the formula w * np.exp(...): numpy reuses a
    large temporary operand's memory (temporary elision) and then rounds
    the sign of an underflowing product's zero part differently, so a
    product with the named phase array would not keep the formula's
    bits where the window is subnormal."""

    def build():
        r = params.sqrt_a
        window = np.exp(-grid.x**2 / 2.0)
        phase = np.exp(1j * r * grid.x)
        b_minus = window * np.conj(phase)
        b_plus = window * phase.copy()
        # freed before the transforms, whose temporaries then set the
        # process's peak memory on large grids
        del window, phase
        pairs =[transform_at_pm(GridFunction(grid, b), r) for b in (b_plus, b_minus)]
        return b_plus, b_minus, np.array(pairs).T

    return grid.memo("projection_basis", params, build)


def project_solvable(f: GridFunction, params: ShiftParams) -> GridFunction:
    """Remove the components of f responsible for non-orthogonality.

    Subtracts c_+ b_+ + c_- b_-, the windows w(x) e^{+-i sqrt(a) x} of
    :func:`_projection_basis` with a fixed Gaussian w(x) = e^{-x^2/2},
    with the coefficients that make the output transform vanish at
    +-sqrt(a) to quadrature accuracy.  Idempotent for already-orthogonal
    inputs.  Resonant parameters only.

    A real f subtracts only the real parts, (c_+ b_+).real + (c_- b_-).real,
    which is bit for bit the real part of the complex difference:
    complex addition and subtraction act on each part alone.  The two
    products stay complex, because numpy's complex product may fuse
    c.r*b.r - c.i*b.i into one rounding, which a product of the real
    parts would not match.
    """
    if not classify(params).is_resonant:
        raise ValueError("projection is defined for resonant parameters only")
    b_plus, b_minus, M = _projection_basis(f.grid, params)
    r = params.sqrt_a
    rhs = np.array(transform_at_pm(f, r))
    c = np.linalg.solve(M, rhs)
    if f.is_real:
        # summed in place in the first product's memory: a fresh N-point
        # array costs more than the sum at N = 131072
        correction = (c[0] * b_plus).real
        correction += (c[1] * b_minus).real
        return GridFunction(f.grid, f.values - correction)
    return GridFunction(f.grid, f.values - (c[0] * b_plus + c[1] * b_minus))


def derivative_bound_check(f: GridFunction, p: float):
    """Diagnostic: |d f_hat / dp| at p, by central difference (step 1e-5)
    of the off-grid transform, against the bound ||x f||_L1 / sqrt(2*pi).

    Returns (lhs, rhs, ok).  A hypothesis sanity check, not part of any
    solve path.
    """
    step = 1e-5
    lhs = abs(
        (evaluate_transform_at(f, p + step) - evaluate_transform_at(f, p - step)) / (2 * step)
    )
    rhs = weighted_l1_norm(f) / SQRT_2PI
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-6) + 1e-12


def resonant_aligned_half_length(a: float, target_L: float) -> float:
    """Half-length K*pi/sqrt(a) nearest to target_L (integer K >= 1), so
    the frequencies +-sqrt(a) fall exactly on the dual grid.  Raises
    ValueError unless a is positive and both are finite."""
    for name, value in (("a", a), ("target_L", target_L)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    unit = np.pi / np.sqrt(a)
    K = max(1, int(round(target_L / unit)))
    return K * unit


def resonance_quotient_masses(
    f_of_x,
    params: ShiftParams,
    levels: int = 4,
    K: int = 40,
    density: float = 16.0,
    delta: float | None = None,
):
    """L2 mass of the symbol quotient f_hat/lambda near +-sqrt(a) across
    box-doubling refinements.

    Level r uses the half-length (K*2^r + 1/2)*pi/sqrt(a), which keeps
    +-sqrt(a) exactly between dual-grid points while halving the
    frequency spacing, and a fixed sample density in x.  The returned
    masses sum |f_hat/lambda|^2 * dp over the bins within delta of
    +-sqrt(a).  With the orthogonality conditions violated the mass
    doubles per level (divergence witness); with them enforced it stays
    bounded.

    f_of_x: callable evaluating the right-hand side at an array of x.
    """
    r = params.sqrt_a
    if delta is None:
        delta = 0.15 * r
    masses = []
    for level in range(levels):
        L = (K * 2**level + 0.5) * np.pi / r
        N = int(np.ceil(L * density)) * 2
        grid = make_grid(L, N)
        f = GridFunction(grid, f_of_x(grid.x))
        fh = forward_transform(f)
        quot = fh.values / symbol(grid.p, params)
        mask = (np.abs(grid.p - r) <= delta) | (np.abs(grid.p + r) <= delta)
        masses.append(float(grid.dp * np.sum(np.abs(quot[mask]) ** 2)))
    return masses
