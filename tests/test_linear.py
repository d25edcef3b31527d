import numpy as np
import pytest

import shiftspec.linear
import shiftspec.symbols
from shiftspec.errors import NearSingularGrid, ResonantNotSolvable
from shiftspec.kernels import kernel_orthogonality, stability_constant
from shiftspec.linear import (
    apply_operator,
    check_solvability,
    derivative_bound_check,
    divide_by_symbol,
    project_solvable,
    resonance_quotient_masses,
    resonant_aligned_half_length,
    solve_linear,
)
from shiftspec.nonlinear import Nonlinearity, apply_T
from shiftspec.spectral import (
    GridFunction,
    evaluate_transform_at,
    forward_transform,
    h2_norm,
    idft,
    l2_norm,
    make_grid,
    second_derivative,
    shift,
)
from shiftspec.symbols import FredholmClass, FredholmKind, ShiftParams, classify, symbol

RESONANT = ShiftParams(1.0, 2 * np.pi)
NONRESONANT = ShiftParams(1.0, 1.0)


@pytest.fixture(scope="module")
def grid():
    return make_grid(40.0, 4096)


@pytest.fixture(scope="module")
def aligned_grid():
    # sqrt(a) = 1 exactly on the dual grid
    return make_grid(resonant_aligned_half_length(1.0, 40.0), 4096)


def test_check_solvability_gaussian_resonant(grid):
    f = GridFunction(grid, np.exp(-grid.x**2 / 2))
    rep = check_solvability(f, RESONANT, tol=1e-8)
    assert not rep.solvable
    assert abs(rep.fhat_plus) == pytest.approx(np.exp(-0.5), abs=1e-12)
    assert abs(rep.fhat_minus) == pytest.approx(np.exp(-0.5), abs=1e-12)
    assert np.isfinite(rep.weighted_l1)


def test_check_solvability_hermite_resonant(grid):
    f = GridFunction(grid, grid.x**2 * np.exp(-grid.x**2 / 2))
    rep = check_solvability(f, RESONANT, tol=1e-8)
    assert rep.solvable
    assert abs(rep.fhat_plus) <= 1e-10
    assert abs(rep.fhat_minus) <= 1e-10


def test_check_solvability_nonresonant_always(grid):
    f = GridFunction(grid, np.exp(-grid.x**2 / 2))
    rep = check_solvability(f, NONRESONANT, tol=1e-8)
    assert rep.solvable
    assert rep.classification.kind is FredholmKind.NON_RESONANT


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_check_solvability_agrees_with_kernel_orthogonality(complex_input):
    # one orthogonality test: check_solvability's transform values are
    # kernel_orthogonality's bit for bit, and solvable is its verdict or
    # NonResonant, at the tie tol = max|f_hat(+-sqrt(a))| and one ulp below
    rng = np.random.default_rng(2707)
    for trial in range(8):
        a = float(rng.uniform(0.3, 3.0))
        if trial % 2:
            h = 2 * np.pi * int(rng.choice([-2, -1, 1, 2])) / np.sqrt(a)
        else:
            h = float(rng.uniform(0.2, 3.0))
        params = ShiftParams(a, h)
        assert classify(params).is_resonant == bool(trial % 2)
        grid = make_grid(resonant_aligned_half_length(a, 12.0), 256)
        center, width = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
        values = np.exp(-(((grid.x - center) / width) ** 2))
        if complex_input:
            values = values * np.exp(1j * rng.uniform(-2.0, 2.0) * grid.x)
        f = GridFunction(grid, values)
        fp, fm, _ = kernel_orthogonality(f, a)
        tie = max(abs(fp), abs(fm))
        for tol in (tie, np.nextafter(tie, 0.0)):
            report = check_solvability(f, params, tol)
            gp, gm, orthogonal = kernel_orthogonality(f, a, tol)
            assert orthogonal == (tol == tie)
            assert (report.fhat_plus, report.fhat_minus) == (gp, gm) == (fp, fm)
            assert report.solvable == (orthogonal or not classify(params).is_resonant)
            assert report.tolerance_used == tol


def test_manufactured_round_trip(grid):
    star = GridFunction(grid, np.exp(-grid.x**2))
    f = apply_operator(star, NONRESONANT)
    result = solve_linear(f, NONRESONANT)
    assert h2_norm(result.u - star) / h2_norm(star) <= 1e-8
    assert result.residual_l2 <= 1e-8


def test_solve_zero(grid):
    z = GridFunction(grid, np.zeros(grid.N))
    result = solve_linear(z, NONRESONANT)
    assert l2_norm(result.u) == 0


def test_solve_resonant_not_solvable(grid):
    f = GridFunction(grid, np.exp(-grid.x**2 / 2))
    with pytest.raises(ResonantNotSolvable):
        solve_linear(f, RESONANT)


def test_solve_resonant_orthogonal_aligned(aligned_grid):
    f = GridFunction(aligned_grid, aligned_grid.x**2 * np.exp(-aligned_grid.x**2 / 2))
    result = solve_linear(f, RESONANT)
    assert result.solvability.solvable
    assert result.residual_l2 <= 1e-8
    # the singular bins are on-grid here: the symbol vanishes at +-1
    assert abs(symbol(1.0, RESONANT)) <= 1e-12


def test_solve_resonant_round_trip_aligned(aligned_grid):
    # pick u* with transform vanishing at +-1 so f = L u* is orthogonal
    # automatically (verified, not assumed)
    star = GridFunction(
        aligned_grid, aligned_grid.x**2 * np.exp(-aligned_grid.x**2 / 2)
    )
    f = apply_operator(star, RESONANT)
    rep = check_solvability(f, RESONANT, tol=1e-6)
    assert rep.solvable
    result = solve_linear(f, RESONANT, tol_orth=1e-6)
    # the guard zeroes the two singular bins; u* has no content there
    assert h2_norm(result.u - star) / h2_norm(star) <= 1e-8


EPS = np.finfo(float).eps


@pytest.mark.parametrize("resonant", [False, True])
@pytest.mark.parametrize("complex_input", [False, True])
def test_apply_operator_matches_two_pass_form(grid, aligned_grid, resonant, complex_input):
    # one symbol multiplication against -u'' - a*u(x-h) from the separate
    # spectral passes, to the eps*(p_max^2 + a) round-off floor
    g, params = (aligned_grid, RESONANT) if resonant else (grid, NONRESONANT)
    rng = np.random.default_rng(41)
    for _ in range(3):
        vals = rng.standard_normal(g.N) * np.exp(-g.x**2 / 8)
        if complex_input:
            vals = vals + 1j * rng.standard_normal(g.N) * np.exp(-g.x**2 / 8)
        u = GridFunction(g, vals)
        Lu = apply_operator(u, params)
        assert Lu.is_real is u.is_real
        two_pass = second_derivative(u) * (-1.0) - params.a * shift(u, params.h)
        floor = 4 * EPS * (g.p_max**2 + params.a) * l2_norm(u)
        assert l2_norm(Lu - two_pass) <= floor


def test_apply_operator_inverts_solve_linear_off_resonance():
    # random non-resonant (a, h) at N = 512 and 4096; real right-hand
    # sides are smooth (the real projection of u drops part of the
    # unpaired -N/2 bin), complex ones are windowed noise
    rng = np.random.default_rng(43)
    for L, N in [(15.0, 512), (40.0, 4096)]:
        g = make_grid(L, N)
        for _ in range(3):
            params = ShiftParams(rng.uniform(0.5, 2.0), rng.uniform(0.2, 3.0))
            c, s, amp = rng.uniform(-5, 5, 3), rng.uniform(0.5, 2.0, 3), rng.standard_normal(3)
            smooth = sum(
                A * np.exp(-((g.x - ci) ** 2) / (2 * si**2)) for A, ci, si in zip(amp, c, s)
            )
            noise = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * np.exp(-g.x**2 / 8)
            for f in (GridFunction(g, smooth), GridFunction(g, noise)):
                result = solve_linear(f, params)
                floor = 4 * EPS * (1.0 + g.p_max**2) * result.h2_norm_u
                assert l2_norm(apply_operator(result.u, params) - f) <= floor


def test_solve_linear_fft_count(grid, fft_calls):
    # 1 forward and 1 inverse for the solve, 2 for the residual's operator
    # application, all half-length for a real f; the H2 norm comes from
    # the spectra by Parseval.  A complex f takes full-length ones
    f = np.exp(-grid.x**2 / 2)
    solve_linear(GridFunction(grid, f), NONRESONANT)
    assert fft_calls == [("rfft", grid.N), ("irfft", grid.N)] * 2
    fft_calls.clear()
    solve_linear(GridFunction(grid, f + 0j), NONRESONANT)
    assert fft_calls == [("fft", grid.N), ("ifft", grid.N)] * 2


def test_divide_by_symbol_is_solve_linear_without_diagnostics(monkeypatch):
    # the core's u and report are solve_linear's bit for bit, on seeded
    # random (a, h, N): real and complex right-hand sides on non-resonant
    # grids, projected ones on resonant-aligned grids.  The core never
    # applies the operator (the residual's 2 FFTs), and uh is u's spectrum
    rng = np.random.default_rng(61)

    def bump(g):
        return GridFunction(g, rng.standard_normal() * np.exp(-((g.x - rng.uniform(-2, 2)) ** 2)))

    for N in (256, 1024, 4096):
        a = rng.uniform(0.5, 2.0)
        g = make_grid(rng.uniform(15.0, 40.0), N)
        noise = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * np.exp(-g.x**2 / 8)
        aligned = make_grid(resonant_aligned_half_length(a, 40.0), N)
        resonant = ShiftParams(a, 2 * np.pi * rng.integers(1, 3) / np.sqrt(a))
        cases = [
            (bump(g), ShiftParams(a, rng.uniform(0.2, 3.0))),
            (GridFunction(g, noise), ShiftParams(a, rng.uniform(0.2, 3.0))),
            (project_solvable(bump(aligned), resonant), resonant),
        ]
        for f, params in cases:
            full = solve_linear(f, params)
            with monkeypatch.context() as m:
                m.setattr(shiftspec.linear, "apply_operator", None)
                core = divide_by_symbol(f, params)
            assert core.u.grid == f.grid and core.solvability == full.solvability
            assert core.u.values.dtype == full.u.values.dtype
            assert np.array_equal(core.u.values, full.u.values)
            assert np.array_equal(core.u.values, idft(core.uh, N))


@pytest.mark.parametrize("resonant", [False, True])
def test_solve_linear_h2_norm_parseval(grid, aligned_grid, resonant):
    g, params = (aligned_grid, RESONANT) if resonant else (grid, NONRESONANT)
    rng = np.random.default_rng(17)
    for _ in range(3):
        sigma, center = rng.uniform(0.7, 1.5), rng.uniform(-3.0, 3.0)
        star = GridFunction(g, np.exp(-((g.x - center) ** 2) / (2 * sigma**2)))
        f = apply_operator(star, params)
        if resonant:
            f = project_solvable(f, params)
        result = solve_linear(f, params)
        direct = h2_norm(result.u)
        floor = np.finfo(float).eps * (1.0 + g.p_max**2) * direct
        assert abs(result.h2_norm_u - direct) <= floor


def test_apply_operator_zero(grid):
    z = GridFunction(grid, np.zeros(grid.N))
    assert l2_norm(apply_operator(z, NONRESONANT)) == 0


def test_apply_operator_eigenfunction():
    g = make_grid(np.pi, 64)
    p0 = 3.0  # on-grid frequency for L = pi
    u = GridFunction(g, np.exp(1j * p0 * g.x))
    out = apply_operator(u, NONRESONANT)
    lam = symbol(p0, NONRESONANT)
    assert np.max(np.abs(out.values - lam * u.values)) <= 1e-10


def test_round_trip_operator_then_solve(grid):
    rng = np.random.default_rng(8)
    for _ in range(5):
        u = GridFunction(grid, rng.standard_normal(grid.N) * np.exp(-grid.x**2 / 4))
        f = apply_operator(u, NONRESONANT)
        back = solve_linear(f, NONRESONANT).u
        assert h2_norm(back - u) <= 1e-10 * max(1.0, h2_norm(u))


def test_solve_deterministic(grid):
    f = GridFunction(grid, np.exp(-grid.x**2 / 2) * np.cos(grid.x))
    r1 = solve_linear(f, NONRESONANT)
    r2 = solve_linear(f, NONRESONANT)
    assert np.array_equal(r1.u.values, r2.u.values)
    assert r1.residual_l2 == r2.residual_l2


def test_stability_bound_random(grid):
    rng = np.random.default_rng(15)
    cls = solve_linear(
        GridFunction(grid, np.exp(-grid.x**2)), NONRESONANT
    ).solvability.classification
    for _ in range(20):
        c = rng.standard_normal(3)
        f = GridFunction(
            grid,
            (c[0] + c[1] * grid.x + c[2] * grid.x**2) * np.exp(-grid.x**2 / 2),
        )
        u = solve_linear(f, NONRESONANT).u
        assert l2_norm(u) <= l2_norm(f) / np.sqrt(cls.alpha) * 1.1


def test_project_solvable_gaussian(grid):
    f = GridFunction(grid, np.exp(-grid.x**2 / 2))
    out = project_solvable(f, RESONANT)
    assert abs(evaluate_transform_at(out, 1.0)) <= 1e-8
    assert abs(evaluate_transform_at(out, -1.0)) <= 1e-8
    assert out.is_real


def test_project_solvable_subtracts_the_gaussian_windows():
    # the correction f - P(f) is c+ w e^{+i sqrt(a) x} + c- w e^{-i sqrt(a) x}
    # with the window w = e^{-x^2/2} that the docstring names, here at a = 4
    params = ShiftParams(4.0, np.pi)
    g = make_grid(resonant_aligned_half_length(4.0, 20.0), 512)
    f = GridFunction(g, np.exp(-((g.x - 0.5) ** 2)))
    correction = f.values - project_solvable(f, params).values
    w = np.exp(-(g.x**2) / 2)
    basis = np.stack([w * np.exp(2j * g.x), w * np.exp(-2j * g.x)], axis=1)
    c = np.linalg.lstsq(basis, correction.astype(complex), rcond=None)[0]
    assert np.max(np.abs(basis @ c - correction)) <= 1e-12 * np.max(np.abs(correction))


def test_project_solvable_idempotent(grid):
    f = GridFunction(grid, grid.x**2 * np.exp(-grid.x**2 / 2))
    out = project_solvable(f, RESONANT)
    assert np.max(np.abs(out.values - f.values)) <= 1e-10


def test_project_solvable_zero(grid):
    z = GridFunction(grid, np.zeros(grid.N))
    out = project_solvable(z, RESONANT)
    assert np.max(np.abs(out.values)) <= 1e-15


def test_project_solvable_requires_resonant(grid):
    f = GridFunction(grid, np.exp(-grid.x**2 / 2))
    with pytest.raises(ValueError):
        project_solvable(f, NONRESONANT)


def test_near_singular_grid_check(monkeypatch):
    # inject a classification whose alpha exceeds the true grid minimum:
    # the defensive screen must fire (a fresh grid, so no division is memoized)
    grid = make_grid(40.0, 4096)
    f = GridFunction(grid, np.exp(-grid.x**2 / 2))
    fake = FredholmClass(kind=FredholmKind.NON_RESONANT, alpha=1e6)
    monkeypatch.setattr(shiftspec.symbols, "classify", lambda params: fake)
    with pytest.raises(NearSingularGrid):
        solve_linear(f, NONRESONANT)
    # the kernel constant and the fixed-point step divide by the same rule
    with pytest.raises(NearSingularGrid):
        stability_constant(f, NONRESONANT)
    F = Nonlinearity(
        eval=lambda u, x: 0.1 * np.tanh(u),
        k=0.1,
        envelope=GridFunction(grid, np.zeros(grid.N)),
        l=0.1,
    )
    with pytest.raises(NearSingularGrid):
        apply_T(f, f, F, NONRESONANT)


def test_derivative_bound_diagnostic(grid):
    f = GridFunction(grid, np.exp(-grid.x**2 / 2))
    for p in (0.0, 0.7, 1.0, 2.3):
        lhs, rhs, ok = derivative_bound_check(f, p)
        assert ok
        assert lhs <= rhs * (1 + 1e-6) + 1e-12


def test_derivative_bound_values(grid):
    # lhs is the central difference of f_hat: |p| e^{-p^2/2} for the unit
    # gaussian, whose rhs ||x f||_L1/sqrt(2*pi) is 2/sqrt(2*pi).  A positive
    # bump on x > 0 meets the bound at p = 0 (x f has one phase), a
    # relative 1e-10 below it, well inside the check's 1e-6 slack.  The
    # kink of |x| at 0 costs the grid's rhs a relative O(dx^2), 3e-5 here
    f = GridFunction(grid, np.exp(-(grid.x**2) / 2))
    for p in (0.7, 1.0, 2.3):
        lhs, rhs, _ = derivative_bound_check(f, p)
        assert lhs == pytest.approx(p * np.exp(-(p**2) / 2), rel=1e-8)
        assert rhs == pytest.approx(2.0 / np.sqrt(2.0 * np.pi), rel=1e-4)
    bump = GridFunction(grid, np.exp(-(((grid.x - 3.0) / 0.2) ** 2) / 2))
    lhs, rhs, ok = derivative_bound_check(bump, 0.0)
    assert ok and rhs * (1 - 1e-8) <= lhs <= rhs
    # scaled down to rhs = 6e-11, the slack is the absolute 1e-12
    assert derivative_bound_check(bump * 1e-10, 0.0)[2]


def test_resonance_quotient_masses_follow_their_grids(monkeypatch):
    # level r's box has half-length (K*2^r + 1/2)*pi/sqrt(a), so +-sqrt(a)
    # sits half a step from the nearest frequency, and the mass is
    # dp*sum |f_hat/lambda|^2 over the bins within 0.15*sqrt(a) of either
    # root; at a = 4, where the factors of sqrt(a) show
    grids = []
    real = shiftspec.linear.make_grid
    record = lambda L, N: grids.append(real(L, N)) or grids[-1]
    monkeypatch.setattr(shiftspec.linear, "make_grid", record)
    params = ShiftParams(4.0, np.pi)
    f_of_x = lambda x: np.exp(-(x**2) / 2)
    masses = resonance_quotient_masses(f_of_x, params, levels=2, K=5)
    for level, (g, mass) in enumerate(zip(grids, masses)):
        assert g.L == pytest.approx((5 * 2**level + 0.5) * np.pi / 2.0, rel=1e-15)
        assert np.min(np.abs(np.abs(g.p) - 2.0)) == pytest.approx(g.dp / 2, rel=1e-12)
        quotient = forward_transform(GridFunction(g, f_of_x(g.x))).values / symbol(g.p, params)
        near = np.abs(np.abs(g.p) - 2.0) <= 0.3
        assert np.count_nonzero(near) >= 4
        assert mass == pytest.approx(g.dp * np.sum(np.abs(quotient[near]) ** 2), rel=1e-12)


def test_aligned_half_length():
    L = resonant_aligned_half_length(1.0, 40.0)
    assert L == pytest.approx(13 * np.pi)
    g = make_grid(L, 512)
    # +-sqrt(a) = +-1 lands exactly on the dual grid
    assert np.min(np.abs(g.p - 1.0)) <= 1e-12
    # for non-integer a too: K*pi/sqrt(a) for the K nearest 40/(pi/sqrt(a))
    # (19.31 and 7.74)
    for a, K in ((2.3, 19), (0.37, 8)):
        L = resonant_aligned_half_length(a, 40.0)
        assert L == pytest.approx(K * np.pi / np.sqrt(a), rel=1e-15)
        g = make_grid(L, 512)
        for root in (np.sqrt(a), -np.sqrt(a)):
            assert np.min(np.abs(g.p - root)) <= 1e-12


def test_resonant_solve_random_projected(aligned_grid):
    # random smooth right-hand sides made orthogonal by the projection,
    # then solved across the singular bins
    rng = np.random.default_rng(21)
    for _ in range(5):
        raw = GridFunction(
            aligned_grid,
            rng.standard_normal(3)[0] * np.exp(-(aligned_grid.x - rng.uniform(-2, 2)) ** 2),
        )
        f = project_solvable(raw, RESONANT)
        result = solve_linear(f, RESONANT)
        assert result.solvability.solvable
        assert result.residual_l2 <= 1e-8


def test_quotient_mass_growth_smoke():
    # full four-level run lives in the acceptance suite
    masses_bad = resonance_quotient_masses(
        lambda x: np.exp(-x**2 / 2), RESONANT, levels=2, K=40
    )
    masses_ok = resonance_quotient_masses(
        lambda x: x**2 * np.exp(-x**2 / 2), RESONANT, levels=2, K=40
    )
    assert masses_bad[1] / masses_bad[0] >= 2.0
    assert masses_ok[1] / masses_ok[0] <= 1.1
