import dataclasses
import math
import sys

import numpy as np
import pytest

from shiftspec import kernels, linear, nonlinear, sequences, spectral, symbols
from shiftspec.errors import ContractionHypothesisFailed, NotFinite, ResonantNotSolvable
from shiftspec.linear import project_solvable, resonant_aligned_half_length
from shiftspec.nonlinear import Nonlinearity
from shiftspec.sequences import (
    SequenceKind,
    SequenceSpec,
    builtin_sequences,
    run_kernel_sequence,
    run_linear_sequence,
    write_table_csv,
)
from shiftspec.spectral import GridFunction, l1_norm, l2_norm, make_grid
from shiftspec.symbols import ShiftParams

NONRESONANT = ShiftParams(1.0, 1.0)
RESONANT = ShiftParams(1.0, 2 * np.pi)


@pytest.fixture(scope="module")
def grid():
    return make_grid(40.0, 1024)


@pytest.fixture(scope="module")
def aligned_grid():
    return make_grid(resonant_aligned_half_length(1.0, 40.0), 1024)


def tanh_F(grid, slope=0.1):
    return Nonlinearity(
        eval=lambda u, x: slope * np.tanh(u) + np.exp(-(x**2)),
        k=slope,
        envelope=GridFunction(grid, np.exp(-grid.x**2)),
        l=slope,
    )


def test_builtin_scale_exact_gap(grid):
    f = GridFunction(grid, np.exp(-grid.x**2))
    spec = builtin_sequences("scale", kind=SequenceKind.RHS, base=f, M=8)
    for m in (1, 3, 8):
        assert l2_norm(spec.generator(m) - f) == pytest.approx(l2_norm(f) / m, rel=1e-12)


def test_builtin_add_preserves_orthogonality(grid):
    # base and perturbation both satisfy the resonant conditions; so does
    # every member, by linearity
    from shiftspec.linear import check_solvability

    base = project_solvable(GridFunction(grid, np.exp(-grid.x**2)), RESONANT)
    g = project_solvable(GridFunction(grid, np.exp(-((grid.x - 1) ** 2))), RESONANT)
    spec = builtin_sequences("add", kind=SequenceKind.RHS, base=base, perturbation=g, M=6)
    for m in range(1, 7):
        assert check_solvability(spec.generator(m), RESONANT, tol=1e-7).solvable


def test_builtin_truncate_rhs_tail_bound(grid):
    # gap^2 <= integral of f^2 beyond |x| = m (mollifier supported there)
    f = GridFunction(grid, np.exp(-grid.x**2))
    spec = builtin_sequences("truncate", kind=SequenceKind.RHS, base=f, M=4)
    for m in (1, 2, 3):
        gap = l2_norm(spec.generator(m) - f)
        tail_sq = 2 * math.sqrt(math.pi / 8) * math.erfc(math.sqrt(2.0) * m)
        assert gap <= math.sqrt(tail_sq) * (1 + 1e-9) + 1e-12


def test_builtin_truncate_kernel_l1_tail_bound(grid):
    # L1 gap <= 2 int_m^inf e^{-x^2} dx, the tail-integral oracle
    f = GridFunction(grid, np.exp(-grid.x**2))
    spec = builtin_sequences("truncate", kind=SequenceKind.KERNEL, base=f, M=4, epsilon=0.5)
    for m in (1, 2, 3):
        gap = l1_norm(spec.generator(m) - f)
        tail = 2 * (math.sqrt(math.pi) / 2) * math.erfc(float(m))
        assert gap <= tail * (1 + 1e-9) + 1e-12


def test_builtin_unknown_name(grid):
    f = GridFunction(grid, np.exp(-grid.x**2))
    with pytest.raises(KeyError):
        builtin_sequences("nope", kind=SequenceKind.RHS, base=f)


def test_sequence_spec_validation(grid):
    f = GridFunction(grid, np.exp(-grid.x**2))
    with pytest.raises(ValueError):
        SequenceSpec(kind=SequenceKind.KERNEL, generator=lambda m: f, limit=f, M=4)
    with pytest.raises(ValueError):
        SequenceSpec(
            kind=SequenceKind.KERNEL, generator=lambda m: f, limit=f, M=4, epsilon=1.5
        )


def test_linear_sequence_nonresonant(grid):
    f = GridFunction(grid, np.exp(-grid.x**2))
    spec = builtin_sequences("scale", kind=SequenceKind.RHS, base=f, M=12)
    table = run_linear_sequence(spec, NONRESONANT)
    assert all(table.checks.values()), table.checks
    gaps = table.column("solution_gap_h2")
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    inputs = table.column("input_gap")
    assert inputs[0] == pytest.approx(l2_norm(f), rel=1e-12)


def test_linear_sequence_constant(grid):
    f = GridFunction(grid, np.exp(-grid.x**2))
    zero = GridFunction(grid, np.zeros(grid.N))
    spec = builtin_sequences("add", kind=SequenceKind.RHS, base=f, perturbation=zero, M=5)
    table = run_linear_sequence(spec, NONRESONANT)
    assert all(g == 0 for g in table.column("input_gap"))
    assert all(g == 0 for g in table.column("solution_gap_h2"))
    assert all(table.checks.values())


def test_linear_sequence_resonant_projected(aligned_grid):
    f = GridFunction(aligned_grid, np.exp(-aligned_grid.x**2))
    g = GridFunction(aligned_grid, np.exp(-((aligned_grid.x - 0.5) ** 2)))
    base = project_solvable(f, RESONANT)
    pert = project_solvable(g, RESONANT)
    spec = builtin_sequences(
        "add", kind=SequenceKind.RHS, base=base, perturbation=pert, M=10
    )
    table = run_linear_sequence(spec, RESONANT, tol_orth=1e-7)
    weighted = table.column("weighted_gap")
    sol = table.column("solution_gap_h2")
    assert weighted[-1] < weighted[0]
    assert sol[-1] < sol[0] / 5
    assert table.checks["second_derivative_bound"]


def test_linear_sequence_resonant_violation_names_member(aligned_grid):
    base = project_solvable(
        GridFunction(aligned_grid, np.exp(-aligned_grid.x**2)), RESONANT
    )
    bad = GridFunction(aligned_grid, np.exp(-aligned_grid.x**2 / 2))

    def gen(m):
        return base if m < 3 else bad

    spec = SequenceSpec(kind=SequenceKind.RHS, generator=gen, limit=base, M=5)
    with pytest.raises(ResonantNotSolvable, match="m=3"):
        run_linear_sequence(spec, RESONANT)


def test_kernel_sequence_nonresonant(grid):
    G = GridFunction(grid, 0.2 * np.exp(-grid.x**2 / 2))
    F = tanh_F(grid)

    def gen(m):
        return G * (1.0 + (-1.0) ** m / (2.0 * m))

    spec = SequenceSpec(
        kind=SequenceKind.KERNEL, generator=gen, limit=G, M=6, epsilon=0.5
    )
    table = run_kernel_sequence(spec, F, NONRESONANT, tol_h2=1e-10)
    assert all(table.checks.values()), table.checks
    # gap envelope 1/(2m) decays
    inputs = table.column("input_gap")
    assert inputs[-1] < inputs[0]
    assert table.q_limit <= 0.5
    for r in table.rows:
        assert r.N_m is not None and r.multiplier_gap is not None


def test_kernel_sequence_constant(grid):
    G = GridFunction(grid, 0.2 * np.exp(-grid.x**2 / 2))
    F = tanh_F(grid)
    spec = SequenceSpec(
        kind=SequenceKind.KERNEL, generator=lambda m: G, limit=G, M=4, epsilon=0.5
    )
    table = run_kernel_sequence(spec, F, NONRESONANT)
    assert all(g == 0 for g in table.column("input_gap"))
    assert all(g <= 1e-12 for g in table.column("solution_gap_h2"))
    for r in table.rows:
        assert r.N_m == pytest.approx(table.N_limit, rel=1e-12)


def test_kernel_sequence_resonant_orthogonal(aligned_grid):
    # kernel family satisfying the orthogonality conditions at every m;
    # the limit inherits them and the multiplier gaps decay
    G = GridFunction(
        aligned_grid, 0.05 * aligned_grid.x**2 * np.exp(-aligned_grid.x**2 / 2)
    )
    F = tanh_F(aligned_grid)
    spec = builtin_sequences(
        "scale", kind=SequenceKind.KERNEL, base=G, M=6, epsilon=0.5
    )
    table = run_kernel_sequence(spec, F, RESONANT, tol_h2=1e-10)
    assert table.checks["limit_orthogonality"]
    assert table.checks["triangle_consistency"]
    assert table.checks["net_decrease"]
    weighted = table.column("weighted_gap")
    assert weighted[-1] < weighted[0]
    gaps = table.column("multiplier_gap")
    assert gaps[-1] < gaps[0]


def test_kernel_sequence_margin_violation_names_member(grid):
    G = GridFunction(grid, 0.2 * np.exp(-grid.x**2 / 2))
    F = tanh_F(grid)

    def gen(m):
        return G if m < 4 else G * 40.0

    spec = SequenceSpec(
        kind=SequenceKind.KERNEL, generator=gen, limit=G, M=5, epsilon=0.5
    )
    with pytest.raises(ContractionHypothesisFailed, match="m=4"):
        run_kernel_sequence(spec, F, NONRESONANT)


@pytest.mark.parametrize("label, bad_limit", [("member m=3", False), ("limit kernel", True)])
def test_kernel_sequence_not_finite_names_kernel(aligned_grid, label, bad_limit):
    # members m >= 3 and (optionally) the limit have G_hat(+-sqrt a) != 0;
    # the limit is solved first, then members 1 and 2
    G = GridFunction(aligned_grid, 0.05 * aligned_grid.x**2 * np.exp(-aligned_grid.x**2 / 2))
    bad = GridFunction(aligned_grid, 0.05 * np.exp(-aligned_grid.x**2 / 2))
    spec = SequenceSpec(
        kind=SequenceKind.KERNEL,
        generator=lambda m: G if m < 3 else bad,
        limit=bad if bad_limit else G,
        M=5,
        epsilon=0.5,
    )
    with pytest.raises(NotFinite, match=f"^{label} violates") as info:
        run_kernel_sequence(spec, tanh_F(aligned_grid), RESONANT)
    assert info.value.report.finite is False


def patch_everywhere(monkeypatch, module, name, replacement):
    """Put ``replacement`` in place of ``module.name`` in every shiftspec
    module that holds it; returns the original."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("shiftspec") and (
            getattr(mod, name, None) is original
        ):
            monkeypatch.setattr(mod, name, replacement)
    return original


def count_calls(monkeypatch, module, name):
    """Count the calls to ``module.name`` made through any shiftspec module."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    original = patch_everywhere(monkeypatch, module, name, counted)
    return calls


def refuse_calls(monkeypatch, module, name):
    """Make ``module.name`` raise when called through any shiftspec module."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")

    patch_everywhere(monkeypatch, module, name, refuse)


def kernel_scale_spec(grid):
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    return builtin_sequences("scale", kind=SequenceKind.KERNEL, base=G, M=12, epsilon=0.1)


def resonant_truncate_spec():
    """M = 12 on a fresh resonant-aligned grid (nothing memoized yet)."""
    g = make_grid(resonant_aligned_half_length(1.0, 40.0), 1024)
    base = GridFunction(g, np.exp(-g.x**2 / 2))
    return builtin_sequences(
        "truncate", kind=SequenceKind.RHS, base=base, M=12, shift_params=RESONANT
    )


def test_kernel_sequence_computes_each_report_once(grid, monkeypatch):
    # one stability report per solve (limit and M members) and one per
    # difference kernel; one classification for the whole run
    symbols.classify.cache_clear()
    reports = count_calls(monkeypatch, kernels, "stability_constant")
    alphas = count_calls(monkeypatch, symbols, "_sampled_alpha")
    run_kernel_sequence(kernel_scale_spec(grid), tanh_F(grid), ShiftParams(1.0, 0.9))
    assert (len(reports), len(alphas)) == (2 * 12 + 1, 1)


def test_resonant_rhs_sequence_checks_each_member_once(monkeypatch):
    # one solvability check per solve, one +-sqrt(a) pair for each; the
    # truncate builtin projects the limit and every member (one pair each)
    # against one window basis (one pair per window, once).  Every pair is
    # one off-grid evaluation.  The basis is memoized on the grid, so the
    # grid is a fresh one
    symbols.classify.cache_clear()
    checks = count_calls(monkeypatch, linear, "check_solvability")
    pairs = count_calls(monkeypatch, spectral, "transform_at_pm")
    offgrid = count_calls(monkeypatch, spectral, "evaluate_transform_at")
    run_linear_sequence(resonant_truncate_spec(), RESONANT)
    assert (len(checks), len(pairs), len(offgrid)) == (13, 13 + 13 + 2, 13 + 13 + 2)


@pytest.mark.parametrize("case", ["rhs-scale", "rhs-resonant-truncate", "kernel-scale"])
def test_sequence_tables_match_full_solvers(grid, monkeypatch, case):
    # the harnesses call the solver cores; put the full solvers back in
    # their place and every table entry stays the same, bit for bit
    if case == "kernel-scale":
        spec = kernel_scale_spec(grid)
        run = lambda: run_kernel_sequence(spec, tanh_F(grid), ShiftParams(1.0, 0.9))
    elif case == "rhs-scale":
        f = GridFunction(grid, np.exp(-grid.x**2))
        spec = builtin_sequences("scale", kind=SequenceKind.RHS, base=f, M=12)
        run = lambda: run_linear_sequence(spec, NONRESONANT)
    else:
        spec = resonant_truncate_spec()
        run = lambda: run_linear_sequence(spec, RESONANT)
    table = run()
    monkeypatch.setattr(sequences, "divide_by_symbol", linear.solve_linear)
    monkeypatch.setattr(sequences, "iterate_fixed_point", nonlinear.fixed_point_solve)
    assert run() == table


@pytest.mark.parametrize("params", [NONRESONANT, RESONANT], ids=["scale", "resonant-truncate"])
def test_rhs_sequence_fft_count(grid, monkeypatch, fft_calls, params):
    # 2 per solve (limit and M members: forward, inverse) and 1 per
    # member for its d2_gap, all half-length; no residual, so the
    # operator is never applied
    if params is RESONANT:
        spec = resonant_truncate_spec()
    else:
        f = GridFunction(grid, np.exp(-grid.x**2))
        spec = builtin_sequences("scale", kind=SequenceKind.RHS, base=f, M=12)
    refuse_calls(monkeypatch, linear, "apply_operator")
    N = spec.limit.grid.N
    fft_calls.clear()  # count the run's transforms only
    run_linear_sequence(spec, params)
    member = [("rfft", N), ("irfft", N), ("rfft", N)]
    assert fft_calls == [("rfft", N), ("irfft", N)] + member * spec.M
    assert len(fft_calls) == 2 * (spec.M + 1) + spec.M == 38


def test_kernel_sequence_runs_no_solver_diagnostics(grid, monkeypatch, fft_calls):
    # each solve (limit and M members) costs 2k + 1 half-length FFTs for
    # k iterations: 1 for G_hat, which its stability constant shares, 2
    # per iteration; each member adds 2: the difference kernel's
    # stability constant and the d2_gap.  No residual, direct sum or
    # nontriviality check runs
    for module, name in [
        (linear, "apply_operator"),
        (nonlinear, "_convolve_on_window"),
        (nonlinear, "nontriviality_check"),
    ]:
        refuse_calls(monkeypatch, module, name)
    iterations = []
    core = sequences.iterate_fixed_point

    def recorded(*args, **kwargs):
        result = core(*args, **kwargs)
        iterations.append(len(result.step_norms))
        return result

    monkeypatch.setattr(sequences, "iterate_fixed_point", recorded)
    spec = kernel_scale_spec(grid)
    fft_calls.clear()
    run_kernel_sequence(spec, tanh_F(grid), ShiftParams(1.0, 0.9))
    assert len(iterations) == spec.M + 1
    assert len(fft_calls) == sum(2 * k + 1 for k in iterations) + 2 * spec.M
    assert {name for name, _ in fft_calls} == {"rfft", "irfft"}
    assert {n for _, n in fft_calls} == {grid.N}


def test_write_table_csv(tmp_path, grid):
    f = GridFunction(grid, np.exp(-grid.x**2))
    spec = builtin_sequences("scale", kind=SequenceKind.RHS, base=f, M=3)
    table = run_linear_sequence(spec, NONRESONANT)
    path = tmp_path / "table.csv"
    write_table_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,input_gap,weighted_gap,solution_gap_h2,multiplier_gap,N_m"
    assert len(lines) == 4
    # kernel-only columns are empty in rhs runs
    assert lines[1].endswith(",,")


def test_kernel_epsilon_interval_is_open(grid):
    f = GridFunction(grid, np.exp(-(grid.x**2)))
    for eps in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"epsilon in \(0, 1\)"):
            SequenceSpec(SequenceKind.KERNEL, lambda m: f, f, M=2, epsilon=eps)
    assert SequenceSpec(SequenceKind.KERNEL, lambda m: f, f, M=2, epsilon=0.999).M == 2


def _rows(*gaps):
    # (input_gap, solution_gap_h2) per row; the other fields do not enter
    Row = sequences.ConvergenceRow
    return [Row(m, g_in, 0.0, g_sol, 0.0, 0.0) for m, (g_in, g_sol) in enumerate(gaps)]


@pytest.mark.parametrize(
    "gaps, expected",
    [
        # the net decrease allows 1e-15 and the no-input ratio 1e-12, inclusive
        (((1.0, 0.0), (1.0, 1e-15)), (True, True)),
        (((1.0, 0.0), (1.0, 2e-15)), (False, True)),
        (((0.0, 1.0), (1.0, 1e-12)), (True, True)),
        (((0.0, 1.0), (1.0, 2e-12)), (True, False)),
        (((0.0, 0.0), (1.0, 1.0)), (False, True)),
        # otherwise the solution gaps may shrink 10x less than the input gaps
        (((2.0, 4.0), (0.1, 3.0)), (True, False)),
        (((2.0, 4.0), (0.5, 2.0)), (True, True)),
        (((2.0, 4.0), (1.0, 8.0)), (False, True)),
        (((2.0, 4.0), (0.2, 0.4)), (True, True)),
        # the ratio rule allows 1e-15 too, inclusive
        (((1.0, 1.0), (0.05, 0.5 + 1e-15)), (True, True)),
        (((1.0, 1.0), (0.05, 0.5 + 2e-15)), (True, False)),
    ],
)
def test_trend_checks(gaps, expected):
    assert sequences._trend_checks(_rows(*gaps)) == expected


def test_stability_bound_holds_for_a_packet_at_the_gap(grid):
    # members f + g/m with g a wave packet at p ~ 0.7185, where |lambda|^2
    # takes its minimum alpha: each solution gap reaches 0.956 of the bound
    # ||f_m - f||_L2/sqrt(alpha), inside the check's 1.1 margin
    alpha = symbols.classify(NONRESONANT).alpha
    base = GridFunction(grid, np.exp(-(grid.x**2)))
    packet = GridFunction(grid, np.cos(0.7185 * grid.x) * np.exp(-(grid.x**2) / 72.0))
    spec = builtin_sequences("add", kind=SequenceKind.RHS, base=base, perturbation=packet, M=3)
    table = run_linear_sequence(spec, NONRESONANT)
    assert table.checks["stability_bound"]
    for row in table.rows:
        assert row.solution_gap_l2 >= 0.95 * row.input_gap / np.sqrt(alpha)


def test_kernel_sequence_gates_each_member_on_the_uniform_margin(grid):
    # q_m = 2*sqrt(pi)*N_m*l grows to q_limit = 0.1248 as 1 - 1/m: with
    # epsilon = 0.9, member m = 6 (q = 0.104) is the first past 1 - epsilon
    params = ShiftParams(1.0, 0.9)
    table = run_kernel_sequence(kernel_scale_spec(grid), tanh_F(grid), params)
    assert table.q_limit == pytest.approx(2.0 * np.sqrt(np.pi) * 0.1 * table.N_limit, rel=1e-15)
    spec = dataclasses.replace(kernel_scale_spec(grid), epsilon=0.9)
    with pytest.raises(ContractionHypothesisFailed, match=r"member m=6: .* > 1 - epsilon = 0\.1"):
        run_kernel_sequence(spec, tanh_F(grid), params)


def test_kernel_sequence_limit_margin_is_checked_apart(grid):
    # every member has q_m <= q_12 = 0.1144 but the limit q = 0.1248: with
    # 1 - epsilon = 0.12 the run completes and reports the limit's miss
    spec = dataclasses.replace(kernel_scale_spec(grid), epsilon=0.88)
    table = run_kernel_sequence(spec, tanh_F(grid), ShiftParams(1.0, 0.9))
    assert table.checks["uniform_margin"] and not table.checks["limit_margin"]


def test_kernel_sequence_multiplier_bounds_near_their_limit(grid):
    # a perturbation cos(p* x) e^{-x^2/8} at p* = 0.7528, where |lambda|^2
    # takes its minimum alpha at (1, 0.9): both multiplier gaps reach 0.7
    # of the bound 1.1*||G_m - G||_L1/sqrt(2*pi*alpha), with L1 gaps of
    # 3.2/m, above 1
    params = ShiftParams(1.0, 0.9)
    alpha = symbols.classify(params).alpha
    G = GridFunction(grid, 0.3 * np.exp(-(grid.x**2) / 2))
    packet = GridFunction(grid, np.cos(0.7528 * grid.x) * np.exp(-(grid.x**2) / 8))
    spec = builtin_sequences(
        "add", kind=SequenceKind.KERNEL, base=G, perturbation=packet, M=3, epsilon=0.3
    )
    table = run_kernel_sequence(spec, tanh_F(grid), params)
    assert table.checks["multiplier_bound"] and table.checks["N_gap_bound"]
    bound = 1.1 / np.sqrt(2.0 * np.pi * alpha)
    for row in table.rows:
        assert row.input_gap > 1.0
        assert row.multiplier_gap >= 0.7 * bound * row.input_gap
        assert abs(row.N_m - table.N_limit) >= 0.69 * bound * row.input_gap


def test_resonant_kernel_sequence_with_gaps_below_the_tolerance(aligned_grid):
    # members G + g/m with ||g||_L1 = 2.5e-9, below tol_orth*sqrt(2*pi):
    # the limit's transform at +-1 still meets input_gap/sqrt(2*pi) + tol_orth
    herm = aligned_grid.x**2 * np.exp(-(aligned_grid.x**2) / 2)
    G, g = GridFunction(aligned_grid, 0.05 * herm), GridFunction(aligned_grid, 1e-9 * herm)
    spec = builtin_sequences(
        "add", kind=SequenceKind.KERNEL, base=G, perturbation=g, M=3, epsilon=0.5
    )
    table = run_kernel_sequence(spec, tanh_F(aligned_grid), RESONANT)
    assert all(row.input_gap < 1e-8 * np.sqrt(2 * np.pi) for row in table.rows)
    assert table.checks["limit_orthogonality"]


def test_builtin_add_members(grid):
    # member m is base + perturbation/m, not a member at the same distance
    base = GridFunction(grid, np.exp(-(grid.x**2)))
    g = GridFunction(grid, np.exp(-((grid.x - 1) ** 2)))
    spec = builtin_sequences("add", kind=SequenceKind.RHS, base=base, perturbation=g, M=4)
    for m in (1, 4):
        np.testing.assert_allclose(spec.generator(m).values, base.values + g.values / m, rtol=1e-15)
