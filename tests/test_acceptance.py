"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Everything is deterministic (fixed seeds); the default desk
scale is L = 40, N = 4096.
"""

import numpy as np

from shiftspec.errors import ResonantNotSolvable
from shiftspec.kernels import kernel_orthogonality, stability_constant
from shiftspec.linear import (
    apply_operator,
    check_solvability,
    project_solvable,
    resonance_quotient_masses,
    resonant_aligned_half_length,
    solve_linear,
)
from shiftspec.nonlinear import (
    Nonlinearity,
    apply_T,
    fixed_point_solve,
    nontriviality_check,
)
from shiftspec.sequences import (
    SequenceKind,
    SequenceSpec,
    builtin_sequences,
    run_kernel_sequence,
    run_linear_sequence,
)
from shiftspec.spectral import (
    SQRT_2PI,
    GridFunction,
    forward_transform,
    h2_norm,
    inverse_transform,
    l1_norm,
    l2_norm,
    l2_norm_spectral,
    make_grid,
    shift,
    sup_abs_spectral,
)
from shiftspec.symbols import ShiftParams, classify

L_DESK, N_DESK = 40.0, 4096
NONRESONANT = ShiftParams(1.0, 1.0)
RESONANT = ShiftParams(1.0, 2 * np.pi)


def report(num, ok, detail):
    print(f"\n[C{num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def desk_grid():
    return make_grid(L_DESK, N_DESK)


def tanh_plus_gaussian(grid, slope=0.1):
    return Nonlinearity(
        eval=lambda u, x: slope * np.tanh(u) + np.exp(-(x**2)),
        k=slope,
        envelope=GridFunction(grid, np.exp(-grid.x**2)),
        l=slope,
    )


def test_c01_symbol_identity():
    # the two expressions agree to floating-point accuracy relative to the
    # symbol's natural squared scale (p^2 + a)^2; near the (dense) set of
    # near-zeros of the symbol no algebraically distinct pair of formulas
    # can agree relative to the tiny value itself
    rng = np.random.default_rng(1001)
    n = 1_000_000
    p = rng.uniform(-50, 50, n)
    a = rng.uniform(0.1, 100, n)
    h = rng.uniform(-10, 10, n)
    direct = np.abs(p**2 - a * np.cos(p * h) + 1j * a * np.sin(p * h)) ** 2
    expanded = (p**2 - a) ** 2 + 2 * a * p**2 * (1 - np.cos(p * h))
    rel = np.abs(direct - expanded) / (p**2 + a) ** 2
    worst = float(np.max(rel))
    report(1, worst <= 1e-12, f"max scale-relative defect {worst:.2e} over 1e6 samples")


def test_c02_resonance_classification():
    rng = np.random.default_rng(1002)
    errors = 0
    for _ in range(1000):
        a = rng.uniform(0.1, 100)
        n = int(rng.choice([i for i in range(-10, 11) if i != 0]))
        h = 2.0 * np.pi * n / np.sqrt(a)
        cls = classify(ShiftParams(a, h))
        if not (cls.is_resonant and cls.n == n):
            errors += 1
    checked = 0
    while checked < 1000:
        a = rng.uniform(0.1, 100)
        h = rng.uniform(0.05, 20.0) * rng.choice([-1.0, 1.0])
        n_star = round(h * np.sqrt(a) / (2 * np.pi))
        if abs(h - 2 * np.pi * n_star / np.sqrt(a)) < 1e-7:
            continue  # not a non-resonant pair
        cls = classify(ShiftParams(a, h))
        if cls.is_resonant:
            errors += 1
        checked += 1
    report(2, errors == 0, f"{errors} misclassifications over 2000 pairs")


def _manufactured_h2_error(N, sigma=1.0):
    grid = make_grid(L_DESK, N)
    x = grid.x
    star = GridFunction(grid, np.exp(-((x / sigma) ** 2)))
    # right-hand side from the closed form of -u*'' - u*(x-1)
    f = GridFunction(
        grid,
        (2 / sigma**2 - 4 * x**2 / sigma**4) * np.exp(-((x / sigma) ** 2))
        - np.exp(-(((x - 1) / sigma) ** 2)),
    )
    u = solve_linear(f, NONRESONANT).u
    return h2_norm(u - star) / h2_norm(star)


def test_c03_manufactured_solve_accuracy():
    grid = desk_grid()
    star = GridFunction(grid, np.exp(-grid.x**2))
    f = apply_operator(star, NONRESONANT)
    result = solve_linear(f, NONRESONANT)
    err = h2_norm(result.u - star) / h2_norm(star)
    err_analytic = _manufactured_h2_error(N_DESK)
    ok = err <= 1e-8 and err_analytic <= 1e-8
    report(
        3,
        ok,
        f"relative H2 error {err:.2e} (operator rhs) / {err_analytic:.2e} "
        f"(closed-form rhs) at L=40 N=4096",
    )


def test_c03_manufactured_convergence_clause():
    # Halving dx from N=1024 to N=2048 at L=40 must cut the error 10x.
    # Refinement removes truncation error, which for u* = e^{-(x/sigma)^2}
    # is about exp(-(p_max*sigma)^2/4) with p_max = pi*N/(2L).  With
    # sigma = 1 that is ~e^{-404} at N=1024, so both grids sit on the
    # round-off floor and there is no drop to see; sigma = 0.2 puts the
    # N=1024 error at ~1e-7, where the grid is what limits it.  The
    # precondition keeps the clause out of the floor regime.
    eps = np.finfo(float).eps
    pmax = {N: make_grid(L_DESK, N).p_max for N in (1024, 2048)}
    floor = {N: eps * (1 + pmax[N] ** 2) for N in pmax}
    sigma = 0.2
    predicted = np.exp(-((pmax[1024] * sigma) ** 2) / 4)
    assert predicted >= 1e4 * floor[1024], (
        f"sigma={sigma} is resolved to round-off at N=1024: "
        f"predictor {predicted:.2e} vs floor {floor[1024]:.2e}"
    )
    ratio = _manufactured_h2_error(1024, sigma) / _manufactured_h2_error(2048, sigma)
    # The sigma = 1 solution is resolved at both sizes, so its error is
    # round-off, which grows like eps*p_max^2 under the H2 weight p^4.
    # Holding it to that floor catches an accuracy loss of ~1e-11 that
    # neither the ratio above nor the 1e-8 accuracy test would notice.
    resolved = {N: _manufactured_h2_error(N) for N in pmax}
    on_floor = all(resolved[N] <= floor[N] for N in pmax)
    report(
        3,
        ratio >= 10.0 and on_floor,
        f"sigma={sigma} error ratio N=1024/2048 {ratio:.2e} (need >= 10); "
        f"sigma=1 floor N=1024 {resolved[1024]:.2e} <= {floor[1024]:.2e}, "
        f"N=2048 {resolved[2048]:.2e} <= {floor[2048]:.2e}",
    )


def test_c04_resonant_necessity():
    grid = desk_grid()
    bad = GridFunction(grid, np.exp(-grid.x**2 / 2))
    rep_bad = check_solvability(bad, RESONANT, tol=1e-8)
    val_ok = abs(abs(rep_bad.fhat_plus) - np.exp(-0.5)) <= 1e-8 and abs(
        abs(rep_bad.fhat_minus) - np.exp(-0.5)
    ) <= 1e-8
    raised = False
    try:
        solve_linear(bad, RESONANT)
    except ResonantNotSolvable:
        raised = True

    good = GridFunction(grid, grid.x**2 * np.exp(-grid.x**2 / 2))
    rep_good = check_solvability(good, RESONANT, tol=1e-8)
    result = solve_linear(good, RESONANT)
    ok = (
        (not rep_bad.solvable)
        and val_ok
        and raised
        and rep_good.solvable
        and abs(rep_good.fhat_plus) <= 1e-10
        and abs(rep_good.fhat_minus) <= 1e-10
        and result.residual_l2 <= 1e-8
    )
    report(
        4,
        ok,
        f"gaussian |f_hat(+-1)| = {abs(rep_bad.fhat_plus):.6f} rejected; "
        f"orthogonal rhs solved with residual {result.residual_l2:.2e}",
    )


def test_c05_resonant_blowup_witness():
    masses_bad = resonance_quotient_masses(
        lambda x: np.exp(-x**2 / 2), RESONANT, levels=4, K=40
    )
    masses_ok = resonance_quotient_masses(
        lambda x: x**2 * np.exp(-x**2 / 2), RESONANT, levels=4, K=40
    )
    r_bad = [masses_bad[i + 1] / masses_bad[i] for i in range(3)]
    r_ok = [masses_ok[i + 1] / masses_ok[i] for i in range(3)]
    ok = all(r >= 2.0 for r in r_bad) and all(r <= 1.1 for r in r_ok)
    report(
        5,
        ok,
        "quotient mass ratios per refinement: violated "
        + "/".join(f"{r:.3f}" for r in r_bad)
        + " (need >= 2), enforced "
        + "/".join(f"{r:.3f}" for r in r_ok)
        + " (need <= 1.1)",
    )


def test_c06_stability_bound():
    rng = np.random.default_rng(1006)
    grid = desk_grid()
    param_pool = [
        ShiftParams(1.0, 1.0),
        ShiftParams(2.0, 0.7),
        ShiftParams(0.5, -1.3),
        ShiftParams(5.0, 2.2),
    ]
    classes = {p: classify(p) for p in param_pool}
    worst = 0.0
    for i in range(100):
        params = param_pool[i % len(param_pool)]
        sigma = rng.uniform(0.5, 3.0)
        mu = rng.uniform(-5, 5)
        omega = rng.uniform(0, 3)
        c = rng.standard_normal(2)
        vals = (c[0] * np.cos(omega * grid.x) + c[1] * grid.x) * np.exp(
            -((grid.x - mu) ** 2) / (2 * sigma**2)
        )
        f = GridFunction(grid, vals)
        u = solve_linear(f, params).u
        ratio = l2_norm(u) * np.sqrt(classes[params].alpha) / l2_norm(f)
        worst = max(worst, ratio)
    report(6, worst <= 1.1, f"max ||u|| sqrt(alpha)/||f|| = {worst:.4f} over 100 solves")


def test_c07_stability_constant_dichotomy():
    grid = desk_grid()
    kernels = [
        GridFunction(grid, np.exp(-grid.x**2 / 2)),
        GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2)),
        GridFunction(grid, np.exp(-grid.x**2 / 8)),
        GridFunction(grid, grid.x**2 * np.exp(-grid.x**2 / 2)),
        GridFunction(grid, np.sin(2 * grid.x) * np.exp(-grid.x**2 / 4)),
    ]
    nonres_ok = all(
        stability_constant(G, p).finite
        for G in kernels
        for p in (NONRESONANT, ShiftParams(2.0, -0.9))
    )
    # resonant: finite exactly when |G_hat(+-sqrt a)| <= 1e-8
    res_ok = True
    for G in kernels:
        gp, gm, orth = kernel_orthogonality(G, 1.0, tol=1e-8)
        rep = stability_constant(G, RESONANT, tol_orth=1e-8)
        res_ok &= rep.finite == orth
    # pointwise identity within 1e-10 relative
    from shiftspec.symbols import symbol

    gh = forward_transform(kernels[1]).values
    lam = symbol(grid.p, NONRESONANT)
    lhs = grid.p**2 * gh / lam
    rhs = gh + np.exp(-1j * grid.p * NONRESONANT.h) * gh / lam
    ident = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0)))
    ok = nonres_ok and res_ok and ident <= 1e-10
    report(
        7,
        ok,
        f"non-resonant all finite: {nonres_ok}; resonant dichotomy: {res_ok}; "
        f"identity defect {ident:.2e}",
    )


def test_c08_contraction_and_fixed_point():
    grid = desk_grid()
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    F = tanh_plus_gaussian(grid)
    rep = stability_constant(G, NONRESONANT)
    q = 2 * np.sqrt(np.pi) * rep.N * F.l
    rng = np.random.default_rng(1008)

    def smooth_random():
        sigma = rng.uniform(0.7, 3.0)
        mu = rng.uniform(-4, 4)
        omega = rng.uniform(0, 2)
        c = rng.standard_normal(2)
        return GridFunction(
            grid,
            (c[0] * np.cos(omega * grid.x) + c[1])
            * np.exp(-((grid.x - mu) ** 2) / (2 * sigma**2)),
        )

    contraction_ok = True
    worst = 0.0
    for _ in range(20):
        v1, v2 = smooth_random(), smooth_random()
        lhs = h2_norm(apply_T(v1, G, F, NONRESONANT) - apply_T(v2, G, F, NONRESONANT))
        bound = q * h2_norm(v1 - v2)
        worst = max(worst, lhs / bound)
        contraction_ok &= lhs <= bound * 1.05
    result = fixed_point_solve(G, F, NONRESONANT, tol_h2=1e-10)
    v0 = GridFunction(grid, rng.standard_normal(grid.N) * np.exp(-grid.x**2 / 10))
    result2 = fixed_point_solve(G, F, NONRESONANT, v0=v0, tol_h2=1e-10)
    agree = h2_norm(result.u - result2.u)
    ok = (
        contraction_ok
        and result.observed_ratio <= result.q_bound * 1.1
        and result.residual_l2 <= 1e-8
        and agree <= 2e-10
    )
    report(
        8,
        ok,
        f"contraction ratio max {worst:.3f} of bound; observed step ratio "
        f"{result.observed_ratio:.4f} vs q={result.q_bound:.4f}; residual "
        f"{result.residual_l2:.2e}; two starts differ by {agree:.2e}",
    )


def test_c09_rhs_sequences():
    grid = desk_grid()
    f = GridFunction(grid, np.exp(-grid.x**2))
    spec = builtin_sequences("scale", kind=SequenceKind.RHS, base=f, M=12)
    table = run_linear_sequence(spec, NONRESONANT)
    gaps = table.column("solution_gap_h2")
    alpha = table.alpha
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    h2_bound = all(
        r.solution_gap_h2 <= r.input_gap / np.sqrt(alpha) * 1.1 for r in table.rows
    )
    d2_ok = table.checks["second_derivative_bound"]

    # resonant variant with projected members
    ga = make_grid(resonant_aligned_half_length(1.0, 40.0), N_DESK)
    base = project_solvable(GridFunction(ga, np.exp(-ga.x**2)), RESONANT)
    pert = project_solvable(GridFunction(ga, np.exp(-((ga.x - 0.5) ** 2))), RESONANT)
    rspec = builtin_sequences("add", kind=SequenceKind.RHS, base=base, perturbation=pert, M=12)
    rtable = run_linear_sequence(rspec, RESONANT, tol_orth=1e-7)
    wg = rtable.column("weighted_gap")
    sg = rtable.column("solution_gap_h2")
    resonant_ok = wg[-1] <= wg[0] / 6 and sg[-1] <= sg[0] / 6
    ok = decreasing and h2_bound and d2_ok and resonant_ok
    report(
        9,
        ok,
        f"H2 gaps decrease: {decreasing}; gap <= input/sqrt(alpha)*1.1: {h2_bound}; "
        f"second-derivative bound: {d2_ok}; resonant weighted gap "
        f"{wg[0]:.2e}->{wg[-1]:.2e}, solution gap {sg[0]:.2e}->{sg[-1]:.2e}",
    )


def test_c10_kernel_sequences():
    grid = desk_grid()
    G = GridFunction(grid, 0.2 * np.exp(-grid.x**2 / 2))
    F = tanh_plus_gaussian(grid)

    def gen(m):
        return G * (1.0 + (-1.0) ** m / (2.0 * m))

    spec = SequenceSpec(kind=SequenceKind.KERNEL, generator=gen, limit=G, M=12, epsilon=0.5)
    table = run_kernel_sequence(spec, F, NONRESONANT, tol_h2=1e-10)
    mg = table.column("multiplier_gap")
    sg = table.column("solution_gap_h2")
    ok = (
        table.checks["N_gap_bound"]
        and table.checks["multiplier_bound"]
        and table.checks["limit_margin"]
        and table.q_limit <= 0.5
        and mg[-1] <= mg[0] / 5
        and sg[-1] <= sg[0] / 5
    )
    report(
        10,
        ok,
        f"checks {table.checks}; q_limit {table.q_limit:.4f} <= 0.5; multiplier gap "
        f"{mg[0]:.2e}->{mg[-1]:.2e}; solution gap {sg[0]:.2e}->{sg[-1]:.2e}",
    )


def test_c11_nontriviality():
    grid = desk_grid()
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    trivial_F = Nonlinearity(
        eval=lambda u, x: 0.1 * np.tanh(u),
        k=0.1,
        envelope=GridFunction(grid, np.zeros(grid.N)),
        l=0.1,
    )
    res_trivial = fixed_point_solve(G, trivial_F, NONRESONANT)
    full_F = tanh_plus_gaussian(grid)
    res_full = fixed_point_solve(G, full_F, NONRESONANT)
    ok = (
        not nontriviality_check(G, trivial_F, grid)
        and h2_norm(res_trivial.u) <= 1e-10
        and nontriviality_check(G, full_F, grid)
        and h2_norm(res_full.u) > 1e-3
    )
    report(
        11,
        ok,
        f"F(0,.)=0 fixed point H2 norm {h2_norm(res_trivial.u):.2e}; with gaussian source "
        f"overlap={res_full.nontrivial} and H2 norm {h2_norm(res_full.u):.4f}",
    )


def test_c12_infrastructure():
    rng = np.random.default_rng(1012)
    ok = True
    details = []
    for N in (64, 512, 4096):
        grid = make_grid(17.0, N)
        u = GridFunction(grid, rng.standard_normal(N) * np.exp(-grid.x**2 / 16))
        uh = forward_transform(u)
        back = inverse_transform(uh)
        rt = np.max(np.abs(back.values - u.values)) / max(1.0, l2_norm(u))
        pv = abs(l2_norm_spectral(uh) - l2_norm(u)) / max(l2_norm(u), 1e-300)
        ok &= rt <= 1e-12 and pv <= 1e-12
        sm = GridFunction(grid, np.exp(-grid.x**2 / 9))
        un = abs(l2_norm(shift(sm, 1.7)) - l2_norm(sm)) / l2_norm(sm)
        inf1 = sup_abs_spectral(forward_transform(u)) <= l1_norm(u) / SQRT_2PI + 1e-12
        ok &= un <= 1e-12 and inf1
        details.append(f"N={N}: roundtrip {rt:.1e}, parseval {pv:.1e}, shift {un:.1e}")
    report(12, bool(ok), "; ".join(details))
