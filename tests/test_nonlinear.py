import math
import re

import numpy as np
import pytest

from shiftspec import nonlinear
from shiftspec.catalog import builtin_function, builtin_nonlinearity
from shiftspec.errors import ContractionHypothesisFailed, MaxIterExceeded, NotFinite
from shiftspec.kernels import contraction_margin, stability_constant
from shiftspec.linear import (
    apply_operator,
    project_solvable,
    resonant_aligned_half_length,
    solve_linear,
)
from shiftspec.nonlinear import (
    Nonlinearity,
    _direct_sum_window,
    apply_T,
    apply_nonlinearity,
    convolve,
    convolve_direct,
    fixed_point_solve,
    iterate_fixed_point,
    nontriviality_check,
)
from shiftspec.spectral import (
    GridFunction,
    SpectralFunction,
    h2_norm,
    inverse_transform,
    l1_norm,
    l2_norm,
    make_grid,
)
from shiftspec.symbols import ShiftParams

NONRESONANT = ShiftParams(1.0, 1.0)
RESONANT = ShiftParams(1.0, 2 * np.pi)
EPS = np.finfo(np.float64).eps


@pytest.fixture(scope="module")
def grid():
    return make_grid(40.0, 1024)


def tanh_nonlinearity(grid, slope=0.1):
    return Nonlinearity(
        eval=lambda u, x: slope * np.tanh(u) + np.exp(-(x**2)),
        k=slope,
        envelope=GridFunction(grid, np.exp(-grid.x**2)),
        l=slope,
    )


def zero_nonlinearity(grid):
    return Nonlinearity(
        eval=lambda u, x: np.zeros_like(u),
        k=0.0,
        envelope=GridFunction(grid, np.zeros(grid.N)),
        l=0.0,
    )


def test_nonlinearity_growth_check_fires(grid):
    with pytest.raises(ValueError, match="growth"):
        Nonlinearity(
            eval=lambda u, x: 2.0 * u,
            k=0.5,  # declared too small
            envelope=GridFunction(grid, np.zeros(grid.N)),
            l=2.0,
        )


def test_nonlinearity_lipschitz_check_fires(grid):
    with pytest.raises(ValueError, match="Lipschitz"):
        Nonlinearity(
            eval=lambda u, x: np.tanh(3.0 * u),
            k=3.0,
            envelope=GridFunction(grid, np.zeros(grid.N)),
            l=0.5,  # declared too small
        )


def test_nonlinearity_checks_allow_the_slack_exactly(grid):
    # |F| and its differences reach k|u| + envelope + 1e-9 and
    # l|u1 - u2| + 1e-9 exactly, which both checks allow
    Nonlinearity(
        eval=lambda u, x: np.where(u > 0, 1e-9, 0.0),
        k=0.0,
        envelope=GridFunction(grid, np.zeros(grid.N)),
        l=0.0,
    )


@pytest.mark.parametrize("check, k", [("growth", 0.5), ("Lipschitz", 3.0)])
def test_spot_check_reports_a_violating_pair(grid, check, k):
    # tanh(3u) breaks |F| <= 0.5|u| and the Lipschitz bound 0.5 near u = 0
    # only: the pair the message reports must be a violation
    with pytest.raises(ValueError, match=check) as info:
        Nonlinearity(
            eval=lambda u, x: np.tanh(3.0 * u),
            k=k,
            envelope=GridFunction(grid, np.zeros(grid.N)),
            l=0.5 if check == "Lipschitz" else 3.0,
        )
    found, bound = re.search(r"= (\S+) > [^=]+= (\S+)", str(info.value)).groups()
    assert float(found) > float(bound), str(info.value)


@pytest.mark.parametrize("field", ["k", "l"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_nonlinearity_constants_must_be_finite_nonnegative(grid, field, bad):
    constants = {"k": 0.1, "l": 0.1, field: bad}
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Nonlinearity(
            eval=lambda u, x: 0.1 * np.tanh(u),
            envelope=GridFunction(grid, np.zeros(grid.N)),
            **constants,
        )


def test_nonlinearity_envelope_must_be_nonnegative(grid):
    with pytest.raises(ValueError):
        Nonlinearity(
            eval=lambda u, x: np.zeros_like(u),
            k=0.0,
            envelope=GridFunction(grid, -np.ones(grid.N)),
            l=0.0,
        )


def test_negative_real_envelope_is_refused_by_the_envelope_check(grid):
    # refused as an envelope, not later by the growth spot check that a
    # negative envelope also fails
    with pytest.raises(ValueError, match="envelope must be real and nonnegative"):
        Nonlinearity(
            eval=lambda u, x: np.zeros_like(u),
            k=0.0,
            envelope=GridFunction(grid, -np.ones(grid.N)),
            l=0.0,
        )


def test_convolve_zero(grid):
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    z = GridFunction(grid, np.zeros(grid.N))
    assert l2_norm(convolve(G, z)) == 0


def test_convolve_gaussians_closed_form(grid):
    # oracle: e^{-x^2/(2 s1^2)} * e^{-x^2/(2 s2^2)}
    #       = sqrt(2 pi) s1 s2 / sqrt(s1^2+s2^2) e^{-x^2/(2(s1^2+s2^2))}
    s1, s2 = 1.0, 1.5
    G = GridFunction(grid, np.exp(-grid.x**2 / (2 * s1**2)))
    w = GridFunction(grid, np.exp(-grid.x**2 / (2 * s2**2)))
    out = convolve(G, w)
    exact = (
        np.sqrt(2 * np.pi)
        * s1
        * s2
        / np.sqrt(s1**2 + s2**2)
        * np.exp(-grid.x**2 / (2 * (s1**2 + s2**2)))
    )
    assert np.max(np.abs(out.values - exact)) <= 1e-10


def test_convolve_spectral_vs_direct(grid):
    rng = np.random.default_rng(31)
    for _ in range(5):
        G = GridFunction(grid, rng.standard_normal(grid.N) * np.exp(-grid.x**2 / 6))
        w = GridFunction(grid, rng.standard_normal(grid.N) * np.exp(-grid.x**2 / 5))
        a = convolve(G, w)
        b = convolve_direct(G, w)
        assert np.max(np.abs(a.values - b.values)) <= 1e-10 * max(1.0, np.max(np.abs(a.values)))


def test_convolve_direct_matches_brute_force():
    g = make_grid(3.0, 16)
    rng = np.random.default_rng(4)
    G = GridFunction(g, rng.standard_normal(16))
    w = GridFunction(g, rng.standard_normal(16))
    brute = np.zeros(16)
    for j in range(16):
        for k in range(16):
            brute[j] += G.values[(j - k + 8) % 16] * w.values[k]
    brute *= g.dx
    assert np.max(np.abs(convolve_direct(G, w).values - brute)) <= 1e-13


def _full_direct_sum(G, w):
    """The direct sum over all N x N pairs, as convolve_direct ran it
    before it learned to skip the kernel's negligible tail."""
    N = G.grid.N
    full = np.convolve(G.values, w.values)
    circ = full[:N].copy()
    circ[: N - 1] += full[N:]
    vals = G.grid.dx * np.roll(circ, -(N // 2))
    return GridFunction(G.grid, vals.real if G.is_real and w.is_real else vals)


WINDOW_GRID = make_grid(40.0, 4096)
WINDOW_KERNELS = {
    "readme": 0.3 * np.exp(-WINDOW_GRID.x**2 / 2),
    "wraps-right": np.exp(-((WINDOW_GRID.x - 39.5) ** 2) / 2),
    "wraps-left": np.exp(-((WINDOW_GRID.x + 39.7) ** 2) / 2),
    "complex": np.exp(-WINDOW_GRID.x**2 / 3 + 2j * WINDOW_GRID.x),
    "full-support": 1.0 / (1.0 + WINDOW_GRID.x**2),
    "zero": np.zeros(WINDOW_GRID.N),
}


@pytest.mark.parametrize("name", sorted(WINDOW_KERNELS))
def test_convolve_direct_window_matches_full_sum(name):
    # dropping at most eps*||G||_L1 of kernel mass moves the result by at
    # most eps*||G||_L1*||w||_L2 (Young); the two summation orders add up
    # to one more such unit of round-off
    g = WINDOW_GRID
    G = GridFunction(g, WINDOW_KERNELS[name])
    w = GridFunction(g, 0.1 * np.tanh(np.exp(-g.x**2 / 8)) + np.exp(-g.x**2))
    _, K, tail_l1 = _direct_sum_window(G)
    got = convolve_direct(G, w)
    ref = _full_direct_sum(G, w)
    unit = EPS * l1_norm(G) * l2_norm(w)
    err = l2_norm(got - ref)
    assert tail_l1 <= EPS * l1_norm(G)
    assert err <= 2.0 * unit
    assert err <= tail_l1 * l2_norm(w) + unit
    if name == "full-support":
        assert (K, tail_l1) == (g.N, 0.0)
    elif name == "zero":
        assert (K, tail_l1) == (1, 0.0)
        assert np.all(got.values == 0.0)
    else:
        assert K < g.N // 2


# (N, complex kernel, complex w, tile constants or None for the module's):
# the output ends inside a block (N % rows != 0), the window fills its
# first tile only in part ((K - 1) % rows != 0) and spans many tiles, and,
# with shrunk constants, the products run over several row blocks, the
# last one short
TILE_EDGE_CASES = {
    "real": (4100, False, False, None),
    "complex-kernel": (4100, True, False, None),
    "row-blocks-real": (202, False, False, (8, 3)),
    "row-blocks-complex": (202, True, True, (8, 3)),
}


@pytest.mark.parametrize("name", sorted(TILE_EDGE_CASES))
def test_convolve_direct_crosses_tile_edges(name, monkeypatch):
    N, complex_G, complex_w, constants = TILE_EDGE_CASES[name]
    if constants is not None:
        for attr, value in zip(("_TILE_ROWS", "_TILE_BLOCKS"), constants):
            monkeypatch.setattr(nonlinear, attr, value)
    rows, blocks = nonlinear._TILE_ROWS, nonlinear._TILE_BLOCKS
    g = make_grid(10.0, N)
    rng = np.random.default_rng(N + 2 * complex_G + complex_w)

    def draw(is_complex):
        v = rng.standard_normal(N)
        return v + 1j * rng.standard_normal(N) if is_complex else v

    # a random kernel has no negligible samples: the window keeps all N
    G = GridFunction(g, draw(complex_G))
    w = GridFunction(g, draw(complex_w))
    K = _direct_sum_window(G)[1]
    n_blocks = -(-N // rows)
    assert K == N and N % rows != 0 and (K - 1) % rows != 0
    assert constants is None or (n_blocks > 2 * blocks and n_blocks % blocks != 0)
    got = convolve_direct(G, w)
    assert got.is_real == (not complex_G and not complex_w)
    assert l2_norm(got - _full_direct_sum(G, w)) <= 2.0 * EPS * l1_norm(G) * l2_norm(w)


def test_direct_sum_window_is_greedy():
    # the window drops the smaller of its two outer samples, one at a
    # time, while the dropped total stays within eps*sum|G|
    rng = np.random.default_rng(12)
    for _ in range(200):
        N = int(rng.choice([8, 16, 64]))
        mag = np.abs(rng.standard_normal(N)) * 10.0 ** rng.uniform(-20.0, 0.0, N)
        mag[rng.random(N) < 0.2] = 0.0
        G = GridFunction(make_grid(3.0, N), mag)
        c = int(np.argmax(mag))
        lo, hi, dropped = c - (N // 2 - 1), c + N // 2, 0.0
        while lo < hi:
            end = hi if mag[hi % N] <= mag[lo % N] else lo
            if dropped + mag[end % N] > EPS * mag.sum():
                break
            dropped += mag[end % N]
            lo, hi = (lo, hi - 1) if end == hi else (lo + 1, hi)
        start, K, tail_l1 = _direct_sum_window(G)
        assert (start, K) == (lo % N, hi - lo + 1)
        assert tail_l1 == pytest.approx(G.grid.dx * dropped, rel=1e-12, abs=0.0)


def test_convolve_direct_uses_no_fft(grid, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("convolve_direct must not use an FFT")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    w = GridFunction(grid, np.exp(-grid.x**2))
    out = convolve_direct(G, w)
    assert l2_norm(out - _full_direct_sum(G, w)) <= 2.0 * EPS * l1_norm(G) * l2_norm(w)


def test_fixed_point_residual_tail_bound(grid):
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    F = tanh_nonlinearity(grid)
    result = fixed_point_solve(G, F, NONRESONANT, tol_h2=1e-8)
    Fu = apply_nonlinearity(F, result.u)
    assert result.residual_tail_bound == _direct_sum_window(G)[2] * l2_norm(Fu)
    assert 0.0 < result.residual_tail_bound <= EPS * l1_norm(G) * l2_norm(Fu)


def test_fixed_point_residual_finds_the_window_once(grid, monkeypatch):
    calls = []
    original = nonlinear._direct_sum_window
    monkeypatch.setattr(nonlinear, "_direct_sum_window", lambda G: calls.append(1) or original(G))
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    F = tanh_nonlinearity(grid)
    result = fixed_point_solve(G, F, NONRESONANT, tol_h2=1e-8)
    assert len(calls) == 1
    # the same residual as the public direct sum gives
    Fu = apply_nonlinearity(F, result.u)
    residual = apply_operator(result.u, NONRESONANT) - convolve_direct(G, Fu)
    assert result.residual_l2 == l2_norm(residual)


def test_convolve_grid_mismatch(grid):
    other = make_grid(20.0, 1024)
    with pytest.raises(ValueError):
        convolve(
            GridFunction(grid, np.zeros(grid.N)), GridFunction(other, np.zeros(other.N))
        )
    # same N on both grids, so only the grid check can catch it
    with pytest.raises(ValueError):
        apply_T(
            GridFunction(other, np.zeros(other.N)),
            GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2)),
            tanh_nonlinearity(grid),
            NONRESONANT,
        )
    with pytest.raises(ValueError):
        fixed_point_solve(
            GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2)),
            tanh_nonlinearity(grid),
            NONRESONANT,
            v0=GridFunction(other, np.zeros(other.N)),
        )


def test_apply_T_zero_nonlinearity(grid):
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    F = zero_nonlinearity(grid)
    rng = np.random.default_rng(9)
    v = GridFunction(grid, rng.standard_normal(grid.N) * np.exp(-grid.x**2 / 8))
    assert l2_norm(apply_T(v, G, F, NONRESONANT)) == 0


@pytest.mark.parametrize(
    "params, L, kernel",
    [
        (NONRESONANT, 40.0, lambda g: GridFunction(g, 0.3 * np.exp(-g.x**2 / 2))),
        # +-1 on the grid: the singular bins are dropped on both sides
        (
            RESONANT,
            resonant_aligned_half_length(1.0, 40.0),
            lambda g: builtin_function("hermite_gaussian", g, {"scale": 1.0}),
        ),
    ],
    ids=["nonresonant", "resonant-aligned"],
)
def test_apply_T_constant_nonlinearity(params, L, kernel):
    # F(u, x) = r(x): one application equals the linear solve of G * r
    grid = make_grid(L, 1024)
    r_vals = np.exp(-grid.x**2)
    F = Nonlinearity(
        eval=lambda u, x: np.broadcast_to(np.exp(-(x**2)), np.shape(u)).copy(),
        k=0.0,
        envelope=GridFunction(grid, r_vals),
        l=0.0,
    )
    G = kernel(grid)
    v0 = GridFunction(grid, np.sin(grid.x) * np.exp(-grid.x**2 / 9))
    out = apply_T(v0, G, F, params)
    expected = solve_linear(convolve(G, GridFunction(grid, r_vals)), params).u
    assert np.max(np.abs(out.values - expected.values)) <= 1e-12


def test_contraction_bound_random_pairs(grid):
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    F = tanh_nonlinearity(grid)
    rep = stability_constant(G, NONRESONANT)
    q = 2 * np.sqrt(np.pi) * rep.N * F.l
    rng = np.random.default_rng(12)
    for _ in range(20):
        v1 = GridFunction(grid, rng.standard_normal(grid.N) * np.exp(-grid.x**2 / 8))
        v2 = GridFunction(grid, rng.standard_normal(grid.N) * np.exp(-grid.x**2 / 8))
        t1 = apply_T(v1, G, F, NONRESONANT)
        t2 = apply_T(v2, G, F, NONRESONANT)
        assert h2_norm(t1 - t2) <= q * h2_norm(v1 - v2) * 1.05


@pytest.mark.parametrize("tol_h2", [1e-6, 1e-8])
def test_fixed_point_fft_count(fft_calls, tol_h2):
    # once: 1 for G.spectrum, which the stability constant, the multiplier
    # and the nontriviality check share; per iteration: F(v)_hat and one
    # inverse for the step (its H2 norm is taken on the spectra); then 2
    # for the residual's operator application and 1 for F(0)_hat in the
    # nontriviality check.  All are half-length for real data.  The zero
    # start's spectrum is zero, with no FFT.  The off-grid samples take no
    # FFT, so a second solve with the same G on the now warm grid does the
    # same, less G's transform, which G keeps
    cold = make_grid(40.0, 1024)  # fresh: nothing memoized yet
    G = GridFunction(cold, 0.3 * np.exp(-cold.x**2 / 2))
    F = tanh_nonlinearity(cold)
    pair = [("rfft", 1024), ("irfft", 1024)]
    for g_fft in ([("rfft", 1024)], []):
        fft_calls.clear()
        result = fixed_point_solve(G, F, NONRESONANT, tol_h2=tol_h2)
        assert result.iterations >= 3
        assert fft_calls == g_fft + pair * result.iterations + pair + [("rfft", 1024)]
        assert len(fft_calls) == 2 * result.iterations + 3 + len(g_fft)


def test_iterate_fixed_point_is_fixed_point_solve_without_diagnostics(monkeypatch):
    # the core's u, step norms, bounds and report are fixed_point_solve's
    # bit for bit, on seeded random (a, h, N) with a Gaussian kernel and
    # on resonant-aligned grids with a projected one, from the zero start
    # and from a given v0.  The core runs none of the diagnostics
    rng = np.random.default_rng(67)
    for N in (256, 1024, 2048):
        a = rng.uniform(0.5, 2.0)
        g = make_grid(rng.uniform(20.0, 40.0), N)
        aligned = make_grid(resonant_aligned_half_length(a, 40.0), N)
        resonant = ShiftParams(a, 2 * np.pi * rng.integers(1, 3) / np.sqrt(a))
        cases = [
            (GridFunction(g, np.exp(-g.x**2 / (2 * rng.uniform(0.5, 2.0)))),
             ShiftParams(a, rng.uniform(0.2, 3.0))),
            (project_solvable(GridFunction(aligned, np.exp(-aligned.x**2 / 2)), resonant),
             resonant),
        ]
        for G, params in cases:
            N_G = stability_constant(G, params).N
            F = tanh_nonlinearity(G.grid, 0.25 / (np.sqrt(np.pi) * N_G))  # q = 1/2
            v0 = GridFunction(G.grid, rng.standard_normal(N) * np.exp(-G.grid.x**2 / 8))
            for start in (None, v0):
                full = fixed_point_solve(G, F, params, v0=start, tol_h2=1e-10)
                with monkeypatch.context() as m:
                    for name in ("apply_operator", "_convolve_on_window", "nontriviality_check"):
                        m.setattr(nonlinear, name, None)
                    core = iterate_fixed_point(G, F, params, v0=start, tol_h2=1e-10)
                assert core.u.grid == G.grid and np.array_equal(core.u.values, full.u.values)
                assert core.step_norms == full.step_norms and core.stability == full.stability
                assert (core.q_bound, core.iteration_bound) == (full.q_bound, full.iteration_bound)


def test_first_step_norm_matches_h2_norm(grid):
    # the loop takes the H2 step by Parseval on the spectra; it must agree
    # with the FFT-based H2 norm of the same step to round-off
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    F = tanh_nonlinearity(grid)
    rng = np.random.default_rng(5)
    v0 = GridFunction(grid, rng.standard_normal(grid.N) * np.exp(-grid.x**2 / 10))
    result = fixed_point_solve(G, F, NONRESONANT, v0=v0, tol_h2=1e-8)
    direct = h2_norm(apply_T(v0, G, F, NONRESONANT) - v0)
    floor = np.finfo(float).eps * (1.0 + grid.p_max**2) * h2_norm(v0)
    assert abs(result.step_norms[0] - direct) <= floor


def test_fixed_point_converges_on_fine_grid():
    # the README solve-nonlinear config at N=32768 with tol_h2=1e-10: an H2
    # step through an FFT round trip has a floor ~eps*p_max^2*||u|| above
    # tol_h2 there, while the spectral step reads the same at every N
    last = {}
    for N in (4096, 32768):
        g = make_grid(40.0, N)
        G = builtin_function("gaussian", g, {"amplitude": 0.3})
        offset = {"name": "gaussian", "params": {"sigma": 0.7071067811865476}}
        F = builtin_nonlinearity("tanh", g, {"slope": 0.1, "offset": offset})
        last[N] = fixed_point_solve(G, F, NONRESONANT, tol_h2=1e-10).step_norms[-1]
    assert last[32768] <= 1e-10
    assert abs(last[32768] - last[4096]) <= 1e-3 * last[4096]


def test_fixed_point_zero_nonlinearity(grid):
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    result = fixed_point_solve(G, zero_nonlinearity(grid), NONRESONANT)
    assert result.iterations == 1
    assert l2_norm(result.u) == 0
    assert not result.nontrivial


def test_fixed_point_constant_nonlinearity(grid):
    F = Nonlinearity(
        eval=lambda u, x: np.broadcast_to(np.exp(-(x**2)), np.shape(u)).copy(),
        k=0.0,
        envelope=GridFunction(grid, np.exp(-grid.x**2)),
        l=0.0,
    )
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    result = fixed_point_solve(G, F, NONRESONANT)
    assert result.iterations <= 2
    assert result.residual_l2 <= 1e-8


def test_fixed_point_builtin_problem(grid):
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    F = tanh_nonlinearity(grid)
    result = fixed_point_solve(G, F, NONRESONANT, tol_h2=1e-10)
    assert result.q_bound < 1
    assert result.observed_ratio <= result.q_bound * 1.1
    assert result.residual_l2 <= 10 * 1e-10  # direct-sum convolution residual
    assert result.nontrivial
    assert result.iterations <= result.iteration_bound + 2
    assert all(s > 0 for s in result.step_norms[:-1])
    steps = result.step_norms
    assert result.observed_ratio == max(b / a for a, b in zip(steps[1:-1], steps[2:]))
    # uniqueness: a second start lands on the same fixed point
    rng = np.random.default_rng(2)
    v0 = GridFunction(grid, rng.standard_normal(grid.N) * np.exp(-grid.x**2 / 10))
    result2 = fixed_point_solve(G, F, NONRESONANT, v0=v0, tol_h2=1e-10)
    assert h2_norm(result.u - result2.u) <= 2e-10


def test_fixed_point_resonant_orthogonal_kernel():
    g = make_grid(resonant_aligned_half_length(1.0, 40.0), 1024)
    G = GridFunction(g, 0.05 * g.x**2 * np.exp(-g.x**2 / 2))
    F = tanh_nonlinearity(g)
    result = fixed_point_solve(G, F, RESONANT, tol_h2=1e-10)
    assert result.residual_l2 <= 1e-8
    assert result.stability.finite


def test_fixed_point_resonant_gaussian_kernel_raises():
    g = make_grid(resonant_aligned_half_length(1.0, 40.0), 1024)
    G = GridFunction(g, 0.3 * np.exp(-g.x**2 / 2))
    with pytest.raises(NotFinite):
        fixed_point_solve(G, tanh_nonlinearity(g), RESONANT)


def test_fixed_point_contraction_hypothesis(grid):
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    F = tanh_nonlinearity(grid, slope=20.0)  # q far above 1
    with pytest.raises(ContractionHypothesisFailed):
        fixed_point_solve(G, F, NONRESONANT)


def test_fixed_point_contraction_boundary_refused(grid):
    # q = 1 exactly (margin 0.0) does not contract
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    N = stability_constant(G, NONRESONANT).N
    near = 1.0 / (2.0 * np.sqrt(np.pi) * N) * (1.0 + EPS * np.arange(-8, 9))
    slope = next(s for s in near if contraction_margin(N, s) == 0.0)
    with pytest.raises(ContractionHypothesisFailed):
        fixed_point_solve(G, tanh_nonlinearity(grid, slope=slope), NONRESONANT)


def test_fixed_point_tolerance_and_cap_are_inclusive(grid):
    # a step equal to tol_h2 stops the iteration, and max_iter steps are
    # allowed: the run that converges in n steps does so with max_iter=n
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    F = tanh_nonlinearity(grid)
    steps = iterate_fixed_point(G, F, NONRESONANT, tol_h2=1e-10).step_norms
    n = len(steps)
    assert len(iterate_fixed_point(G, F, NONRESONANT, tol_h2=1e-10, max_iter=n).step_norms) == n
    with pytest.raises(MaxIterExceeded):
        iterate_fixed_point(G, F, NONRESONANT, tol_h2=1e-10, max_iter=n - 1)
    half = iterate_fixed_point(G, F, NONRESONANT, tol_h2=steps[n // 2])
    assert half.step_norms == steps[: n // 2 + 1]
    # a first step at the tolerance needs no more: an a priori bound of 1
    first = iterate_fixed_point(G, F, NONRESONANT, tol_h2=steps[0])
    assert first.step_norms == steps[:1] and first.iteration_bound == 1


def test_fixed_point_max_iter(grid):
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    F = tanh_nonlinearity(grid)
    with pytest.raises(MaxIterExceeded):
        fixed_point_solve(G, F, NONRESONANT, tol_h2=1e-10, max_iter=2)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(tol_h2=0.0), "tol_h2 must be positive and finite, got 0.0"),
        (dict(tol_h2=-1.0), "tol_h2 must be positive and finite, got -1.0"),
        (dict(tol_h2=float("nan")), "tol_h2 must be positive and finite, got nan"),
        (dict(tol_h2=float("inf")), "tol_h2 must be positive and finite, got inf"),
        (dict(max_iter=0), "max_iter must be at least 1, got 0"),
        (dict(max_iter=-3), "max_iter must be at least 1, got -3"),
    ],
)
def test_fixed_point_rejects_bad_tolerance_and_cap(grid, monkeypatch, kwargs, message):
    # rejected with the reason, before any transform runs
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    F = tanh_nonlinearity(grid)
    calls = []
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kw: calls.append(1))
    monkeypatch.setattr(np.fft, "ifft", lambda *args, **kw: calls.append(1))
    with pytest.raises(ValueError) as info:
        fixed_point_solve(G, F, NONRESONANT, **kwargs)
    assert str(info.value) == message
    assert calls == []


def test_fixed_point_refuses_a_step_norm_that_overflows(grid):
    # each input's L2 norm is finite, but the squares of the map's samples
    # overflow: the first H2 step norm is inf, and the run used to report
    # convergence in 2 iterations with step norms [inf, 0.0]
    huge = {"name": "gaussian", "params": {"amplitude": 1e100}}
    G = builtin_function("gaussian", grid, huge["params"])
    F = builtin_nonlinearity("constant", grid, {"offset": huge})
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=re.escape("an H2 step norm is inf")):
            fixed_point_solve(G, F, NONRESONANT)


def test_fixed_point_single_iteration_cap(grid):
    # max_iter=1 is a valid cap: it stops after one step
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    F = tanh_nonlinearity(grid)
    with pytest.raises(MaxIterExceeded, match="within 1 iterations"):
        fixed_point_solve(G, F, NONRESONANT, tol_h2=1e-10, max_iter=1)


def test_a_priori_iterations_when_the_tolerance_ratio_underflows():
    # tol*(1 - q) rounds to 0 for a tol at the bottom of the subnormal
    # range; the bound is still the least k with q^k*first_step/(1 - q)
    # <= tol, compared here in logs
    for q, first_step, tol in ((0.5, 1.0, 5e-324), (0.9, 3.0, 5e-324), (0.5, 2.0, 1e-300)):
        k = nonlinear._a_priori_iterations(q, first_step, tol)

        def excess(k):
            return k * math.log(q) + math.log(first_step) - math.log1p(-q) - math.log(tol)

        assert excess(k) <= 0 < excess(k - 1), (q, first_step, tol, k)


def test_nontriviality_gaussians(grid):
    G = GridFunction(grid, np.exp(-grid.x**2 / 2))
    F = tanh_nonlinearity(grid)
    assert nontriviality_check(G, F, grid)
    # an explicit threshold is in transform units on every grid (dx =
    # 0.16 and 1.25): the transform peaks sigma of G (1) and of F(0, .)
    # (2) lie on either side of 1.5, and both above 0.5
    # (2) lie on either side of 1.5, and both above 0.5; then the roles
    # swap, so each transform is the one below 1.5 once
    for g_sigma, f_sigma in ((1.0, 2.0), (2.0, 1.0)):
        offset = {"name": "gaussian", "params": {"sigma": f_sigma}}
        for g in (make_grid(20.0, 256), make_grid(40.0, 64)):
            G = builtin_function("gaussian", g, {"sigma": g_sigma})
            F = builtin_nonlinearity("constant", g, {"offset": offset})
            assert nontriviality_check(G, F, g, threshold=0.5)
            assert not nontriviality_check(G, F, g, threshold=1.5)


def test_nontriviality_rejects_a_kernel_from_another_grid():
    # G's samples mean nothing on another grid, even one of the same size
    small, large = make_grid(20.0, 1024), make_grid(30.0, 1024)
    G = GridFunction(small, 0.3 * np.exp(-small.x**2 / 2))
    with pytest.raises(ValueError, match="grid mismatch"):
        nontriviality_check(G, tanh_nonlinearity(large), large)


def test_nontriviality_zero_source(grid):
    G = GridFunction(grid, np.exp(-grid.x**2 / 2))
    F = Nonlinearity(
        eval=lambda u, x: 0.1 * np.tanh(u),
        k=0.1,
        envelope=GridFunction(grid, np.zeros(grid.N)),
        l=0.1,
    )
    assert not nontriviality_check(G, F, grid)
    result = fixed_point_solve(G, F, NONRESONANT)
    assert h2_norm(result.u) <= 1e-10
    # nor does a zero kernel overlap anything, at any threshold
    zero = GridFunction(grid, np.zeros(grid.N))
    for threshold in (None, 0.0):
        assert not nontriviality_check(zero, tanh_nonlinearity(grid), grid, threshold=threshold)


def test_nontriviality_disjoint_bands(grid):
    # build G and F(0, .) by inverse transform of disjoint frequency bumps
    bump_lo = np.where(np.abs(grid.p) <= 1.0, np.exp(-grid.p**2), 0.0)
    bump_hi = np.where(
        (np.abs(grid.p) >= 3.0) & (np.abs(grid.p) <= 5.0),
        np.exp(-((np.abs(grid.p) - 4.0) ** 2) * 20),
        0.0,
    )
    G = GridFunction(grid, inverse_transform(SpectralFunction(grid, bump_lo)).values.real)
    src = inverse_transform(SpectralFunction(grid, bump_hi)).values.real
    F = Nonlinearity(
        eval=lambda u, x: np.broadcast_to(
            src[np.rint((np.asarray(x) + grid.L) / grid.dx).astype(int) % grid.N],
            np.shape(u),
        ).copy(),
        k=0.0,
        envelope=GridFunction(grid, np.abs(src)),
        l=0.0,
    )
    assert not nontriviality_check(G, F, grid, threshold=1e-9)


def test_apply_nonlinearity_requires_real(grid):
    F = tanh_nonlinearity(grid)
    v = GridFunction(grid, np.exp(1j * grid.x))
    with pytest.raises(ValueError):
        apply_nonlinearity(F, v)


def _random_smooth(rng, grid):
    # a real sum of broad, slowly modulated bumps: its spectrum sits near
    # p = 0, and at amplitude 0.1 tanh is nearly linear on it
    values = np.zeros(grid.N)
    for _ in range(3):
        c, w = rng.uniform(-grid.L / 4, grid.L / 4), rng.uniform(grid.L / 8, grid.L / 4)
        phase = rng.uniform(0.0, 0.5) * grid.x + rng.uniform(0.0, 2 * np.pi)
        values += rng.uniform(-0.1, 0.1) * np.exp(-(((grid.x - c) / w) ** 2)) * np.cos(phase)
    return GridFunction(grid, values)


@pytest.mark.parametrize("case", ["nonresonant", "near-resonant", "resonant-aligned"])
def test_contraction_inequality_random_params(case):
    # ||T v1 - T v2||_H2 <= q ||v1 - v2||_H2 with q = 2 sqrt(pi) N l, for F
    # of Lipschitz constant l set to give q = 0.5 or 0.9.  The bound leaves
    # a factor sqrt(2) (N is the larger of two sups): non-resonant pairs
    # reach 0.70 q, so scaling the map's multiplier c (nonlinear._multiplier)
    # by 1/q = 2 fails this test
    rng = np.random.default_rng(["nonresonant", "near-resonant", "resonant-aligned"].index(case))
    for _ in range(4):
        a, N = rng.uniform(0.25, 4.0), int(rng.choice([256, 512, 1024, 2048]))
        if case == "nonresonant":
            h, L = rng.uniform(0.2, 3.0), rng.uniform(20.0, 50.0)
        elif case == "near-resonant":
            h, L = 2 * np.pi * 1.001 / np.sqrt(a), rng.uniform(20.0, 50.0)
        else:
            h = 2 * np.pi * int(rng.integers(1, 4)) / np.sqrt(a)
            L = resonant_aligned_half_length(a, rng.uniform(20.0, 50.0))
        grid, params = make_grid(L, N), ShiftParams(a, h)
        if case == "resonant-aligned":
            # x*exp(-(x*scale)^2/2) at scale = sqrt(a): G_hat vanishes at +-sqrt(a)
            G = builtin_function("hermite_gaussian", grid, {"scale": np.sqrt(a), "amplitude": 0.5})
        else:
            G = builtin_function("gaussian", grid, {"sigma": rng.uniform(1.0, 2.0), "amplitude": 0.3})
        rep = stability_constant(G, params)
        assert rep.finite
        for q in (0.5, 0.9):
            l = q / (2 * np.sqrt(np.pi) * rep.N)
            F = Nonlinearity(
                eval=lambda u, x, l=l: l * np.tanh(u),
                k=l,
                envelope=GridFunction(grid, np.zeros(N)),
                l=l,
            )
            for _ in range(3):
                v1, v2 = _random_smooth(rng, grid), _random_smooth(rng, grid)
                gap = h2_norm(apply_T(v1, G, F, params) - apply_T(v2, G, F, params))
                assert gap <= q * h2_norm(v1 - v2) * (1 + 1e-9)
