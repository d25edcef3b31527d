import numpy as np
import pytest

from shiftspec import nonlinear
from shiftspec.catalog import builtin_function, builtin_nonlinearity
from shiftspec.errors import ContractionHypothesisFailed, MaxIterExceeded, NotFinite
from shiftspec.kernels import stability_constant
from shiftspec.linear import apply_operator, resonant_aligned_half_length, solve_linear
from shiftspec.nonlinear import (
    Nonlinearity,
    _direct_sum_window,
    apply_T,
    apply_nonlinearity,
    convolve,
    convolve_direct,
    fixed_point_solve,
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

    for name in ("fft", "ifft"):
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
def test_fixed_point_fft_count(grid, monkeypatch, tol_h2):
    # per iteration: F(v)_hat and one inverse for the step (its H2 norm
    # is taken on the spectra); once: 4 for the stability constant, 1 for
    # G_hat, 1 for v0_hat, 2 for the nontriviality check, 2 for the
    # residual's operator application
    calls = []
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    result = fixed_point_solve(G, tanh_nonlinearity(grid), NONRESONANT, tol_h2=tol_h2)
    assert result.iterations >= 3
    assert len(calls) == 2 * result.iterations + 10


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


def test_fixed_point_max_iter(grid):
    G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
    F = tanh_nonlinearity(grid)
    with pytest.raises(MaxIterExceeded):
        fixed_point_solve(G, F, NONRESONANT, tol_h2=1e-10, max_iter=2)


def test_nontriviality_gaussians(grid):
    G = GridFunction(grid, np.exp(-grid.x**2 / 2))
    F = tanh_nonlinearity(grid)
    assert nontriviality_check(G, F, grid)


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
