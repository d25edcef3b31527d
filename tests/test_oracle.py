"""An independent oracle: the discrete operator -u'' - a*u(x - h) as a dense
matrix built from closed forms, with no FFT anywhere (Trefethen, *Spectral
Methods in MATLAB*, SIAM 2000, ch. 3), against the FFT paths at small N.

The FFT paths share one core (dft/idft, fft_frequencies, the memoized
symbol), so a sign, layout or Nyquist mistake common to them cancels out of
a test that checks one against another; it does not cancel here
(differential testing: McKeeman, Digital Technical Journal 10(1), 1998).

The Nyquist rule (README, "Numerical conventions") makes the division and
the operator differ from the symmetric sinc oracle in one mode, (-1)^j:
for a real input the division keeps Re(1/lambda) at bin N/2, where the
oracle divides by Re(lambda).  The division is compared on data with that
mode taken out, and pinned on the mode itself by its closed form.
"""

import json

import numpy as np
import pytest

from shiftspec.catalog import builtin_function, builtin_nonlinearity
from shiftspec.cli import main
from shiftspec.linear import apply_operator, resonant_aligned_half_length, solve_linear
from shiftspec.nonlinear import Nonlinearity, iterate_fixed_point, nontriviality_check
from shiftspec.spectral import GridFunction, make_grid, read_gridfunction_csv, write_gridfunction_csv
from shiftspec.symbols import ShiftParams, classify

EPS = np.finfo(float).eps


def _alternating(N):
    return np.where(np.arange(N) % 2, -1.0, 1.0)


def _second_derivative_matrix(grid):
    # Trefethen's periodic D2 for spacing d = 2*pi/N: diagonal
    # -pi^2/(3 d^2) - 1/6, off-diagonal -(-1)^m / (2 sin^2(m d/2)) for
    # m = j - k; times (pi/L)^2, as x = -L + L*t/pi maps [0, 2*pi) to [-L, L)
    N = grid.N
    d = 2.0 * np.pi / N
    m = np.subtract.outer(np.arange(N), np.arange(N))
    np.fill_diagonal(m, 1)  # the diagonal is set below
    D2 = -np.where(m % 2, -1.0, 1.0) / (2.0 * np.sin(m * d / 2.0) ** 2)
    np.fill_diagonal(D2, -np.pi**2 / (3.0 * d**2) - 1.0 / 6.0)
    return (np.pi / grid.L) ** 2 * D2


def _shift_matrix(grid, h):
    # S[j, k] = S_N(t), t = (x_j - h - x_k)*pi/L, with the periodic sinc
    # S_N(t) = sin(N t/2) / (N tan(t/2)).  With h = (s + delta)*dx, s the
    # nearest whole number of steps, N t/2 = pi*(m - delta) for m = j - k - s,
    # so the numerator is -(-1)^m sin(pi*delta), with no large argument.
    # S_N has period N in m, so m is taken in [-N/2, N/2): tan(t/2) is
    # then small only near m = 0, where pi*(m - delta)/N has no
    # cancellation.  A whole step (delta = 0) takes the on-grid limit: 1 at
    # m = 0 and 0 at the other whole steps, a permutation
    N = grid.N
    s = round(h / grid.dx)
    delta = h / grid.dx - s
    m = (np.subtract.outer(np.arange(N), np.arange(N)) - s + N // 2) % N - N // 2
    if delta == 0.0:
        return (m == 0).astype(float)
    sign = np.where(m % 2, -1.0, 1.0)
    return -sign * np.sin(np.pi * delta) / (N * np.tan(np.pi * (m - delta) / N))


def _dense_operator(grid, params):
    return -_second_derivative_matrix(grid) - params.a * _shift_matrix(grid, params.h)


def _draw_case(rng, N):
    # non-resonant (a, h) at least 0.4*a from the zero of lambda at
    # +-sqrt(a) (|lambda(sqrt(a))| = 2a|sin(sqrt(a) h/2)|), and L with
    # L/sigma = sigma*p_max for the unit gaussians of _decaying
    while True:
        params = ShiftParams(float(rng.uniform(0.3, 3.0)), float(rng.uniform(-3.0, 3.0)))
        if not classify(params).is_resonant and abs(np.sin(params.sqrt_a * params.h / 2)) > 0.2:
            break
    return params, make_grid(np.sqrt(N * np.pi / 2.0) * rng.uniform(0.9, 1.1), N)


def _decaying(rng, grid, complex_values):
    # three unit gaussians near 0, each times a slow cosine
    def part():
        mu, c, k = rng.uniform(-1, 1, 3), rng.standard_normal(3), rng.uniform(0, 2, 3)
        return sum(c[i] * np.exp(-((grid.x - mu[i]) ** 2) / 2) * np.cos(k[i] * grid.x + mu[i])
                   for i in range(3))  # fmt: skip

    return part() + 1j * part() if complex_values else part()


def _without_nyquist_mode(f):
    # f less its (-1)^j component (1/N) sum_j f_j (-1)^j: the one mode
    # where the division's Nyquist rule and the oracle differ
    alt = _alternating(len(f))
    return f - np.mean(f * alt) * alt


CASES = [(N, complex_values) for N in (32, 64, 128, 256) for complex_values in (False, True)]


@pytest.mark.parametrize(
    "N, complex_values", CASES, ids=[f"N{N}-{'complex' if c else 'real'}" for N, c in CASES]
)
def test_solve_linear_matches_dense_solve(N, complex_values):
    rng = np.random.default_rng([2026, N, complex_values])
    for _ in range(3):
        params, grid = _draw_case(rng, N)
        f = _without_nyquist_mode(_decaying(rng, grid, complex_values))
        u = solve_linear(GridFunction(grid, f), params).u.values
        oracle = np.linalg.solve(_dense_operator(grid, params), f)
        tol = 32 * EPS * (1.0 + grid.p_max**2) * np.max(np.abs(oracle))
        assert np.max(np.abs(u - oracle)) <= tol, (params, grid.L)


NEAR_CASES = [case for case in CASES if case[0] >= 64]


@pytest.mark.parametrize(
    "N, complex_values",
    NEAR_CASES,
    ids=[f"N{N}-{'complex' if c else 'real'}" for N, c in NEAR_CASES],
)
def test_solve_linear_near_resonance_matches_dense_solve(N, complex_values):
    # h a relative 1e-7..1e-2 off the resonance 2*pi*n/sqrt(a), on a grid
    # that holds +-sqrt(a): classify still says NonResonant, and the dense
    # operator's 2-norm condition number kappa reaches 3e8 (|lambda(sqrt(a))|
    # ~ a^1.5 |h - 2*pi*n/sqrt(a)|).  Both solves lose digits in proportion
    # to kappa, so the tolerance is eps*kappa*max|u|, not eps*p_max^2:
    # measured at most 0.42 of it, where eps*(1 + p_max^2)*max|u| is
    # exceeded up to 2.4e5 times
    rng = np.random.default_rng([2036, N, complex_values])
    for _ in range(4):
        a, n = float(rng.uniform(0.3, 3.0)), int(rng.integers(1, 3))
        resonance = 2 * np.pi * n / np.sqrt(a)
        params = ShiftParams(a, resonance * (1 + rng.choice([-1, 1]) * 10 ** rng.uniform(-7, -2)))
        assert not classify(params).is_resonant
        L = np.sqrt(N * np.pi / (2.0 * a)) * rng.uniform(0.9, 1.1)
        grid = make_grid(resonant_aligned_half_length(a, L), N)
        f = _without_nyquist_mode(_decaying(rng, grid, complex_values))
        u = solve_linear(GridFunction(grid, f), params).u.values
        A = _dense_operator(grid, params)
        oracle = np.linalg.solve(A, f)
        tol = 4 * EPS * np.linalg.cond(A) * np.max(np.abs(oracle))
        assert np.max(np.abs(u - oracle)) <= tol, (params, grid.L)


@pytest.mark.parametrize(
    "N, complex_values", CASES, ids=[f"N{N}-{'complex' if c else 'real'}" for N, c in CASES]
)
def test_apply_operator_matches_dense_product(N, complex_values):
    rng = np.random.default_rng([2027, N, complex_values])
    for _ in range(3):
        params, grid = _draw_case(rng, N)
        f = _decaying(rng, grid, complex_values)
        if complex_values:
            # a complex input's bin N/2 takes the complex lambda(-p_max)
            f = _without_nyquist_mode(f)
        Lf = apply_operator(GridFunction(grid, f), params).values
        oracle = _dense_operator(grid, params) @ f
        tol = 32 * EPS * (1.0 + grid.p_max**2) * np.max(np.abs(f))
        assert np.max(np.abs(Lf - oracle)) <= tol, (params, grid.L)


@pytest.mark.parametrize("N", [32, 64, 128, 256])
def test_nyquist_mode_of_a_real_input(N):
    # the operator on (-1)^j is Re(lambda(-p_max)) (-1)^j, as the oracle's;
    # the division gives Re(1/lambda(-p_max)) (-1)^j, not 1/Re(lambda)
    rng = np.random.default_rng([2028, N])
    params, grid = _draw_case(rng, N)
    alt = _alternating(N)
    lam = grid.p_max**2 - params.a * np.exp(1j * grid.p_max * params.h)
    Lalt = apply_operator(GridFunction(grid, alt), params).values
    oracle = _dense_operator(grid, params) @ alt
    # the dense product sums N entries of size up to p_max^2
    assert np.max(np.abs(Lalt - oracle)) <= 8 * np.sqrt(N) * EPS * (1.0 + grid.p_max**2)
    assert np.max(np.abs(Lalt - lam.real * alt)) <= 4 * EPS * (1.0 + grid.p_max**2)
    u = solve_linear(GridFunction(grid, alt), params).u.values
    assert np.max(np.abs(u - (1.0 / lam).real * alt)) <= 4 * EPS * abs((1.0 / lam).real)


def test_cli_solve_linear_matches_dense_solve(tmp_path, capsys):
    # the whole path: f through a CSV, the solve, solution.csv read back
    rng = np.random.default_rng(2029)
    params, grid = _draw_case(rng, 128)
    f = _without_nyquist_mode(_decaying(rng, grid, False))
    write_gridfunction_csv(GridFunction(grid, f), tmp_path / "f.csv")
    cfg = {"a": params.a, "h": params.h, "L": grid.L, "N": grid.N, "f": str(tmp_path / "f.csv")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["solve-linear", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    u = read_gridfunction_csv(out / "solution.csv", grid).values
    oracle = np.linalg.solve(_dense_operator(grid, params), f)
    assert np.max(np.abs(u - oracle)) <= 32 * EPS * (1.0 + grid.p_max**2) * np.max(np.abs(oracle))
    capsys.readouterr()


def test_whole_step_shift_is_a_permutation():
    # at h = s*dx the periodic sinc takes its on-grid limit, (S f)_j = f_(j-s);
    # a hair off the whole step the closed form is within O(delta) of it
    grid = make_grid(10.0, 64)
    f = np.random.default_rng(2033).standard_normal(64)
    for s in (1, -3, 40, 69):
        assert np.array_equal(_shift_matrix(grid, s * grid.dx) @ f, np.roll(f, s))
        near = _shift_matrix(grid, (s + 1e-9) * grid.dx) @ f
        assert np.max(np.abs(near - np.roll(f, s))) <= 1e-6 * np.max(np.abs(f))


def _draw_resonant_case(rng, N):
    # h = 2*pi*n/sqrt(a) on an aligned L near sqrt(N*pi/(2a)), which puts
    # +-sqrt(a) on the dual grid and resolves the hermite gaussian of scale
    # sqrt(a) in x and p alike
    a, n = float(rng.uniform(0.3, 3.0)), int(rng.integers(1, 3))
    params = ShiftParams(a, 2 * np.pi * n / np.sqrt(a))
    L = np.sqrt(N * np.pi / (2.0 * a)) * rng.uniform(0.9, 1.1)
    return params, make_grid(resonant_aligned_half_length(a, L), N)


@pytest.mark.parametrize("N", [64, 128, 256])
def test_resonant_solve_linear_matches_minimum_norm_lstsq(N):
    # A is singular at the bins +-sqrt(a); an f orthogonal there is in its
    # range, and the solve's u is the minimum-norm solution: measured at
    # most 2.2 of eps*(1 + p_max^2)*max|u|
    rng = np.random.default_rng([2030, N])
    for _ in range(3):
        params, grid = _draw_resonant_case(rng, N)
        assert classify(params).is_resonant
        spec = {"scale": params.sqrt_a, "amplitude": float(rng.standard_normal())}
        f = _without_nyquist_mode(builtin_function("hermite_gaussian", grid, spec).values)
        u = solve_linear(GridFunction(grid, f), params).u.values
        oracle = np.linalg.lstsq(_dense_operator(grid, params), f, rcond=1e-10)[0]
        tol = 32 * EPS * (1.0 + grid.p_max**2) * np.max(np.abs(oracle))
        assert np.max(np.abs(u - oracle)) <= tol, (params, grid.L)


def test_cli_resonant_solve_linear_matches_minimum_norm_lstsq(tmp_path, capsys):
    # the resonant path through cli.main: f through a CSV, solution.csv read
    # back; measured at most 1.2 of eps*(1 + p_max^2)*max|u|
    rng = np.random.default_rng(2034)
    for N in (128, 256):
        params, grid = _draw_resonant_case(rng, N)
        spec = {"scale": params.sqrt_a, "amplitude": float(rng.standard_normal())}
        f = _without_nyquist_mode(builtin_function("hermite_gaussian", grid, spec).values)
        write_gridfunction_csv(GridFunction(grid, f), tmp_path / "f.csv")
        cfg = {"a": params.a, "h": params.h, "L": grid.L, "N": N, "f": str(tmp_path / "f.csv")}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / f"out{N}"
        assert main(["solve-linear", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["classification"]["kind"] == "Resonant"
        u = read_gridfunction_csv(out / "solution.csv", grid).values
        oracle = np.linalg.lstsq(_dense_operator(grid, params), f, rcond=1e-10)[0]
        tol = 32 * EPS * (1.0 + grid.p_max**2) * np.max(np.abs(oracle))
        assert np.max(np.abs(u - oracle)) <= tol, (params, grid.L)
    capsys.readouterr()


def _circulant(G):
    # C[j, k] = dx*G(x_j - x_k) = dx*G[(j - k + N/2) mod N]: the periodic
    # convolution with G as a dense matrix
    N = G.grid.N
    m = np.subtract.outer(np.arange(N), np.arange(N)) + N // 2
    return G.grid.dx * G.values[m % N]


# at N = 32 the kernels' transforms reach the band edge above 1e-14
@pytest.mark.filterwarnings("ignore:kernel transform has not decayed:RuntimeWarning")
@pytest.mark.parametrize("N", [32, 64, 128, 256])
def test_iterate_fixed_point_matches_dense_picard(N):
    # u <- A^{-1} C F(u) from zero, as many steps as the iteration took,
    # with the README tanh F written out: measured at most 0.62 of
    # eps*(1 + p_max^2)*max|u|
    rng = np.random.default_rng([2031, N])
    offset = {"name": "gaussian", "params": {"sigma": 0.7071067811865476}}
    for _ in range(3):
        params, grid = _draw_case(rng, N)
        kernel = {"amplitude": 0.1, "sigma": rng.uniform(0.7, 1.3), "center": rng.uniform(-1, 1)}
        G = builtin_function("gaussian", grid, {k: float(v) for k, v in kernel.items()})
        F = builtin_nonlinearity("tanh", grid, {"slope": 0.1, "offset": offset})
        result = iterate_fixed_point(G, F, params)
        A, C = _dense_operator(grid, params), _circulant(G)
        r = np.exp(-(grid.x**2) / (2.0 * 0.7071067811865476**2))
        v = np.zeros(N)
        for _ in result.step_norms:
            v = np.linalg.solve(A, C @ (0.1 * np.tanh(v) + r))
        tol = 32 * EPS * (1.0 + grid.p_max**2) * np.max(np.abs(v))
        assert np.max(np.abs(result.u.values - v)) <= tol, (params, grid.L)


def test_cli_solve_nonlinear_matches_dense_picard(tmp_path, capsys):
    # the fixed-point path through cli.main, with builtin G and the README
    # tanh F: as many dense Picard steps as fixed_point.json reports;
    # measured at most 0.47 of eps*(1 + p_max^2)*max|u|
    rng = np.random.default_rng(2035)
    offset = {"name": "gaussian", "params": {"sigma": 0.7071067811865476}}
    for N in (128, 256):
        params, grid = _draw_case(rng, N)
        kernel = {"amplitude": 0.1, "sigma": rng.uniform(0.7, 1.3), "center": rng.uniform(-1, 1)}
        cfg = {
            "a": params.a,
            "h": params.h,
            "L": grid.L,
            "N": N,
            "G": {"name": "gaussian", "params": {k: float(v) for k, v in kernel.items()}},
            "F": {"name": "tanh", "params": {"slope": 0.1, "offset": offset}},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / f"out{N}"
        assert main(["solve-nonlinear", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
        steps = json.loads((out / "fixed_point.json").read_text())["iterations"]
        u = read_gridfunction_csv(out / "solution.csv", grid).values
        G = builtin_function("gaussian", grid, cfg["G"]["params"])
        A, C = _dense_operator(grid, params), _circulant(G)
        r = np.exp(-(grid.x**2) / (2.0 * 0.7071067811865476**2))
        v = np.zeros(N)
        for _ in range(steps):
            v = np.linalg.solve(A, C @ (0.1 * np.tanh(v) + r))
        tol = 32 * EPS * (1.0 + grid.p_max**2) * np.max(np.abs(v))
        assert np.max(np.abs(u - v)) <= tol, (params, grid.L)
    capsys.readouterr()


def _dense_overlap(G, f0, threshold):
    # nontriviality_check's rule on |DFT| from the dense matrix e^{-2 pi i jk/N}
    N = G.grid.N
    W = np.exp(-2j * np.pi * np.outer(np.arange(N), np.arange(N)) / N)
    gh, fh = np.abs(W @ G.values), np.abs(W @ f0)
    if threshold is None:
        thr_g, thr_f = 1e-12 * gh.max(), 1e-12 * fh.max()
    else:
        thr_g = thr_f = threshold * np.sqrt(2.0 * np.pi) / G.grid.dx
    return bool(np.any((gh > thr_g) & (fh > thr_f)))


@pytest.mark.parametrize("N", [32, 64, 128, 256])
def test_nontriviality_check_matches_dense_dft(N):
    rng = np.random.default_rng([2032, N])
    grid = _draw_case(rng, N)[1]
    # overlapping gaussians: G and F(0, .) = r; an explicit threshold
    # between their transform peaks (1 and 2) separates them
    G = builtin_function("gaussian", grid, {"center": float(rng.uniform(-1, 1))})
    r = {"name": "gaussian", "params": {"sigma": 2.0, "center": float(rng.uniform(-1, 1))}}
    F = builtin_nonlinearity("tanh", grid, {"offset": r})
    f0 = builtin_function("gaussian", grid, r["params"]).values
    for threshold, expected in ((None, True), (0.5, True), (1.5, False)):
        assert _dense_overlap(G, f0, threshold) is expected
        assert nontriviality_check(G, F, grid, threshold) is expected
    # disjoint to round-off: cosines of bins 1..3 against bins 5..7
    k = np.arange(1, 4)
    G = GridFunction(grid, np.cos(np.outer(grid.x, k) * grid.dp) @ rng.standard_normal(3))
    c = rng.standard_normal(3)

    def offset(x):
        return np.cos(np.multiply.outer(x, k + 4) * grid.dp) @ c

    F = Nonlinearity(
        eval=lambda u, x: 0.0 * u + offset(x),
        k=0.0,
        envelope=GridFunction(grid, np.abs(offset(grid.x))),
        l=0.0,
    )
    assert _dense_overlap(G, offset(grid.x), None) is False
    assert nontriviality_check(G, F, grid) is False
