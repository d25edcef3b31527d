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

from shiftspec.cli import main
from shiftspec.linear import apply_operator, solve_linear
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
    # S_N(t) = sin(N t/2) / (N tan(t/2)).  Since N t/2 = pi*m - p_max*h for
    # m = j - k, the numerator is -(-1)^m sin(p_max h), with no large argument
    N = grid.N
    m = np.subtract.outer(np.arange(N), np.arange(N))
    half_t = np.pi * m / N - np.pi * h / (2.0 * grid.L)
    return -np.where(m % 2, -1.0, 1.0) * np.sin(grid.p_max * h) / (N * np.tan(half_t))


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
