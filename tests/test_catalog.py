import numpy as np
import pytest

from shiftspec.catalog import builtin_function, builtin_nonlinearity
from shiftspec.spectral import evaluate_transform_at, forward_transform, make_grid


@pytest.fixture(scope="module")
def grid():
    return make_grid(40.0, 2048)


def test_gaussian_matches_formula(grid):
    u = builtin_function("gaussian", grid, {"sigma": 1.0})
    assert np.max(np.abs(u.values - np.exp(-grid.x**2 / 2))) == 0
    u2 = builtin_function("gaussian", grid, {"sigma": 2.0, "center": 1.0, "amplitude": 0.5})
    assert np.max(np.abs(u2.values - 0.5 * np.exp(-((grid.x - 1) ** 2) / 8))) == 0


def test_gaussian_analytic_transform(grid):
    # documented transform: amplitude*sigma*e^{-ipc} e^{-sigma^2 p^2/2}
    u = builtin_function("gaussian", grid, {"sigma": 1.5, "center": 0.7, "amplitude": 2.0})
    uh = forward_transform(u)
    exact = 2.0 * 1.5 * np.exp(-1j * grid.p * 0.7) * np.exp(-(1.5**2) * grid.p**2 / 2)
    assert np.max(np.abs(uh.values - exact)) <= 1e-10


def test_hermite_gaussian_orthogonal_at_scale(grid):
    for scale in (1.0, 2.0):
        u = builtin_function("hermite_gaussian", grid, {"scale": scale})
        assert abs(evaluate_transform_at(u, scale)) <= 1e-10
        assert abs(evaluate_transform_at(u, -scale)) <= 1e-10


def test_sine_packet(grid):
    u = builtin_function(
        "sine_packet", grid, {"freq": 2.0, "width": 1.5, "center": 0.5, "amplitude": 1.2}
    )
    exact = 1.2 * np.sin(2.0 * grid.x) * np.exp(-((grid.x - 0.5) ** 2) / (2 * 1.5**2))
    assert np.max(np.abs(u.values - exact)) == 0


def test_zero_builtin(grid):
    u = builtin_function("zero", grid)
    assert np.all(u.values == 0)


def test_unknown_function(grid):
    with pytest.raises(KeyError, match="unknown builtin function"):
        builtin_function("nope", grid)


def test_function_param_validation(grid):
    with pytest.raises(ValueError):
        builtin_function("gaussian", grid, {"sigma": -1.0})
    with pytest.raises(TypeError):
        builtin_function("gaussian", grid, {"sigm": 1.0})
    # a zero width is refused by its own check, not by the NaN it makes
    widths = (("gaussian", "sigma"), ("hermite_gaussian", "scale"), ("sine_packet", "width"))
    for name, key in widths:
        with pytest.raises(ValueError, match=f"{key} must be positive"):
            builtin_function(name, grid, {key: 0.0})


def test_tanh_nonlinearity(grid):
    F = builtin_nonlinearity(
        "tanh",
        grid,
        {"slope": 0.1, "offset": {"name": "gaussian", "params": {"sigma": 0.7071067811865476}}},
    )
    assert F.k == F.l == 0.1
    u = np.linspace(-3, 3, 7)
    x = grid.x[:7]
    out = F.eval(u, x)
    assert np.allclose(out, 0.1 * np.tanh(u) + np.exp(-(x**2) / (2 * 0.7071067811865476**2)))


def test_constant_nonlinearity(grid):
    F = builtin_nonlinearity("constant", grid, {"offset": {"name": "gaussian"}})
    assert F.l == 0 and F.k == 0
    u = np.zeros(4)
    out = F.eval(u, grid.x[:4])
    assert np.allclose(out, np.exp(-grid.x[:4] ** 2 / 2))


@pytest.mark.parametrize("name", ["tanh", "constant"])
def test_offset_on_own_grid_matches_lookup(grid, name):
    # the grid's own x takes the offset's stored samples; a copy of it
    # evaluates the formula, which must give the same bits.  Off the grid
    # eval is the builtin formula slope*tanh(u) + r(x), bit for bit
    offset = {"name": "gaussian", "params": {"center": 0.3}}
    F = builtin_nonlinearity(name, grid, {"offset": offset})
    u = np.random.default_rng(41).standard_normal(grid.N)
    fast, general = F.eval(u, grid.x), F.eval(u, grid.x.copy())
    assert fast.shape == general.shape == (grid.N,)
    assert np.array_equal(fast.view(np.uint64), general.view(np.uint64))
    xo = grid.x + 0.5 * grid.dx
    slope = {"tanh": 0.1, "constant": 0.0}[name]
    formula = slope * np.tanh(u) + 1.0 * np.exp(-((xo - 0.3) ** 2) / (2.0 * 1.0**2))
    assert np.array_equal(F.eval(u, xo).view(np.uint64), formula.view(np.uint64))


def test_zero_nonlinearity(grid):
    F = builtin_nonlinearity("zero", grid)
    assert np.all(F.eval(np.ones(5), grid.x[:5]) == 0)


def test_unknown_nonlinearity(grid):
    with pytest.raises(KeyError, match="unknown builtin nonlinearity"):
        builtin_nonlinearity("nope", grid)
