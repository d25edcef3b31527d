"""Builtin functions, kernels, and nonlinearities for configs and tests.

Every entry documents its exact transform (symmetric 1/sqrt(2*pi)
convention) where one exists, so tests can assert against closed forms.
"""

from __future__ import annotations

import numpy as np

from .nonlinear import Nonlinearity
from .spectral import Grid, GridFunction


def _gaussian(grid, sigma=1.0, center=0.0, amplitude=1.0):
    # transform: amplitude * sigma * e^{-i p center} * e^{-sigma^2 p^2 / 2}
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return GridFunction(grid, amplitude * np.exp(-((grid.x - center) ** 2) / (2.0 * sigma**2)))


def _hermite_gaussian(grid, scale=1.0, amplitude=1.0):
    # amplitude * (scale*x)^2 e^{-(scale*x)^2/2}; transform
    # (amplitude/scale) * (1 - (p/scale)^2) e^{-(p/scale)^2/2},
    # vanishing exactly at p = +-scale.  With scale = sqrt(a) this is the
    # canonical right-hand side satisfying the resonant orthogonality
    # conditions.
    if scale <= 0:
        raise ValueError("scale must be positive")
    s = scale * grid.x
    return GridFunction(grid, amplitude * s**2 * np.exp(-(s**2) / 2.0))


def _sine_packet(grid, freq=1.0, width=1.0, center=0.0, amplitude=1.0):
    # amplitude * sin(freq x) * e^{-(x-center)^2/(2 width^2)}; transform is
    # the odd combination (g_hat(p - freq) - g_hat(p + freq)) / (2i) of the
    # shifted gaussian transforms
    if width <= 0:
        raise ValueError("width must be positive")
    env = np.exp(-((grid.x - center) ** 2) / (2.0 * width**2))
    return GridFunction(grid, amplitude * np.sin(freq * grid.x) * env)


def _zero(grid):
    return GridFunction(grid, np.zeros(grid.N))


_FUNCTIONS = {
    "gaussian": _gaussian,
    "hermite_gaussian": _hermite_gaussian,
    "sine_packet": _sine_packet,
    "zero": _zero,
}


def builtin_function(name: str, grid: Grid, params: dict | None = None) -> GridFunction:
    """Sample a named builtin on the grid.  Unknown names raise KeyError."""
    try:
        factory = _FUNCTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin function {name!r}; available: {sorted(_FUNCTIONS)}"
        ) from None
    return factory(grid, **(params or {}))


def _nl_zero(grid):
    return Nonlinearity(
        eval=lambda u, x: np.zeros_like(u),
        k=0.0,
        envelope=_zero(grid),
        l=0.0,
    )


def _nl_constant(grid, offset=None):
    # F(u, x) = r(x), independent of u: l = 0, k = 0, envelope = |r|
    r = builtin_function(**_function_spec(offset, default={"name": "gaussian"}), grid=grid)
    vals = np.asarray(r.values, dtype=np.float64)
    return Nonlinearity(
        eval=lambda u, x: np.broadcast_to(_sample_on(vals, r.grid, x), np.shape(u)).copy(),
        k=0.0,
        envelope=GridFunction(grid, np.abs(vals)),
        l=0.0,
    )


def _nl_tanh(grid, slope=0.1, offset=None):
    # F(u, x) = slope*tanh(u) + r(x): |tanh(u)| <= |u| and |tanh'| <= 1
    # give k = l = slope; envelope = |r|
    if slope < 0:
        raise ValueError("slope must be nonnegative")
    r = builtin_function(**_function_spec(offset, default={"name": "zero"}), grid=grid)
    vals = np.asarray(r.values, dtype=np.float64)
    return Nonlinearity(
        eval=lambda u, x: slope * np.tanh(u) + _sample_on(vals, r.grid, x),
        k=slope,
        envelope=GridFunction(grid, np.abs(vals)),
        l=slope,
    )


def _sample_on(vals, grid, x):
    # nonlinearity eval receives grid points (possibly a subsample or a
    # meshgrid built from them); map x back to stored sample values.  The
    # fixed-point loop passes the grid's own x, which needs no lookup.
    if x is grid.x:
        return vals
    x = np.asarray(x)
    idx = np.rint((x - grid.x[0]) / grid.dx).astype(int) % grid.N
    if not np.allclose(grid.x[idx], x, rtol=0.0, atol=1e-9 * max(1.0, grid.L)):
        raise ValueError("nonlinearity offset sampled off its grid")
    return vals[idx]


_NONLINEARITIES = {
    "zero": _nl_zero,
    "constant": _nl_constant,
    "tanh": _nl_tanh,
}


def builtin_nonlinearity(name: str, grid: Grid, params: dict | None = None) -> Nonlinearity:
    """Build a named nonlinearity with declared (k, l, envelope)."""
    try:
        factory = _NONLINEARITIES[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin nonlinearity {name!r}; available: {sorted(_NONLINEARITIES)}"
        ) from None
    return factory(grid, **(params or {}))


def _function_spec(spec, default):
    if spec is None:
        spec = default
    if isinstance(spec, str):
        spec = {"name": spec}
    return {"name": spec["name"], "params": spec.get("params")}
