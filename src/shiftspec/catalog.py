"""Builtin functions, kernels, and nonlinearities for configs and tests.

Every function builtin is a formula in x, sampled on a grid's points by
:func:`builtin_function`.  Every entry documents its exact transform
(symmetric 1/sqrt(2*pi) convention) where one exists, so tests can assert
against closed forms.
"""

from __future__ import annotations

import inspect

import numpy as np

from .nonlinear import Nonlinearity
from .spectral import Grid, GridFunction


def _gaussian(x, sigma=1.0, center=0.0, amplitude=1.0):
    # transform: amplitude * sigma * e^{-i p center} * e^{-sigma^2 p^2 / 2}
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return amplitude * np.exp(-((x - center) ** 2) / (2.0 * sigma**2))


def _hermite_gaussian(x, scale=1.0, amplitude=1.0):
    # amplitude * (scale*x)^2 e^{-(scale*x)^2/2}; transform
    # (amplitude/scale) * (1 - (p/scale)^2) e^{-(p/scale)^2/2},
    # vanishing exactly at p = +-scale.  With scale = sqrt(a) this is the
    # canonical right-hand side satisfying the resonant orthogonality
    # conditions.
    if scale <= 0:
        raise ValueError("scale must be positive")
    s = scale * x
    return amplitude * s**2 * np.exp(-(s**2) / 2.0)


def _sine_packet(x, freq=1.0, width=1.0, center=0.0, amplitude=1.0):
    # amplitude * sin(freq x) * e^{-(x-center)^2/(2 width^2)}; transform is
    # the odd combination (g_hat(p - freq) - g_hat(p + freq)) / (2i) of the
    # shifted gaussian transforms
    if width <= 0:
        raise ValueError("width must be positive")
    env = np.exp(-((x - center) ** 2) / (2.0 * width**2))
    return amplitude * np.sin(freq * x) * env


def _zero(x):
    return np.zeros(np.shape(x))


_FUNCTIONS = {
    "gaussian": _gaussian,
    "hermite_gaussian": _hermite_gaussian,
    "sine_packet": _sine_packet,
    "zero": _zero,
}


def _formula(name: str, params: dict | None):
    """The builtin ``name`` as a formula x -> samples, bound to a copy of
    ``params``.  Unknown names raise KeyError."""
    try:
        factory = _FUNCTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin function {name!r}; available: {sorted(_FUNCTIONS)}"
        ) from None
    params = dict(params or {})
    return lambda x: factory(x, **params)


def builtin_function(name: str, grid: Grid, params: dict | None = None) -> GridFunction:
    """Sample a named builtin on the grid.  Unknown names raise KeyError."""
    return GridFunction(grid, _formula(name, params)(grid.x))


def _tanh_plus_offset(grid, slope, offset):
    # F(u, x) = slope*tanh(u) + r(x): |tanh(u)| <= |u| and |tanh'| <= 1
    # give k = l = slope; envelope = |r|.  r is its formula at any x; the
    # fixed-point loop passes the grid's own x, which takes r's samples.
    if slope < 0:
        raise ValueError("slope must be nonnegative")
    spec = {"name": offset} if isinstance(offset, str) else offset
    r = _formula(spec["name"], spec.get("params"))
    vals = GridFunction(grid, r(grid.x)).values
    return Nonlinearity(
        eval=lambda u, x: slope * np.tanh(u) + (vals if x is grid.x else r(x)),
        k=slope,
        envelope=GridFunction(grid, np.abs(vals)),
        l=slope,
    )


def _nl_zero(grid):
    return _tanh_plus_offset(grid, 0.0, "zero")


def _nl_constant(grid, offset="gaussian"):
    # F(u, x) = r(x), independent of u
    return _tanh_plus_offset(grid, 0.0, offset)


def _nl_tanh(grid, slope=0.1, offset="zero"):
    return _tanh_plus_offset(grid, slope, offset)


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


def builtin_parameters(kind: str) -> dict[str, tuple[str, ...]]:
    """The keyword parameters of each builtin "function" or "nonlinearity"."""
    factories = _FUNCTIONS if kind == "function" else _NONLINEARITIES
    return {name: tuple(inspect.signature(f).parameters)[1:] for name, f in factories.items()}
