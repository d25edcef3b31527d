"""The FFT-order core of the solve paths (spectral.dft / idft, the memoized
symbol in FFT order, the folded fixed-point multiplier and the Parseval
weights) against the increasing-order transforms, on seeded random
(a, h, N): non-resonant, near-resonant and resonant-aligned grids, with
N/2 even and odd."""

import numpy as np
import pytest

from shiftspec.kernels import stability_constant
from shiftspec.linear import (
    apply_operator,
    divide_by_symbol,
    project_solvable,
    resonant_aligned_half_length,
    solve_linear,
)
from shiftspec.nonlinear import Nonlinearity, apply_T, iterate_fixed_point
from shiftspec.spectral import (
    SQRT_2PI,
    GridFunction,
    SpectralFunction,
    forward_transform,
    h2_norm,
    inverse_transform,
    l2_norm,
    make_grid,
    second_derivative_norm,
)
from shiftspec.symbols import ShiftParams, classify, inverse_symbol, symbol

EPS = np.finfo(float).eps
KINDS = ("non-resonant", "near-resonant", "resonant-aligned")


def random_cases(seed, count=9):
    """(kind, grid, params) over random (a, h, N), the kinds in turn."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        kind = KINDS[i % 3]
        a = float(rng.uniform(0.4, 2.0))
        N = int(rng.choice([250, 256, 1022, 1024, 4096]))
        L = float(rng.uniform(12.0, 30.0))
        resonance = 2 * np.pi * int(rng.choice([-2, -1, 1, 2])) / np.sqrt(a)
        if kind == "resonant-aligned":
            params = ShiftParams(a, resonance)
            L = resonant_aligned_half_length(a, L)
        elif kind == "near-resonant":
            params = ShiftParams(a, resonance * (1.0 + 10 ** rng.uniform(-3.0, -2.0)))
        else:
            params = ShiftParams(a, float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])))
        assert classify(params).is_resonant == (kind == "resonant-aligned")
        cases.append((kind, make_grid(L, N), params))
    return cases


def smooth(grid, rng, count=3):
    """A sum of random Gaussians: its transform is negligible at the band
    edge, so the Nyquist bin carries nothing."""
    c, s = rng.uniform(-4.0, 4.0, count), rng.uniform(0.8, 2.0, count)
    amp = rng.standard_normal(count)
    return sum(A * np.exp(-((grid.x - ci) ** 2) / (2 * si**2)) for A, ci, si in zip(amp, c, s))


def solvable(grid, params, values):
    f = GridFunction(grid, values)
    return project_solvable(f, params) if classify(params).is_resonant else f


def divide_reference(f, params):
    """The division in increasing-p order, through the public transforms."""
    grid = f.grid
    uh = inverse_symbol(grid.p, params) * forward_transform(f).values
    return inverse_transform(SpectralFunction(grid, uh)).values


def step_reference(v, G, F, params):
    """One fixed-point step sqrt(2*pi) * G_hat * F(v)_hat / lambda in
    increasing-p order: its spectrum and its samples."""
    grid = G.grid
    w = GridFunction(grid, F.eval(v.values, grid.x))
    uh = SQRT_2PI * forward_transform(G).values * forward_transform(w).values
    uh = uh * inverse_symbol(grid.p, params)
    return uh, inverse_transform(SpectralFunction(grid, uh)).values


def tanh_F(grid, slope):
    return Nonlinearity(
        eval=lambda u, x: slope * np.tanh(u) + np.exp(-(x**2)),
        k=slope,
        envelope=GridFunction(grid, np.exp(-grid.x**2)),
        l=slope,
    )


def kernel(grid, params, rng):
    return solvable(grid, params, 0.3 * np.exp(-((grid.x - rng.uniform(-1, 1)) ** 2) / 2))


def full_h2(grid, uh):
    """The full-spectrum H2 norm sqrt(dp * sum (1 + p^4) |u_hat|^2) over
    all N increasing-order bins, the unpaired -p_max bin included."""
    return float(np.sqrt(grid.dp * np.sum((1.0 + grid.p**4) * np.abs(uh) ** 2)))


@pytest.mark.parametrize("seed", [1, 2])
def test_real_and_complex_inputs_agree(seed):
    # a real input takes the half-length path, f + 0j the full one; both
    # agree with the increasing-order division, and the fixed-point step
    # with sqrt(2*pi) * G_hat * F(v)_hat / lambda, to round-off
    rng = np.random.default_rng(20 + seed)
    for kind, grid, params in random_cases(seed):
        f = solvable(grid, params, smooth(grid, rng))
        real = divide_by_symbol(f, params).u
        cplx = divide_by_symbol(GridFunction(grid, f.values + 0j), params).u
        ref = divide_reference(f, params)
        scale = np.max(np.abs(ref))
        assert real.is_real and not cplx.is_real, kind
        assert np.max(np.abs(real.values - cplx.values)) <= 64 * EPS * scale, kind
        assert np.max(np.abs(real.values - ref)) <= 64 * EPS * scale, kind

        G = kernel(grid, params, rng)
        F = tanh_F(grid, 0.1)
        v = GridFunction(grid, smooth(grid, rng))
        ref = step_reference(v, G, F, params)[1]
        scale = np.max(np.abs(ref))
        real = apply_T(v, G, F, params)
        cplx = apply_T(v, GridFunction(grid, G.values + 0j), F, params)
        assert real.is_real and not cplx.is_real, kind
        assert np.max(np.abs(real.values - cplx.values)) <= 64 * EPS * scale, kind
        assert np.max(np.abs(real.values - ref)) <= 64 * EPS * scale, kind


@pytest.mark.parametrize("seed", [3, 4])
def test_operator_inverts_the_division_off_resonance(seed):
    # apply_operator(divide_by_symbol(f).u) = f, and the division recovers
    # a manufactured u* from f = L u* formed in increasing-p order, for
    # real and complex data, to the conditioning of the symbol
    rng = np.random.default_rng(30 + seed)
    for kind, grid, params in random_cases(seed):
        if kind == "resonant-aligned":
            continue
        lam = np.abs(symbol(grid.p, params))
        floor = 4 * EPS * lam.max() / lam.min()
        for values in (smooth(grid, rng), smooth(grid, rng) + 1j * smooth(grid, rng)):
            u_star = GridFunction(grid, values)
            f_hat = symbol(grid.p, params) * forward_transform(u_star).values
            f = inverse_transform(SpectralFunction(grid, f_hat))
            f = GridFunction(grid, f.values.real if u_star.is_real else f.values)
            u = divide_by_symbol(f, params).u
            assert l2_norm(apply_operator(u, params) - f) <= floor * l2_norm(f), kind
            assert l2_norm(u - u_star) <= floor * l2_norm(u_star), kind


@pytest.mark.parametrize("seed", [5, 6])
def test_half_spectrum_norms_match_full_spectrum(seed):
    # white noise puts weight on every bin, the Nyquist bin included: the
    # half-spectrum Parseval sums (paired bins twice, bins 0 and N/2 once,
    # the Nyquist bin with its imaginary part) equal the full-spectrum
    # formula of the same spectra
    rng = np.random.default_rng(40 + seed)
    for kind, grid, params in random_cases(seed):
        noise = GridFunction(grid, rng.standard_normal(grid.N))
        uh = forward_transform(noise).values
        d2 = float(np.sqrt(grid.dp * np.sum(grid.p**4 * np.abs(uh) ** 2)))
        assert abs(second_derivative_norm(noise) - d2) <= 1e-13 * d2, kind
        assert abs(h2_norm(noise) - full_h2(grid, uh)) <= 1e-13 * full_h2(grid, uh), kind

        # solve_linear's H2 norm is that of the division's spectrum, whose
        # Nyquist bin has an imaginary part (1/lambda is complex there)
        f = solvable(grid, params, rng.standard_normal(grid.N))
        want = full_h2(grid, inverse_symbol(grid.p, params) * forward_transform(f).values)
        assert abs(solve_linear(f, params).h2_norm_u - want) <= 1e-12 * want, kind

        # and so is the fixed-point step norm, from a noisy v0
        G = kernel(grid, params, rng)
        F = tanh_F(grid, 0.25 / (np.sqrt(np.pi) * stability_constant(G, params).N))
        v0 = GridFunction(grid, rng.standard_normal(grid.N))
        uh = step_reference(v0, G, F, params)[0]
        want = full_h2(grid, uh - forward_transform(v0).values)
        first = iterate_fixed_point(G, F, params, v0=v0, max_iter=1, tol_h2=1e300)
        assert abs(first.step_norms[0] - want) <= 1e-12 * want, kind
