import csv
import dataclasses
import json
import re
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from shiftspec import spectral, textio
from shiftspec.linear import resonant_aligned_half_length
from shiftspec.nonlinear import convolve
from shiftspec.spectral import (
    SQRT_2PI,
    Grid,
    GridFunction,
    SpectralFunction,
    dft,
    evaluate_transform_at,
    forward_transform,
    grid_spacing,
    h2_norm,
    inverse_transform,
    l1_norm,
    l2_norm,
    l2_norm_spectral,
    make_grid,
    read_gridfunction_csv,
    second_derivative,
    shift,
    sup_abs_spectral,
    transform_at_pm,
    weighted_l1_norm,
    write_gridfunction_csv,
)

EPS = np.finfo(float).eps
H2_SQ_GAUSSIAN = 7.0 * np.sqrt(np.pi) / 4.0  # ||u||^2 + ||u''||^2 for e^{-x^2/2}


def gaussian_on(grid):
    return GridFunction(grid, np.exp(-grid.x**2 / 2))


def dense_transform(u, p):
    """Reference for evaluate_transform_at: the trapezoidal sum as one
    dense (P, N) phase matrix, O(P*N) time and memory."""
    phases = np.exp(-1j * np.outer(np.atleast_1d(p), u.grid.x))
    return (u.grid.dx / SQRT_2PI) * (phases @ u.values)


def random_packet(g, complex_input, seed):
    rng = np.random.default_rng(seed)
    vals = np.exp(-g.x**2 / 2) * rng.standard_normal(g.N)
    if complex_input:
        vals = vals + 1j * np.exp(-((g.x - 1) ** 2)) * rng.standard_normal(g.N)
    return GridFunction(g, vals)


def random_resolvable(grid, rng, fill=0.75):
    """Random real function with spectrum confined to the inner band;
    shift and differentiation are exact for such data."""
    half = grid.N // 2
    coeff = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    vals = np.zeros(grid.N, dtype=complex)
    vals[half] = coeff[half].real
    vals[half + 1 :] = coeff[half + 1 :]
    vals[1:half] = np.conj(coeff[half + 1 :][::-1])  # u_hat(-p) = conj(u_hat(p))
    vals[np.abs(grid.p) > fill * grid.p_max] = 0.0
    u = inverse_transform(SpectralFunction(grid, vals))
    return GridFunction(grid, u.values.real)


def test_make_grid_basic():
    g = make_grid(np.pi, 8)
    assert g.dx == pytest.approx(np.pi / 4)
    assert g.dp == pytest.approx(1.0)
    g2 = make_grid(40.0, 4096)
    assert g2.dx == 80.0 / 4096 == 0.01953125


def test_make_grid_exact_relation():
    for L, N in [(np.pi, 8), (40.0, 4096), (17.3, 122)]:
        g = make_grid(L, N)
        assert g.dx * g.N == pytest.approx(2 * L, rel=1e-16)


def test_grid_frequencies_increasing_with_unpaired_endpoint():
    g = make_grid(13.0, 64)
    assert np.all(np.diff(g.p) > 0)
    assert g.p[0] == pytest.approx(-64 * np.pi / (2 * 13.0))
    # every positive frequency has its negative twin except the endpoint
    assert np.allclose(g.p[1:], -g.p[1:][::-1])


@pytest.mark.parametrize(
    "L,N",
    # dx or p_max^4 not finite: 2L overflows, or (pi/dx)^4 does (at N = 64,
    # below L ~ 8.7e-76), or dx underflows to 0
    [(1.0, 7), (1.0, 6), (1.0, 9), (0.0, 8), (-2.0, 8), (1e308, 64), (1e-76, 64), (5e-324, 8)],
)
def test_make_grid_rejects(L, N):
    with pytest.raises(ValueError):
        make_grid(L, N)


def test_grid_spacing_owns_the_rule_for_N():
    # Grid, make_grid and the CLI leave the check of N to grid_spacing
    for N in (7, 6, 9, 8.5, 0, -8, 2**24 + 2):
        message = re.escape(f"N must be an even integer in [8, 2**24], got {N}")
        with pytest.raises(ValueError, match=message):
            grid_spacing(1.0, N)
        with pytest.raises(ValueError, match=message):
            make_grid(1.0, N)
    assert grid_spacing(1.0, 8) == 0.25 and Grid(1.0, 8.0).N == 8


def test_from_json_passes_N_as_given():
    # no int() truncates N on the way to grid_spacing
    with pytest.raises(ValueError, match=re.escape("[8, 2**24], got 8.9")):
        Grid.from_json('{"L": 1, "N": 8.9}')
    assert Grid.from_json(make_grid(2.5, 16).to_json()) == make_grid(2.5, 16)


def test_every_grid_builder_refuses_N_above_2_24_before_allocating(monkeypatch, tmp_path):
    # grid_spacing bounds N for every caller, not only parse_config: a
    # 2**25-point grid would allocate 768 MB of x, p and sign
    def refuse(*args, **kwargs):
        raise AssertionError("allocation attempted")

    big = 2**24 + 2
    # a CSV of big rows, as the reader would return its columns
    columns = [np.broadcast_to(v, (big,)) for v in (-1.0, 0.0, 0.0)]
    monkeypatch.setattr(spectral, "read_float_rows", lambda path, header: columns)
    monkeypatch.setattr(np, "arange", refuse)
    builders = (
        lambda: make_grid(1.0, big),
        lambda: Grid(1.0, big),
        lambda: Grid.from_json(json.dumps({"L": 1.0, "N": big})),
        lambda: read_gridfunction_csv(tmp_path / "big.csv"),
    )
    for build in builders:
        with pytest.raises(ValueError, match=re.escape(f"[8, 2**24], got {big}")):
            build()


def test_grid_spacing_names_the_rule_that_fails():
    # the sign of L is checked before the range of dx and p_max^4
    for L in (0.0, -2.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="half-length L must be positive"):
            grid_spacing(L, 8)
    with pytest.raises(ValueError, match="out of range for N = 64"):
        grid_spacing(1e-76, 64)


def test_gridfunction_arithmetic_acts_on_the_samples():
    g = make_grid(5.0, 16)
    u = GridFunction(g, np.exp(-g.x**2))
    w = GridFunction(g, np.sin(g.x) + 1j * g.x)
    for got, want in (
        (u + w, u.values + w.values),
        (u - w, u.values - w.values),
        (w - u, w.values - u.values),
        (2.5 * w, 2.5 * w.values),
        (u * -3.0, -3.0 * u.values),
        (-w, -w.values),
    ):
        assert got.grid == g and np.array_equal(got.values, want)
    with pytest.raises(ValueError, match="grid mismatch"):
        u + GridFunction(make_grid(5.0, 32), np.zeros(32))


def test_gridfunction_rejects_nan_and_wrong_length():
    g = make_grid(1.0, 8)
    with pytest.raises(ValueError):
        GridFunction(g, np.array([np.nan] * 8))
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(9))


def test_spectrum_is_read_only_taken_once_and_not_inherited(fft_calls):
    # dft(values) bit for bit, half layout for a real function and full for
    # a complex one; one transform over two reads; a function made by
    # arithmetic is new and takes its own
    g = make_grid(20.0, 64)
    u = GridFunction(g, np.exp(-g.x**2))
    w = GridFunction(g, u.values * np.exp(1j * g.x))
    s = u.spectrum
    assert u.spectrum is s and w.spectrum is w.spectrum
    assert fft_calls == [("rfft", 64), ("fft", 64)]
    assert s.shape == (33,) and w.spectrum.shape == (64,)
    assert np.array_equal(s, dft(u.values)) and np.array_equal(w.spectrum, dft(w.values))
    with pytest.raises(ValueError):
        s[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.spectrum = s
    for v in (u + u, 2.0 * u, -u, u - u):
        assert "spectrum" not in vars(v)
        assert np.array_equal(v.spectrum, dft(v.values))


def test_gaussian_self_transform():
    g = make_grid(40.0, 4096)
    uh = forward_transform(gaussian_on(g))
    assert np.max(np.abs(uh.values - np.exp(-g.p**2 / 2))) <= 1e-10


def test_zero_transform():
    g = make_grid(10.0, 64)
    uh = forward_transform(GridFunction(g, np.zeros(64)))
    assert np.all(uh.values == 0)
    u = inverse_transform(SpectralFunction(g, np.zeros(64)))
    assert np.all(u.values == 0)


def test_hermite_gaussian_transform():
    # symbolic oracle: F[x^2 e^{-x^2/2}] = (1 - p^2) e^{-p^2/2}
    g = make_grid(40.0, 4096)
    u = GridFunction(g, g.x**2 * np.exp(-g.x**2 / 2))
    uh = forward_transform(u)
    assert np.max(np.abs(uh.values - (1 - g.p**2) * np.exp(-g.p**2 / 2))) <= 1e-10


def test_inverse_gaussian_pair():
    g = make_grid(40.0, 2048)
    uh = SpectralFunction(g, np.exp(-g.p**2 / 2))
    u = inverse_transform(uh)
    assert np.max(np.abs(u.values - np.exp(-g.x**2 / 2))) <= 1e-10


@pytest.mark.parametrize("N", [8, 64, 1024, 4096])
def test_round_trip_random(N):
    rng = np.random.default_rng(42 + N)
    g = make_grid(11.0, N)
    u = GridFunction(g, rng.standard_normal(N))
    back = inverse_transform(forward_transform(u))
    assert np.max(np.abs(back.values - u.values)) <= 1e-12 * max(1.0, l2_norm(u))


@pytest.mark.parametrize("N", [16, 256, 4096])
def test_parseval(N):
    rng = np.random.default_rng(7 + N)
    g = make_grid(9.0, N)
    u = GridFunction(g, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    assert l2_norm_spectral(forward_transform(u)) == pytest.approx(l2_norm(u), rel=1e-12)


def test_evaluate_transform_matches_forward_on_grid():
    rng = np.random.default_rng(3)
    g = make_grid(8.0, 128)
    u = GridFunction(g, rng.standard_normal(128))
    uh = forward_transform(u)
    direct = evaluate_transform_at(u, g.p)
    assert np.max(np.abs(direct - uh.values)) <= 1e-10


@pytest.mark.parametrize("N", [8, 64, 4096, 1000])
@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("e_min", [0.0, 1e-4])
def test_transform_on_progression_matches_dense(N, complex_input, e_min):
    # the refinement progressions of stability_constant: blocks leaving
    # +-1 on either side, from an offset e_min (resonant case) to one grid
    # step, and a block that runs past the band edge.  N = 1000 is no
    # multiple of the row length, so the last row is zero-padded
    g = make_grid(2.0 if N == 8 else 12.0, N)
    u = random_packet(g, complex_input, N)
    step = (g.dp - e_min) / 64
    starts = np.array([1 + e_min, 1 - e_min, -1 + e_min, -1 - e_min, g.p_max - 0.5 * g.dp])
    steps = np.array([step, -step, step, -step, step])
    p = starts[:, None] + steps[:, None] * np.arange(65)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fast = evaluate_transform_at(u, p)
    assert fast.shape == (5 * 65,)
    assert np.max(np.abs(fast - dense_transform(u, p.ravel()))) <= 1e-12 * l1_norm(u) / SQRT_2PI


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double"
)
@pytest.mark.parametrize("N", [1000, 4096])
@pytest.mark.parametrize("complex_input", [False, True])
def test_evaluate_transform_at_accuracy_near_sqrt_a(N, complex_input):
    # the stability constant's samples within one bin of +-1, against the
    # sum over x_j = (j - N/2)*dx in long double: within 5e-16 of the
    # scale dx*sum|u_j|/sqrt(2*pi).  The dense phase matrix, whose
    # x_j = -L + j*dx carry a rounding of order eps*L, is off by 1.7e-15
    # at N = 1000
    g = make_grid(100.0, N)
    u = random_packet(g, complex_input, N)
    p = np.concatenate([1.0 + g.dp * np.arange(33) / 32, -1.0 - g.dp * np.arange(33) / 32])
    x = (np.arange(N) - N // 2).astype(np.longdouble) * np.longdouble(g.dx)
    theta = p.astype(np.longdouble)[:, None] * x
    re, im = u.values.real.astype(np.longdouble), u.values.imag.astype(np.longdouble)
    w = np.longdouble(g.dx) / np.sqrt(2 * np.longdouble(np.pi))
    ref_re = w * (np.cos(theta) @ re + np.sin(theta) @ im)
    ref_im = w * (np.cos(theta) @ im - np.sin(theta) @ re)
    ref = ref_re.astype(np.float64) + 1j * ref_im.astype(np.float64)
    err = np.max(np.abs(evaluate_transform_at(u, p) - ref))
    assert err <= 5e-16 * l1_norm(u) / SQRT_2PI


def test_evaluate_transform_at_scalar_and_beyond_band():
    g = make_grid(12.0, 64)
    u = random_packet(g, True, 3)
    value = evaluate_transform_at(u, 0.37)
    assert isinstance(value, complex)
    assert value == evaluate_transform_at(u, np.array([0.37]))[0]
    assert abs(value - dense_transform(u, 0.37)[0]) <= 1e-13 * l1_norm(u) / SQRT_2PI
    # beyond the band: still the trapezoidal sum, which aliases there
    p = np.array([1.5, -2.5, 7.0]) * g.p_max
    with pytest.warns(RuntimeWarning, match="resolvable band"):
        beyond = evaluate_transform_at(u, p)
    assert np.max(np.abs(beyond - dense_transform(u, p))) <= 1e-13 * l1_norm(u) / SQRT_2PI


@pytest.mark.parametrize("complex_input", [False, True])
def test_evaluate_transform_at_warm_grid_matches_fresh_bitwise(complex_input):
    g = make_grid(12.0, 1000)
    u = random_packet(g, complex_input, 11)
    p = np.linspace(-3.0, 3.0, 50) + 0.01
    cold = evaluate_transform_at(u, p)
    warm = evaluate_transform_at(u, p)
    fresh = evaluate_transform_at(GridFunction(make_grid(12.0, 1000), u.values), p)
    # another function on the warm grid, against its own fresh grid
    v = random_packet(g, not complex_input, 12)
    other = evaluate_transform_at(v, p)
    other_fresh = evaluate_transform_at(GridFunction(make_grid(12.0, 1000), v.values), p)
    assert cold.tobytes() == warm.tobytes() == fresh.tobytes()
    assert other.tobytes() == other_fresh.tobytes()


def test_evaluate_transform_gaussian_values():
    g = make_grid(40.0, 4096)
    u = gaussian_on(g)
    assert evaluate_transform_at(u, 1.0) == pytest.approx(np.exp(-0.5), abs=1e-12)
    herm = GridFunction(g, g.x**2 * np.exp(-g.x**2 / 2))
    assert abs(evaluate_transform_at(herm, 1.0)) <= 1e-10
    zero = GridFunction(g, np.zeros(g.N))
    assert evaluate_transform_at(zero, 0.731) == 0
    # a subnormal sample counts as zero; the smallest normal one does not
    tiny = np.finfo(np.float64).tiny
    for sample, counted in ((tiny / 2, False), (tiny, True)):
        v = np.zeros(g.N)
        v[g.N // 2] = sample
        assert (evaluate_transform_at(GridFunction(g, v), 0.0) != 0) is counted


def test_evaluate_transform_warns_beyond_band():
    g = make_grid(10.0, 32)
    u = gaussian_on(g)
    with pytest.warns(RuntimeWarning):
        evaluate_transform_at(u, 2 * g.p_max)
    # the band includes its edge, with a relative slack of 1e-12
    edge = g.p_max * (1.0 + 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate_transform_at(u, [edge, -edge])
    with pytest.warns(RuntimeWarning):
        evaluate_transform_at(u, np.nextafter(edge, np.inf))


@pytest.mark.parametrize("complex_input", [False, True])
def test_transform_at_pm_matches_evaluate_transform_at(complex_input):
    rng = np.random.default_rng(31)
    g = make_grid(15.0, 512)
    vals = rng.standard_normal(g.N) * np.exp(-g.x**2 / 8)
    if complex_input:
        vals = vals + 1j * rng.standard_normal(g.N) * np.exp(-g.x**2 / 8)
    u = GridFunction(g, vals)
    floor = 1e-14 * l1_norm(u) / SQRT_2PI
    for r in rng.uniform(0.0, g.p_max, 5):
        plus, minus = transform_at_pm(u, r)
        assert abs(plus - evaluate_transform_at(u, r)) <= floor
        assert abs(minus - evaluate_transform_at(u, -r)) <= floor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        transform_at_pm(u, g.p_max)
    with pytest.warns(RuntimeWarning, match="resolvable band"):
        pair = transform_at_pm(u, 2 * g.p_max)
    with pytest.warns(RuntimeWarning, match="resolvable band"):
        ref = evaluate_transform_at(u, np.array([2 * g.p_max, -2 * g.p_max]))
    assert np.max(np.abs(np.array(pair) - ref)) <= floor


def reference_forward(u):
    """The increasing-p transform written out with fftshift:
    (dx/sqrt(2*pi)) * sign * fftshift(fft(u))."""
    g = u.grid
    return (g.dx / SQRT_2PI) * g.sign * np.fft.fftshift(np.fft.fft(u.values))


def reference_inverse(vals, grid):
    """Inverse of reference_forward: (dp*N/sqrt(2*pi)) * ifft(ifftshift(sign * vals))."""
    return (grid.dp * grid.N / SQRT_2PI) * np.fft.ifft(np.fft.ifftshift(grid.sign * vals))


# N/2 odd and even
VIEW_SIZES = [64, 66, 4096, 4098]


@pytest.mark.parametrize("N", VIEW_SIZES)
@pytest.mark.parametrize("complex_input", [False, True])
def test_transforms_are_the_fftshift_formulas_bit_for_bit(N, complex_input):
    g = make_grid(17.0, N)
    u = random_packet(g, complex_input, seed=N)
    uh = forward_transform(u)
    assert np.array_equal(uh.values, reference_forward(u))
    assert np.array_equal(inverse_transform(uh).values, reference_inverse(uh.values, g))


@pytest.mark.parametrize("N", VIEW_SIZES)
@pytest.mark.parametrize("complex_input", [False, True])
def test_multipliers_match_the_fftshift_formulas(N, complex_input):
    # shift, second_derivative and convolve against the same products
    # formed in increasing-p order; real in, real out, which drops the
    # imaginary part the Nyquist bin gives the full inverse
    g = make_grid(17.0, N)
    u = random_packet(g, complex_input, seed=N + 1)
    G = GridFunction(g, 0.3 * np.exp(-((g.x - 0.5) ** 2)))
    uh = reference_forward(u)
    cases = [
        (shift(u, 0.7), uh * np.exp(-1j * g.p * 0.7), 1.0),
        (second_derivative(u), -(g.p**2) * uh, g.p_max**2),
        (convolve(G, u), SQRT_2PI * reference_forward(G) * uh, 1.0),
        (convolve(u, G), SQRT_2PI * uh * reference_forward(G), 1.0),
    ]
    scale = np.max(np.abs(u.values))
    for got, product, weight in cases:
        ref = reference_inverse(product, g)
        ref = ref if complex_input else ref.real
        assert got.is_real == (not complex_input)
        assert np.max(np.abs(got.values - ref)) <= 8 * EPS * weight * scale


def test_multipliers_take_one_transform_and_one_inverse(fft_calls):
    # from the cached spectrum: half-length for real data, full-length
    # for complex data; the increasing-p view takes full-length ones and
    # leaves the spectrum untaken
    g = make_grid(20.0, 64)
    for op in (lambda u: shift(u, 0.3), second_derivative):
        u = GridFunction(g, np.exp(-g.x**2))
        op(u)
        assert fft_calls == [("rfft", 64), ("irfft", 64)]
        fft_calls.clear()
        op(u)
        assert fft_calls == [("irfft", 64)]
        fft_calls.clear()
        op(GridFunction(g, u.values + 0j))
        assert fft_calls == [("fft", 64), ("ifft", 64)]
        fft_calls.clear()
    G, w = GridFunction(g, np.exp(-g.x**2)), GridFunction(g, np.exp(-((g.x - 1) ** 2)))
    convolve(G, w)
    assert sorted(fft_calls) == [("irfft", 64), ("rfft", 64), ("rfft", 64)]
    fft_calls.clear()
    convolve(G, GridFunction(g, w.values * 1j))
    assert sorted(fft_calls) == [("fft", 64), ("fft", 64), ("ifft", 64)]
    fft_calls.clear()
    u = GridFunction(g, np.exp(-g.x**2))
    inverse_transform(forward_transform(u))
    assert fft_calls == [("fft", 64), ("ifft", 64)]
    assert "spectrum" not in vars(u)


def test_shift_sine_exact():
    g = make_grid(np.pi, 32)
    u = GridFunction(g, np.sin(g.x))
    for h in (0.3, 1.7, -2.2):
        shifted = shift(u, h)
        assert np.max(np.abs(shifted.values - np.sin(g.x - h))) <= 1e-12


def test_shift_identity_and_inverse():
    rng = np.random.default_rng(11)
    g = make_grid(12.0, 256)
    u = random_resolvable(g, rng)
    assert np.max(np.abs(shift(u, 0.0).values - u.values)) <= 1e-13 * max(1.0, l2_norm(u))
    back = shift(shift(u, 1.234), -1.234)
    assert np.max(np.abs(back.values - u.values)) <= 1e-12 * max(1.0, l2_norm(u))


def test_shift_unitary():
    g = make_grid(20.0, 512)
    u = GridFunction(g, np.exp(-g.x**2))
    assert l2_norm(shift(u, 1.7)) == pytest.approx(l2_norm(u), rel=1e-12)


def test_second_derivative_gaussian():
    g = make_grid(40.0, 2048)
    u = gaussian_on(g)
    d2 = second_derivative(u)
    exact = (g.x**2 - 1) * np.exp(-g.x**2 / 2)
    assert np.max(np.abs(d2.values - exact)) <= 1e-10


def test_norms_zero():
    g = make_grid(5.0, 16)
    z = GridFunction(g, np.zeros(16))
    assert h2_norm(z) == 0
    assert l1_norm(z) == 0
    assert weighted_l1_norm(z) == 0


def test_h2_norm_gaussian():
    # symbolic oracle: int (x^2-1)^2 e^{-x^2} dx = (3/4) sqrt(pi), so
    # the squared norm is sqrt(pi) + (3/4) sqrt(pi) = (7/4) sqrt(pi)
    g = make_grid(40.0, 4096)
    assert h2_norm(gaussian_on(g)) ** 2 == pytest.approx(H2_SQ_GAUSSIAN, rel=1e-12)


@pytest.mark.parametrize("complex_input", [False, True])
def test_h2_norm_matches_fft_formula(complex_input):
    # Parseval on one forward transform against the L2 norm of the
    # FFT-based second derivative, to the eps*(1+p_max^2) round-off floor
    rng = np.random.default_rng(37)
    for L, N in [(15.0, 512), (40.0, 4096)]:
        g = make_grid(L, N)
        vals = rng.standard_normal(N) * np.exp(-g.x**2 / 8)
        if complex_input:
            vals = vals + 1j * rng.standard_normal(N) * np.exp(-g.x**2 / 8)
        u = GridFunction(g, vals)
        direct = np.sqrt(l2_norm(u) ** 2 + l2_norm(second_derivative(u)) ** 2)
        h2 = h2_norm(u)
        assert abs(h2 - direct) <= np.finfo(float).eps * (1.0 + g.p_max**2) * h2


def test_weighted_l1_gaussian():
    # symbolic oracle: int |x| e^{-x^2/2} dx = 2; the |x| kink limits the
    # trapezoid rule to O(dx^2) accuracy
    g = make_grid(40.0, 4096)
    assert weighted_l1_norm(gaussian_on(g)) == pytest.approx(2.0, rel=1e-3)


def test_transform_sup_bounded_by_l1():
    rng = np.random.default_rng(19)
    g = make_grid(15.0, 512)
    for _ in range(20):
        u = GridFunction(g, rng.standard_normal(512) * np.exp(-g.x**2 / 8))
        assert sup_abs_spectral(forward_transform(u)) <= l1_norm(u) / SQRT_2PI + 1e-12


def test_gridfunction_csv_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    g = make_grid(7.5, 64)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    vals[3] = complex(-0.0, 1.5)
    u = GridFunction(g, vals)
    path = tmp_path / "u.csv"
    write_gridfunction_csv(u, path)
    back = read_gridfunction_csv(path)
    assert back.grid == g
    assert np.array_equal(back.values, u.values)  # 17 digits round-trips exactly
    assert np.signbit(back.values[3].real)
    header = path.read_text().splitlines()[0]
    assert header == "x,re,im"


def test_gridfunction_csv_real_round_trip(tmp_path):
    g = make_grid(7.5, 64)
    u = gaussian_on(g)
    path = tmp_path / "u.csv"
    write_gridfunction_csv(u, path)
    back = read_gridfunction_csv(path, g)
    assert back.is_real
    assert np.array_equal(back.values, u.values)


def test_gridfunction_csv_reads_lf_repr_rows(tmp_path):
    g = make_grid(7.5, 64)
    u = gaussian_on(g)
    path = tmp_path / "u.csv"
    rows = [f"{xj!r},{vj!r},0.0" for xj, vj in zip(g.x.tolist(), u.values.tolist())]
    path.write_text("\n".join(["x, re, im"] + rows) + "\n", newline="")
    back = read_gridfunction_csv(path)
    assert back.grid == g and back.is_real
    assert np.array_equal(back.values, u.values)


def test_gridfunction_csv_x_column_tolerance_scales_with_L(tmp_path):
    # x may be off the grid by up to 1e-9*max(1, L): 4e-8 at L = 40
    g = make_grid(40.0, 64)
    path = tmp_path / "u.csv"
    for offset, accepted in ((3e-8, True), (6e-8, False)):
        rows = [f"{xj + offset!r},{vj!r},0" for xj, vj in zip(g.x.tolist(), np.cos(g.x).tolist())]
        path.write_text("\n".join(["x,re,im"] + rows) + "\n")
        if accepted:
            assert np.array_equal(read_gridfunction_csv(path, g).values, np.cos(g.x))
        else:
            with pytest.raises(ValueError, match="x column does not match"):
                read_gridfunction_csv(path, g)


@pytest.mark.parametrize(
    "edit",
    [lambda f: f[:2], lambda f: f + [b"0"], lambda f: f[:2] + [b""]],
    ids=["2-fields", "4-fields", "empty-field"],
)
@pytest.mark.parametrize("where", [0, 5])
def test_gridfunction_csv_rejects_malformed_rows(tmp_path, edit, where):
    # 2 fields, 4 fields, an empty field; the x column stays on the grid
    g = make_grid(7.5, 64)
    path = tmp_path / "u.csv"
    write_gridfunction_csv(gaussian_on(g), path)
    lines = path.read_bytes().split(b"\r\n")
    lines[1 + where] = b",".join(edit(lines[1 + where].split(b",")))
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ValueError):
        read_gridfunction_csv(path)


@pytest.mark.parametrize("fields", [2, 4])
def test_gridfunction_csv_rejects_wrong_field_count_on_every_row(tmp_path, fields):
    g = make_grid(7.5, 64)
    path = tmp_path / "u.csv"
    rows = [",".join([repr(xj)] + ["0.5"] * (fields - 1)) for xj in g.x.tolist()]
    path.write_text("\n".join(["x,re,im"] + rows) + "\n")
    with pytest.raises(ValueError, match=f"expected 3 fields per row, got {fields}"):
        read_gridfunction_csv(path)


def test_gridfunction_csv_rejects_bad_header_and_empty_body(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("x,re,imag\r\n0.0,1.0,0.0\r\n", newline="")
    with pytest.raises(ValueError, match="expected header"):
        read_gridfunction_csv(path)
    path.write_text("x,re,im\r\n", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty CSV"):
            read_gridfunction_csv(path)


# N=64 fits one block; the other N spans more than two blocks and ends
# in a partial one
_MULTI_BLOCK_N = 2 * textio._CSV_BLOCK_ROWS + textio._CSV_BLOCK_ROWS // 2 + 6


@pytest.mark.parametrize(
    "N, kind",
    [
        pytest.param(64, "real", id="real"),
        pytest.param(64, "complex", id="complex"),
        pytest.param(_MULTI_BLOCK_N, "real", id="real-multiblock"),
        pytest.param(_MULTI_BLOCK_N, "complex", id="complex-multiblock"),
    ],
)
def test_gridfunction_csv_bytes_match_csv_writer(tmp_path, N, kind):
    # reference: the csv module writing one formatted row per sample
    rng = np.random.default_rng(29)
    g = make_grid(7.5, N)
    vals = rng.standard_normal(N) * 10.0 ** rng.integers(-300, 300, N)
    if kind == "complex":
        vals = vals + 1j * rng.standard_normal(N)
        vals[5] = complex(-0.0, -0.0)
    vals[3] = -0.0
    # signed zeros on both sides of every block boundary
    vals[textio._CSV_BLOCK_ROWS - 1 :: textio._CSV_BLOCK_ROWS] = -0.0
    vals[textio._CSV_BLOCK_ROWS :: textio._CSV_BLOCK_ROWS] = -0.0
    u = GridFunction(g, vals)
    path, ref = tmp_path / "u.csv", tmp_path / "ref.csv"
    write_gridfunction_csv(u, path)
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "re", "im"])
        for xj, vj in zip(g.x, u.values.astype(np.complex128)):
            writer.writerow([f"{xj:.17g}", f"{vj.real:.17g}", f"{vj.imag:.17g}"])
    assert path.read_bytes() == ref.read_bytes()
    rows = path.read_bytes().split(b"\r\n")
    assert rows[4].split(b",")[1] == b"-0"  # sample 3
    if kind == "complex":
        assert rows[6].split(b",")[1:] == [b"-0", b"-0"]  # sample 5
    back = read_gridfunction_csv(path)
    assert back.grid == g
    assert back.values.dtype == u.values.dtype
    assert np.array_equal(back.values.view(np.uint64), u.values.view(np.uint64))


def test_grid_json_round_trip():
    g = make_grid(40.0, 4096)
    meta = json.loads(g.to_json())
    assert meta == {"L": 40.0, "N": 4096}
    assert Grid.from_json(g.to_json()) == g


@pytest.mark.parametrize(
    "L, N", [(40.0, 4096), (0.5, 8), (resonant_aligned_half_length(2.0, 30.0), 1000)]
)
def test_grid_json_matches_the_shipped_schema(L, N):
    schema = json.loads((resources.files("shiftspec") / "schemas" / "grid.schema.json").read_text())
    jsonschema.validate(json.loads(make_grid(L, N).to_json()), schema)


@pytest.mark.parametrize("cls", [GridFunction, SpectralFunction])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_values_do_not_alias_the_callers_array(cls, dtype):
    g = make_grid(5.0, 16)
    caller = np.arange(16, dtype=dtype)
    u = cls(g, caller)
    caller[:] = -1.0
    assert np.array_equal(u.values, np.arange(16))


def test_values_are_immutable():
    g = make_grid(5.0, 16)
    u = gaussian_on(g)
    with pytest.raises(ValueError):
        u.values[0] = 7.0
    with pytest.raises(ValueError):
        g.x[0] = 0.0


@pytest.mark.parametrize("seed", [1, 2])
def test_l2_norm_of_real_samples_is_the_abs_square_form_bit_for_bit(seed):
    # a real function sums v*v; that must equal the |v|**2 form exactly,
    # over signs, -0 and subnormals, in the same summation order (values
    # of like size, where a different order shows, as np.dot's does)
    rng = np.random.default_rng(seed)
    for k in range(3, 18):
        grid = make_grid(float(rng.uniform(1.0, 80.0)), 2**k)
        v = rng.standard_normal(grid.N) * 10.0 ** rng.integers(-2, 3, grid.N)
        v[rng.integers(0, grid.N, 4)] = [-0.0, 5e-324, -2.5e-310, -1e-160]
        u = GridFunction(grid, v)
        want = float(np.sqrt(grid.dx * np.sum(np.abs(v) ** 2)))
        assert l2_norm(u) == want
        w = v * (1.0 - 0.5j)
        assert l2_norm(GridFunction(grid, w)) == float(np.sqrt(grid.dx * np.sum(np.abs(w) ** 2)))
