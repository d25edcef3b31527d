import csv
import io
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from shiftspec import spectral
from shiftspec.linear import resonant_aligned_half_length
from shiftspec.spectral import (
    SQRT_2PI,
    Grid,
    GridFunction,
    SpectralFunction,
    evaluate_transform_at,
    forward_transform,
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
    transform_on_progression,
    weighted_l1_norm,
    write_gridfunction_csv,
)

H2_SQ_GAUSSIAN = 7.0 * np.sqrt(np.pi) / 4.0  # ||u||^2 + ||u''||^2 for e^{-x^2/2}


def gaussian_on(grid):
    return GridFunction(grid, np.exp(-grid.x**2 / 2))


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


@pytest.mark.parametrize("L,N", [(1.0, 7), (1.0, 6), (1.0, 9), (0.0, 8), (-2.0, 8)])
def test_make_grid_rejects(L, N):
    with pytest.raises(ValueError):
        make_grid(L, N)


def test_gridfunction_rejects_nan_and_wrong_length():
    g = make_grid(1.0, 8)
    with pytest.raises(ValueError):
        GridFunction(g, np.array([np.nan] * 8))
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(9))


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


@pytest.mark.parametrize("N", [8, 64, 4096])
@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("e_min", [0.0, 1e-4])
def test_transform_on_progression_matches_dense(N, complex_input, e_min):
    # the refinement layout of stability_constant: blocks leaving +-1 on
    # either side, from an offset e_min (resonant case) to one grid step,
    # and a block that runs past the band edge
    rng = np.random.default_rng(N)
    g = make_grid(2.0 if N == 8 else 12.0, N)
    vals = np.exp(-g.x**2 / 2) * rng.standard_normal(N)
    if complex_input:
        vals = vals + 1j * np.exp(-((g.x - 1) ** 2)) * rng.standard_normal(N)
    u = GridFunction(g, vals)
    step = (g.dp - e_min) / 64
    starts = np.array([1 + e_min, 1 - e_min, -1 + e_min, -1 - e_min, g.p_max - 0.5 * g.dp])
    steps = np.array([step, -step, step, -step, step])
    fast = transform_on_progression(u, starts, steps, 65)
    p = starts[:, None] + steps[:, None] * np.arange(65)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        dense = evaluate_transform_at(u, p.ravel()).reshape(p.shape)
    assert fast.shape == (5, 65)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * l1_norm(u) / SQRT_2PI


def test_transform_on_progression_scalar_start_and_rejects():
    g = make_grid(12.0, 64)
    u = gaussian_on(g)
    one = transform_on_progression(u, 0.3, -0.01, 7)
    assert one.shape == (1, 7)
    assert np.max(np.abs(one[0] - evaluate_transform_at(u, 0.3 - 0.01 * np.arange(7)))) <= 1e-14
    with pytest.raises(ValueError):
        transform_on_progression(u, [0.0, 1.0], [0.1, 0.2], 5)
    with pytest.raises(ValueError):
        transform_on_progression(u, [0.0], 0.1, 0)
    with pytest.raises(ValueError):
        transform_on_progression(u, [np.nan], 0.1, 5)


def test_evaluate_transform_gaussian_values():
    g = make_grid(40.0, 4096)
    u = gaussian_on(g)
    assert evaluate_transform_at(u, 1.0) == pytest.approx(np.exp(-0.5), abs=1e-12)
    herm = GridFunction(g, g.x**2 * np.exp(-g.x**2 / 2))
    assert abs(evaluate_transform_at(herm, 1.0)) <= 1e-10
    zero = GridFunction(g, np.zeros(g.N))
    assert evaluate_transform_at(zero, 0.731) == 0


def test_evaluate_transform_warns_beyond_band():
    g = make_grid(10.0, 32)
    u = gaussian_on(g)
    with pytest.warns(RuntimeWarning):
        evaluate_transform_at(u, 2 * g.p_max)


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
_MULTI_BLOCK_N = 2 * spectral._CSV_BLOCK_ROWS + spectral._CSV_BLOCK_ROWS // 2 + 6


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
    vals[spectral._CSV_BLOCK_ROWS - 1 :: spectral._CSV_BLOCK_ROWS] = -0.0
    vals[spectral._CSV_BLOCK_ROWS :: spectral._CSV_BLOCK_ROWS] = -0.0
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


def _percent_g17_rows(columns, row_end=b"\n"):
    # reference: Python's '%.17g', one value at a time
    fmt = b",".join([b"%.17g"] * len(columns)) + row_end
    return b"".join(fmt % row for row in zip(*(np.asarray(c).tolist() for c in columns)))


def _ties_and_near_ties(rng, picks):
    # v = m / 2^(k+s) gives |v| * 10^s = m * 5^s / 2^k, whose fraction is
    # 1/2 + delta / 2^k when m = 2^(k-1) + delta * 5^-s (mod 2^k): delta = 0
    # is an exact tie of the 17-digit rounding (the 18-digit expansion ends
    # in 5), delta != 0 a value 2^-k from one
    ties, near = [], []
    for s in range(1, 25):
        for k in range(1, 54):
            inv = pow(5**s, -1, 2**k)
            lo = -(-(10**16) * 2**k // 5**s)  # 10^16 <= m * 5^s / 2^k < 10^17
            hi = min(-(-(10**17) * 2**k // 5**s), 2**53)
            for delta in (0, 1, -1, 2, -2):
                first = lo + (2 ** (k - 1) + delta * inv - lo) % 2**k
                if first >= hi:
                    continue
                count = (hi - 1 - first) // 2**k + 1
                for j in rng.integers(0, count, picks).tolist():
                    v = math.ldexp(first + j * 2**k, -(k + s))
                    (near if delta else ties).append(v)
    return np.array(ties), np.array(near)


_CROSSING_NEAR_TIES = (
    "0x1.93e838c059d66p-682",
    "0x1.bb2d0be7784abp+231",
    "0x1.70f4d8d6e3f4cp-304",
    "0x1.57a340eb5d4f1p-760",
)


def test_write_float_rows_matches_percent_g17():
    rng = np.random.default_rng(20261018)
    ties, near = _ties_and_near_ties(rng, 4)
    for v in ties[::97].tolist():
        scaled = Fraction(v) * Fraction(10) ** (16 - math.floor(math.log10(v)))
        assert scaled - math.floor(scaled) == Fraction(1, 2)
    assert Fraction(3125000000000.03125) * 10**4 % 1 == Fraction(1, 2)
    # near ties whose double-double estimate of |v| * 10^(16-X) lands on
    # the other side of the half, by up to 2^-51 (found by a lattice search
    # of m * 2^e within 2^-50 of a tie); a narrower window misrounds them
    crossing = np.array([float.fromhex(h) for h in _CROSSING_NEAR_TIES])
    for v in crossing.tolist():
        scaled = Fraction(v) * Fraction(10) ** (16 - math.floor(math.log10(v)))
        assert 0 < abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 2**50)
    bits = rng.integers(0, 2**64, 600_000, dtype=np.uint64, endpoint=False).view(np.float64)
    specials = np.array(
        [0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
         1.7976931348623157e308, np.inf, np.nan, 3125000000000.03125, 0.5, 1.0, 9.5, 0.1]
    )  # fmt: skip
    # 10^k for every decade and the %g switch points, with their neighbours
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    neighbours = [
        (decades.view(np.int64)[:, None] + np.arange(-2, 3)).view(np.float64).ravel(),
        (switches.view(np.int64)[:, None] + np.arange(-40, 41)).view(np.float64).ravel(),
    ]
    grids = [make_grid(40.0, N).x for N in (32768, 131072)]
    grids += [make_grid(resonant_aligned_half_length(a, 40.0), 32768).x for a in (0.6, 1.0, 1.6)]
    grids += [make_grid(L, 32768).x for L in rng.uniform(60.0, 80.0, 3)]
    structured = np.concatenate([specials, crossing, *neighbours, ties, near, *grids])
    values = np.concatenate([bits, structured, -structured])  # bits carry both signs
    values = values[rng.permutation(len(values))]
    assert len(values) >= 1_000_000
    out = io.BytesIO()
    spectral.write_float_rows(out, (values,), b"\n")
    if out.getvalue() != _percent_g17_rows((values,)):
        got = out.getvalue().split(b"\n")
        bad = [(v, g) for v, g in zip(values.tolist(), got) if g != b"%.17g" % v]
        pytest.fail(f"{len(bad)} values differ from '%.17g', e.g. {bad[:5]}")


def test_write_float_rows_joins_fields_and_rows():
    cols = (np.array([1.5, -0.0, np.inf]), np.array([1e-300, 3125000000000.03125, np.nan]))
    for row_end in (b"\n", b"\r\n", b",0\r\n"):
        out = io.BytesIO()
        spectral.write_float_rows(out, cols, row_end)
        assert out.getvalue() == _percent_g17_rows(cols, row_end)
    out = io.BytesIO()
    spectral.write_float_rows(out, (np.array([]),), b"\n")
    assert out.getvalue() == b""


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_gridfunction_csv_exact_path_at_block_boundaries(tmp_path, kind):
    # ties take the exact path; put them and -0 on both sides of each
    # block boundary
    B = spectral._CSV_BLOCK_ROWS
    ties, _ = _ties_and_near_ties(np.random.default_rng(5), 1)
    g = make_grid(7.5, 2 * B + 10)
    re = np.random.default_rng(6).standard_normal(g.N) * 1e-3
    im = re[::-1].copy()
    for edge in (B, 2 * B):
        re[edge - 2 : edge + 2] = [ties[edge % len(ties)], -0.0, -0.0, -3125000000000.03125]
        im[edge - 2 : edge + 2] = [-0.0, ties[3], -ties[5], -0.0]
    vals = re
    if kind == "complex":
        vals = np.empty(g.N, np.complex128)
        vals.real, vals.imag = re, im
    u = GridFunction(g, vals)
    path = tmp_path / "u.csv"
    write_gridfunction_csv(u, path)
    if kind == "real":
        ref = _percent_g17_rows((g.x, u.values), b",0\r\n")
    else:
        ref = _percent_g17_rows((g.x, u.values.real, u.values.imag), b"\r\n")
    assert path.read_bytes() == b"x,re,im\r\n" + ref
    rows = path.read_bytes().split(b"\r\n")
    for edge in (B, 2 * B):  # row j + 1 holds sample j
        assert rows[edge].split(b",")[1] == b"-0" == rows[edge + 1].split(b",")[1]
        if kind == "complex":
            assert rows[edge - 1].split(b",")[2] == b"-0" == rows[edge + 2].split(b",")[2]


def test_grid_json_round_trip():
    g = make_grid(40.0, 4096)
    meta = json.loads(g.to_json())
    assert meta == {"L": 40.0, "N": 4096}
    assert Grid.from_json(g.to_json()) == g


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
