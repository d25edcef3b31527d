import csv
import json
import warnings

import numpy as np
import pytest

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


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_gridfunction_csv_bytes_match_csv_writer(tmp_path, kind):
    # reference: the csv module writing one formatted row per sample
    rng = np.random.default_rng(29)
    g = make_grid(7.5, 64)
    vals = rng.standard_normal(64) * 10.0 ** rng.integers(-300, 300, 64)
    if kind == "complex":
        vals = vals + 1j * rng.standard_normal(64)
        vals[5] = complex(-0.0, -0.0)
    vals[3] = -0.0
    u = GridFunction(g, vals)
    path, ref = tmp_path / "u.csv", tmp_path / "ref.csv"
    write_gridfunction_csv(u, path)
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "re", "im"])
        for xj, vj in zip(g.x, u.values.astype(np.complex128)):
            writer.writerow([f"{xj:.17g}", f"{vj.real:.17g}", f"{vj.imag:.17g}"])
    assert path.read_bytes() == ref.read_bytes()
    assert path.read_bytes().split(b"\r\n")[4].split(b",")[1] == b"-0"  # sample 3


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
