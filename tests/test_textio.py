"""Float text: the '%.17g' writer, byte for byte, and the CSV number reader."""

import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from shiftspec import textio
from shiftspec.linear import resonant_aligned_half_length
from shiftspec.sequences import ConvergenceRow, ConvergenceTable, SequenceKind, write_table_csv
from shiftspec.spectral import GridFunction, make_grid, write_gridfunction_csv


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
    textio.write_float_rows(out, (values,), b"\n")
    if out.getvalue() != _percent_g17_rows((values,)):
        got = out.getvalue().split(b"\n")
        bad = [(v, g) for v, g in zip(values.tolist(), got) if g != b"%.17g" % v]
        pytest.fail(f"{len(bad)} values differ from '%.17g', e.g. {bad[:5]}")


def test_write_float_rows_joins_fields_and_rows():
    cols = (np.array([1.5, -0.0, np.inf]), np.array([1e-300, 3125000000000.03125, np.nan]))
    for row_end in (b"\n", b"\r\n", b",0\r\n"):
        out = io.BytesIO()
        textio.write_float_rows(out, cols, row_end)
        assert out.getvalue() == _percent_g17_rows(cols, row_end)
    out = io.BytesIO()
    textio.write_float_rows(out, (np.array([]),), b"\n")
    assert out.getvalue() == b""


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_gridfunction_csv_exact_path_at_block_boundaries(tmp_path, kind):
    # ties take the exact path; put them and -0 on both sides of each
    # block boundary
    B = textio._CSV_BLOCK_ROWS
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



_TABLE_COLUMNS = ["m", "input_gap", "weighted_gap", "solution_gap_h2", "multiplier_gap", "N_m"]


def _csv_module_table(table):
    # reference: the csv module writing one f"{v:.17g}" field per cell,
    # an empty one for None
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(_TABLE_COLUMNS)
    for row in zip(*map(table.column, _TABLE_COLUMNS)):
        writer.writerow(["" if v is None else f"{v:.17g}" for v in row])
    return buf.getvalue().encode()


@pytest.mark.parametrize("kind", [SequenceKind.RHS, SequenceKind.KERNEL], ids=["rhs", "kernel"])
def test_table_csv_bytes_match_csv_writer(tmp_path, kind):
    # an exact tie, signed zero, the smallest subnormal and ordinary gaps
    # in every float column; m is an int
    cells = [3125000000000.03125, -0.0, 5e-324, 0.1, 1.7976931348623157e308, 2.5e-17]
    kernel = kind is SequenceKind.KERNEL
    rows = []
    for m in (1, 2, 3, 4, 5, 6, 12):
        c = cells[(m - 1) % 6 :] + cells[: (m - 1) % 6]  # row m starts at cell m
        rows.append(
            ConvergenceRow(m, *c[:5], *((c[2], c[3], c[4]) if kernel else (None, None, None)))
        )
    table = ConvergenceTable(kind=kind, rows=rows, checks={}, alpha=None)
    path = tmp_path / "table.csv"
    write_table_csv(table, path)
    assert path.read_bytes() == _csv_module_table(table)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[1].startswith(b"1,3125000000000.0312,-0,4.9406564584124654e-324,")
    assert lines[7].startswith(b"12,")
    assert lines[1].endswith(b",,") != kernel


def test_read_float_rows_returns_the_columns(tmp_path):
    # spaces around the names, CRLF and LF line ends; the header given
    # sets the names and the field count (the x,re,im cases are in
    # test_spectral.py)
    text = b"x, re ,im\r\n1.5,-0,2e-3\n-2.5,1e308,-inf\r\n"
    path = tmp_path / "rows.csv"
    path.write_bytes(text)
    x, re, im = textio.read_float_rows(path, ["x", "re", "im"])
    assert x.tolist() == [1.5, -2.5] and re.tolist() == [0.0, 1e308]
    assert im.tolist() == [2e-3, -np.inf] and np.signbit(re[0])
    with pytest.raises(ValueError, match=r"expected header \['x', 're'\], got \['x', 're', 'im'\]"):
        textio.read_float_rows(path, ["x", "re"])
    path.write_bytes(text.replace(b"x, re ,im", b"x,re"))
    with pytest.raises(ValueError, match="expected 2 fields per row, got 3"):
        textio.read_float_rows(path, ["x", "re"])
