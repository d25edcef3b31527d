"""Float text: the one ``'%.17g'`` writer and the one CSV number reader.

:func:`write_float_rows` formats float64 columns as Python's ``'%.17g'``
does, byte for byte, from numpy arithmetic; :func:`read_float_rows` parses
rows of numbers under a fixed header.  Every CSV the package writes or
reads goes through these two, so the text format is decided here alone.
Imports only the standard library and numpy.
"""

import functools

import numpy as np

_CSV_BLOCK_ROWS = 8192  # rows per formatting block


# '%.17g' text from numpy arithmetic.  Python's '%.17g' runs a bignum dtoa
# for every value (about 1 us each); this kernel gets the same bytes from a
# double-double product and an exact path, as Ryu printf does (Adams 2019).
#
# A finite v != 0 with decimal exponent X (10^X <= |v| < 10^(X+1)) has the
# 17 significant digits D = round(|v| * 10^(16-X)), ties to even, with a
# carry to D = 10^16 at X+1 when D rounds to 10^17.  Write |v| = f * 2^E
# (np.frexp, f in [0.5, 1), exact also for subnormals) and
# 10^s = T_s * 2^b_s with T_s in [1, 2) stored as hi_s + lo_s.  Then
# Y = f * T_s * 2^(E+b_s) is evaluated as yh + yl: f * hi_s exactly by
# Dekker's product, f * lo_s and the sum of the two low parts rounded once
# each, and a scaling by 2^(E+b_s) that is exact.  Error bound: the table
# is off by at most 2^-106, f * lo_s by 2^-107 and the low sum by 2^-105,
# so |yh + yl - f*T_s| < 1.75 * 2^-105; with Y < 10^17 and f * T_s >= 0.5,
# 2^(E+b_s) <= 2^58 and |yh + yl - Y| < 1.75 * 2^-47.  The fraction
# t = yl - floor(yl) (yh is an integer, since yh >= 10^16 > 2^53) is
# rounded by at most 2^-54 more, so it is within _G17_WINDOW = 2^-46 of
# Y's own fraction.  A value whose t lies within that window of 0.5 (exact
# ties such as 3125000000000.03125 among them) is formatted by Python's
# '%.17g', as is every non-finite value.
_G17_WINDOW = 2.0**-46
_G17_WORDS = 6  # 8-byte words of text per field, NUL-padded


@functools.cache
def _g17_tables():
    """Tables of the '%.17g' kernel, built once with Python ints.

    Per-exponent tables are indexed by i = X + 324, over X = -324 (5e-324)
    .. 308 (1.8e308), with s = 16 - X.  A field's text is 6 words:
    [sep sign 0 . 0 0 0 d0] [p0 d1 p1 d2 p2 d3 p3 d4] ... [p12 d13 .. d16]
    [e + X X X], where p_k is the slot of a "." after digit k."""
    pow10 = [1]
    while len(pow10) <= 340:
        pow10.append(pow10[-1] * 10)
    hi, lo, b, p10up = [], [], [], []
    for X in range(-324, 309):
        s = 16 - X
        if s >= 0:
            bits = pow10[s].bit_length() - 1
            num, den = pow10[s], 1 << bits
        else:
            bits = -pow10[-s].bit_length()
            num, den = 1 << -bits, pow10[-s]
        h = num / den  # correctly rounded T_s
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
        b.append(bits)
        # smallest double >= 10^(X+1); no double reaches 10^309
        if X == 308:
            p10up.append(np.inf)
            continue
        num, den = (pow10[X + 1], 1) if X >= -1 else (1, pow10[-X - 1])
        c = num / den
        cn, cd = c.as_integer_ratio()
        p10up.append(c if cn * den >= num * cd else float(np.nextafter(c, np.inf)))
    hi = np.array(hi)
    split = hi * 134217729.0  # Veltkamp split of hi, 2^27 + 1
    hi_h = split - (split - hi)

    # %g layout by X: fixed notation for -4 <= X < 17, with the "0." prefix
    # and -X-1 zeros when X < 0 and the "." after digit X when X >= 0, the
    # integer digits kept; else d.ddde+XX with the "." after digit 0
    X = np.arange(-324, 309)
    fixed = (X >= -4) & (X < 17)
    prefix = np.where(fixed & (X < 0), -X, 0)
    dot = np.where(fixed, np.where(X < 0, -1, X), 0)
    keep = np.where(fixed, X + 1, 0)

    def words(texts):
        return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)

    exponent = np.where(fixed, 0, words(b"e%+03d" % x for x in X))
    # word 0 by (prefix * 10 + d0) * 2 + sign, one table with sep and one without
    prefixes = [b"\0" * 5] + [(b"0." + b"0" * j).ljust(5, b"\0") for j in range(4)]
    head = words(
        sep + sign + p + b"%d" % d0
        for sep in (b"\0", b",")
        for p in prefixes
        for d0 in range(10)
        for sign in (b"\0", b"-")
    )
    # words 1-4: a 4-digit chunk in the odd bytes and "." in the even
    # ones, masked by keep * 17 + dot: the digits kept (keep = 0..17) and
    # the "." after digit dot - 1 (dot = 0: none)
    c = np.arange(10000)
    chunk = np.full((10000, 8), ord("."), np.uint8)
    chunk[:, 1::2] = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1) + ord("0")
    chunk_tz = np.select([c % 10**k != 0 for k in range(1, 5)], [0, 1, 2, 3], 4)
    mask = np.zeros((4, 18, 17, 8), np.uint8)
    for j in range(4):
        for slot in range(4):
            digit = 4 * j + 1 + slot
            mask[j, digit + 1 :, :, 2 * slot + 1] = 0xFF
            mask[j, :, digit, 2 * slot] = 0xFF
    digits = (hi, hi_h, hi - hi_h, np.array(lo), np.array(b, np.int32), np.array(p10up))
    text = (
        prefix * 20, dot, keep, exponent, head.reshape(2, -1),
        chunk.view(np.uint64).ravel(), chunk_tz, mask.view(np.uint64).reshape(4, -1),
    )
    return digits, text


def _g17_digits(v):
    """(D, i, exact) for the float64 vector v: the 17 significant digits
    D (0 for zero) and table index i = X + 324 of each value, and the
    positions that take the exact path."""
    hi, hi_h, hi_l, lo, b, p10up = _g17_tables()[0]
    a = np.abs(v)
    finite = np.isfinite(a)
    zero = a == 0
    a[~finite | zero] = 1.0  # formatted like 1.0, then corrected below
    # X from the binary exponent, raised by one where |v| reaches the next
    # power of ten; then D from yh + yl ~ Y = |v| * 10^(16-X)
    f, E = np.frexp(a)
    # floor((E-1) * log10(2)), exact for |E| < 1650
    i = (((E - 1) * 78913) >> 18).astype(np.intp)
    i += 324
    i += a >= p10up.take(i)
    split = f * 134217729.0
    fh = split - (split - f)
    fl = f - fh
    h, hh, hl = hi.take(i), hi_h.take(i), hi_l.take(i)
    p = f * h
    e = (((fh * hh - p) + fh * hl + fl * hh) + fl * hl) + f * lo.take(i)
    yh = p + e
    yl = e - (yh - p)
    scale = E + b.take(i)
    yh = np.ldexp(yh, scale)
    yl = np.ldexp(yl, scale)
    floor = np.floor(yl)
    t = yl - floor
    D = yh.astype(np.int64) + floor.astype(np.int64) + (t > 0.5)
    carry = D == 10**17
    D[carry] = 10**16
    i += carry
    D[zero] = 0
    i[zero] = 324  # X = 0
    return D, i, np.flatnonzero((np.abs(t - 0.5) <= _G17_WINDOW) | ~finite)


def _g17_fields(v, out, sep: bool) -> None:
    """Write '%.17g' % v[j] into row j of out, an (n, _G17_WORDS) uint64
    array, as NUL-padded text, preceded by "," if sep."""
    head_x, dot_x, keep_x, exponent, head, chunk, chunk_tz, mask = _g17_tables()[1]
    D, i, exact = _g17_digits(v)
    # D = d0 * 10^16 + c1 * 10^12 + c2 * 10^8 + c3 * 10^4 + c4
    q = D // 10**8
    r = (D - q * 10**8).astype(np.uint32)
    q = q.astype(np.uint32)
    d0 = q // 10**8
    q -= d0 * 10**8
    c1 = q // 10**4
    c3 = r // 10**4
    c = (c1, q - c1 * 10**4, c3, r - c3 * 10**4)
    # significant digits: 17 less the trailing zeros (1 for zero)
    tz = chunk_tz.take(c[3])
    rows = np.flatnonzero(c[3] == 0)
    for cj in c[2::-1]:
        cj = cj.take(rows)
        tz[rows] += chunk_tz.take(cj)
        rows = rows[cj == 0]
    nd = 17 - tz

    dot = dot_x.take(i)
    dot = (dot + 1) * (dot < nd - 1)  # "." after digit dot, or none
    kd = np.maximum(nd, keep_x.take(i)) * 17 + dot
    out[:, 0] = head[int(sep)].take(head_x.take(i) + (d0 << 1) + np.signbit(v))
    for j in range(4):
        out[:, j + 1] = chunk.take(c[j]) & mask[j].take(kd)
    out[:, 5] = exponent.take(i)
    for j in exact:
        text = (b"," if sep else b"") + b"%.17g" % v[j]
        out[j] = np.frombuffer(text.ljust(8 * _G17_WORDS, b"\0"), np.uint64)


def write_float_rows(fh, columns, row_end: bytes) -> None:
    """Write rows of the equal-length float64 ``columns`` to the binary
    file ``fh``: each value as ``'%.17g' % value`` formats it, fields
    joined by ``,`` and each row ended by ``row_end`` (at most 8 bytes).

    Formats _CSV_BLOCK_ROWS rows at a time into a matrix of NUL-padded
    8-byte words, then drops the NULs.
    """
    n_cols = len(columns)
    end = np.frombuffer(row_end.ljust(8, b"\0"), np.uint64)
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = [np.asarray(c[start : start + _CSV_BLOCK_ROWS], np.float64) for c in columns]
        rows = np.empty((len(block[0]), n_cols * _G17_WORDS + 1), np.uint64)
        for j, col in enumerate(block):
            _g17_fields(col, rows[:, j * _G17_WORDS : (j + 1) * _G17_WORDS], sep=j > 0)
        rows[:, -1] = end
        fh.write(rows.tobytes().translate(None, b"\0"))


def read_float_rows(path, header: list[str]) -> np.ndarray:
    """Parse the text file at ``path``: a first line of the names in
    ``header`` (spaces around them allowed), then rows of exactly
    len(header) comma-separated numbers (CRLF or LF line ends), at least
    one.  Returns the columns, one float64 row of the result each; raises
    ValueError on any other text."""
    with open(path) as fh:
        names = [c.strip() for c in fh.readline().split(",")]
        if names != header:
            raise ValueError(f"expected header {header}, got {names}")
        if not any(line.strip() for line in fh):
            raise ValueError("empty CSV")
    # numpy's C parser, which reads a path in chunks but an open file one
    # Python line at a time; it raises ValueError on a row whose field
    # count differs from the first row's
    data = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"expected {len(header)} fields per row, got {data.shape[1]}")
    return data.T
