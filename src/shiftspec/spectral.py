"""Uniform-grid functions on a symmetric periodic box and their Fourier
transforms in the symmetric 1/sqrt(2*pi) convention.

The box is [-L, L) sampled at N equispaced points x_j = -L + j*dx,
dx = 2L/N.  The dual grid carries the frequencies p_j = pi*j/L for
j = -N/2 .. N/2-1, stored in increasing order.  Forward and inverse
transforms are the trapezoidal discretizations of

    u_hat(p) = (1/sqrt(2*pi)) int u(x) e^{-ipx} dx,
    u(x)     = (1/sqrt(2*pi)) int u_hat(p) e^{+ipx} dp,

which on this grid are exact inverses of each other and exactly unitary
(Parseval with the dx / dp quadrature weights).  Functions are expected
to decay below ~1e-14 at +-L; the periodic surrogate is not claimed to
approximate non-decaying data.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np

SQRT_2PI = float(np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class Grid:
    """Symmetric uniform grid over [-L, L) with its dual frequency grid.

    Attributes
    ----------
    L : float
        Half-length of the box.
    N : int
        Number of samples; even, at least 8.
    dx : float
        Spacing 2L/N.
    x : ndarray
        Sample points -L + j*dx, j = 0..N-1.
    p : ndarray
        Frequencies pi*j/L, j = -N/2..N/2-1, strictly increasing.  The
        single unpaired endpoint is -N*pi/(2L).
    sign : ndarray
        (-1)^j for the same j: pairs the fftshift reordering with the
        phase e^{i*pi*j} coming from the box offset x_0 = -L.
    """

    L: float
    N: int

    def __post_init__(self):
        if not np.isfinite(self.L) or self.L <= 0:
            raise ValueError(f"half-length L must be positive, got {self.L}")
        if self.N != int(self.N) or self.N < 8:
            raise ValueError(f"N must be an integer >= 8, got {self.N}")
        if self.N % 2 != 0:
            raise ValueError(f"N must be even, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        dx = 2.0 * self.L / self.N
        x = -self.L + dx * np.arange(self.N)
        j = np.arange(-self.N // 2, self.N // 2)
        p = (np.pi / self.L) * j
        sign = np.where(j % 2 == 0, 1.0, -1.0)
        for arr in (x, p, sign):
            arr.setflags(write=False)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "sign", sign)

    @property
    def dp(self) -> float:
        """Frequency spacing pi/L."""
        return np.pi / self.L

    @property
    def p_max(self) -> float:
        """Resolvable band edge pi/dx = N*pi/(2L)."""
        return np.pi / self.dx

    def to_json(self) -> str:
        return json.dumps({"L": self.L, "N": self.N})

    @staticmethod
    def from_json(text: str) -> "Grid":
        meta = json.loads(text)
        return make_grid(float(meta["L"]), int(meta["N"]))


def make_grid(L: float, N: int) -> Grid:
    """Build the grid for the box [-L, L) with N samples (even, >= 8)."""
    return Grid(L=float(L), N=int(N))


def _canonical_values(values, N):
    arr = np.asarray(values)
    if arr.shape != (N,):
        raise ValueError(f"values must have shape ({N},), got {arr.shape}")
    # astype copies, so the caller's array is never aliased
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128)
    else:
        arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("values contain NaN or Inf")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function on a Grid.  Immutable once constructed."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _canonical_values(self.values, self.grid.N))

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def require_same_grid(self, other) -> None:
        """Raise ValueError unless ``other`` lives on this grid."""
        if self.grid != other.grid:
            raise ValueError("grid mismatch between operands")

    def real_like(self, values) -> "GridFunction":
        """``values`` on this grid, real part only if this function is real."""
        return GridFunction(self.grid, values.real if self.is_real else values)

    def __add__(self, other):
        self.require_same_grid(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        self.require_same_grid(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c):
        return GridFunction(self.grid, self.values * c)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values)


@dataclass(frozen=True)
class SpectralFunction:
    """Samples of a transform on the dual grid, in increasing-p order."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", _canonical_values(vals, self.grid.N))


def forward_transform(u: GridFunction) -> SpectralFunction:
    """Transform to the dual grid: (dx/sqrt(2*pi)) * sum u(x_j) e^{-i p x_j}.

    Exact inverse of :func:`inverse_transform`; unitary in the discrete
    L2 norms (Parseval), and identical to :func:`evaluate_transform_at`
    at every on-grid frequency.
    """
    grid = u.grid
    vals = (grid.dx / SQRT_2PI) * grid.sign * np.fft.fftshift(np.fft.fft(u.values))
    return SpectralFunction(grid, vals)


def inverse_transform(uh: SpectralFunction) -> GridFunction:
    """Inverse of :func:`forward_transform`; returns complex samples."""
    grid = uh.grid
    vals = (grid.dp * grid.N / SQRT_2PI) * np.fft.ifft(np.fft.ifftshift(grid.sign * uh.values))
    return GridFunction(grid, vals)


def _warn_beyond_band(grid: Grid, p_abs) -> None:
    band = grid.p_max
    if np.any(p_abs > band * (1.0 + 1e-12)):
        warnings.warn(
            f"frequency beyond the resolvable band |p| <= {band:.6g}; "
            "quadrature values there alias",
            RuntimeWarning,
            stacklevel=3,
        )


def evaluate_transform_at(u: GridFunction, p):
    """Transform evaluated at arbitrary (generally off-grid) frequencies.

    Trapezoidal quadrature of (1/sqrt(2*pi)) int_{-L}^{L} u(x) e^{-ipx} dx;
    for the periodic box with decaying samples this coincides with the
    plain dx-weighted sum.  Warns when |p| exceeds the resolvable band.
    Accepts a scalar or an array of frequencies.
    """
    p_arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    _warn_beyond_band(u.grid, np.abs(p_arr))
    phases = np.exp(-1j * np.outer(p_arr, u.grid.x))
    out = (u.grid.dx / SQRT_2PI) * (phases @ u.values)
    if np.isscalar(p) or np.asarray(p).ndim == 0:
        return complex(out[0])
    return out


def transform_at_pm(u: GridFunction, r: float) -> tuple[complex, complex]:
    """The pair (u_hat(r), u_hat(-r)) of :func:`evaluate_transform_at`
    values, from one phase vector e^{-irx} and its conjugate.  Warns when
    |r| exceeds the resolvable band."""
    r = float(r)
    _warn_beyond_band(u.grid, abs(r))
    phase = np.exp(-1j * r * u.grid.x)
    w = u.grid.dx / SQRT_2PI
    return complex(w * (phase @ u.values)), complex(w * (phase.conj() @ u.values))


def transform_on_progression(u: GridFunction, starts, step, M: int) -> np.ndarray:
    """Transform on arithmetic progressions of frequencies, by Bluestein's
    chirp-z transform in O((N + M) log(N + M)) time and O(N + M) memory
    per progression.

    Row b of the returned (len(starts), M) array holds the same trapezoidal
    sum as :func:`evaluate_transform_at`,
    (dx/sqrt(2*pi)) * sum_j u(x_j) e^{-i p_k x_j},
    at p_k = starts[b] + k*step_b, k = 0..M-1.  ``step`` is a scalar or
    one value per start; all steps must have the same magnitude, because
    every row shares one chirp filter (a negative-step row is evaluated
    from its other end with the positive step and then reversed).
    Frequencies beyond the resolvable band are not flagged; the sum
    aliases there.
    """
    grid = u.grid
    starts = np.atleast_1d(np.asarray(starts, dtype=np.float64))
    steps = np.broadcast_to(np.asarray(step, dtype=np.float64), starts.shape)
    M = int(M)
    if starts.ndim != 1 or starts.size == 0 or M < 1:
        raise ValueError("starts must be a nonempty 1-D array and M >= 1")
    if not (np.all(np.isfinite(starts)) and np.all(np.isfinite(steps))):
        raise ValueError("starts and step must be finite")
    d = abs(float(steps[0]))
    if np.any(np.abs(steps) != d):
        raise ValueError("all steps must have the same magnitude")
    N = grid.N
    neg = steps < 0
    # centred indices x_j = m*dx, p = pc + t*d keep the chirp phases small
    # where the data and the output live
    c = (M - 1) // 2
    pc = np.where(neg, starts + (M - 1) * steps, starts) + c * d
    w = d * grid.dx
    m = np.arange(N) - N // 2
    t = np.arange(M) - c
    # Bluestein: t*m = (t^2 + m^2 - (t-m)^2)/2, a convolution over the lag
    # n = k - j with t - m = n + N/2 - c
    nfft = 1 << (N + M - 2).bit_length()
    a = u.values * np.exp(-1j * (np.outer(pc, grid.x) + 0.5 * w * m**2))
    lags = np.arange(-(N - 1), M)
    chirp = np.zeros(nfft, dtype=np.complex128)
    chirp[lags % nfft] = np.exp(0.5j * w * (lags + N // 2 - c) ** 2)
    y = np.fft.ifft(np.fft.fft(a, nfft) * np.fft.fft(chirp))[:, :M]
    out = (grid.dx / SQRT_2PI) * np.exp(-0.5j * w * t**2) * y
    out[neg] = out[neg, ::-1]
    return out


def shift(u: GridFunction, h: float) -> GridFunction:
    """Periodic translate u(x - h), computed as the inverse transform of
    u_hat(p) e^{-iph}.  Unitary in L2; exact for band-limited data."""
    uh = forward_transform(u)
    shifted = SpectralFunction(u.grid, uh.values * np.exp(-1j * u.grid.p * h))
    return u.real_like(inverse_transform(shifted).values)


def second_derivative(u: GridFunction) -> GridFunction:
    """Spectral second derivative: inverse transform of -p^2 u_hat(p)."""
    uh = forward_transform(u)
    d2 = SpectralFunction(u.grid, -(u.grid.p**2) * uh.values)
    return u.real_like(inverse_transform(d2).values)


def l2_norm(u: GridFunction) -> float:
    return float(np.sqrt(u.grid.dx * np.sum(np.abs(u.values) ** 2)))


def l1_norm(u: GridFunction) -> float:
    return float(u.grid.dx * np.sum(np.abs(u.values)))


def weighted_l1_norm(u: GridFunction) -> float:
    """The norm ||x * u(x)||_L1 on the box."""
    return float(u.grid.dx * np.sum(np.abs(u.grid.x * u.values)))


def second_derivative_norm(u: GridFunction) -> float:
    """||u''||_L2 of the spectral second derivative, by Parseval on one
    forward transform: sqrt(dp * sum p^4 |u_hat|^2)."""
    uh = forward_transform(u).values
    p2 = u.grid.p * u.grid.p
    # squares, not p**4 and np.abs: numpy's general power and complex abs
    # are an order of magnitude slower
    return float(np.sqrt(u.grid.dp * np.sum(p2 * p2 * (uh.real**2 + uh.imag**2))))


def h2_norm(u: GridFunction) -> float:
    """Sobolev norm sqrt(||u||_L2^2 + ||u''||_L2^2), with ||u''|| from
    :func:`second_derivative_norm` (1 FFT)."""
    return float(np.sqrt(l2_norm(u) ** 2 + second_derivative_norm(u) ** 2))


def l2_norm_spectral(uh: SpectralFunction) -> float:
    return float(np.sqrt(uh.grid.dp * np.sum(np.abs(uh.values) ** 2)))


def sup_abs_spectral(uh: SpectralFunction) -> float:
    return float(np.max(np.abs(uh.values)))


# --- serialization -----------------------------------------------------

_CSV_HEADER = ["x", "re", "im"]
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


def write_gridfunction_csv(u: GridFunction, path) -> None:
    """CSV with header x,re,im, one row per sample, 17 significant digits,
    CRLF line ends (the csv module's default dialect).

    The bytes are those of ``'%.17g'`` fields (:func:`write_float_rows`);
    a real u writes its im field as 0, which is what %.17g gives for +0.0.
    """
    with open(path, "wb") as fh:
        fh.write(",".join(_CSV_HEADER).encode() + b"\r\n")
        if u.is_real:
            write_float_rows(fh, (u.grid.x, u.values), b",0\r\n")
        else:
            write_float_rows(fh, (u.grid.x, u.values.real, u.values.imag), b"\r\n")


def read_gridfunction_csv(path, grid: Grid | None = None) -> GridFunction:
    """Read the x,re,im format (CRLF or LF line ends); reconstructs the
    grid from the x column unless one is supplied (then the x column must
    match it).  Every row must hold exactly 3 fields."""
    with open(path) as fh:
        header = [c.strip() for c in fh.readline().split(",")]
        if header != _CSV_HEADER:
            raise ValueError(f"expected header {_CSV_HEADER}, got {header}")
        if not any(line.strip() for line in fh):
            raise ValueError("empty CSV")
        fh.seek(0)
        # numpy's C parser; it raises ValueError on a row whose field count
        # differs from the first row's
        data = np.loadtxt(fh, delimiter=",", skiprows=1, comments=None, ndmin=2)
    if data.shape[1] != 3:
        raise ValueError(f"expected 3 fields per row, got {data.shape[1]}")
    x, real, imag = data.T
    if grid is None:
        grid = make_grid(-x[0], len(x))
    if len(x) != grid.N or not np.allclose(x, grid.x, rtol=0, atol=1e-9 * max(1.0, grid.L)):
        raise ValueError("x column does not match the expected uniform grid")
    if np.all(imag == 0.0):
        return GridFunction(grid, real)
    vals = real.astype(np.complex128)
    vals.imag = imag
    return GridFunction(grid, vals)
