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


def write_gridfunction_csv(u: GridFunction, path) -> None:
    """CSV with header x,re,im, one row per sample, 17 significant digits,
    CRLF line ends (the csv module's default dialect)."""
    vals = u.values.astype(np.complex128)
    row = "{:.17g},{:.17g},{:.17g}\r\n".format
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\r\n")
        fh.writelines(map(row, u.grid.x.tolist(), vals.real.tolist(), vals.imag.tolist()))


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
