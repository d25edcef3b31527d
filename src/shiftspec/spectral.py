"""Uniform-grid functions on a symmetric periodic box and their Fourier
transforms in the symmetric 1/sqrt(2*pi) convention.

The box is [-L, L) sampled at N equispaced points x_j = -L + j*dx,
dx = 2L/N.  The dual grid carries the frequencies p_j = pi*j/L for
j = -N/2 .. N/2-1.  The transforms are the trapezoidal discretizations of

    u_hat(p) = (1/sqrt(2*pi)) int u(x) e^{-ipx} dx,
    u(x)     = (1/sqrt(2*pi)) int u_hat(p) e^{+ipx} dp,

which on this grid are exact inverses of each other and exactly unitary
(Parseval with the dx / dp quadrature weights).  Functions are expected
to decay below ~1e-14 at +-L; the periodic surrogate is not claimed to
approximate non-decaying data.

The solve paths and the increasing-p transforms share one core, the only
code that calls ``np.fft``: the unscaled DFT in numpy's FFT order,
:func:`dft` and :func:`idft`.  Bin k holds the frequency k*dp for
k < N/2 and (k - N)*dp from k = N/2 on, so bin N/2 is the unpaired
endpoint -N*pi/(2L) (:func:`fft_frequencies`).  A real input keeps only
bins 0..N/2 (``rfft``, half the work of a complex FFT); a complex one
keeps all N (``fft``), as the input's dtype decides, here only.  A
:class:`GridFunction` carries its own ``spectrum = dft(values)``, taken
on first use and kept as long as the function (1 MB for a real one at
N=131072); a function made by arithmetic starts without one.  The
increasing-p view, :func:`forward_transform`, is the full N-bin DFT
rotated by N/2 times (dx/sqrt(2*pi)) * sign; :func:`inverse_transform`
undoes it with (dp*N/sqrt(2*pi)) * sign.  The two factors multiply to 1
(dx*dp*N = 2*pi, sign*sign = 1), so a multiplier m(p) acts as
idft(m_k * dft(u)) with m at the FFT-order frequencies
(:func:`apply_multiplier`), and a real input reads its first N/2 + 1
entries.  A convolution with a kernel G keeps two factors:
sqrt(2*pi) * G_hat is dx * sign * dft(G), and the sign, (-1)^k in FFT
order, moves the kernel's centre from x_0 = -L to x = 0.

The Nyquist rule.  Bin N/2 has no partner.  A multiplier that is not
real there, such as 1/lambda(-N*pi/(2L)), gives it an imaginary part,
which the inverse of a half spectrum (``irfft``) drops, as taking the
real part of a full inverse does.  Norms by Parseval
(:func:`parseval_weight`) count it once, with its imaginary part, as the
full-spectrum sum does; the paired bins 1..N/2-1 of a half spectrum
count twice.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .textio import read_float_rows, write_float_rows

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Largest number of samples one array of a run may hold: one complex array
# of 2**24 values takes 256 MB
MAX_POINTS = 2**24


@dataclass(frozen=True)
class Grid:
    """Symmetric uniform grid over [-L, L) with its dual frequency grid.

    Attributes
    ----------
    L : float
        Half-length of the box.
    N : int
        Number of samples; even, in [8, 2**24] (:func:`grid_spacing`).
    dx : float
        Spacing 2L/N.
    x : ndarray
        Sample points -L + j*dx, j = 0..N-1.
    p : ndarray
        Frequencies pi*j/L, j = -N/2..N/2-1, strictly increasing.  The
        single unpaired endpoint is -N*pi/(2L).
    sign : ndarray
        (-1)^j for the same j, the phase e^{i*pi*j} of the box offset -L.

    Each grid also memoizes, through :meth:`memo`, the read-only arrays
    that the solve paths derive from it and the shift parameters: the
    symbol lambda(p) and its inverse in FFT order (see the module
    docstring), the window basis of
    ``linear.project_solvable`` and the phase tables of
    :func:`evaluate_transform_at` (kind ``offgrid``).  The memo keeps one
    entry per kind, for the most recent key only, so it holds at most
    four entries: three of O(N) arrays and the off-grid tables,
    2*(B + Q)*P floats for P frequencies with B*Q ~ N.  It holds plain
    arrays that do not refer back to the grid, so it is freed with the
    grid by reference counting; it takes no part in equality, hashing
    or repr.
    """

    L: float
    N: int

    def __post_init__(self):
        dx = grid_spacing(self.L, self.N)
        object.__setattr__(self, "N", int(self.N))
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
        object.__setattr__(self, "_memo", {})

    def memo(self, kind: str, key, build):
        """The value of ``build()`` for (this grid, kind, key), computed once.

        The grid keeps one entry per kind: a call with another key
        rebuilds and replaces it.  ``build`` returns an array or a tuple;
        every array in it is made read-only.  The value must not refer
        to the grid, or the grid could not be freed by reference counting.
        """
        entry = self._memo.get(kind)
        if entry is None or entry[0] != key:
            value = build()
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
            entry = (key, value)
            self._memo[kind] = entry
        return entry[1]

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
        return make_grid(meta["L"], meta["N"])


def grid_spacing(L: float, N: int) -> float:
    """The spacing dx = 2L/N of the grid over [-L, L) with N samples.

    Raises ValueError unless N is an even integer in [8, MAX_POINTS], L
    is positive and finite, and both dx and p_max^4 = (pi/dx)^4, the
    largest weight of :func:`parseval_weight`, are finite: L = 1e308
    overflows 2L, and at N = 64 an L below about 8.7e-76 overflows
    p_max^4.  Allocates nothing; every grid is built through it.
    """
    if N != int(N) or not 8 <= N <= MAX_POINTS or N % 2:
        raise ValueError(f"N must be an even integer in [8, 2**24], got {N}")
    if not np.isfinite(L) or L <= 0:
        raise ValueError(f"half-length L must be positive, got {L}")
    dx = 2.0 * L / N
    with np.errstate(over="ignore", divide="ignore"):
        p_max4 = (np.pi / np.float64(dx)) ** 4
    if not (np.isfinite(dx) and np.isfinite(p_max4)):
        raise ValueError(
            f"half-length L = {L} is out of range for N = {N}: dx = 2L/N and "
            f"p_max^4 = (pi/dx)^4 must be finite, got {dx:.3g} and {p_max4:.3g}"
        )
    return dx


def make_grid(L: float, N: int) -> Grid:
    """Build the grid for the box [-L, L) with N samples (even, in [8, 2**24])."""
    return Grid(L=float(L), N=N)


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

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """:func:`dft` of the values, read-only: the N/2 + 1 bins of a real
        function, all N of a complex one.  Computed on first use and kept;
        the values are read-only and the function frozen, so it cannot go
        stale."""
        s = dft(self.values)
        s.setflags(write=False)
        return s

    def require_same_grid(self, other) -> None:
        """Raise ValueError unless ``other`` lives on this grid."""
        if self.grid != other.grid:
            raise ValueError("grid mismatch between operands")

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

    One full-length :func:`dft`.  Exact inverse of :func:`inverse_transform`;
    unitary in the discrete L2 norms (Parseval), and identical to
    :func:`evaluate_transform_at` at every on-grid frequency.
    """
    grid = u.grid
    s = np.roll(dft(u.values.astype(np.complex128, copy=False)), grid.N // 2)
    return SpectralFunction(grid, (grid.dx / SQRT_2PI) * grid.sign * s)


def inverse_transform(uh: SpectralFunction) -> GridFunction:
    """Inverse of :func:`forward_transform`; returns complex samples."""
    grid = uh.grid
    s = np.roll(grid.sign * uh.values, -(grid.N // 2))
    return GridFunction(grid, (grid.dp * grid.N / SQRT_2PI) * idft(s, grid.N))


def dft(values: np.ndarray) -> np.ndarray:
    """Unscaled DFT of grid samples in FFT order: the N/2 + 1 bins of
    ``rfft`` for real values, all N bins of ``fft`` for complex ones."""
    return np.fft.fft(values) if np.iscomplexobj(values) else np.fft.rfft(values)


def idft(spectrum: np.ndarray, N: int) -> np.ndarray:
    """Inverse of :func:`dft` to N samples: real (``irfft``, which drops
    the imaginary parts of bins 0 and N/2) from a half spectrum, complex
    (``ifft``) from a full one."""
    return np.fft.ifft(spectrum) if len(spectrum) == N else np.fft.irfft(spectrum, N)


def fft_frequencies(grid: Grid, bins: int) -> np.ndarray:
    """The frequencies of the first ``bins`` FFT-order bins: k*dp for
    k < N/2, then (k - N)*dp; the same floats as the matching grid.p."""
    k = np.arange(bins)
    k[grid.N // 2 :] -= grid.N
    return grid.dp * k


def parseval_weight(grid: Grid, bins: int, l2: float = 1.0) -> np.ndarray:
    """Weights w with sqrt(sum w*|s|^2) = sqrt(l2*||u||_L2^2 + ||u''||_L2^2)
    for the spectrum s = dft(u) of ``bins`` bins (N/2 + 1 or N):
    (dx/N)*(l2 + p^4), the paired bins 1..N/2-1 of a half spectrum counted
    twice and bins 0 and N/2 once (see the module docstring)."""
    p2 = fft_frequencies(grid, bins) ** 2
    weight = (grid.dx / grid.N) * (l2 + p2 * p2)
    if bins < grid.N:
        weight[1 : grid.N // 2] *= 2.0
    return weight


def parseval_norm(weight: np.ndarray, spectrum: np.ndarray) -> float:
    """sqrt(sum weight*|spectrum|^2), for a weight from :func:`parseval_weight`.
    Squares, not np.abs: numpy's complex abs is an order of magnitude slower."""
    return float(np.sqrt(np.sum(weight * (spectrum.real**2 + spectrum.imag**2))))


def _offgrid_tables(grid: Grid, p: np.ndarray):
    """Phase tables of :func:`evaluate_transform_at` at the frequencies p.

    With j = q*B + b (B a power of two near sqrt(N), Q = ceil(N/B) rows),
    e^{-i p x_j} = e^{-i p b dx} e^{-i p (q*B - N/2) dx}.  Returns the
    (B, 2P) table of the first factor as interleaved cos and -sin
    columns and the complex (P, Q) table of the second."""
    B = 1 << (grid.N.bit_length() // 2)
    pdx = p * grid.dx
    inner = np.outer(np.arange(B), pdx)
    outer = np.outer(pdx, np.arange(0, grid.N, B) - grid.N // 2)
    inner = np.stack([np.cos(inner), -np.sin(inner)], axis=-1).reshape(B, -1)
    return inner, np.cos(outer) - 1j * np.sin(outer)


def evaluate_transform_at(u: GridFunction, p):
    """Transform at arbitrary (generally off-grid) frequencies: the
    trapezoidal sum (dx/sqrt(2*pi)) * sum_j u(x_j) e^{-i p x_j} of
    (1/sqrt(2*pi)) int u(x) e^{-ipx} dx over the periodic box.

    Accepts a scalar (gives a complex) or an array of P frequencies
    (gives a flat array).  Warns when |p| exceeds the resolvable band,
    and raises ValueError when a frequency is not finite.
    The samples, zero-padded to Q rows of B (:func:`_offgrid_tables`),
    are summed over b by one BLAS product and then over q against the
    row phases: O(N*P) time, O((B + Q)*P) memory, no FFT.  The grid
    memoizes the tables for the most recent frequencies.  Subnormal
    samples count as zero: that moves a value by less than
    N*dx*2.3e-308 and keeps the BLAS product off its slow path.
    """
    p_arr = np.asarray(p, dtype=np.float64).ravel()
    grid = u.grid
    # one comparison finds both: NaN is not in the band either
    if not np.all(np.abs(p_arr) <= grid.p_max * (1.0 + 1e-12)):
        if not np.all(np.isfinite(p_arr)):
            raise ValueError(f"frequencies p must be finite, got {p}")
        warnings.warn(
            f"frequency beyond the resolvable band |p| <= {grid.p_max:.6g}; "
            "quadrature values there alias",
            RuntimeWarning,
            stacklevel=2,
        )
    inner, outer = grid.memo("offgrid", p_arr.tobytes(), lambda: _offgrid_tables(grid, p_arr))
    B, Q = inner.shape[0], outer.shape[1]
    parts = (u.values,) if u.is_real else (u.values.real, u.values.imag)
    rows = np.zeros((len(parts), Q * B))
    rows[:, : grid.N] = parts
    rows[np.abs(rows) < np.finfo(np.float64).tiny] = 0.0
    # sum_b u_(qB+b) e^{-i p b dx} per part and row q: interleaved
    # (re, im) columns, read as complex without a copy
    rowsums = (rows.reshape(-1, B) @ inner).view(np.complex128).reshape(len(parts), Q, -1)
    # then over q, by numpy's pairwise sum along contiguous (P, Q) rows: a
    # sequential sum carries input changes far below round-off (1e-20 in
    # the tails) into values that are round-off zeros, and the projection
    # coefficients of two nearly equal functions then differ by an ulp
    terms = np.empty((len(parts),) + outer.shape, dtype=np.complex128)
    sums = np.multiply(rowsums.transpose(0, 2, 1), outer, out=terms).sum(axis=-1)
    out = (grid.dx / SQRT_2PI) * (sums[0] if u.is_real else sums[0] + 1j * sums[1])
    return complex(out[0]) if np.ndim(p) == 0 else out


def transform_at_pm(u: GridFunction, r: float) -> tuple[complex, complex]:
    """The pair (u_hat(r), u_hat(-r)): :func:`evaluate_transform_at` at
    [r, -r].  Warns when |r| exceeds the resolvable band."""
    plus, minus = evaluate_transform_at(u, [float(r), -float(r)])
    return complex(plus), complex(minus)


def apply_multiplier(u: GridFunction, m: np.ndarray) -> GridFunction:
    """idft(m * u.spectrum) for m at the N FFT-order frequencies: a real u
    reads the first N/2 + 1 and gives a real result, exact if m(-p) = conj(m(p))."""
    return GridFunction(u.grid, idft(m[: len(u.spectrum)] * u.spectrum, u.grid.N))


def shift(u: GridFunction, h: float) -> GridFunction:
    """Periodic translate u(x - h), the multiplier e^{-iph}.  Unitary in
    L2; exact for band-limited data."""
    return apply_multiplier(u, np.exp(-1j * fft_frequencies(u.grid, u.grid.N) * h))


def second_derivative(u: GridFunction) -> GridFunction:
    """Spectral second derivative, the multiplier -p^2."""
    return apply_multiplier(u, -(fft_frequencies(u.grid, u.grid.N) ** 2))


def l2_norm(u: GridFunction) -> float:
    """sqrt(dx * sum |u_j|^2); a real u sums u_j*u_j, the same bits."""
    v = u.values
    return float(np.sqrt(u.grid.dx * np.sum(v * v if u.is_real else np.abs(v) ** 2)))


def l1_norm(u: GridFunction) -> float:
    return float(u.grid.dx * np.sum(np.abs(u.values)))


def weighted_l1_norm(u: GridFunction) -> float:
    """The norm ||x * u(x)||_L1 on the box."""
    return float(u.grid.dx * np.sum(np.abs(u.grid.x * u.values)))


def second_derivative_norm(u: GridFunction) -> float:
    """||u''||_L2 of the spectral second derivative, by Parseval on one
    transform: sqrt(dp * sum p^4 |u_hat|^2), from ``u.spectrum``."""
    s = u.spectrum
    return parseval_norm(parseval_weight(u.grid, len(s), l2=0.0), s)


def h2_norm(u: GridFunction) -> float:
    """Sobolev norm sqrt(||u||_L2^2 + ||u''||_L2^2), with ||u''|| from
    :func:`second_derivative_norm` (1 FFT, none if ``u.spectrum`` is taken)."""
    return float(np.sqrt(l2_norm(u) ** 2 + second_derivative_norm(u) ** 2))


def l2_norm_spectral(uh: SpectralFunction) -> float:
    return float(np.sqrt(uh.grid.dp * np.sum(np.abs(uh.values) ** 2)))


def sup_abs_spectral(uh: SpectralFunction) -> float:
    return float(np.max(np.abs(uh.values)))


# --- serialization -----------------------------------------------------

_CSV_HEADER = ["x", "re", "im"]


def write_gridfunction_csv(u: GridFunction, path) -> None:
    """CSV with header x,re,im, one row per sample, 17 significant digits
    (:func:`~shiftspec.textio.write_float_rows`), CRLF line ends (the csv
    module's default dialect).  A real u writes its im field as 0, the
    text of +0.0.
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
    x, real, imag = read_float_rows(path, _CSV_HEADER)
    if grid is None:
        grid = make_grid(-x[0], len(x))
    if len(x) != grid.N or not np.allclose(x, grid.x, rtol=0, atol=1e-9 * max(1.0, grid.L)):
        raise ValueError("x column does not match the expected uniform grid")
    if np.all(imag == 0.0):
        return GridFunction(grid, real)
    vals = real.astype(np.complex128)
    vals.imag = imag
    return GridFunction(grid, vals)
