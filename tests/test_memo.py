"""The per-grid memo of symbol, off-grid phase table, window-basis and
stability-report arrays."""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import shiftspec.symbols
from shiftspec.errors import NearSingularGrid
from shiftspec.kernels import stability_constant
from shiftspec.linear import project_solvable, resonant_aligned_half_length, solve_linear
from shiftspec.nonlinear import Nonlinearity, fixed_point_solve
from shiftspec.spectral import (
    GridFunction,
    evaluate_transform_at,
    fft_frequencies,
    make_grid,
    transform_at_pm,
)
from shiftspec.symbols import (
    FredholmClass,
    FredholmKind,
    ShiftParams,
    classify,
    inverse_symbol,
    inverse_symbol_on_grid,
    symbol,
    symbol_on_grid,
)


def random_cases(seed, count=6):
    """(L, N, params) over random (a, h, N): half of them resonant shifts
    on grids aligned so that +-sqrt(a) are grid frequencies."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        a = float(rng.uniform(0.3, 2.5))
        N = int(rng.choice([64, 256, 1024, 4096]))
        if i % 2:
            n = int(rng.choice([-2, -1, 1, 2]))
            params = ShiftParams(a, 2 * np.pi * n / np.sqrt(a))
            L = resonant_aligned_half_length(a, float(rng.uniform(10.0, 40.0)))
        else:
            params = ShiftParams(a, float(rng.uniform(0.2, 3.0)) * rng.choice([-1.0, 1.0]))
            L = float(rng.uniform(10.0, 40.0))
        cases.append((L, N, params))
    return cases


def fft_p(grid, bins):
    """The first ``bins`` grid frequencies in FFT order, the layout of the
    symbol memo: the same floats as grid.p, rotated."""
    p = fft_frequencies(grid, bins)
    assert same_bits(p, np.fft.ifftshift(grid.p)[:bins])
    return p


def layouts(grid):
    """The bins of a real spectrum and of a complex one."""
    return grid.N // 2 + 1, grid.N


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def stability_frequencies(grid, params):
    # +-sqrt(a) and four 65-point progressions leading away from them, as
    # stability_constant evaluates them
    r = params.sqrt_a
    away = np.array([1.0, -1.0, 1.0, -1.0])
    starts = np.array([r, r, -r, -r]) + 1e-4 * r * away
    steps = away * grid.dp / 64
    return np.concatenate([[r, -r], (starts[:, None] + steps[:, None] * np.arange(65)).ravel()])


def memo_arrays(grid):
    out = []
    for _, value in grid._memo.values():
        out += list(value) if isinstance(value, tuple) else [value]
    return out


def touch_every_entry(grid, params):
    """Run the solve paths that fill the memo for (grid, params); the
    stability constant goes last, so its off-grid tables, the largest,
    stay in the memo."""
    f = GridFunction(grid, np.exp(-grid.x**2 / 2))
    if classify(params).is_resonant:
        f = project_solvable(f, params)
    solve_linear(f, params)
    stability_constant(f, params)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cached_arrays_equal_uncached_bitwise(seed):
    rng = np.random.default_rng(100 + seed)
    for L, N, params in random_cases(seed):
        grid = make_grid(L, N)
        u = GridFunction(grid, rng.standard_normal(N) * np.exp(-grid.x**2 / 8))
        # first call builds (cold), second reads the memo (warm), in each
        # layout; the off-grid values against an equal, fresh grid
        for bins in layouts(grid):
            for _ in range(2):
                p = fft_p(grid, bins)
                assert same_bits(symbol_on_grid(grid, params, bins), symbol(p, params))
                assert same_bits(
                    inverse_symbol_on_grid(grid, params, bins), inverse_symbol(p, params)
                )
                fresh = GridFunction(make_grid(L, N), u.values)
                assert transform_at_pm(u, params.sqrt_a) == transform_at_pm(fresh, params.sqrt_a)
            assert symbol_on_grid(grid, params, bins) is symbol_on_grid(grid, params, bins)
        # the stability frequencies on a warm grid against an equal, fresh one
        p = stability_frequencies(grid, params)
        warm = evaluate_transform_at(u, p)
        assert same_bits(evaluate_transform_at(u, p), warm)
        fresh = make_grid(L, N)
        assert same_bits(evaluate_transform_at(GridFunction(fresh, u.values), p), warm)


def test_params_do_not_share_entries():
    grid = make_grid(resonant_aligned_half_length(1.0, 20.0), 512)
    u = GridFunction(grid, np.exp(-grid.x**2 / 2))
    # different a: different stability frequencies on the same grid
    first, second = ShiftParams(1.0, 1.0), ShiftParams(2.0, 2 * np.pi / np.sqrt(2.0))
    for params in (first, second, first, second):
        fresh = make_grid(grid.L, grid.N)
        ref = GridFunction(fresh, u.values)
        for bins in layouts(grid):
            p = fft_p(grid, bins)
            assert same_bits(symbol_on_grid(grid, params, bins), symbol(p, params))
            assert same_bits(inverse_symbol_on_grid(grid, params, bins), inverse_symbol(p, params))
        p = stability_frequencies(grid, params)
        assert same_bits(evaluate_transform_at(u, p), evaluate_transform_at(ref, p))
        assert stability_constant(u, params) == stability_constant(ref, params)
    resonant = second
    for _ in range(2):
        projected = project_solvable(u, resonant)
        ref = project_solvable(GridFunction(make_grid(grid.L, grid.N), u.values), resonant)
        assert same_bits(projected.values, ref.values)
        # a different a means a different window basis
        other = ShiftParams(4.0, np.pi)
        assert not same_bits(project_solvable(u, other).values, projected.values)


def test_memo_is_bounded_across_params():
    grid = make_grid(resonant_aligned_half_length(1.0, 20.0), 1024)
    touch_every_entry(grid, ShiftParams(1.0, 2 * np.pi))
    kinds = len(grid._memo)
    assert kinds == 5
    tracemalloc.start()
    try:
        held = []
        for i in range(50):
            a = 0.5 + 0.04 * i
            touch_every_entry(grid, ShiftParams(a, 2 * np.pi / np.sqrt(a) if i % 2 else 1.0 + i))
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert len(grid._memo) == kinds
    # one set of entries: the symbol and its inverse are N/2 + 1 complex
    # values each, on the bins of the real inputs that read them, and the
    # two window functions N each (with the window basis's 2x2 matrix);
    # the off-grid tables for a real G's P = 2 + 2*65 frequencies four
    # (B or Q) x P float tables, B = Q = 32 at N = 1024; and the
    # stability tables 2 + 2*65 frequencies, |lambda| at 2*65 of them,
    # and |1/lambda| and p^2 on N/2 + 1 bins, all floats
    one_set = sum(arr.nbytes for arr in memo_arrays(grid))
    half = grid.N // 2 + 1
    offgrid, stability = 8 * 2 * (32 + 32) * (2 + 2 * 65), 8 * (2 + 4 * 65 + 2 * half)
    assert one_set <= 16 * (2 * half + 2 * grid.N + 4) + offgrid + stability
    assert max(held) - held[0] <= one_set + 64 * 1024


def test_real_inputs_hold_no_table_beyond_their_half_spectrum():
    # a real input's spectrum has N/2 + 1 bins, and each grid table is
    # built on the bins that read it: after a linear solve, a fixed-point
    # solve and a stability report of real functions on one grid, no
    # array of the symbol, its inverse or the stability tables is longer
    for params in (ShiftParams(1.0, 1.0), ShiftParams(1.0, 2 * np.pi)):
        grid = make_grid(resonant_aligned_half_length(1.0, 20.0), 1024)
        touch_every_entry(grid, params)
        if not classify(params).is_resonant:
            G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
            F = Nonlinearity(
                eval=lambda u, x: 0.1 * np.tanh(u) + np.exp(-(x**2)),
                k=0.1,
                envelope=GridFunction(grid, np.exp(-grid.x**2)),
                l=0.1,
            )
            fixed_point_solve(G, F, params, tol_h2=1e-8)
        for kind in ("symbol", "inverse_symbol", "stability"):
            value = grid._memo[kind][1]
            sizes = [arr.size for arr in (value if isinstance(value, tuple) else (value,))]
            assert max(sizes) == grid.N // 2 + 1, kind


def test_cached_arrays_are_read_only():
    for L, N, params in random_cases(4, count=4):
        grid = make_grid(L, N)
        touch_every_entry(grid, params)
        arrays = memo_arrays(grid)
        assert arrays
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        for bins in layouts(grid):
            for arr in (
                symbol_on_grid(grid, params, bins),
                inverse_symbol_on_grid(grid, params, bins),
            ):
                with pytest.raises(ValueError):
                    arr[...] = 1.0


def test_memo_stays_out_of_eq_hash_repr():
    warm = make_grid(30.0, 256)
    touch_every_entry(warm, ShiftParams(1.0, 1.0))
    cold = make_grid(30.0, 256)
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert repr(warm) == "Grid(L=30.0, N=256)"


def test_near_singular_grid_raises_on_every_call(monkeypatch):
    grid = make_grid(40.0, 512)
    params = ShiftParams(1.0, 1.0)
    fake = FredholmClass(kind=FredholmKind.NON_RESONANT, alpha=1e6)
    with monkeypatch.context() as m:
        m.setattr(shiftspec.symbols, "classify", lambda params: fake)
        for bins in 2 * layouts(grid):
            with pytest.raises(NearSingularGrid):
                inverse_symbol_on_grid(grid, params, bins)
    for bins in layouts(grid):
        good = inverse_symbol_on_grid(grid, params, bins)
        assert same_bits(good, inverse_symbol(fft_p(grid, bins), params))


def test_memo_is_freed_with_its_grid_without_gc():
    # no reference cycle: the grid goes as soon as its last reference does,
    # with the cycle collector off
    gc.collect()
    gc.disable()
    try:
        for params in (ShiftParams(1.0, 2 * np.pi), ShiftParams(1.0, 1.0)):
            grid = make_grid(resonant_aligned_half_length(1.0, 20.0), 512)
            touch_every_entry(grid, params)
            G = GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2))
            F = Nonlinearity(
                eval=lambda u, x: 0.1 * np.tanh(u) + np.exp(-(x**2)),
                k=0.1,
                envelope=GridFunction(grid, np.exp(-grid.x**2)),
                l=0.1,
            )
            if not classify(params).is_resonant:
                fixed_point_solve(G, F, params, tol_h2=1e-8)
            assert len(grid._memo) == (5 if classify(params).is_resonant else 4)
            ref = weakref.ref(grid)
            del grid, G, F
            assert ref() is None
    finally:
        gc.enable()


def test_threads_sharing_a_grid_get_their_own_params():
    # each call returns the entry for its own key, even while other threads
    # replace the grid's entry with theirs
    grid = make_grid(30.0, 256)
    params = [ShiftParams(1.0 + 0.25 * i, 1.0) for i in range(6)]
    bins = grid.N // 2 + 1
    p = fft_p(grid, bins)
    want = {q: (symbol(p, q), inverse_symbol(p, q)) for q in params}
    errors = []

    def work(offset):
        # an exception raised in a thread only warns, so it is an error too
        try:
            for k in range(300):
                q = params[(offset + k) % len(params)]
                if not same_bits(symbol_on_grid(grid, q, bins), want[q][0]) or not same_bits(
                    inverse_symbol_on_grid(grid, q, bins), want[q][1]
                ):
                    errors.append(q)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
