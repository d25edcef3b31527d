import numpy as np
import pytest

from shiftspec import symbols
from shiftspec.errors import NearSingularGrid, ShiftSpecError
from shiftspec.linear import resonant_aligned_half_length
from shiftspec.spectral import fft_frequencies, make_grid
from shiftspec.symbols import (
    FredholmClass,
    FredholmKind,
    ShiftParams,
    classify,
    estimate_alpha,
    inverse_symbol,
    inverse_symbol_on_grid,
    symbol,
    symbol_modulus_sq,
    symbol_on_grid,
)

# dense-grid oracle minima of |lambda|^2 (step 1e-5 over [-4, 4], refined)
ALPHA_1_PI = 0.900738893197  # minimizer near p = +-0.3217
ALPHA_1_1 = 0.489257962441  # minimizer near p = +-0.7185


@pytest.fixture(autouse=True)
def fresh_classify_cache():
    # estimate_alpha reads the memoized classify: a test that patches the
    # modulus must sample afresh, and must leave no patched alpha cached
    classify.cache_clear()
    yield
    classify.cache_clear()


def test_fredholm_class_requires_its_constant():
    with pytest.raises(ValueError, match="alpha > 0"):
        FredholmClass(kind=FredholmKind.NON_RESONANT, alpha=0.0)
    with pytest.raises(ValueError, match="nonzero index"):
        FredholmClass(kind=FredholmKind.RESONANT, n=0)
    assert FredholmClass(kind=FredholmKind.NON_RESONANT, alpha=5e-324).alpha == 5e-324


def test_inverse_symbol_near_singular_bound_is_strict(monkeypatch):
    # a non-resonant classification whose alpha/2 equals the grid's
    # smallest |lambda|^2 exactly divides; a larger alpha is refused
    params = ShiftParams(1.0, 1.0)
    g = make_grid(20.0, 64)
    smallest = float(np.min(symbol_modulus_sq(g.p, params)))
    for alpha, refused in ((2.0 * smallest, False), (np.nextafter(2.0 * smallest, np.inf), True)):
        fake = FredholmClass(kind=FredholmKind.NON_RESONANT, alpha=alpha)
        monkeypatch.setattr(symbols, "classify", lambda p, fake=fake: fake)
        if refused:
            with pytest.raises(NearSingularGrid):
                inverse_symbol(g.p, params)
        else:
            assert np.array_equal(inverse_symbol(g.p, params), 1.0 / symbol(g.p, params))


def test_params_validation():
    with pytest.raises(ValueError):
        ShiftParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ShiftParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        ShiftParams(1.0, 0.0)


def test_symbol_values():
    assert symbol(0.0, ShiftParams(2.0, 1.0)) == pytest.approx(-2.0 + 0.0j)
    assert symbol(1.0, ShiftParams(1.0, np.pi)) == pytest.approx(2.0 + 0.0j, abs=1e-15)
    # resonant zero: h = 2*pi/sqrt(4) = pi
    assert abs(symbol(2.0, ShiftParams(4.0, np.pi))) <= 1e-14


def test_symbol_modulus_values():
    assert symbol_modulus_sq(1.0, ShiftParams(1.0, np.pi)) == pytest.approx(4.0)
    for a, h in [(0.5, 1.0), (3.0, -2.0)]:
        assert symbol_modulus_sq(0.0, ShiftParams(a, h)) == pytest.approx(a**2)
    assert symbol_modulus_sq(1.0, ShiftParams(1.0, 2 * np.pi)) <= 1e-20


def test_symbol_identity_random():
    rng = np.random.default_rng(100)
    p = rng.uniform(-30, 30, 100_000)
    a = rng.uniform(0.1, 100, 100_000)
    h = rng.uniform(-10, 10, 100_000)
    lam = p**2 - a * np.cos(p * h) + 1j * a * np.sin(p * h)
    direct = np.abs(lam) ** 2
    expanded = (p**2 - a) ** 2 + 2 * a * p**2 * (1 - np.cos(p * h))
    assert np.all(np.abs(direct - expanded) <= 1e-12 * np.maximum(direct, 1.0))


def test_resonant_modulus_machine_zero():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.uniform(0.1, 100)
        n = rng.choice([-3, -2, -1, 1, 2, 3])
        params = ShiftParams(a, 2 * np.pi * n / np.sqrt(a))
        r = np.sqrt(a)
        assert symbol_modulus_sq(r, params) <= 1e-20 * max(1.0, a**2)
        assert symbol_modulus_sq(-r, params) <= 1e-20 * max(1.0, a**2)


def test_inverse_symbol_drops_only_resonant_bins():
    # aligned grid: +-sqrt(a) = +-2 are dual-grid points, where 1/lambda
    # would be ~1e16 without the guard
    params = ShiftParams(4.0, np.pi)
    g = make_grid(resonant_aligned_half_length(4.0, 20.0), 256)
    inv = inverse_symbol(g.p, params)
    zero = np.abs(np.abs(g.p) - 2.0) <= 1e-12
    assert np.count_nonzero(zero) == 2
    assert np.all(inv[zero] == 0)
    np.testing.assert_allclose(inv[~zero], 1.0 / symbol(g.p[~zero], params), rtol=1e-14)
    off = ShiftParams(4.0, 1.0)
    np.testing.assert_allclose(inverse_symbol(g.p, off), 1.0 / symbol(g.p, off), rtol=1e-14)
    # the guard scales with a^2: at a = 1e4 the rounded |lambda(+-100)|^2
    # is 1.3e-23, far below 1e-16*a^2 though above 1e-16/a^2
    params = ShiftParams(1e4, 2 * np.pi / 100.0)
    g = make_grid(resonant_aligned_half_length(1e4, 0.2), 256)
    inv = inverse_symbol(g.p, params)
    zero = np.abs(np.abs(g.p) - 100.0) <= 1e-9
    assert np.count_nonzero(zero) == 2 and np.all(inv[zero] == 0)
    np.testing.assert_allclose(inv[~zero], 1.0 / symbol(g.p[~zero], params), rtol=1e-14)


@pytest.mark.parametrize(
    "a,h,kind,n",
    [
        (4.0, np.pi, FredholmKind.RESONANT, 1),
        (1.0, 1.0, FredholmKind.NON_RESONANT, None),
        (1.0, 4 * np.pi, FredholmKind.RESONANT, 2),
        (1.0, -2 * np.pi, FredholmKind.RESONANT, -1),
        (2.0, 1.0, FredholmKind.NON_RESONANT, None),
    ],
)
def test_classify_examples(a, h, kind, n):
    cls = classify(ShiftParams(a, h))
    assert cls.kind is kind
    assert cls.n == n
    if kind is FredholmKind.NON_RESONANT:
        assert cls.alpha > 0


def test_classify_tol_precondition(monkeypatch):
    # a shift at exactly the resonance tolerance from a resonance is
    # resonant, one ulp of tolerance less is not
    params = ShiftParams(1.0, 2 * np.pi + 1e-3)
    dist = symbols.nearest_resonance(params)[1]
    for tol, n in ((dist, 1), (np.nextafter(dist, 0.0), None)):
        monkeypatch.setattr(symbols, "default_resonance_tol", lambda p, tol=tol: tol)
        classify.cache_clear()
        assert classify(params).n == n
        classify.cache_clear()


def test_classify_alone_decides_resonance():
    # h = 200*pi + 5e-8 is within the default tolerance 6.3e-7 of the
    # resonance n = 100: classify calls it Resonant, and estimate_alpha,
    # which reads classify, refuses it
    params = ShiftParams(1.0, 200 * np.pi + 5e-8)
    assert classify(params).n == 100
    with pytest.raises(ValueError, match=r"resonant parameters \(n=100\)"):
        estimate_alpha(params)


def test_estimate_alpha_is_the_memoized_classify_alpha(monkeypatch):
    # one sampling serves classify and estimate_alpha; classify's own
    # refusals pass through unchanged
    calls = []
    sample = symbols._sampled_alpha
    monkeypatch.setattr(symbols, "_sampled_alpha", lambda p: calls.append(p) or sample(p))
    params = ShiftParams(2.0, 1.0)
    assert estimate_alpha(params) == classify(params).alpha == estimate_alpha(params)
    assert calls == [params]
    for h in (1e308, np.pi / 1e-9):
        with pytest.raises(ValueError, match=r"1e9\*pi"):
            estimate_alpha(ShiftParams(1.0, h))


def test_classify_default_tolerance_bound_is_strict():
    # 1e-9*h equals pi/sqrt(a) exactly at a = 1, h = pi/1e-9: refused, as
    # it would leave two resonance indices within the tolerance; one ulp
    # below is classified (Resonant, n = 5e8)
    h = np.pi / 1e-9
    assert symbols.default_resonance_tol(ShiftParams(1.0, h)) == np.pi
    with pytest.raises(ValueError):
        classify(ShiftParams(1.0, h))
    assert classify(ShiftParams(1.0, np.nextafter(h, 0.0))).n == 500_000_000


def test_classify_shift_by_period():
    # adding 2*pi/sqrt(a) to a resonant h increments the index
    for a, n in [(1.0, 1), (4.0, 2), (0.25, -3)]:
        h = 2 * np.pi * n / np.sqrt(a)
        c1 = classify(ShiftParams(a, h))
        c2 = classify(ShiftParams(a, h + 2 * np.pi / np.sqrt(a)))
        assert c1.is_resonant and c2.is_resonant
        assert c2.n == c1.n + 1


def test_estimate_alpha_oracle_values():
    assert estimate_alpha(ShiftParams(1.0, np.pi)) == pytest.approx(ALPHA_1_PI, abs=1e-6)
    assert estimate_alpha(ShiftParams(1.0, 1.0)) == pytest.approx(ALPHA_1_1, abs=1e-6)
    # six rounds of 8x zoom reach the oracle's 12 digits: measured errors
    # 6.3e-12 and 4.2e-13, against 1.5e-10 and 1.8e-9 with windows that
    # do not shrink as designed
    assert abs(estimate_alpha(ShiftParams(1.0, np.pi)) - ALPHA_1_PI) <= 1e-11
    assert abs(estimate_alpha(ShiftParams(1.0, 1.0)) - ALPHA_1_1) <= 1e-11


def test_estimate_alpha_upper_bound_at_origin():
    # |lambda(0)|^2 = a^2 always bounds the minimum from above
    val = estimate_alpha(ShiftParams(1.0, 1.0))
    assert 0 < val <= 1.0


def test_estimate_alpha_rejects_resonant():
    with pytest.raises(ValueError):
        estimate_alpha(ShiftParams(4.0, np.pi))
    # h exactly at the default tolerance 1e-9 below the resonance
    # 2*pi/sqrt(a) = 2.5e-9 counts as resonant, for classify too
    params = ShiftParams(6.25e18, 2.0 * np.pi / 2.5e9 - 1e-9)
    assert symbols.nearest_resonance(params) == (1, symbols.default_resonance_tol(params))
    with pytest.raises(ValueError, match="resonant parameters"):
        estimate_alpha(params)
    assert classify(params).n == 1
    # 1.5 tolerances away at a = 3 the sampled minimum, 7.5e-18, is below
    # the machine-zero floor 1e-18*a^2
    h = 2.0 * np.pi / np.sqrt(3.0)
    with pytest.raises(ValueError, match="machine zero"):
        estimate_alpha(ShiftParams(3.0, h + 1.5e-9 * h))


def full_window_alpha(params):
    """The reference: the sampled minimum over all of [0, P], every
    coarse sample and every window around a sampled local minimum."""
    P = 2.0 * (1.0 + params.sqrt_a)
    n = max(4097, int(8.0 * P * abs(params.h) / (2.0 * np.pi)) + 1)
    p = np.arange(n) * (P / (n - 1))
    p[-1] = P
    v = symbol_modulus_sq(p, params)
    lowest = np.ones(n, bool)
    lowest[1:-1] = (v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])
    i = np.flatnonzero(lowest)
    lo, hi = p[np.maximum(i - 1, 0)], p[np.minimum(i + 1, n - 1)]
    return min(float(v.min()), symbols._refined_minimum(lo, hi, params, P))


def test_band_search_matches_the_full_window_scan():
    # the search skips only samples and windows above U, a value of
    # |lambda|^2: bit for bit the full scan's alpha when that is at most
    # U, which it is for every |h| <= 2.5 drawn, and never above it
    rng = np.random.default_rng(33)
    lower = 0
    for large in (False,) * 60 + (True,) * 40:
        h = 10 ** rng.uniform(0.4, 4.0) if large else rng.uniform(0.01, 2.5)
        params = ShiftParams(float(10 ** rng.uniform(-2.0, 2.0)), float(rng.choice([-h, h])))
        alpha, reference = estimate_alpha(params), full_window_alpha(params)
        assert alpha.hex() == reference.hex() or large and alpha < reference, params
        lower += alpha != reference
    # large shifts, where the full scan can miss the minimum between samples
    assert lower > 0


def test_band_search_samples_a_few_hundred_points_at_any_shift(monkeypatch):
    # the work does not grow with |h|, where a scan of all of [0, P]
    # takes 1.7e7 samples at (1, 3.29e6) and 2.5e9 at (1, 5e8).  Measured:
    # 210 and 826 samples, the band at 5e8 widened by the round-off in
    # cos(ph) at U's points.  A call that would sample the window whole
    # fails before it evaluates
    real = symbols.symbol_modulus_sq
    counts = []

    def count(p, params):
        counts.append(np.size(p))
        if np.size(p) > 10_000:
            raise AssertionError(f"{np.size(p)} samples in one call")
        return real(p, params)

    monkeypatch.setattr(symbols, "symbol_modulus_sq", count)
    for h, full_scan in ((3.29e6, 8.3635e-13), (-5e8, None)):
        counts.clear()
        alpha = estimate_alpha(ShiftParams(1.0, h))
        assert 0 < sum(counts) <= 1000, (h, counts)
        # the full scan's value at (1, 3.29e6); a long-double scan gave
        # 8.2136e-13
        assert full_scan is None or alpha <= full_scan


def test_band_search_takes_every_sample_within_two_steps_of_the_band(monkeypatch):
    # a coarse window [p_{i-1}, p_{i+1}] refines less than step/7 past its
    # ends, so the search must take, as candidate minima, the samples
    # within two steps of the band |p^2 - a| <= sqrt(U), U the least
    # |lambda|^2 at p = 0 and at the points next to sqrt(a) where
    # cos(ph) = 1; it reads one more on each side
    real = symbols.symbol_modulus_sq
    calls = []
    monkeypatch.setattr(
        symbols, "symbol_modulus_sq", lambda p, params: calls.append(p) or real(p, params)
    )
    for a, h in ((1.0, 3.29e6), (2.0, 1.0), (0.5, -40.0), (30.0, 700.0)):
        params = ShiftParams(a, h)
        calls.clear()
        estimate_alpha(params)
        k = np.sqrt(a) * abs(h) / (2.0 * np.pi)
        ones = 2.0 * np.pi * np.array([0.0, np.floor(k), np.ceil(k)]) / abs(h)
        U = float(real(ones, params).min())
        # the coarse samples: the one evenly spaced 1-D call of more than
        # three points (the refinement windows are 2-D)
        (p,) = [
            c for c in calls if c.ndim == 1 and len(c) > 3 and np.allclose(np.diff(c), c[1] - c[0])
        ]
        step = p[1] - p[0]
        lo, hi = np.sqrt(max(a - np.sqrt(U), 0.0)), np.sqrt(a + np.sqrt(U))
        assert p[0] == 0.0 or p[0] < lo - 2.0 * step, (a, h)
        assert p[-1] > hi + 2.0 * step, (a, h)


def test_estimate_alpha_window_check_raises(monkeypatch):
    # a sampled minimum above (P^2 - a)^2 means the window [0, P] missed
    # the minimum; an internal fault, not an assert that python -O strips
    real = symbols.symbol_modulus_sq
    # at a = 1, P = 4 and (P^2 - a)^2 = 225: a minimum lifted by 250 is
    # above it, though below (P^2 + a)^2 = 289
    for lift in (1e6, 250.0):
        monkeypatch.setattr(
            symbols, "symbol_modulus_sq", lambda p, params, lift=lift: real(p, params) + lift
        )
        with pytest.raises(ShiftSpecError, match="window"):
            estimate_alpha(ShiftParams(1.0, 1.0))


def test_thresholds_on_a_patched_modulus(monkeypatch):
    # |lambda|^2 replaced by functions that sit exactly on the rules' edges
    real = symbols.symbol_modulus_sq

    def patch(f):
        monkeypatch.setattr(symbols, "symbol_modulus_sq", f)
        classify.cache_clear()

    # flat samples count as local minima: a dip narrower than the coarse
    # spacing 2**-10, between two samples that all read 3.0, is refined
    c = 1000.5 / 1024
    patch(lambda p, params: 3.0 - 2.0 * np.exp(-(((p - c) * 2**15) ** 2)))
    assert estimate_alpha(ShiftParams(1.0, 1.0)) == 1.0
    # a sampled minimum at the machine-zero floor 1e-18*max(1, a^2) is kept
    patch(lambda p, params: np.full(np.shape(p), 1e-18))
    assert estimate_alpha(ShiftParams(1.0, 1.0)) == 1e-18
    # a resonant bin at the guard RESONANT_BIN_GUARD*a^2 itself is divided
    params = ShiftParams(4.0, np.pi)
    g = make_grid(resonant_aligned_half_length(4.0, 20.0), 256)
    at_root = np.abs(np.abs(g.p) - 2.0) <= 1e-12
    patch(lambda p, params: np.where(at_root, 1e-16 * 16.0, real(p, params)))
    assert np.all(inverse_symbol(g.p, params)[at_root] != 0)


def test_alpha_is_lower_bound_on_samples():
    rng = np.random.default_rng(77)
    for _ in range(25):
        a = rng.uniform(0.1, 50)
        h = rng.uniform(0.1, 5)
        params = ShiftParams(a, h)
        cls = classify(params)
        if cls.is_resonant:
            continue
        p = rng.uniform(-50, 50, 20_000)
        assert np.all(symbol_modulus_sq(p, params) >= cls.alpha * (1 - 1e-6))


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def random_grid_cases(seed, count=30):
    """(grid, params) with N = 8 .. 2**17 (each twice), alternately a
    resonant shift on a grid aligned so that +-sqrt(a) are grid bins and
    a non-resonant one on any L."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        N = 2 ** (3 + i % 15)
        a = float(rng.uniform(0.05, 30.0))
        if i % 2:
            n = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            params = ShiftParams(a, 2 * np.pi * n / np.sqrt(a))
            L = resonant_aligned_half_length(a, float(rng.uniform(2.0, 80.0)))
        else:
            params = ShiftParams(a, float(rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0])))
            L = float(rng.uniform(2.0, 80.0))
        yield make_grid(L, N), params


def grid_symbol_cases(case):
    """(grid, params) of a test case: random_grid_cases of a seed, or one
    input whose table has underflowing zero parts at paired bins."""
    if case == "symbol":
        # a*sin(ph) underflows: lambda has +0 imaginary parts (classify
        # refuses these parameters, so no inverse exists)
        return [(make_grid(40.0, 64), ShiftParams(1.0, 5e-324))]
    if case == "inverse":
        # 1/lambda underflows in its imaginary part at the high bins
        return [(make_grid(1e-7, 64), ShiftParams(1e-305, 2 * np.pi / np.sqrt(1e-305)))]
    return list(random_grid_cases(int(case)))


@pytest.mark.parametrize("case", ["1", "2", "symbol", "inverse"])
def test_grid_symbols_are_the_formula_on_their_bins(case, monkeypatch):
    # each grid table is the formula at the frequencies of the bins that
    # read it, N/2 + 1 for a real spectrum and N for a complex one, and
    # evaluates it there only: bit for bit, the resonant zeros +0+0j and
    # the underflowing zero parts included; a build that raises stores
    # nothing, so every call raises
    sizes = []
    for name in ("symbol", "symbol_modulus_sq"):
        formula = getattr(symbols, name)
        counted = lambda p, params, formula=formula: sizes.append(np.size(p)) or formula(p, params)
        monkeypatch.setattr(symbols, name, counted)
    singular_seen = 0
    for grid, params in grid_symbol_cases(case):
        for bins in (grid.N // 2 + 1, grid.N):
            p = fft_frequencies(grid, bins)
            lam = symbol(p, params)
            try:
                want = inverse_symbol(p, params)
            except (NearSingularGrid, ValueError) as exc:
                want = exc
            sizes.clear()
            assert same_bits(symbol_on_grid(grid, params, bins), lam)
            assert sizes == [bins]
            if isinstance(want, Exception):
                for _ in range(2):
                    with pytest.raises(type(want)):
                        inverse_symbol_on_grid(grid, params, bins)
                continue
            got = inverse_symbol_on_grid(grid, params, bins)
            assert same_bits(got, want) and set(sizes) == {bins}
            zeros = np.flatnonzero(want == 0)
            assert not np.any(np.signbit(got[zeros].real) | np.signbit(got[zeros].imag))
            singular_seen += len(zeros) == 2 and zeros[1] == grid.N - zeros[0]
        underflowing = {"symbol": lam, "inverse": want}.get(case)
        if underflowing is not None:
            assert np.any(underflowing.imag[1 : grid.N // 2] == 0)
    if case in ("1", "2"):
        assert singular_seen >= 5
