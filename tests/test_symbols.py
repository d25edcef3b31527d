import numpy as np
import pytest

from shiftspec import symbols
from shiftspec.errors import NearSingularGrid, ShiftSpecError
from shiftspec.linear import resonant_aligned_half_length
from shiftspec.spectral import make_grid
from shiftspec.symbols import (
    FredholmClass,
    FredholmKind,
    ShiftParams,
    classify,
    estimate_alpha,
    inverse_symbol,
    symbol,
    symbol_modulus_sq,
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
    cls = classify(ShiftParams(a, h), tol=1e-12)
    assert cls.kind is kind
    assert cls.n == n
    if kind is FredholmKind.NON_RESONANT:
        assert cls.alpha > 0


def test_classify_tol_precondition():
    with pytest.raises(ValueError):
        classify(ShiftParams(1.0, 1.0), tol=np.pi)
    with pytest.raises(ValueError):
        classify(ShiftParams(1.0, 1.0), tol=0.0)
    # the bound pi/sqrt(a) is pi/2 at a = 4
    with pytest.raises(ValueError, match=r"\(0, 1.5708\)"):
        classify(ShiftParams(4.0, 1.0), tol=1.6)
    assert not classify(ShiftParams(4.0, 1.0), tol=1.5).is_resonant
    # a shift at exactly tol from a resonance is resonant
    params = ShiftParams(1.0, 2 * np.pi + 1e-3)
    dist = symbols.nearest_resonance(params)[1]
    assert classify(params, tol=dist).n == 1
    assert not classify(params, tol=np.nextafter(dist, 0.0)).is_resonant


def test_classify_alone_decides_resonance():
    # h = 200*pi + 5e-8 is within the default tolerance 6.3e-7 of the
    # resonance n = 100, but not within an explicit tol = 1e-12: classify
    # then samples the gap (about 2.4e-15), which estimate_alpha, at the
    # default tolerance, refuses as resonant
    params = ShiftParams(1.0, 200 * np.pi + 5e-8)
    cls = classify(params, tol=1e-12)
    assert not cls.is_resonant
    assert 1e-15 < cls.alpha <= symbol_modulus_sq(1.0, params)
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


def test_estimate_alpha_refuses_more_than_2_24_samples(monkeypatch):
    # about 4e8 coarse samples for a = 1e17, h = 0.7 (non-resonant): refused
    # before any array is built; the count just below the cap is allowed
    def refuse(*args, **kwargs):
        raise AssertionError("allocation attempted")

    monkeypatch.setattr(symbols.np, "linspace", refuse)
    for a, h in ((1e17, 0.7), (1.0, 3.3e6)):
        with pytest.raises(ValueError, match=r"more than 2\*\*24"):
            estimate_alpha(ShiftParams(a, h))
    # a count beyond the float range is refused too, not an OverflowError
    with pytest.raises(ValueError, match=r"more than 2\*\*24"):
        symbols.alpha_sample_count(ShiftParams(1e300, 1e300))
    bound = 2**24 * np.pi / 8  # (1 + sqrt(a))*|h| at the cap
    # exactly 2**24 samples are refused: the bound is strict
    at_cap = ShiftParams(1.0, 2**24 * 2 * np.pi / 32)
    with pytest.raises(ValueError, match=r"at 1.68e\+07 points"):
        symbols.alpha_sample_count(at_cap)
    assert symbols.alpha_sample_count(ShiftParams(1.0, bound / 2 * (1 - 1e-9))) == 2**24
    assert symbols.alpha_sample_count(ShiftParams(1.0, 1.0)) == 4097


def test_estimate_alpha_refines_in_blocks_bit_identically(monkeypatch):
    # the coarse samples are np.linspace's, block by block, each minimum
    # is refined on its own and min is exact, so the block size bounds the
    # memory and leaves alpha's bits
    default = symbols._ALPHA_BLOCK
    blocks = []
    refine = symbols._refined_minimum
    monkeypatch.setattr(
        symbols, "_refined_minimum", lambda lo, *args: blocks.append(len(lo)) or refine(lo, *args)
    )
    rng = np.random.default_rng(23)
    cases = [(rng.uniform(0.1, 20.0), rng.uniform(-60.0, 60.0), (1, 10**9)) for _ in range(6)]
    # about 4*h/(2*pi) = 19099 sampled minima over 152790 samples: more
    # than one default block
    cases.append((1.0, 3e4, (1000, 10**9)))
    for a, h, sizes in cases:
        params = ShiftParams(float(a), float(h))
        monkeypatch.setattr(symbols, "_ALPHA_BLOCK", default)
        blocks.clear()
        alpha = estimate_alpha(params)
        n = symbols.alpha_sample_count(params)
        assert max(blocks) <= default and (h != 3e4 or len(blocks) == -(-n // default) > 1)
        # a sampled minimum as the first and as the last sample of a block
        v = symbol_modulus_sq(np.linspace(0.0, 2.0 * (1.0 + params.sqrt_a), n), params)
        minima = np.flatnonzero((v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])) + 1
        middle = int(minima[np.argmin(np.abs(minima - n // 2))])
        for size in (*sizes, middle, middle + 1):
            monkeypatch.setattr(symbols, "_ALPHA_BLOCK", size)
            classify.cache_clear()
            assert estimate_alpha(params).hex() == alpha.hex(), (a, h, size)


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
