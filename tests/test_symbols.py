import numpy as np
import pytest

from shiftspec import symbols
from shiftspec.errors import ShiftSpecError
from shiftspec.linear import resonant_aligned_half_length
from shiftspec.spectral import make_grid
from shiftspec.symbols import (
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


def test_estimate_alpha_upper_bound_at_origin():
    # |lambda(0)|^2 = a^2 always bounds the minimum from above
    val = estimate_alpha(ShiftParams(1.0, 1.0))
    assert 0 < val <= 1.0


def test_estimate_alpha_rejects_resonant():
    with pytest.raises(ValueError):
        estimate_alpha(ShiftParams(4.0, np.pi))


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
    assert symbols.alpha_sample_count(ShiftParams(1.0, bound / 2 * (1 - 1e-9))) == 2**24
    assert symbols.alpha_sample_count(ShiftParams(1.0, 1.0)) == 4097


def test_estimate_alpha_window_check_raises(monkeypatch):
    # a sampled minimum above (P^2 - a)^2 means the window [0, P] missed
    # the minimum; an internal fault, not an assert that python -O strips
    real = symbols.symbol_modulus_sq
    monkeypatch.setattr(symbols, "symbol_modulus_sq", lambda p, params: real(p, params) + 1e6)
    with pytest.raises(ShiftSpecError, match="window"):
        estimate_alpha(ShiftParams(1.0, 1.0))


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
