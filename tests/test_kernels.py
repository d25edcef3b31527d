import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import shiftspec
from shiftspec import kernels, linear
from shiftspec.catalog import builtin_function
from shiftspec.errors import ShiftSpecError
from shiftspec.kernels import contraction_margin, kernel_orthogonality, stability_constant
from shiftspec.linear import check_solvability, resonant_aligned_half_length, solve_linear
from shiftspec.nonlinear import Nonlinearity, fixed_point_solve, nontriviality_check
from shiftspec.sequences import SequenceKind, SequenceSpec
from shiftspec.spectral import (
    SQRT_2PI,
    GridFunction,
    evaluate_transform_at,
    forward_transform,
    l1_norm,
    make_grid,
    sup_abs_spectral,
)
from shiftspec.symbols import ShiftParams, symbol

RESONANT = ShiftParams(1.0, 2 * np.pi)
NONRESONANT = ShiftParams(1.0, 1.0)

# lambda(1.15) = 1.15^2 - 1 is real and positive at h = 2*pi/1.15, so a
# ten-fold refinement sample there breaks
# |p^2 G_hat/lambda| <= |G_hat| + a*|G_hat/lambda| (L=10: 1.15 lies in
# the refinement block [1, 1 + pi/10])
INCONSISTENT_CASE = """
import numpy as np
from shiftspec import kernels
from shiftspec.errors import ShiftSpecError
from shiftspec.spectral import GridFunction, make_grid
from shiftspec.symbols import ShiftParams

original = kernels.evaluate_transform_at
kernels.evaluate_transform_at = lambda *args: 10.0 * original(*args)
g = make_grid(10.0, 128)
try:
    kernels.stability_constant(GridFunction(g, np.exp(-g.x**2 / 2)), ShiftParams(1.0, 2 * np.pi / 1.15))
except ShiftSpecError:
    print("ShiftSpecError")
"""


@pytest.fixture(scope="module")
def grid():
    return make_grid(40.0, 4096)


def zero_source(grid):
    return Nonlinearity(
        eval=lambda u, x: 0.1 * np.tanh(u),
        k=0.1,
        envelope=GridFunction(grid, np.zeros(grid.N)),
        l=0.1,
    )


# every check of |transform(+-sqrt(a))| against a tolerance
ORTHOGONALITY_CHECKS = {
    "check_solvability": lambda f, tol: check_solvability(f, RESONANT, tol=tol),
    "solve_linear": lambda f, tol: solve_linear(f, RESONANT, tol_orth=tol),
    "kernel_orthogonality": lambda f, tol: kernel_orthogonality(f, 1.0, tol=tol),
    "stability_constant": lambda f, tol: stability_constant(f, RESONANT, tol_orth=tol),
    "fixed_point_solve": lambda f, tol: fixed_point_solve(
        f, zero_source(f.grid), RESONANT, tol_orth=tol
    ),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")], ids=str)
@pytest.mark.parametrize("name", sorted(ORTHOGONALITY_CHECKS))
def test_orthogonality_tolerance_must_be_positive_and_finite(grid, monkeypatch, name, tol):
    # the Hermite function's transform vanishes at +-1, so any positive
    # tolerance passes it; a bad one is rejected with one message before
    # any transform runs, never read as a failed orthogonality check
    f = GridFunction(grid, grid.x**2 * np.exp(-grid.x**2 / 2))
    calls = []
    record = lambda *args, **kw: calls.append(1)
    for module, attr in [
        (np.fft, "fft"),
        (np.fft, "ifft"),
        (np.fft, "rfft"),
        (np.fft, "irfft"),
        (linear, "transform_at_pm"),
        (kernels, "transform_at_pm"),
        (kernels, "evaluate_transform_at"),
    ]:
        monkeypatch.setattr(module, attr, record)
    with pytest.raises(ValueError) as info:
        ORTHOGONALITY_CHECKS[name](f, tol)
    assert str(info.value) == f"orthogonality tolerance must be positive and finite, got {tol}"
    assert calls == []


def _gaussian(N=64):
    g = make_grid(10.0, N)
    return GridFunction(g, np.exp(-(g.x**2)))


def _rhs_spec(M):
    f = _gaussian()
    return SequenceSpec(SequenceKind.RHS, lambda m: f, f, M)


def _nontriviality(threshold):
    G = _gaussian()
    return nontriviality_check(G, zero_source(G.grid), G.grid, threshold)


NAN, INF = float("nan"), float("inf")

# a public entry point, the name of one of its scalar arguments, a call
# that passes that argument a value, and values out of range: each is
# refused by name, not carried into the result
NON_FINITE_SCALARS = [
    ("nontriviality_check", "threshold", _nontriviality, (NAN, INF)),
    ("evaluate_transform_at", "p", lambda v: evaluate_transform_at(_gaussian(), v), (NAN,)),
    ("evaluate_transform_at", "p", lambda v: evaluate_transform_at(_gaussian(), [0, v]), (-INF,)),
    ("kernel_orthogonality", "a", lambda v: kernel_orthogonality(_gaussian(), v), (NAN, INF)),
    ("contraction_margin", "N", lambda v: contraction_margin(v, 0.1), (NAN, INF)),
    ("contraction_margin", "l", lambda v: contraction_margin(0.1, v), (NAN, INF)),
    ("SequenceSpec", "M", _rhs_spec, (NAN, INF)),
    ("resonant_aligned_half_length", "a", lambda v: resonant_aligned_half_length(v, 4.0), (NAN, 0)),
    (
        "resonant_aligned_half_length",
        "target_L",
        lambda v: resonant_aligned_half_length(1.0, v),
        (NAN, INF),
    ),
]
SCALAR_CASES = [(e, arg, call, v) for e, arg, call, values in NON_FINITE_SCALARS for v in values]


@pytest.mark.parametrize(
    "name, call, value",
    [case[1:] for case in SCALAR_CASES],
    ids=[f"{entry}-{name}-{value}" for entry, name, _, value in SCALAR_CASES],
)
def test_non_finite_scalars_are_refused_by_name(name, call, value):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(value)


def test_orthogonality_hermite(grid):
    G = GridFunction(grid, grid.x**2 * np.exp(-grid.x**2 / 2))
    gp, gm, ok = kernel_orthogonality(G, 1.0)
    assert ok
    assert abs(gp) <= 1e-10 and abs(gm) <= 1e-10


def test_orthogonality_gaussian(grid):
    G = GridFunction(grid, np.exp(-grid.x**2 / 2))
    gp, gm, ok = kernel_orthogonality(G, 1.0)
    assert not ok
    assert abs(gp) == pytest.approx(np.exp(-0.5), abs=1e-12)
    assert abs(gm) == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_orthogonality_zero(grid):
    z = GridFunction(grid, np.zeros(grid.N))
    gp, gm, ok = kernel_orthogonality(z, 1.0)
    assert ok and gp == 0 and gm == 0


def test_orthogonality_bound_is_inclusive_at_each_root():
    # a transform exactly at tol passes and one an ulp above it fails, at
    # +sqrt(a) and at -sqrt(a) alike, in kernel_orthogonality,
    # check_solvability and the resonant stability constant: a wave packet
    # e^{ikx} e^{-x^2/2} peaks at p = k, so the larger value is on k's side
    g = make_grid(resonant_aligned_half_length(1.0, 20.0), 512)
    for k in (0.3, -0.3):
        G = GridFunction(g, np.exp(-(g.x**2) / 2 + 1j * k * g.x))
        gp, gm, _ = kernel_orthogonality(G, 1.0)
        top = max(abs(gp), abs(gm))
        assert top == (abs(gp) if k > 0 else abs(gm)) > min(abs(gp), abs(gm))
        assert kernel_orthogonality(G, 1.0, tol=top)[2]
        assert not kernel_orthogonality(G, 1.0, tol=np.nextafter(top, 0.0))[2]
        assert check_solvability(G, RESONANT, tol=top).solvable
        assert not check_solvability(G, RESONANT, tol=np.nextafter(top, 0.0)).solvable
        rep = stability_constant(G, RESONANT, tol_orth=1.0)
        top = max(abs(rep.Ghat_plus), abs(rep.Ghat_minus))
        assert stability_constant(G, RESONANT, tol_orth=top).finite
        assert not stability_constant(G, RESONANT, tol_orth=np.nextafter(top, 0.0)).finite
    with pytest.raises(ValueError, match="a must be positive"):
        kernel_orthogonality(G, 0.0)


@pytest.fixture
def requested(monkeypatch):
    """The frequencies of each evaluate_transform_at call in kernels."""
    calls = []
    original = kernels.evaluate_transform_at
    monkeypatch.setattr(
        kernels, "evaluate_transform_at", lambda u, p: calls.append(p) or original(u, p)
    )
    return calls


def test_refinement_samples_lead_away_from_each_root(requested):
    # stability_constant asks for G_hat at [sqrt(a), -sqrt(a)] and at 65
    # equispaced distances on either side of each root, from e_min (1e-4
    # sqrt(a) when resonant, so the zero itself is left to the caps, and 0
    # otherwise) to one grid step
    g = make_grid(resonant_aligned_half_length(4.0, 20.0), 256)
    G = GridFunction(g, np.exp(-(g.x**2) / 2))
    for params, e_min in ((ShiftParams(4.0, np.pi), 2e-4), (ShiftParams(4.0, 1.0), 0.0)):
        requested.clear()
        stability_constant(G, params)
        p = requested[0]
        assert list(p[:2]) == [2.0, -2.0]
        distances = e_min + (g.dp - e_min) * np.arange(65) / 64
        expected = np.sort(np.concatenate([-distances, distances]))
        for root in (2.0, -2.0):
            near = p[2:][np.sign(p[2:]) == np.sign(root)]
            np.testing.assert_allclose(np.sort(near - root), expected, rtol=0, atol=1e-12)


@pytest.mark.filterwarnings("ignore:kernel transform has not decayed:RuntimeWarning")
def test_refinement_keeps_the_band_edge(requested):
    # the band |p| <= p_max is closed: at L = 3, N = 16 and
    # sqrt(a) = p_max - dp/64, the first refinement sample beyond sqrt(a)
    # lands on p_max exactly and is kept; the 63 beyond it are dropped
    g = make_grid(3.0, 16)
    r = g.p_max - g.dp / 64
    assert np.sqrt(r * r) == r
    stability_constant(GridFunction(g, np.exp(-(g.x**2) / 2)), ShiftParams(r * r, 1.0))
    p = requested[0]
    assert np.max(np.abs(p)) == g.p_max and len(p) == 2 + 4 * 65 - 2 * 63


def test_stability_nonresonant_gaussian(grid):
    G = GridFunction(grid, np.exp(-grid.x**2 / 2))
    rep = stability_constant(G, NONRESONANT)
    assert rep.finite
    assert rep.N == max(rep.sup1, rep.sup2) > 0
    # sup1 <= ||G_hat||_inf / sqrt(alpha) <= ||G||_L1 / sqrt(2 pi alpha)
    alpha = rep.classification.alpha
    assert rep.sup1 <= l1_norm(G) / np.sqrt(2 * np.pi * alpha) * (1 + 1e-9)


def test_stability_resonant_gaussian_not_finite(grid):
    G = GridFunction(grid, np.exp(-grid.x**2 / 2))
    rep = stability_constant(G, RESONANT)
    assert not rep.finite
    assert rep.N is None and rep.sup1 is None and rep.sup2 is None
    assert abs(rep.Ghat_plus) == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_stability_zero_kernel(grid):
    z = GridFunction(grid, np.zeros(grid.N))
    rep = stability_constant(z, NONRESONANT)
    assert rep.finite and rep.N == 0


def test_stability_resonant_orthogonal_kernel():
    g = make_grid(resonant_aligned_half_length(1.0, 40.0), 4096)
    G = GridFunction(g, g.x**2 * np.exp(-g.x**2 / 2))
    rep = stability_constant(G, RESONANT)
    assert rep.finite
    # the singular bins are capped by the difference-quotient bound
    assert rep.sup1 >= rep.weighted_l1_G / (SQRT_2PI * 1.0) - 1e-12


@pytest.mark.parametrize("a", [4.0, 0.25])
def test_stability_resonant_caps_are_the_sups(a):
    # for the hermite gaussian of scale sqrt(a) the difference-quotient caps
    # ||x G||_L1/(sqrt(2*pi)*sqrt(a)) and max|G_hat| + a*cap1 exceed every
    # sampled quotient, so they are the sups; sup2 then sits on the
    # consistency bound max|G_hat| + a*sup1, inside its round-off slack
    g = make_grid(resonant_aligned_half_length(a, 20.0), 1024)
    G = builtin_function("hermite_gaussian", g, {"scale": float(np.sqrt(a))})
    rep = stability_constant(G, ShiftParams(a, 2 * np.pi / np.sqrt(a)))
    assert rep.finite
    assert rep.sup1 == rep.weighted_l1_G / (SQRT_2PI * np.sqrt(a))
    assert rep.sup2 == rep.ghat_sup + a * rep.sup1


def test_stability_resonant_weighted_l1_once(monkeypatch):
    g = make_grid(resonant_aligned_half_length(1.0, 40.0), 4096)
    G = GridFunction(g, g.x**2 * np.exp(-g.x**2 / 2))
    calls = []
    original = kernels.weighted_l1_norm
    monkeypatch.setattr(kernels, "weighted_l1_norm", lambda u: calls.append(1) or original(u))
    rep = stability_constant(G, RESONANT)
    assert rep.finite and len(calls) == 1
    assert rep.weighted_l1_G == original(G)


def _dense_in_band(u, p):
    """Reference for evaluate_transform_at: the dense O(P*N) sum in band,
    and a huge value beyond it that must never reach a sup."""
    p = np.asarray(p, dtype=float)
    out = np.full(p.shape, 1e300, dtype=complex)
    in_band = np.abs(p) <= u.grid.p_max
    phases = np.exp(-1j * np.outer(p[in_band], u.grid.x))
    out[in_band] = (u.grid.dx / SQRT_2PI) * (phases @ u.values)
    return out


@pytest.mark.parametrize(
    "L,N,kernel,params",
    [
        # refinement samples set sup1 and sup2
        (8.0, 64, lambda x: np.exp(-(x**2) / 2), ShiftParams(1.0, 5.9)),
        # coarse grid: the outer block around +6 runs past p_max = 2*pi
        (2.0, 8, lambda x: np.exp(-(x**2)), ShiftParams(36.0, 1.0)),
        (resonant_aligned_half_length(1.0, 40.0), 4096, lambda x: x**2 * np.exp(-(x**2) / 2), RESONANT),
        (resonant_aligned_half_length(1.0, 40.0), 4096, lambda x: np.exp(-(x**2) / 2), RESONANT),
        # |G_hat| peaks at p = -0.5 and |lambda| is least just inside
        # +-sqrt(a): both sups lie between -sqrt(a) and the next grid point
        (8.0, 64, lambda x: np.exp(-(x**2) / 2 - 0.5j * x), ShiftParams(1.0, 6.6)),
    ],
    ids=[
        "nonresonant",
        "coarse-masked",
        "resonant-orthogonal",
        "resonant-not-orthogonal",
        "complex-one-sided",
    ],
)
def test_stability_matches_dense_reference(monkeypatch, L, N, kernel, params):
    g = make_grid(L, N)
    G = GridFunction(g, kernel(g.x))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fast = stability_constant(G, params)
        monkeypatch.setattr(kernels, "evaluate_transform_at", _dense_in_band)
        dense = stability_constant(G, params)
    assert fast.finite == dense.finite
    if not dense.finite:
        assert fast.N is None and fast.sup1 is None and fast.sup2 is None
        return
    for name in ("N", "sup1", "sup2"):
        assert getattr(fast, name) == pytest.approx(getattr(dense, name), rel=1e-12, abs=0)
    if not fast.classification.is_resonant:
        # the documented sample set, rebuilt here: the grid and 65
        # frequencies over one grid step on either side of +-sqrt(a)
        away = g.dp / 64 * np.arange(65)
        r = params.sqrt_a
        p = np.concatenate([g.p, r + away, r - away, -r + away, -r - away])
        p = p[np.abs(p) <= g.p_max]
        q = np.abs(_dense_in_band(G, p)) / np.abs(symbol(p, params))
        assert fast.sup1 == pytest.approx(q.max(), rel=1e-12, abs=0)
        assert fast.sup2 == pytest.approx((p**2 * q).max(), rel=1e-12, abs=0)


def test_inconsistent_refinement_samples_raise(monkeypatch):
    g = make_grid(10.0, 128)
    G = GridFunction(g, np.exp(-(g.x**2) / 2))
    params = ShiftParams(1.0, 2 * np.pi / 1.15)
    assert stability_constant(G, params).finite
    original = kernels.evaluate_transform_at
    monkeypatch.setattr(kernels, "evaluate_transform_at", lambda *args: 10.0 * original(*args))
    with pytest.raises(ShiftSpecError, match="sampled sups"):
        stability_constant(G, params)


def test_inconsistent_refinement_samples_raise_under_optimize():
    # the check must survive python -O, which strips assert statements
    src = str(Path(shiftspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", INCONSISTENT_CASE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ShiftSpecError"


def test_stability_scaling(grid):
    G = GridFunction(grid, np.exp(-grid.x**2 / 2))
    base = stability_constant(G, NONRESONANT)
    for c in (0.25, 3.0, -2.0):
        rep = stability_constant(c * G, NONRESONANT)
        assert rep.N == pytest.approx(abs(c) * base.N, rel=1e-12)


def test_quotient_identity_pointwise(grid):
    # p^2 G_hat/lam == G_hat + a e^{-iph} G_hat/lam at every sampled p
    G = GridFunction(grid, 0.7 * np.exp(-grid.x**2 / 3))
    gh = forward_transform(G).values
    for params in (NONRESONANT, ShiftParams(2.5, 0.7)):
        lam = symbol(grid.p, params)
        lhs = grid.p**2 * gh / lam
        rhs = gh + params.a * np.exp(-1j * grid.p * params.h) * gh / lam
        scale = np.maximum(np.abs(lhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-10


def test_identity_consequence_in_report(grid):
    G = GridFunction(grid, np.exp(-grid.x**2 / 2))
    rep = stability_constant(G, NONRESONANT)
    gh_max = float(np.max(np.abs(forward_transform(G).values)))
    assert rep.sup2 <= gh_max + NONRESONANT.a * rep.sup1 + 1e-9


def test_sup_growth_under_refinement_when_not_orthogonal():
    # the sup of |G_hat/lambda| near +-sqrt(a) diverges when orthogonality
    # fails: box-doubling refinements multiply it by ~2 (measured ratios
    # approach 2 from below; 1.9 is the assertion floor)
    sups = []
    for level in range(4):
        L = (40 * 2**level + 0.5) * np.pi
        N = int(np.ceil(L * 8)) * 2
        g = make_grid(L, N)
        G = GridFunction(g, np.exp(-g.x**2 / 2))
        gh = forward_transform(G).values
        quot = np.abs(gh / symbol(g.p, RESONANT))
        mask = (np.abs(g.p - 1) <= 0.15) | (np.abs(g.p + 1) <= 0.15)
        sups.append(float(quot[mask].max()))
    ratios = [sups[i + 1] / sups[i] for i in range(3)]
    assert all(r >= 1.9 for r in ratios)
    assert sups[3] / sups[0] >= 7.0


def test_contraction_margin_values():
    assert contraction_margin(0.1, 0.5) == pytest.approx(1 - 2 * np.sqrt(np.pi) * 0.05)
    assert contraction_margin(0.1, 0.5) == pytest.approx(0.8227546, abs=1e-6)
    assert contraction_margin(0.0, 123.0) == 1.0
    # boundary: 2*sqrt(pi)*N*l = 1 gives zero margin
    N = 1.0 / (2 * np.sqrt(np.pi))
    assert contraction_margin(N, 1.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        contraction_margin(-1.0, 0.5)


def test_tail_certificate_warning():
    # a kernel that has not decayed at the band edge in frequency:
    # a very narrow spike has a flat, wide transform
    g = make_grid(10.0, 64)
    G = GridFunction(g, np.exp(-g.x**2 * 400))
    with pytest.warns(RuntimeWarning):
        stability_constant(G, NONRESONANT)


def test_tail_certificate_threshold_is_strict():
    # the Nyquist mode c*(-1)^j is all band edge: |G_hat| there is
    # (dx/sqrt(2*pi))*N*c, and c is stepped an ulp at a time until that
    # equals the threshold 1e-14*max(1, max|G_hat|) exactly.  At the
    # threshold nothing is warned; at twice it, the warning is given
    g = make_grid(8.0, 64)
    alt = np.where(np.arange(64) % 2, -1.0, 1.0)
    c = 1e-14 / (g.dx / SQRT_2PI) / 64
    for _ in range(200):
        gh = (g.dx / SQRT_2PI) * np.abs(GridFunction(g, c * alt).spectrum)
        if gh[32] == 1e-14 == gh.max():
            break
        c = np.nextafter(c, np.inf if gh[32] < 1e-14 else 0.0)
    else:
        pytest.fail("no amplitude puts the band edge on the threshold")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stability_constant(GridFunction(g, c * alt), NONRESONANT)
    with pytest.warns(RuntimeWarning, match="band edge"):
        stability_constant(GridFunction(g, 2 * c * alt), NONRESONANT)
    # above max|G_hat| = 1 the threshold scales with it: an edge of 1e-13
    # under a peak of 100 is not warned
    peak = 100.0 / 0.7 * np.exp(-(g.x**2) / (2 * 0.7**2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = stability_constant(GridFunction(g, peak + 10 * c * alt), NONRESONANT)
    assert rep.ghat_sup == pytest.approx(100.0) and rep.tail_sup == pytest.approx(1e-13)


@pytest.mark.parametrize("params", [NONRESONANT, RESONANT])
def test_ghat_sup_is_the_transform_sup(params):
    # finite and not finite reports both carry max|G_hat| over the grid,
    # bit for bit what sup_abs_spectral reads from a separate transform
    g = make_grid(resonant_aligned_half_length(1.0, 20.0), 512)
    G = GridFunction(g, 0.3 * np.exp(-((g.x - 0.5) ** 2)))
    report = stability_constant(G, params)
    assert report.ghat_sup == sup_abs_spectral(forward_transform(G))


@pytest.mark.parametrize("params", [NONRESONANT, RESONANT])
def test_stability_constant_fft_count(fft_calls, params):
    # G_hat on the grid is G.spectrum: one half-length FFT for a real G on
    # first use, none when the same G comes back, one for a new G with
    # the same values; G_hat(+-sqrt(a)) and the refinement samples are one
    # off-grid direct sum, on a fresh grid and a warm one
    g = make_grid(resonant_aligned_half_length(1.0, 20.0), 1024)
    G = GridFunction(g, g.x**2 * np.exp(-(g.x**2) / 2))
    once = [("rfft", 1024)]
    for kernel, ffts in [(G, once), (G, []), (GridFunction(g, G.values), once)]:
        fft_calls.clear()
        assert stability_constant(kernel, params).finite
        assert fft_calls == ffts
