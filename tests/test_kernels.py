import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import shiftspec
from shiftspec import kernels, linear
from shiftspec.errors import ShiftSpecError
from shiftspec.kernels import contraction_margin, kernel_orthogonality, stability_constant
from shiftspec.linear import check_solvability, resonant_aligned_half_length, solve_linear
from shiftspec.nonlinear import Nonlinearity, fixed_point_solve
from shiftspec.spectral import (
    SQRT_2PI,
    GridFunction,
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
    ],
    ids=["nonresonant", "coarse-masked", "resonant-orthogonal", "resonant-not-orthogonal"],
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
