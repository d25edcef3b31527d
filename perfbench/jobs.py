"""Workloads of the shiftspec benchmark: seeded job streams, their inputs,
and output checks written with numpy alone (no shiftspec code).

Every workload is an endless, deterministic stream of CLI jobs.  Job ``i``
of a run with seed ``s`` is drawn from ``numpy.random.default_rng([s, i])``,
so it does not depend on how many jobs came before it, and no two jobs of
a run share a (grid, params) pair unless a workload says so.  Jobs come in
cycles of a fixed mix; a run always ends on a whole cycle, which keeps the
mix (and so the failure share and the median job) the same on every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)

# The README's solve-nonlinear kernel and nonlinearity, verbatim.
README_G = {"name": "gaussian", "params": {"amplitude": 0.3}}
README_F = {
    "name": "tanh",
    "l": 0.1,
    "k": 0.1,
    "params": {
        "slope": 0.1,
        "offset": {"name": "gaussian", "params": {"sigma": 0.7071067811865476}},
    },
}
README_NONLINEAR = {
    "a": 1.0,
    "h": 1.0,
    "L": 40.0,
    "N": 4096,
    "G": README_G,
    "F": README_F,
    "tol_h2": 1e-10,
    "max_iter": 64,
    "v0": "zero",
}

# Relative tolerances of the output checks.  Each sits orders of magnitude
# above the discrepancies a correct solver shows on these workloads and
# below the 1e-6 perturbations the self-test shows they reject.
LINEAR_RTOL = 1e-10
NONLINEAR_RTOL = 1e-7
SEQUENCE_RTOL = 1e-8
SEQUENCE_ATOL = 1e-10  # times the largest magnitude in the column

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class CheckFailed(Exception):
    """An output that exists but is wrong."""


@dataclass
class Job:
    """One CLI invocation: command, config, CSV inputs and the check that
    its outputs must pass.

    ``csv_inputs`` maps a config key to the samples written to
    ``<key>.csv`` before the job runs; the config then names that file.
    ``known_failure`` is the error type of a documented defect: a job that
    exits 1 with exactly that error counts as failed, but not as a wrong
    output.
    """

    command: str
    config: dict
    check: Callable[[Path, dict], None]
    csv_inputs: dict = field(default_factory=dict)
    known_failure: str | None = None
    label: str = ""

    def materialize(self, jobdir: Path) -> list[str]:
        """Write the inputs into ``jobdir``; returns the CLI argv."""
        jobdir.mkdir(parents=True, exist_ok=True)
        config = dict(self.config)
        for key, (L, values) in self.csv_inputs.items():
            path = jobdir / f"{key}.csv"
            write_csv(path, grid_x(L, len(values)), values)
            config[key] = str(path.resolve())
        cfg_path = jobdir / "config.json"
        cfg_path.write_text(json.dumps(config, sort_keys=True))
        out = jobdir / "out"
        return [self.command, "--config", str(cfg_path), "--out", str(out), "--seed", "0"]


# --- numpy reference code ----------------------------------------------


def grid_x(L, N):
    return -L + (2.0 * L / N) * np.arange(N)


def fft_frequencies(L, N):
    """Frequencies pi*k/L in numpy's FFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(N, d=2.0 * L / N)


def inverse_from_closed_form(uhat, L, N):
    """Samples of (1/sqrt(2 pi)) sum_k uhat(p_k) e^{i p_k x_j} dp on the box,
    with ``uhat`` given in FFT order."""
    k = np.rint(np.fft.fftfreq(N) * N)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    return (np.pi / L) * N / SQRT_2PI * np.fft.ifft(sign * uhat)


def symbol(p, a, h):
    return p**2 - a * np.exp(-1j * p * h)


def write_csv(path, x, values):
    values = np.asarray(values)
    re = values.real.tolist()
    im = (values.imag if np.iscomplexobj(values) else np.zeros_like(values)).tolist()
    rows = map("{!r},{!r},{!r}".format, x.tolist(), re, im)
    Path(path).write_text("x,re,im\n" + "\n".join(rows) + "\n")


def read_csv(path):
    """Columns of a numeric CSV with one header line, as float arrays."""
    lines = Path(path).read_text().splitlines()
    ncol = len(lines[0].split(","))
    cells = ",".join(lines[1:]).split(",")
    return np.array([float(c) if c else np.nan for c in cells]).reshape(-1, ncol).T


def gaussian(x, sigma, center, amplitude):
    return amplitude * np.exp(-((x - center) ** 2) / (2.0 * sigma**2))


def gaussian_hat(p, sigma, center, amplitude):
    return amplitude * sigma * np.exp(-1j * p * center - (sigma * p) ** 2 / 2.0)


def hermite_gaussian_hat(p, scale, amplitude):
    q = p / scale
    return (amplitude / scale) * (1.0 - q**2) * np.exp(-(q**2) / 2.0)


def aligned_half_length(a, target_L=40.0):
    """K*pi/sqrt(a) nearest to target_L: puts +-sqrt(a) on the dual grid."""
    unit = math.pi / math.sqrt(a)
    return max(1, round(target_L / unit)) * unit


def _max_rel_error(got, want, rtol, what):
    scale = float(np.max(np.abs(want)))
    err = float(np.max(np.abs(got - want)))
    if not err <= rtol * scale:
        raise CheckFailed(f"{what}: max error {err:.3e} exceeds {rtol:g} x {scale:.3e}")


def _read_solution(outdir, L, N):
    x, re, im = read_csv(outdir / "solution.csv")
    if len(x) != N or not np.allclose(x, grid_x(L, N), rtol=0.0, atol=1e-9 * L):
        raise CheckFailed("solution.csv does not sample the configured grid")
    return re + 1j * im


# --- checks ------------------------------------------------------------


def check_linear(outdir: Path, config: dict, uhat_closed_form, u_star=None):
    """solution.csv against the solution known in closed form.

    ``uhat_closed_form(p)`` is the transform of the exact solution (the
    right-hand side's closed-form transform divided by the symbol); the
    resonant bins sitting on +-sqrt(a) carry no solution component and are
    dropped, as the solver drops them.  ``u_star`` (manufactured jobs)
    gives the exact solution in x instead; its resonant-bin components
    are then removed from it.
    """
    report = json.loads((outdir / "report.json").read_text())
    if report.get("solvable") is not True:
        raise CheckFailed("report.json does not say solvable")
    a, h, L, N = config["a"], config["h"], config["L"], config["N"]
    p = fft_frequencies(L, N)
    singular = np.abs(symbol(p, a, h)) ** 2 < 1e-16 * a * a
    if u_star is None:
        lam = symbol(p, a, h)
        uhat = np.where(singular, 0.0, uhat_closed_form(p) / np.where(singular, 1.0, lam))
        want = inverse_from_closed_form(uhat, L, N)
    else:
        x = grid_x(L, N)
        want = u_star(x).astype(complex)
        for pk in p[singular]:
            want -= (math.pi / L) / SQRT_2PI * uhat_closed_form(pk) * np.exp(1j * pk * x)
    got = _read_solution(outdir, L, N)
    _max_rel_error(got, want, LINEAR_RTOL, "solution.csv")


def nonlinear_residual(u, config):
    """Relative L2 residual of u'' + a u(x-h) + G * F(u) = 0, computed with
    numpy FFTs from the README kernel and tanh nonlinearity."""
    a, h, L, N = config["a"], config["h"], config["L"], config["N"]
    x = grid_x(L, N)
    dx = 2.0 * L / N
    p = fft_frequencies(L, N)
    G = gaussian(x, 1.0, 0.0, config["G"]["params"]["amplitude"])
    Fp = config["F"]["params"]
    Fu = Fp["slope"] * np.tanh(u) + gaussian(x, Fp["offset"]["params"]["sigma"], 0.0, 1.0)
    uh = np.fft.fft(u)
    d2 = np.fft.ifft(-(p**2) * uh).real
    shifted = np.fft.ifft(uh * np.exp(-1j * p * h)).real
    conv = dx * np.roll(np.fft.ifft(np.fft.fft(G) * np.fft.fft(Fu)).real, -(N // 2))
    return float(np.linalg.norm(d2 + a * shifted + conv) / np.linalg.norm(conv))


def check_nonlinear(outdir: Path, config: dict):
    report = json.loads((outdir / "fixed_point.json").read_text())
    if not report.get("nontrivial"):
        raise CheckFailed("fixed_point.json reports a trivial solution")
    u = _read_solution(outdir, config["L"], config["N"])
    if np.max(np.abs(u.imag)) > 0.0:
        raise CheckFailed("solution.csv is not real")
    res = nonlinear_residual(u.real, config)
    if not res <= NONLINEAR_RTOL:
        raise CheckFailed(f"recomputed relative residual {res:.3e} exceeds {NONLINEAR_RTOL:g}")


_ROW_FIELDS = (
    "input_gap",
    "weighted_gap",
    "solution_gap_h2",
    "solution_gap_l2",
    "d2_gap",
    "multiplier_gap",
    "multiplier_gap_p2",
    "N_m",
)
_TABLE_FIELDS = ("input_gap", "weighted_gap", "solution_gap_h2", "multiplier_gap", "N_m")
_TOP_FIELDS = ("alpha", "N_limit", "q_limit")


def _close(got, want, scale):
    if want is None or got is None:
        return got is None and want is None
    return abs(got - want) <= SEQUENCE_RTOL * abs(want) + SEQUENCE_ATOL * scale


def check_sequence(outdir: Path, reference: dict):
    """summary.json: every check true, numbers equal to the recorded ones to
    round-off; table.csv: the same numbers."""
    summary = json.loads((outdir / "summary.json").read_text())
    failing = sorted(k for k, ok in summary["checks"].items() if ok is not True)
    if failing:
        raise CheckFailed(f"summary.json checks false: {failing}")
    if sorted(summary["checks"]) != sorted(reference["checks"]):
        raise CheckFailed("summary.json carries other checks than recorded")
    for key in _TOP_FIELDS:
        want = reference[key]
        if not _close(summary[key], want, abs(want or 0.0)):
            raise CheckFailed(f"summary.json {key} = {summary[key]!r}, recorded {want!r}")
    rows, ref_rows = summary["rows"], reference["rows"]
    if [r["m"] for r in rows] != [r["m"] for r in ref_rows]:
        raise CheckFailed("summary.json rows differ in m from the recorded ones")
    table = read_csv(outdir / "table.csv")
    if table.shape[1] != len(ref_rows):
        raise CheckFailed("table.csv has another number of rows than recorded")
    for name in _ROW_FIELDS:
        want = [r[name] for r in ref_rows]
        scale = max((abs(w) for w in want if w is not None), default=0.0)
        got = [r[name] for r in rows]
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if not _close(g, w, scale)]
        if name in _TABLE_FIELDS:
            col = table[1 + _TABLE_FIELDS.index(name)]
            got_csv = [None if np.isnan(v) else float(v) for v in col]
            bad += [i for i, (g, w) in enumerate(zip(got_csv, want)) if not _close(g, w, scale)]
        if bad:
            m = ref_rows[bad[0]]["m"]
            raise CheckFailed(f"{name} differs from the recorded value at m={m}")


# --- workloads ---------------------------------------------------------


def _linear_job(rng, N, manufactured, resonant) -> Job:
    a = float(rng.uniform(0.6, 1.6))
    if resonant:
        n = int(rng.choice([-1, 1]))
        h = 2.0 * math.pi * n / math.sqrt(a)
        L = aligned_half_length(a)
    else:
        h = float(rng.uniform(0.5, 2.5)) * float(rng.choice([-1.0, 1.0]))
        L = 40.0
    config = {"a": a, "h": h, "L": L, "N": N}
    sigma, center, amp = rng.uniform(0.7, 1.5), rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0)
    if manufactured:
        # f = -u*'' - a u*(x - h) for a Gaussian u*
        u_star = lambda x: gaussian(x, sigma, center, amp)
        x = grid_x(L, N)
        d2 = ((x - center) ** 2 / sigma**4 - 1.0 / sigma**2) * u_star(x)
        f = -d2 - a * u_star(x - h)
        uhat = lambda p: gaussian_hat(p, sigma, center, amp)
        check = lambda out, cfg: check_linear(out, cfg, uhat, u_star)
        return Job("solve-linear", config, check, csv_inputs={"f": (L, f)}, label=f"linear-csv-{N}")
    if resonant:
        scale = math.sqrt(a)
        config["f"] = {"name": "hermite_gaussian", "params": {"scale": scale, "amplitude": amp}}
        fhat = lambda p: hermite_gaussian_hat(p, scale, amp)
    else:
        config["f"] = {
            "name": "gaussian",
            "params": {"sigma": sigma, "center": center, "amplitude": amp},
        }
        fhat = lambda p: gaussian_hat(p, sigma, center, amp)
    check = lambda out, cfg: check_linear(out, cfg, fhat)
    return Job("solve-linear", config, check, label=f"linear-builtin-{N}")


def _nonlinear_job(rng, N) -> Job:
    config = dict(README_NONLINEAR)
    config.update(
        a=float(rng.uniform(0.8, 1.3)),
        h=float(rng.uniform(0.7, 2.5)),
        L=float(rng.uniform(60.0, 80.0)),
        N=N,
    )
    return Job("solve-nonlinear", config, check_nonlinear, label=f"nonlinear-{N}")


def readme_nonlinear_job() -> Job:
    """The README config at N=32768: exits 1 with MaxIterExceeded (the H2
    step stalls at its round-off floor, 1.109e-10 > tol_h2)."""
    config = dict(README_NONLINEAR, N=32768)
    return Job(
        "solve-nonlinear",
        config,
        check_nonlinear,
        known_failure="MaxIterExceeded",
        label="nonlinear-readme-32768",
    )


def kernel_catalog():
    """Kernel-sequence configs: scale generator, N=4096, M=12."""
    out = {}
    for a in (0.8, 1.0, 1.25):
        for h in (0.9, 1.8):
            out[f"kernel-a{a}-h{h}"] = {
                "a": a,
                "h": h,
                "L": 40.0,
                "N": 4096,
                "kind": "kernel",
                "base": README_G,
                "generator": {"name": "scale"},
                "M": 12,
                "epsilon": 0.1,
                "F": README_F,
            }
    return out


def rhs_catalog():
    """Rhs-sequence configs: resonant shift on an aligned grid, truncate
    generator, N=16384, M=12."""
    out = {}
    for a in np.round(np.linspace(0.6, 1.6, 12), 6).tolist():
        for n in (1, -1, 2, -2):
            for sigma in (0.8, 1.0):
                out[f"rhs-a{a}-n{n}-s{sigma}"] = {
                    "a": a,
                    "h": 2.0 * math.pi * n / math.sqrt(a),
                    "L": aligned_half_length(a),
                    "N": 16384,
                    "kind": "rhs",
                    "base": {"name": "gaussian", "params": {"sigma": sigma}},
                    "generator": {"name": "truncate"},
                    "M": 12,
                }
    return out


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


class Workload:
    """A named job stream: ``job(seed, i)`` and the small warm-up jobs that
    load every code path once before timing starts."""

    name = ""
    cycle = 1

    def job(self, seed: int, i: int) -> Job:
        raise NotImplementedError

    def warmup(self) -> list[Job]:
        raise NotImplementedError


class LinearCli(Workload):
    name = "linear-cli"
    # (N, manufactured CSV right-hand side, resonant)
    SLOTS = [
        (32768, False, False),
        (65536, True, False),
        (131072, False, True),
        (32768, True, True),
        (65536, False, False),
        (131072, True, False),
    ]
    cycle = len(SLOTS)

    def job(self, seed, i):
        N, manufactured, resonant = self.SLOTS[i % self.cycle]
        return _linear_job(np.random.default_rng([seed, i]), N, manufactured, resonant)

    def warmup(self):
        rng = np.random.default_rng(0)
        return [_linear_job(rng, 1024, m, r) for _, m, r in self.SLOTS[:4]]


class NonlinearCli(Workload):
    name = "nonlinear-cli"
    SLOTS = [8192, 16384, 32768, "readme", 8192, 16384]
    cycle = len(SLOTS)

    def job(self, seed, i):
        slot = self.SLOTS[i % self.cycle]
        if slot == "readme":
            return readme_nonlinear_job()
        return _nonlinear_job(np.random.default_rng([seed, i]), slot)

    def warmup(self):
        return [_nonlinear_job(np.random.default_rng(0), 1024)]


class SequenceWorkload(Workload):
    """Sequence jobs drawn without repeats (per pass over the catalog) from
    configs whose outputs are recorded in reference.json."""

    catalog: Callable[[], dict]

    def __init__(self):
        self.configs = self.catalog()
        self.reference = load_reference()

    def job(self, seed, i):
        names = sorted(self.configs)
        rng = np.random.default_rng([seed, i // len(names)])
        name = names[rng.permutation(len(names))[i % len(names)]]
        ref = self.reference[name]
        check = lambda out, cfg: check_sequence(out, ref)
        return Job("sequence", self.configs[name], check, label=name)

    def warmup(self):
        small = dict(self.configs[min(self.configs)], N=512, M=2)
        return [Job("sequence", small, lambda out, cfg: None, label="warmup")]


class KernelSequence(SequenceWorkload):
    name = "kernel-sequence"
    catalog = staticmethod(kernel_catalog)


class RhsSequence(SequenceWorkload):
    name = "rhs-sequence"
    catalog = staticmethod(rhs_catalog)


class Mixed(Workload):
    """Interleaves other workloads: one cycle runs ``repeat`` cycles of each
    part in turn.  Part jobs keep their own index space, so each part draws
    the same inputs it would draw alone."""

    def __init__(self, name, parts):
        self.name = name
        self.parts = parts  # [(workload, repeat)]
        self.cycle = sum(w.cycle * repeat for w, repeat in parts)

    def job(self, seed, i):
        c, k = divmod(i, self.cycle)
        for w, repeat in self.parts:
            n = w.cycle * repeat
            if k < n:
                return w.job(seed, c * n + k)
            k -= n
        raise AssertionError("unreachable: k < cycle")

    def warmup(self):
        return [job for w, _ in self.parts for job in w.warmup()]


# Two workloads, each mixing two job kinds, so that a run is long enough
# (see BENCHMARK.json run_seconds) to average over the host's speed swings.
WORKLOADS = {
    "cli-solves": lambda: Mixed("cli-solves", [(LinearCli(), 1), (NonlinearCli(), 1)]),
    "sequences": lambda: Mixed("sequences", [(KernelSequence(), 1), (RhsSequence(), 4)]),
}
