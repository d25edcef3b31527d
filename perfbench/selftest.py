"""Tests of the benchmark itself: its output checks reject perturbed
outputs, its tracer sees every FFT, and its job streams are seeded.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import shiftspec  # noqa: E402
from shiftspec import cli  # noqa: E402

import calibrate  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


def _run(job, jobdir):
    argv = job.materialize(jobdir)
    rc, _, stderr = run._run_cli(cli, argv)
    return rc, stderr


def _perturb_solution(outdir, rel=1e-6, index=None):
    path = outdir / "solution.csv"
    x, re, im = jobs.read_csv(path)
    u = re + 1j * im
    if index is None:
        u = u * (1.0 + rel)
    else:
        u[index] += rel * np.max(np.abs(u))
    jobs.write_csv(path, x, u if np.any(u.imag) else u.real)


def _assert_rejects(check, outdir, config):
    with pytest.raises(jobs.CheckFailed):
        check(outdir, config)


@pytest.mark.parametrize("manufactured", [False, True])
@pytest.mark.parametrize("resonant", [False, True])
def test_linear_check_rejects_perturbed_solution(tmp_path, manufactured, resonant):
    job = jobs._linear_job(np.random.default_rng(3), 4096, manufactured, resonant)
    rc, stderr = _run(job, tmp_path)
    assert rc == 0, stderr
    out = tmp_path / "out"
    job.check(out, job.config)
    backup = (out / "solution.csv").read_bytes()
    _perturb_solution(out, index=2148)
    _assert_rejects(job.check, out, job.config)
    (out / "solution.csv").write_bytes(backup)
    _perturb_solution(out)
    _assert_rejects(job.check, out, job.config)


def test_nonlinear_check_rejects_perturbed_solution(tmp_path):
    job = jobs._nonlinear_job(np.random.default_rng(3), 2048)
    rc, stderr = _run(job, tmp_path)
    assert rc == 0, stderr
    out = tmp_path / "out"
    job.check(out, job.config)
    _perturb_solution(out)
    _assert_rejects(job.check, out, job.config)


def _sequence_outputs(outdir, ref):
    """summary.json and table.csv as the CLI writes them, from recorded values."""
    outdir.mkdir()
    (outdir / "summary.json").write_text(json.dumps(ref))
    lines = ["m,input_gap,weighted_gap,solution_gap_h2,multiplier_gap,N_m"]
    for r in ref["rows"]:
        cells = [r[k] for k in jobs._TABLE_FIELDS]
        lines.append(",".join([str(r["m"])] + ["" if c is None else repr(c) for c in cells]))
    (outdir / "table.csv").write_text("\r\n".join(lines) + "\r\n")


@pytest.mark.parametrize("name", ["kernel-a1.0-h0.9", "rhs-a0.6-n1-s1.0"])
@pytest.mark.parametrize("perturb", ["summary_row", "summary_top", "flag", "table"])
def test_sequence_check_rejects_perturbed_outputs(tmp_path, name, perturb):
    ref = jobs.load_reference()[name]
    out = tmp_path / "out"
    _sequence_outputs(out, ref)
    jobs.check_sequence(out, ref)
    summary = json.loads(json.dumps(ref))
    if perturb == "summary_row":
        summary["rows"][3]["solution_gap_h2"] *= 1.0 + 1e-6
    elif perturb == "summary_top":
        alpha = summary["alpha"]
        summary["alpha"] = 1.0 if alpha is None else alpha * (1.0 + 1e-6)
    elif perturb == "flag":
        summary["checks"][min(summary["checks"])] = False
    (out / "summary.json").write_text(json.dumps(summary))
    if perturb == "table":
        lines = (out / "table.csv").read_text().splitlines()
        cells = lines[4].split(",")
        cells[3] = repr(float(cells[3]) * (1.0 + 1e-6))
        lines[4] = ",".join(cells)
        (out / "table.csv").write_text("\r\n".join(lines) + "\r\n")
    with pytest.raises(jobs.CheckFailed):
        jobs.check_sequence(out, ref)


def test_sequence_check_accepts_real_output(tmp_path):
    job = jobs.RhsSequence().job(seed=5, i=0)
    rc, stderr = _run(job, tmp_path)
    assert rc == 0, stderr
    job.check(tmp_path / "out", job.config)


def test_known_failure_is_failed_but_not_wrong():
    job = jobs.readme_nonlinear_job()
    max_iter = json.dumps({"error": {"type": "MaxIterExceeded", "message": "", "details": {}}})
    other = json.dumps({"error": {"type": "ConfigError", "message": "", "details": {}}})
    assert run._judge(job, Path("."), 1, max_iter + "\n") == "known"
    assert run._judge(job, Path("."), 1, other + "\n") not in ("ok", "known")
    assert run._judge(job, Path("."), 2, max_iter + "\n") not in ("ok", "known")


class _FlakyCli:
    """Writes a report whose bytes change from one call to the next."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps({"call": self.calls}))
        return 0


class _OneJob(jobs.Workload):
    name = "stub"

    def job(self, seed, i):
        return jobs.Job("spectrum", {"i": i}, check=lambda out, cfg: None, label=f"stub{i}")


def test_rerun_mismatch_fails_the_job(tmp_path):
    runner = run.Runner(_FlakyCli(), _OneJob(), 0, tmp_path, calibrate.Calibrator("sequences"))
    stats, _ = runner.run_pass(0, 0.0, rerun_first=True)
    assert stats.attempted == 1 and stats.ok == 0
    assert "byte-identical" in stats.wrong[0]


def test_rerun_of_real_job_is_byte_identical(tmp_path):
    runner = run.Runner(cli, jobs.LinearCli(), 11, tmp_path, calibrate.Calibrator("cli-solves"))
    stats, _ = runner.run_pass(0, 0.0, rerun_first=True)
    assert stats.wrong == [] and stats.ok == stats.attempted == jobs.LinearCli.cycle
    assert len(stats.speed) == stats.attempted and all(f > 0.0 for f in stats.speed)


def test_times_are_reported_at_reference_speed():
    stats = run.PassStats(job_s=[1.0, 3.0], speed=[0.5, 2.0], ok=2)
    assert stats.ref_s == [2.0, 1.5]
    assert stats.jobs_per_s == pytest.approx(2.0 / 3.5)
    assert stats.wall_jobs_per_s == pytest.approx(2.0 / 4.0)


def test_every_workload_has_a_calibration_unit():
    assert set(calibrate.MIXES) == set(calibrate.NOMINAL_UNIT_S) == set(jobs.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_calibration_unit_is_fixed_work(workload):
    cal = calibrate.Calibrator(workload)
    n, spent = cal.top_up(0.05)
    assert n >= 1 and spent >= 0.05
    nominal = calibrate.NOMINAL_UNIT_S[workload]
    assert cal.speed_factor(n, spent) == pytest.approx(spent / n / nominal)
    cal.check[0] += 1  # a unit that computes something else is refused
    with pytest.raises(RuntimeError):
        cal.unit()


def test_job_streams_are_seeded():
    for name, workload in jobs.WORKLOADS.items():
        w = workload()
        a = [json.dumps(w.job(7, i).config, sort_keys=True) for i in range(12)]
        b = [json.dumps(w.job(7, i).config, sort_keys=True) for i in range(12)]
        c = [json.dumps(w.job(8, i).config, sort_keys=True) for i in range(12)]
        assert a == b and a != c, name


def _readme_cli_job(tmp_path, N=4096):
    config = dict(jobs.README_NONLINEAR, N=N, tol_h2=1e-8)
    return jobs.Job("solve-nonlinear", config, jobs.check_nonlinear).materialize(tmp_path)


def test_traced_fft_counts_match_baseline(tmp_path):
    """README case at tol_h2=1e-8: 9 iterations, 8 FFTs per solve_linear,
    124 per fixed_point_solve (68 forward, 56 inverse), and 2 more in the
    CLI for the final h2_norm.  These are the counts of the solver the
    benchmark was defined against."""
    argv = _readme_cli_job(tmp_path)
    with tracing.Tracer() as tr:
        rc, _, stderr = run._run_cli(cli, argv)
    assert rc == 0, stderr
    assert all(s.ffts == 8 for s in tr.by_name("linear.solve"))
    (fp,) = tr.by_name("nonlinear.solve")
    assert len(tr.by_name("nonlinear.apply_T")) == 9
    assert (fp.ffts, fp.fft_fwd, fp.fft_inv) == (124, 68, 56)
    (job,) = tr.by_name("cli")
    assert job.ffts == tr.fft_fwd + tr.fft_inv == 126


def test_traced_fft_counts_match_profiler(tmp_path):
    """Every FFT shiftspec runs, however it reached numpy, is counted."""
    argv = _readme_cli_job(tmp_path, N=1024)
    codes = {np.fft.fft.__wrapped__.__code__: "fwd", np.fft.ifft.__wrapped__.__code__: "inv"}
    seen = {"fwd": 0, "inv": 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    with tracing.Tracer() as tr:
        sys.setprofile(profile)
        try:
            rc, _, _ = run._run_cli(cli, argv)
        finally:
            sys.setprofile(None)
    assert rc == 0
    assert (tr.fft_fwd, tr.fft_inv) == (seen["fwd"], seen["inv"])


def test_tracer_rebinds_every_copy_and_restores_them():
    from shiftspec import linear, spectral

    original = spectral.forward_transform
    assert linear.forward_transform is original
    with tracing.Tracer():
        assert spectral.forward_transform is not original
        assert linear.forward_transform is spectral.forward_transform
        assert shiftspec.forward_transform is spectral.forward_transform
    assert linear.forward_transform is original is spectral.forward_transform
    assert shiftspec.forward_transform is original


def test_self_time_excludes_children(tmp_path):
    argv = _readme_cli_job(tmp_path, N=1024)
    with tracing.Tracer() as tr:
        run._run_cli(cli, argv)
    (job,) = tr.by_name("cli")
    top_children = [s for s in tr.spans if s.parent == tr.spans.index(job)]
    assert job.self_s == pytest.approx(
        (job.end - job.start) - sum(c.end - c.start for c in top_children)
    )
    assert all(s.self_s >= 0.0 for s in tr.spans)
