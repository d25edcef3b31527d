"""shiftspec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: cli-solves, sequences (see
jobs.py and provenance.json).  Each run drives the public
CLI entry point ``shiftspec.cli.main`` in-process, imported from the
checkout's ``src``, as a closed loop with one client: a job starts when the
previous one has returned and its outputs have been checked.

Times are reported at reference speed: each measured time is divided by
the host's speed factor around it, measured with a fixed calibration unit
interleaved with the jobs (see calibrate.py).  The wall-clock figures and
the speed factors are printed in the run summary.

End-to-end metrics (the last line of standard output with ``--trace 0``):

    jobs_per_s   passing jobs per second of job time (sum of cli.main times)
    job_p50_s    median time of one cli.main call, file output included
    setup_s      worker process start to the first timed job: importing
                 shiftspec, generating the first cycle's inputs, warm-up;
                 median of SETUP_SAMPLES fresh processes
    peak_rss_mb  high-water RSS of the worker process
    ok_frac      share of jobs that exit 0 and pass their check (1 - failed_frac)

The run starts ``SETUP_SAMPLES`` set-up-only workers and then the worker
for the timed loop, one after another, each a fresh process.  With
``--trace 1`` the worker runs half the time untraced and half traced
(external spans, see tracer.py) and the last line carries the per-layer
metrics and the tracing overhead instead.  Scratch files go to
``.bench_work/`` in the checkout; a traced run leaves its spans there as
``spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

# One BLAS thread: the load is one single-threaded process (numpy's
# OpenBLAS would otherwise start nproc threads).  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import calibrate  # noqa: E402
import jobs  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150
# calibration just before and after each set-up sample
SETUP_CAL_S = 0.3


# --- worker ------------------------------------------------------------


@dataclass
class PassStats:
    job_s: list = field(default_factory=list)
    speed: list = field(default_factory=list)
    ok: int = 0
    known_failures: int = 0
    wrong: list = field(default_factory=list)

    @property
    def attempted(self):
        return len(self.job_s)

    @property
    def failed(self):
        return self.attempted - self.ok

    @property
    def ref_s(self):
        """Job times at reference speed."""
        return [t / f for t, f in zip(self.job_s, self.speed)]

    @property
    def wall_jobs_per_s(self):
        """Passing jobs per second of measured job time."""
        return self.ok / sum(self.job_s)

    @property
    def jobs_per_s(self):
        """Passing jobs per second of job time at reference speed."""
        return self.ok / sum(self.ref_s)


def _error_type(stderr):
    for line in reversed(stderr.splitlines()):
        try:
            return json.loads(line)["error"]["type"]
        except (ValueError, KeyError, TypeError):
            continue
    return None


def _run_cli(cli, argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return rc, dt, err.getvalue()


def _files(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())} if outdir.exists() else {}


def _judge(job, jobdir, rc, stderr):
    """'ok', 'known' (the documented defect, exactly as documented) or a
    description of what is wrong."""
    if rc == 0:
        try:
            job.check(jobdir / "out", job.config)
        except (jobs.CheckFailed, OSError, ValueError, KeyError) as exc:
            return f"{job.label}: {type(exc).__name__}: {exc}"
        return "ok"
    err_type = _error_type(stderr)
    if job.known_failure is not None and rc == 1 and err_type == job.known_failure:
        return "known"
    return f"{job.label}: exit {rc} ({err_type})"


class Runner:
    """Runs one workload's jobs through ``cli.main`` under ``rundir``."""

    def __init__(self, cli, workload, seed, rundir, calibrator=None):
        self.cli, self.workload, self.seed, self.rundir = cli, workload, seed, rundir
        self.calibrator = calibrator or calibrate.Calibrator(workload.name)
        self.prepared = {}

    def prepare(self, i):
        """Generate job i and write its inputs (never timed)."""
        if i not in self.prepared:
            job = self.workload.job(self.seed, i)
            jobdir = self.rundir / f"job{i}"
            self.prepared[i] = (job, jobdir, job.materialize(jobdir))
        return self.prepared[i]

    def warm_up(self):
        for k, job in enumerate(self.workload.warmup()):
            jobdir = self.rundir / f"warmup{k}"
            rc, _, stderr = _run_cli(self.cli, job.materialize(jobdir))
            verdict = _judge(job, jobdir, rc, stderr)
            if verdict != "ok":
                raise RuntimeError(f"warm-up job failed: {verdict}")
            shutil.rmtree(jobdir)
        self.calibrator.top_up(0.1)

    def run_pass(self, first, seconds, tracer=None, rerun_first=False):
        """Whole cycles of jobs from index ``first`` until ``seconds`` have
        passed.  With ``rerun_first`` the first job runs a second time after
        the timed loop and fails unless both runs leave byte-identical files."""
        stats = PassStats()
        deadline = time.perf_counter() + seconds
        before = self.calibrator.top_up(0.0)
        i = first
        while True:
            for _ in range(self.workload.cycle):
                job, jobdir, argv = self.prepare(i)
                if tracer is not None:
                    tracer.job = i
                rc, dt, stderr = _run_cli(self.cli, argv)
                stats.job_s.append(dt)
                after = self.calibrator.top_up(calibrate.SHARE * dt)
                units, spent = before[0] + after[0], before[1] + after[1]
                stats.speed.append(self.calibrator.speed_factor(units, spent))
                before = after
                verdict = _judge(job, jobdir, rc, stderr)
                if verdict == "ok":
                    stats.ok += 1
                elif verdict == "known":
                    stats.known_failures += 1
                else:
                    stats.wrong.append(verdict)
                if rerun_first and i == first:
                    first_rc, first_verdict = rc, verdict
                else:
                    shutil.rmtree(jobdir)
                    del self.prepared[i]
                i += 1
            if time.perf_counter() >= deadline:
                break
        if rerun_first:
            job, jobdir, argv = self.prepared.pop(first)
            rerun = [*argv[: argv.index("--out") + 1], str(jobdir / "rerun"), "--seed", "0"]
            rc2, _, _ = _run_cli(self.cli, rerun)
            same = rc2 == first_rc and _files(jobdir / "out") == _files(jobdir / "rerun")
            if not same and first_verdict == "ok":
                stats.ok -= 1
                stats.wrong.append(f"{job.label}: rerun is not byte-identical")
            shutil.rmtree(jobdir)
        return stats, i


def worker_main(args):
    sys.path.insert(0, str(ROOT / "src"))
    import shiftspec
    from shiftspec import cli

    if Path(shiftspec.__file__).resolve().parent != ROOT / "src" / "shiftspec":
        raise RuntimeError(f"imported shiftspec from {shiftspec.__file__}, not from this checkout")
    workload = jobs.WORKLOADS[args.workload]()
    rundir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        runner = Runner(cli, workload, args.seed, rundir)
        for i in range(workload.cycle):
            runner.prepare(i)
        runner.warm_up()
        t_ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"t_ready": t_ready}))
            return 0
        seconds = args.seconds / 2.0 if args.trace else args.seconds
        plain, next_job = runner.run_pass(0, seconds, rerun_first=True)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {
            "t_ready": t_ready,
            "plain": asdict(plain),
            "peak_rss_mb": rss_mb,
            "environment": environment(),
        }
        if args.trace:
            tr = tracing.Tracer()
            with tr:
                traced, _ = runner.run_pass(next_job, seconds, tracer=tr)
            result["traced"] = asdict(traced)
            result["layers"] = tracing.layer_metrics(
                tr, traced.attempted, traced.jobs_per_s - plain.jobs_per_s
            )
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            with open(spans_path, "w") as fh:
                for s in tr.spans:
                    fh.write(json.dumps({**asdict(s), "info": repr(s.info)}) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _blas_threads():
    """OpenBLAS thread count as numpy's OpenBLAS reports it, else None."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# --- parent ------------------------------------------------------------


def _spawn_worker(args, setup_only):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["t_ready"] - t_spawn


def parent_main(args):
    if not (ROOT / "src" / "shiftspec" / "__init__.py").is_file():
        raise SystemExit(f"no shiftspec sources under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    calibrator = calibrate.Calibrator(args.workload)
    calibrator.top_up(0.1)
    setups, setups_wall = [], []
    for _ in range(SETUP_SAMPLES):
        before = calibrator.top_up(SETUP_CAL_S)
        setup = _spawn_worker(args, setup_only=True)[1]
        after = calibrator.top_up(SETUP_CAL_S)
        setups_wall.append(setup)
        setups.append(setup / calibrator.speed_factor(before[0] + after[0], before[1] + after[1]))
    result, _ = _spawn_worker(args, setup_only=False)
    plain = PassStats(**result["plain"])
    passes = [plain] + ([PassStats(**result["traced"])] if args.trace else [])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = [w for p in passes for w in p.wrong]

    e2e = {
        "jobs_per_s": (plain.jobs_per_s, "jobs/s"),
        "job_p50_s": (statistics.median(plain.ref_s), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_frac": (plain.ok / plain.attempted, "ratio"),
    }
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  environment: {json.dumps(result['environment'])}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    n = plain.attempted
    print(f"  failed_frac {plain.failed / n:.4f} ({plain.failed} of {n} jobs, "
          f"{plain.known_failures} of them the known README N=32768 MaxIterExceeded defect); "
          f"job_p50_s over {n} jobs; setup_s median of {len(setups)}"
          + (" (end-to-end figures from the untraced half)" if args.trace else ""))
    print(f"  measured wall clock: jobs_per_s {plain.wall_jobs_per_s:.6g}, job_p50_s "
          f"{statistics.median(plain.job_s):.6g}, setup_s {statistics.median(setups_wall):.6g}; "
          f"host speed factor median {statistics.median(plain.speed):.3f} "
          f"(range {min(plain.speed):.3f}-{max(plain.speed):.3f})")
    for w in wrong:
        print(f"  WRONG: {w}")
    metrics = result["layers"] if args.trace else e2e
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:36s} {value:.6g} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    return worker_main(args) if args.worker else parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
