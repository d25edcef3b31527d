"""Record the outputs of every sequence config the benchmark can draw.

    python3 perfbench/record_reference.py

Runs each kernel- and rhs-sequence catalog config through
``shiftspec.cli.main`` (from the checkout's ``src``) and writes the
summary numbers to perfbench/reference.json, which the sequence checks
compare against.  Re-record only when the program's results are meant to
change.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from shiftspec import cli  # noqa: E402

import jobs  # noqa: E402


def record(name, config, workdir):
    job = jobs.Job("sequence", config, check=None, label=name)
    argv = job.materialize(workdir / name)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{name}: exit {rc}")
    summary = json.loads((workdir / name / "out" / "summary.json").read_text())
    if not all(summary["checks"].values()):
        raise SystemExit(f"{name}: failing checks {summary['checks']}")
    keep = ("checks", "alpha", "N_limit", "q_limit", "rows")
    return {k: summary[k] for k in keep}


def main():
    workdir = ROOT / ".bench_work" / "record"
    reference = {}
    try:
        for catalog in (jobs.kernel_catalog(), jobs.rhs_catalog()):
            for name, config in catalog.items():
                reference[name] = record(name, config, workdir)
                print(name, "recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    jobs.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
