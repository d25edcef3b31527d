"""Seeded single-site mutation testing of shiftspec modules.

Each mutant swaps one binary operator token of one module: ``+``/``-``,
``*``/``/`` (their augmented forms too), ``<``/``<=`` and ``>``/``>=``.
The mutants run one at a time: the tier-1 suite runs with ``-x -q`` on a
temporary copy of the repository (all but ``.git`` and what runs leave
behind) holding the mutant, under a per-mutant timeout.  A mutant is
killed when the suite fails, survives when it passes, and timed out when
it runs past the timeout.  The unmutated copy runs first; the tool stops
with exit status 2 unless it passes.

    python tools/mutate.py src/shiftspec/catalog.py src/shiftspec/nonlinear.py \\
        --seed 7 --count 20 --timeout 120

``--count`` draws that many sites per module (all sites when omitted).
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# operator token -> the token it becomes
SWAPS = {
    "+": "-", "-": "+", "*": "/", "/": "*",
    "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*=",
    "<": "<=", "<=": "<", ">": ">=", ">=": ">",
}  # fmt: skip

# the AST operator classes whose tokens SWAPS covers
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


@dataclass(frozen=True)
class Mutant:
    path: str  # the module, relative to the repository root
    line: int
    col: int
    old: str
    new: str
    source: str  # the mutated module

    @property
    def label(self) -> str:
        return f"{self.path}:{self.line} {self.old} -> {self.new}"


def _operator_positions(source: str) -> set[tuple[int, int]]:
    """(line, col) of each ``+ - * / < <= > >=`` that the AST uses as a
    binary, augmented or comparison operator (not unary minus, slices or
    the ``*`` of star-args)."""
    spans = []  # (start, end) of the gap between two operands
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
            spans.append((node.left, node.right))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, _OPERATORS):
            spans.append((node.target, node.value))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            spans += [
                (lhs, rhs)
                for lhs, rhs, op in zip(operands, operands[1:], node.ops)
                if isinstance(op, _OPERATORS)
            ]
    lines = source.splitlines()

    def at(line, byte_col):  # the AST counts UTF-8 bytes, tokenize characters
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    gaps = [(at(a.end_lineno, a.end_col_offset), at(b.lineno, b.col_offset)) for a, b in spans]
    found = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.OP and tok.string in SWAPS:
            if any(lo <= tok.start < hi for lo, hi in gaps):
                found.add(tok.start)
    return found


def mutants(path: Path, seed: int, count: int | None = None) -> list[Mutant]:
    """The seeded single-site mutants of one module, in source order: all
    of them, or ``count`` drawn with ``random.Random(seed)``."""
    path = Path(path).resolve()
    source = path.read_text()
    lines = source.splitlines(keepends=True)
    sites = sorted(_operator_positions(source))
    if count is not None and count < len(sites):
        sites = sorted(random.Random(f"{seed}:{path.name}").sample(sites, count))
    out = []
    for line, col in sites:
        text = lines[line - 1]
        old = next(tok for tok in sorted(SWAPS, key=len, reverse=True) if text.startswith(tok, col))
        new = SWAPS[old]
        mutated = lines[: line - 1] + [text[:col] + new + text[col + len(old) :]] + lines[line:]
        rel = path.relative_to(ROOT).as_posix()
        out.append(Mutant(rel, line, col, old, new, "".join(mutated)))
    return out


# what a copy leaves out: version control and what runs leave behind
_SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", ".pytest_cache", ".benchmarks", ".bench_work", ".bench_build"
)


def copy_tree(dest: Path) -> None:
    """Copy the repository into dest, all but the paths _SKIP names."""
    shutil.copytree(ROOT, dest, ignore=_SKIP, dirs_exist_ok=True)


def run_suite(timeout: float, mutant: Mutant | None = None) -> str:
    """'passed', 'failed' or 'timeout': tier-1 with -x on a copy of the
    repository, holding mutant when one is given."""
    with tempfile.TemporaryDirectory(prefix="shiftspec-mutant-") as tmp:
        copy_tree(Path(tmp))
        if mutant is not None:
            (Path(tmp) / mutant.path).write_text(mutant.source)
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        # its own process group, so a timeout also stops the tests' subprocesses
        with subprocess.Popen(
            cmd,
            cwd=tmp,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        ) as proc:
            try:
                returncode = proc.wait(timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return "timeout"
    return "passed" if returncode == 0 else "failed"


_OUTCOME = {"failed": "killed", "passed": "survived", "timeout": "timeout"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("modules", nargs="+", type=Path, help="module files under src/")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=None, help="sites per module (default: all)")
    ap.add_argument("--timeout", type=float, default=120.0, help="seconds per mutant")
    args = ap.parse_args(argv)
    baseline = run_suite(args.timeout)
    if baseline != "passed":
        print(f"the unmutated copy {baseline}: no mutant can be scored", file=sys.stderr)
        return 2
    outcomes: dict[str, list[tuple[str, Mutant]]] = {}
    for module in args.modules:
        for m in mutants(module, args.seed, args.count):
            t0 = time.perf_counter()
            result = _OUTCOME[run_suite(args.timeout, m)]
            print(f"{result:8s} {m.label}  ({time.perf_counter() - t0:.1f} s)", flush=True)
            outcomes.setdefault(m.path, []).append((result, m))
    print(f"seed {args.seed}")
    for path, rows in outcomes.items():
        killed = sum(r == "killed" for r, _ in rows)
        timeouts = sum(r == "timeout" for r, _ in rows)
        print(f"{path}: {killed}/{len(rows)} killed, {timeouts} timed out")
        for r, m in rows:
            if r != "killed":
                print(f"  {r}: {m.label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
