"""The mutant enumeration of tools/mutate.py: deterministic per seed, and
each mutant a module that parses and differs from its source at exactly
one operator token.  Runs no mutant and starts no subprocess."""

import ast
import importlib.util
import io
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = [ROOT / "src" / "shiftspec" / name for name in ("catalog.py", "nonlinear.py")]


@pytest.fixture(scope="module")
def mutate():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["mutate"] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules["mutate"]


def _tokens(source):
    return [t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_mutants_are_seeded_single_operator_swaps(mutate, monkeypatch, path):
    monkeypatch.setattr(subprocess, "Popen", None)
    every = mutate.mutants(path, seed=3)
    assert every == mutate.mutants(path, seed=4)  # no count: every site, in source order
    drawn = mutate.mutants(path, seed=3, count=8)
    assert drawn == mutate.mutants(path, seed=3, count=8)
    assert len(drawn) == 8 and set(drawn) <= set(every)
    assert {m.label for m in drawn} != {m.label for m in mutate.mutants(path, seed=5, count=8)}
    source = path.read_text()
    original = _tokens(source)
    for m in every:
        ast.parse(m.source)
        mutated = _tokens(m.source)
        diff = [(a, b) for a, b in zip(original, mutated) if a != b]
        assert len(mutated) == len(original) and diff == [(m.old, m.new)], m.label
        assert mutate.SWAPS[m.old] == m.new
        assert source.splitlines()[m.line - 1][m.col :].startswith(m.old)
    # unary minus, star-args and keyword defaults are not operator sites
    assert all(m.old in mutate.SWAPS for m in every)
    assert len({(m.line, m.col) for m in every}) == len(every)


def test_enumeration_skips_non_binary_tokens(mutate, tmp_path, monkeypatch):
    monkeypatch.setattr(mutate, "ROOT", tmp_path)
    path = tmp_path / "m.py"
    path.write_text("def f(*a, **k):\n    return -a[0] + k['x'] * 2 < 3  # 1 - 2\n")
    labels = [m.label for m in mutate.mutants(path, seed=0)]
    assert labels == ["m.py:2 + -> -", "m.py:2 * -> /", "m.py:2 < -> <="]


def test_copy_holds_every_path_the_tests_read(mutate, tmp_path, monkeypatch):
    monkeypatch.setattr(subprocess, "Popen", None)
    mutate.copy_tree(tmp_path)
    # the tests read the package, this tool and the benchmark's tracer
    for rel in ("src/shiftspec/__init__.py", "tests/conftest.py", "tools/mutate.py",
                "perfbench/tracer.py", "pyproject.toml"):  # fmt: skip
        assert (tmp_path / rel).is_file(), rel
    names = [p.name for p in ROOT.iterdir()]
    kept = set(names) - mutate._SKIP(str(ROOT), names)
    assert {p.name for p in tmp_path.iterdir()} == kept and ".git" not in kept
    copied = {p.relative_to(tmp_path) for p in (tmp_path / "tests").rglob("*.py")}
    assert copied == {p.relative_to(ROOT) for p in (ROOT / "tests").glob("*.py")}
