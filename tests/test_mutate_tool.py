"""The mutant enumeration of tools/mutate.py: deterministic per seed, and
each mutant a module that parses and differs from its source at exactly
one operator or boolean keyword token, or in one raise statement that
became pass.  Runs no mutant and starts no subprocess."""

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
    raises = sum(isinstance(node, ast.Raise) for node in ast.walk(ast.parse(source)))
    for m in every:
        tree = ast.parse(m.source)
        mutated = _tokens(m.source)
        assert source.splitlines()[m.line - 1][m.col :].startswith(m.old)
        if m.old == "raise":
            # the statement's tokens, over all its lines, are the one pass
            i = next(i for i, (a, b) in enumerate(zip(original, mutated)) if a != b)
            kept = len(mutated) - i - 1
            assert (original[i], mutated[i]) == ("raise", "pass"), m.label
            assert original[:i] == mutated[:i] and original[-kept:] == mutated[i + 1 :], m.label
            assert sum(isinstance(node, ast.Raise) for node in ast.walk(tree)) == raises - 1
            continue
        diff = [(a, b) for a, b in zip(original, mutated) if a != b]
        assert len(mutated) == len(original) and diff == [(m.old, m.new)], m.label
        assert mutate.SWAPS[m.old] == m.new
    # unary minus, star-args and keyword defaults are not operator sites
    assert all(m.old in mutate.SWAPS or (m.old, m.new) == ("raise", "pass") for m in every)
    # the comparison and boolean swaps and the dropped raise are among them
    assert {"==", "or", "raise"} <= {m.old for m in every}
    assert sum(m.old == "raise" for m in every) == raises
    assert len({(m.line, m.col) for m in every}) == len(every)


def test_enumeration_skips_non_binary_tokens(mutate, tmp_path, monkeypatch):
    monkeypatch.setattr(mutate, "ROOT", tmp_path)
    path = tmp_path / "m.py"
    path.write_text(
        "def f(*a, **k):\n"
        "    return -a[0] + k['x'] * 2 < 3  # 1 - 2\n"
        "def g(order, x=1):\n"
        "    return order == x or not (order != 2 and x) or 'and'\n"
        "def h(x):\n"
        "    if x: raise ValueError(\n"
        "        'raise ' + x) from None\n"
        "    try:\n"
        "        return x['raise']\n"
        "    except KeyError:\n"
        "        raise\n"
    )
    mutants = mutate.mutants(path, seed=0)
    assert [m.label for m in mutants] == [
        "m.py:2 + -> -", "m.py:2 * -> /", "m.py:2 < -> <=",
        "m.py:4 == -> !=", "m.py:4 or -> and", "m.py:4 != -> ==", "m.py:4 and -> or",
        "m.py:4 or -> and", "m.py:6 raise -> pass", "m.py:7 + -> -", "m.py:11 raise -> pass",
    ]  # fmt: skip
    for m in mutants:
        ast.parse(m.source)
    # a raise over two lines, with its cause, becomes one pass on the first
    assert mutants[8].source.splitlines()[5:7] == ["    if x: pass", "    try:"]
    assert mutants[10].source.splitlines()[-1] == "        pass"


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
