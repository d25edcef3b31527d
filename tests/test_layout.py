"""Module boundaries of the package source."""

import ast
import functools
import importlib
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "shiftspec"


def test_no_private_imports_across_modules():
    # a name that starts with "_" is private to its module; another module
    # that needs it should get a public function or method instead
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "shiftspec"
            ):
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


def test_no_function_takes_a_classification():
    # resonance is decided once, by symbols.classify, which each function
    # calls itself; no caller passes a FredholmClass in
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.arg) and (
                node.arg == "classification"
                or (node.annotation and "FredholmClass" in ast.unparse(node.annotation))
            ):
                found.append(f"{path.name}:{node.lineno} takes {node.arg}")
    assert found == []


def test_only_classify_decides_resonance():
    # one function compares the distance to the nearest resonance with a
    # tolerance; estimate_alpha and every check read its classification
    callers = set()
    for path in sorted(SOURCE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, ast.FunctionDef):
                callers.update(
                    (path.name, func.name, node.func.id)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("nearest_resonance", "default_resonance_tol")
                )
    assert callers == {
        ("symbols.py", "classify", "nearest_resonance"),
        ("symbols.py", "classify", "default_resonance_tol"),
    }


def test_no_solver_function_takes_a_spectrum():
    # a grid function carries its own transform, GridFunction.spectrum;
    # no solver function takes one in beside it
    found = []
    for name in ("kernels.py", "linear.py", "nonlinear.py", "sequences.py"):
        path = SOURCE / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.arg) and node.arg == "spectrum":
                found.append(f"{name}:{node.lineno} takes spectrum")
    assert found == []


def test_runtime_imports_are_stdlib_or_numpy():
    # runtime dependencies stay numpy only
    allowed = set(sys.stdlib_module_names) | {"numpy", "shiftspec"}
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert found == []


def test_no_assert_statements():
    # runtime invariants must hold under python -O, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _fft_uses(tree):
    """(line, enclosing function) of every reference to numpy's fft module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append((node.lineno, func))
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.fft") for alias in node.names):
                found.append((node.lineno, func))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if node.module.startswith("numpy.fft") or any(a.name == "fft" for a in node.names):
                found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_fft_only_in_dft_and_idft():
    # every FFT the package runs goes through the one core, dft / idft in
    # FFT order; forward_transform / inverse_transform are a view over it.
    # Counting those two functions counts them all
    allowed = {("spectral.py", "dft"), ("spectral.py", "idft")}
    found = [
        f"{path.name}:{line} in {func}"
        for path in sorted(SOURCE.rglob("*.py"))
        for line, func in _fft_uses(ast.parse(path.read_text(), filename=str(path)))
        if (path.name, func) not in allowed
    ]
    assert found == []


def test_benchmark_trace_names_resolve():
    # perfbench/tracer.py wraps the functions its TRACED table names, by
    # (module, attribute) in shiftspec; a renamed or removed one breaks
    # every traced run.  Read as data, so the tracer is not imported
    tracer = SOURCE.parent.parent / "perfbench" / "tracer.py"
    if not tracer.exists():
        pytest.skip("no perfbench/tracer.py")
    tree = ast.parse(tracer.read_text(), filename=str(tracer))
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]
    )
    missing = []
    for module, attr in ast.literal_eval(table):
        owner = importlib.import_module(f"shiftspec.{module}")
        try:
            functools.reduce(getattr, attr.split("."), owner)
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_cli_restates_no_library_default():
    # the commands pass only the options a config sets: an absent one takes
    # the default in the library function's signature, kept there alone.
    # parse_config converts the numbers once, so no command converts one
    path = SOURCE / "cli.py"
    found = []
    for func in ast.parse(path.read_text(), filename=str(path)).body:
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("_cmd_")):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            site = f"cli.py:{node.lineno} in {func.name}"
            if isinstance(node.func, ast.Attribute) and node.func.attr == "get":
                found += [f"{site}: .get default" for arg in node.args[1:] if _is_number(arg)]
            found += [f"{site}: {kw.arg}=" for kw in node.keywords if _is_number(kw.value)]
            if isinstance(node.func, ast.Name) and node.func.id in ("float", "int"):
                found.append(f"{site}: {node.func.id}()")
    assert found == []


def _is_number(node):
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _not_file_text(tree):
    """ids of the string constants that no file receives: docstrings, and
    the messages of raise statements."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            skipped.update(id(sub) for sub in ast.walk(node))
        elif (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        ):
            skipped.add(id(node.body[0].value))
    return skipped


def test_float_text_only_in_textio():
    # textio owns float text: the one '%.17g' formatter and the one CSV
    # reader.  No other module imports csv, calls numpy's text readers or
    # writers, or formats a float with 17 significant digits (a %-format
    # or an f-string spec).  Docstrings may name the format, and an
    # exception message may show a value in it: neither is written to a file
    numpy_text = {"loadtxt", "savetxt", "genfromtxt"}
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "textio.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        skipped = _not_file_text(tree)
        for node in ast.walk(tree):
            site = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
                found.append(f"{site} imports csv")
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                found.append(f"{site} imports from csv")
            elif isinstance(node, ast.Attribute) and node.attr in numpy_text:
                found.append(f"{site} uses {node.attr}")
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, (str, bytes))
                and (".17g" in node.value if isinstance(node.value, str) else b".17g" in node.value)
                and id(node) not in skipped
            ):
                found.append(f"{site} formats .17g")
    assert found == []


def test_tolerance_defaults_are_named_constants():
    # each solver tolerance default is written once, as
    # symbols.DEFAULT_TOL_ORTH or nonlinear.DEFAULT_TOL_H2, and every
    # signature that takes tol, tol_orth or tol_h2 refers to it
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [
                f"{path.name}:{node.lineno} {node.name}({arg.arg}={ast.unparse(default)})"
                for arg, default in pairs
                if arg.arg in ("tol", "tol_orth", "tol_h2") and _is_number(default)
            ]
    assert found == []
