"""Module boundaries of the package source."""

import ast
import functools
import importlib
import re
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


def test_contraction_factor_and_the_rule_for_a_have_one_owner_each():
    # one function computes q = 2*sqrt(pi)*N*l and one raises on a bad a:
    # copies elsewhere had drifted to another rounding and other messages
    owners = set()
    for path in sorted(SOURCE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and ast.unparse(node) == "np.sqrt(np.pi)":
                        owners.add((path.name, func.name, "q"))
                    if isinstance(node, ast.Raise) and re.search(r"\ba'? must", ast.unparse(node)):
                        owners.add((path.name, func.name, "a"))
    assert owners == {
        ("kernels.py", "contraction_factor", "q"),
        ("symbols.py", "check_shift_coefficient", "a"),
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


def _functions(tree):
    """(function, the nodes it holds outside its nested functions) for
    every function of a module."""
    found = []

    def visit(node, owned):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nodes = []
                found.append((child, nodes))
                visit(child, nodes)
            else:
                owned.append(child)
                visit(child, owned)

    visit(tree, [])
    return found


def test_parse_config_restates_no_library_rule():
    # parse_config and _check_type compare no config value with a number,
    # except in the CLI's own rules: a spectrum's num_points and
    # p_min <= p_max, and the float range of a JSON number.  Every other
    # rule is asked of the library function that owns it.  Comparisons
    # with a string or a set (a spec's keys) are shape rules
    path = SOURCE / "cli.py"
    found = {}
    for func, nodes in _functions(ast.parse(path.read_text(), filename=str(path))):
        if func.name in ("parse_config", "_check_type"):
            found[func.name] = sorted(
                ast.unparse(node)
                for node in nodes
                if isinstance(node, ast.Compare)
                and not all(isinstance(op, (ast.In, ast.NotIn, ast.Is)) for op in node.ops)
                and not any(
                    isinstance(operand, ast.Set)
                    or (isinstance(operand, ast.Constant) and isinstance(operand.value, str))
                    for operand in (node.left, *node.comparators)
                )
            )
    assert found == {
        "parse_config": ["points < 2", "points > MAX_POINTS", "raw['p_min'] > raw['p_max']"],
        "_check_type": ["abs(value) <= sys.float_info.max"],
    }


# a raise that states the rule for each scalar: its name (or the words for
# it) followed by 'must', or 'require' followed by the name
SCALAR_RULES = {
    name: re.compile(rf"(\b{words}'? must\b|\brequires? '?{words}\b)")
    for name, words in (
        ("tol_orth", "(tol_orth|orthogonality tolerance)"),
        ("tol_h2", "tol_h2"),
        ("max_iter", "max_iter"),
        ("epsilon", "epsilon"),
    )
}


def test_each_scalar_rule_has_one_owner_that_the_cli_and_the_library_call():
    raisers = {name: set() for name in SCALAR_RULES}
    callers = {}
    for path in sorted(SOURCE.glob("*.py")):
        for func, nodes in _functions(ast.parse(path.read_text(), filename=str(path))):
            site = (path.name, func.name)
            for node in nodes:
                if isinstance(node, ast.Raise) and node.exc is not None:
                    for name, rule in SCALAR_RULES.items():
                        if rule.search(ast.unparse(node.exc)):
                            raisers[name].add(site)
                elif isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    callers.setdefault(name, set()).add(site)
    assert raisers == {
        "tol_orth": {("symbols.py", "check_orthogonality_tol")},
        "tol_h2": {("nonlinear.py", "check_tol_h2")},
        "max_iter": {("nonlinear.py", "check_max_iter")},
        "epsilon": {("sequences.py", "check_epsilon")},
    }
    for [(module, owner)] in raisers.values():
        sites = callers.get(owner, set())
        assert ("cli.py", "parse_config") in sites, owner
        assert any(path != "cli.py" and func != owner for path, func in sites), owner


def test_orthogonality_comparison_is_written_once():
    # |g_hat(+-sqrt(a))| <= tol is compared in one function, which the
    # solvability check, kernel_orthogonality and stability_constant share
    sites = set()
    for path in sorted(SOURCE.glob("*.py")):
        for func, nodes in _functions(ast.parse(path.read_text(), filename=str(path))):
            sites.update(
                (path.name, func.name)
                for node in nodes
                if isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Call)
                and ast.unparse(node.left.func) == "abs"
                and "tol" in ast.unparse(node.comparators[-1])
            )
    assert sites == {("kernels.py", "_orthogonal")}


def test_grid_tables_are_built_on_the_bins_that_read_them():
    # a grid table covers the bins of the spectrum that reads it, N/2 + 1
    # for a real input and N for a complex one, so no reader slices a
    # symbol table and no frequencies are taken on all N bins to be cut
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call):
                name = ast.unparse(node.value.func).split(".")[-1]
                if name in ("symbol_on_grid", "inverse_symbol_on_grid"):
                    found.append(f"{path.name}:{node.lineno} slices {name}")
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("fft_frequencies"):
                bins = node.args[1:] + [kw.value for kw in node.keywords if kw.arg == "bins"]
                if any(isinstance(arg, ast.Attribute) and arg.attr == "N" for arg in bins):
                    found.append(f"{path.name}:{node.lineno} takes all N bins")
    assert found == []
