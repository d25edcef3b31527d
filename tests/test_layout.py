"""Module boundaries of the package source."""

import ast
from pathlib import Path

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
