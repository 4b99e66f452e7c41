"""The package keeps its runtime checks under ``python -O``: no ``assert``."""

import ast
from pathlib import Path

import germ.errors

PACKAGE = Path(germ.errors.__file__).resolve().parent


def test_package_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
