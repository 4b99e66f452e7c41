"""The package keeps its runtime checks under ``python -O``: no ``assert``,
and the same answers with assertions stripped."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import germ.errors

PACKAGE = Path(germ.errors.__file__).resolve().parent

#: Defines ``evaluate(expr)``: the repr of a result, or the error it raises.
EVALUATE = """
from fractions import Fraction
from germ.errors import GermError
from germ.exactgeom import polytope_from_support
from germ.germs import contact_along_curve, curve_orient, nondegeneracy_check, parse_divisor
from germ.invariants import (delta_bound, lct_toric, mld_toric, toric_log_discrepancy,
                             verify_surface_theorem)
from germ.polys import parse_poly

def evaluate(expr):
    try:
        return repr(eval(expr))
    except GermError as exc:
        return f"{type(exc).__name__}: {exc}"
"""

CASES = [
    'mld_toric(parse_divisor("3/4*(x^2+y^3)"))',
    'mld_toric(parse_divisor("2*(x^1000000000 + y)"))',
    'mld_toric(parse_divisor("1/3*(x^2*y + y^5) + 2/5*(x^3 - y^2)"))',
    'lct_toric(parse_divisor("1/8*(x^3227 + y^4)"), curve_orient(parse_poly("y")))',
    'lct_toric(parse_divisor("1/2*(y)"), curve_orient(parse_poly("y")))',
    'lct_toric(parse_divisor("2*(x)"), curve_orient(parse_poly("y")))',
    'verify_surface_theorem(parse_divisor("5/9*(x^3+y^4)"), curve_orient(parse_poly("y")), "1/3")',
    'verify_surface_theorem(parse_divisor("1/2*(x^2-y^2) + 1/2*(x-y)"), '
    'curve_orient(parse_poly("y - x^2")), "1/4")',
    'verify_surface_theorem(parse_divisor("1/2*(y - x^3 + x^40)"), '
    'curve_orient(parse_poly("y - x^3")), "1/100")',
    'verify_surface_theorem(parse_divisor("1/2*(y^1000000 + x)"), '
    'curve_orient(parse_poly("y - 2*x^2")), "1/3")',
    'verify_surface_theorem(parse_divisor("1/2*(y^60 + x^3)"), '
    'curve_orient(parse_poly("x + y + x^2")), "1/3")',
    'verify_surface_theorem(parse_divisor("1/2*(x^60 + y^3)"), '
    'curve_orient(parse_poly("y + x + y^2")), "1/3")',
    'lct_toric(parse_divisor("1/3*(x^2 + y^3) + 1/4*(x*y - y^2)"), '
    'curve_orient(parse_poly("3/2*x + y^2 + x*y")))',
    'verify_surface_theorem(parse_divisor("1/3*(x^2 + y^3) + 1/4*(3/2*x^2 + x*y^2 + x^2*y)"), '
    'curve_orient(parse_poly("3/2*x + y^2 + x*y")), "1/5")',
    'verify_surface_theorem(parse_divisor("1/3*(x^4 - 4*y^2) + 1/3*(x^2 - 2*y)"), '
    'curve_orient(parse_poly("x")), "1/4")',
    'verify_surface_theorem(parse_divisor("1/3*(x^6 - 8*y^3) + 1/3*(x^2 + 2*y)"), '
    'curve_orient(parse_poly("x")), "1/4")',
    'nondegeneracy_check(parse_divisor("1/2*(x^1000000000 + x^999999999*y + y^1000000000)"))',
    'contact_along_curve(parse_divisor("1/2*(x^1000000000 + y)"), '
    'curve_orient(parse_poly("x + 3*y")))',
    'delta_bound("1/2")',
    'delta_bound("1/10000")',
    'toric_log_discrepancy(parse_divisor("1*(x)"), (1,))',
    'polytope_from_support([(Fraction(1, 2), 0)])',
]


def test_package_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def _names_in(annotation):
    """The names an annotation reads, inside string annotations too."""
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _names_in(ast.parse(sub.value, mode="eval"))
        elif isinstance(sub, ast.Name):
            yield sub.id


def test_package_imports_are_used():
    """Every name an import binds in the package or the tests is read: as a
    name, or inside a string annotation such as ``"list[IntVec]"``."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
                used.update(_names_in(node.annotation))
            elif isinstance(node, ast.FunctionDef) and node.returns:
                used.update(_names_in(node.returns))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert not unused, f"imported but never used: {unused}"


def test_library_definitions_have_a_shipped_caller():
    """Every top-level function and class and every non-dunder method of the
    package is named in the package or in bench/, as a name or an
    attribute, or is listed in an ``__all__``: code that only the tests
    reach belongs in the tests."""
    paths = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in paths + sorted((PACKAGE.parents[1] / "bench").glob("*.py"))}
    named = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            named.update(ast.literal_eval(node.value))
    defined = []
    for path in paths:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, f"{node.name}.{sub.name}", sub.name) for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")]
    unused = [f"{file}: {qualified}" for file, qualified, name in defined if name not in named]
    assert not unused, f"defined but never named outside the tests: {unused}"


def test_optimized_interpreter_gives_the_same_answers():
    namespace: dict = {}
    exec(EVALUATE, namespace)
    expected = [namespace["evaluate"](case) for case in CASES]
    child = EVALUATE + (
        "import json, sys\n"
        "print(json.dumps([sys.flags.optimize] + [evaluate(c) for c in json.loads(sys.argv[1])]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-O", "-c", child, json.dumps(CASES)],
                         capture_output=True, text=True, env=env, timeout=60, check=True)
    optimize, *answers = json.loads(out.stdout)
    assert optimize == 1
    assert answers == expected
