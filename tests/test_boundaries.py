"""The integer form of QuadMatrix has one owner, ``exact.py``.

Entry k of a matrix is (P[k] + Q[k]*sqrt(D)) / den in a canonical form that
only ``exact`` maintains.  Every other library module builds matrices
through public constructors (``from_coefficients``, ``vstack``, ...)
and reads them through public accessors (``coefficients``, ``parts``, ...).
This test reads the sources, so it holds on every interpreter the suite
runs on and costs no import.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rquiver"
PRIVATE_BUILDERS = {"_matrix", "_rref", "_rows_matrix"}
INTEGER_FORM = {"_P", "_Q", "_den", "_D"}


def crossings(source: str) -> list:
    """(line, name) of every import of a private builder and every read of
    an integer-form attribute (``x._P`` or ``getattr(x, "_P")``) in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in PRIVATE_BUILDERS]
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE_BUILDERS | INTEGER_FORM:
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in PRIVATE_BUILDERS | INTEGER_FORM):
            found.append((node.lineno, node.args[1].value))
    return sorted(found)


def test_only_exact_touches_the_integer_form():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "exact.py")
    assert len(modules) >= 10
    found = [f"{p.name}:{line} {name}" for p in modules
             for line, name in crossings(p.read_text())]
    assert found == []


def test_crossings_sees_each_form_of_access():
    source = """
from .exact import QuadMatrix, _rref
from . import exact
rows = exact._rows_matrix
m._P, m._den, getattr(m, "_Q")
"""
    assert crossings(source) == [(2, "_rref"), (4, "_rows_matrix"), (5, "_P"), (5, "_Q"),
                                 (5, "_den")]
