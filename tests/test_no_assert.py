"""The package raises exceptions for its invariants and never uses
``assert``, so running under ``python -O`` cannot change a verdict."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "qcongruence").glob("*.py"))


def test_package_has_no_assert_statement():
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
