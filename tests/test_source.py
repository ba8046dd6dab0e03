"""Checks over the package source itself."""

import ast
import pathlib

import gfe25


def test_no_assert_statements():
    # `python -O` strips assert statements, so every check must raise instead
    found = []
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
