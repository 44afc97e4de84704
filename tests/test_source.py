"""Source-level rules for the package."""

import ast
from pathlib import Path

import gaborinv


def test_no_assert_statements():
    """`python -O` strips assert, so no runtime check may rely on one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(gaborinv.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found
