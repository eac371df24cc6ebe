"""Rules the package's source code keeps."""

import ast
from pathlib import Path

import poolattn

SOURCES = sorted(Path(poolattn.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    """Preconditions and numerical failures raise explicit errors: an ``assert``
    vanishes under ``python -O``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert not found, f"assert statements in the package: {found}"
