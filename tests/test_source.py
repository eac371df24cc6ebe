"""Rules the package's source code keeps."""

import ast
import re
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


def test_only_core_names_the_small_product_rule():
    """The BLAS rounding rule lives in ``core.product``: every other module
    projects exactly the rows it reads and never sizes a product itself."""
    rule = re.compile(r"\b(product_rows|SMALL_PRODUCT)\b")
    found = [path.name for path in SOURCES
             if path.name != "core.py" and rule.search(path.read_text(encoding="utf-8"))]
    assert not found, f"modules naming product_rows or SMALL_PRODUCT outside core.py: {found}"


def test_no_backward_reads_z():
    """The backward takes the second level's D from each block's own
    probabilities: no backward function in ``attention.py`` reads a trace's
    ``z``, a view that re-runs the second level and holds a whole (n, d) array."""
    path = Path(poolattn.__file__).parent / "attention.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    backward = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and "backward" in node.name]
    found = [
        f"{func.name}:{node.lineno}"
        for func in backward
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "z"
    ]
    assert {"_block_backward", "_second_backward", "layer_backward"} <= {f.name for f in backward}
    assert not found, f"backward functions reading z: {found}"
