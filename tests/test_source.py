"""Rules the package's source code keeps, and the names README.md cites."""

import ast
import importlib
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


ATTENTION = Path(poolattn.__file__).parent / "attention.py"


def test_no_backward_reads_z():
    """The backward takes the second level's D from each block's own
    probabilities: no backward function in ``attention.py`` reads a trace's
    ``z``, a view that re-runs the second level and holds a whole (n, d) array."""
    tree = ast.parse(ATTENTION.read_text(encoding="utf-8"), filename=str(ATTENTION))
    backward = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and "backward" in node.name]
    found = [
        f"{func.name}:{node.lineno}"
        for func in backward
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "z"
    ]
    required = {"_block_backward", "_banded_backward", "layer_backward"}
    assert required <= {f.name for f in backward}
    assert not found, f"backward functions reading z: {found}"


def test_one_chunk_loop_per_direction():
    """Both levels stream their row chunks through one driver per direction,
    ``_banded_attention`` and ``_banded_backward``, and ``_second_chunks`` sizes
    its window over the same chunks: no other function in ``attention.py``
    calls ``row_chunks``, so no second backward loop grows back."""
    tree = ast.parse(ATTENTION.read_text(encoding="utf-8"), filename=str(ATTENTION))
    callers = {
        func.name
        for func in tree.body if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "row_chunks"
    }
    assert callers == {"_banded_attention", "_banded_backward", "_second_chunks"}, callers


def test_blocks_exponentiate_only_through_one_helper():
    """A block's forward and its replay exponentiate through one helper,
    ``_exp_scores``, which shifts, floors and takes exp, so the two cannot
    drift apart: in ``attention.py`` no other function calls an exp, apart from
    ``_banded_attention``'s online softmax of the extra (global) rows, under its
    ``if extra ...`` branch."""
    tree = ast.parse(ATTENTION.read_text(encoding="utf-8"), filename=str(ATTENTION))

    def exps(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute) and n.func.attr.startswith("exp")]

    funcs = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    calling = {name for name, f in funcs.items() if exps(f)}
    assert calling == {"_exp_scores", "_banded_attention"}, calling
    online = [node for node in ast.walk(funcs["_banded_attention"])
              if isinstance(node, ast.If) and "extra" in ast.unparse(node.test)]
    inside = {id(call) for branch in online for call in exps(branch)}
    outside = [call.lineno for call in exps(funcs["_banded_attention"]) if id(call) not in inside]
    assert inside and not outside, f"exp outside the extra rows' softmax, lines {outside}"


def test_only_the_banded_forward_silences_float_errors():
    """The suite turns RuntimeWarnings into errors, so a silenced overflow anywhere
    else could hide a real one: in the package only ``_banded_attention`` calls
    ``np.errstate``, around a block's unshifted try, which reruns shifted when its
    denominators or its output leave range."""
    found = {
        (path.name, getattr(top, "name", None))
        for path in SOURCES
        for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "errstate"
    }
    assert found == {("attention.py", "_banded_attention")}, found


def _callers(node: ast.AST, name: str, scope: tuple[str, ...] = ()) -> set[tuple[str, ...]]:
    """The scopes (function, class and class-attribute names, outermost first) that call
    ``name`` under ``node``."""
    found = set()
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = (*scope, child.name)
        elif isinstance(child, ast.Assign) and isinstance(node, ast.ClassDef):
            inner = (*scope, *(t.id for t in child.targets if isinstance(t, ast.Name)))
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) == name:
            found.add(inner)
        found |= _callers(child, name, inner)
    return found


def test_each_level_projects_in_one_place():
    """Each level's queries, keys and releases come from one builder,
    ``_first_chunks`` or ``_second_chunks``, that both drivers read: in
    ``attention.py`` only those and the trace views' input builders call
    ``project``, so no forward or backward grows its own projection back."""
    tree = ast.parse(ATTENTION.read_text(encoding="utf-8"), filename=str(ATTENTION))
    allowed = {
        ("_first_chunks",), ("_second_chunks",), ("FirstLevelTrace", "_input"),
        ("SecondLevelTrace", "_projected"),
    }
    callers = {
        next((a for a in allowed if scope[:len(a)] == a), scope)
        for scope in _callers(tree, "project")
    }
    assert callers == allowed, callers ^ allowed


def test_only_the_builders_release_through_the_projection_backward():
    """The releases ``_banded_backward`` takes are built by the level's
    builder, ``_first_chunks`` or ``_second_chunks``: only those call
    ``_projection_backward``, apart from ``layer_backward``'s one call for
    the global rows, so no backward grows its own release loop back."""
    tree = ast.parse(ATTENTION.read_text(encoding="utf-8"), filename=str(ATTENTION))
    callers = {scope[0] for scope in _callers(tree, "_projection_backward")}
    assert callers == {"_first_chunks", "_second_chunks", "layer_backward"}, callers
    layer = next(f for f in tree.body
                 if isinstance(f, ast.FunctionDef) and f.name == "layer_backward")
    calls = [node for node in ast.walk(layer) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_projection_backward"]
    assert len(calls) == 1


def test_each_level_builds_its_pooled_grid_once():
    """``_second_level`` builds the level's pooled grid, and every pooling call
    slices its segments from it: in the package only that function and the
    literal oracle call ``build_pooled_grid``."""
    callers = {
        (path.stem, *scope[:1])
        for path in SOURCES
        for scope in _callers(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
                              "build_pooled_grid")
    }
    assert callers == {("attention", "_second_level"),
                       ("oracle", "literal_pooling_attention")}, callers


README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("attention", "pooling", "core", "costmodel", "windowing", "harness", "oracle", "cli")


def test_readme_names_resolve():
    """Every backticked ``module.name`` README.md cites is an attribute of
    ``poolattn.<module>``, so a rename cannot leave the README stale."""
    cited = re.findall(rf"`({'|'.join(MODULES)})\.(\w+)`", README.read_text(encoding="utf-8"))
    stale = [f"{module}.{name}" for module, name in cited
             if not hasattr(importlib.import_module(f"poolattn.{module}"), name)]
    assert cited
    assert not stale, f"README.md names missing from the package: {stale}"
