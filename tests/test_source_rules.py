"""Rules on the library source that no behaviour test can see."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "biharm").glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant must be a typed raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def test_library_never_evaluates_code():
    # data expressions are translated to numpy operations, never run as code
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"eval", "exec", "compile", "__import__"}
    ]
    assert SOURCES and found == []


def _freezes_an_array(node: ast.AST) -> bool:
    """An assignment to ``<array>.flags.writeable`` or an ``<array>.setflags`` call."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr == "setflags"
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Attribute)
        and t.attr == "writeable"
        and isinstance(t.value, ast.Attribute)
        and t.value.attr == "flags"
        for t in node.targets
    )


def _where(matches) -> list[str]:
    """``file:function`` of every node of the library source that ``matches``."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = {}  # node id -> name of its innermost enclosing function; walks go outside in
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update((id(node), function.name) for node in ast.walk(function))
        found += [
            f"{path.name}:{scope.get(id(node), '<module>')}" for node in ast.walk(tree) if matches(node)
        ]
    return found


def test_only_mesh_owned_sets_an_array_writeable_flag():
    # one copy-and-freeze rule: every array a frozen object keeps enters through mesh._owned
    assert _where(_freezes_an_array) == ["mesh.py:_owned"]


def _builds_quadrature_points(node: ast.AST) -> bool:
    """A call of ``quad_points`` or ``<module>.quad_points``."""
    if not isinstance(node, ast.Call):
        return False
    return getattr(node.func, "id", getattr(node.func, "attr", None)) == "quad_points"


def test_only_fem_volume_points_builds_quadrature_points():
    # the default rule's points are held per space, so no caller may build them around it
    assert _where(_builds_quadrature_points) == ["fem.py:_volume_points"]


def _reads_integral(node: ast.AST) -> bool:
    """A read of ``Integral`` or ``<module>.Integral``."""
    return getattr(node, "id", getattr(node, "attr", None)) == "Integral"


def test_only_mesh_integer_reads_integral():
    # one integer-argument rule: every size, degree, order, budget and exponent
    # goes through mesh._integer
    inside_functions = [where for where in _where(_reads_integral) if not where.endswith(":<module>")]
    assert inside_functions == ["mesh.py:_integer"]


_WRITE_MODE = set("wax+")
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def _writes_a_file(node: ast.AST) -> bool:
    """A read of ``write_text`` or ``write_bytes``, or an ``open`` or ``<x>.open``
    call given a write mode or a write flag."""
    if getattr(node, "attr", None) in {"write_text", "write_bytes"}:
        return True
    if not isinstance(node, ast.Call):
        return False
    if getattr(node.func, "id", getattr(node.func, "attr", None)) != "open":
        return False
    # open(file, mode); os.open(file, flags), io.open(file, mode) or Path.open(mode)
    mode = node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:2]
    for arg in [*mode, *(k.value for k in node.keywords if k.arg in {"mode", "flags"})]:
        for part in ast.walk(arg):
            if isinstance(part, ast.Constant) and _WRITE_MODE & set(str(part.value)):
                return True
            if getattr(part, "id", getattr(part, "attr", None)) in _WRITE_FLAGS:
                return True
    return False


def test_only_mesh_write_text_writes_a_file():
    # one write path: in place, without the stall of a truncate on open; its
    # os.open and the open of the descriptor are the two calls
    assert _where(_writes_a_file) == ["mesh.py:_write_text"] * 2


def _casts_with_asarray(node: ast.AST) -> bool:
    """An ``asarray`` or ``<module>.asarray`` call given a dtype."""
    if not isinstance(node, ast.Call):
        return False
    if getattr(node.func, "id", getattr(node.func, "attr", None)) != "asarray":
        return False
    return len(node.args) > 1 or any(k.arg == "dtype" for k in node.keywords)


def test_no_function_casts_an_array_argument_with_asarray():
    # one cast rule for array arguments: a dtype goes through mesh._cast, which
    # refuses a cast that changes a value, where asarray would truncate or drop it
    assert _where(_casts_with_asarray) == []
