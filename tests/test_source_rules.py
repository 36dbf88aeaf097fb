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
