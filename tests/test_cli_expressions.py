"""parse_expression against the eval path it replaced.

On every expression the command-line property test draws, the numpy closures
give the same bits, or the same ExpressionError, as the old path: the
whitelist check, ``**`` rewritten to the ``_power`` guard, then ``compile`` and
``eval`` with no builtins. That path is kept here only as the reference.
"""

import ast

import numpy as np
from hypothesis import example, given, settings
from test_cli_properties import EXPRESSIONS

from biharm.cli import ExpressionError, _power, parse_expression

CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
# zeros of both signs, negatives, and values whose squares overflow
X = np.array([0.0, -0.0, -2.5, 1e300, -1e300, 3.0, 1e-300])
Y = np.array([1e-300, 0.0, -1.0, 2.0, 1e300, -7.5, -1e300])


def _check(node):
    """The whitelist the eval path ran before compiling."""
    if isinstance(node, ast.Expression):
        _check(node.body)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, BINOPS):
        _check(node.left)
        _check(node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _check(node.operand)
    elif isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        pass
    elif isinstance(node, ast.Name) and node.id in ("x", "y", "pi"):
        pass
    elif isinstance(node, ast.Call):
        if (
            not isinstance(node.func, ast.Name)
            or node.func.id not in CALLS
            or len(node.args) != 1
            or node.keywords
        ):
            raise ExpressionError(
                f"only {', '.join(sorted(CALLS))} calls with one argument are allowed"
            )
        _check(node.args[0])
    else:
        raise ExpressionError(f"disallowed syntax: {ast.dump(node)[:60]}")


class _Powers(ast.NodeTransformer):
    """Turns each ``a ** b`` into ``_power(a, b)``."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        call = ast.Call(ast.Name("_power", ast.Load()), [node.left, node.right], [])
        return ast.copy_location(call, node)


def reference(text):
    """The eval path: check, rewrite powers, compile, eval with empty builtins."""
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
        _check(tree)
        tree = ast.fix_missing_locations(_Powers().visit(tree))
        code = compile(tree, "<expression>", "eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc.msg}") from None
    env = {"pi": np.pi, "_power": _power, **CALLS}

    def func(x, y):
        try:
            with np.errstate(all="ignore"):
                return eval(code, {"__builtins__": {}}, {"x": x, "y": y, **env})
        except (ArithmeticError, TypeError) as exc:
            raise ExpressionError(f"cannot evaluate expression {text!r}: {exc}") from None

    return func


def _outcome(parse, text):
    """What ``parse`` makes of ``text`` on (X, Y): the phase and message of its
    ExpressionError, or the value's type and bits."""
    try:
        func = parse(text)
    except ExpressionError as exc:
        return "parse", str(exc)
    try:
        value = func(X, Y)
    except ExpressionError as exc:
        return "evaluate", str(exc)
    if isinstance(value, int):  # exact, possibly beyond every numpy dtype
        return type(value), value
    return type(value), np.asarray(value).dtype, np.asarray(value).tobytes()


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
@example("2**64 + 3**40 - x")
@example("(2^64)^(2^64)")
@example("sin(10**400)")
@example("-(1/0) + y")
@example("x^-1 * +y")
@example("sin(x, y)")
@example("x + z")
@example("1j * x")
@example("sin(*x)")
@example("x +")
def test_closures_match_the_eval_path_bit_for_bit(text):
    assert _outcome(parse_expression, text) == _outcome(reference, text)
