"""Compile a custom map's expression in x into float functions f and f'.

The grammar is a whitelist of Python expression syntax: the operators
``+ - * / **`` (``^`` is read as ``**``) and unary ``+``/``-``, int and
float literals (read as floats), the names ``x``, ``pi`` and ``E``, and
the one-argument functions in ``FUNCTIONS``.  Anything else is refused
before any code is built.  f' comes from the chain, product, quotient and
power rules applied to the tree as written.  Both functions evaluate in
float order as written, with every constant-only subtree folded once by
the same float operation.
"""

from __future__ import annotations

import ast
import math
import operator
from typing import Callable

from .errors import SchemaError

FUNCTIONS = {name: getattr(math, name) for name in (
    "sin", "cos", "tan", "asin", "acos", "atan",
    "sinh", "cosh", "tanh", "exp", "log", "sqrt")}
CONSTANTS = {"pi": math.pi, "E": math.e}

_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**"}
_AST_OPS = {op: cls for cls, op in _BINOPS.items()}
_EVAL = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv, "**": operator.pow, "neg": operator.neg,
         **FUNCTIONS}

# A node is ("x",), ("c", value) or (op, *operands) with op a key of _EVAL.
X = ("x",)
ZERO, HALF, ONE, TWO = ("c", 0.0), ("c", 0.5), ("c", 1.0), ("c", 2.0)


def _const(value) -> tuple:
    if not isinstance(value, float) or not math.isfinite(value):
        raise ValueError(f"constant subexpression evaluates to {value!r}")
    return ("c", value)


def _node(op: str, *args: tuple) -> tuple:
    """The node ``op(*args)``, folded to a constant when every operand is one."""
    if all(a[0] == "c" for a in args):
        return _const(_EVAL[op](*(a[1] for a in args)))
    return (op, *args)


def _tree(node: ast.AST, text: str, unknown: set[str]) -> tuple:
    """The whitelisted Python expression ``node`` as a folded tree; the
    names outside the grammar go into ``unknown``."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _node(_BINOPS[type(node.op)], _tree(node.left, text, unknown),
                     _tree(node.right, text, unknown))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        arg = _tree(node.operand, text, unknown)
        return _node("neg", arg) if isinstance(node.op, ast.USub) else arg
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return _const(float(node.value))
    if isinstance(node, ast.Name):
        if node.id == "x":
            return X
        if node.id in CONSTANTS:
            return ("c", CONSTANTS[node.id])
        unknown.add(node.id)
        return X
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and len(node.args) == 1 and not node.keywords):
        arg = _tree(node.args[0], text, unknown)
        if node.func.id in FUNCTIONS:
            return _node(node.func.id, arg)
        if node.func.id not in CONSTANTS and node.func.id != "x":
            unknown.add(node.func.id)
            return X
    raise SchemaError(f"expr: {text!r} is not an expression in x")


# derivative builders: fold constants and drop the trivial 0 and 1 terms
def _add(a, b):
    return b if a == ZERO else a if b == ZERO else _node("+", a, b)


def _sub(a, b):
    return a if b == ZERO else _node("neg", b) if a == ZERO else _node("-", a, b)


def _mul(a, b):
    if ZERO in (a, b):
        return ZERO
    return b if a == ONE else a if b == ONE else _node("*", a, b)


def _div(a, b):
    return ZERO if a == ZERO else a if b == ONE else _node("/", a, b)


def _pow(a, b):
    return ONE if b == ZERO else a if b == ONE else _node("**", a, b)


#: f'(u) for each function f
_OUTER = {
    "sin": lambda u: _node("cos", u),
    "cos": lambda u: _node("neg", _node("sin", u)),
    "tan": lambda u: _div(ONE, _pow(_node("cos", u), TWO)),
    "asin": lambda u: _div(ONE, _node("sqrt", _sub(ONE, _pow(u, TWO)))),
    "acos": lambda u: _div(("c", -1.0), _node("sqrt", _sub(ONE, _pow(u, TWO)))),
    "atan": lambda u: _div(ONE, _add(ONE, _pow(u, TWO))),
    "sinh": lambda u: _node("cosh", u),
    "cosh": lambda u: _node("sinh", u),
    "tanh": lambda u: _sub(ONE, _pow(_node("tanh", u), TWO)),
    "exp": lambda u: _node("exp", u),
    "log": lambda u: _div(ONE, u),
    "sqrt": lambda u: _div(HALF, _node("sqrt", u)),
}


def _derivative(n: tuple) -> tuple:
    op = n[0]
    if op in ("x", "c"):
        return ONE if op == "x" else ZERO
    if op == "neg":
        return _sub(ZERO, _derivative(n[1]))
    if op in _OUTER:
        return _mul(_OUTER[op](n[1]), _derivative(n[1]))
    u, v = n[1], n[2]
    du, dv = _derivative(u), _derivative(v)
    if op == "+":
        return _add(du, dv)
    if op == "-":
        return _sub(du, dv)
    if op == "*":
        return _add(_mul(du, v), _mul(u, dv))
    if op == "/":
        if v[0] == "c":
            return _div(du, v)
        return _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, TWO))
    if v[0] == "c":  # u ** c
        return _mul(_mul(v, _pow(u, _node("-", v, ONE))), du)
    return _mul(n, _add(_mul(dv, _node("log", u)), _div(_mul(v, du), u)))


def _python(n: tuple) -> ast.expr:
    op = n[0]
    if op == "x":
        return ast.Name("x", ast.Load())
    if op == "c":
        return ast.Constant(n[1])
    if op == "neg":
        return ast.UnaryOp(ast.USub(), _python(n[1]))
    if op in FUNCTIONS:
        return ast.Call(ast.Name(op, ast.Load()), [_python(n[1])], [])
    return ast.BinOp(_python(n[1]), _AST_OPS[op](), _python(n[2]))


def _function(n: tuple) -> Callable[[float], float]:
    """``lambda x: n`` compiled over ``math``, with no builtins."""
    code = ast.parse("lambda x: x", mode="eval")
    code.body.body = _python(n)
    return eval(compile(ast.fix_missing_locations(code), "<expr>", "eval"),
                {"__builtins__": {}, **FUNCTIONS})


def compile_expr(text: str) -> tuple[Callable[[float], float],
                                     Callable[[float], float]]:
    """(f, f') for the expression ``text`` in x.

    Raises SchemaError when ``text`` does not parse, leaves the grammar
    or names other than x; ArithmeticError or ValueError when a constant
    subexpression cannot be evaluated to a finite float.
    """
    try:
        body = ast.parse(text.strip().replace("^", "**"), mode="eval").body
    except (SyntaxError, ValueError, MemoryError, RecursionError) as exc:
        raise SchemaError(f"expr: cannot parse {text!r}: {exc}") from exc
    try:
        unknown: set[str] = set()
        tree = _tree(body, text, unknown)
        if unknown:
            raise SchemaError(f"expr: {text!r} names other than x: "
                              f"{', '.join(sorted(unknown))}")
        return _function(tree), _function(_derivative(tree))
    except RecursionError as exc:
        raise SchemaError(f"expr: cannot parse {text!r}: nested too deeply") from exc
