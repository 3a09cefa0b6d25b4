import math

import pytest

from thermomap.errors import SchemaError
from thermomap.expr import FUNCTIONS, compile_expr


def _grid(lo, hi, n):
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _hexes(fn, xs):
    return [float.hex(fn(x)) for x in xs]


class TestFloatIdentity:
    """The compiled functions do math's float operations in the order a
    hand-written Python function would."""

    @pytest.mark.parametrize("text, lo, hi, fwd, deriv", [
        ("sin(pi*x)", 0.0, 1.0,
         lambda x: math.sin(math.pi * x),
         lambda x: math.pi * math.cos(math.pi * x)),
        ("2048*sin(pi*x/2048)", 0.0, 2048.0,
         lambda x: 2048 * math.sin(math.pi * x / 2048),
         lambda x: math.pi * math.cos(math.pi * x / 2048)),
    ], ids=["sine", "wide-sine"])
    def test_sine_maps_bit_for_bit(self, text, lo, hi, fwd, deriv):
        f, df = compile_expr(text)
        xs = _grid(lo, hi, 10_007) + [5e-324, math.nextafter(hi, lo)]
        assert _hexes(f, xs) == _hexes(fwd, xs)
        assert _hexes(df, xs) == _hexes(deriv, xs)

    def test_polynomial_as_written(self):
        f, df = compile_expr("4*x*(1-x)")
        xs = _grid(0.0, 1.0, 1001)
        assert _hexes(f, xs) == _hexes(lambda x: 4.0 * x * (1.0 - x), xs)
        # the product rule on (4*x)*(1-x), as written
        assert _hexes(df, xs) == _hexes(lambda x: 4.0 * (1.0 - x) + 4.0 * x * -1.0, xs)

    def test_caret_is_a_power_and_literals_are_floats(self):
        f, df = compile_expr("x^2 + 7/2")
        assert (f(3.0), df(3.0)) == (12.5, 6.0)
        assert type(f(3)) is float

    def test_constant_subtrees_fold(self):
        f, df = compile_expr("(pi/2)*x + E**2")
        assert f(1.0) == math.pi / 2 + math.e ** 2
        assert df(0.25) == math.pi / 2

    def test_no_builtins(self):
        f, df = compile_expr("exp(x)")
        assert f.__globals__["__builtins__"] == {}
        assert df.__globals__["__builtins__"] == {}


# every whitelisted function and operator, with its derivative in closed form
CLOSED_FORMS = [
    ("sin(x)", math.cos),
    ("cos(2*x)", lambda x: -2 * math.sin(2 * x)),
    ("tan(x)", lambda x: 1 / math.cos(x) ** 2),
    ("asin(x/2)", lambda x: 1 / math.sqrt(4 - x * x)),
    ("acos(x/2)", lambda x: -1 / math.sqrt(4 - x * x)),
    ("atan(x)/(1+x)",
     lambda x: (1 / (1 + x * x)) / (1 + x) - math.atan(x) / (1 + x) ** 2),
    ("sinh(x)", math.cosh),
    ("cosh(x)", math.sinh),
    ("tanh(x)", lambda x: 1 / math.cosh(x) ** 2),
    ("exp(x)*x**3", lambda x: math.exp(x) * (x ** 3 + 3 * x ** 2)),
    ("log(1+x)", lambda x: 1 / (1 + x)),
    ("sqrt(1+x)", lambda x: 0.5 / math.sqrt(1 + x)),
    ("x**x", lambda x: x ** x * (math.log(x) + 1)),
    ("2^x - x", lambda x: 2 ** x * math.log(2) - 1),
    ("-(x^3) - +x", lambda x: -3 * x * x - 1),
    ("E**x/(x+2)", lambda x: math.exp(x) * (x + 1) / (x + 2) ** 2),
    ("1/(x+1)**2", lambda x: -2 / (x + 1) ** 3),
    ("x**-0.5", lambda x: -0.5 * x ** -1.5),
]


@pytest.mark.parametrize("text, closed", CLOSED_FORMS,
                         ids=[text for text, _ in CLOSED_FORMS])
def test_derivative_matches_the_closed_form(text, closed):
    _, df = compile_expr(text)
    for x in [k / 16 for k in range(1, 17)]:  # (0, 1], away from poles
        assert math.isclose(df(x), closed(x), rel_tol=1e-12), x


def test_closed_forms_cover_the_grammar():
    texts = " ".join(text for text, _ in CLOSED_FORMS)
    assert all(name + "(" in texts for name in FUNCTIONS)
    assert all(op in texts for op in ["+", "-", "*", "/", "**", "^", "E"])


@pytest.mark.parametrize("text, message", [
    ("sin(", "cannot parse"),
    ("x < 1", "is not an expression in x"),
    ("y + f(x)", "names other than x: f, y"),
    ("Abs(x)", "names other than x: Abs"),
    ("+".join(["x"] * 5000), "cannot parse"),
    ("-" * 100_000 + "x", "cannot parse"),
], ids=["syntax", "comparison", "free-names", "unknown-function", "deep",
        "deep-unary"])
def test_refusals(text, message):
    with pytest.raises(SchemaError) as exc:
        compile_expr(text)
    assert str(exc.value).startswith("expr: ") and message in str(exc.value)


@pytest.mark.parametrize("text", ["9**9**9**9*x", "1e999*x", "(-8)**(1/3)*x",
                                  "log(0)*x", "1/0*x", "1" * 400 + "*x"])
def test_constants_that_are_not_finite_floats(text):
    with pytest.raises((ArithmeticError, ValueError)):
        compile_expr(text)
