import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import random_expr
from mpmath import mp

from epsnet import expr as ex
from epsnet.expr import (
    BinOp,
    Call,
    Const,
    EvalError,
    IntPow,
    Neg,
    ParseError,
    evaluate,
    parse,
    partial,
    partial_multi,
    subst,
    to_text,
)


def strip_ws(s):
    return "".join(s.split())


class TestParse:
    def test_wellformed_2d(self):
        e = parse("exp(-(x1^2+x2^2))", 2)
        assert ex.variables(e) == {"x1", "x2"}

    def test_eps_variable(self):
        e = parse("eps*sin(x1)", 1)
        assert "eps" in ex.variables(e)

    def test_index_exceeds_dimension(self):
        with pytest.raises(ParseError, match="exceeds dimension"):
            parse("sin(x3)", 2)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("foo(x1)", 1)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + * 2", 1)
        assert err.value.position == 5

    @pytest.mark.parametrize(
        "text, position",
        [("\u00b2", 0), ("3\u00b2", 1), ("\u0661+x1", 0), ("x1+\u0663.5", 3), ("1.\u0665", 2),
         ("x\u0661", 0), ("x\u00b9", 0)],
        ids=["superscript", "trailing-superscript", "arabic-indic", "arabic-indic-number",
             "arabic-indic-fraction", "arabic-indic-index", "superscript-index"],
    )
    def test_non_ascii_digits_are_positioned_parse_errors(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text, 1)
        assert err.value.position == position

    @pytest.mark.parametrize("name", ["x\u0661", "x\u00b2", "x\uff11"])
    def test_variable_index_takes_ascii_digits_only(self, name):
        with pytest.raises(ValueError, match="not a variable name"):
            ex.spatial_index(name)

    def test_whitespace_insignificant(self):
        a = parse("eps * sin( x1 )", 1)
        b = parse("eps*sin(x1)", 1)
        assert a == b

    def test_integer_power_node(self):
        assert parse("x1^3", 1) == IntPow(ex.Var("x1"), 3)
        assert parse("x1^(-2)", 1) == IntPow(ex.Var("x1"), -2)

    def test_non_integer_power_desugars(self):
        e = parse("eps^(1/eps)", 0)
        assert strip_ws(to_text(e)) == "exp(1/eps*ln(eps))"
        e2 = parse("x1^0.5", 1)
        assert isinstance(e2, ex.Call) and e2.fn == "exp"

    def test_roundtrip_identity_core_grammar(self):
        for text in [
            "eps*sin(x1)",
            "exp(-(x1^2+x2^2))",
            "x1^2-x2^2",
            "1+2*x1/(3-x2)",
            "-x1^2",
            "cosh(x1)*sinh(x2)-tanh(eps)",
            "sqrt(1+x1^2)",
        ]:
            d = 2
            e = parse(text, d)
            assert parse(to_text(e), d) == e
            assert strip_ws(to_text(e)) == strip_ws(text)


class TestEval:
    def test_eps_sin(self):
        e = parse("eps*sin(x1)", 1)
        assert evaluate(e, 0.5, (math.pi / 2,)) == pytest.approx(0.5, abs=1e-15)

    def test_exp_zero(self):
        e = parse("exp(-(x1^2))", 1)
        assert evaluate(e, 0.125, (0.0,)) == 1.0

    def test_underflow_to_zero(self):
        # oracle: extended-precision value is far below the smallest double
        eps = 2.0**-10
        with mp.workprec(128):
            true = mp.exp(mp.log(eps) / eps)
            assert true < mp.mpf(5e-324)
        e = parse("eps^(1/eps)", 0)
        assert evaluate(e, eps, ()) == 0.0

    def test_domain_errors(self):
        with pytest.raises(EvalError, match="sqrt"):
            evaluate(parse("sqrt(x1)", 1), 0.5, (-1.0,))
        with pytest.raises(EvalError, match="ln"):
            evaluate(parse("ln(x1)", 1), 0.5, (0.0,))
        with pytest.raises(EvalError, match="division"):
            evaluate(parse("1/x1", 1), 0.5, (0.0,))

    def test_error_carries_subexpression(self):
        try:
            evaluate(parse("1 + sqrt(x1-2)", 1), 0.5, (0.0,))
        except EvalError as err:
            assert "sqrt" in to_text(err.subexpr)
        else:
            pytest.fail("expected EvalError")

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            evaluate(parse("eps", 0), 0.0, ())

    def test_determinism_bitwise(self):
        e = parse("sin(x1)*exp(eps)/(2+cos(x1))", 1)
        a = evaluate(e, 0.37, (1.234,))
        b = evaluate(e, 0.37, (1.234,))
        assert a == b and np.float64(a).tobytes() == np.float64(b).tobytes()

    def test_overflow_gives_inf(self):
        assert evaluate(parse("exp(1/eps)", 0), 2.0**-12, ()) == math.inf


class TestPartial:
    def test_power_rule(self):
        d = partial(parse("x1^2", 1), 1)
        for x in (-2.0, 0.0, 0.7, 3.1):
            assert evaluate(d, 0.5, (x,)) == pytest.approx(2 * x, rel=1e-12)

    def test_sin_rule_at_zero(self):
        d = partial(parse("sin(x1)", 1), 1)
        assert evaluate(d, 0.5, (0.0,)) == 1.0

    def test_second_derivative_gaussian(self):
        # oracle: central finite difference of the first derivative
        e = parse("exp(-(x1^2))", 1)
        d1 = partial(e, 1)
        d2 = partial(d1, 1)
        h = 1e-5
        fd = (evaluate(d1, 0.5, (h,)) - evaluate(d1, 0.5, (-h,))) / (2 * h)
        got = evaluate(d2, 0.5, (0.0,))
        assert abs(got - fd) <= 1e-6 * (1 + abs(got))
        assert got == pytest.approx(-2.0, rel=1e-12)

    def test_eps_derivative(self):
        d = partial(parse("eps^2*x1", 1), "eps")
        assert evaluate(d, 0.25, (3.0,)) == pytest.approx(1.5, rel=1e-12)

    def test_multi_index(self):
        e = parse("x1^2*x2^3", 2)
        d = partial_multi(e, (1, 2))
        # d/dx1 d2/dx2^2 of x1^2 x2^3 = 2 x1 * 6 x2 = 12 x1 x2
        assert evaluate(d, 0.5, (2.0, 3.0)) == pytest.approx(72.0, rel=1e-12)


def _filtered_sample(rng, d):
    """Draw (expr, eps, x) staying away from domain boundaries and blowups."""
    while True:
        e = random_expr(rng, d, max_depth=5)
        if not ex.variables(e) - {"eps"}:
            continue
        eps = rng.uniform(1e-3, 1.0)
        x = [rng.uniform(-2.0, 2.0) for _ in range(d)]
        try:
            base = evaluate(e, eps, x)
            derivs = [evaluate(partial(e, i), eps, x) for i in range(1, d + 1)]
            probes = []
            h = 1e-6
            for i in range(d):
                for s in (h, -h):
                    xs = list(x)
                    xs[i] += s
                    probes.append(evaluate(e, eps, xs))
        except EvalError:
            continue
        values = [base, *derivs, *probes]
        if all(math.isfinite(v) and abs(v) < 1e8 for v in values):
            return e, eps, x, derivs


def test_gradient_check_100_random_expressions():
    rng = random.Random(20260809)
    h = 1e-6
    checked = 0
    while checked < 100:
        d = rng.choice((1, 2))
        e, eps, x, derivs = _filtered_sample(rng, d)
        for i in range(1, d + 1):
            xp, xm = list(x), list(x)
            xp[i - 1] += h
            xm[i - 1] -= h
            fd = (evaluate(e, eps, xp) - evaluate(e, eps, xm)) / (2 * h)
            sym = derivs[i - 1]
            assert abs(sym - fd) <= 1e-4 * (1 + abs(sym)), to_text(e)
        checked += 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_print_parse_print_fixed_point(seed):
    rng = random.Random(seed)
    e = random_expr(rng, 2, max_depth=4)
    text = to_text(e)
    once = to_text(parse(text, 2))
    twice = to_text(parse(once, 2))
    assert once == twice
    assert parse(once, 2) == parse(twice, 2)


def test_subst_folds_constants():
    e = parse("cos(x1)*x2", 2)
    out = subst(e, {"x1": Const(0.0)})
    assert out == ex.Var("x2")


def test_overflowing_fold_stays_a_printable_node():
    out = subst(parse("(x1+1e200)*(x1+1e200)", 1), {"x1": Const(0.0)})
    assert to_text(out) == "1e+200*1e+200"
    assert evaluate(out, 1.0) == math.inf


@pytest.mark.parametrize(
    "build, args, value",
    [
        (ex.c_add, (Const(1e308), Const(1e308)), math.inf),
        (ex.c_sub, (Const(-1e308), Const(1e308)), -math.inf),
        (ex.c_mul, (Const(1e200), Const(-1e200)), -math.inf),
        (ex.c_div, (Const(1e300), Const(1e-300)), math.inf),
        (ex.c_intpow, (Const(1e200), 3), math.inf),
        (ex.c_call, ("exp", Const(1000.0)), math.inf),
        (ex.c_call, ("cosh", Const(-1000.0)), math.inf),
        (ex.c_div, (Const(1.0), Const(0.0)), "division by zero"),
        (ex.c_intpow, (Const(0.0), -2), "zero base with negative exponent"),
        (ex.c_call, ("sqrt", Const(-1.0)), "sqrt of negative value"),
        (ex.c_call, ("ln", Const(0.0)), "ln of non-positive value"),
    ],
    ids=["add", "sub", "mul", "div", "pow", "exp", "cosh", "div-zero", "pow-zero", "sqrt", "ln"],
)
def test_no_constructor_folds_a_non_finite_or_undefined_constant(build, args, value):
    out = build(*args)
    assert not isinstance(out, Const)
    to_text(out)
    if isinstance(value, str):
        with pytest.raises(EvalError, match=value):
            evaluate(out, 1.0)
    else:
        assert evaluate(out, 1.0) == value


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _kernel_value(e, eps, point):
    """``e`` at the point by the evaluator, or None on a domain error."""
    try:
        return float(ex.eval_points(e, eps, point)[0])
    except EvalError:
        return None


def _rebuilt(node, kids):
    """``node`` over the given children, without folding."""
    if isinstance(node, BinOp):
        return BinOp(node.op, *kids)
    if isinstance(node, IntPow):
        return IntPow(kids[0], node.exponent)
    if isinstance(node, Call):
        return Call(node.fn, kids[0])
    return Neg(kids[0])


def _check_fold(node, mapping, eps, point):
    """Substitute into ``node`` and each of its subtrees; returns the result
    and whether every subtree evaluates, at the point, to a finite value."""
    kids = [_check_fold(k, mapping, eps, point) for k in ex._children(node)]
    out = subst(node, mapping)
    value = _kernel_value(node, eps, point)
    finite = all(ok for _, ok in kids) and value is not None and math.isfinite(value)
    if finite:
        # every subtree folded, to the evaluator's value bit for bit
        assert isinstance(out, Const) and _bits(out.value) == _bits(value), to_text(node)
    if kids and all(isinstance(k, Const) for k, _ in kids):
        # a fold over constant operands is the kernel's op on those operands,
        # and is refused exactly where that is non-finite or a domain error
        step = _kernel_value(_rebuilt(node, [k for k, _ in kids]), eps, point)
        if step is None or not math.isfinite(step):
            assert not isinstance(out, Const), to_text(node)
        else:
            assert isinstance(out, Const) and _bits(out.value) == _bits(step), to_text(node)
    if isinstance(out, Const):
        assert math.isfinite(out.value)
    return out, finite


_COORD = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1.0, 750.0, 1e200, -1e200]))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), _COORD, _COORD, st.floats(1e-3, 4.0))
def test_substituting_constants_folds_as_the_evaluator_evaluates(seed, x1, x2, eps):
    e = random_expr(random.Random(seed), 2, max_depth=4)
    mapping = {"x1": Const(x1), "x2": Const(x2), "eps": Const(eps)}
    out, _ = _check_fold(e, mapping, eps, np.array([[x1, x2]]))
    to_text(out)


def test_multi_index_validation():
    with pytest.raises(ValueError):
        ex.multi_index((3, 2), max_order=4)
    mi = ex.multi_index((2, 2), max_order=4)
    assert mi.total == 4
    with pytest.raises(ValueError):
        ex.MultiIndex((-1,))
