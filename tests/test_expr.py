"""Tests for parsing, differentiation, simplification, evaluation, zero tests."""

import gc
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from expandlab import expr as expr_mod
from expandlab.expr import (
    DomainError,
    Expr,
    FunctionSpec,
    ParseError,
    UndeterminableOnBox,
    ZeroPolicy,
    compile_batch,
    compile_scalar,
    const,
    differentiate,
    domain_notes,
    enclosure,
    evaluate,
    free_vars,
    is_identically_zero,
    median,
    parse,
    rising,
    simplify,
    substitute,
    to_string,
    var,
)

# ---------------------------------------------------------------------------
# Independent oracle: translate to a Python expression and eval() it.
# Python shares the precedence conventions (** right-associative, unary minus
# below **), so this exercises a completely separate code path.
# ---------------------------------------------------------------------------

_PY_ENV = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}


def python_eval(text, **values):
    return eval(text.replace("^", "**"), {"__builtins__": {}}, {**_PY_ENV, **values})


def test_parse_structure_mul_add():
    e = parse("x*y + z")
    assert e.op == "add"
    assert e.args[0].op == "mul"
    assert {a.name for a in e.args[0].args} == {"x", "y"}
    assert e.args[1].name == "z"
    assert free_vars(e) == {"x", "y", "z"}


def test_parse_precedence():
    e = parse("x^2 + x*y")
    assert e.op == "add"
    assert e.args[0].op == "pow"
    assert e.args[1].op == "mul"


def test_parse_unary_minus_binds_below_pow():
    e = parse("-x^2")
    assert e.op == "neg"
    assert e.args[0].op == "pow"
    assert evaluate(e, {"x": 2}) == -4


def test_parse_against_independent_evaluator():
    rng = np.random.default_rng(7)
    texts = [
        "-x^2",
        "x^2 + x*y",
        "x*(y + z) - z/4",
        "2^3^2",
        "-x^2 + (-x)^2",
        "sin(x) + x*y",
        "exp(x/8)*cos(y) - sqrt(x*x)",
        "1.5*x - 2/3*y + 0.25",
    ]
    for text in texts:
        e = parse(text)
        for _ in range(100):
            vals = {v: float(rng.uniform(0.2, 2.0)) for v in ("x", "y", "z")}
            mine = evaluate(e, vals)
            ref = python_eval(text, **vals)
            assert math.isclose(mine, ref, rel_tol=1e-12, abs_tol=1e-12), text


def test_parse_minus_on_a_literal_is_a_negative_constant():
    e = parse("x^-2")
    assert e.args[1] == const(-2)
    # an integer power: defined at negative x, with no side condition
    assert evaluate(differentiate(e, "x"), {"x": -1.0}) == 2.0
    assert domain_notes(e) == []
    assert parse("-2*x").args[0] == const(-2)
    # a literal that is a power base keeps the minus outside the power
    assert parse("-2^2").op == "neg"
    assert evaluate(parse("-2^2"), {}) == -4
    assert evaluate(parse("x^-2^2"), {"x": 2.0}) == 2.0**-4


def test_parse_right_associative_pow():
    assert evaluate(parse("2^3^2"), {}) == 512


def test_parse_rational_and_decimal_literals():
    assert parse("2").value == Fraction(2)
    assert parse("0.125").value == Fraction(1, 8)
    assert parse("1e-3").value == Fraction(1, 1000)
    assert simplify(parse("2/3")).value == Fraction(2, 3)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse("x+")
    assert err.value.offset == 2
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError) as err:
        parse("x + foo(y)")
    assert "foo" in str(err.value)
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        parse("(x + y")


def _spine(e, index, op):
    """How many nodes of op lead down from e through operand index."""
    depth = 0
    while e.op == op:
        e, depth = e.args[index], depth + 1
    return depth, e


def test_parse_deep_inputs_without_recursion():
    # the parser keeps pending operators, parentheses and calls on an
    # explicit stack, so depth is limited only by memory
    assert parse("(" * 1_500 + "x*y" + ")" * 1_500) is parse("x*y")
    assert _spine(parse("-" * 5_000 + "x"), 0, "neg") == (5_000, var("x"))
    assert _spine(parse("-" * 5_000 + "2"), 0, "neg") == (4_999, const(-2))
    # '^' is right-associative: the chain runs down the exponents
    assert _spine(parse("^".join(["x"] * 5_000)), 1, "pow") == (4_999, var("x"))
    assert _spine(parse("sin(" * 3_000 + "x" + ")" * 3_000), 0, "sin") == (3_000, var("x"))
    with pytest.raises(ParseError) as err:
        parse("sin(" * 3_000 + "x" + ")" * 2_999)
    assert err.value.offset == 4 * 3_000 + 1 + 2_999


def test_printer_round_trip():
    rng = np.random.default_rng(3)
    texts = [
        "x*y + z",
        "-x^2",
        "(x + y)^3/(1 - x*y)",
        "sin(x)*cos(y) - exp(-x)",
        "x^-2 + 2/3",
        "x - (y - z)",
        "x/(y/z)",
        "(x^2)^3",
    ]
    for text in texts:
        e = parse(text)
        e2 = parse(to_string(e))
        for _ in range(100):
            vals = {v: float(rng.uniform(0.3, 1.7)) for v in ("x", "y", "z")}
            assert evaluate(e, vals) == evaluate(e2, vals), text


@pytest.mark.parametrize("k", [Fraction(1, 2), Fraction(-1, 2), -2])
def test_printer_round_trips_constant_exponents_and_divisors(k):
    # a non-integer constant prints as "p/q": as an exponent or a divisor it
    # needs parentheses, or x^1/2 reads as (x^1)/2
    x = var("x")
    for e in (x**k, x / const(k), const(k) ** x):
        text = to_string(e)
        back = parse(text)
        assert to_string(back) == text
        assert evaluate(back, {"x": 9.0}) == evaluate(e, {"x": 9.0}), text
    assert evaluate(parse(to_string(x**k)), {"x": 9.0}) == 9.0 ** float(k)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def test_diff_product_rule_simple():
    assert differentiate(parse("x*y"), "x") == parse("y")


def test_diff_polynomial():
    assert differentiate(parse("x^2 + x*y"), "x") == simplify(parse("2*x + y"))


def test_diff_second_mixed_partial_vanishes():
    f = parse("x*(y + z)")
    fy = differentiate(f, "y")
    assert fy == parse("x")
    fyz = differentiate(fy, "z")
    assert fyz == const(0)


def central_fd(e, v, point, h):
    up = dict(point)
    dn = dict(point)
    up[v] = point[v] + h
    dn[v] = point[v] - h
    return (evaluate(e, up) - evaluate(e, dn)) / (2 * h)


def test_diff_matches_finite_differences_on_f23_case():
    f = parse("x*(y + z)")
    fy = differentiate(f, "y")
    rng = np.random.default_rng(11)
    for _ in range(20):
        point = {v: float(rng.uniform(0.5, 1.5)) for v in ("x", "y", "z")}
        fd = central_fd(fy, "z", point, 1e-5)
        assert abs(fd - 0.0) < 1e-6


def _random_expr(rng, depth=0):
    ops = ["add", "sub", "mul", "leaf", "leaf", "func", "pow"]
    choice = rng.choice(ops) if depth < 3 else "leaf"
    if choice == "leaf":
        if rng.random() < 0.5:
            return var(str(rng.choice(["x", "y"])))
        return const(Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4))))
    if choice == "func":
        fn = str(rng.choice(["sin", "cos", "exp"]))
        return Expr(fn, (_random_expr(rng, depth + 1),))
    if choice == "pow":
        return Expr("pow", (_random_expr(rng, depth + 1), const(int(rng.integers(1, 4)))))
    return Expr(choice, (_random_expr(rng, depth + 1), _random_expr(rng, depth + 1)))


def test_derivative_matches_fd_on_random_exprs():
    rng = np.random.default_rng(2024)
    box = (0.25, 1.75)
    width = box[1] - box[0]
    h = 1e-5 * width
    checked = 0
    while checked < 50:
        e = _random_expr(rng)
        if not free_vars(e):
            continue
        v = sorted(free_vars(e))[0]
        de = differentiate(e, v)
        point = {name: float(rng.uniform(*box)) for name in ("x", "y")}
        try:
            sym = evaluate(de, point)
            fd = central_fd(e, v, point, h)
        except DomainError:
            continue
        scale = max(abs(sym), abs(fd), 1.0)
        assert abs(sym - fd) / scale < 1e-5, to_string(e)
        checked += 1


def test_clairaut_symmetry_on_corpus():
    corpus = [
        "x + y",
        "x*y",
        "x + y + x*y",
        "x^2*y",
        "(x + y^2)^3",
        "x^2 + x*y",
        "x*y + y^2",
        "sin(x) + x*y",
        "exp(x + y^2)",
    ]
    for text in corpus:
        e = parse(text)
        mixed1 = differentiate(differentiate(e, "x"), "y")
        mixed2 = differentiate(differentiate(e, "y"), "x")
        check = is_identically_zero(mixed1 - mixed2, [(0.5, 1.5), (0.5, 1.5)], ("x", "y"))
        assert check.is_zero, text


def test_non_integer_power_rewrites_through_exp_log():
    e = parse("x^(3/2)")
    de = differentiate(e, "x")
    rng = np.random.default_rng(5)
    for _ in range(20):
        point = {"x": float(rng.uniform(0.5, 2.0))}
        fd = central_fd(e, "x", point, 1e-6)
        assert abs(evaluate(de, point) - fd) / max(abs(fd), 1) < 1e-5
    assert any("> 0" in n for n in domain_notes(de))


# An exact oracle: forward mode over Fractions.  Each node maps to the pair
# (value, derivative), memoized by node identity so shared subtrees are
# evaluated once.

_DUAL_RULES = {
    "add": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "sub": lambda a, b: (a[0] - b[0], a[1] - b[1]),
    "mul": lambda a, b: (a[0] * b[0], a[1] * b[0] + a[0] * b[1]),
    "div": lambda a, b: (a[0] / b[0], (a[1] * b[0] - a[0] * b[1]) / (b[0] * b[0])),
    "neg": lambda a: (-a[0], -a[1]),
}


def _dual(e, point, v, memo):
    if id(e) not in memo:
        if e.op == "const":
            memo[id(e)] = (e.value, Fraction(0))
        elif e.op == "var":
            memo[id(e)] = (point[e.name], Fraction(int(e.name == v)))
        elif e.op == "pow":
            (u, du), k = _dual(e.args[0], point, v, memo), e.args[1].value.numerator
            memo[id(e)] = (u**k, k * u ** (k - 1) * du if k else Fraction(0))
        else:
            memo[id(e)] = _DUAL_RULES[e.op](*(_dual(a, point, v, memo) for a in e.args))
    return memo[id(e)]


def _exact_value(e, point):
    return _dual(e, point, None, {})[0]


def _random_shared_rational(rng, names, steps):
    """A rational expression whose operands are drawn from everything built
    so far, so later nodes share earlier subtrees."""
    pool = [const(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))) for _ in range(2)]
    pool += [var(n) for n in names]
    for _ in range(steps):
        op = str(rng.choice(["add", "sub", "mul", "div", "neg", "pow"]))
        a = pool[-1] if rng.random() < 0.7 else pool[int(rng.integers(len(pool)))]
        if op == "neg":
            pool.append(-a)
        elif op == "pow":
            pool.append(a ** const(int(rng.choice([-2, -1, 0, 1, 2]))))
        else:
            pool.append(Expr(op, (a, pool[int(rng.integers(len(pool)))])))
    return pool[-1]


def test_derivative_matches_exact_forward_mode():
    rng = np.random.default_rng(8)
    names = ("x", "y", "z")
    checked = 0
    while checked < 200:
        e = _random_shared_rational(rng, names, 16)
        point = {n: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for n in names}
        if not free_vars(e):
            continue
        v = str(rng.choice(sorted(free_vars(e))))
        try:
            expected = _dual(e, point, v, {})[1]
        except ZeroDivisionError:
            continue
        assert _exact_value(differentiate(e, v), point) == expected, to_string(e)
        checked += 1


def test_derivative_of_a_deep_chain():
    # built with operators, not the recursive parser: 10,000 levels deep
    n = 10_000
    x, y = var("x"), var("y")
    product, total = x, x
    for _ in range(n - 1):
        product = product * x
        total = total + x * y
    at = (np.array([1.0001]), np.array([0.5]))
    d_product = compile_batch(differentiate(product, "x"), ("x", "y"))(*at)
    assert d_product[0] == pytest.approx(n * 1.0001 ** (n - 1), rel=1e-9)
    d_total = compile_batch(differentiate(total, "x"), ("x", "y"))(*at)
    assert d_total[0] == pytest.approx(1 + (n - 1) * 0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def test_simplify_e_minus_e_is_zero():
    for text in ["x*y + sin(x)", "(1 + y)*(1 + x)", "exp(x)/x", "sqrt(x + y)"]:
        e = parse(text)
        assert simplify(e - e) == const(0)


def test_simplify_identities():
    assert simplify(parse("x*1 + 0")) == var("x")
    assert simplify(parse("x^1")) == var("x")
    assert simplify(parse("x^0")) == const(1)
    assert simplify(parse("0/x")) == const(0)


def test_simplify_idempotent():
    rng = np.random.default_rng(99)
    exprs = [_random_expr(rng) for _ in range(40)]
    exprs += [parse("(x + y^2)^3"), parse("x/(y/x) - sin(x + 0*y)")]
    for e in exprs:
        s1 = simplify(e)
        assert simplify(s1) == s1, to_string(e)


def test_simplify_of_random_dags_is_idempotent_and_keeps_values():
    from test_expr_pins import random_dags

    point = {"x": 0.7, "y": 1.3, "z": 0.4}
    for e in random_dags():
        s = simplify(e)
        assert simplify(s) is s, to_string(e)
        try:
            want = evaluate(e, point)
        except DomainError:
            continue
        assert evaluate(s, point) == pytest.approx(want, rel=1e-9), to_string(e)


def test_simplify_constant_folding_is_exact():
    e = parse("1/3 + 1/6")
    assert simplify(e).value == Fraction(1, 2)
    assert simplify(parse("sqrt(9/4)")).value == Fraction(3, 2)


def test_substitute():
    e = parse("x^2 + y")
    assert substitute(e, "y", parse("3*x")) == parse("x^2 + 3*x")


# ---------------------------------------------------------------------------
# Evaluation and domain errors
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    assert evaluate(parse("x^2 + x*y"), {"x": 1, "y": 1}) == 2
    assert evaluate(parse("x*(y + z)"), {"x": 1, "y": 1, "z": 1}) == 2


def test_evaluate_log_domain_error_names_culprit():
    with pytest.raises(DomainError) as err:
        evaluate(parse("log(x)"), {"x": -1})
    assert "log" in str(err.value)
    assert err.value.point == {"x": -1}


def test_evaluate_division_by_zero():
    with pytest.raises(DomainError):
        evaluate(parse("1/(x - 1)"), {"x": 1})


def test_evaluate_batch_matches_scalar():
    f = FunctionSpec.from_text("x^2 + x*y", ["x", "y"], [(0, 2), (0, 2)])
    rng = np.random.default_rng(1)
    xs = rng.uniform(0, 2, 50)
    ys = rng.uniform(0, 2, 50)
    batch = f.evaluate_batch([xs, ys])
    for i in range(50):
        assert batch[i] == f.evaluate((xs[i], ys[i]))


def test_evaluate_batch_detects_domain_error():
    f = FunctionSpec.from_text("log(x)", ["x"], [(-1, 1)])
    with pytest.raises(DomainError):
        f.evaluate_batch([np.array([0.5, -0.5])])


def test_scalar_overflow_is_domain_error_in_both_scalar_paths():
    e = parse("x^400")
    with pytest.raises(DomainError, match="overflow"):
        compile_scalar(e, ("x",))(1e10)
    with pytest.raises(DomainError, match="overflow"):
        evaluate(e, {"x": 1e10})


@pytest.mark.parametrize("text", ["sin(x)", "cos(x)"])
@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_trig_of_infinity_is_domain_error(text, x):
    with pytest.raises(DomainError) as err:
        compile_scalar(parse(text), ("x",))(x)
    assert err.value.culprit == text
    with pytest.raises(DomainError):
        evaluate(parse(text), {"x": x})
    assert not np.isfinite(compile_batch(parse(text), ("x",))(np.array([x]))).any()


def test_deep_expression_evaluates_on_every_path():
    text = " + ".join(["x*y"] * 3000)
    e = parse(text)
    assert hash(e) == hash(parse(text))
    assert evaluate(e, {"x": 2.0, "y": 0.5}) == 3000.0
    assert compile_scalar(e, ("x", "y"))(2.0, 0.5) == 3000.0
    out = compile_batch(e, ("x", "y"))(np.array([2.0, 1.0]), np.array([0.5, 3.0]))
    assert out.tolist() == [3000.0, 9000.0]


# ---------------------------------------------------------------------------
# Cross-evaluator check on random DAGs.  The scalar paths and the batch path
# each match a plain tree walk with their own primitives bit for bit.  The
# two primitive sets agree exactly only on correctly rounded operations
# (libm's pow and log may differ from numpy's in the last bit), so scalar
# and batch are compared bitwise on DAGs built from those.
# ---------------------------------------------------------------------------

_EXACT_OPS = ("add", "sub", "mul", "div", "neg", "sqrt")
_ALL_OPS = _EXACT_OPS + ("log", "powi", "pow")
_MATH_OPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv,
    "neg": operator.neg, "sqrt": math.sqrt, "log": math.log, "powi": operator.pow, "pow": math.pow,
}


# numpy's primitives, except that an op which would absorb a non-finite
# operand into a finite entry (x/inf, nan^0, inf^-1, 1^nan) gives NaN
def _nan_where(out, *operands):
    bad = np.zeros(np.shape(out), dtype=bool)
    for x in operands:
        bad |= ~np.isfinite(x)
    return np.where(bad, np.nan, out)


_NUMPY_OPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": lambda a, b: _nan_where(np.true_divide(a, b), b),
    "neg": np.negative, "sqrt": np.sqrt, "log": np.log,
    "powi": lambda a, k: _nan_where(np.power(a, k, dtype=np.float64), *([a] if k <= 0 else [])),
    "pow": lambda a, b: _nan_where(np.power(np.asarray(a, dtype=np.float64), b), a, b),
}
_GRID = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]


def _copy(e):
    """A structurally equal tree that shares no node with e."""
    return Expr(e.op, tuple(_copy(a) for a in e.args), e.value, e.name)


def _random_dag(rng, ops, size=14):
    """Each new node takes its operands from earlier nodes, sometimes the
    same object, sometimes a structurally equal copy of one."""
    pool = [var("x"), var("y"), const(2), const(Fraction(1, 3))]
    for _ in range(size):
        a, b = (pool[int(i)] for i in rng.integers(len(pool), size=2))
        if rng.random() < 0.2:
            b = _copy(a)
        op = ops[int(rng.integers(len(ops)))]
        if op == "powi":
            node = a ** int(rng.choice([-2, -1, 2, 3]))
        elif op == "pow":
            node = a ** (b if rng.random() < 0.5 else Fraction(1, 2))
        elif op in ("neg", "sqrt", "log", "sin", "cos", "exp"):
            node = Expr(op, (a,))
        else:
            node = Expr(op, (a, b))
        pool.append(node)
    return pool[-1] + pool[-2]


def _tree_eval(e, env, fns, memo):
    if id(e) not in memo:
        if e.op == "const":
            memo[id(e)] = float(e.value)
        elif e.op == "var":
            memo[id(e)] = env[e.name]
        elif e.op == "pow" and e.args[1].op == "const" and e.args[1].value.denominator == 1:
            base = _tree_eval(e.args[0], env, fns, memo)
            memo[id(e)] = fns["powi"](base, e.args[1].value.numerator)
        else:
            memo[id(e)] = fns[e.op](*(_tree_eval(a, env, fns, memo) for a in e.args))
    return memo[id(e)]


def _subtrees(e):
    stack, out = [e], []
    while stack:
        out.append(stack.pop())
        stack.extend(out[-1].args)
    return out


def _scalar_outcome(fn):
    try:
        return repr(fn())
    except DomainError as err:
        return err


@pytest.mark.parametrize("ops", [_EXACT_OPS, _ALL_OPS], ids=["exact-ops", "all-ops"])
def test_evaluators_agree_on_random_dags(ops):
    rng = np.random.default_rng(20260303)
    names = ("x", "y")
    xs, ys = (a.ravel() for a in np.meshgrid(_GRID, _GRID))
    for _ in range(40):
        e = _random_dag(rng, ops)
        batch = compile_batch(e, names)(xs, ys)
        with np.errstate(all="ignore"):
            ref = np.broadcast_to(_tree_eval(e, {"x": xs, "y": ys}, _NUMPY_OPS, {}), xs.shape)
        assert np.array_equal(batch.view(np.int64), ref.view(np.int64)), to_string(e)
        scalar = compile_scalar(e, names)
        for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
            got = _scalar_outcome(lambda: scalar(x, y))
            via_evaluate = _scalar_outcome(lambda: evaluate(e, {"x": x, "y": y}))
            assert str(got) == str(via_evaluate)
            try:
                expected = repr(_tree_eval(e, {"x": x, "y": y}, _MATH_OPS, {}))
            except (ArithmeticError, ValueError):
                expected = None
            if isinstance(got, DomainError):
                assert expected is None, (to_string(e), x, y)
                # the failing operation is non-finite in the batch path too
                culprit = next(n for n in _subtrees(e) if to_string(n) == got.culprit)
                value = compile_batch(culprit, names)(xs[i : i + 1], ys[i : i + 1])
                assert not np.isfinite(value).any(), (str(got), x, y)
                # and no later op absorbs it: so is the whole batch result
                assert not np.isfinite(batch[i]), (str(got), x, y)
                continue
            assert got == expected, (to_string(e), x, y)
            if ops is _EXACT_OPS and math.isfinite(float(got)):
                assert got == repr(float(batch[i])), (to_string(e), x, y)


def test_evaluate_matches_mpmath_at_50_digits_on_random_dags():
    # a differential oracle (McKeeman 1998): at seeded points inside the
    # domain, the float evaluate gives for each node of a random DAG must
    # lie within a few ulp of the exact result, by mpmath at 50 digits, of
    # the node's op on its operands' floats.  + - * /, negation, sqrt and a
    # constant's float round correctly (half an ulp); sin, cos, exp, log
    # and powers come from libm, allowed 2 ulp.  By induction evaluate's
    # value is the float a faithful evaluation of the DAG gives.
    import mpmath

    exact = {
        "add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv,
        "neg": operator.neg, "pow": mpmath.power, "sqrt": mpmath.sqrt, "log": mpmath.log,
        "sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp,
    }
    rng = np.random.default_rng(1998)
    compared = 0
    with mpmath.workdps(50):
        for _ in range(100):
            e = _random_dag(rng, _ALL_OPS + ("sin", "cos", "exp"))
            nodes = {id(n): n for n in _subtrees(e)}.values()
            for _ in range(8):
                point = dict(zip(("x", "y"), rng.uniform(-2.0, 3.0, size=2).tolist()))
                try:
                    value = {n: evaluate(n, point) for n in nodes if n.op != "var"}
                except DomainError:
                    continue
                if not all(map(math.isfinite, value.values())):
                    continue
                value.update((n, point[n.name]) for n in nodes if n.op == "var")
                for n in nodes:
                    if n.op == "var":
                        continue
                    if n.op == "const":
                        want, ulps = mpmath.mpf(n.value.numerator) / n.value.denominator, 0.5
                    elif n.op == "pow" and n.args[1].op == "const" and n.args[1].value.denominator == 1:
                        want, ulps = mpmath.mpf(value[n.args[0]]) ** int(n.args[1].value), 2
                    else:
                        operands = [mpmath.mpf(value[a]) for a in n.args]
                        want = exact[n.op](*operands)
                        ulps = 0.5 if n.op in ("add", "sub", "mul", "div", "neg", "sqrt") else 2
                    ulp = math.ulp(float(want))
                    assert abs(mpmath.mpf(value[n]) - want) <= ulps * ulp, (to_string(e), to_string(n), point)
                    compared += 1
    assert compared > 4000


def test_differentiate_matches_sympy_on_random_dags():
    # a differential oracle (McKeeman 1998): each DAG and its derivative are
    # printed and read by sympy, and sympy's own derivative of the first
    # must equal the second at seeded points, at 50 digits, with no float
    # arithmetic on either side; evaluate picks the points inside the domain
    import sympy

    rng = np.random.default_rng(1998)
    x, y = sympy.symbols("x y")
    compared = 0
    for _ in range(40):
        e = _random_dag(rng, _ALL_OPS + ("sin", "cos", "exp"))
        expected = {v: sympy.diff(sympy.sympify(to_string(e).replace("^", "**")), v) for v in ("x", "y")}
        got = {v: sympy.sympify(to_string(differentiate(e, v)).replace("^", "**")) for v in ("x", "y")}
        for _ in range(2):
            px, py = (sympy.Rational(int(i), 64) for i in rng.integers(-192, 193, size=2))
            try:
                evaluate(e, {"x": float(px), "y": float(py)})
            except (DomainError, OverflowError):
                continue
            for v in ("x", "y"):
                a, b = (d.evalf(50, subs={x: px, y: py}) for d in (expected[v], got[v]))
                assert abs(a - b) <= 1e-40 * max(1, abs(a), abs(b)), (to_string(e), v, px, py)
                compared += 1
    assert compared >= 60


@pytest.mark.parametrize(
    "text", ["z/log(x)", "exp(-1/x)", "(1/x)^0", "(1/x)^(-1)", "(1/x)^(1/2)", "2^(-1/x)"]
)
def test_batch_is_non_finite_where_scalar_raises(text):
    # at x = 0 the last op would absorb the non-finite operand into a finite entry
    e = parse(text)
    with pytest.raises(DomainError):
        evaluate(e, {"x": 0.0, "z": 1.0})
    out = compile_batch(e, ("x", "z"))(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    assert not np.isfinite(out[0])
    assert np.isfinite(out[1])


# the dying temporary is the second operand in the first two, and a
# function's value in the third; the last adds two NaNs of opposite sign
_WRITE_OVER_CASES = ("x - x*y", "1/(x*y)", "sin(x*y)*x", "log(x) + -log(x) + y*z")
_CORRECTLY_ROUNDED = {"add", "sub", "mul", "div", "neg", "sqrt", "var", "const"}
_NUMPY_TREE_OPS = {
    **_NUMPY_OPS, "sin": np.sin, "cos": np.cos, "exp": lambda a: _nan_where(np.exp(a), a),
}


_GRID = np.array([-1.5, -0.5, 0.0, 0.75, 2.0])
_BROADCAST_LAYOUTS = {
    "2-D": [_GRID[:, None], _GRID[None, :], _GRID[::-1, None]],
    "3-D": [_GRID[:, None, None], _GRID[None, :, None], _GRID[None, None, :]],
    # a one-element input: nothing is written over, since a temporary of x
    # alone has one element, where numpy's add over its first operand keeps
    # the second operand's NaN
    "one x": [np.array([-1.5]), _GRID, _GRID[::-1]],
}


@pytest.mark.parametrize("layout", _BROADCAST_LAYOUTS)
def test_batch_writing_over_temporaries_matches_the_scalar_evaluator(layout):
    # Over inputs that broadcast to a grid, compile_batch writes results over
    # dying temporaries.  It must give the bits of a tree walk with numpy's
    # ops, which shares no program with it and writes over nothing.  At
    # every grid point it must be finite exactly where `evaluate` is, with
    # NaN standing for a DomainError, and, on DAGs of correctly rounded ops
    # only, give evaluate's bits (libm and numpy may differ in exp, log and
    # pow).  It must leave every input as it was.
    from test_expr_pins import random_dags

    names = ("x", "y", "z")
    arrays = _BROADCAST_LAYOUTS[layout]
    before = [a.copy() for a in arrays]
    placements = set()
    for e in random_dags() + [parse(t) for t in _WRITE_OVER_CASES]:
        placements.update(expr_mod._program(e, names).into)
        batch = compile_batch(e, names)(*arrays)
        with np.errstate(all="ignore"):
            tree = np.broadcast_to(_tree_eval(e, dict(zip(names, arrays)), _NUMPY_TREE_OPS, {}), batch.shape)
        assert batch.tobytes() == np.ascontiguousarray(tree).tobytes(), to_string(e)
        exact = {n.op for n in _subtrees(e)} <= _CORRECTLY_ROUNDED
        for idx in np.ndindex(batch.shape):
            point = [float(np.broadcast_to(a, batch.shape)[idx]) for a in arrays]
            try:
                value = evaluate(e, dict(zip(names, point)))
            except DomainError:
                value = math.nan
            assert math.isfinite(value) == np.isfinite(batch[idx]), (to_string(e), point)
            if exact and math.isfinite(value):
                assert np.float64(value).tobytes() == batch[idx].tobytes(), (to_string(e), point)
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b), to_string(e)
    # results written to a free register, over the first operand, over the second
    assert placements == {0, 1, 2}


def test_write_over_needs_a_dying_temporary_of_the_result_shape():
    # x - x*y is written over x*y, its second operand
    assert expr_mod._program(parse("x - x*y"), ("x", "y")).into == (0, 2)
    # sin(x) has fewer variables than sin(x)*y: its shape is too small
    assert expr_mod._program(parse("sin(x)*y"), ("x", "y")).into == (0, 0)
    # a constant's value is a numpy scalar, and an input is never written
    assert expr_mod._program(parse("sin(2)*x + x"), ("x",)).into[:2] == (0, 0)


def _iv_eval(e, box):
    """e over mpmath.iv intervals at 200 bits, or None where mpmath leaves
    the reals or raises."""
    from mpmath import iv

    env = {name: iv.mpf([lo, hi]) for name, (lo, hi) in zip("xyz", box)}
    funcs = {"sin": iv.sin, "cos": iv.cos, "exp": iv.exp, "log": iv.log, "sqrt": iv.sqrt}
    ops = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}
    memo = {}

    def walk(node):
        if node not in memo:
            if node.op == "var":
                memo[node] = env[node.name]
            elif node.op == "const":
                memo[node] = iv.mpf(node.value.numerator) / node.value.denominator
            elif node.op == "neg":
                memo[node] = -walk(node.args[0])
            elif node.op == "pow" and node.args[1].op == "const" and node.args[1].value.denominator == 1:
                memo[node] = walk(node.args[0]) ** int(node.args[1].value)
            elif node.op == "pow":
                memo[node] = walk(node.args[0]) ** walk(node.args[1])
            elif node.op in ops:
                memo[node] = ops[node.op](walk(node.args[0]), walk(node.args[1]))
            else:
                memo[node] = funcs[node.op](walk(node.args[0]))
            if not isinstance(memo[node], iv.mpf):
                raise ValueError("left the reals")
        return memo[node]

    prec, iv.prec = iv.prec, 200
    try:
        out = walk(e)
    except (ArithmeticError, ValueError):
        return None
    finally:
        iv.prec = prec
    return out


def test_enclosures_contain_mpmath_and_the_float_samples():
    # over the 300 pinned random DAGs, on seeded boxes of either sign and
    # on positive ones (where log, sqrt and pow are defined), the enclosure
    # must contain mpmath.iv's and every value the scalar evaluator gives
    from test_expr_pins import random_dags

    rng = random.Random(19)
    names = ("x", "y", "z")
    compared = 0
    for e in random_dags():
        f = compile_scalar(e, names)
        for low in (-2.0, 0.1, 0.1):
            box = [tuple(sorted(rng.uniform(low, 2.0) for _ in range(2))) for _ in names]
            lo, hi = enclosure(e, names, box)
            assert lo <= hi, to_string(e)
            ref = _iv_eval(e, box)
            if ref is not None and not (math.isinf(ref.a) or math.isinf(ref.b)):
                assert lo <= ref.a and ref.b <= hi, (to_string(e), box, (lo, hi), ref)
                compared += 1
            for _ in range(8):
                point = [rng.uniform(a, b) for a, b in box]
                try:
                    value = f(*point)
                except DomainError:
                    continue
                assert lo <= value <= hi, (to_string(e), point, (lo, hi), value)
    assert compared > 300


def test_enclosure_rounds_outward_only_when_inexact():
    third = 1 / 3
    lo, hi = enclosure(parse("2*x + y"), ("x", "y"), [(0.0, third)] * 2)
    # 3 * third rounds up to 1.0, which bounds it already
    assert (lo, hi) == (0.0, 1.0)
    assert enclosure(parse("x*y - 1/4"), ("x", "y"), [(0.5, 1.0)] * 2) == (0.0, 0.75)
    # 0.1 has no float: its own enclosure is one ulp wide
    assert enclosure(parse("0.1"), (), []) == (math.nextafter(0.1, 0.0), 0.1)
    # an even power is least at 0, and a divisor that holds 0 bounds nothing
    assert enclosure(parse("x^2"), ("x",), [(-1.0, 3.0)]) == (0.0, 9.0)
    assert enclosure(parse("1/x"), ("x",), [(-1.0, 3.0)]) == (-math.inf, math.inf)
    # a domain violation stays unbounded through functions that are bounded
    assert enclosure(parse("sin(log(x)) + 2"), ("x",), [(-1.0, 3.0)]) == (-math.inf, math.inf)
    assert enclosure(parse("exp(1/x)"), ("x",), [(-1.0, 3.0)]) == (-math.inf, math.inf)
    # sin reaches 1 inside [0, 3], and cos -1 inside [3, 4]
    assert enclosure(parse("sin(x)"), ("x",), [(0.0, 3.0)])[1] == 1.0
    assert enclosure(parse("cos(x)"), ("x",), [(3.0, 4.0)])[0] == -1.0
    # libm's exact values keep their bounds: sin 0, cos 0, exp 0, log 1 and
    # the square root of an exact square, so d(y - cos x)/dx = sin x has
    # lower bound 0.0 on inputs that start at 0
    d = differentiate(parse("y - cos(x)"), "x")
    assert enclosure(d, ("x", "y"), [(0.0, third)] * 2)[0] == 0.0
    assert enclosure(parse("exp(x) + log(y)"), ("x", "y"), [(0.0, 1.0), (1.0, 2.0)])[0] == 1.0
    assert enclosure(parse("cos(x)"), ("x",), [(0.0, 0.0)]) == (1.0, 1.0)
    assert enclosure(parse("sqrt(x)"), ("x",), [(4.0, 9.0)]) == (2.0, 3.0)
    # the float sqrt 2 lies above the root, so only its lower bound moves
    root = math.sqrt(2.0)
    assert enclosure(parse("sqrt(x)"), ("x",), [(2.0, 2.0)]) == (math.nextafter(root, 0.0), root)



@pytest.mark.parametrize(
    "text, proven",
    [
        ("x^2 + x*y", True),
        ("x*y + z", True),
        ("x + y", True),
        ("x^3 + x*y", True),
        ("x - y", False),  # falls
        ("y^2", False),  # a power of the axis variable: numpy's pow is not monotone
        ("x/y", False),  # the divisor holds 0
        ("x/(y + 1)", False),  # falls
        ("sin(y) + x", False),  # libm on the axis variable
        ("1e308*x + 1e308*y", False),  # overflows
    ],
)
def test_rising_along_the_last_axis_of_the_unit_box(text, proven):
    names = ("x", "y", "z") if "z" in text else ("x", "y")
    assert rising(parse(text), names, [(0.0, 1.0)] * len(names), len(names) - 1) == proven


def test_rising_rows_are_finite_and_non_decreasing_on_random_dags():
    # wherever the trend table proves a random DAG of + - * /, negation and
    # integer powers rising along an axis, its batch values on sorted rows
    # of seeded points, the box's ends among them, are finite and never fall
    rng = np.random.default_rng(25)
    ops = ("add", "sub", "mul", "div", "neg", "powi")
    names = ("x", "y")
    proven = 0
    for _ in range(400):
        e = _random_dag(rng, ops, size=int(rng.integers(2, 10)))
        box = [tuple(sorted(rng.uniform(-1.0, 3.0, size=2))) for _ in names]
        for axis in (0, 1):
            if not rising(e, names, box, axis):
                continue
            proven += 1
            ends = [np.array([lo, *rng.uniform(lo, hi, size=62), hi]) for lo, hi in box]
            ends[axis].sort()
            other = ends[1 - axis][:, None]
            rows = compile_batch(e, names)(*((other, ends[axis][None, :]) if axis else (ends[axis][None, :], other)))
            assert np.all(np.isfinite(rows)), (to_string(e), box, axis)
            assert np.all(rows[:, 1:] >= rows[:, :-1]), (to_string(e), box, axis)
    assert proven >= 100


def test_compile_batch_takes_integer_inputs_as_float64():
    # in int64, 2^40 * 2^40 wraps to 0; in uint8, 1 + 255 wraps to 0
    big = np.array([2**40], dtype=np.int64)
    out = compile_batch(parse("x*y + 1"), ("x", "y"))(big, big)
    assert out.dtype == np.float64 and out[0] == 2.0**80
    one, top = np.array([1], dtype=np.uint8), np.array([255], dtype=np.uint8)
    assert compile_batch(parse("x + y"), ("x", "y"))(one, top)[0] == 256.0
    # over more than one element too, where temporaries are written over
    pair = np.array([2**40, 3], dtype=np.int64)
    assert compile_batch(parse("x*x*y"), ("x", "y"))(pair, pair).tolist() == [2.0**120, 27.0]


def test_compile_batch_of_0_d_and_mixed_inputs():
    fn = compile_batch(parse("sqrt(x)*3 + y"), ("x", "y"))
    assert fn(4.0, 2.0).shape == () and fn(4.0, 2.0) == 8.0
    # sqrt(x) of a 0-d x is a numpy scalar, which nothing can be written over
    assert fn(np.float64(4.0), np.array([2.0, 3.0])).tolist() == [8.0, 9.0]
    assert fn(np.array([[4.0]]), np.array([2.0])).shape == (1, 1)


def test_expr_memos_are_bounded(capsys):
    # derivatives and programs live on the node they came from, so once a
    # few dozen distinct commands have returned and the cyclic GC has run,
    # no node of theirs is left in the intern table
    from expandlab.cli import main

    box = ["--vars", "x,y", "--box", "0.5,1.5,0.5,1.5", "--no-timestamp"]
    gc.collect()
    baseline = len(expr_mod._INTERNED)
    for k in range(1, 21):
        assert main(["classify", "-f", f"x^2 + {k}*x*y + sin(y)/{k}", *box]) == 0
        assert main(["fold", "-f", f"x^2 + {k}*x*y", *box, "--base", "1,1"]) == 0
    capsys.readouterr()
    gc.collect()
    assert len(expr_mod._INTERNED) == baseline


# ---------------------------------------------------------------------------
# FunctionSpec validation
# ---------------------------------------------------------------------------


def test_function_spec_validation():
    with pytest.raises(ValueError):
        FunctionSpec.from_text("x + y", ["x", "x"], [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        FunctionSpec.from_text("x + y", ["x"], [(0, 1)])
    with pytest.raises(ValueError):
        FunctionSpec.from_text("x", ["x"], [(1, 1)])


# ---------------------------------------------------------------------------
# is_identically_zero
# ---------------------------------------------------------------------------


def test_zero_symbolic_route():
    e = parse("(1 + y)*(1 + x) - (1 + x)*(1 + y)")
    check = is_identically_zero(e, [(0, 1), (0, 1)], ("x", "y"))
    assert check.is_zero and check.symbolic


def test_zero_witness_magnitude():
    e = parse("-2*x^2")
    check = is_identically_zero(e, [(0.5, 1.5), (0.5, 1.5)], ("x", "y"))
    assert not check.is_zero
    assert abs(check.witness_value) >= 0.5


def test_zero_g1_of_product_function():
    # the first trivariate certificate of x*y*z: x*y*z is multiplicatively
    # separable, so the certificate collapses symbolically
    f = parse("x*y*z")
    f3 = differentiate(f, "z")
    f12 = differentiate(differentiate(f, "x"), "y")
    f13 = differentiate(differentiate(f, "x"), "z")
    f2 = differentiate(f, "y")
    g1 = f3 * f12 - f13 * f2
    check = is_identically_zero(g1, [(1, 2)] * 3, ("x", "y", "z"))
    assert check.is_zero and check.symbolic


def test_zero_respects_seed_determinism():
    e = parse("x - y")
    box = [(0, 1), (0, 1)]
    c1 = is_identically_zero(e, box, ("x", "y"), ZeroPolicy(seed=42))
    c2 = is_identically_zero(e, box, ("x", "y"), ZeroPolicy(seed=42))
    assert c1.witness_point == c2.witness_point


def test_zero_tiny_but_structured_function_is_not_zero():
    # scaled-down but honest function; the surrogate scale keeps it nonzero
    e = parse("1e-12*(x - y)")
    check = is_identically_zero(e, [(0, 1), (0, 1)], ("x", "y"))
    assert not check.is_zero


def _recursive_surrogate(e):
    # the surrogate's rules written as a plain tree recursion
    sabs = lambda u: Expr("sqrt", (Expr("pow", (u, const(2))),))
    if e.op == "const":
        return const(abs(e.value))
    if e.op == "var":
        return sabs(e)
    if e.op == "neg":
        return _recursive_surrogate(e.args[0])
    if e.op in ("add", "sub", "mul", "div"):
        op = "add" if e.op == "sub" else e.op
        return Expr(op, tuple(_recursive_surrogate(a) for a in e.args))
    if e.op == "pow":
        p = e.args[1]
        if p.op == "const" and p.value.denominator == 1:
            k = p.value.numerator
            power = Expr("pow", (_recursive_surrogate(e.args[0]), const(abs(k))))
            return power if k >= 0 else Expr("div", (const(1), power))
        return e
    return sabs(e)


def test_surrogate_matches_the_tree_recursion():
    # the zero test's paired program gives e's batch values and, bit for bit,
    # the values of the surrogate expression the tree recursion builds; the
    # second box puts samples outside the domain of the last four
    rng = np.random.default_rng(5)
    exprs = [_random_expr(rng) for _ in range(100)]
    exprs += [parse(t) for t in (
        "x^-2 - y^(1/2)/x", "-(x*y)^3/sin(x - 1/3)", "x^y + log(x)",
        "sqrt(x - y)*log(y)/(x - y)", "x^0 + (x - y)^-3", "exp(1/x) - 2", "x^(-(2))*cos(y)",
    )]
    names = ("x", "y")
    non_finite = 0
    for e in exprs:
        # derivatives share e's subexpressions, so the program meets each twice
        for target in (e, differentiate(e, "x")):
            prog = expr_mod._program(target, names)
            oracle = compile_batch(_recursive_surrogate(target), names)
            for box in (((0.25, 1.75),) * 2, ((-1.0, 1.0),) * 2):
                for n in (1, 7, 64):
                    draw = np.random.default_rng(n)
                    cols = [draw.uniform(lo, hi, size=n) for lo, hi in box]
                    value, scale = expr_mod._paired_batch(prog, cols)
                    want = oracle(*cols)
                    assert value.tobytes() == compile_batch(target, names)(*cols).tobytes()
                    assert scale.tobytes() == want.tobytes(), (to_string(target), box, n)
                    non_finite += int(np.count_nonzero(~np.isfinite(want)))
    assert non_finite > 0


def test_zero_test_of_a_deep_rational_chain():
    # 3,000 levels (three times Python's default recursion limit) built with
    # operators; the modular route finds the derivative nonzero, and the
    # sampled witness builds its surrogate
    x, y = var("x"), var("y")
    e = x
    for _ in range(2_999):
        e = e * x / 2 + y
    d = differentiate(e, "x")
    check = is_identically_zero(d, [(0.5, 1.0), (0.5, 1.0)], ("x", "y"))
    assert not check.is_zero and check.route == "modular"
    p = check.witness_point
    at = (np.array([p["x"]]), np.array([p["y"]]))
    assert check.witness_value == compile_batch(d, ("x", "y"))(*at)[0]


def test_surrogate_of_a_deep_non_rational_chain():
    # e_k = e_(k-1)*x + y*sin(x), 3,000 levels; d_k = d_(k-1)*x + e_(k-1)
    # + y*cos(x).  The surrogate replaces each variable and function value by
    # its absolute value.
    x, y = var("x"), var("y")
    e = x
    for _ in range(2_999):
        e = e * x + y * Expr("sin", (x,))
    prog = expr_mod._program(differentiate(e, "x"), ("x", "y"))
    xv, yv = -0.5, -0.75
    s_e, s_d = abs(xv), 1.0
    for _ in range(2_999):
        s_e, s_d = s_e * abs(xv) + abs(yv) * abs(math.sin(xv)), s_d * abs(xv) + s_e + abs(yv) * abs(math.cos(xv))
    got = expr_mod._paired_batch(prog, [np.array([xv]), np.array([yv])])[1][0]
    assert got == pytest.approx(s_d, rel=1e-12)


def test_equal_deep_trees_compare_without_recursion():
    # two separately built 3,000-deep chains are one hash-consed node, so the
    # second differentiate call is a memo hit on that node
    def chain(start):
        x, y = var("x"), var("y")
        e = start
        for _ in range(2_999):
            e = e * x + y * Expr("sin", (x,))
        return e

    a, b = chain(var("x")), chain(var("x"))
    assert a is b and a == b and not a != b
    da = differentiate(a, "x")
    assert differentiate(b, "x") is da
    assert a != chain(var("y")) and a != var("x") and a != "x"


def _sin_chain(levels):
    # e_k = e_(k-1)*x + y*sin(x) from e_1 = y
    x, y = var("x"), var("y")
    e = y
    for _ in range(levels - 1):
        e = e * x + y * Expr("sin", (x,))
    return e


def test_zero_test_of_a_deep_non_rational_chain():
    # 3,000 levels: the zero test runs no recursive simplification, so the
    # derivative is found nonzero (by sampling: sin is outside the rational
    # fragment, where a nonzero residue proves nothing)
    check = is_identically_zero(differentiate(_sin_chain(3_000), "x"), [(0.5, 1.0)] * 2, ("x", "y"))
    assert not check.is_zero and check.route == "sampled"


def test_deep_non_rational_chain_minus_a_copy_is_a_modular_zero():
    # the copy is built separately but hash-consing makes it the chain itself,
    # so the difference is one sub node over a shared operand; the sin atoms
    # of equal arguments get equal residues
    check = is_identically_zero(_sin_chain(3_000) - _sin_chain(3_000), [(0.5, 1.0)] * 2, ("x", "y"))
    assert check.is_zero and check.route == "modular"


def test_printing_a_deep_chain_and_its_derivative():
    # the chain is 3,000 operator-built levels deep; its derivative's text is
    # quadratic in the depth (67 MB) because every level repeats e_(k-1)
    e = _sin_chain(3_000)
    d = differentiate(e, "x")
    text = to_string(e)
    assert len(text) == 15 * 3_000 - 16 and text.endswith(")*x + y*sin(x)")
    assert repr(e) == f"Expr({text!r})"
    assert domain_notes(e) == []
    text = to_string(d)
    assert len(text) == 67_483_493 and text.endswith(")*x + y*sin(x) + y*cos(x)")
    assert repr(d) == f"Expr({text!r})"
    del text
    assert domain_notes(d) == []


def test_deep_domain_notes_come_in_tree_pre_order():
    # e_k = e_(k-1)/(x + k) + log(y + k): a pre-order walk meets the
    # denominators top down, then the log arguments bottom up
    e = var("y")
    for k in range(1, 3_001):
        e = e / (var("x") + k) + Expr("log", (var("y") + k,))
    notes = domain_notes(e)
    assert notes[:3] == ["x + 3000 != 0", "x + 2999 != 0", "x + 2998 != 0"]
    assert notes[2_999:3_001] == ["x + 1 != 0", "y + 1 > 0"]
    assert len(notes) == 6_000 and notes[-1] == "y + 3000 > 0"


def test_simplify_of_1500_nested_sin():
    # one walk over the DAG: each function argument is its operand's
    # simplified node, not another simplify call
    e = var("x")
    for _ in range(1_500):
        e = Expr("sin", (e,))
    assert simplify(e) is e
    assert simplify(e - e) == const(0)
    assert simplify(Expr("sin", (e * 1,)) - Expr("sin", (e + 0,))) == const(0)


def test_simplify_of_functions_of_a_deep_chain():
    # e_k = e_(k-1)*sin(x) + y, 1,500 levels: the polynomial in sin(x) and y
    # reaches the 600-term cap, the levels above it are folded locally, and
    # the sort keys of cos(e) and sin(e) are built without recursion
    x, y = var("x"), var("y")
    e = x
    for _ in range(1_500):
        e = e * Expr("sin", (x,)) + y
    target = Expr("cos", (e,)) * Expr("sin", (e,))
    s = simplify(target)
    assert s.op == "mul" and {a.op for a in s.args} == {"cos", "sin"}
    assert s.args[0].args[0] is s.args[1].args[0]
    point = {"x": 0.3, "y": 0.2}
    assert evaluate(s, point) == pytest.approx(evaluate(target, point), rel=1e-12)


def test_simplify_of_a_product_of_two_1500_deep_atoms():
    # the atoms differ only at their leaves
    a, b = var("x"), var("y")
    for _ in range(1_500):
        a, b = Expr("sin", (a,)), Expr("sin", (b,))
    assert simplify(a * b) is a * b
    assert simplify(b * a) is b * a
    assert simplify(a * b - (a * 1) * (b + 0)) == const(0)


# ---------------------------------------------------------------------------
# Hash-consing: a node equal to a live node is that node
# ---------------------------------------------------------------------------


def test_equal_nodes_are_one_object():
    assert parse("x*y + sin(x)") is parse("x*y + sin(x)")
    assert const(2) is const(Fraction(4, 2))
    assert var("x") is var("x")
    assert parse("x + y") is not parse("y + x")


def test_nodes_are_immutable():
    e = parse("x + 1")
    with pytest.raises(AttributeError):
        e.op = "sub"
    with pytest.raises(AttributeError):
        e.extra = 1
    with pytest.raises(AttributeError):
        del e.name
    assert to_string(e) == "x + 1"


def test_intern_table_forgets_dropped_nodes():
    # memory stays bounded in a long-lived process: 100k distinct nodes that
    # no memo holds leave the table once they are dropped
    x = var("x")
    gc.collect()  # memo cycles left by earlier tests
    baseline = len(expr_mod._INTERNED)
    nodes = [x * var(f"t{k}") for k in range(50_000)]
    assert len(expr_mod._INTERNED) >= baseline + 100_000
    del nodes
    assert len(expr_mod._INTERNED) == baseline


# ---------------------------------------------------------------------------
# The modular route: exact evaluation mod p of the rational fragment
# ---------------------------------------------------------------------------

BOX_X = [(0.5, 1.5)]


@pytest.mark.parametrize(
    "e",
    [
        parse("x/3 - x*(1/3)"),
        parse("(1/10)*x*10 - x"),
        parse("0.1*x*10 - x"),
        var("x") / 3 - var("x") * const(Fraction(1, 3)),
    ],
    ids=["x/3 - x*(1/3)", "(1/10)*x*10 - x", "0.1*x*10 - x", "Fraction(1, 3)"],
)
def test_modular_route_uses_the_exact_constants(e):
    # 1/3 and 1/10 have no exact float; mod p they are exact inverses
    check = is_identically_zero(e, BOX_X, ("x",))
    assert check.is_zero and check.symbolic
    assert check.route == "modular"


def test_modular_route_sees_a_difference_below_the_sampling_tolerance():
    # Intended: in the rational fragment the verdict is exact, so a relative
    # difference of 1e-15 is nonzero whatever rel_tol says.  The same function
    # outside the fragment (|x| written as sqrt(x^2)) goes to the sampled
    # route, which calls it zero at rel_tol 1e-9.
    check = is_identically_zero(parse("x*(1 + 1/10^15) - x"), BOX_X, ("x",))
    assert not check.is_zero and check.route == "modular"
    # no sample exceeds its threshold, so the witness is the largest |e|
    assert check.witness_value == max(check.sampled_values, key=abs)
    sampled = is_identically_zero(parse("sqrt(x^2)*(1 + 1/10^15) - sqrt(x^2)"), BOX_X, ("x",))
    assert sampled.is_zero and sampled.route == "sampled" and not sampled.symbolic


def _first_modular_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(expr_mod._MODULUS, size=(expr_mod._MODULAR_POINTS + expr_mod._MODULAR_REDRAWS, 1))[:n, 0]


def test_modular_zero_denominator_at_a_drawn_point_redraws():
    (c,) = _first_modular_points(1)
    # (x - c)/(x - c) - 1 is zero, but its denominator vanishes at the first
    # drawn point: the point is redrawn and the test stays modular (without
    # the redraw it would fall back to simplification)
    e = parse(f"(x - {c})/(x - {c}) - 1")
    check = is_identically_zero(e, BOX_X, ("x",))
    assert check.is_zero and check.route == "modular"
    nonzero = is_identically_zero(parse(f"1/(x - {c})"), BOX_X, ("x",))
    assert not nonzero.is_zero and nonzero.route == "modular"


def test_modular_redraws_are_bounded_then_sampling_decides():
    # a denominator vanishing at the first 9 of the 16 drawn points leaves
    # fewer than 8 usable points: the modular test gives up
    factors = "*".join(f"(x - {c})" for c in _first_modular_points(9))
    e = parse(f"({factors})/({factors}) - 1")
    assert expr_mod._modular_verdict(expr_mod._program(e, ("x",)), 0) is None
    check = is_identically_zero(e, BOX_X, ("x",))
    assert check.is_zero and check.route == "sampled" and not check.symbolic


def test_modular_identically_zero_denominator_stays_undeterminable():
    with pytest.raises(UndeterminableOnBox):
        is_identically_zero(parse("1/(x - x)"), BOX_X, ("x",))


# Outside the rational fragment every function application (and a general
# power) is an opaque atom mod p.
BOX_XY = [(0.5, 1.5), (0.5, 1.5)]
OUTSIDE_THE_FRAGMENT = [
    # proven zero: equal arguments, structurally or rationally, give equal
    # atoms
    ("sin(x) - sin(x)", True, "modular"),
    ("sin(x + y) - sin(y + x)", True, "modular"),
    ("sin((x^2 - 1)/(x - 1)) - sin(x + 1)", True, "modular"),
    # zero only through an identity of the functions themselves: the atoms
    # know none, so the residue is nonzero and proves nothing
    ("sqrt(x)^2 - x", True, "sampled"),
    ("x^(1/2)*x^(1/2) - x", True, "sampled"),
    ("sin(x)^2 + cos(x)^2 - 1", True, "sampled"),
    ("exp(x)*exp(y) - exp(x + y)", True, "sampled"),
    ("x^(1 + 1) - x^2", True, "sampled"),
    ("exp(0)*x - x", True, "sampled"),
    # different functions, or different exponents, give different atoms
    ("sin(x) - cos(x)", False, "sampled"),
    ("x^(1/2) - x^(1/3)", False, "sampled"),
    # an atom must not be algebraic in its operands: with sin(a) = a + 5 mod
    # p this would evaluate to 0 everywhere and be "proven" zero
    ("sin(x) - x - 5", False, "sampled"),
    ("exp(x) - 1 - x", False, "sampled"),
    ("x^(3/2) + x", False, "sampled"),
]


@pytest.mark.parametrize("text, zero, route", OUTSIDE_THE_FRAGMENT)
def test_outside_the_rational_fragment_the_route_is_unchanged(text, zero, route):
    e = parse(text)
    assert not expr_mod._program(e, ("x", "y")).rational
    check = is_identically_zero(e, BOX_XY, ("x", "y"))
    assert check.is_zero == zero
    assert check.route == route
    assert check.symbolic == (route == "modular")


def test_rational_fragment_predicate():
    rational = lambda e, names: expr_mod._program(e, names).rational
    assert rational(parse("-(x + 2*y)^3/(x - y)^2 - 1/7"), ("x", "y"))
    assert rational(var("x") ** const(-2), ("x",))
    # the parser reads x^-2 as x^(const -2), an integer power
    assert rational(parse("x^-2"), ("x",))
    for text in ("x^y", "x^(1/2)", "log(x)", "cos(y)*x"):
        assert not rational(parse(text), ("x", "y"))


def test_function_atoms_do_not_depend_on_the_hash_seed():
    code = (
        "from expandlab.expr import _MODP, _OPCODES, is_identically_zero, parse\n"
        "print(_MODP[_OPCODES.index('sin')](7), _MODP[_OPCODES.index('pow')](7, 3))\n"
        f"for text, _, _ in {OUTSIDE_THE_FRAGMENT!r}:\n"
        f"    check = is_identically_zero(parse(text), {BOX_XY!r}, ('x', 'y'))\n"
        "    print(check.is_zero, check.route)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": "12345",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    sin, power = (expr_mod._MODP[expr_mod._OPCODES.index(op)] for op in ("sin", "pow"))
    assert proc.stdout.splitlines() == [
        f"{sin(7)} {power(7, 3)}", *(f"{zero} {route}" for _, zero, route in OUTSIDE_THE_FRAGMENT)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64, 65])
def test_median_matches_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    assert median(values) == np.median(values)
    assert median(np.abs(values)) == np.median(np.abs(values))
    values[n // 2] = np.nan
    assert math.isnan(median(values))


@pytest.mark.parametrize(
    "a, b",
    [(1e308, 1e308), (-1e308, -1.5e308), (sys.float_info.max, sys.float_info.max), (2.0**1023, 1.5 * 2.0**1023),
     (sys.float_info.max, 2.0**970), (-sys.float_info.max, -2.0**1023)],
)
def test_median_of_middle_values_whose_sum_overflows_is_their_midpoint(a, b):
    # np.median sums the two middle values, which overflows to inf here; the
    # midpoint itself is a float, rounded once from the exact one
    for values in ([a, b], [-math.inf, a, b, math.inf], [b, 0.0, a, a + b]):
        assert median(values) == float((Fraction(a) + Fraction(b)) / 2), values
    with np.errstate(over="ignore"):
        assert np.isinf(np.median([a, b]))


def test_zero_test_of_a_multiple_past_half_the_float_range():
    # the median of the auxiliary scales overflowed to inf, every threshold
    # with it, and the sampled route called any expression zero
    box = ((0.5, 1.5), (0.5, 1.5))
    assert not is_identically_zero(parse("6e307*(cos(x) + y)"), box, ("x", "y")).is_zero
    for text in ("cos(x) + y", "2^1023 * (cos(x) + y)"):
        assert not is_identically_zero(parse(text), ((0.5, 1.0), (0.5, 1.0)), ("x", "y")).is_zero, text
