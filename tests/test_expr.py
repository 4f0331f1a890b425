"""Tests for parsing, differentiation, simplification, evaluation, zero tests."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from expandlab.expr import (
    DomainError,
    Expr,
    FunctionSpec,
    ParseError,
    ZeroPolicy,
    compile_batch,
    compile_scalar,
    const,
    differentiate,
    domain_notes,
    evaluate,
    free_vars,
    is_identically_zero,
    parse,
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


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def test_simplify_collects_like_terms():
    # hand expansion: (2x+y)x - x(4x+y) = 2x^2 + xy - 4x^2 - xy = -2x^2
    e = parse("(2*x + y)*x - x*(4*x + y)")
    assert simplify(e) == simplify(parse("-2*x^2"))


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
_NUMPY_OPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": np.true_divide,
    "neg": np.negative, "sqrt": np.sqrt, "log": np.log,
    "powi": lambda a, k: np.power(a, k, dtype=np.float64),
    "pow": lambda a, b: np.power(np.asarray(a, dtype=np.float64), b),
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
        elif op in ("neg", "sqrt", "log"):
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
                continue
            assert got == expected, (to_string(e), x, y)
            if ops is _EXACT_OPS and math.isfinite(float(got)):
                assert got == repr(float(batch[i])), (to_string(e), x, y)


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
