"""Properties of seeded random expressions: DAGs over + - * /, integer and
real powers and the five functions, with constants at the edges of the
float range (1e308, 6e307, 1e-300 and 2^1023) now and then.

- classify, recover, fold and a small expand end in a documented exit code
  (0, 2, 3 or 4), write strict JSON whenever they write a document, and
  write the same bytes and record the same warnings when run again in the
  same process (Claessen & Hughes 2000, QuickCheck; Yang et al. 2011,
  Csmith).
- The zero test is unchanged by a power-of-two factor c: c scales every
  sampled value and scale exactly, so is_identically_zero(c*e) agrees with
  is_identically_zero(e) whenever no sample of c*e overflows or goes
  subnormal."""

import json
import random
import warnings

import numpy as np
import pytest

from expandlab.cli import main
from expandlab.expr import (
    ExprError,
    UndeterminableOnBox,
    ZeroPolicy,
    _paired_batch,
    _program,
    const,
    is_identically_zero,
    parse,
    to_string,
)
from expandlab.sampling import Stream

EXPRESSIONS = 40
# the zero test is cheap: more draws, since c = 2^1023 overflows the
# samples of most of them
ZERO_EXPRESSIONS = 100
# x and y twice as often as each constant, so most draws involve both
LEAVES = ["x", "y", "x", "y", "2", "1/3", "0.5"]
EDGE_CONSTANTS = ["1e308", "6e307", "1e-300", "2^1023"]
FUNCTIONS = ["sin", "cos", "exp", "log", "sqrt"]
BOX = "0.5,1.5,0.5,1.5"


def _expression(rng: random.Random, steps: int) -> str:
    """A random DAG of `steps` nodes over x and y, as text.  Each node takes
    its operands from the nodes before it, so subexpressions repeat, and
    parse makes each repeat one node; one operand in ten is an edge
    constant.  The result is the sum of the last two nodes."""
    pool = ["x", "y", rng.choice(LEAVES)]
    for _ in range(steps):
        a = rng.choice(pool)
        b = rng.choice(EDGE_CONSTANTS) if rng.random() < 0.1 else rng.choice(pool)
        draw = rng.random()
        if draw < 0.5:
            node = f"({a}) {rng.choice('+-*/')} ({b})"
        elif draw < 0.6:
            node = f"({a})^{rng.choice([-2, -1, 2, 3])}"
        elif draw < 0.7:
            node = f"({a})^({rng.choice(['1/2', '0.3', b])})"
        else:
            node = f"{rng.choice(FUNCTIONS)}({a})"
        pool.append(node)
    return f"{pool[-1]} + {pool[-2]}"


def _commands(f: str) -> list[list[str]]:
    common = ["-f", f, "--vars", "x,y"]
    return [
        ["classify", *common, "--box", BOX],
        ["recover", *common, "--box", BOX, "--grid-n", "17"],
        ["fold", *common, "--box", BOX, "--base", "1,1"],
        ["expand", *common, "--inputs", "b4d01:4", "--ladder", "2^-2..2^-9", "--theorem", "bivariate-analytic"],
    ]


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _run(capsys, argv: list[str]) -> tuple[int, str, list[str]]:
    """The exit code, stdout and every warning recorded while main runs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, capsys.readouterr().out, [f"{w.category.__name__}: {w.message}" for w in caught]


def test_generated_commands_end_in_a_documented_exit_code(capsys):
    rng = random.Random(2030)
    codes = []
    for _ in range(EXPRESSIONS):
        f = _expression(rng, rng.randint(1, 6))
        for argv in _commands(f):
            argv.append("--no-timestamp")
            code, out, caught = _run(capsys, argv)
            assert code in (0, 2, 3, 4), argv
            # every command runs under one floating-point policy
            assert not [w for w in caught if w.startswith("RuntimeWarning")], (argv, caught)
            if out.strip():
                json.loads(out, parse_constant=_reject_constant)
            assert _run(capsys, argv) == (code, out, caught), argv
            codes.append(code)
    # the draws reach answers as well as refusals
    assert codes.count(0) >= len(codes) // 4 and codes.count(2) + codes.count(3) + codes.count(4) >= 10


def _zero(e, names, box):
    try:
        return is_identically_zero(e, box, names).is_zero
    except UndeterminableOnBox:
        return "undeterminable"


def _scales_exactly(c: float, e, ce, names, box) -> bool:
    """Whether every value and scale the zero test samples of ce (its
    samples and its 64 auxiliary samples) is c times e's, bit for bit, and
    either 0 or a normal float where it is finite."""
    policy = ZeroPolicy()
    rng = Stream(policy.seed)
    cols = [rng.uniform(lo, hi, size=policy.samples) for lo, hi in box]
    aux = [rng.uniform(lo, hi, size=64) for lo, hi in box]
    for arrays in (cols, aux):
        pairs = zip(_paired_batch(_program(e, names), arrays), _paired_batch(_program(ce, names), arrays))
        for mine, scaled in pairs:
            mine, scaled = np.atleast_1d(mine), np.atleast_1d(scaled)
            finite = np.isfinite(scaled)
            if not np.array_equal(finite, np.isfinite(mine)):
                return False  # a sample overflows
            with np.errstate(all="ignore"):
                if not np.array_equal(scaled[finite], mine[finite] * c):
                    return False
            q = np.abs(scaled[finite])
            if np.any((q > 0) & (q < 2.0**-1022)):
                return False
    return True


@pytest.mark.parametrize("c", [2.0**-1000, 2.0**1000, 2.0**1023], ids=["2^-1000", "2^1000", "2^1023"])
def test_zero_test_ignores_a_power_of_two_factor(c):
    names = ("x", "y")
    rng = random.Random(2031)
    compared = 0
    for _ in range(ZERO_EXPRESSIONS):
        e = parse(_expression(rng, rng.randint(1, 5)))
        box = [(0.5, 1.5), (0.5, 1.5)] if rng.random() < 0.5 else [(0.5, 1.0), (-1.0, 1.0)]
        ce = const(c) * e
        try:
            if not _scales_exactly(c, e, ce, names, box):
                continue
        except ExprError:
            continue  # c folds into a constant that has no float
        assert _zero(ce, names, box) == _zero(e, names, box), (c, to_string(e), box)
        compared += 1
    assert compared >= ZERO_EXPRESSIONS // 5


def test_zero_test_of_cos_plus_y_times_2_to_the_1023():
    # every sample of 2^1023 * (cos(x) + y) is finite, but the sum of the two
    # middle auxiliary scales is not: a median of inf made every threshold
    # inf, and the sampled route called the function zero
    names, box = ("x", "y"), [(0.5, 1.0), (0.5, 1.0)]
    e = parse("cos(x) + y")
    ce = const(2.0**1023) * e
    assert _scales_exactly(2.0**1023, e, ce, names, box)
    assert _zero(e, names, box) is False and _zero(ce, names, box) is False
