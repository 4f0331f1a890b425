"""The parser's trees and errors, and simplify's results, pinned.

A tree is pinned in an unambiguous post-order form: each distinct node once,
operands first, as ``[op, value, name, operand indices]``.  Printed text would
not do: ``-2`` (a constant) and ``-(2)`` (a negation) print alike.

``golden/parse.json`` holds the form, or the ParseError's message and offset,
of each explicit case, and the sha256 of the same over a seeded fuzz of token
strings.  ``golden/simplify.json`` holds the sha256 of the form of simplify's
result for the classifier corpus (each function, its first and second
partials, its certificates, ``G3 - G1 + G2`` and ``f_x*f_y/f_xy``) and for
seeded random DAGs.  Refresh them only for an intended change of the parser or
of simplify:

    PYTHONPATH=src python tests/test_expr_pins.py
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from expandlab.expr import CALLABLE_FUNCS, Expr, ParseError, const, parse, simplify, var

from test_printer_pin import _expressions
from test_witness_bits import CORPUS

GOLDEN = Path(__file__).with_name("golden")

PARSE_CASES = [
    "x^-2", "-x^2", "-2^2", "2^3^2", "x^-y*z", "x - -2", "x^-2^2", "--2", "-2*x",
    "2*-x*y", "-x*y", "x/y/z", "x - y - z", "a - -b - c", "x^y^-z", "2^-x",
    "sin(x)^2", "-(x)^2", "-sin(x)^-2", "x^(1/2)", "cos(-2)", "1.5e-3*x + .5",
    "sqrt(x)*log(y)/exp(z)", "((x))", "sin(cos(exp(x)))", "-(-(x))",
    "sin()", "x+", "(x y)", "x)", ")", "sin x", "foo(x)", "(x", "sin(x", "2(",
    "x,y", "x $ y", "^x", "x*", "--", "", "   ", "x²", "é",
]

# fuzz tokens that start an operand, and those that follow one; a closing
# parenthesis is drawn only while one is open, and one draw in ten takes any
# token, so every kind of error occurs
OPERAND_TOKENS = ["x", "y", "z", "2", "0.5", "1e3", "3", "-", "-", "(", "sin(", "exp(", "sqrt("]
OPERATOR_TOKENS = ["+", "-", "*", "/", "^", "^"]
STRAY_TOKENS = ["sin", "foo(", ",", " ", "$", ".5", ")"]
FUZZ_CASES = 6000
RANDOM_DAGS = 300


def postorder(e: Expr) -> list:
    """e's DAG as [op, value, name, operand indices] rows, operands first."""
    index: dict = {}
    rows: list = []
    stack = [e]
    while stack:
        node = stack[-1]
        if node in index:
            stack.pop()
            continue
        pending = [a for a in node.args if a not in index]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        index[node] = len(rows)
        value = None if node.value is None else str(node.value)
        rows.append([node.op, value, node.name, [index[a] for a in node.args]])
    return rows


def parsed(text: str):
    try:
        return postorder(parse(text))
    except ParseError as err:
        return {"error": str(err), "offset": err.offset}


def fuzz_texts(n: int = FUZZ_CASES) -> list[str]:
    rng = random.Random(20261019)
    anything = OPERAND_TOKENS + OPERATOR_TOKENS + STRAY_TOKENS
    texts = []
    for _ in range(n):
        tokens, depth = [], 0
        for _ in range(rng.randint(1, 16)):
            operand = not tokens or tokens[-1] in OPERATOR_TOKENS or tokens[-1].endswith("(")
            choices = OPERAND_TOKENS if operand else OPERATOR_TOKENS + [")"] * (2 * (depth > 0))
            token = rng.choice(anything if rng.random() < 0.1 else choices)
            depth += token.endswith("(") - (token == ")")
            tokens.append(token)
        tokens += [")"] * max(depth, 0) * (rng.random() < 0.8)
        texts.append((" " if rng.random() < 0.3 else "").join(tokens))
    return texts


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def parse_pins() -> dict:
    return {
        "cases": {text: parsed(text) for text in PARSE_CASES},
        "fuzz": {"count": FUZZ_CASES, "sha256": _sha([[t, parsed(t)] for t in fuzz_texts()])},
    }


def random_dags(n: int = RANDOM_DAGS) -> list[Expr]:
    """Seeded DAGs with shared subexpressions: each node takes its operands
    from the nodes built before it, so some fold to constants or divide by a
    symbolic zero."""
    rng = random.Random(7)
    leaves = [var("x"), var("y"), var("z"), const(0), const(1), const(2), const(Fraction(-3, 4))]
    out = []
    for _ in range(n):
        pool = list(leaves)
        for _ in range(rng.randint(2, 10)):
            a, b = rng.choice(pool[-4:]), rng.choice(pool)
            kind = rng.random()
            if kind < 0.5:
                node = Expr(rng.choice(("add", "sub", "mul", "div")), (a, b))
            elif kind < 0.6:
                node = Expr("neg", (a,))
            elif kind < 0.8:
                exponent = rng.choice((const(rng.randint(-3, 4)), const(Fraction(1, 2)), const(70), b))
                node = Expr("pow", (a, exponent))
            else:
                node = Expr(rng.choice(CALLABLE_FUNCS), (a,))
            pool.append(node)
        out.append(pool[-1])
    return out


def corpus_expressions(text: str, names: str, box) -> dict:
    out = _expressions(text, names, box)
    if "G1" in out:
        out["G3 - G1 + G2"] = out["G3"] - out["G1"] + out["G2"]
    out["f_x*f_y/f_xy"] = out[f"f_{names[0]}"] * out[f"f_{names[1]}"] / out[f"f_{names[:2]}"]
    return out


def simplify_pins() -> dict:
    doc = {
        text: {name: _sha(postorder(simplify(e))) for name, e in corpus_expressions(text, names, box).items()}
        for text, names, box in CORPUS
    }
    doc["random DAGs"] = _sha([postorder(simplify(e)) for e in random_dags()])
    return doc


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("text", PARSE_CASES)
def test_parse_case_is_unchanged(text):
    assert parsed(text) == _golden("parse.json")["cases"][text]


def test_parse_fuzz_is_unchanged():
    texts = fuzz_texts()
    assert len(set(texts)) > FUZZ_CASES // 2
    assert _sha([[t, parsed(t)] for t in texts]) == _golden("parse.json")["fuzz"]["sha256"]


@pytest.mark.parametrize("text, names, box", CORPUS, ids=[c[0] for c in CORPUS])
def test_simplify_of_the_corpus_is_unchanged(text, names, box):
    expected = _golden("simplify.json")[text]
    assert {name: _sha(postorder(simplify(e))) for name, e in corpus_expressions(text, names, box).items()} == expected


def test_simplify_of_random_dags_is_unchanged():
    assert _sha([postorder(simplify(e)) for e in random_dags()]) == _golden("simplify.json")["random DAGs"]


if __name__ == "__main__":
    for name, doc in (("parse.json", parse_pins()), ("simplify.json", simplify_pins())):
        (GOLDEN / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN / name}")
