"""Expression DAGs: parsing, exact differentiation, folding, evaluation.

Expressions are immutable DAGs over named real variables with exact rational
constants.  Nodes are hash-consed: building a node equal to a live node
returns that node, so structural equality is identity, decided once when a
node is built, and the walks visit each distinct subexpression once.
`simplify` applies local folds (exact constant arithmetic, 0 and 1 operands,
x - x) at every node; it gives no normal form, and no decision calls it.

One evaluator serves every entry point: an expression is compiled once into
a straight-line program over its DAG, run with a scalar op table (`evaluate`,
`compile_scalar`: DomainError off the domain), a numpy one (`compile_batch`),
one over the integers mod a prime, where each function application is an
opaque pseudo-random atom, the numpy one paired with an absolute-value
scale, one over intervals (`enclosure`: bounds on e over a box, rounded
outward), or one over enclosures with a trend along one variable (`rising`:
a proof that the numpy values never fall along it on a box).  The modular
and paired tables make the zero test (see `is_identically_zero`): all zero
at random points mod p proves e zero; a nonzero value proves e nonzero only
in the rational fragment (`+ - * /`, negation, integer powers), and float
samples, judged against the paired scale, decide the rest.
"""

from __future__ import annotations

import hashlib
import math
import operator
import weakref
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from .sampling import Stream

__all__ = [
    "Expr",
    "FunctionSpec",
    "ZeroCheck",
    "ZeroPolicy",
    "ExprError",
    "ParseError",
    "DomainError",
    "UndeterminableOnBox",
    "const",
    "var",
    "parse",
    "to_string",
    "differentiate",
    "simplify",
    "evaluate",
    "substitute",
    "free_vars",
    "domain_notes",
    "compile_scalar",
    "compile_batch",
    "enclosure",
    "rising",
    "is_identically_zero",
]

CALLABLE_FUNCS = ("sin", "cos", "exp", "log", "sqrt")

# The modular zero test: a Mersenne prime, the number of random points that
# must all give zero (a nonzero rational function of numerator degree d
# passes with probability at most (d/p)^k, with function applications
# counted as extra variables), and how many extra points may replace those
# that hit a zero denominator.
_MODULUS = (1 << 61) - 1
_MODULAR_POINTS = 8
_MODULAR_REDRAWS = 8


class ExprError(Exception):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(ExprError):
    """Evaluation left the domain of definition (division by zero, log of a
    non-positive number, ...).  Records the offending subexpression and point."""

    def __init__(self, message: str, culprit: str, point: Mapping[str, float]):
        super().__init__(f"{message} in `{culprit}` at {dict(point)}")
        self.culprit = culprit
        self.point = dict(point)


class UndeterminableOnBox(ExprError):
    """Every sample of a zero-test hit a domain error."""


# The live nodes, by op, payload and operand identities.  An operand's id
# stays valid while the node lives, because the node holds its operands.
# Nodes are held weakly, so the cyclic GC frees a node whose memo holds it
# (d exp(u) = exp(u)*u').  Nodes are built and memos filled on one thread
# only: dimlab's worker threads only evaluate compiled programs.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Expr:
    """Immutable, hash-consed expression node.

    op is one of: 'const', 'var', the unary ops, or the binary ops.  Constants
    carry an exact Fraction payload; variables carry a name.  Building a node
    equal to a live one returns the live one, so an expression is a DAG in
    which structurally equal subexpressions are one object, and equality and
    hashing are by identity.  _memo holds the node's derivatives by variable,
    its programs by variable order and its free variables (under None): they
    live as long as the node.
    """

    __slots__ = ("op", "args", "value", "name", "_memo", "__weakref__")

    def __new__(cls, op: str, args: tuple = (), value: Fraction | None = None, name: str | None = None):
        key = (op, value, name, *map(id, args))
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            _set_op(node, op)
            _set_args(node, args)
            _set_value(node, value)
            _set_name(node, name)
            _set_memo(node, {})
            _INTERNED[key] = node
        return node

    def __setattr__(self, *_):
        raise AttributeError("Expr nodes are immutable")

    __delattr__ = __setattr__

    def __add__(self, other):
        return Expr("add", (self, _wrap(other)))

    def __radd__(self, other):
        return Expr("add", (_wrap(other), self))

    def __sub__(self, other):
        return Expr("sub", (self, _wrap(other)))

    def __rsub__(self, other):
        return Expr("sub", (_wrap(other), self))

    def __mul__(self, other):
        return Expr("mul", (self, _wrap(other)))

    def __rmul__(self, other):
        return Expr("mul", (_wrap(other), self))

    def __truediv__(self, other):
        return Expr("div", (self, _wrap(other)))

    def __rtruediv__(self, other):
        return Expr("div", (_wrap(other), self))

    def __pow__(self, other):
        return Expr("pow", (self, _wrap(other)))

    def __neg__(self):
        return Expr("neg", (self,))

    def __repr__(self):
        return f"Expr({to_string(self)!r})"


# the slots' own setters, which __new__ calls past Expr.__setattr__
_set_op, _set_args, _set_value, _set_name, _set_memo = (getattr(Expr, s).__set__ for s in Expr.__slots__[:5])


def const(c) -> Expr:
    return Expr("const", value=Fraction(c))


def var(name: str) -> Expr:
    return Expr("var", name=name)


def _wrap(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return const(x)


_ZERO = const(0)
_ONE = const(1)


def _is_const(e: Expr, c) -> bool:
    return e.op == "const" and e.value == c


def free_vars(e: Expr) -> frozenset[str]:
    """The names of e's variables.  Each node of e's DAG keeps its own set
    (under the memo key None, which no variable name or order is), so asking
    again for e or any subexpression of it costs no walk."""

    def step(node: Expr, r: Callable[[Expr], frozenset[str]]) -> frozenset[str]:
        if None not in node._memo:
            node._memo[None] = frozenset((node.name,)) if node.op == "var" else frozenset().union(*map(r, node.args))
        return node._memo[None]

    return e._memo[None] if None in e._memo else _walk_dag(e, step)


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    def step(node: Expr, r: Callable[[Expr], Expr]) -> Expr:
        if node.op == "var" and node.name == name:
            return replacement
        return Expr(node.op, tuple(map(r, node.args))) if node.args else node

    return _walk_dag(e, step)


# ---------------------------------------------------------------------------
# Tokenizer / parser.  Grammar (see GRAMMAR.md):
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' NUMBER | '-' unary | power   # '-' NUMBER unless '^' follows
#   power  := atom ('^' unary)?            # right-associative
#   atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'
# Unary minus binds below '^', so -x^2 parses as -(x^2) and -2^2 as -(2^2);
# on a bare literal it is part of the constant, so x^-2 is x^(const -2).
# ---------------------------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return tokens


# binary operators by token: node op and precedence; '^' is right-associative
_BINARY = {"+": ("add", 1), "-": ("sub", 1), "*": ("mul", 2), "/": ("div", 2), "^": ("pow", 4)}


def parse(text: str) -> Expr:
    """Parse an infix expression.  Raises ParseError with a byte offset.

    One left-to-right pass of operator precedence (Dijkstra's shunting-yard):
    `ops` holds the pending operators, open parentheses and function calls,
    and `out` the operands built so far, so nesting is limited only by
    memory."""
    if not text.isascii():
        raise ParseError("input must be ASCII", 0)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    tokens.append(("end", "", len(text)))
    out: list[Expr] = []
    ops: list[tuple[str, int]] = []  # (op, precedence); "(" or a function name at 0

    def reduce(prec: int):
        """Apply the pending operators that bind at least as tightly as prec."""
        while ops and ops[-1][1] >= prec:
            op = ops.pop()[0]
            operands = (out.pop(),) if op == "neg" else (out.pop(-2), out.pop())
            out.append(Expr(op, operands))

    i = 0
    while True:
        # an operand: prefix minuses, open parentheses and calls, then an atom
        kind, value, off = tokens[i]
        i += 1
        if kind == "-":
            # a minus directly on a numeric literal that is not a power base
            # belongs to the constant, so x^-2 has an integer exponent
            if tokens[i][0] == "num" and tokens[i + 1][0] != "^":
                out.append(const(-Fraction(tokens[i][1])))
                i += 1
            else:
                ops.append(("neg", 3))  # binds below '^', above '*' and '/'
                continue
        elif kind == "(":
            ops.append(("(", 0))
            continue
        elif kind == "ident" and tokens[i][0] == "(":
            if value not in CALLABLE_FUNCS:
                raise ParseError(f"unknown function {value!r}", off)
            ops.append((value, 0))
            i += 1
            continue
        elif kind == "ident":
            out.append(var(value))
        elif kind == "num":
            out.append(const(Fraction(value)))
        elif kind == "end":
            raise ParseError("expected operand", off)
        else:
            raise ParseError(f"expected operand, found {value!r}", off)
        # after an operand: closing parentheses, then a binary operator or the end
        while (token := tokens[i])[0] == ")":
            i += 1
            reduce(1)
            if not ops:
                raise ParseError("unexpected token ')'", token[2])
            opener = ops.pop()[0]
            if opener != "(":
                out.append(Expr(opener, (out.pop(),)))
        kind, value, off = token
        i += 1
        if kind in _BINARY:
            op, prec = _BINARY[kind]
            reduce(prec + 1 if op == "pow" else prec)
            ops.append((op, prec))
            continue
        reduce(1)
        if ops:
            raise ParseError("expected ')'", off)
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", off)
        return out[0]


# ---------------------------------------------------------------------------
# Printer: minimal-parenthesis infix, round-trips through parse().
# ---------------------------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def _prec(e: Expr) -> int:
    if e.op == "const":
        # a non-integer prints as "p/q", which parses as a division
        if e.value.denominator != 1:
            return _PREC["div"]
        return 3 if e.value < 0 else 5
    if e.op == "var" or e.op in CALLABLE_FUNCS:
        return 5
    return _PREC[e.op]


_SYMBOL = {"add": " + ", "sub": " - ", "mul": "*", "div": "/", "pow": "^"}


def to_string(e: Expr) -> str:
    """e as infix text.  One walk over e's DAG gives each node its text as a rope: a string,
    or a tuple of ropes (its operands' among them).  The rope of a node with
    more than one parent is flattened to a string there, so a shared
    subexpression is copied, not walked again, and printing costs the length
    of the text."""
    parents: Counter[Expr] = Counter()
    _walk_dag(e, lambda node, r: parents.update(node.args))

    def step(node: Expr, r: Callable[[Expr], str | tuple]) -> str | tuple:
        op = node.op
        if op == "const":
            v = node.value
            return "-" + _frac_str(-v) if v < 0 else _frac_str(v)
        if op == "var":
            return node.name
        if op == "neg":
            a = node.args[0]
            rope = ("-(", r(a), ")") if _prec(a) < _PREC["neg"] else ("-", r(a))
        elif op in CALLABLE_FUNCS:
            rope = (op + "(", r(node.args[0]), ")")
        else:
            a, b = node.args
            # render a + (-b) as a - b
            if op == "add" and b.op == "neg":
                op, b = "sub", b.args[0]
            p = _PREC[op]
            # left operand: parenthesize strictly lower precedence; pow is
            # right-associative so an equal-precedence left child needs parens too
            sa = r(a)
            if _prec(a) < p or (op == "pow" and _prec(a) == p):
                sa = ("(", sa, ")")
            # right operand of -,/ needs parens at equal precedence
            sb = r(b)
            if _prec(b) < p or (op in ("sub", "div") and _prec(b) == p):
                sb = ("(", sb, ")")
            rope = (sa, _SYMBOL[op], sb)
        return _flatten(rope) if parents[node] > 1 else rope

    return _flatten(_walk_dag(e, step))


def _flatten(rope: str | tuple) -> str:
    parts, stack = [], [rope]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            parts.append(piece)
        else:
            stack.extend(reversed(piece))
    return "".join(parts)


def _frac_str(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# Evaluation.  An expression is compiled once into a straight-line program
# over its DAG: structurally equal subtrees share one register, variables and
# constants are preloaded, and each instruction writes one register.  One
# interpreter runs every program, with a scalar or a numpy op table.
# ---------------------------------------------------------------------------

# Opcodes index the op tables.  "powi" is a power with an integer constant
# exponent; its second operand register holds the exact int.
_OPCODES = ("add", "sub", "mul", "div", "pow", "powi", "neg", *CALLABLE_FUNCS)
_LEAVES = ("var", "const", "int")

# Python floats raise where an operation leaves its domain (an OverflowError
# reads "overflow" whatever the op) ...
_SCALAR = (
    operator.add, operator.sub, operator.mul, operator.truediv, math.pow, operator.pow,
    operator.neg, math.sin, math.cos, math.exp, math.log, math.sqrt,
)
_FAULT_MESSAGE = {
    "div": "division by zero",
    "pow": "invalid power",
    "powi": "zero raised to negative power",
    "log": "log of non-positive value",
    "sqrt": "sqrt of negative value",
    "sin": "sin of non-finite value",
    "cos": "cos of non-finite value",
}


def _masks(*operands) -> list:
    """The isfinite masks of the operands that are not finite everywhere.
    Taken before the op, so the op may write over one of them."""
    return [m for m in map(np.isfinite, operands) if not np.all(m)]


def _nan_unless(masks, out):
    """out, with NaN wherever one of the masks is False."""
    for m in masks:
        out = np.where(m, out, np.nan)
    return out


# ... numpy gives non-finite entries instead.  An op that would turn a
# non-finite operand into a finite entry (x/inf, exp(-inf), nan^0, 2^-inf)
# gives NaN there, so a point outside the domain stays non-finite to the end.
# Every op takes out= (None: a new array).
def _batch_div(a, b, out=None):
    return _nan_unless(_masks(b), np.true_divide(a, b, out=out))


def _batch_pow(a, b, out=None):
    return _nan_unless(_masks(a, b), np.power(a, b, out=out))


def _batch_powi(a, k: int, out=None):
    return _nan_unless(_masks(a) if k <= 0 else (), np.power(a, k, dtype=np.float64, out=out))


def _batch_exp(a, out=None):
    return _nan_unless(_masks(a), np.exp(a, out=out))


_BATCH_FUNCS = (np.sin, np.cos, _batch_exp, np.log, np.sqrt)
_BATCH_OPS = (
    np.add, np.subtract, np.multiply, _batch_div, _batch_pow, _batch_powi,
    np.negative, *_BATCH_FUNCS,
)
# Opcode + len(_OPCODES) (+ 2 * len(_OPCODES)) writes the result over the
# first (second) operand: see _Program.into and compile_batch
_BATCH = (
    *_BATCH_OPS,
    *(lambda a, *b, fn=fn: fn(a, *b, out=a) for fn in _BATCH_OPS),
    *(lambda a, b, fn=fn: fn(a, b, out=b) for fn in _BATCH_OPS[: _OPCODES.index("powi")]),
)


# Paired with an absolute-value scale for the zero test: a register holds
# (value, scale), the value as _BATCH computes it and the scale the matching
# sum of |monomial-like subterms| of the expression as written, with |u|
# taken as sqrt(u^2).  A variable or function value u scales by |u|, a
# constant by its absolute value, a sum or difference by the sum of the
# scales, a product, quotient or integer power by the same op on the scales,
# a negation by its operand's scale, and a general power by its own value
# (positive where defined).  Every scale is the same float computation, bit
# for bit, as evaluating the surrogate expression those rules spell.
def _scaled(v):
    return v, np.sqrt(_batch_powi(v, 2))


def _paired_powi(a, k: int):
    scale = _batch_powi(a[1], k) if k >= 0 else _batch_div(1.0, _batch_powi(a[1], -k))
    return _batch_powi(a[0], k), scale


def _paired_pow(a, b):
    v = _batch_pow(a[0], b[0])
    return v, v


_PAIRED = (
    lambda a, b: (a[0] + b[0], a[1] + b[1]),
    lambda a, b: (a[0] - b[0], a[1] + b[1]),
    lambda a, b: (a[0] * b[0], a[1] * b[1]),
    lambda a, b: (_batch_div(a[0], b[0]), _batch_div(a[1], b[1])),
    _paired_pow,
    _paired_powi,
    lambda a: (np.negative(a[0]), a[1]),
    *(lambda a, fn=fn: _scaled(fn(a[0])) for fn in _BATCH_FUNCS),
)


def _opaque(op: str) -> Callable[..., int]:
    """op as an uninterpreted function mod _MODULUS: a pseudo-random value of
    op and its operands' residues, the same in every process.  It must not be
    algebraic: with sin(a) = a + c, sin(x) - x - c would be "proven" zero."""
    return lambda *operands: int.from_bytes(
        hashlib.blake2b(repr((op, operands)).encode(), digest_size=8).digest(), "little") % _MODULUS


# Over the integers mod _MODULUS: exact on the rational fragment, with every
# other op an opaque atom.  A zero divisor raises ValueError (pow(0, -1, p)
# has no inverse).
_MODP = (
    lambda a, b: (a + b) % _MODULUS,
    lambda a, b: (a - b) % _MODULUS,
    lambda a, b: a * b % _MODULUS,
    lambda a, b: a * pow(b, -1, _MODULUS) % _MODULUS,
    _opaque("pow"),
    lambda a, k: pow(a, k, _MODULUS),
    lambda a: -a % _MODULUS,
    *map(_opaque, CALLABLE_FUNCS),
)
_RATIONAL_OPCODES = frozenset(map(_OPCODES.index, ("add", "sub", "mul", "div", "powi", "neg")))


# Over intervals: a register holds floats (lo, hi) that enclose every real
# value of its node on the input box (Moore, Interval Analysis, 1966).
# + - * / and integer powers take their least and greatest float results
# over the operands' corners, each moved one ulp outward only where it
# differs from the exact rational result, so 2x + y on [0, 1/3]^2 keeps its
# lower bound 0.0.  The other functions take their values at the ends of
# their monotone pieces and at critical points, one ulp outward except where
# the value is exact (sin 0, cos 0, exp 0, log 1, the square root of an exact
# square), so sin x on [0, 1/3] keeps its lower bound 0.0 too.  A domain
# violation gives _WHOLE, and so does an operand with an infinite bound, so
# no later op narrows it.
_WHOLE = (-math.inf, math.inf)


def _outward(r: float, exact: Fraction) -> tuple[float, float]:
    """Bounds on exact from r, its float result (one ulp outward on each
    side where r differs from exact)."""
    if math.isinf(r):  # overflow: exact lies past the largest float
        edge = math.nextafter(r, 0.0)
        return (edge, r) if r > 0 else (r, edge)
    q = Fraction(r)
    return (
        r if q <= exact else math.nextafter(r, -math.inf),
        r if q >= exact else math.nextafter(r, math.inf),
    )


def _hull(bounds) -> tuple[float, float]:
    bounds = list(bounds)
    return min(b[0] for b in bounds), max(b[1] for b in bounds)


def _corners(op, a, b) -> tuple[float, float]:
    """op (+ - * /) over the box a x b, where its extremes lie at corners."""
    return _hull(_outward(op(x, y), op(Fraction(x), Fraction(y))) for x in a for y in b)


def _interval_div(a, b):
    return _WHOLE if b[0] <= 0 <= b[1] else _corners(operator.truediv, a, b)


def _interval_powi(a, k: int):
    # the exact power of a long exponent is a long integer
    if k < 0 and a[0] <= 0 <= a[1] or abs(k) > 1024:
        return _WHOLE

    def power(x):
        try:
            r = x**k
        except OverflowError:
            r = math.copysign(math.inf, x) if k % 2 else math.inf
        return _outward(r, Fraction(x) ** k)

    # an even power is least at 0 when the interval holds it
    zero = [(0.0, 0.0)] if k > 0 and k % 2 == 0 and a[0] < 0 < a[1] else []
    return _hull([power(a[0]), power(a[1]), *zero])


def _call(fn, *args) -> float:
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _interval_pow(a, b):
    # a^b is monotone in each operand for a > 0, so its extremes lie at corners
    if a[0] <= 0:
        return _WHOLE
    ends = [_call(math.pow, x, y) for x in a for y in b]
    return max(0.0, math.nextafter(min(ends), -math.inf)), math.nextafter(max(ends), math.inf)


# libm's values that are exact
_EXACT_AT = {(math.sin, 0.0), (math.cos, 0.0), (math.exp, 0.0), (math.log, 1.0)}


def _at(fn, x: float) -> tuple[float, float]:
    """Bounds on fn(x) from its float value r: r itself where it is exact,
    else one ulp outward on each side (for sqrt only on a side where r
    differs from the root, found exactly by comparing r^2 with x)."""
    r = _call(fn, x)
    if (fn, x) in _EXACT_AT:
        return r, r
    if fn is math.sqrt:
        square = Fraction(r) ** 2
        return (
            r if square <= x else math.nextafter(r, -math.inf),
            r if square >= x else math.nextafter(r, math.inf),
        )
    return math.nextafter(r, -math.inf), math.nextafter(r, math.inf)


def _rising(fn, floor: float = -math.inf):
    return lambda a: (max(floor, _at(fn, a[0])[0]), _at(fn, a[1])[1])


def _wave(fn, peak: float):
    """sin (peak pi/2) or cos (peak 0): its values at the ends, widened to 1
    (-1) when a peak (trough) may lie inside.  The test for one inside allows
    1e-6 of rounding, which only widens."""

    def enclose(a):
        lo, hi = a
        if hi - lo >= math.tau or max(-lo, hi) > 1e6:
            return (-1.0, 1.0)

        def inside(c):
            return math.floor((hi + 1e-6 - c) / math.tau) >= math.ceil((lo - 1e-6 - c) / math.tau)

        low, high = _hull((_at(fn, lo), _at(fn, hi)))
        return (-1.0 if inside(peak + math.pi) else max(-1.0, low), 1.0 if inside(peak) else min(1.0, high))

    return enclose


def _bounded(fn):
    """fn, giving _WHOLE where an operand has an infinite bound or the result
    a NaN one."""

    def op(*operands):
        if any(isinstance(r, tuple) and not (math.isfinite(r[0]) and math.isfinite(r[1])) for r in operands):
            return _WHOLE
        lo, hi = fn(*operands)
        return (lo, hi) if lo <= hi else _WHOLE

    return op


_INTERVAL = tuple(map(_bounded, (
    lambda a, b: _corners(operator.add, a, b),
    lambda a, b: _corners(operator.sub, a, b),
    lambda a, b: _corners(operator.mul, a, b),
    _interval_div,
    _interval_pow,
    _interval_powi,
    lambda a: (-a[1], -a[0]),
    _wave(math.sin, math.pi / 2),
    _wave(math.cos, 0.0),
    _rising(math.exp, 0.0),
    lambda a: _WHOLE if a[0] <= 0 else _rising(math.log)(a),
    lambda a: _WHOLE if a[0] < 0 else _rising(math.sqrt, 0.0)(a),
)))


@dataclass(frozen=True)
class _Program:
    vars: tuple[str, ...]  # input registers 0 .. len(vars) - 1
    consts: tuple  # preloaded into the registers after the inputs
    exact: tuple  # the same constants exactly: Fractions, and ints for powi
    ntemps: int  # registers for intermediate values, reused once dead
    code: tuple  # (opcode, dst, a, b, node); b < 0 for a unary op
    # per instruction: 1 (2) when dst is the register of operand a (b), a
    # temporary that dies there and has the result's broadcast shape, else 0
    into: tuple
    out: int

    @property
    def rational(self) -> bool:
        """Every instruction lies in the rational fragment (+ - * /,
        negation, integer powers), so a nonzero value mod a prime proves the
        program nonzero."""
        return all(ins[0] in _RATIONAL_OPCODES for ins in self.code)


def _program(e: Expr, var_order: tuple[str, ...]) -> _Program:
    """Compile e for inputs in var_order (KeyError for a variable outside
    it, ExprError for a constant with no float).  The walk is iterative, so
    the depth of e does not matter."""
    if var_order in e._memo:
        return e._memo[var_order]
    number: dict = {}  # (kind, payload or operand numbers) -> (value number, node), topologically
    seen: dict[Expr, int] = {}  # node -> value number
    # post-order, left operand first: instructions run in the order a tree
    # walk evaluates them, so the first one to fail is the same
    stack = [e]
    while stack:
        node = stack[-1]
        op, args = node.op, node.args
        if op == "pow" and args[1].op == "const" and args[1].value.denominator == 1:
            op, args = "powi", args[:1]
        pending = [a for a in reversed(args) if a not in seen]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if op in ("const", "var"):
            key = (op, node.value if op == "const" else node.name)
        elif op == "powi":
            k = ("int", node.args[1].value.numerator)
            key = (op, seen[args[0]], number.setdefault(k, (len(number), None))[0])
        else:
            key = (op, *(seen[a] for a in args))
        seen[node] = number.setdefault(key, (len(number), node))[0]

    # registers: inputs, constants, then temporaries; a temporary is freed
    # after its last use and taken again by the next instruction.  deps[n]
    # has bit i set when value n depends on var_order[i]: over inputs that
    # broadcast together, its shape is the broadcast shape of those inputs
    index = {name: i for i, name in enumerate(var_order)}
    reg = [0] * len(number)
    deps = [0] * len(number)
    exact: list = []
    last_use = {}
    for n, (kind, *operands) in enumerate(number):
        if kind == "var":
            reg[n] = index[operands[0]]
            deps[n] = 1 << reg[n]
        elif kind in _LEAVES:
            reg[n] = len(var_order) + len(exact)
            exact.append(operands[0])
        else:
            last_use.update((m, n) for m in operands)
            deps[n] = deps[operands[0]] | deps[operands[-1]]
    base = len(var_order) + len(exact)
    free: list[int] = []
    ntemps = 0
    code = []
    into = []
    for n, ((kind, *operands), (_, node)) in enumerate(number.items()):
        if kind in _LEAVES:
            continue
        # the result goes over a dying temporary operand with its
        # dependencies, so with its shape (one with none may be a numpy
        # scalar, not an array); other dying temporaries are freed
        reg[n] = -1
        into.append(0)
        for i, m in enumerate(operands):
            if last_use[m] == n and reg[m] >= base and not (i and m == operands[0]):
                if reg[n] < 0 and deps[m] == deps[n] != 0:
                    reg[n] = reg[m]
                    into[-1] = i + 1
                else:
                    free.append(reg[m])
        if reg[n] < 0:
            if not free:
                free.append(base + ntemps)
                ntemps += 1
            reg[n] = free.pop()
        b = reg[operands[1]] if len(operands) > 1 else -1
        code.append((_OPCODES.index(kind), reg[n], reg[operands[0]], b, node))
    try:  # numpy's power takes a powi exponent as a float, so it needs one too
        floats = [float(c) for c in exact]
    except OverflowError:  # the largest constant or exponent is past the float range
        from decimal import Context

        kind, big = max(((k, c) for k, c, *_ in number if k in ("const", "int")), key=lambda kc: abs(kc[1]))
        # its magnitude: the exact value can run to thousands of digits
        ctx = Context(prec=3)
        magnitude = ctx.divide(big.numerator, big.denominator).normalize(ctx)
        raise ExprError(f"{'exponent' if kind == 'int' else 'constant'} {magnitude:e} has no float value") from None
    consts = tuple(v if isinstance(c, Fraction) else c for c, v in zip(exact, floats))
    e._memo[var_order] = _Program(
        var_order, consts, tuple(exact), ntemps, tuple(code), tuple(into), reg[seen[e]]
    )
    return e._memo[var_order]


def _execute(prog: _Program, table: tuple, regs: list, point=None, consts=None):
    """Run prog with an op table on the input registers regs and return the
    output register; consts replaces prog.consts.  With the scalar table, an
    instruction that leaves its domain raises DomainError at point (default:
    the inputs)."""
    if len(regs) != len(prog.vars):
        raise TypeError(f"expected {len(prog.vars)} inputs, got {len(regs)}")
    regs += prog.consts if consts is None else consts
    regs += [None] * prog.ntemps
    try:
        for ins in prog.code:
            op, dst, a, b, _ = ins
            fn = table[op]
            regs[dst] = fn(regs[a]) if b < 0 else fn(regs[a], regs[b])
    except (ArithmeticError, ValueError) as exc:
        if table is not _SCALAR:
            raise
        message = "overflow" if isinstance(exc, OverflowError) else _FAULT_MESSAGE[_OPCODES[ins[0]]]
        point = dict(zip(prog.vars, regs)) if point is None else point
        raise DomainError(message, to_string(ins[4]), point) from None
    return regs[prog.out]


def evaluate(e: Expr, point: Mapping[str, float]) -> float:
    """Evaluate at a point of reals.  Domain violations raise DomainError."""
    try:
        prog = _program(e, tuple(point))
    except KeyError as err:
        raise DomainError("unassigned variable", err.args[0], point) from None
    return _execute(prog, _SCALAR, [float(v) for v in point.values()], point)


def compile_scalar(e: Expr, var_order: tuple[str, ...]) -> Callable[..., float]:
    """Compile to a fast positional-argument evaluator.

    The returned callable takes len(var_order) floats and raises DomainError
    on domain violations, matching evaluate()."""
    prog = _program(e, var_order)
    return lambda *args: _execute(prog, _SCALAR, [float(x) for x in args])


def compile_batch(e: Expr, var_order: tuple[str, ...]) -> Callable[..., np.ndarray]:
    """Compile to a vectorized numpy evaluator over arrays that broadcast
    together; the result has their broadcast shape.  The inputs are taken
    as float64 (integer arithmetic would wrap) and never written to; the
    result is a new array that shares no memory with them.

    Domain violations surface as non-finite entries; the caller decides
    whether those are errors (see FunctionSpec.evaluate_batch)."""
    prog = _program(e, var_order)
    # prog with each result written where prog.into places it
    written = replace(prog, code=tuple(
        (ins[0] + k * len(_OPCODES), *ins[1:]) for ins, k in zip(prog.code, prog.into)
    ))

    def run(*arrays: np.ndarray) -> np.ndarray:
        regs = [np.asarray(a, dtype=np.float64) for a in arrays]
        shape = np.broadcast(*regs).shape
        # Results go over temporaries only when every input has two
        # elements or more, and so every temporary with a variable: numpy's
        # add over a one-element first operand runs its reduction loop,
        # which keeps the second operand's NaN, and an op over 0-d arrays
        # returns a numpy scalar, which nothing can be written over.
        program = written if min((r.size for r in regs), default=0) > 1 else prog
        with np.errstate(all="ignore"):
            out = _batch_result(_execute(program, _BATCH, regs), shape)
        # f = x returns an input's own register, which is copied
        return out.copy() if prog.out < len(arrays) and out is regs[prog.out] else out

    return run


def _batch_result(out, shape) -> np.ndarray:
    """out as a float64 array of the given shape, which it broadcasts to."""
    out = np.asarray(out, dtype=np.float64)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


def _paired_batch(prog: _Program, arrays) -> tuple[np.ndarray, np.ndarray]:
    """prog's values and absolute-value scales over arrays (see _PAIRED)."""
    consts = [(c, abs(c)) if isinstance(c, float) else c for c in prog.consts]
    with np.errstate(all="ignore"):
        value, scale = _execute(prog, _PAIRED, [_scaled(a) for a in arrays], consts=consts)
    shape = np.broadcast(*arrays).shape
    return _batch_result(value, shape), _batch_result(scale, shape)


def enclosure(e: Expr, var_order: tuple[str, ...], box) -> tuple[float, float]:
    """Floats (lo, hi) that enclose every real value of e on the box, one
    (lo, hi) per variable of var_order (see _INTERVAL); (-inf, inf) where e
    may leave its domain on the box."""
    prog = _program(e, tuple(var_order))
    consts = [_outward(float(c), c) if isinstance(c, Fraction) else c for c in prog.exact]
    return _execute(prog, _INTERVAL, [(float(lo), float(hi)) for lo, hi in box], consts=consts)


# Over trends along one axis variable: a register holds (lo, hi, t), floats
# that enclose the float value _BATCH computes for its node at every point of
# the box, and its trend t along the axis: 0 constant (the node does not
# depend on the axis variable), 1 non-decreasing, -1 non-increasing.
# Rounding of + - * / is monotone, so each keeps the order of its exact
# results (Moore, Interval Analysis, 1966; Rump, Acta Numerica 19, 2010): its
# float enclosure is the same op on the operands' bounds (at the corners for
# * and /), and its trend follows from its operands' trends and float signs.
# numpy's powers and libm loops carry no such guarantee, so they count only
# on operands constant along the axis, with _INTERVAL's enclosure of the real
# value widened by _LIBM_SLACK relative plus the least normal float.  A step
# that cannot be proven raises _Unproven.
# numpy's libm loops are within a few ulp (about 2^-50 relative), and an
# integer power by repeated products within |k| <= 1024 ulp (2^-43; larger
# powers get no _INTERVAL bound), so 2^-40 leaves a margin of 8 and more
_LIBM_SLACK = 2.0**-40


class _Unproven(ArithmeticError):
    """The trend table cannot prove a step (see rising)."""


def _sign(r) -> int:
    """1 (-1) when every float value of register r is >= 0 (<= 0), else 0."""
    return 1 if r[0] >= 0 else -1 if r[1] <= 0 else 0


def _along(t: int, sign: int) -> int:
    """The trend an operand of trend t gives a product or quotient whose
    other operand has the given sign."""
    if t and not sign:
        raise _Unproven
    return t * sign


def _trended(lo: float, hi: float, *trends: int):
    """The register (lo, hi, t) of an op whose operands move it by trends;
    its bounds must be finite and its trends must agree."""
    moving = set(trends) - {0}
    if len(moving) > 1 or not (math.isfinite(lo) and math.isfinite(hi)):
        raise _Unproven
    return lo, hi, moving.pop() if moving else 0


def _trend_mul(a, b):
    ends = [x * y for x in a[:2] for y in b[:2]]
    return _trended(min(ends), max(ends), _along(a[2], _sign(b)), _along(b[2], _sign(a)))


def _trend_div(a, b):
    if not (b[0] > 0 or b[1] < 0):
        raise _Unproven
    ends = [x / y for x in a[:2] for y in b[:2]]
    return _trended(min(ends), max(ends), _along(a[2], _sign(b)), _along(b[2], -_sign(a)))


def _steady(interval_op):
    """An _INTERVAL op on operands constant along the axis, widened."""

    def op(*operands):
        if any(isinstance(r, tuple) and r[2] for r in operands):
            raise _Unproven
        lo, hi = interval_op(*(r[:2] if isinstance(r, tuple) else r for r in operands))
        pad = 2.0**-1022
        return _trended(lo - abs(lo) * _LIBM_SLACK - pad, hi + abs(hi) * _LIBM_SLACK + pad)

    return op


_TREND = (
    lambda a, b: _trended(a[0] + b[0], a[1] + b[1], a[2], b[2]),
    lambda a, b: _trended(a[0] - b[1], a[1] - b[0], a[2], -b[2]),
    _trend_mul,
    _trend_div,
    *map(_steady, _INTERVAL[4:6]),  # pow, powi
    lambda a: (-a[1], -a[0], -a[2]),
    *map(_steady, _INTERVAL[7:]),  # the functions
)


def rising(e: Expr, var_order: tuple[str, ...], box, axis: int) -> bool:
    """Whether the float values compile_batch(e, var_order) computes are
    finite and non-decreasing along var_order[axis] at every point of the
    box, one (lo, hi) per variable of var_order.  True only when the trend
    table proves it (see _TREND); False means unproven, not falling."""
    prog = _program(e, tuple(var_order))
    axis %= len(prog.vars)
    regs = [(float(lo), float(hi), int(k == axis)) for k, (lo, hi) in enumerate(box)]
    consts = [(c, c, 0) if isinstance(c, float) else c for c in prog.consts]
    try:
        return _execute(prog, _TREND, regs, consts=consts)[2] >= 0
    except _Unproven:
        return False


# ---------------------------------------------------------------------------
# Differentiation over the DAG (forward mode on the expression itself): each
# distinct node is differentiated once, and the result is built from e's own
# subexpressions, so it has O(size of e's DAG) distinct nodes.  The
# constructors below fold 0, 1 and constant-by-constant operations, which
# drops the zero branches of the product and quotient rules.  A power whose
# exponent is not an integer constant is rewritten through exp/log (side
# condition: positive base, see
# domain_notes).
# ---------------------------------------------------------------------------


def _neg(a: Expr) -> Expr:
    return const(-a.value) if a.op == "const" else Expr("neg", (a,))


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if a.op == b.op == "const":
        return const(a.value + b.value)
    return Expr("add", (a, b))


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return _neg(b)
    if a.op == b.op == "const":
        return const(a.value - b.value)
    return Expr("sub", (a, b))


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if a.op == b.op == "const":
        return const(a.value * b.value)
    return Expr("mul", (a, b))


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0):
        return Expr("div", (a, b))
    if _is_const(a, 0):
        return _ZERO
    if _is_const(b, 1):
        return a
    if a.op == b.op == "const":
        return const(a.value / b.value)
    return Expr("div", (a, b))


def _powi(u: Expr, k: int) -> Expr:
    if k == 0:
        return _ONE
    if k == 1:
        return u
    return Expr("pow", (u, const(k)))


def _derivative(node: Expr, d: Callable[[Expr], Expr]) -> Expr:
    """The chain rule at node, with d giving the derivatives of its
    operands."""
    op, args = node.op, node.args
    if op == "neg":
        return _neg(d(args[0]))
    if op == "add":
        return _add(d(args[0]), d(args[1]))
    if op == "sub":
        return _sub(d(args[0]), d(args[1]))
    if op == "mul":
        u, w = args
        return _add(_mul(d(u), w), _mul(u, d(w)))
    if op == "div":
        u, w = args
        return _div(_sub(_mul(d(u), w), _mul(u, d(w))), _mul(w, w))
    if op == "pow":
        u, p = args
        if p.op == "const" and p.value.denominator == 1:
            k = p.value.numerator
            return _mul(_mul(const(k), _powi(u, k - 1)), d(u)) if k else _ZERO
        # a^b with non-integer b: a^b = exp(b*log(a)), valid for a > 0
        log_u = Expr("log", (u,))
        exponent = Expr("mul", (p, log_u))
        return _mul(Expr("exp", (exponent,)), _add(_mul(d(p), log_u), _mul(p, _div(d(u), u))))
    if op == "sin":
        return _mul(Expr("cos", args), d(args[0]))
    if op == "cos":
        return _neg(_mul(Expr("sin", args), d(args[0])))
    if op == "exp":
        return _mul(node, d(args[0]))
    if op == "log":
        return _div(d(args[0]), args[0])
    if op == "sqrt":
        return _div(d(args[0]), _mul(const(2), node))
    raise ExprError(f"unknown op {op!r}")


_T = TypeVar("_T")


def _walk_dag(e: Expr, step: Callable[[Expr, Callable[[Expr], _T]], _T]) -> _T:
    """Build a result for each distinct node of e in post-order: step(node, r)
    builds node's result, with r giving the results of nodes already done (its
    operands and theirs).  Nodes are hash-consed, so structurally equal
    subexpressions are one node with one result.  The walk is iterative, so
    the depth of e does not matter."""
    done: dict = {}  # node -> result
    stack = [e]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        pending = [a for a in node.args if a not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        done[node] = step(node, done.__getitem__)
    return done[e]


def differentiate(e: Expr, v: str) -> Expr:
    """The partial derivative of e in v, by one walk over e's DAG."""
    if v in e._memo:
        return e._memo[v]

    def step(node: Expr, d: Callable[[Expr], Expr]) -> Expr:
        if node.op == "const":
            return _ZERO
        if node.op == "var":
            return _ONE if node.name == v else _ZERO
        return _derivative(node, d)

    e._memo[v] = _walk_dag(e, step)
    return e._memo[v]


def domain_notes(e: Expr) -> list[str]:
    """Side conditions under which the expression is defined: denominators,
    log/sqrt arguments, non-integer power bases.  Each note is listed once,
    in the order a pre-order walk of e's tree first meets it.  The walk is
    iterative and skips a node met before: its subtree adds no new note."""
    notes: dict[str, None] = {}
    seen: set[Expr] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        op, args = node.op, node.args
        if op == "div":
            notes[f"{to_string(args[1])} != 0"] = None
        elif op == "log" or (op == "pow" and not (args[1].op == "const" and args[1].value.denominator == 1)):
            notes[f"{to_string(args[0])} > 0"] = None
        elif op == "sqrt":
            notes[f"{to_string(args[0])} >= 0"] = None
        stack.extend(reversed(args))
    return list(notes)


# ---------------------------------------------------------------------------
# Simplification: the local folds, applied once at every node.  No normal
# form: like terms are not collected and operands are not reordered, so an
# identity is decided by is_identically_zero, not by comparing results.
# ---------------------------------------------------------------------------


def _fold_func(op: str, arg: Expr) -> Expr | None:
    """Exact folds of functions at special rational arguments."""
    if arg.op != "const":
        return None
    v = arg.value
    if op == "exp" and v == 0:
        return _ONE
    if op == "log" and v == 1:
        return _ZERO
    if op == "sin" and v == 0:
        return _ZERO
    if op == "cos" and v == 0:
        return _ONE
    if op == "sqrt" and v >= 0:
        num_r = math.isqrt(v.numerator)
        den_r = math.isqrt(v.denominator)
        if num_r * num_r == v.numerator and den_r * den_r == v.denominator:
            return const(Fraction(num_r, den_r))
    return None


def _local_fold(op: str, args: tuple[Expr, ...]) -> Expr:
    """The node op(*args), with args already folded: the differentiation
    constructors' folds (exact constant arithmetic, 0 and 1 operands),
    --a = a, a - a = 0, a^0 = 1, a^1 = a and _fold_func."""
    if op in ("add", "mul", "div"):
        return {"add": _add, "mul": _mul, "div": _div}[op](*args)
    if op == "neg":
        (a,) = args
        return a.args[0] if a.op == "neg" else _neg(a)
    if op == "sub":
        a, b = args
        if a is b:
            return _ZERO
        return _local_fold("neg", (b,)) if _is_const(a, 0) else _sub(a, b)
    if op == "pow":
        a, b = args
        return _ONE if _is_const(b, 0) else a if _is_const(b, 1) else Expr(op, args)
    folded = _fold_func(op, args[0])
    return Expr(op, args) if folded is None else folded


def simplify(e: Expr) -> Expr:
    """e with _local_fold applied at every node, bottom up, by one walk over
    e's DAG.  Idempotent, and iterative, so the depth of e does not matter."""

    def step(node: Expr, folded: Callable[[Expr], Expr]) -> Expr:
        return _local_fold(node.op, tuple(map(folded, node.args))) if node.args else node

    return _walk_dag(e, step)


# ---------------------------------------------------------------------------
# FunctionSpec: an expression plus ordered variables and a closed box.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSpec:
    expr: Expr
    vars: tuple[str, ...]
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("variables must be pairwise distinct")
        if len(self.box) != len(self.vars):
            raise ValueError("box must have one interval per variable")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError(f"degenerate interval [{lo}, {hi}]")
            if math.isinf(hi - lo):
                raise ValueError(f"interval [{lo}, {hi}] is wider than the float range")
        extra = free_vars(self.expr) - set(self.vars)
        if extra:
            raise ValueError(f"expression references undeclared variables: {sorted(extra)}")

    @staticmethod
    def from_text(text: str, vars: Sequence[str], box: Sequence[tuple[float, float]]) -> "FunctionSpec":
        return FunctionSpec(parse(text), tuple(vars), tuple((float(a), float(b)) for a, b in box))

    @property
    def arity(self) -> int:
        return len(self.vars)

    def partial(self, v: str | int) -> Expr:
        name = self.vars[v] if isinstance(v, int) else v
        return differentiate(self.expr, name)

    def partial2(self, v1: str | int, v2: str | int) -> Expr:
        return differentiate(self.partial(v1), self.vars[v2] if isinstance(v2, int) else v2)

    def evaluate(self, point: Sequence[float] | Mapping[str, float]) -> float:
        if isinstance(point, Mapping):
            return evaluate(self.expr, point)
        return compile_scalar(self.expr, self.vars)(*point)

    def evaluate_batch(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        out = compile_batch(self.expr, self.vars)(*arrays)
        if not np.all(np.isfinite(out)):
            bad = np.unravel_index(np.argmax(~np.isfinite(out)), np.shape(out))
            pt = {v: float(np.broadcast_to(a, np.shape(out))[bad]) for v, a in zip(self.vars, arrays)}
            raise DomainError("non-finite value in batch evaluation", to_string(self.expr), pt)
        return out

    def contains(self, point: Sequence[float]) -> bool:
        return all(lo <= p <= hi for p, (lo, hi) in zip(point, self.box))

    def widths(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in self.box)

    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * (lo + hi) for lo, hi in self.box)


# ---------------------------------------------------------------------------
# Zero test.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroPolicy:
    samples: int = 64
    rel_tol: float = 1e-9
    seed: int = 0


# the routes that decide a zero test
MODULAR = "modular"  # exact evaluation mod a prime
SAMPLED = "sampled"  # float samples against a tolerance


@dataclass(frozen=True)
class ZeroCheck:
    """Outcome of is_identically_zero: either Zero or a nonzero witness."""

    is_zero: bool
    witness_point: dict | None = None
    witness_value: float | None = None
    valid_fraction: float = 1.0
    # sampled values kept for status reporting (empty when no float samples
    # were needed: an exact zero)
    sampled_points: tuple = ()
    sampled_values: tuple = ()
    route: str = SAMPLED

    @property
    def symbolic(self) -> bool:
        """The verdict was decided exactly (route modular)."""
        return self.route == MODULAR


def median(values) -> float:
    """np.median of a 1-D array (NaN if any entry is NaN), bit for bit where
    that is finite, without its lazy import of numpy.ma; finite where
    np.median's sum of two finite middle values overflows."""
    s = np.sort(np.asarray(values, dtype=np.float64).ravel())
    n = s.size
    if n == 0 or np.isnan(s[-1]):
        return math.nan
    m = n // 2
    if n % 2:
        return float(s[m])
    a, b = float(s[m - 1]), float(s[m])
    # where the sum of two finite values overflows, halving them is exact
    return (a + b) / 2 if math.isfinite(a + b) else a / 2 + b / 2


def _modular_verdict(prog: _Program, seed: int) -> bool | None:
    """Whether prog computes the zero function, by running it mod _MODULUS
    at random points, function applications as opaque atoms: True when
    _MODULAR_POINTS points all give 0, False at the first nonzero value
    (which proves prog nonzero only when prog.rational), None when too many
    points hit a zero denominator (or a constant has no inverse mod p)."""
    try:
        consts = [
            c.numerator * pow(c.denominator, -1, _MODULUS) % _MODULUS
            if isinstance(c, Fraction) else c
            for c in prog.exact
        ]
    except ValueError:
        return None
    rng = Stream(seed)
    zeros = 0
    for _ in range(_MODULAR_POINTS + _MODULAR_REDRAWS):
        point = rng.integers(_MODULUS, len(prog.vars))
        try:
            value = _execute(prog, _MODP, point, consts=consts)
        except ValueError:  # a zero denominator: draw the next point
            continue
        if value:
            return False
        zeros += 1
        if zeros == _MODULAR_POINTS:
            return True
    return None


def is_identically_zero(
    e: Expr,
    box: Sequence[tuple[float, float]],
    vars: Sequence[str],
    policy: ZeroPolicy = ZeroPolicy(),
) -> ZeroCheck:
    """Decide whether e vanishes identically on the box.

    The modular test proves e zero when it evaluates to 0 mod p = 2^61 - 1
    at 8 random points, each function application an opaque atom (error at
    most (deg/p)^8, the atoms counted as variables).  In the rational
    fragment a nonzero value proves e nonzero too, and rel_tol plays no
    part.  Outside it a nonzero value proves nothing (sin(x)^2 + cos(x)^2 - 1
    is nonzero mod p), so uniform samples decide, as they do when too many
    drawn points hit a zero denominator: the function is declared zero when
    |e| < rel_tol * max(local scale, scale) at every valid sample.  The
    scales come from e's own program run with each register paired with an
    absolute-value scale (see _PAIRED): the sum of |monomial-like subterms|
    of e as written, at the sample itself (local) and as a median over 64
    auxiliary samples (scale).  One paired pass over the samples and one
    over the auxiliary samples give every value and scale.

    A nonzero verdict carries a witness: the sample of largest |e| among
    those above their threshold, or among all samples when the modular test
    proved e nonzero but no sample exceeds its threshold.
    """
    if policy.samples < 1:
        raise ValueError("samples must be >= 1")
    names = tuple(vars)
    prog = _program(e, names)
    modular = _modular_verdict(prog, policy.seed)
    if modular:
        return ZeroCheck(is_zero=True, route=MODULAR)
    exact = modular is False and prog.rational  # proven nonzero
    rng = Stream(policy.seed)
    cols = [rng.uniform(lo, hi, size=policy.samples) for lo, hi in box]
    aux_cols = [rng.uniform(lo, hi, size=64) for lo, hi in box]

    raw_vals, raw_surr = map(np.atleast_1d, _paired_batch(prog, cols))
    ok = np.isfinite(raw_vals)
    if not np.any(ok):
        raise UndeterminableOnBox(f"all {policy.samples} samples hit domain errors for `{to_string(e)}`")
    valid_fraction = float(np.count_nonzero(ok)) / policy.samples
    idx = np.flatnonzero(ok)
    values = [float(raw_vals[i]) for i in idx]
    points = [
        {n: float(c[i]) for n, c in zip(names, cols)} for i in idx
    ]
    local_scales = [
        float(raw_surr[i]) if np.isfinite(raw_surr[i]) else 0.0 for i in idx
    ]

    aux_surr = np.atleast_1d(_paired_batch(prog, aux_cols)[1])
    aux_ok = aux_surr[np.isfinite(aux_surr)]
    scale = median(aux_ok) if aux_ok.size else 0.0

    # per-point threshold: the global median scale floors the local
    # cancellation scale, so noise amplified near singular loci of the
    # expression cannot masquerade as a nonzero witness
    thresholds = policy.rel_tol * np.maximum(np.asarray(local_scales), scale)
    abs_vals = np.abs(values)
    exceed = abs_vals > thresholds
    if not np.any(exceed):
        if not exact:
            return ZeroCheck(
                is_zero=True,
                valid_fraction=valid_fraction,
                sampled_points=tuple(points),
                sampled_values=tuple(values),
            )
        exceed = np.ones_like(exceed)  # exactly nonzero, below tolerance everywhere
    # witness: the largest |e| among samples that exceed their threshold
    magnitudes = np.where(exceed, abs_vals, -np.inf)
    imax = int(np.argmax(magnitudes))
    return ZeroCheck(
        is_zero=False,
        witness_point=points[imax],
        witness_value=float(values[imax]),
        valid_fraction=valid_fraction,
        sampled_points=tuple(points),
        sampled_values=tuple(values),
        route=MODULAR if exact else SAMPLED,
    )
