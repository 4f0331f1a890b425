"""Expression trees: parsing, exact differentiation, simplification, evaluation.

Expressions are immutable trees over named real variables with exact rational
constants.  Simplification normalizes to a rational normal form (polynomial
numerator/denominator over "atoms": variables and irreducible function
applications) with Fraction coefficients; the rewrite system is bounded, so a
sampling fallback (`is_identically_zero`) remains the authority for
vanishing decisions on a box.

One evaluator serves every entry point: an expression is compiled once into
a straight-line program over its DAG, run with a scalar op table (`evaluate`,
`compile_scalar`: DomainError off the domain) or a numpy one (`compile_batch`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

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
    "is_identically_zero",
]

CALLABLE_FUNCS = ("sin", "cos", "exp", "log", "sqrt")

# Bounds on the canonicalizer; beyond these a subtree is kept structural and
# zero-decisions fall back to sampling.
_MAX_TERMS = 600
_MAX_POW = 64
_MAX_MUL_WORK = 8_000


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


class _NonCanonical(Exception):
    """Internal: subtree cannot be put in rational normal form (zero
    denominator or size caps exceeded)."""


@dataclass(frozen=True)
class Expr:
    """Immutable expression node.

    op is one of: 'const', 'var', the unary ops, or the binary ops.  Constants
    carry an exact Fraction payload; variables carry a name.
    """

    op: str
    args: tuple["Expr", ...] = ()
    value: Fraction | None = None
    name: str | None = None

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

    def __post_init__(self):
        # computed once from the children's cached hashes, so hashing never
        # recurses, however deep the tree; the memo tables hash heavily
        object.__setattr__(self, "_hash", hash((self.op, self.args, self.value, self.name)))

    def __hash__(self):
        return self._hash


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


def is_zero_const(e: Expr) -> bool:
    return e.op == "const" and e.value == 0


def free_vars(e: Expr) -> frozenset[str]:
    if e.op == "var":
        return frozenset((e.name,))
    if e.op == "const":
        return frozenset()
    out: frozenset[str] = frozenset()
    for a in e.args:
        out |= free_vars(a)
    return out


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    if e.op == "var":
        return replacement if e.name == name else e
    if e.op == "const":
        return e
    return Expr(e.op, tuple(substitute(a, name, replacement) for a in e.args))


# ---------------------------------------------------------------------------
# Tokenizer / parser.  Grammar (see GRAMMAR.md):
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' unary)?            # right-associative
#   atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'
# Unary minus binds below '^', so -x^2 parses as -(x^2).
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


class _Parser:
    def __init__(self, text: str):
        if not text.isascii():
            raise ParseError("input must be ASCII", 0)
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok is None or tok[0] != kind:
            off = tok[2] if tok else len(self.text)
            raise ParseError(f"expected {kind!r}", off)
        return self.next()

    def parse(self) -> Expr:
        if not self.tokens:
            raise ParseError("empty input", 0)
        e = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while (tok := self.peek()) and tok[0] in "+-":
            self.next()
            rhs = self.term()
            e = Expr("add" if tok[0] == "+" else "sub", (e, rhs))
        return e

    def term(self) -> Expr:
        e = self.unary()
        while (tok := self.peek()) and tok[0] in "*/":
            self.next()
            rhs = self.unary()
            e = Expr("mul" if tok[0] == "*" else "div", (e, rhs))
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok and tok[0] == "-":
            self.next()
            return Expr("neg", (self.unary(),))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "^":
            self.next()
            exponent = self.unary()
            return Expr("pow", (base, exponent))
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected operand", len(self.text))
        kind, textval, off = tok
        if kind == "num":
            self.next()
            return const(Fraction(textval))
        if kind == "ident":
            self.next()
            nxt = self.peek()
            if nxt and nxt[0] == "(":
                if textval not in CALLABLE_FUNCS:
                    raise ParseError(f"unknown function {textval!r}", off)
                self.next()
                arg = self.expr()
                self.expect(")")
                return Expr(textval, (arg,))
            return var(textval)
        if kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"expected operand, found {textval!r}", off)


def parse(text: str) -> Expr:
    """Parse an infix expression.  Raises ParseError with a byte offset."""
    return _Parser(text).parse()


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


def to_string(e: Expr) -> str:
    if e.op == "const":
        v = e.value
        if v < 0:
            return "-" + _frac_str(-v)
        return _frac_str(v)
    if e.op == "var":
        return e.name
    if e.op == "neg":
        inner = to_string(e.args[0])
        if _prec(e.args[0]) < _PREC["neg"]:
            inner = f"({inner})"
        return "-" + inner
    if e.op in CALLABLE_FUNCS:
        return f"{e.op}({to_string(e.args[0])})"
    a, b = e.args
    # render a + (-b) as a - b
    if e.op == "add" and b.op == "neg":
        e = Expr("sub", (a, b.args[0]))
        a, b = e.args
    sa, sb = to_string(a), to_string(b)
    p = _PREC[e.op]
    # left operand: parenthesize strictly lower precedence; pow is
    # right-associative so an equal-precedence left child needs parens too
    if _prec(a) < p or (e.op == "pow" and _prec(a) == p):
        sa = f"({sa})"
    # right operand of -,/ needs parens at equal precedence
    if _prec(b) < p or (e.op in ("sub", "div") and _prec(b) == p):
        sb = f"({sb})"
    sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/", "pow": "^"}[e.op]
    return f"{sa}{sym}{sb}"


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
_OPCODES = ("add", "sub", "mul", "div", "pow", "powi", "neg", "sin", "cos", "exp", "log", "sqrt")
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

# ... numpy gives non-finite entries instead.
_BATCH = (
    operator.add, operator.sub, operator.mul, np.true_divide,
    lambda a, b: np.power(np.asarray(a, dtype=np.float64), b),
    lambda a, k: np.power(a, k, dtype=np.float64),
    np.negative, np.sin, np.cos, np.exp, np.log, np.sqrt,
)


@dataclass(frozen=True)
class _Program:
    vars: tuple[str, ...]  # input registers 0 .. len(vars) - 1
    consts: tuple  # preloaded into the registers after the inputs
    ntemps: int  # registers for intermediate values, reused once dead
    code: tuple  # (opcode, dst, a, b, node); b < 0 for a unary op
    out: int


@lru_cache(maxsize=4096)
def _program(e: Expr, var_order: tuple[str, ...]) -> _Program:
    """Compile e for inputs in var_order (KeyError for a variable outside
    it).  The walk is iterative, so the depth of e does not matter."""
    number: dict = {}  # structural key -> (value number, node), topologically
    seen: dict[int, int] = {}  # id(node) -> value number
    # post-order, left operand first: instructions run in the order a tree
    # walk evaluates them, so the first one to fail is the same
    stack = [e]
    while stack:
        node = stack[-1]
        op, args = node.op, node.args
        if op == "pow" and args[1].op == "const" and args[1].value.denominator == 1:
            op, args = "powi", args[:1]
        pending = [a for a in reversed(args) if id(a) not in seen]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if op in ("const", "var"):
            key = (op, node.value if op == "const" else node.name)
        elif op == "powi":
            k = ("int", node.args[1].value.numerator)
            key = (op, seen[id(args[0])], number.setdefault(k, (len(number), None))[0])
        else:
            key = (op, *(seen[id(a)] for a in args))
        seen[id(node)] = number.setdefault(key, (len(number), node))[0]

    # registers: inputs, constants, then temporaries; a temporary is freed
    # after its last use and taken again by the next instruction
    index = {name: i for i, name in enumerate(var_order)}
    reg = [0] * len(number)
    consts: list = []
    last_use = {}
    for n, (kind, *operands) in enumerate(number):
        if kind == "var":
            reg[n] = index[operands[0]]
        elif kind in _LEAVES:
            reg[n] = len(var_order) + len(consts)
            consts.append(float(operands[0]) if kind == "const" else operands[0])
        else:
            last_use.update((m, n) for m in operands)
    base = len(var_order) + len(consts)
    free: list[int] = []
    ntemps = 0
    code = []
    for n, ((kind, *operands), (_, node)) in enumerate(number.items()):
        if kind in _LEAVES:
            continue
        free += {reg[m] for m in operands if last_use[m] == n and reg[m] >= base}
        if not free:
            free.append(base + ntemps)
            ntemps += 1
        reg[n] = free.pop()
        b = reg[operands[1]] if len(operands) > 1 else -1
        code.append((_OPCODES.index(kind), reg[n], reg[operands[0]], b, node))
    return _Program(var_order, tuple(consts), ntemps, tuple(code), reg[seen[id(e)]])


def _execute(prog: _Program, table: tuple, regs: list, point=None):
    """Run prog with an op table on the input registers regs and return the
    output register.  With the scalar table, an instruction that leaves its
    domain raises DomainError at point (default: the inputs)."""
    if len(regs) != len(prog.vars):
        raise TypeError(f"expected {len(prog.vars)} inputs, got {len(regs)}")
    regs += prog.consts
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
    together; the result has their broadcast shape.

    Domain violations surface as non-finite entries; the caller decides
    whether those are errors (see FunctionSpec.evaluate_batch)."""
    prog = _program(e, var_order)

    def run(*arrays: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            out = np.asarray(_execute(prog, _BATCH, list(arrays)), dtype=np.float64)
        if arrays:
            shape = np.broadcast(*(np.asarray(a) for a in arrays)).shape
            if out.shape != shape:
                out = np.broadcast_to(out, shape).copy()
        return out

    return run


# ---------------------------------------------------------------------------
# Differentiation.  Results are simplified; non-integer powers are rewritten
# through exp/log (side condition: positive base, see domain_notes).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def differentiate(e: Expr, v: str) -> Expr:
    fast = _poly_diff(e, v)
    if fast is not None:
        return fast
    return simplify(_diff(e, v))


def _poly_diff(e: Expr, v: str) -> Expr | None:
    """Term-wise derivative for expressions that canonicalize to a polynomial
    over plain variables (constant denominator); None when inapplicable."""
    try:
        n, d = _canonical(e)
    except _NonCanonical:
        return None
    dc = _poly_const(d)
    if dc is None or dc == 0:
        return None
    for m in n:
        for atom, _ in m:
            if atom.op != "var":
                return None
    out: dict = {}
    for m, c in n.items():
        for i, (atom, k) in enumerate(m):
            if atom.name != v:
                continue
            if k == 1:
                nm = m[:i] + m[i + 1 :]
            else:
                nm = m[:i] + ((atom, k - 1),) + m[i + 1 :]
            nc = out.get(nm, Fraction(0)) + c * k
            if nc == 0:
                out.pop(nm, None)
            else:
                out[nm] = nc
    if dc != 1:
        out = _poly_scale(out, Fraction(1) / dc)
    return _poly_to_expr(out)


def _diff(e: Expr, v: str) -> Expr:
    op = e.op
    if op == "const":
        return _ZERO
    if op == "var":
        return _ONE if e.name == v else _ZERO
    if op == "neg":
        return Expr("neg", (_diff(e.args[0], v),))
    if op in ("add", "sub"):
        return Expr(op, (_diff(e.args[0], v), _diff(e.args[1], v)))
    if op == "mul":
        u, w = e.args
        return _diff(u, v) * w + u * _diff(w, v)
    if op == "div":
        u, w = e.args
        return (_diff(u, v) * w - u * _diff(w, v)) / (w * w)
    if op == "pow":
        u, p = e.args
        if p.op == "const" and p.value.denominator == 1:
            k = p.value.numerator
            if k == 0:
                return _ZERO
            return const(k) * Expr("pow", (u, const(k - 1))) * _diff(u, v)
        # a^b with non-integer b: a^b = exp(b*log(a)), valid for a > 0
        rewritten = Expr("exp", (p * Expr("log", (u,)),))
        return _diff(rewritten, v)
    if op == "sin":
        return Expr("cos", (e.args[0],)) * _diff(e.args[0], v)
    if op == "cos":
        return Expr("neg", (Expr("sin", (e.args[0],)) * _diff(e.args[0], v),))
    if op == "exp":
        return e * _diff(e.args[0], v)
    if op == "log":
        return _diff(e.args[0], v) / e.args[0]
    if op == "sqrt":
        return _diff(e.args[0], v) / (const(2) * e)
    raise ExprError(f"unknown op {op!r}")


def domain_notes(e: Expr) -> list[str]:
    """Side conditions under which the expression is defined: denominators,
    log/sqrt arguments, non-integer power bases."""
    notes: list[str] = []

    def walk(node: Expr):
        if node.op == "div":
            notes.append(f"{to_string(node.args[1])} != 0")
        elif node.op == "log":
            notes.append(f"{to_string(node.args[0])} > 0")
        elif node.op == "sqrt":
            notes.append(f"{to_string(node.args[0])} >= 0")
        elif node.op == "pow":
            p = node.args[1]
            if not (p.op == "const" and p.value.denominator == 1):
                notes.append(f"{to_string(node.args[0])} > 0")
        for a in node.args:
            walk(a)

    walk(e)
    return list(dict.fromkeys(notes))


# ---------------------------------------------------------------------------
# Simplification via rational normal form.
#
# A polynomial is a dict {monomial: Fraction}; a monomial is a sorted tuple of
# (atom, positive int exponent).  Atoms are variables and function
# applications whose arguments are themselves simplified.  Every expression
# canonicalizes to a (numerator, denominator) pair of polynomials; no
# polynomial GCDs are computed (bounded rewriting).
# ---------------------------------------------------------------------------

_Poly = dict
_POLY_ONE = {(): Fraction(1)}


@lru_cache(maxsize=None)
def _expr_key(e: Expr):
    if e.op == "const":
        return ("const", str(e.value), ())
    if e.op == "var":
        return ("var", e.name, ())
    return (e.op, "", tuple(_expr_key(a) for a in e.args))


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = {}
    for a, k in m1:
        d[a] = k
    for a, k in m2:
        d[a] = d.get(a, 0) + k
    return tuple(sorted(d.items(), key=lambda ak: _expr_key(ak[0])))


def _poly_add(p1, p2, sign=1):
    out = dict(p1)
    for m, c in p2.items():
        nc = out.get(m, Fraction(0)) + sign * c
        if nc == 0:
            out.pop(m, None)
        else:
            out[m] = nc
    return out


def _poly_mul(p1, p2):
    if len(p1) * len(p2) > _MAX_MUL_WORK:
        raise _NonCanonical
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = _mono_mul(m1, m2)
            nc = out.get(m, Fraction(0)) + c1 * c2
            if nc == 0:
                out.pop(m, None)
            else:
                out[m] = nc
    if len(out) > _MAX_TERMS:
        raise _NonCanonical
    return out


def _poly_pow(p, k: int):
    result = dict(_POLY_ONE)
    base = p
    while k:
        if k & 1:
            result = _poly_mul(result, base)
        k >>= 1
        if k:
            base = _poly_mul(base, base)
    return result


def _poly_scale(p, c: Fraction):
    if c == 0:
        return {}
    return {m: coeff * c for m, coeff in p.items()}


def _poly_const(p):
    """The Fraction if p is a constant polynomial, else None."""
    if not p:
        return Fraction(0)
    if len(p) == 1 and () in p:
        return p[()]
    return None


_canon_memo: dict = {}
_CANON_FAILED = object()


def _canonical(e: Expr):
    """Memoized rational normal form; failures are cached too."""
    hit = _canon_memo.get(e)
    if hit is not None:
        if hit is _CANON_FAILED:
            raise _NonCanonical
        return hit
    try:
        res = _canonical_impl(e)
    except _NonCanonical:
        _canon_memo[e] = _CANON_FAILED
        raise
    _canon_memo[e] = res
    return res


def _canonical_impl(e: Expr):
    """Return (num, den) polynomial pair.  Raises _NonCanonical on caps or a
    symbolically zero denominator."""
    op = e.op
    if op == "const":
        return {(): e.value} if e.value != 0 else {}, dict(_POLY_ONE)
    if op == "var":
        return {((e, 1),): Fraction(1)}, dict(_POLY_ONE)
    if op == "neg":
        n, d = _canonical(e.args[0])
        return _poly_scale(n, Fraction(-1)), d
    if op in ("add", "sub"):
        n1, d1 = _canonical(e.args[0])
        n2, d2 = _canonical(e.args[1])
        sign = 1 if op == "add" else -1
        if d1 == d2:
            return _poly_add(n1, n2, sign), d1
        return _poly_add(_poly_mul(n1, d2), _poly_mul(n2, d1), sign), _poly_mul(d1, d2)
    if op == "mul":
        n1, d1 = _canonical(e.args[0])
        n2, d2 = _canonical(e.args[1])
        return _poly_mul(n1, n2), _poly_mul(d1, d2)
    if op == "div":
        n1, d1 = _canonical(e.args[0])
        n2, d2 = _canonical(e.args[1])
        if not n2:
            raise _NonCanonical  # division by symbolic zero
        return _poly_mul(n1, d2), _poly_mul(d1, n2)
    if op == "pow":
        base, p = e.args
        if p.op != "const":
            p = simplify(p)
        if p.op == "const" and p.value.denominator == 1:
            k = p.value.numerator
            if abs(k) > _MAX_POW:
                raise _NonCanonical
            n, d = _canonical(base)
            if k == 0:
                return dict(_POLY_ONE), dict(_POLY_ONE)
            if k > 0:
                return _poly_pow(n, k), _poly_pow(d, k)
            if not n:
                raise _NonCanonical
            return _poly_pow(d, -k), _poly_pow(n, -k)
        atom = Expr("pow", (simplify(base), p))
        return {((atom, 1),): Fraction(1)}, dict(_POLY_ONE)
    if op in CALLABLE_FUNCS:
        arg = simplify(e.args[0])
        folded = _fold_func(op, arg)
        if folded is not None:
            return _canonical(folded)
        atom = Expr(op, (arg,))
        return {((atom, 1),): Fraction(1)}, dict(_POLY_ONE)
    raise ExprError(f"unknown op {op!r}")


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


def _mono_sort_key(m):
    return (sum(k for _, k in m), tuple((_expr_key(a), k) for a, k in m))


def _poly_to_expr(p) -> Expr:
    if not p:
        return _ZERO
    if len(p) == 1 and () in p:
        return const(p[()])
    terms = sorted(p.items(), key=lambda mc: _mono_sort_key(mc[0]))
    signed: list[Expr] = []
    for m, c in terms:
        factors: list[Expr] = []
        for a, k in m:
            factors.append(a if k == 1 else Expr("pow", (a, const(k))))
        coeff = abs(c)
        term: Expr | None = None
        if coeff != 1 or not factors:
            term = const(coeff)
        for fct in factors:
            term = fct if term is None else term * fct
        signed.append(Expr("neg", (term,)) if c < 0 else term)
    # balanced reduction keeps the tree depth logarithmic in the term count
    while len(signed) > 1:
        nxt = [
            Expr("add", (signed[i], signed[i + 1])) if i + 1 < len(signed) else signed[i]
            for i in range(0, len(signed), 2)
        ]
        signed = nxt
    return signed[0]


def _rebuild(n, d) -> Expr:
    dc = _poly_const(d)
    if dc is not None:
        if dc == 0:
            raise _NonCanonical
        return _poly_to_expr(_poly_scale(n, Fraction(1) / dc))
    # normalize so the denominator's leading coefficient is 1
    lead = min(d.items(), key=lambda mc: _mono_sort_key(mc[0]))[1]
    n = _poly_scale(n, Fraction(1) / lead)
    d = _poly_scale(d, Fraction(1) / lead)
    if not n:
        return _ZERO
    return Expr("div", (_poly_to_expr(n), _poly_to_expr(d)))


@lru_cache(maxsize=None)
def simplify(e: Expr) -> Expr:
    """Bounded rewriting to a canonical rational form.

    Idempotent; simplify(a - b) is the zero constant whenever a and b
    canonicalize identically.  Falls back to local folds when caps are hit."""
    try:
        n, d = _canonical(e)
        return _rebuild(n, d)
    except _NonCanonical:
        return _fallback_simplify(e)


def _fallback_simplify(e: Expr) -> Expr:
    if e.op in ("const", "var"):
        return e
    args = tuple(simplify(a) for a in e.args)
    op = e.op
    if op == "neg":
        (a,) = args
        if a.op == "const":
            return const(-a.value)
        if a.op == "neg":
            return a.args[0]
        return Expr("neg", args)
    if op in ("add", "sub"):
        a, b = args
        if is_zero_const(b):
            return a
        if is_zero_const(a):
            return b if op == "add" else Expr("neg", (b,))
        if a == b and op == "sub":
            return _ZERO
        if a.op == "const" and b.op == "const":
            return const(a.value + b.value if op == "add" else a.value - b.value)
        return Expr(op, args)
    if op == "mul":
        a, b = args
        if is_zero_const(a) or is_zero_const(b):
            return _ZERO
        if a.op == "const" and a.value == 1:
            return b
        if b.op == "const" and b.value == 1:
            return a
        if a.op == "const" and b.op == "const":
            return const(a.value * b.value)
        return Expr(op, args)
    if op == "div":
        a, b = args
        if is_zero_const(a) and not is_zero_const(b):
            return _ZERO
        if b.op == "const" and b.value == 1:
            return a
        if a.op == "const" and b.op == "const" and b.value != 0:
            return const(a.value / b.value)
        return Expr(op, args)
    if op == "pow":
        a, b = args
        if b.op == "const" and b.value == 0:
            return _ONE
        if b.op == "const" and b.value == 1:
            return a
        return Expr(op, args)
    if op in CALLABLE_FUNCS:
        folded = _fold_func(op, args[0])
        if folded is not None:
            return folded
        return Expr(op, args)
    return Expr(op, args)


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

    def evaluate_batch(self, arrays: Sequence[np.ndarray], check: bool = True) -> np.ndarray:
        out = compile_batch(self.expr, self.vars)(*[np.asarray(a, dtype=np.float64) for a in arrays])
        if check and not np.all(np.isfinite(out)):
            bad = np.unravel_index(np.argmax(~np.isfinite(out)), np.shape(out))
            pt = {v: float(np.broadcast_to(a, np.shape(out))[bad]) for v, a in zip(self.vars, arrays)}
            raise DomainError("non-finite value in batch evaluation", to_string(self.expr), pt)
        return out

    def sample_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform points in the box, shape (n, arity)."""
        cols = [rng.uniform(lo, hi, size=n) for lo, hi in self.box]
        return np.column_stack(cols)

    def contains(self, point: Sequence[float]) -> bool:
        return all(lo <= p <= hi for p, (lo, hi) in zip(point, self.box))

    def widths(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in self.box)

    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * (lo + hi) for lo, hi in self.box)


# ---------------------------------------------------------------------------
# Probabilistic zero test.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroPolicy:
    symbolic_first: bool = True
    samples: int = 64
    rel_tol: float = 1e-9
    seed: int = 0


@dataclass(frozen=True)
class ZeroCheck:
    """Outcome of is_identically_zero: either Zero or a nonzero witness."""

    is_zero: bool
    symbolic: bool = False
    witness_point: dict | None = None
    witness_value: float | None = None
    valid_fraction: float = 1.0
    # sampled values kept for status reporting (empty on the symbolic route)
    sampled_points: tuple = ()
    sampled_values: tuple = ()


@lru_cache(maxsize=None)
def _surrogate_expr(e: Expr) -> Expr:
    """Absolute-value surrogate: sums of |monomial-like subterms| of the
    unsimplified expression; the scale against which 'zero' is judged.
    Absolute values are encoded as sqrt(u^2) to stay in the grammar."""
    op = e.op
    if op == "const":
        return const(abs(e.value))
    if op == "var":
        return Expr("sqrt", (Expr("pow", (e, const(2))),))
    if op == "neg":
        return _surrogate_expr(e.args[0])
    if op in ("add", "sub", "mul", "div"):
        return Expr("add" if op == "sub" else op, tuple(_surrogate_expr(a) for a in e.args))
    if op == "pow":
        p = e.args[1]
        if p.op == "const" and p.value.denominator == 1:
            k = p.value.numerator
            base = _surrogate_expr(e.args[0])
            if k >= 0:
                return Expr("pow", (base, const(k)))
            return Expr("div", (_ONE, Expr("pow", (base, const(-k)))))
        return e  # general power: positive where defined
    # function application: |f(arg)| with the original argument
    return Expr("sqrt", (Expr("pow", (e, const(2))),))


def is_identically_zero(
    e: Expr,
    box: Sequence[tuple[float, float]],
    vars: Sequence[str],
    policy: ZeroPolicy = ZeroPolicy(),
) -> ZeroCheck:
    """Decide whether e vanishes identically on the box.

    Symbolic simplification is authoritative when it reaches the zero
    constant.  Otherwise uniform samples decide: the function is declared
    zero when |e| < rel_tol * scale everywhere, with scale the median of an
    absolute-value surrogate over auxiliary samples.  Returns a witness at
    the sample of largest |e| otherwise.
    """
    if policy.samples < 1:
        raise ValueError("samples must be >= 1")
    if policy.symbolic_first:
        s = simplify(e)
        if is_zero_const(s):
            return ZeroCheck(is_zero=True, symbolic=True)
    rng = np.random.default_rng(policy.seed)
    names = tuple(vars)
    cols = [rng.uniform(lo, hi, size=policy.samples) for lo, hi in box]
    aux_cols = [rng.uniform(lo, hi, size=64) for lo, hi in box]

    fn = compile_batch(e, names)
    surr_fn = compile_batch(_surrogate_expr(e), names)
    raw_vals = np.atleast_1d(fn(*cols))
    raw_surr = np.atleast_1d(surr_fn(*cols))
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

    aux_surr = np.atleast_1d(surr_fn(*aux_cols))
    aux_ok = aux_surr[np.isfinite(aux_surr)]
    scale = float(np.median(aux_ok)) if aux_ok.size else 0.0

    # per-point threshold: the global median scale floors the local
    # cancellation scale, so noise amplified near singular loci of the
    # expression cannot masquerade as a nonzero witness
    thresholds = policy.rel_tol * np.maximum(np.asarray(local_scales), scale)
    abs_vals = np.abs(values)
    exceed = abs_vals > thresholds
    if not np.any(exceed):
        return ZeroCheck(
            is_zero=True,
            symbolic=False,
            valid_fraction=valid_fraction,
            sampled_points=tuple(points),
            sampled_values=tuple(values),
        )
    # witness: the largest |e| among samples that exceed their threshold
    magnitudes = np.where(exceed, abs_vals, -np.inf)
    imax = int(np.argmax(magnitudes))
    return ZeroCheck(
        is_zero=False,
        symbolic=False,
        witness_point=points[imax],
        witness_value=float(values[imax]),
        valid_fraction=valid_fraction,
        sampled_points=tuple(points),
        sampled_values=tuple(values),
    )
