"""Degeneracy certificates and classification of smooth functions.

For a bivariate f the certificate chain is

    rho   = f_x * f_y / f_xy          (defined where f_xy != 0)
    kappa = f_x * rho_y - f_y * rho_x (the gradient wedge of f and rho)

and f is a special form g(h(x)+k(y)) on the box exactly when one of f_x,
f_y, f_xy or kappa vanishes identically.  For a trivariate f the three
certificates

    G1 = f3*f12 - f13*f2
    G2 = f3*f12 - f23*f1
    G3 = f1*f23 - f13*f2

vanish identically simultaneously exactly when f is a special form
g(h(x)+k(y)+l(z)).  The incidence-relation matrices built here (mixed
Hessians, the bordered block matrix J over two copies of the domain, the
Monge-Ampere matrix) turn corank conditions along {f(x) = f(y)} into
checkable linear algebra; for a trivariate f the determinant of the block
matrix factors through the per-point certificates: det J_i = -G_i(x)G_i(y).

Exact dimensional thresholds for the associated expansion / positive-measure
/ nonempty-interior statements are produced by `thresholds` in rational
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    PreconditionError,
    RankDeficientError,
    ZSamplingError,
)
from .expr import (
    DomainError,
    Expr,
    SAMPLED,
    FunctionSpec,
    UndeterminableOnBox,
    ZeroCheck,
    ZeroPolicy,
    compile_batch,
    compile_scalar,
    const,
    differentiate,
    evaluate,
    free_vars,
    is_identically_zero,
    simplify,
    substitute,
    var,
    _add,
    _div,
    _mul,
    _sub,
)
from .jsonutil import jsonable, rational
from .sampling import Stream

__all__ = [
    "AdditiveDegeneracyError",
    "CertificateStatus",
    "DegeneracyReport",
    "ExprMatrix",
    "GammaCheck",
    "SurfaceDistanceCheck",
    "ThresholdReport",
    "assemble_J",
    "aux_trivariate",
    "classify",
    "gamma_nondegenerate",
    "kappa",
    "mixed_hessian",
    "monge_ampere",
    "numeric_corank",
    "rho",
    "surface_distance_check",
    "thresholds",
    "trivariate_J",
    "two_point_J",
    "THEOREMS",
]

SPECIAL_FORM = "special_form"
EXPANDING = "expanding"
INCONCLUSIVE = "inconclusive"

PRIME_SUFFIX = "'"

_RANK_TOL = 1e-9  # singular values below tol*sigma_max count as zero


class AdditiveDegeneracyError(PreconditionError):
    """f_xy vanishes identically: f is additively separable on the box, so
    rho/kappa are undefined and the caller should classify directly."""


# ---------------------------------------------------------------------------
# Scalar certificates
# ---------------------------------------------------------------------------


def _require_arity(f: FunctionSpec, n: int):
    if f.arity != n:
        raise ValueError(f"expected a function of {n} variables, got {f.arity}")


def rho(f: FunctionSpec, policy: ZeroPolicy = ZeroPolicy()) -> Expr:
    """f_x*f_y/f_xy, folded by simplify (no normal form: decide identities
    with is_identically_zero).  Singular locus: {f_xy = 0}."""
    _require_arity(f, 2)
    fx, fy = f.partial(0), f.partial(1)
    fxy = differentiate(fx, f.vars[1])
    if is_identically_zero(fxy, f.box, f.vars, policy).is_zero:
        raise AdditiveDegeneracyError(
            "mixed partial f_xy vanishes identically on the box (additively separable)"
        )
    return simplify(fx * fy / fxy)


def kappa(f: FunctionSpec, policy: ZeroPolicy = ZeroPolicy()) -> Expr:
    """Gradient wedge of f against rho: f_x*rho_y - f_y*rho_x, built with
    the folding constructors of differentiate (0, 1 and constant-by-constant
    operations fold; is_identically_zero decides whether it vanishes).

    Built from the expanded quotient rule (all derivatives taken of f
    itself), which keeps the tree compact:

        rho_y = ((f_xy f_y + f_x f_yy) f_xy - f_x f_y f_xyy) / f_xy^2
        rho_x = ((f_xx f_y + f_x f_xy) f_xy - f_x f_y f_xxy) / f_xy^2

    Only its zero set matters for classification."""
    _require_arity(f, 2)
    fx, fy = f.partial(0), f.partial(1)
    fxy = differentiate(fx, f.vars[1])
    if is_identically_zero(fxy, f.box, f.vars, policy).is_zero:
        raise AdditiveDegeneracyError(
            "mixed partial f_xy vanishes identically on the box (additively separable)"
        )
    return _kappa(f, fx, fy, fxy)


def _kappa(f: FunctionSpec, fx: Expr, fy: Expr, fxy: Expr) -> Expr:
    """kappa from f's partials f_x, f_y and f_xy, with no zero test of f_xy
    (the caller has decided it)."""
    x, y = f.vars
    fxx = differentiate(fx, x)
    fyy = differentiate(fy, y)
    fxxy = differentiate(fxy, x)
    fxyy = differentiate(fxy, y)
    fxfy = _mul(fx, fy)
    num_ry = _sub(_mul(_add(_mul(fxy, fy), _mul(fx, fyy)), fxy), _mul(fxfy, fxyy))
    num_rx = _sub(_mul(_add(_mul(fxx, fy), _mul(fx, fxy)), fxy), _mul(fxfy, fxxy))
    return _div(_sub(_mul(fx, num_ry), _mul(fy, num_rx)), _mul(fxy, fxy))


def aux_trivariate(f: FunctionSpec) -> tuple[Expr, Expr, Expr]:
    """The three trivariate certificates (G1, G2, G3), built with the
    folding constructors, not simplified."""
    _require_arity(f, 3)
    f1, f2, f3 = (f.partial(i) for i in range(3))
    f12 = f.partial2(0, 1)
    f13 = f.partial2(0, 2)
    f23 = f.partial2(1, 2)
    f3f12, f13f2 = _mul(f3, f12), _mul(f13, f2)
    return (_sub(f3f12, f13f2), _sub(f3f12, _mul(f23, f1)), _sub(_mul(f1, f23), f13f2))


# ---------------------------------------------------------------------------
# Expression matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExprMatrix:
    """Rectangular matrix of expressions over an explicit variable order
    (possibly spanning two copies of a domain, the second copy primed)."""

    entries: tuple[tuple[Expr, ...], ...]
    var_order: tuple[str, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty matrix")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise ValueError("ragged matrix")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0])

    def evaluate(self, point: Mapping[str, float]) -> np.ndarray:
        args = tuple(float(point[v]) for v in self.var_order)
        out = np.empty(self.shape, dtype=np.float64)
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                out[i, j] = compile_scalar(e, self.var_order)(*args)
        return out

    def det_expr(self) -> Expr:
        """Symbolic determinant by cofactor expansion (small matrices only),
        folded by simplify, which drops the terms of J's zero blocks."""
        r, c = self.shape
        if r != c:
            raise ValueError("determinant of a non-square matrix")
        if r > 6:
            raise ValueError("symbolic determinant limited to 6x6")
        return simplify(_cofactor_det(self.entries))


def _cofactor_det(rows: tuple[tuple[Expr, ...], ...]) -> Expr:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total: Expr | None = None
    for j in range(n):
        minor = tuple(tuple(row[k] for k in range(n) if k != j) for row in rows[1:])
        term = rows[0][j] * _cofactor_det(minor)
        if j % 2 == 1:
            term = Expr("neg", (term,))
        total = term if total is None else total + term
    return total


def _check_groups(phi: FunctionSpec, groups: Sequence[Sequence[str]]):
    flat = [v for g in groups for v in g]
    if sorted(flat) != sorted(phi.vars):
        raise ValueError("groups must partition the declared variables")
    if any(len(g) == 0 for g in groups):
        raise ValueError("empty variable group")


def mixed_hessian(
    phi: FunctionSpec, groups: Sequence[Sequence[str]], E: Iterable[int], F: Iterable[int]
) -> ExprMatrix:
    """Second partials across the E-variables (rows) and F-variables (cols)."""
    _check_groups(phi, groups)
    E, F = sorted(set(E)), sorted(set(F))
    if not E or not F:
        raise ValueError("E and F must be nonempty")
    if set(E) & set(F):
        raise ValueError("E and F must be disjoint")
    rows_v = [v for i in E for v in groups[i]]
    cols_v = [v for j in F for v in groups[j]]
    entries = tuple(
        tuple(differentiate(differentiate(phi.expr, rv), cv) for cv in cols_v) for rv in rows_v
    )
    return ExprMatrix(entries, phi.vars)


def _primed(name: str) -> str:
    return name + PRIME_SUFFIX


def _prime_expr(e: Expr, names: Sequence[str]) -> Expr:
    for n in names:
        e = substitute(e, n, var(_primed(n)))
    return e


def assemble_J(
    phi: FunctionSpec, groups: Sequence[Sequence[str]], E: Iterable[int], F: Iterable[int]
) -> ExprMatrix:
    """Block matrix over two copies of the domain (second copy primed):

        [ 0                  grad_{x_{E'}}(x)    -grad_{y_{F'}}(y) ]
        [ grad_{x_E}(x)^T    Hess_{E,E'}(x)       0                ]
        [ grad_{y_F}(y)^T    0                    Hess_{F,F'}(y)   ]

    of shape (n_E + n_F + 1) x (2n - n_E - n_F + 1).  Along the incidence
    relation {phi(x) = phi(y)} its corank is the degeneracy measure of the
    two-copy configuration."""
    _check_groups(phi, groups)
    k = len(groups)
    E = sorted(set(E))
    F = sorted(set(F))
    if not E or not F:
        raise ValueError("E and F must be nonempty")
    Ec = [i for i in range(k) if i not in E]
    Fc = [i for i in range(k) if i not in F]
    if not Ec or not Fc:
        raise ValueError("complements of E and F must be nonempty")

    names = phi.vars
    E_vars = [v for i in E for v in groups[i]]
    Ec_vars = [v for i in Ec for v in groups[i]]
    F_vars = [v for i in F for v in groups[i]]
    Fc_vars = [v for i in Fc for v in groups[i]]

    def d(v: str) -> Expr:
        return differentiate(phi.expr, v)

    def dp(v: str) -> Expr:
        return _prime_expr(d(v), names)

    zero = const(0)
    top = [zero] + [d(v) for v in Ec_vars] + [Expr("neg", (dp(v),)) for v in Fc_vars]
    rows = [tuple(top)]
    for rv in E_vars:
        row = [d(rv)]
        row += [differentiate(d(rv), cv) for cv in Ec_vars]
        row += [zero] * len(Fc_vars)
        rows.append(tuple(row))
    for rv in F_vars:
        row = [dp(rv)]
        row += [zero] * len(Ec_vars)
        row += [_prime_expr(differentiate(d(rv), cv), names) for cv in Fc_vars]
        rows.append(tuple(row))
    var_order = tuple(names) + tuple(_primed(n) for n in names)
    return ExprMatrix(tuple(rows), var_order)


def trivariate_J(f: FunctionSpec, i: int) -> ExprMatrix:
    """The three 4x4 block matrices of a trivariate f; det = -G_i(x)G_i(y)."""
    _require_arity(f, 3)
    groups = [(f.vars[0],), (f.vars[1],), (f.vars[2],)]
    pairs = {1: ((1, 2), (0,)), 2: ((0, 2), (1,)), 3: ((0, 1), (2,))}
    if i not in pairs:
        raise ValueError("certificate index must be 1, 2 or 3")
    E, F = pairs[i]
    return assemble_J(f, groups, E, F)


def two_point_J(phi: FunctionSpec, d_x: int) -> ExprMatrix:
    """The square (d_X + d_Y + 1) two-copy matrix for Phi(x, y) with
    x = first d_x declared variables, y = the rest."""
    if not 1 <= d_x < phi.arity:
        raise ValueError("d_x must split the variables into two nonempty groups")
    groups = [tuple(phi.vars[:d_x]), tuple(phi.vars[d_x:])]
    return assemble_J(phi, groups, (0,), (1,))


def monge_ampere(phi: FunctionSpec, d_x: int | None = None) -> Expr:
    """Determinant of the bordered mixed Hessian

        [ 0              grad_y Phi ]
        [ (grad_x Phi)^T  d2Phi/dx_i dy_j ]

    for Phi over two equal-dimensional groups (x = first half of the
    declared variables unless d_x given)."""
    if d_x is None:
        if phi.arity % 2 != 0:
            raise ValueError("cannot split an odd number of variables evenly")
        d_x = phi.arity // 2
    if phi.arity - d_x != d_x:
        raise ValueError("variable groups must have equal dimension")
    xs = phi.vars[:d_x]
    ys = phi.vars[d_x:]
    zero = const(0)
    rows = [tuple([zero] + [differentiate(phi.expr, y) for y in ys])]
    for x in xs:
        dx = differentiate(phi.expr, x)
        rows.append(tuple([dx] + [differentiate(dx, y) for y in ys]))
    return ExprMatrix(tuple(rows), phi.vars).det_expr()


def numeric_corank(M: ExprMatrix, point: Mapping[str, float], tol: float) -> int:
    """corank = min(shape) - #(singular values > tol * sigma_max)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = M.evaluate(point)
    s = np.linalg.svd(a, compute_uv=False)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return min(M.shape)
    return int(min(M.shape) - np.count_nonzero(s > tol * smax))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

IDENTICALLY_ZERO = "identically_zero"
NONVANISHING = "nonvanishing_on_box"
VANISHES_SOMEWHERE = "vanishes_somewhere"
UNDEFINED = "undefined"


@dataclass(frozen=True)
class CertificateStatus:
    name: str
    status: str
    symbolic: bool = False
    witness_point: dict | None = None
    witness_value: float | None = None
    zero_point: dict | None = None
    valid_fraction: float = 1.0
    route: str | None = None  # the zero-test route; None when not tested

    def to_json_dict(self) -> dict:
        return jsonable(
            {
                "name": self.name,
                "status": self.status,
                "symbolic": self.symbolic,
                "route": self.route,
                "witness_point": self.witness_point,
                "witness_value": self.witness_value,
                "zero_point": self.zero_point,
                "valid_fraction": self.valid_fraction,
            }
        )


@dataclass(frozen=True)
class DegeneracyReport:
    arity: int
    classification: str
    certificates: dict[str, CertificateStatus]
    witness_certificate: str | None = None
    witness_point: dict | None = None
    witness_value: float | None = None
    witness_box: tuple[tuple[float, float], ...] | None = None
    expanding_index: int | None = None
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return jsonable(
            {
                "arity": self.arity,
                "classification": self.classification,
                "certificates": {k: v.to_json_dict() for k, v in self.certificates.items()},
                "witness_certificate": self.witness_certificate,
                "witness_point": self.witness_point,
                "witness_value": self.witness_value,
                "witness_box": self.witness_box,
                "expanding_index": self.expanding_index,
                "notes": list(self.notes),
            }
        )


def _status_from_check(name: str, check: ZeroCheck) -> CertificateStatus:
    if check.is_zero:
        return CertificateStatus(
            name,
            IDENTICALLY_ZERO,
            symbolic=check.symbolic,
            valid_fraction=check.valid_fraction,
            route=check.route,
        )
    values = np.asarray(check.sampled_values)
    signs = np.sign(values)
    sign_change = bool(values.size and signs.max() > 0 and signs.min() < 0)
    if sign_change:
        i = int(np.argmin(np.abs(values)))
        return CertificateStatus(
            name,
            VANISHES_SOMEWHERE,
            witness_point=check.witness_point,
            witness_value=check.witness_value,
            zero_point=check.sampled_points[i],
            valid_fraction=check.valid_fraction,
            route=check.route,
        )
    return CertificateStatus(
        name,
        NONVANISHING,
        witness_point=check.witness_point,
        witness_value=check.witness_value,
        valid_fraction=check.valid_fraction,
        route=check.route,
    )


def _certificate(name: str, e: Expr, f: FunctionSpec, policy: ZeroPolicy) -> CertificateStatus:
    try:
        check = is_identically_zero(e, f.box, f.vars, policy)
    except UndeterminableOnBox:
        return CertificateStatus(name, UNDEFINED, valid_fraction=0.0, route=SAMPLED)
    return _status_from_check(name, check)


def _sign_stable_box(
    f: FunctionSpec,
    certs: Sequence[tuple[Expr, float]],
    center: Sequence[float],
    seed: int,
) -> tuple[tuple[float, float], ...]:
    """Grow the largest axis-aligned box around `center` on which every
    certificate keeps the sign it has at the center and at least 1/10 of its
    magnitude, on 64 random points per trial box.  `certs` pairs each
    certificate with its value at the center.

    Doubles one axis half-width at a time (round-robin); an axis freezes on
    the first failed expansion or when it reaches the enclosing box."""
    rng = Stream(seed)
    widths = f.widths()
    half = [1e-3 * w for w in widths]
    frozen = [False] * f.arity
    programs = [(compile_batch(e, f.vars), v0) for e, v0 in certs]

    def box_of(hw):
        return tuple(
            (max(lo, c - h), min(hi, c + h))
            for (lo, hi), c, h in zip(f.box, center, hw)
        )

    def stable(candidate) -> bool:
        pts = [rng.uniform(lo, hi, size=64) for lo, hi in candidate]
        for program, v0 in programs:
            vals = np.atleast_1d(program(*pts))
            if not np.all(np.isfinite(vals)):
                return False
            if not np.all(np.sign(vals) == np.sign(v0)):
                return False
            if not np.all(np.abs(vals) >= 0.1 * abs(v0)):
                return False
        return True

    for _ in range(14):
        progressed = False
        for axis in range(f.arity):
            if frozen[axis]:
                continue
            lo, hi = f.box[axis]
            if center[axis] - half[axis] <= lo and center[axis] + half[axis] >= hi:
                frozen[axis] = True
                continue
            trial = list(half)
            trial[axis] = half[axis] * 2
            if stable(box_of(trial)):
                half = trial
                progressed = True
            else:
                frozen[axis] = True
        if all(frozen) or not progressed:
            break
    return box_of(half)


def classify(f: FunctionSpec, policy: ZeroPolicy = ZeroPolicy()) -> DegeneracyReport:
    """Classify a function of 2 or 3 variables as special-form / expanding.

    Arity 2: special form iff any of f_x, f_y, f_xy, kappa vanishes
    identically on the box; expanding otherwise, with a witness where kappa
    is nonzero and a surrounding sub-box on which all four certificates keep
    a stable sign.  Arity 3: special form iff G1, G2, G3 all vanish
    identically; expanding otherwise with the index of a nonvanishing
    certificate.  Conclusions are box-local.
    """
    if f.arity == 2:
        return _classify_bivariate(f, policy)
    if f.arity == 3:
        return _classify_trivariate(f, policy)
    raise ValueError("classification requires 2 or 3 variables")


def _inconclusive(certs: dict, arity: int, notes: tuple[str, ...]) -> DegeneracyReport:
    return DegeneracyReport(
        arity=arity,
        classification=INCONCLUSIVE,
        certificates=certs,
        notes=notes + ("more than half of the samples hit domain errors",),
    )


def _classify_bivariate(f: FunctionSpec, policy: ZeroPolicy) -> DegeneracyReport:
    x, y = f.vars
    fx, fy = f.partial(0), f.partial(1)
    fxy = differentiate(fx, y)
    certs: dict[str, CertificateStatus] = {}
    notes = (
        "degenerate locus: union of the zero sets of f_x, f_y, f_xy and kappa",
        "conclusions are local to the declared box",
    )
    for name, e in (("f_x", fx), ("f_y", fy), ("f_xy", fxy)):
        certs[name] = _certificate(name, e, f, policy)
    if any(c.status == UNDEFINED or c.valid_fraction < 0.5 for c in certs.values()):
        return _inconclusive(certs, 2, notes)
    for name in ("f_x", "f_y", "f_xy"):
        if certs[name].status == IDENTICALLY_ZERO:
            certs["kappa"] = CertificateStatus("kappa", UNDEFINED)
            return DegeneracyReport(
                arity=2,
                classification=SPECIAL_FORM,
                certificates=certs,
                witness_certificate=name,
                notes=notes + (f"{name} vanishes identically on the box",),
            )
    k = _kappa(f, fx, fy, fxy)  # f_xy is decided nonzero above
    certs["kappa"] = _certificate("kappa", k, f, policy)
    kc = certs["kappa"]
    if kc.status == UNDEFINED or kc.valid_fraction < 0.5:
        return _inconclusive(certs, 2, notes)
    if kc.status == IDENTICALLY_ZERO:
        return DegeneracyReport(
            arity=2,
            classification=SPECIAL_FORM,
            certificates=certs,
            witness_certificate="kappa",
            notes=notes + ("kappa vanishes identically on the box",),
        )
    witness = kc.witness_point
    center = tuple(witness[v] for v in f.vars)
    cert_values = [(e, evaluate(e, witness)) for e in (fx, fy, fxy, k)]
    wbox = _sign_stable_box(f, cert_values, center, policy.seed)
    return DegeneracyReport(
        arity=2,
        classification=EXPANDING,
        certificates=certs,
        witness_certificate="kappa",
        witness_point=witness,
        witness_value=kc.witness_value,
        witness_box=wbox,
        notes=notes,
    )


def _classify_trivariate(f: FunctionSpec, policy: ZeroPolicy) -> DegeneracyReport:
    certs: dict[str, CertificateStatus] = {}
    notes = (
        "degenerate locus: common zero set of G1, G2, G3",
        "conclusions are local to the declared box",
    )
    first = {
        "f_1": f.partial(0),
        "f_2": f.partial(1),
        "f_3": f.partial(2),
        "f_12": f.partial2(0, 1),
        "f_13": f.partial2(0, 2),
        "f_23": f.partial2(1, 2),
    }
    for name, e in first.items():
        certs[name] = _certificate(name, e, f, policy)
    gs = aux_trivariate(f)
    for i, g in enumerate(gs, start=1):
        certs[f"G{i}"] = _certificate(f"G{i}", g, f, policy)
    g_stats = [certs[f"G{i}"] for i in (1, 2, 3)]
    if any(c.status == UNDEFINED or c.valid_fraction < 0.5 for c in g_stats):
        return _inconclusive(certs, 3, notes)
    if all(c.status == IDENTICALLY_ZERO for c in g_stats):
        return DegeneracyReport(
            arity=3,
            classification=SPECIAL_FORM,
            certificates=certs,
            notes=notes + ("G1, G2, G3 all vanish identically on the box",),
        )
    nonzero = [
        (i, c) for i, c in zip((1, 2, 3), g_stats) if c.status != IDENTICALLY_ZERO
    ]
    i0, c0 = max(nonzero, key=lambda ic: abs(ic[1].witness_value or 0.0))
    witness = c0.witness_point
    center = tuple(witness[v] for v in f.vars)
    g = gs[i0 - 1]
    wbox = _sign_stable_box(f, [(g, evaluate(g, witness))], center, policy.seed)
    return DegeneracyReport(
        arity=3,
        classification=EXPANDING,
        certificates=certs,
        witness_certificate=f"G{i0}",
        witness_point=witness,
        witness_value=c0.witness_value,
        witness_box=wbox,
        expanding_index=i0,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Exact thresholds.
#
# Every theorem reduces to one master bound family parametrized by
# (alpha, beta, p):
#   expansion:  sum of dims > (alpha - p)/2 + beta + u   (0 < u < p)
#   measure:    sum of dims > (alpha + p + 2*beta)/2
#   interior:   sum of dims > (alpha - p)/2 + 2p + beta
# The named theorems fix (alpha, beta, p) as recorded in `derivation`.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdReport:
    theorem: str
    params: dict
    p: int
    expansion_offset: Fraction
    measure_bound: Fraction
    interior_bound: Fraction
    derivation: str

    @property
    def expansion_form(self) -> str:
        off = self.expansion_offset
        pretty = str(off.numerator) if off.denominator == 1 else f"{off.numerator}/{off.denominator}"
        return f"sum > {pretty} + u"

    def dim_lower_bound(self, dims: Sequence[Fraction | float]) -> Fraction:
        """max{sum - offset, 0} capped at p: the guaranteed image dimension."""
        total = sum(Fraction(d) if not isinstance(d, float) else Fraction(d).limit_denominator(10**9) for d in dims)
        return max(Fraction(0), min(total - self.expansion_offset, Fraction(self.p)))

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": jsonable(self.params),
            "p": self.p,
            "expansion_offset": rational(self.expansion_offset),
            "expansion": self.expansion_form,
            "measure_bound": rational(self.measure_bound),
            "interior_bound": rational(self.interior_bound),
            "derivation": self.derivation,
        }


def _master(alpha: Fraction, beta: Fraction, p: int) -> tuple[Fraction, Fraction, Fraction]:
    offset = (alpha - p) / 2 + beta
    measure = (alpha + p + 2 * beta) / 2
    interior = (alpha - p) / 2 + 2 * p + beta
    return offset, measure, interior


def _frac(x) -> Fraction:
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"threshold parameters must be exact rationals, got float {x}")
    return Fraction(x)


THEOREMS = (
    "bivariate-analytic",
    "bivariate-smooth",
    "trivariate-analytic",
    "trivariate-smooth",
    "k-point",
    "two-point",
    "two-point-rank",
    "phong-stein",
    "distance-surface",
    "general",
)


def thresholds(theorem: str, **params) -> ThresholdReport:
    """Exact rational thresholds for the selected theorem.

    Parameters by theorem:
      bivariate-analytic / bivariate-smooth: none
      trivariate-analytic / trivariate-smooth: none
      k-point: alpha (>= 1), m (>= 0)
      two-point: d_X, d_Y (>= 1), m (>= 0)
      two-point-rank: d_X, d_Y, r (1 <= r <= min(d_X, d_Y))
      phong-stein: d (>= 1)
      distance-surface: d (>= 2)
      general: alpha, beta (>= 0), p (>= 1), k (>= 2, validation only)
    """
    t = theorem.strip().lower()
    if t not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; choose from {', '.join(THEOREMS)}")

    def need(*names, optional=()):
        missing = [n for n in names if n not in params]
        if missing:
            raise ValueError(f"theorem {t!r} requires parameters: {', '.join(missing)}")
        extra = set(params) - set(names) - set(optional)
        if extra:
            raise ValueError(f"theorem {t!r} does not take: {', '.join(sorted(extra))}")

    if t in ("bivariate-analytic", "bivariate-smooth"):
        need()
        alpha, beta, p = Fraction(2), Fraction(1, 6), 1
        derivation = "master bounds with alpha=2, beta=1/6 (fold loss), p=1"
    elif t in ("trivariate-analytic", "trivariate-smooth"):
        need()
        alpha, beta, p = Fraction(3), Fraction(0), 1
        derivation = "codimension-one bounds with alpha=3, m=0 (beta=m/2), p=1"
    elif t == "k-point":
        need("alpha", "m")
        a, m = _frac(params["alpha"]), _frac(params["m"])
        if m < 0:
            raise ValueError("m must be >= 0")
        if a < 1:
            raise ValueError("alpha must be >= 1")
        alpha, beta, p = a, m / 2, 1
        derivation = f"codimension-one bounds with alpha={a}, m={m} (beta=m/2), p=1"
    elif t == "two-point":
        need("d_X", "d_Y", "m")
        dx, dy, m = _frac(params["d_X"]), _frac(params["d_Y"]), _frac(params["m"])
        if dx < 1 or dy < 1:
            raise ValueError("d_X and d_Y must be >= 1")
        if m < 0:
            raise ValueError("m must be >= 0")
        alpha, beta, p = dx + dy, m / 2, 1
        derivation = f"two-copy bounds with alpha=d_X+d_Y={dx + dy}, m={m}, p=1"
    elif t == "two-point-rank":
        need("d_X", "d_Y", "r")
        dx, dy, r = _frac(params["d_X"]), _frac(params["d_Y"]), _frac(params["r"])
        if r < 1:
            raise ValueError("r must be >= 1")
        if r > min(dx, dy):
            raise ValueError(f"r={r} exceeds min(d_X, d_Y)={min(dx, dy)}")
        m = dx + dy + 1 - 2 * r
        alpha, beta, p = dx + dy, m / 2, 1
        derivation = (
            f"mixed-Hessian rank >= {r} gives corank(J) <= d_X+d_Y+1-2r = {m}; "
            "two-copy bounds applied with that m"
        )
    elif t == "phong-stein":
        need("d")
        d = _frac(params["d"])
        if d < 1:
            raise ValueError("d must be >= 1")
        m = 2 * d + 1 - 2 * d
        alpha, beta, p = 2 * d, Fraction(m, 2), 1
        derivation = "nonvanishing bordered-Hessian determinant = full rank r=d in the rank bounds"
    elif t == "distance-surface":
        need("d")
        d = _frac(params["d"])
        if d < 2:
            raise ValueError("d must be >= 2")
        alpha, beta, p = d + (d - 1), Fraction(0), 1
        derivation = f"two-copy bounds for ambient points (d_X={d}) against a hypersurface (d_Y={d - 1}), m=0"
    else:  # general
        need("alpha", "beta", "p", optional=("k",))
        alpha, beta = _frac(params["alpha"]), _frac(params["beta"])
        p = int(params["p"])
        kk = int(params.get("k", 2))
        if kk < 2:
            raise ValueError("k must be >= 2")
        if p < 1:
            raise ValueError("p must be >= 1")
        if beta < 0:
            raise ValueError("beta must be >= 0")
        derivation = f"master bounds with alpha={alpha}, beta={beta}, p={p}"

    offset, measure, interior = _master(alpha, beta, int(p))
    return ThresholdReport(
        theorem=t,
        params={k: str(v) for k, v in params.items()},
        p=int(p),
        expansion_offset=offset,
        measure_bound=measure,
        interior_bound=interior,
        derivation=derivation,
    )


# ---------------------------------------------------------------------------
# Sampling the incidence relation {phi(x) = phi(y)} and corank checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaCheck:
    holds: bool
    m: int
    max_corank: int | None
    witness: dict | None
    reason: str | None
    samples_used: int
    failures: int
    off_diagonal_fraction: float

    def to_json_dict(self) -> dict:
        return jsonable(
            {
                "holds": self.holds,
                "m": self.m,
                "max_corank": self.max_corank,
                "witness": self.witness,
                "reason": self.reason,
                "samples_used": self.samples_used,
                "failures": self.failures,
                "off_diagonal_fraction": self.off_diagonal_fraction,
            }
        )


def _newton_on_coordinate(f: FunctionSpec, y: np.ndarray, j: int, target: float) -> np.ndarray | None:
    fn = compile_scalar(f.expr, f.vars)
    dfn = compile_scalar(f.partial(j), f.vars)
    scale = max(1.0, abs(target))
    y = y.copy()
    for _ in range(50):
        try:
            r = fn(*y) - target
        except DomainError:
            return None
        if abs(r) <= 1e-10 * scale:
            lo, hi = f.box[j]
            if lo <= y[j] <= hi:
                return y
            return None
        try:
            d = dfn(*y)
        except DomainError:
            return None
        if abs(d) < 1e-8:
            return None
        y[j] -= r / d
    return None


def gamma_nondegenerate(
    phi: FunctionSpec,
    groups: Sequence[Sequence[str]],
    E: Iterable[int],
    F: Iterable[int],
    m: int = 0,
    z_samples: int = 200,
    seed: int = 0,
) -> GammaCheck:
    """Sample the incidence relation {phi(x) = phi(y)} and check that the
    gradient condition holds and corank(J) <= m at every sampled point.

    Sampling picks a random x, then solves phi(y) = phi(x) by Newton on one
    coordinate of the second copy (last coordinate first, falling back when
    the needed partial is too small)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    J = assemble_J(phi, groups, E, F)
    k = len(groups)
    E = sorted(set(E))
    F = sorted(set(F))
    Ec = [i for i in range(k) if i not in E]
    Fc = [i for i in range(k) if i not in F]
    grad_E = [compile_scalar(phi.partial(v), phi.vars) for i in E for v in groups[i]]
    grad_Ec = [compile_scalar(phi.partial(v), phi.vars) for i in Ec for v in groups[i]]
    grad_F = [compile_scalar(phi.partial(v), phi.vars) for i in F for v in groups[i]]
    grad_Fc = [compile_scalar(phi.partial(v), phi.vars) for i in Fc for v in groups[i]]

    rng = Stream(seed)
    width = max(hi - lo for lo, hi in phi.box)
    n = phi.arity
    successes = 0
    failures = 0
    off_diag = 0
    max_corank = 0
    attempts = 0
    coord_order = list(range(n - 1, -1, -1))

    while successes < z_samples and attempts < 4 * z_samples:
        attempts += 1
        x = np.array([rng.uniform(lo, hi) for lo, hi in phi.box])
        y0 = np.array([rng.uniform(lo, hi) for lo, hi in phi.box])
        try:
            target = phi.evaluate(x)
        except DomainError:
            failures += 1
            continue
        y = None
        for j in coord_order:
            y = _newton_on_coordinate(phi, y0, j, target)
            if y is not None:
                break
        if y is None:
            failures += 1
            continue
        successes += 1
        if np.max(np.abs(x - y)) > 1e-6 * width:
            off_diag += 1
        point = {v: float(x[i]) for i, v in enumerate(phi.vars)}
        point.update({_primed(v): float(y[i]) for i, v in enumerate(phi.vars)})
        gx = [g(*x) for g in grad_E] + [g(*y) for g in grad_F]
        gc = [g(*x) for g in grad_Ec] + [g(*y) for g in grad_Fc]
        if max(abs(v) for v in gx) < 1e-12 or max(abs(v) for v in gc) < 1e-12:
            return GammaCheck(
                holds=False,
                m=m,
                max_corank=None,
                witness=point,
                reason="gradient condition fails",
                samples_used=successes,
                failures=failures,
                off_diagonal_fraction=off_diag / max(successes, 1),
            )
        corank = numeric_corank(J, point, _RANK_TOL)
        max_corank = max(max_corank, corank)
        if corank > m:
            return GammaCheck(
                holds=False,
                m=m,
                max_corank=corank,
                witness=point,
                reason=f"corank {corank} exceeds m={m}",
                samples_used=successes,
                failures=failures,
                off_diagonal_fraction=off_diag / max(successes, 1),
            )
    if successes == 0 or failures > 9 * successes:
        raise ZSamplingError(
            f"incidence-relation sampling failed ({failures} failures, {successes} successes)"
        )
    return GammaCheck(
        holds=True,
        m=m,
        max_corank=max_corank,
        witness=None,
        reason=None,
        samples_used=successes,
        failures=failures,
        off_diagonal_fraction=off_diag / successes,
    )


# ---------------------------------------------------------------------------
# Distance-to-hypersurface tangency check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceDistanceCheck:
    tangent: bool
    det: float
    surface_point: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return jsonable(
            {
                "result": "tangent" if self.tangent else "nondegenerate",
                "det": self.det,
                "surface_point": self.surface_point,
            }
        )


def surface_distance_check(
    components: Sequence[Expr],
    uvars: Sequence[str],
    x: Sequence[float],
    u: Sequence[float],
    tol: float = 1e-9,
) -> SurfaceDistanceCheck:
    """Tangency certificate for the distance configuration between an
    ambient point x and a parametrized hypersurface psi(u) in R^d.

    Evaluates det[ (x - psi(u)) | -D_u psi ]; the determinant vanishes
    exactly when x - psi(u) lies in the tangent space at psi(u)."""
    d = len(components)
    if len(uvars) != d - 1:
        raise ValueError("a hypersurface in R^d needs d-1 parameters")
    if len(x) != d or len(u) != d - 1:
        raise ValueError("point/parameter dimensions do not match the surface")
    for c in components:
        unnamed = free_vars(c) - set(uvars)
        if unnamed:
            raise ValueError(f"the surface uses {', '.join(sorted(unnamed))} but its parameters are {list(uvars)}")
    point = dict(zip(uvars, map(float, u)))
    psi_u = np.array([evaluate(c, point) for c in components])
    jac = np.empty((d, d - 1))
    for i, c in enumerate(components):
        for j, uv in enumerate(uvars):
            jac[i, j] = evaluate(differentiate(c, uv), point)
    s = np.linalg.svd(jac, compute_uv=False)
    if s.size == 0 or s[0] == 0 or np.count_nonzero(s > _RANK_TOL * s[0]) < d - 1:
        raise RankDeficientError(f"parametrization is rank-deficient at u={list(u)}")
    col0 = np.asarray(x, dtype=float) - psi_u
    M = np.column_stack([col0, -jac])
    det = float(np.linalg.det(M))
    return SurfaceDistanceCheck(tangent=abs(det) < tol, det=det, surface_point=tuple(psi_u))
