"""Constructive recovery of special-form decompositions.

When the degeneracy certificates of f vanish identically the first-order
ratio equations separate:

    bivariate:   f_x / f_y = h'(x) / k'(y)
    trivariate:  f_1 / f_2 = a1~(x1) * a2~(x2),   f_2 / f_3 = b3(x3) / a2~(x2)

so the inner components are recovered by one-dimensional quadrature of the
separated factors from a base point, and the outer component is read off by
sampling f along a path on which the inner sum is strictly monotone (the
box diagonal between the corners minimizing and maximizing the sum).  All
components are returned as sampled functions with cubic interpolation; the
reconstruction residual on a verification grid is the success criterion.

Gauge freedom: components are normalized to vanish at the base point; any
affine regauging H_i -> c*H_i + d_i with the matching outer reparametrization
reproduces the same reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .degeneracy import AdditiveDegeneracyError, aux_trivariate, kappa
from .errors import NumericalError, PreconditionError, QuadratureError
from .expr import (
    DomainError,
    Expr,
    FunctionSpec,
    ZeroPolicy,
    compile_batch,
    compile_scalar,
    free_vars,
    substitute,
)
from .jsonutil import jsonable

__all__ = [
    "RecoveryResult",
    "SampledFunction1D",
    "quadrature",
    "reconstruction_residual",
    "recover_bivariate",
    "recover_trivariate",
]


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def quadrature(e: Expr, var: str, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson integral of a univariate expression over [a, b].

    The integrand must be continuous and sign-stable on [a, b]; a sampled
    pre-check rejects sign changes and singularities."""
    extra = free_vars(e) - {var}
    if extra:
        raise ValueError(f"integrand depends on {sorted(extra)} besides {var!r}")
    if a > b:
        raise ValueError("require a <= b")
    if a == b:
        return 0.0
    fn = compile_scalar(e, (var,))
    xs = np.linspace(a, b, 65)
    try:
        vals = np.array([fn(x) for x in xs])
    except DomainError as err:
        raise QuadratureError(f"singularity in integrand: {err}") from None
    if vals.max() > 0 and vals.min() < 0:
        i = int(np.argmin(np.abs(vals)))
        raise QuadratureError(
            f"integrand changes sign near {var}={xs[i]:.6g} on [{a}, {b}]"
        )
    return _adaptive_simpson(fn, a, b, tol)


def _adaptive_simpson(fn: Callable[[float], float], a: float, b: float, tol: float) -> float:
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    return _simpson_step(fn, a, fa, b, fb, 0.5 * (a + b), fm, whole, tol, 50)


def _simpson_step(fn, a, fa, b, fb, m, fm, whole, tol, depth) -> float:
    if depth <= 0:
        raise QuadratureError(f"adaptive refinement exhausted on [{a}, {b}]")
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = fn(lm), fn(rm)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    if abs(left + right - whole) <= 15 * tol:
        return left + right + (left + right - whole) / 15
    return _simpson_step(fn, a, fa, m, fm, lm, flm, left, tol / 2, depth - 1) + _simpson_step(
        fn, m, fm, b, fb, rm, frm, right, tol / 2, depth - 1
    )


def _cumulative_from_base(fn, grid: np.ndarray, base: float, seg_tol: float = 1e-12) -> np.ndarray:
    """Antiderivative values on the grid, normalized to vanish at base."""
    n = len(grid)
    cum = np.zeros(n)
    for i in range(1, n):
        cum[i] = cum[i - 1] + _adaptive_simpson(fn, grid[i - 1], grid[i], seg_tol)
    # offset so the antiderivative vanishes at the base point
    idx = int(np.searchsorted(grid, base))
    idx = min(max(idx, 1), n - 1)
    anchor = grid[idx - 1]
    at_base = cum[idx - 1] + (_adaptive_simpson(fn, anchor, base, seg_tol) if base > anchor else 0.0)
    return cum - at_base


# ---------------------------------------------------------------------------
# Sampled univariate functions
# ---------------------------------------------------------------------------


@dataclass
class SampledFunction1D:
    """A function known on a strictly increasing grid, interpolated cubically.

    The inverse is defined only when the sampled values are strictly
    monotone; inversion brackets by bisection and polishes with Newton."""

    grid: np.ndarray
    values: np.ndarray
    name: str = ""
    _spline: CubicSpline | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be 1-D arrays of equal length")
        if len(self.grid) < 4:
            raise ValueError("need at least 4 samples")
        if not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly increasing")

    @property
    def spline(self) -> CubicSpline:
        if self._spline is None:
            self._spline = CubicSpline(self.grid, self.values)
        return self._spline

    def __call__(self, x):
        clipped = np.clip(x, self.grid[0], self.grid[-1])
        out = self.spline(clipped)
        return float(out) if np.isscalar(x) else out

    @property
    def is_strictly_monotone(self) -> bool:
        d = np.diff(self.values)
        return bool(np.all(d > 0) or np.all(d < 0))

    def inverse_at(self, y: float, tol: float = 1e-12) -> float:
        if not self.is_strictly_monotone:
            raise NumericalError(f"{self.name or 'sampled function'} is not strictly monotone")
        increasing = self.values[-1] > self.values[0]
        lo_v, hi_v = (self.values[0], self.values[-1]) if increasing else (self.values[-1], self.values[0])
        y = float(np.clip(y, lo_v, hi_v))
        lo, hi = self.grid[0], self.grid[-1]
        # bisection on the interpolant
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            v = float(self.spline(mid))
            if (v < y) == increasing:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-8 * (self.grid[-1] - self.grid[0]):
                break
        x = 0.5 * (lo + hi)
        dspl = self.spline.derivative()
        for _ in range(50):
            r = float(self.spline(x)) - y
            if abs(r) < tol * max(1.0, abs(y)):
                break
            d = float(dspl(x))
            if d == 0.0:
                break
            x = float(np.clip(x - r / d, self.grid[0], self.grid[-1]))
        return x

    def inverse(self, n: int | None = None) -> "SampledFunction1D":
        """The inverse as a sampled function on the value range."""
        if not self.is_strictly_monotone:
            raise NumericalError(f"{self.name or 'sampled function'} is not strictly monotone")
        if self.values[-1] > self.values[0]:
            g, v = self.values, self.grid
        else:
            g, v = self.values[::-1], self.grid[::-1]
        return SampledFunction1D(np.asarray(g), np.asarray(v), name=f"{self.name}^-1")


# ---------------------------------------------------------------------------
# Recovery results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryResult:
    kind: str  # "bivariate" | "trivariate"
    components: dict[str, SampledFunction1D]
    base: tuple[float, ...]
    residual: float
    residual_tol: float
    separability_error: float
    verdict: str  # "success" | "failure"
    notes: tuple[str, ...] = ()

    @property
    def success(self) -> bool:
        return self.verdict == "success"

    def to_json_dict(self) -> dict:
        return jsonable(
            {
                "kind": self.kind,
                "base": self.base,
                "residual": self.residual,
                "residual_tol": self.residual_tol,
                "separability_error": self.separability_error,
                "verdict": self.verdict,
                "components": sorted(self.components),
                "notes": list(self.notes),
            }
        )


_INNER_KEYS = {"bivariate": ("h", "k"), "trivariate": ("H1", "H2", "H3")}
_OUTER_KEY = {"bivariate": "g", "trivariate": "G0"}


def reconstruction_residual(
    f: FunctionSpec, components: Mapping[str, SampledFunction1D], verify_n: int
) -> float:
    """Max |f - outer(sum of inner components)| on a verify_n^arity grid."""
    kind = "bivariate" if f.arity == 2 else "trivariate"
    inner = [components[k] for k in _INNER_KEYS[kind]]
    outer = components[_OUTER_KEY[kind]]
    axes = [np.linspace(lo, hi, verify_n) for lo, hi in f.box]
    inner_vals = [s(ax) for s, ax in zip(inner, axes)]
    mesh = np.meshgrid(*inner_vals, indexing="ij")
    total = sum(mesh)
    recon = outer(total.ravel()).reshape(total.shape)
    grids = np.meshgrid(*axes, indexing="ij")
    fvals = f.evaluate_batch([g.ravel() for g in grids]).reshape(total.shape)
    return float(np.max(np.abs(fvals - recon)))


def _line_expr(e: Expr, f: FunctionSpec, free_axis: int, anchor: Sequence[float]) -> Expr:
    """Restrict e to the axis line through `anchor` along `free_axis`."""
    from .expr import simplify

    out = e
    for i, v in enumerate(f.vars):
        if i != free_axis:
            out = substitute(out, v, const_from_float(anchor[i]))
    return simplify(out)


def const_from_float(x: float) -> Expr:
    from fractions import Fraction

    from .expr import const

    return const(Fraction(x).limit_denominator(10**12))


def _sign_stable(vals: np.ndarray, what: str):
    if not np.all(np.isfinite(vals)):
        raise PreconditionError(f"{what} is singular on the grid")
    if vals.max() > 0 and vals.min() < 0:
        raise PreconditionError(f"{what} changes sign on the grid")
    if np.min(np.abs(vals)) == 0.0:
        raise PreconditionError(f"{what} vanishes on the grid")


def _monotone_path_outer(
    f: FunctionSpec,
    inner: Sequence[SampledFunction1D],
    n_path: int = 2049,
) -> SampledFunction1D:
    """Sample the outer component along the box diagonal from the corner
    minimizing the inner sum to the corner maximizing it.  Each inner
    component is monotone, so the sum is strictly monotone along the path
    and covers exactly the range the sum attains on the box."""
    starts, ends = [], []
    for s, (lo, hi) in zip(inner, f.box):
        if s.values[-1] >= s.values[0]:
            starts.append(lo)
            ends.append(hi)
        else:
            starts.append(hi)
            ends.append(lo)
    t = np.linspace(0.0, 1.0, n_path)
    coords = [s0 + t * (e0 - s0) for s0, e0 in zip(starts, ends)]
    sigma = sum(s(c) for s, c in zip(inner, coords))
    if not np.all(np.diff(sigma) > 0):
        raise NumericalError("inner sum is not strictly monotone along the sampling path")
    fvals = f.evaluate_batch(coords)
    return SampledFunction1D(sigma, fvals, name="outer")


def _ratio_on_line(
    num: Expr, den: Expr, f: FunctionSpec, axis: int, anchor: Sequence[float], grid: np.ndarray
) -> np.ndarray:
    fn = compile_batch(_line_expr(num, f, axis, anchor), (f.vars[axis],))
    fd = compile_batch(_line_expr(den, f, axis, anchor), (f.vars[axis],))
    n, d = fn(grid), fd(grid)
    if not np.all(np.isfinite(n)) or not np.all(np.isfinite(d)) or np.any(d == 0.0):
        raise PreconditionError("partial-derivative ratio is singular along a grid line")
    return n / d


def _verify_base(f: FunctionSpec, base: Sequence[float] | None) -> tuple[float, ...]:
    if base is None:
        return f.center()
    base = tuple(float(b) for b in base)
    if len(base) != f.arity or not f.contains(base):
        raise ValueError(f"base {base} is not inside the declared box")
    return base


def _require_special_bivariate(f: FunctionSpec, policy: ZeroPolicy):
    """The deciding certificate check: kappa (or f_xy) vanishes identically.
    Equivalent to classify(f) != expanding, without the full report."""
    from .expr import is_identically_zero

    try:
        k = kappa(f, policy)
    except AdditiveDegeneracyError:
        return  # f_xy vanishes identically: additively separable, special form
    check = is_identically_zero(k, f.box, f.vars, policy)
    if not check.is_zero:
        raise PreconditionError(
            "function classifies as expanding (kappa nonzero, e.g. "
            f"{check.witness_value:.6g} at {check.witness_point}); "
            "no special-form recovery attempted"
        )


def _require_special_trivariate(f: FunctionSpec, policy: ZeroPolicy):
    from .expr import is_identically_zero

    for i, g in enumerate(aux_trivariate(f), start=1):
        check = is_identically_zero(g, f.box, f.vars, policy)
        if not check.is_zero:
            raise PreconditionError(
                f"function classifies as expanding (G{i} nonzero, e.g. "
                f"{check.witness_value:.6g} at {check.witness_point}); "
                "no special-form recovery attempted"
            )


# ---------------------------------------------------------------------------
# Bivariate recovery: f = g(h(x) + k(y))
# ---------------------------------------------------------------------------


def recover_bivariate(
    f: FunctionSpec,
    base: Sequence[float] | None = None,
    grid_n: int = 257,
    verify_n: int = 50,
    residual_tol: float = 1e-6,
    sep_tol: float = 1e-6,
    policy: ZeroPolicy = ZeroPolicy(),
    skip_classify: bool = False,
) -> RecoveryResult:
    """Recover g, h, k with f = g(h(x) + k(y)) on the box.

    Uses q = f_x/f_y: h'(x) is q along the base row, k'(y) the reciprocal
    ratio along the base column; h and k follow by quadrature from the base
    point and g by sampling f against the recovered inner sum."""
    if f.arity != 2:
        raise ValueError("recover_bivariate requires 2 variables")
    base = _verify_base(f, base)
    if not skip_classify:
        _require_special_bivariate(f, policy)
    x, y = f.vars
    fx, fy = f.partial(0), f.partial(1)
    gx = np.linspace(f.box[0][0], f.box[0][1], grid_n)
    gy = np.linspace(f.box[1][0], f.box[1][1], grid_n)

    # separability of q = f_x/f_y: the mixed log-derivative must vanish;
    # in terms of partials of f,
    #   dxdy log q = (f_xxy f_x - f_xy f_xx)/f_x^2 - (f_xyy f_y - f_yy f_xy)/f_y^2
    q = fx / fy
    from .expr import differentiate as _d

    fxy = _d(fx, y)
    fxx = _d(fx, x)
    fyy = _d(fy, y)
    fxxy = _d(fxy, x)
    fxyy = _d(fxy, y)
    sep_expr = (fxxy * fx - fxy * fxx) / (fx * fx) - (fxyy * fy - fyy * fxy) / (fy * fy)
    gx33 = np.linspace(f.box[0][0], f.box[0][1], 33)
    gy33 = np.linspace(f.box[1][0], f.box[1][1], 33)
    mx, my = np.meshgrid(gx33, gy33, indexing="ij")
    sep_fn = compile_batch(sep_expr, f.vars)
    q_fn = compile_batch(q, f.vars)
    with np.errstate(all="ignore"):
        sep_vals = sep_fn(mx.ravel(), my.ravel())
        q_vals = q_fn(mx.ravel(), my.ravel())
    if not np.all(np.isfinite(sep_vals)) or not np.all(np.isfinite(q_vals)):
        raise PreconditionError("f_x/f_y is singular on the box")
    logq = np.log(np.abs(q_vals))
    scale = max(1.0, float(np.median(np.abs(logq))))
    sep_err = float(np.max(np.abs(sep_vals)))
    if sep_err > sep_tol * scale:
        i = int(np.argmax(np.abs(sep_vals)))
        raise PreconditionError(
            f"ratio f_x/f_y does not separate: mixed log-derivative {sep_vals[i]:.3e} "
            f"at ({mx.ravel()[i]:.6g}, {my.ravel()[i]:.6g})"
        )

    hp = _ratio_on_line(fx, fy, f, 0, base, gx)
    _sign_stable(hp, "h'")
    q_base = _ratio_on_line(fx, fy, f, 0, base, np.array([base[0]]))[0]
    kp = q_base / _ratio_on_line(fx, fy, f, 1, base, gy)
    _sign_stable(kp, "k'")

    hp_fn = _scalar_ratio_fn(fx, fy, f, 0, base)
    q_col_fn = _scalar_ratio_fn(fx, fy, f, 1, base)
    kp_fn = lambda t: q_base / q_col_fn(t)
    h = SampledFunction1D(gx, _cumulative_from_base(hp_fn, gx, base[0]), name="h")
    k = SampledFunction1D(gy, _cumulative_from_base(kp_fn, gy, base[1]), name="k")
    g = _monotone_path_outer(f, [h, k])
    components = {"g": g, "h": h, "k": k}
    residual = reconstruction_residual(f, components, verify_n)
    return RecoveryResult(
        kind="bivariate",
        components=components,
        base=base,
        residual=residual,
        residual_tol=residual_tol,
        separability_error=sep_err,
        verdict="success" if residual < residual_tol else "failure",
        notes=(f"components normalized to vanish at base {base}",),
    )


def _scalar_ratio_fn(num: Expr, den: Expr, f: FunctionSpec, axis: int, anchor: Sequence[float]):
    fn = compile_scalar(_line_expr(num, f, axis, anchor), (f.vars[axis],))
    fd = compile_scalar(_line_expr(den, f, axis, anchor), (f.vars[axis],))

    def ratio(t: float) -> float:
        d = fd(t)
        if d == 0.0:
            raise NumericalError(f"partial-derivative ratio singular at {f.vars[axis]}={t}")
        return fn(t) / d

    return ratio


# ---------------------------------------------------------------------------
# Trivariate recovery: f = G0(H1(x1) + H2(x2) + H3(x3))
# ---------------------------------------------------------------------------


def recover_trivariate(
    f: FunctionSpec,
    base: Sequence[float] | None = None,
    grid_n: int = 257,
    verify_n: int = 20,
    residual_tol: float = 1e-6,
    sep_tol: float = 1e-6,
    policy: ZeroPolicy = ZeroPolicy(),
    skip_classify: bool = False,
) -> RecoveryResult:
    """Recover G0, H1, H2, H3 with f = G0(H1(x1) + H2(x2) + H3(x3)).

    The ratio a = f_1/f_2 separates as a1~(x1)*a2~(x2) and b = f_2/f_3 as
    b3(x3)/a2~(x2); the inner derivatives are H1' = a1~, H2' = 1/a2~,
    H3' = 1/b3 (each normalized at the base point), integrated by adaptive
    quadrature."""
    if f.arity != 3:
        raise ValueError("recover_trivariate requires 3 variables")
    base = _verify_base(f, base)
    if not skip_classify:
        _require_special_trivariate(f, policy)
    f1, f2, f3 = (f.partial(i) for i in range(3))
    grids = [np.linspace(lo, hi, grid_n) for lo, hi in f.box]

    # separated factors along base-anchored lines
    a1t = _ratio_on_line(f1, f2, f, 0, base, grids[0])  # a1~(x1) = a(x1, x2^0)
    a_base = _ratio_on_line(f1, f2, f, 0, base, np.array([base[0]]))[0]
    a2t = _ratio_on_line(f1, f2, f, 1, base, grids[1]) / a_base  # a2~(x2), a2~(x2^0)=1
    b3 = _ratio_on_line(f2, f3, f, 2, base, grids[2])  # b3(x3) = b(x2^0, x3)*a2~(x2^0)
    for vals, nm in ((a1t, "a1~"), (a2t, "a2~"), (b3, "b3")):
        _sign_stable(vals, nm)

    sep_err = _trivariate_separability(f, f1, f2, f3, base, sep_tol)

    # inner derivatives: H1' = a1~, H2' = 1/a2~, H3' = 1/b3
    a1_fn = _scalar_ratio_fn(f1, f2, f, 0, base)
    a2_fn = _scalar_ratio_fn(f1, f2, f, 1, base)
    b3_fn = _scalar_ratio_fn(f2, f3, f, 2, base)
    h1p = a1_fn
    h2p = lambda t: a_base / a2_fn(t)
    h3p = lambda t: 1.0 / b3_fn(t)
    H1 = SampledFunction1D(grids[0], _cumulative_from_base(h1p, grids[0], base[0]), name="H1")
    H2 = SampledFunction1D(grids[1], _cumulative_from_base(h2p, grids[1], base[1]), name="H2")
    H3 = SampledFunction1D(grids[2], _cumulative_from_base(h3p, grids[2], base[2]), name="H3")
    G0 = _monotone_path_outer(f, [H1, H2, H3])
    components = {"G0": G0, "H1": H1, "H2": H2, "H3": H3}
    residual = reconstruction_residual(f, components, verify_n)
    return RecoveryResult(
        kind="trivariate",
        components=components,
        base=base,
        residual=residual,
        residual_tol=residual_tol,
        separability_error=sep_err,
        verdict="success" if residual < residual_tol else "failure",
        notes=(f"components normalized to vanish at base {base}",),
    )


def _trivariate_separability(
    f: FunctionSpec, f1: Expr, f2: Expr, f3: Expr, base: Sequence[float], sep_tol: float
) -> float:
    """Check a(x1,x2) = a1~(x1)*a2~(x2) and b(x2,x3) = b3(x3)/a2~(x2) on
    33x33 grids through the base point; raises with the worst point."""
    g1 = np.linspace(f.box[0][0], f.box[0][1], 33)
    g2 = np.linspace(f.box[1][0], f.box[1][1], 33)
    g3 = np.linspace(f.box[2][0], f.box[2][1], 33)
    a_fn = compile_batch(f1 / f2, f.vars)
    b_fn = compile_batch(f2 / f3, f.vars)

    m1, m2 = np.meshgrid(g1, g2, indexing="ij")
    with np.errstate(all="ignore"):
        a_grid = a_fn(m1.ravel(), m2.ravel(), np.full(m1.size, base[2]))
    if not np.all(np.isfinite(a_grid)):
        raise PreconditionError("ratio f_1/f_2 is singular on the box")
    a1_line = _ratio_on_line(f1, f2, f, 0, base, g1)
    a_base = a1_line[np.searchsorted(g1, base[0]) if base[0] in g1 else 0]
    a2_line = _ratio_on_line(f1, f2, f, 1, base, g2) / _ratio_on_line(
        f1, f2, f, 0, base, np.array([base[0]])
    )[0]
    product = np.outer(a1_line, a2_line).ravel()
    scale_a = max(float(np.median(np.abs(a_grid))), 1e-12)
    dev_a = np.abs(a_grid - product)
    worst_a = float(dev_a.max())
    if worst_a > sep_tol * scale_a:
        i = int(np.argmax(dev_a))
        raise PreconditionError(
            f"ratio f_1/f_2 does not separate (deviation {worst_a:.3e} at "
            f"({m1.ravel()[i]:.6g}, {m2.ravel()[i]:.6g}, {base[2]:.6g}))"
        )

    m2b, m3 = np.meshgrid(g2, g3, indexing="ij")
    with np.errstate(all="ignore"):
        b_grid = b_fn(np.full(m2b.size, base[0]), m2b.ravel(), m3.ravel())
    if not np.all(np.isfinite(b_grid)):
        raise PreconditionError("ratio f_2/f_3 is singular on the box")
    b3_line = _ratio_on_line(f2, f3, f, 2, base, g3)
    predicted = np.outer(1.0 / a2_line, b3_line).ravel()
    scale_b = max(float(np.median(np.abs(b_grid))), 1e-12)
    dev_b = np.abs(b_grid - predicted)
    worst_b = float(dev_b.max())
    if worst_b > sep_tol * scale_b:
        i = int(np.argmax(dev_b))
        raise PreconditionError(
            f"ratio f_2/f_3 does not separate (deviation {worst_b:.3e} at "
            f"({base[0]:.6g}, {m2b.ravel()[i]:.6g}, {m3.ravel()[i]:.6g}))"
        )
    return max(worst_a / scale_a, worst_b / scale_b)
