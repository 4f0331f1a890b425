"""Constructive recovery of special-form decompositions.

When the degeneracy certificates of f vanish identically the first-order
ratio equations separate:

    bivariate:   f_x / f_y = h'(x) / k'(y)
    trivariate:  f_1 / f_2 = a1~(x1) * a2~(x2),   f_2 / f_3 = b3(x3) / a2~(x2)

so the inner components are recovered by one-dimensional quadrature of the
separated factors from a base point, and the outer component is read off by
sampling f along a path on which the inner sum is strictly monotone (the
box diagonal between the corners minimizing and maximizing the sum).  All
components are returned as sampled functions with not-a-knot cubic
interpolation; the reconstruction residual on a verification grid, relative
to the function's size there, is the success criterion.

Gauge freedom: components are normalized to vanish at the base point; any
affine regauging H_i -> c*H_i + d_i with the matching outer reparametrization
reproduces the same reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .degeneracy import AdditiveDegeneracyError, aux_trivariate, kappa
from .errors import NumericalError, PreconditionError, QuadratureError
from .expr import (
    Expr,
    FunctionSpec,
    ZeroPolicy,
    compile_batch,
    differentiate,
    free_vars,
    is_identically_zero,
    median,
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
    """Adaptive Gauss-Legendre integral of a univariate expression over [a, b].

    The integrand must be continuous and sign-stable on [a, b]; a sampled
    pre-check rejects sign changes and singularities."""
    extra = free_vars(e) - {var}
    if extra:
        raise ValueError(f"integrand depends on {sorted(extra)} besides {var!r}")
    if a > b:
        raise ValueError("require a <= b")
    if a == b:
        return 0.0
    fn = compile_batch(e, (var,))
    integrand = lambda t: _finite(fn(t), t, var, "integrand")
    xs = np.linspace(a, b, 65)
    vals = integrand(xs)
    if vals.max() > 0 and vals.min() < 0:
        i = int(np.argmin(np.abs(vals)))
        raise QuadratureError(f"integrand changes sign near {var}={xs[i]:.6g} on [{a}, {b}]")
    return float(_gauss_legendre(integrand, np.array([a]), np.array([b]), tol)[0])


def _finite(vals: np.ndarray, t: np.ndarray, var: str, what: str) -> np.ndarray:
    """vals, which must be finite; else QuadratureError at the first bad t."""
    bad = ~np.isfinite(vals)
    if np.any(bad):
        at = np.broadcast_to(t, np.shape(vals))[bad].flat[0]
        raise QuadratureError(f"{what} is singular at {var}={at:.6g}")
    return vals


# 16- and 8-point Gauss-Legendre rules on [-1, 1], evaluated in one batch:
# the 8-point value estimates the error of the 16-point one
_GL_NODES16, _GL_WEIGHTS16 = np.polynomial.legendre.leggauss(16)
_GL_NODES8, _GL_WEIGHTS8 = np.polynomial.legendre.leggauss(8)
_GL_NODES = np.concatenate((_GL_NODES16, _GL_NODES8))
# Rules that agree within 64 ulps of the cell's absolute integral agree up to
# rounding.  Where that noise exceeds the tolerance, halving the cell halves
# both, so without this floor a large integrand never converges.
_NOISE_ULPS = 64 * np.finfo(np.float64).eps
# Bounds on the refinement.  Near a pole the rounding of the node coordinates
# keeps the rules apart on ever more cells; the cell bound ends such a
# divergent integral before it takes the memory.
_MAX_ROUNDS = 50
_MAX_CELLS = 1 << 14


def _gauss_legendre(fn, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Integrals of the vectorized fn over the cells [lo[i], hi[i]].

    Each round evaluates both rules on every pending cell in one call of fn,
    keeps the 16-point value of the cells where the rules agree within tol
    or the rounding noise, and halves the others, with half the tolerance
    each."""
    out = np.zeros(len(lo))
    owner = np.arange(len(lo))
    for _ in range(_MAX_ROUNDS):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = fn((mid[:, None] + half[:, None] * _GL_NODES).ravel()).reshape(len(lo), -1)
        fine = half * np.sum(vals[:, :16] * _GL_WEIGHTS16, axis=1)
        coarse = half * np.sum(vals[:, 16:] * _GL_WEIGHTS8, axis=1)
        noise = _NOISE_ULPS * half * np.sum(np.abs(vals[:, :16]) * _GL_WEIGHTS16, axis=1)
        done = np.abs(fine - coarse) <= np.maximum(tol, noise)
        np.add.at(out, owner[done], fine[done])
        if np.all(done):
            return out
        split = ~done
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        owner = np.tile(owner[split], 2)
        tol = tol / 2
        if len(lo) > _MAX_CELLS:
            break
    raise QuadratureError(f"adaptive refinement exhausted on [{lo.min():.6g}, {hi.max():.6g}]")


def _cumulative_from_base(fn, grid: np.ndarray, base: float) -> np.ndarray:
    """Antiderivative values of the vectorized fn on the grid, normalized to
    vanish at base.  The grid cells and the piece from the grid node at or
    below base up to base are integrated together, to tolerance 1e-12."""
    n = len(grid)
    idx = min(max(int(np.searchsorted(grid, base)), 1), n - 1)
    lo = np.append(grid[:-1], grid[idx - 1])
    hi = np.append(grid[1:], base)
    pieces = _gauss_legendre(fn, lo, hi, 1e-12)
    cum = np.concatenate(([0.0], np.cumsum(pieces[:-1])))
    return cum - (cum[idx - 1] + pieces[-1])


# ---------------------------------------------------------------------------
# Sampled univariate functions
# ---------------------------------------------------------------------------


@dataclass
class SampledFunction1D:
    """A function known on a strictly increasing grid, interpolated by the
    not-a-knot cubic spline; arguments outside the grid are clipped to it."""

    grid: np.ndarray
    values: np.ndarray
    name: str = ""
    _coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be 1-D arrays of equal length")
        if len(self.grid) < 4:
            raise ValueError("need at least 4 samples")
        if not (np.all(np.isfinite(self.grid)) and np.all(np.isfinite(self.values))):
            raise ValueError(f"{self.name or 'sampled function'} has a non-finite grid point or value")
        if not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly increasing")
        h = np.diff(self.grid)
        m = np.diff(self.values) / h
        s = _not_a_knot_slopes(h, m)
        # local power-basis coefficients of each interval, highest degree first
        t = (s[:-1] + s[1:] - 2 * m) / h
        self._coeffs = np.stack((t / h, (m - s[:-1]) / h - t, s[:-1], self.values[:-1]))

    def __call__(self, x):
        clipped = np.clip(x, self.grid[0], self.grid[-1])
        i = np.clip(np.searchsorted(self.grid, clipped, side="right") - 1, 0, len(self.grid) - 2)
        t = clipped - self.grid[i]
        c3, c2, c1, c0 = self._coeffs[:, i]
        out = ((c3 * t + c2) * t + c1) * t + c0
        return float(out) if np.isscalar(x) else out


def _not_a_knot_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline with interval widths h and
    secant slopes m (de Boor, A Practical Guide to Splines, 1978, ch. IV).

    Each end row shares its outer slope's coefficient with its neighbour, so
    subtracting it leaves a diagonally dominant tridiagonal system in the
    interior slopes, solved by the Thomas algorithm in O(n)."""
    h0, h1, hb, ha = h[0], h[1], h[-2], h[-1]
    d0, d1 = h0 + h1, hb + ha
    r0 = ((h0 + 2 * d0) * h1 * m[0] + h0 * h0 * m[1]) / d0
    r1 = ((ha + 2 * d1) * hb * m[-1] + ha * ha * m[-2]) / d1
    # the row of interior node i, at list index i - 1, reads
    # h[i] s[i-1] + 2 (h[i-1] + h[i]) s[i] + h[i-1] s[i+1] = 3 (h[i] m[i-1] + h[i-1] m[i])
    sub, sup = h[1:].tolist(), h[:-1].tolist()
    diag = (2 * (h[:-1] + h[1:])).tolist()
    rhs = (3 * (h[1:] * m[:-1] + h[:-1] * m[1:])).tolist()
    diag[0] -= d0
    rhs[0] -= r0
    diag[-1] -= d1
    rhs[-1] -= r1
    k = len(diag)
    for j in range(1, k):
        w = sub[j] / diag[j - 1]
        diag[j] -= w * sup[j - 1]
        rhs[j] -= w * rhs[j - 1]
    s = [0.0] * (k + 2)
    s[k] = rhs[-1] / diag[-1]
    for j in range(k - 2, -1, -1):
        s[j + 1] = (rhs[j] - sup[j] * s[j + 2]) / diag[j]
    s[0] = (r0 - d0 * s[1]) / h1
    s[-1] = (r1 - d1 * s[-2]) / hb
    return np.array(s)


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
# the side of the grid on which recovery judges the reconstruction
_VERIFY_N = {"bivariate": 50, "trivariate": 20}
# the largest separability error, relative to the ratio's scale
_SEP_TOL = 1e-6


def reconstruction_residual(
    f: FunctionSpec, components: Mapping[str, SampledFunction1D], verify_n: int
) -> float:
    """Max |f - outer(sum of inner components)| on a verify_n^arity grid,
    relative to max(1, max |f|) there, so rounding on large values does not
    count as a reconstruction error."""
    kind = "bivariate" if f.arity == 2 else "trivariate"
    inner = [components[k] for k in _INNER_KEYS[kind]]
    outer = components[_OUTER_KEY[kind]]
    axes = _grids(f, verify_n)
    inner_vals = [s(ax) for s, ax in zip(inner, axes)]
    mesh = np.meshgrid(*inner_vals, indexing="ij")
    total = sum(mesh)
    recon = outer(total.ravel()).reshape(total.shape)
    grids = np.meshgrid(*axes, indexing="ij")
    fvals = f.evaluate_batch([g.ravel() for g in grids]).reshape(total.shape)
    return float(np.max(np.abs(fvals - recon)) / max(1.0, np.max(np.abs(fvals))))


def _line_ratio(num: Expr, den: Expr, f: FunctionSpec, axis: int, anchor: Sequence[float]):
    """num/den on the line through anchor parallel to the given axis, as a
    vectorized callable of that coordinate; raises QuadratureError where the
    ratio is not finite."""
    fn = compile_batch(num / den, f.vars)
    var = f.vars[axis]

    def ratio(t):
        t = np.asarray(t, dtype=np.float64)
        coords = [t if i == axis else float(c) for i, c in enumerate(anchor)]
        return _finite(fn(*coords), t, var, "partial-derivative ratio")

    return ratio


def _on_grid(fn, grid: np.ndarray, what: str) -> np.ndarray:
    """fn on the grid, where it must be finite."""
    try:
        return fn(grid)
    except QuadratureError:
        raise PreconditionError(f"{what} is singular on the grid") from None


def _sign_stable(fn, grid: np.ndarray, what: str) -> np.ndarray:
    """fn on the grid, where it must be finite, nonzero and of one sign."""
    vals = _on_grid(fn, grid, what)
    if vals.max() > 0 and vals.min() < 0:
        raise PreconditionError(f"{what} changes sign on the grid")
    if np.min(np.abs(vals)) == 0.0:
        raise PreconditionError(f"{what} vanishes on the grid")
    return vals


def _monotone_path_outer(f: FunctionSpec, inner: Sequence[SampledFunction1D]) -> SampledFunction1D:
    """Sample the outer component at 2049 points of the box diagonal from
    the corner minimizing the inner sum to the corner maximizing it.  Each
    inner component is monotone, so the sum is strictly monotone along the
    path and covers exactly the range the sum attains on the box."""
    starts, ends = [], []
    for s, (lo, hi) in zip(inner, f.box):
        if s.values[-1] >= s.values[0]:
            starts.append(lo)
            ends.append(hi)
        else:
            starts.append(hi)
            ends.append(lo)
    t = np.linspace(0.0, 1.0, 2049)
    coords = [s0 + t * (e0 - s0) for s0, e0 in zip(starts, ends)]
    sigma = sum(s(c) for s, c in zip(inner, coords))
    if not np.all(np.diff(sigma) > 0):
        raise NumericalError("inner sum is not strictly monotone along the sampling path")
    fvals = f.evaluate_batch(coords)
    return SampledFunction1D(sigma, fvals, name="outer")


def _grids(f: FunctionSpec, n: int) -> list[np.ndarray]:
    return [np.linspace(lo, hi, n) for lo, hi in f.box]


def _recovered(kind, f, derivs, grids, base, sep_err, residual_tol) -> RecoveryResult:
    """Check the inner derivatives on the grids, integrate them from the base
    point, sample the outer component and judge the reconstruction."""
    names = _INNER_KEYS[kind]
    for fn, grid, name in zip(derivs, grids, names):
        _sign_stable(fn, grid, f"{name}'")
    inner = [
        SampledFunction1D(grid, _cumulative_from_base(fn, grid, b), name=name)
        for fn, grid, b, name in zip(derivs, grids, base, names)
    ]
    components = {_OUTER_KEY[kind]: _monotone_path_outer(f, inner), **dict(zip(names, inner))}
    residual = reconstruction_residual(f, components, _VERIFY_N[kind])
    return RecoveryResult(
        kind=kind,
        components=components,
        base=base,
        residual=residual,
        residual_tol=residual_tol,
        separability_error=sep_err,
        verdict="success" if residual < residual_tol else "failure",
        notes=(f"components normalized to vanish at base {base}",),
    )


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
    residual_tol: float = 1e-6,
    policy: ZeroPolicy = ZeroPolicy(),
) -> RecoveryResult:
    """Recover g, h, k with f = g(h(x) + k(y)) on the box.

    Uses q = f_x/f_y: h'(x) is q along the base row, k'(y) the reciprocal
    ratio along the base column; h and k follow by quadrature from the base
    point and g by sampling f against the recovered inner sum."""
    if f.arity != 2:
        raise ValueError("recover_bivariate requires 2 variables")
    base = _verify_base(f, base)
    _require_special_bivariate(f, policy)
    x, y = f.vars
    fx, fy = f.partial(0), f.partial(1)

    # separability of q = f_x/f_y: the mixed log-derivative must vanish;
    # in terms of partials of f,
    #   dxdy log q = (f_xxy f_x - f_xy f_xx)/f_x^2 - (f_xyy f_y - f_yy f_xy)/f_y^2
    fxy, fxx, fyy = differentiate(fx, y), differentiate(fx, x), differentiate(fy, y)
    fxxy, fxyy = differentiate(fxy, x), differentiate(fxy, y)
    sep_expr = (fxxy * fx - fxy * fxx) / (fx * fx) - (fxyy * fy - fyy * fxy) / (fy * fy)
    mx, my = (m.ravel() for m in np.meshgrid(*_grids(f, 33), indexing="ij"))
    sep_vals = compile_batch(sep_expr, f.vars)(mx, my)
    q_vals = compile_batch(fx / fy, f.vars)(mx, my)
    if not np.all(np.isfinite(sep_vals)) or not np.all(np.isfinite(q_vals)):
        raise PreconditionError("f_x/f_y is singular on the box")
    logq = np.log(np.abs(q_vals))
    scale = max(1.0, median(np.abs(logq)))
    sep_err = float(np.max(np.abs(sep_vals)))
    if sep_err > _SEP_TOL * scale:
        i = int(np.argmax(np.abs(sep_vals)))
        raise PreconditionError(
            f"ratio f_x/f_y does not separate: mixed log-derivative {sep_vals[i]:.3e} "
            f"at ({mx[i]:.6g}, {my[i]:.6g})"
        )

    # h'(x) = q(x, y0) and k'(y) = q(x0, y0) / q(x0, y)
    hp = _line_ratio(fx, fy, f, 0, base)
    q_base = _sign_stable(hp, np.array([base[0]]), "h'")[0]
    q_col_inv = _line_ratio(fy, fx, f, 1, base)
    kp = lambda t: q_base * q_col_inv(t)
    return _recovered("bivariate", f, (hp, kp), _grids(f, grid_n), base, sep_err, residual_tol)


# ---------------------------------------------------------------------------
# Trivariate recovery: f = G0(H1(x1) + H2(x2) + H3(x3))
# ---------------------------------------------------------------------------


def recover_trivariate(
    f: FunctionSpec,
    base: Sequence[float] | None = None,
    grid_n: int = 257,
    residual_tol: float = 1e-6,
    policy: ZeroPolicy = ZeroPolicy(),
) -> RecoveryResult:
    """Recover G0, H1, H2, H3 with f = G0(H1(x1) + H2(x2) + H3(x3)).

    The ratio a = f_1/f_2 separates as a1~(x1)*a2~(x2) and b = f_2/f_3 as
    b3(x3)/a2~(x2); the inner derivatives are H1' = a1~, H2' = 1/a2~,
    H3' = 1/b3 (each normalized at the base point), integrated by batched
    Gauss-Legendre quadrature."""
    if f.arity != 3:
        raise ValueError("recover_trivariate requires 3 variables")
    base = _verify_base(f, base)
    _require_special_trivariate(f, policy)
    f1, f2, f3 = (f.partial(i) for i in range(3))

    # inner derivatives along the lines through the base point x^0:
    # H1' = a1~ = a(x1, x2^0, x3^0), H2' = 1/a2~ = a(x^0) / a(x1^0, x2, x3^0)
    # and H3' = 1/b3 = (f_3/f_2)(x1^0, x2^0, x3)
    h1p = _line_ratio(f1, f2, f, 0, base)
    a_base = _sign_stable(h1p, np.array([base[0]]), "H1'")[0]
    a_col_inv = _line_ratio(f2, f1, f, 1, base)
    h2p = lambda t: a_base * a_col_inv(t)
    h3p = _line_ratio(f3, f2, f, 2, base)
    derivs = (h1p, h2p, h3p)
    sep_err = _trivariate_separability(f, derivs, base)
    return _recovered("trivariate", f, derivs, _grids(f, grid_n), base, sep_err, residual_tol)


def _trivariate_separability(f: FunctionSpec, derivs, base: Sequence[float]) -> float:
    """Check f_1/f_2 = H1'(x1)/H2'(x2) and f_2/f_3 = H2'(x2)/H3'(x3) on
    33x33 grids through the base point; raises with the worst point."""
    grids = _grids(f, 33)
    d = [_on_grid(fn, g, f"H{i}'") for i, (fn, g) in enumerate(zip(derivs, grids), start=1)]
    worst = 0.0
    for i, j, fixed in ((0, 1, 2), (1, 2, 0)):
        coords = [float(base[fixed])] * 3
        coords[i], coords[j] = (m.ravel() for m in np.meshgrid(grids[i], grids[j], indexing="ij"))
        ratio = compile_batch(f.partial(i) / f.partial(j), f.vars)(*coords)
        what = f"ratio f_{i + 1}/f_{j + 1}"
        if not np.all(np.isfinite(ratio)):
            raise PreconditionError(f"{what} is singular on the box")
        scale = max(median(np.abs(ratio)), 1e-12)
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.abs(ratio - np.outer(d[i], 1.0 / d[j]).ravel())
        k = int(np.argmax(dev))  # the first NaN, if any
        if not dev[k] <= _SEP_TOL * scale:
            at = ", ".join(f"{c if np.isscalar(c) else c[k]:.6g}" for c in coords)
            raise PreconditionError(f"{what} does not separate (deviation {dev[k]:.3e} at ({at}))")
        worst = max(worst, float(dev[k]) / scale)
    return worst
