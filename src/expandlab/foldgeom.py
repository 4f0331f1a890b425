"""Numerical verification of the fold geometry attached to a bivariate f.

The incidence relation {f(x, y) = f(x', y')} is locally the graph of an
implicit function y = phi(x, y', x').  The local projection

    g(x, y', x', theta) = (x, y', theta*f_x(x, phi), -theta*f_{y'}(x', y'))

has determinant

    det(Dg) = theta * f_xy(x, phi) * f_xy(x', y') / f_y(x, phi)
                    * [ rho(x, phi) - rho(x', y') ]

so its critical set is the diagonal slice, where det(Dg) vanishes.  At a
critical point the x-derivative of det(Dg) equals -theta*(f_xy/f_y)^2*kappa,
and the kernel direction (0, 0, (f_y/f_xy)*tau, tau) is transverse to the
critical set; together these certify a fold (the mildest stable singularity)
whenever kappa is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .degeneracy import kappa
from .errors import NewtonDivergenceError, NumericalError
from .expr import (
    DomainError,
    FunctionSpec,
    ZeroPolicy,
    compile_scalar,
    differentiate,
    evaluate,
    is_identically_zero,
)
from .jsonutil import jsonable
from .sampling import Stream

__all__ = [
    "FoldReport",
    "det_Dg",
    "det_Dg_numeric",
    "fold_verify",
    "implicit_phi",
    "phi_partials_check",
]

FOLD_VERIFIED = "fold_verified"
DEGENERATE = "degenerate"

_PHI_TOL = 1e-12
_PHI_MAX_ITER = 50
_DERIV_FLOOR = 1e-10
# fold_verify's thresholds: |det| at the critical slice, the relative error of
# its x-derivative against the closed form, and the floor on f_xy, f_y and
# the transversality scalar; then the agreement check's sample count
_RESID_TOL = 1e-10
_DERIV_REL_TOL = 1e-4
_TRANS_TOL = 1e-8
_AGREEMENT_SAMPLES = 20


def _partials(f: FunctionSpec):
    x, y = f.vars
    fx = f.partial(0)
    fy = f.partial(1)
    fxy = differentiate(fx, y)
    return fx, fy, fxy


def implicit_phi(
    f: FunctionSpec,
    x: float,
    y_prime: float,
    x_prime: float,
    y_guess: float,
) -> float:
    """Solve f(x, y) = f(x', y') for y by Newton iteration from y_guess.

    At a diagonal seed (x' = x, y' = y_guess) the residual is already zero
    and y_guess is returned unchanged."""
    _require_bivariate(f)
    fn = compile_scalar(f.expr, f.vars)
    fy = compile_scalar(f.partial(1), f.vars)
    target = fn(x_prime, y_prime)
    scale = max(1.0, abs(target))
    y = float(y_guess)
    for _ in range(_PHI_MAX_ITER):
        r = fn(x, y) - target
        if abs(r) < _PHI_TOL * scale:
            return y
        d = fy(x, y)
        if abs(d) < _DERIV_FLOOR:
            raise NewtonDivergenceError(
                f"f_y = {d:.3e} below {_DERIV_FLOOR} at (x={x}, y={y})"
            )
        y -= r / d
    raise NewtonDivergenceError(
        f"no convergence after {_PHI_MAX_ITER} steps at (x={x}, y'={y_prime}, x'={x_prime})"
    )


def _require_bivariate(f: FunctionSpec):
    if f.arity != 2:
        raise ValueError("fold geometry requires a function of 2 variables")


def phi_partials_check(
    f: FunctionSpec,
    x: float,
    y_prime: float,
    x_prime: float,
    y_guess: float | None = None,
    h: float | None = None,
) -> float:
    """Compare finite-difference partials of the implicit function against
    phi_x = -f_x/f_y, phi_{y'} = f_{y'}/f_y, phi_{x'} = f_{x'}/f_y
    (first-copy derivatives at (x, phi), second-copy at (x', y')).
    Returns the maximum relative error."""
    _require_bivariate(f)
    if h is None:
        h = 1e-5 * min(f.widths())
    seed = y_prime if y_guess is None else y_guess
    phi0 = implicit_phi(f, x, y_prime, x_prime, seed)
    fx = compile_scalar(f.partial(0), f.vars)
    fy = compile_scalar(f.partial(1), f.vars)
    fy_at = fy(x, phi0)
    analytic = (
        -fx(x, phi0) / fy_at,
        fy(x_prime, y_prime) / fy_at,
        fx(x_prime, y_prime) / fy_at,
    )

    def phi_at(xx, yy_p, xx_p):
        return implicit_phi(f, xx, yy_p, xx_p, phi0)

    fd = (
        (phi_at(x + h, y_prime, x_prime) - phi_at(x - h, y_prime, x_prime)) / (2 * h),
        (phi_at(x, y_prime + h, x_prime) - phi_at(x, y_prime - h, x_prime)) / (2 * h),
        (phi_at(x, y_prime, x_prime + h) - phi_at(x, y_prime, x_prime - h)) / (2 * h),
    )
    errs = [abs(a - b) / max(abs(a), abs(b), 1e-12) for a, b in zip(analytic, fd)]
    return max(errs)


def det_Dg(
    f: FunctionSpec,
    x: float,
    y_prime: float,
    x_prime: float,
    theta: float,
    y_guess: float | None = None,
) -> float:
    """Closed-form det(Dg) at the configuration (x, y', x', theta)."""
    _require_bivariate(f)
    seed = y_prime if y_guess is None else y_guess
    phi0 = implicit_phi(f, x, y_prime, x_prime, seed)
    fx = compile_scalar(f.partial(0), f.vars)
    fy = compile_scalar(f.partial(1), f.vars)
    fxy = compile_scalar(differentiate(f.partial(0), f.vars[1]), f.vars)

    def rho_at(a, b):
        den = fxy(a, b)
        if den == 0.0:
            raise NumericalError(f"f_xy vanishes at ({a}, {b})")
        return fx(a, b) * fy(a, b) / den

    fy1 = fy(x, phi0)
    if fy1 == 0.0:
        raise NumericalError(f"f_y vanishes at ({x}, {phi0})")
    factor = fxy(x, phi0) * fxy(x_prime, y_prime) / fy1
    return theta * factor * (rho_at(x, phi0) - rho_at(x_prime, y_prime))


def det_Dg_numeric(
    f: FunctionSpec,
    x: float,
    y_prime: float,
    x_prime: float,
    theta: float,
    y_guess: float | None = None,
    h: float | None = None,
) -> float:
    """Determinant of the 4x4 Jacobian of g assembled by central finite
    differences; the independent cross-check of the closed form."""
    _require_bivariate(f)
    if h is None:
        h = 1e-5 * min(f.widths())
    seed = y_prime if y_guess is None else y_guess
    phi0 = implicit_phi(f, x, y_prime, x_prime, seed)
    fx = compile_scalar(f.partial(0), f.vars)
    fy = compile_scalar(f.partial(1), f.vars)

    def g(cfg: Sequence[float]) -> np.ndarray:
        xx, yp, xp, th = cfg
        ph = implicit_phi(f, xx, yp, xp, phi0)
        return np.array([xx, yp, th * fx(xx, ph), -th * fy(xp, yp)])

    base = np.array([x, y_prime, x_prime, theta], dtype=float)
    jac = np.empty((4, 4))
    steps = (h, h, h, 1e-5 * max(1.0, abs(theta)))
    for j in range(4):
        up = base.copy()
        dn = base.copy()
        up[j] += steps[j]
        dn[j] -= steps[j]
        jac[:, j] = (g(up) - g(dn)) / (2 * steps[j])
    return float(np.linalg.det(jac))


@dataclass(frozen=True)
class FoldReport:
    base: tuple[float, float]
    theta: float
    verdict: str
    reason: str | None
    det_residual: float | None = None
    dx_det_fd: float | None = None
    dx_det_formula: float | None = None
    dx_det_rel_err: float | None = None
    transversality: float | None = None
    agreement_rel_err: float | None = None
    agreement_samples: int = 0

    @property
    def verified(self) -> bool:
        return self.verdict == FOLD_VERIFIED

    def to_json_dict(self) -> dict:
        return jsonable(
            {
                "base": self.base,
                "theta": self.theta,
                "verdict": self.verdict,
                "reason": self.reason,
                "det_residual": self.det_residual,
                "dx_det_fd": self.dx_det_fd,
                "dx_det_formula": self.dx_det_formula,
                "dx_det_rel_err": self.dx_det_rel_err,
                "transversality": self.transversality,
                "agreement_rel_err": self.agreement_rel_err,
                "agreement_samples": self.agreement_samples,
            }
        )


def fold_verify(
    f: FunctionSpec,
    base: tuple[float, float],
    theta: float = 1.0,
    policy: ZeroPolicy = ZeroPolicy(),
) -> FoldReport:
    """Verify the fold certificate at a base point:

      (a) det(Dg) vanishes at the diagonal critical configuration,
      (b) the finite-difference x-derivative of det(Dg) there matches
          -theta*(f_xy/f_y)^2*kappa and is nonzero,
      (c) f_y/f_xy is bounded away from zero (kernel transversality).

    Also cross-checks the closed-form determinant against the assembled 4x4
    finite-difference Jacobian at 20 random off-critical configurations,
    drawn from the stream of policy.seed."""
    _require_bivariate(f)
    x0, y0 = float(base[0]), float(base[1])
    if not f.contains((x0, y0)):
        raise ValueError(f"base {base} outside the declared box")
    fx_e, fy_e, fxy_e = _partials(f)
    point = dict(zip(f.vars, (x0, y0)))
    fy0 = evaluate(fy_e, point)
    fxy0 = evaluate(fxy_e, point)
    if abs(fxy0) < _TRANS_TOL:
        return FoldReport(base=(x0, y0), theta=theta, verdict=DEGENERATE, reason="f_xy=0")
    if abs(fy0) < _TRANS_TOL:
        return FoldReport(base=(x0, y0), theta=theta, verdict=DEGENERATE, reason="f_y=0")

    k = kappa(f, policy)
    if is_identically_zero(k, f.box, f.vars, policy).is_zero:
        return FoldReport(base=(x0, y0), theta=theta, verdict=DEGENERATE, reason="κ=0")
    kap0 = evaluate(k, point)
    if abs(kap0) < 1e-10:
        return FoldReport(
            base=(x0, y0), theta=theta, verdict=DEGENERATE, reason="κ vanishes at base"
        )

    # (a) diagonal configuration is critical
    resid = det_Dg(f, x0, y0, x0, theta, y_guess=y0)

    # (b) first-order vanishing with the predicted derivative
    hx = 1e-5 * f.widths()[0]
    dplus = det_Dg(f, x0 + hx, y0, x0, theta, y_guess=y0)
    dminus = det_Dg(f, x0 - hx, y0, x0, theta, y_guess=y0)
    dx_fd = (dplus - dminus) / (2 * hx)
    dx_formula = -theta * (fxy0 / fy0) ** 2 * kap0
    dx_rel = abs(dx_fd - dx_formula) / max(abs(dx_formula), abs(dx_fd), 1e-300)

    # (c) kernel transversality scalar
    trans = fy0 / fxy0

    agreement, used = _agreement_check(f, (x0, y0), theta, policy.seed)

    ok = (
        abs(resid) < _RESID_TOL
        and dx_rel < _DERIV_REL_TOL
        and abs(dx_fd) > _TRANS_TOL
        and abs(trans) > _TRANS_TOL
    )
    return FoldReport(
        base=(x0, y0),
        theta=theta,
        verdict=FOLD_VERIFIED if ok else DEGENERATE,
        reason=None if ok else "fold conditions not met",
        det_residual=resid,
        dx_det_fd=dx_fd,
        dx_det_formula=dx_formula,
        dx_det_rel_err=dx_rel,
        transversality=trans,
        agreement_rel_err=agreement,
        agreement_samples=used,
    )


def _agreement_check(
    f: FunctionSpec, base: tuple[float, float], theta: float, seed: int
) -> tuple[float | None, int]:
    """Max relative error between closed-form and finite-difference det(Dg)
    over random off-critical configurations near the base point."""
    rng = Stream(seed)
    (xlo, xhi), (ylo, yhi) = f.box
    wx, wy = f.widths()
    x0, y0 = base
    worst = 0.0
    used = 0
    attempts = 0
    while used < _AGREEMENT_SAMPLES and attempts < 20 * _AGREEMENT_SAMPLES:
        attempts += 1
        x = float(np.clip(x0 + rng.uniform(-0.15, 0.15) * wx, xlo, xhi))
        yp = float(np.clip(y0 + rng.uniform(-0.15, 0.15) * wy, ylo, yhi))
        xp = float(np.clip(x0 + rng.uniform(-0.15, 0.15) * wx, xlo, xhi))
        th = float(rng.uniform(0.5, 2.0)) * theta
        try:
            closed = det_Dg(f, x, yp, xp, th, y_guess=y0)
            if abs(closed) < 1e-8:
                continue  # too close to the critical set for a relative check
            fd = det_Dg_numeric(f, x, yp, xp, th, y_guess=y0)
        except (NewtonDivergenceError, NumericalError, DomainError):
            continue
        worst = max(worst, abs(closed - fd) / max(abs(closed), abs(fd)))
        used += 1
    return (worst if used else None), used
