"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (visible with pytest -s); a failed assertion
aborts the test before its line is printed.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from expandlab.degeneracy import (
    EXPANDING,
    SPECIAL_FORM,
    aux_trivariate,
    classify,
    thresholds,
    trivariate_J,
)
from expandlab.dimlab import (
    box_counts,
    covered_fraction,
    dim_estimate,
    image_quantize,
    naive_quantize_cells,
    power_ladder,
)
from expandlab.expr import FunctionSpec, compile_batch, const, evaluate, parse, simplify, var
from expandlab.foldgeom import DEGENERATE, FOLD_VERIFIED, det_Dg, det_Dg_numeric, fold_verify
from expandlab.fractal import digit_points
from expandlab.specialform import recover_bivariate, recover_trivariate

from test_degeneracy import sympy_identity
from test_dimlab import eight_cores  # noqa: F401  (a fixture)

BOX2 = ((0.5, 1.5), (0.5, 1.5))
BOX3 = ((0.5, 1.5),) * 3


def fs(text, names, box):
    return FunctionSpec(parse(text), tuple(names), tuple(box))


# ---------------------------------------------------------------------------
# 1. Threshold golden table (exact rational equality)
# ---------------------------------------------------------------------------


def test_criterion_1_threshold_golden_table():
    t0 = time.time()
    r = thresholds("bivariate-analytic")
    assert r.measure_bound == Fraction(5, 3)
    assert r.expansion_offset == Fraction(2, 3)

    r = thresholds("trivariate-analytic")
    assert r.measure_bound == Fraction(2)
    assert r.expansion_offset == Fraction(1)
    assert r.expansion_form == "sum > 1 + u"

    r = thresholds("general", k=2, p=1, alpha=2, beta=Fraction(1, 6))
    assert r.measure_bound == Fraction(5, 3)
    assert r.measure_bound == thresholds("bivariate-smooth").measure_bound

    for dx, dy, rr in ((2, 2, 2), (3, 2, 1), (4, 4, 3)):
        r = thresholds("two-point-rank", d_X=dx, d_Y=dy, r=rr)
        assert r.measure_bound == Fraction(dx + dy + 1 - rr)
        assert r.interior_bound == Fraction(dx + dy + 2 - rr)

    for alpha, m in ((3, 0), (4, 1), (5, 2)):
        r = thresholds("k-point", alpha=alpha, m=m)
        assert r.measure_bound == Fraction(alpha, 2) + Fraction(m, 2) + Fraction(1, 2)

    for dx, dy, m in ((1, 1, 0), (2, 3, 1), (4, 4, 0)):
        r = thresholds("two-point", d_X=dx, d_Y=dy, m=m)
        measure = Fraction(dx + dy, 2) + Fraction(m, 2) + Fraction(1, 2)
        assert r.measure_bound == measure
        assert r.interior_bound == measure + 1

    for d in (2, 3, 5):
        r = thresholds("distance-surface", d=d)
        assert r.measure_bound == Fraction(d)
        assert r.expansion_offset == Fraction(d - 1)

    elapsed = time.time() - t0
    assert elapsed < 1.0, f"threshold table took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 (threshold golden table): PASS ({elapsed * 1000:.0f} ms)")


# ---------------------------------------------------------------------------
# 2. Classifier corpus: 16/16
# ---------------------------------------------------------------------------

SPECIAL_CASES = [
    ("x + y", ("x", "y"), BOX2),
    ("x*y", ("x", "y"), BOX2),
    ("x + y + x*y", ("x", "y"), BOX2),
    ("x^2*y", ("x", "y"), BOX2),
    ("(x + y^2)^3", ("x", "y"), BOX2),
    ("x + y + z", ("x", "y", "z"), BOX3),
    ("x*y*z", ("x", "y", "z"), ((1, 2),) * 3),
    ("exp(x + y^2 + z^3)", ("x", "y", "z"), BOX3),
]

EXPANDING_CASES = [
    ("x^2 + x*y", ("x", "y"), BOX2),
    ("x*y + y^2", ("x", "y"), BOX2),
    ("x*(y + z)", ("x", "y", "z"), BOX3),
    ("x*y + z", ("x", "y", "z"), BOX3),
    ("x*y + y*z + z*x", ("x", "y", "z"), BOX3),
    ("sin(x) + x*y", ("x", "y"), BOX2),
    ("x^2 + x*y + y^3", ("x", "y"), BOX2),
    ("x + y*z", ("x", "y", "z"), BOX3),
]


def test_criterion_2_classifier_corpus():
    t0 = time.time()
    for text, names, box in SPECIAL_CASES:
        report = classify(fs(text, names, box))
        assert report.classification == SPECIAL_FORM, text
    for text, names, box in EXPANDING_CASES:
        report = classify(fs(text, names, box))
        assert report.classification == EXPANDING, text
        assert report.witness_point is not None, text
        assert report.witness_value is not None and report.witness_value != 0.0, text
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"classifier corpus took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2 (classifier corpus 16/16): PASS ({elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# 3. Certificate identities
# ---------------------------------------------------------------------------


def _random_cubic3(rng):
    terms = [const(Fraction(int(rng.integers(-2, 3))))]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if 0 < i + j + k <= 3 and rng.random() < 0.5:
                    c = const(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3))))
                    term = c
                    for v, p in (("x", i), ("y", j), ("z", k)):
                        for _ in range(p):
                            term = term * var(v)
                    terms.append(term)
    e = terms[0]
    for t in terms[1:]:
        e = e + t
    return simplify(e)


def test_criterion_3_certificate_identities():
    rng = np.random.default_rng(12345)
    checked_polys = 0
    while checked_polys < 20:
        f = FunctionSpec(_random_cubic3(rng), ("x", "y", "z"), BOX3)
        gs = aux_trivariate(f)
        # the identity G3 = G1 - G2 holds symbolically for every function
        assert sympy_identity(gs[2] - gs[0] + gs[1])
        pair_checked = False
        for i in (1, 2, 3):
            J = trivariate_J(f, i)
            g = gs[i - 1]
            for _ in range(20):
                point = {v: float(rng.uniform(0.5, 1.5)) for v in ("x", "y", "z")}
                point.update(
                    {v + "'": float(rng.uniform(0.5, 1.5)) for v in ("x", "y", "z")}
                )
                det = float(np.linalg.det(J.evaluate(point)))
                gx = evaluate(g, {k: v for k, v in point.items() if "'" not in k})
                gy = evaluate(g, {k[:-1]: v for k, v in point.items() if "'" in k})
                expected = -gx * gy
                scale = max(abs(det), abs(expected))
                if scale < 1e-9:
                    assert abs(det - expected) < 1e-9
                else:
                    assert abs(det - expected) / scale < 1e-9
                    pair_checked = True
        if pair_checked:
            checked_polys += 1
    # identity also on the trivariate corpus functions
    for text, names, box in SPECIAL_CASES + EXPANDING_CASES:
        if len(names) != 3:
            continue
        gs = aux_trivariate(fs(text, names, box))
        assert sympy_identity(gs[2] - gs[0] + gs[1]), text
    print("\nACCEPTANCE 3 (certificate identities): PASS")


# ---------------------------------------------------------------------------
# 4. Fold verification
# ---------------------------------------------------------------------------


def _fold_suite(f: FunctionSpec, base, expected_dx):
    report = fold_verify(f, base, theta=1.0)
    assert report.verdict == FOLD_VERIFIED
    assert abs(report.det_residual) < 1e-10
    assert report.dx_det_formula == pytest.approx(expected_dx, rel=1e-12)
    assert report.dx_det_rel_err < 1e-4
    # closed-form vs assembled finite-difference determinant, off-critical
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 100:
        x = float(rng.uniform(0.8, 1.2))
        yp = float(rng.uniform(0.8, 1.2))
        xp = float(rng.uniform(0.8, 1.2))
        th = float(rng.uniform(0.5, 2.0))
        closed = det_Dg(f, x, yp, xp, th, y_guess=base[1])
        if abs(closed) < 1e-8:
            continue
        fd = det_Dg_numeric(f, x, yp, xp, th, y_guess=base[1])
        assert abs(closed - fd) / max(abs(closed), abs(fd)) < 1e-5
        checked += 1


def test_criterion_4_fold_verification():
    _fold_suite(fs("x^2 + x*y", ("x", "y"), BOX2), (1.0, 1.0), 2.0)
    _fold_suite(fs("x*y + y^2", ("x", "y"), BOX2), (1.0, 1.0), -2.0 / 9.0)
    report = fold_verify(fs("x*y", ("x", "y"), ((1, 2),) * 2), (1.5, 1.5), 1.0)
    assert report.verdict == DEGENERATE
    assert report.reason == "κ=0"
    print("\nACCEPTANCE 4 (fold verification): PASS")


# ---------------------------------------------------------------------------
# 5. Recovery round-trips
# ---------------------------------------------------------------------------


def _random_special_form(rng):
    def monotone_cubic(v):
        p = Fraction(int(rng.integers(5, 15)), 10)
        q = Fraction(int(rng.integers(0, 10)), 10)
        s = Fraction(int(rng.integers(0, 10)), 10)
        t = var(v)
        return const(p) * t + const(q) * (t - const(s)) ** 3 / 3

    h = monotone_cubic("x")
    k = monotone_cubic("y")
    inner = h + k
    fn = compile_batch(inner, ("x", "y"))
    g = np.linspace(0, 1, 33)
    mx, my = np.meshgrid(g, g, indexing="ij")
    lo = float(fn(mx.ravel(), my.ravel()).min())
    p = Fraction(int(rng.integers(5, 15)), 10)
    a = Fraction(int(rng.integers(1, 5)), 10)
    s = Fraction(lo).limit_denominator(100) - Fraction(int(rng.integers(2, 10)), 10)
    expr = const(p) * inner + const(a) * (inner - const(s)) ** 5 / 5
    return FunctionSpec(expr, ("x", "y"), ((0.0, 1.0), (0.0, 1.0)))


def test_criterion_5_recovery_round_trips():
    t0 = time.time()
    r = recover_bivariate(fs("(x + y^2)^3", ("x", "y"), BOX2))
    assert r.residual < 1e-6, f"(x+y^2)^3 residual {r.residual:.3e}"

    r = recover_trivariate(fs("x*y*z", ("x", "y", "z"), ((1, 2),) * 3), base=(1, 1, 1))
    assert r.residual < 1e-6, f"xyz residual {r.residual:.3e}"

    r = recover_trivariate(fs("exp(x + y^2 + z^3)", ("x", "y", "z"), BOX3))
    assert r.residual < 1e-6, f"exp residual {r.residual:.3e}"

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        f = _random_special_form(rng)
        rr = recover_bivariate(f)
        worst = max(worst, rr.residual)
        assert rr.residual < 1e-5, f"round-trip residual {rr.residual:.3e}"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"recovery suite took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 5 (recovery round-trips, worst random residual "
        f"{worst:.2e}): PASS ({elapsed:.1f} s)"
    )


# ---------------------------------------------------------------------------
# 6. Dimension estimator calibration
# ---------------------------------------------------------------------------


def test_criterion_6_dimension_estimator_calibration():
    t0 = time.time()
    mt14 = digit_points(3, [0, 2], 14)
    counts = box_counts(mt14, power_ladder(3, 1, 14))
    est = dim_estimate(counts, fit_window=(Fraction(1, 3**12), Fraction(1, 3**4)))
    assert 0.61 <= est.slope <= 0.65, est.slope

    b12 = digit_points(4, [0, 1], 12)
    est2 = dim_estimate(
        box_counts(b12, power_ladder(4, 1, 12)),
        fit_window=(Fraction(1, 4**10), Fraction(1, 4**2)),
    )
    assert 0.48 <= est2.slope <= 0.52, est2.slope

    f = fs("x + y", ("x", "y"), ((0, 1), (0, 1)))
    q = image_quantize(f, [b12, b12], delta_min=2.0**-24, value_range=(0.0, 2.0), threads=4)
    est3 = dim_estimate(box_counts(q, [2.0**-k for k in range(4, 21)]))
    truth = math.log(3) / math.log(4)
    assert abs(est3.slope - truth) < 0.05, est3.slope
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"estimator calibration took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 6 (estimator calibration: {est.slope:.4f}, {est2.slope:.4f}, "
        f"{est3.slope:.4f} vs {truth:.4f}): PASS ({elapsed:.1f} s)"
    )


# ---------------------------------------------------------------------------
# 7. Expansion predicate
# ---------------------------------------------------------------------------


def test_criterion_7_expansion_predicate():
    b12 = digit_points(4, [0, 1], 12)
    f = fs("x^2 + x*y", ("x", "y"), ((0, 1), (0, 1)))
    q = image_quantize(f, [b12, b12], delta_min=2.0**-24, threads=4)
    est = dim_estimate(box_counts(q, [2.0**-k for k in range(4, 21)]))
    bound = thresholds("bivariate-analytic").dim_lower_bound([Fraction(1, 2), Fraction(1, 2)])
    assert bound == Fraction(1, 3)
    assert est.slope >= float(bound) - 0.05, est.slope

    # sum over the middle-thirds construction tiles [0, 2]: full coverage at
    # the scale just above the construction level (left-endpoint anchors)
    mt = digit_points(3, [0, 2], 11)
    fsum = fs("x + y", ("x", "y"), ((0, 1), (0, 1)))
    q2 = image_quantize(fsum, [mt, mt], delta_min=float(Fraction(1, 3**11)), value_range=(0, 2))
    frac = covered_fraction(q2, 3 * float(Fraction(1, 3**11)))
    assert frac >= 0.99, frac
    print(
        f"\nACCEPTANCE 7 (expansion predicate: slope {est.slope:.3f} >= 1/3 - 0.05, "
        f"coverage {frac:.4f}): PASS"
    )


# ---------------------------------------------------------------------------
# 8. Determinism & parallel exactness
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("eight_cores")
def test_criterion_8_determinism_and_parallel_exactness():
    mt10 = digit_points(3, [0, 2], 10)  # 2^20 tuples
    f = fs("x + y", ("x", "y"), ((0, 1), (0, 1)))
    delta = float(Fraction(1, 3**10))
    qs = {
        t: image_quantize(f, [mt10, mt10], delta_min=delta, value_range=(0, 2), threads=t)
        for t in (1, 4, 8)
    }
    assert qs[1].bit_identical(qs[4])
    assert qs[1].bit_identical(qs[8])

    # streaming equals naive enumeration exactly on products <= 2^16
    cases = [
        (f, [digit_points(3, [0, 2], 6)] * 2),  # 4096 tuples
        (f, [digit_points(2, [0, 1], 8)] * 2),  # 2^16 tuples
        (
            fs("x*y + y^2", ("x", "y"), ((0, 1), (0, 1))),
            [digit_points(2, [0, 1], 7), digit_points(3, [0, 2], 4)],
        ),
        (
            fs("x*y + z", ("x", "y", "z"), ((0, 1),) * 3),
            [digit_points(2, [0, 1], 5)] * 3,
        ),
    ]
    for func, sets in cases:
        q = image_quantize(func, sets, delta_min=1e-4)
        naive = naive_quantize_cells(func, sets, q.lo, q.delta_min, q.ncells)
        assert q.occupied_cells().tolist() == naive
        assert q.population == len(naive)
    print("\nACCEPTANCE 8 (determinism & parallel exactness): PASS")
