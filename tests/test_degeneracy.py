"""Tests for certificates, matrices, classification, thresholds, sampling."""

import re
from fractions import Fraction

import numpy as np
import pytest
import sympy

from expandlab.degeneracy import (
    EXPANDING,
    SPECIAL_FORM,
    AdditiveDegeneracyError,
    ExprMatrix,
    assemble_J,
    aux_trivariate,
    classify,
    gamma_nondegenerate,
    kappa,
    mixed_hessian,
    monge_ampere,
    numeric_corank,
    rho,
    surface_distance_check,
    thresholds,
    trivariate_J,
    two_point_J,
)
from expandlab.errors import RankDeficientError
from expandlab.expr import (
    FunctionSpec,
    _program,
    const,
    differentiate,
    evaluate,
    is_identically_zero,
    parse,
    simplify,
    to_string,
    var,
)


def fs2(text, box=((0.5, 1.5), (0.5, 1.5))):
    return FunctionSpec(parse(text), ("x", "y"), box)


def fs3(text, box=((0.5, 1.5),) * 3):
    return FunctionSpec(parse(text), ("x", "y", "z"), box)


def sympy_identity(a, b=const(0)) -> bool:
    """a = b as sympy decides it, an oracle independent of expandlab's own
    evaluators: a - b is printed, ^ read as ** and a primed name x' as x_p."""
    text = re.sub(r"(\w+)'", r"\1_p", to_string(a - b).replace("^", "**"))
    d = sympy.sympify(text)
    return sympy.expand(d) == 0 or sympy.simplify(d) == 0


# ---------------------------------------------------------------------------
# rho / kappa
# ---------------------------------------------------------------------------


def test_rho_of_product():
    assert sympy_identity(rho(fs2("x*y")), parse("x*y"))


def test_rho_of_quadratic():
    assert sympy_identity(rho(fs2("x^2 + x*y")), parse("2*x^2 + x*y"))


def test_rho_additively_degenerate():
    with pytest.raises(AdditiveDegeneracyError):
        rho(fs2("x + y"))


def test_kappa_examples():
    assert sympy_identity(kappa(fs2("x*y")))
    assert sympy_identity(kappa(fs2("x^2 + x*y")), parse("-2*x^2"))
    assert sympy_identity(kappa(fs2("x + y + x*y")))


# ---------------------------------------------------------------------------
# trivariate certificates
# ---------------------------------------------------------------------------


def test_aux_trivariate_product():
    gs = aux_trivariate(fs3("x*y*z", ((1, 2),) * 3))
    assert all(map(sympy_identity, gs))


def test_aux_trivariate_sharpness_example():
    g1, g2, g3 = map(simplify, aux_trivariate(fs3("x*(y + z)")))
    assert g1 == const(0)
    assert g2 == var("x")
    assert g3 == simplify(parse("-x"))
    point = {"x": 1, "y": 1, "z": 1}
    assert (evaluate(g1, point), evaluate(g2, point), evaluate(g3, point)) == (0, 1, -1)


def test_aux_trivariate_additive():
    assert tuple(map(simplify, aux_trivariate(fs3("x + y + z")))) == (const(0), const(0), const(0))


def test_aux_trivariate_of_an_exponential_vanishes_on_the_modular_route():
    # the certificates are not simplified; exp(x + y^2 + z^3) is one atom
    f = fs3("exp(x + y^2 + z^3)")
    for g in aux_trivariate(f):
        check = is_identically_zero(g, f.box, f.vars)
        assert check.is_zero and check.route == "modular"


def test_aux_trivariate_symmetric_quadratic():
    g1 = aux_trivariate(fs3("x*y + y*z + z*x"))[0]
    assert sympy_identity(g1, parse("y - z"))
    assert evaluate(g1, {"x": 1, "y": 2, "z": 3}) == -1


def _random_cubic3(rng):
    terms = []
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if i + j + k <= 3 and rng.random() < 0.4:
                    c = const(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3))))
                    term = c
                    for v, p in (("x", i), ("y", j), ("z", k)):
                        for _ in range(p):
                            term = term * var(v)
                    terms.append(term)
    e = const(0)
    for t in terms:
        e = e + t
    return simplify(e)


def test_g3_equals_g1_minus_g2_symbolically():
    corpus = ["x + y + z", "x*y*z", "x*(y + z)", "x*y + z", "x*y + y*z + z*x", "x + y*z",
              "exp(x + y^2 + z^3)"]
    for text in corpus:
        g1, g2, g3 = aux_trivariate(fs3(text))
        assert sympy_identity(g3 - g1 + g2), text
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = FunctionSpec(_random_cubic3(rng), ("x", "y", "z"), ((0.5, 1.5),) * 3)
        g1, g2, g3 = aux_trivariate(f)
        assert sympy_identity(g3 - g1 + g2)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def test_mixed_hessian_dot_product():
    phi = FunctionSpec(
        parse("x1*y1 + x2*y2"), ("x1", "x2", "y1", "y2"), ((0, 1),) * 4
    )
    H = mixed_hessian(phi, [("x1", "x2"), ("y1", "y2")], E=[0], F=[1])
    assert H.shape == (2, 2)
    assert H.entries[0][0] == const(1)
    assert H.entries[0][1] == const(0)
    assert H.entries[1][0] == const(0)
    assert H.entries[1][1] == const(1)


def test_mixed_hessian_squared_distance():
    phi = FunctionSpec(
        parse("(x1 - y1)^2 + (x2 - y2)^2"), ("x1", "x2", "y1", "y2"), ((0, 1),) * 4
    )
    H = mixed_hessian(phi, [("x1", "x2"), ("y1", "y2")], E=[0], F=[1])
    m = H.evaluate({"x1": 0.3, "x2": 0.7, "y1": 0.1, "y2": 0.9})
    assert np.allclose(m, -2 * np.eye(2))


def test_mixed_hessian_separable_is_zero():
    phi = FunctionSpec(parse("x1^2 + y1^3"), ("x1", "y1"), ((0, 1),) * 2)
    H = mixed_hessian(phi, [("x1",), ("y1",)], E=[0], F=[1])
    assert H.entries == ((const(0),),)


def test_trivariate_J_det_factors_through_certificates():
    # det J_i = -G_i(x) G_i(y), checked symbolically on a small function
    f = fs3("x*y + z", ((1, 2),) * 3)
    g = aux_trivariate(f)
    for i in (1, 2, 3):
        J = trivariate_J(f, i)
        assert J.shape == (4, 4)
        gi = g[i - 1]
        gi_primed = gi
        for v in f.vars:
            from expandlab.expr import substitute

            gi_primed = substitute(gi_primed, v, var(v + "'"))
        assert simplify(J.det_expr() + gi * gi_primed) == const(0), i


def test_assemble_J_sharpness_value():
    f = fs3("x*(y + z)", ((0.5, 1.5),) * 3)
    J = assemble_J(f, [("x",), ("y",), ("z",)], E=(0, 1), F=(2,))
    point = {v: 1.0 for v in ("x", "y", "z", "x'", "y'", "z'")}
    det = np.linalg.det(J.evaluate(point))
    assert abs(det - (-1.0)) < 1e-12  # -G3(1,1,1)^2 with G3 = -x


def test_two_point_J_separable_function_is_singular():
    phi = FunctionSpec(parse("x^2 + y^3"), ("x", "y"), ((0.5, 1.5),) * 2)
    J = two_point_J(phi, 1)
    assert J.shape == (3, 3)
    rng = np.random.default_rng(3)
    for _ in range(10):
        point = {v: float(rng.uniform(0.5, 1.5)) for v in ("x", "y", "x'", "y'")}
        assert abs(np.linalg.det(J.evaluate(point))) < 1e-12


def test_monge_ampere_examples():
    assert monge_ampere(fs2("x*y", ((0, 1),) * 2)) == simplify(parse("-(x*y)"))
    assert monge_ampere(fs2("x + y", ((0, 1),) * 2)) == const(-1)
    phi = FunctionSpec(
        parse("x1^2 + x2 + y1*y2"), ("x1", "x2", "y1", "y2"), ((0, 1),) * 4
    )
    assert monge_ampere(phi, 2) == const(0)


# ---------------------------------------------------------------------------
# numeric corank (with an exact Fraction row-reduction oracle)
# ---------------------------------------------------------------------------


def exact_rank(rows):
    """Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _const_matrix(rows):
    entries = tuple(tuple(const(x) for x in row) for row in rows)
    return ExprMatrix(entries, ("t",))


def test_numeric_corank_identity_and_zero():
    assert numeric_corank(_const_matrix(np.eye(3, dtype=int).tolist()), {"t": 0.0}, 1e-9) == 0
    assert numeric_corank(_const_matrix([[0, 0, 0], [0, 0, 0]]), {"t": 0.0}, 1e-9) == 2


def test_numeric_corank_J_of_product_plus_z():
    f = fs3("x*y + z", ((1, 2),) * 3)
    J = trivariate_J(f, 1)
    point = {v: 1.0 for v in ("x", "y", "z", "x'", "y'", "z'")}
    assert abs(np.linalg.det(J.evaluate(point)) - (-1.0)) < 1e-12
    assert numeric_corank(J, point, 1e-9) == 0


def test_numeric_corank_matches_exact_rank_on_integer_matrices():
    rng = np.random.default_rng(5)
    for _ in range(30):
        r = int(rng.integers(2, 5))
        c = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(r, c) + 1))
        left = rng.integers(-10, 11, size=(r, k))
        right = rng.integers(-10, 11, size=(k, c))
        m = (left @ right).tolist()
        want = min(r, c) - exact_rank(m)
        got = numeric_corank(_const_matrix(m), {"t": 0.0}, 1e-9)
        assert got == want


def test_numeric_corank_monotone_in_tol():
    m = [[1, 0, 0], [0, 1e-6, 0], [0, 0, 1e-12]]
    M = _const_matrix(m)
    coranks = [numeric_corank(M, {"t": 0.0}, tol) for tol in (1e-15, 1e-9, 1e-3, 0.5)]
    assert coranks == sorted(coranks)
    assert coranks[0] == 0 and coranks[-1] == 2


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_special_form_by_kappa():
    report = classify(fs2("x + y + x*y"))
    assert report.classification == SPECIAL_FORM
    assert report.certificates["kappa"].status == "identically_zero"


def test_classify_expanding_with_witness():
    report = classify(fs2("x^2 + x*y"))
    assert report.classification == EXPANDING
    assert report.witness_certificate == "kappa"
    assert report.witness_value is not None and report.witness_value != 0
    # kappa = -2x^2: check the recorded witness value against the formula
    wx = report.witness_point["x"]
    assert abs(report.witness_value - (-2 * wx * wx)) < 1e-9
    assert report.witness_box is not None
    for (lo, hi), (blo, bhi) in zip(report.witness_box, ((0.5, 1.5), (0.5, 1.5))):
        assert blo <= lo < hi <= bhi


def test_classify_trivariate_expanding_records_index():
    report = classify(fs3("x*y + y*z + z*x"))
    assert report.classification == EXPANDING
    assert report.expanding_index in (1, 2, 3)
    assert report.witness_box is not None


def test_classify_witness_box_is_sign_stable():
    report = classify(fs2("x^2 + x*y"))
    f = fs2("x^2 + x*y")
    k = kappa(f)
    rng = np.random.default_rng(0)
    lo_x, hi_x = report.witness_box[0]
    lo_y, hi_y = report.witness_box[1]
    sign0 = np.sign(report.witness_value)
    for _ in range(50):
        p = {"x": float(rng.uniform(lo_x, hi_x)), "y": float(rng.uniform(lo_y, hi_y))}
        assert np.sign(evaluate(k, p)) == sign0


def test_classify_rejects_wrong_arity():
    with pytest.raises(ValueError):
        classify(FunctionSpec(parse("x"), ("x",), ((0, 1),)))


def test_classify_inconclusive_on_mostly_singular_box():
    # sqrt(x - y) only exists on x >= y, about a quarter of this box, so the
    # certificate samples hit domain errors on > 50% of draws
    f = FunctionSpec(parse("sqrt(x - y) + x*y"), ("x", "y"), ((0.0, 1.0), (0.0, 2.0)))
    report = classify(f)
    assert report.classification == "inconclusive"


def test_classify_report_serializes_with_stable_fields():
    doc = classify(fs2("x^2 + x*y")).to_json_dict()
    assert set(doc) == {
        "arity",
        "classification",
        "certificates",
        "witness_certificate",
        "witness_point",
        "witness_value",
        "witness_box",
        "expanding_index",
        "notes",
    }
    assert set(doc["certificates"]) == {"f_x", "f_y", "f_xy", "kappa"}


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_thresholds_bivariate():
    r = thresholds("bivariate-analytic")
    assert r.measure_bound == Fraction(5, 3)
    assert r.expansion_offset == Fraction(2, 3)
    assert r.expansion_form == "sum > 2/3 + u"


def test_thresholds_rank():
    r = thresholds("two-point-rank", d_X=2, d_Y=2, r=2)
    assert r.measure_bound == Fraction(3)
    assert r.interior_bound == Fraction(4)


def test_thresholds_general_consistency_with_bivariate():
    r = thresholds("general", k=2, p=1, alpha=2, beta=Fraction(1, 6))
    assert r.measure_bound == Fraction(5, 3)
    assert r.measure_bound == thresholds("bivariate-smooth").measure_bound


@pytest.mark.parametrize(
    "params, message",
    [
        ({"k": 2}, "theorem 'general' requires parameters: alpha, beta, p"),
        ({"beta": 0, "q": 1}, "theorem 'general' requires parameters: alpha, p"),
        ({"alpha": 2, "beta": 0, "p": 1, "q": 1, "m": 0}, "theorem 'general' does not take: m, q"),
        ({"alpha": 2, "beta": 0, "p": 1, "d": 1}, "theorem 'general' does not take: d"),
    ],
)
def test_thresholds_general_missing_and_extra_parameters(params, message):
    with pytest.raises(ValueError) as exc:
        thresholds("general", **params)
    assert str(exc.value) == message
    # k is optional: the three required parameters alone are enough
    assert thresholds("general", alpha=2, beta=0, p=1).p == 1


def test_thresholds_trivariate_and_k_point():
    r = thresholds("trivariate-analytic")
    assert r.measure_bound == Fraction(2)
    assert r.expansion_offset == Fraction(1)
    k = thresholds("k-point", alpha=3, m=0)
    assert (k.expansion_offset, k.measure_bound, k.interior_bound) == (
        r.expansion_offset,
        r.measure_bound,
        r.interior_bound,
    )


def test_thresholds_exact_rationals_never_floats():
    r = thresholds("bivariate-analytic")
    assert isinstance(r.measure_bound, Fraction)
    doc = r.to_json_dict()
    assert doc["measure_bound"] == {"num": 5, "den": 3}
    assert doc["expansion_offset"] == {"num": 2, "den": 3}


def test_thresholds_measure_le_interior():
    cases = [
        ("bivariate-analytic", {}),
        ("trivariate-analytic", {}),
        ("two-point", {"d_X": 3, "d_Y": 2, "m": 1}),
        ("phong-stein", {"d": 4}),
        ("distance-surface", {"d": 2}),
    ]
    for name, params in cases:
        r = thresholds(name, **params)
        assert r.measure_bound <= r.interior_bound, name


def test_thresholds_validation_errors():
    with pytest.raises(ValueError):
        thresholds("two-point-rank", d_X=2, d_Y=2, r=3)  # r > min(d_X, d_Y)
    with pytest.raises(ValueError):
        thresholds("k-point", alpha=3)  # missing m
    with pytest.raises(ValueError):
        thresholds("no-such-theorem")
    with pytest.raises(ValueError):
        thresholds("bivariate-analytic", bogus=1)


def test_threshold_dim_lower_bound_formula():
    r = thresholds("bivariate-analytic")
    assert r.dim_lower_bound([Fraction(1, 2), Fraction(1, 2)]) == Fraction(1, 3)
    assert r.dim_lower_bound([Fraction(1, 4), Fraction(1, 4)]) == Fraction(0)
    assert r.dim_lower_bound([Fraction(1), Fraction(1)]) == Fraction(1)


# ---------------------------------------------------------------------------
# incidence-relation sampling
# ---------------------------------------------------------------------------

GROUPS3 = [("x",), ("y",), ("z",)]


def test_gamma_nondegenerate_holds_for_product_plus_z():
    f = fs3("x*y + z", ((1, 2),) * 3)
    res = gamma_nondegenerate(f, GROUPS3, E=(1, 2), F=(0,), m=0, z_samples=100, seed=0)
    assert res.holds
    assert res.max_corank == 0


def test_gamma_nondegenerate_violated_for_additive():
    f = fs3("x + y + z", ((1, 2),) * 3)
    res = gamma_nondegenerate(f, GROUPS3, E=(1, 2), F=(0,), m=0, z_samples=50, seed=0)
    assert not res.holds
    assert res.witness is not None


def test_gamma_sampler_produces_off_diagonal_points():
    f = fs3("x*y + z", ((1, 2),) * 3)
    res = gamma_nondegenerate(f, GROUPS3, E=(1, 2), F=(0,), m=0, z_samples=100, seed=1)
    assert res.off_diagonal_fraction >= 0.5


# ---------------------------------------------------------------------------
# distance-to-hypersurface tangency
# ---------------------------------------------------------------------------


def test_surface_distance_line_nondegenerate():
    psi = [parse("u"), parse("0")]
    check = surface_distance_check(psi, ["u"], x=(0, 1), u=(0,))
    assert not check.tangent
    assert abs(check.det) == pytest.approx(1.0)


def test_surface_distance_line_tangent():
    psi = [parse("u"), parse("0")]
    check = surface_distance_check(psi, ["u"], x=(1, 0), u=(0,))
    assert check.tangent


def test_surface_distance_circle_center():
    psi = [parse("cos(u)"), parse("sin(u)")]
    for u in (0.0, 0.7, 2.9):
        check = surface_distance_check(psi, ["u"], x=(0, 0), u=(u,))
        assert not check.tangent
        assert abs(abs(check.det) - 1.0) < 1e-12


def test_surface_distance_rank_deficient_parametrization():
    psi = [parse("u^2"), parse("0")]  # derivative vanishes at u = 0
    with pytest.raises(RankDeficientError):
        surface_distance_check(psi, ["u"], x=(0, 1), u=(0,))


# ---------------------------------------------------------------------------
# The modular zero test against simplification and sampling
# ---------------------------------------------------------------------------


def _special_form(rng, names, zero_shift):
    """Criterion 5's generator over any number of variables: a quintic of a
    sum of monotone cubics p*t + q*(t - s)^3/3, with Fraction coefficients
    (q and s may be 0) and the first shift forced to 0 when zero_shift."""
    inner = None
    for i, v in enumerate(names):
        p = Fraction(int(rng.integers(5, 15)), 10)
        q = Fraction(int(rng.integers(0, 10)), 10)
        s = Fraction(0) if zero_shift and i == 0 else Fraction(int(rng.integers(0, 10)), 10)
        term = const(p) * var(v) + const(q) * (var(v) - const(s)) ** 3 / 3
        inner = term if inner is None else inner + term
    p = Fraction(int(rng.integers(5, 15)), 10)
    a = Fraction(int(rng.integers(1, 5)), 10)
    s = -Fraction(int(rng.integers(2, 10)), 10)
    return const(p) * inner + const(a) * (inner - const(s)) ** 5 / 5


def test_modular_verdicts_match_sampling(monkeypatch):
    import expandlab.expr as expr_mod

    rng = np.random.default_rng(2024)
    perturbation = parse("x^2*y/10")
    cases = []
    for names, zero_shift in ((("x", "y"), False), (("x", "y"), True), (("x", "y", "z"), True)):
        form = _special_form(rng, names, zero_shift)
        for e, special in ((form, True), (form + perturbation, False)):
            f = FunctionSpec(e, names, ((0.0, 1.0),) * len(names))
            certs = (kappa(f),) if len(names) == 2 else aux_trivariate(f)
            cases.append((f, certs, special))

    def verdicts():
        return [[is_identically_zero(c, f.box, f.vars) for c in certs] for f, certs, _ in cases]

    modular = verdicts()
    assert all(check.route == "modular" for checks in modular for check in checks)
    # with the modular test switched off, float samples alone decide: an
    # independent oracle for the exact verdicts
    monkeypatch.setattr(expr_mod, "_modular_verdict", lambda prog, seed: None)
    oracle = verdicts()
    assert [[c.is_zero for c in checks] for checks in modular] == [
        [c.is_zero for c in checks] for checks in oracle
    ]
    # a special form's certificates all vanish; a perturbation's do not
    for checks, (_, _, special) in zip(modular, cases):
        assert all(c.is_zero for c in checks) == special


# ---------------------------------------------------------------------------
# Certificates built from DAG derivatives: exact and compact
# ---------------------------------------------------------------------------

CRITERION_5_FORMS = [(("x", "y"), False), (("x", "y"), True), (("x", "y", "z"), False),
                     (("x", "y", "z"), True)]


def _partial(e, *names):
    for v in names:
        e = differentiate(e, v)
    return e


@pytest.mark.parametrize("names, zero_shift", CRITERION_5_FORMS)
def test_mixed_partials_of_special_forms_commute_exactly(names, zero_shift):
    f = FunctionSpec(_special_form(np.random.default_rng(5), names, zero_shift), names,
                     ((0.0, 1.0),) * len(names))
    orders = [((u, w), (w, u)) for u in names for w in names if u < w]
    if len(names) == 2:  # kappa's third partials
        orders += [(("x", "x", "y"), ("y", "x", "x")), (("x", "y", "y"), ("y", "y", "x"))]
    for a, b in orders:
        check = is_identically_zero(_partial(f.expr, *a) - _partial(f.expr, *b), f.box, f.vars)
        assert check.is_zero and check.route == "modular", (a, b)


@pytest.mark.parametrize("names, zero_shift", CRITERION_5_FORMS)
def test_certificates_stay_within_a_constant_multiple_of_f(names, zero_shift):
    # derivatives reuse f's own subexpressions; expanding f first made these
    # certificates 66 to 237 times the size of f's program
    f = FunctionSpec(_special_form(np.random.default_rng(5), names, zero_shift), names,
                     ((0.0, 1.0),) * len(names))
    size = len(_program(f.expr, f.vars).code)
    certs = (kappa(f),) if len(names) == 2 else aux_trivariate(f)
    for cert in certs:
        assert len(_program(cert, f.vars).code) <= 8 * size
