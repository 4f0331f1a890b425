"""Tests for quadrature, sampled functions, and special-form recovery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from expandlab.cli import main
from expandlab.errors import PreconditionError, QuadratureError
from expandlab.expr import FunctionSpec, compile_batch, const, parse, var
from expandlab.specialform import (
    SampledFunction1D,
    _cumulative_from_base,
    quadrature,
    reconstruction_residual,
    recover_bivariate,
    recover_trivariate,
)

# ---------------------------------------------------------------------------
# quadrature (oracle: analytic antiderivatives)
# ---------------------------------------------------------------------------


def test_quadrature_constant():
    assert quadrature(parse("1"), "s", 0, 1) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_log():
    assert quadrature(parse("1/s"), "s", 1, 2) == pytest.approx(math.log(2), abs=1e-10)


def test_quadrature_arctan():
    assert quadrature(parse("1/(1 + s^2)"), "s", 0, 1) == pytest.approx(math.pi / 4, abs=1e-10)


def test_quadrature_rejects_sign_change():
    with pytest.raises(QuadratureError):
        quadrature(parse("s - 1/2"), "s", 0, 1)


def test_quadrature_rejects_singularity():
    with pytest.raises(QuadratureError):
        quadrature(parse("1/s"), "s", -1, 1)


def test_quadrature_rejects_extra_variables():
    with pytest.raises(ValueError):
        quadrature(parse("s + t"), "s", 0, 1)


def test_quadrature_empty_interval_and_order():
    assert quadrature(parse("s^2"), "s", 1, 1) == 0.0
    with pytest.raises(ValueError):
        quadrature(parse("s^2"), "s", 1, 0)


def test_quadrature_tolerance_tightening_never_hurts():
    cases = [
        (parse("1/s"), "s", 1.0, 2.0, math.log(2)),
        (parse("1/(1 + s^2)"), "s", 0.0, 1.0, math.pi / 4),
        (parse("exp(s)"), "s", 0.0, 1.0, math.e - 1.0),
    ]
    for e, v, a, b, truth in cases:
        errs = [abs(quadrature(e, v, a, b, tol=tol) - truth) for tol in (1e-6, 1e-8, 1e-10, 1e-12)]
        # allow a whisker of rounding noise at the tight end
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse + 1e-13


def test_quadrature_rejects_pole_between_precheck_nodes():
    # 3/10 is none of the 65 pre-check nodes, and the integrand is positive
    with pytest.raises(QuadratureError):
        quadrature(parse("1/(s - 3/10)^2"), "s", 0, 1)


_ANTIDERIVATIVES = [
    ("exp(s)", np.exp),
    ("1/(1 + s^2)", np.arctan),
    # steep near the left end: the cells there must be halved
    ("1/(s + 1/1000)", lambda s: np.log(s + 1 / 1000)),
]


@pytest.mark.parametrize("text,antiderivative", _ANTIDERIVATIVES, ids=[t for t, _ in _ANTIDERIVATIVES])
@pytest.mark.parametrize("base", [0.0, 0.25, 0.3, 1.0], ids=["left-end", "node", "between", "right-end"])
def test_cumulative_from_base_matches_antiderivative(text, antiderivative, base):
    grid = np.linspace(0.0, 1.0, 17)
    fn = compile_batch(parse(text), ("s",))
    cum = _cumulative_from_base(fn, grid, base)
    truth = antiderivative(grid) - antiderivative(base)
    assert np.max(np.abs(cum - truth)) < 1e-10
    if base in grid:
        assert cum[np.searchsorted(grid, base)] == 0.0


def test_large_integrands_converge_at_rounding_noise():
    # the cell integrals reach 1.2e7, whose ulp exceeds the cell tolerance:
    # the two rules agree only up to rounding
    grid = np.linspace(0.0, 1000.0, 257)
    cum = _cumulative_from_base(compile_batch(parse("3*s^2"), ("s",)), grid, 500.0)
    assert np.max(np.abs(cum - (grid**3 - 500.0**3))) < 1e-13 * 1000.0**3
    assert quadrature(parse("3*s^2"), "s", 0, 100) == pytest.approx(1e6, rel=1e-14)
    assert quadrature(parse("10^8*exp(s)"), "s", 0, 1) == pytest.approx(1e8 * (math.e - 1), rel=1e-14)


# ---------------------------------------------------------------------------
# sampled functions
# ---------------------------------------------------------------------------


def test_sampled_function_interpolates_cubics_exactly():
    g = np.linspace(0, 2, 33)
    v = g**3 - g + 1
    sf = SampledFunction1D(g, v)
    xs = np.linspace(0, 2, 101)
    assert np.max(np.abs(sf(xs) - (xs**3 - xs + 1))) < 1e-12


def _non_uniform_grid(n, lo=-1.0, hi=3.0, seed=7):
    rng = np.random.default_rng(seed)
    inner = np.sort(rng.uniform(lo, hi, n - 2))
    return np.concatenate(([lo], inner, [hi]))


def test_sampled_function_is_exact_at_the_nodes():
    g = _non_uniform_grid(40)
    v = np.sin(3 * g) + g**2
    sf = SampledFunction1D(g, v)
    # every node but the last starts its interval, where the value is stored
    assert np.array_equal(sf(g[:-1]), v[:-1])
    assert sf(g[-1]) == pytest.approx(v[-1], rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("n", [4, 5, 17, 200])
def test_sampled_function_reproduces_cubics_on_non_uniform_grids(n):
    # not-a-knot reproduces every cubic, whatever the node spacing
    g = _non_uniform_grid(n, seed=n)
    cubic = lambda t: 2 * t**3 - 5 * t**2 + t - 4
    sf = SampledFunction1D(g, cubic(g))
    xs = np.linspace(g[0], g[-1], 301)
    assert np.max(np.abs(sf(xs) - cubic(xs))) < 1e-11


def test_sampled_function_needs_four_samples():
    g = np.array([0.0, 0.5, 2.0, 3.0])
    sf = SampledFunction1D(g, g**3)
    assert sf(1.25) == pytest.approx(1.25**3, rel=1e-14)
    with pytest.raises(ValueError):
        SampledFunction1D(g[:3], g[:3] ** 3)


def test_sampled_function_scalar_argument_gives_a_float():
    sf = SampledFunction1D(np.linspace(0, 1, 9), np.linspace(0, 1, 9) ** 2)
    assert type(sf(0.3)) is float
    assert type(sf(np.float64(0.3))) is float
    assert isinstance(sf(np.array([0.3])), np.ndarray)


def test_sampled_function_clips_outside_the_grid():
    g = _non_uniform_grid(12)
    v = np.cos(g)
    sf = SampledFunction1D(g, v)
    assert sf(g[0] - 5.0) == sf(g[0]) == v[0]
    assert sf(g[-1] + 5.0) == sf(g[-1])
    assert np.array_equal(sf(np.array([-1e9, 1e9])), sf(np.array([g[0], g[-1]])))


def test_sampled_function_matches_scipy_not_a_knot_spline():
    interpolate = pytest.importorskip("scipy.interpolate")
    for n in (4, 5, 33, 257, 2000):
        g = _non_uniform_grid(n, seed=n)
        v = np.exp(g) * np.sin(4 * g) + 10 * g**2
        ref = interpolate.CubicSpline(g, v)
        xs = np.concatenate((g, np.linspace(g[0], g[-1], 4001)))
        expected = ref(xs)
        assert np.max(np.abs(SampledFunction1D(g, v)(xs) - expected)) < 1e-13 * np.max(np.abs(expected))


def test_sampled_function_validates_grid():
    with pytest.raises(ValueError):
        SampledFunction1D(np.array([0.0, 0.0, 1.0, 2.0]), np.zeros(4))


@pytest.mark.parametrize("bad", ["value-nan", "value-inf", "grid-nan", "grid-inf"])
def test_sampled_function_rejects_non_finite_samples(bad):
    g, v = np.linspace(0, 1, 8), np.zeros(8)
    which, token = bad.split("-")
    (v if which == "value" else g)[5] = float(token)
    with pytest.raises(ValueError, match="non-finite"):
        SampledFunction1D(g, v)


# ---------------------------------------------------------------------------
# trivariate recovery
# ---------------------------------------------------------------------------


def test_recover_trivariate_additive():
    f = FunctionSpec(parse("x + y + z"), ("x", "y", "z"), ((0, 1),) * 3)
    r = recover_trivariate(f, base=(0, 0, 0))
    assert r.success
    assert r.residual < 1e-10
    for name in ("H1", "H2", "H3"):
        # identity shifts: H_i(t) = t - base_i
        sf = r.components[name]
        assert np.max(np.abs(sf.values - sf.grid)) < 1e-10


def test_recover_trivariate_product():
    f = FunctionSpec(parse("x*y*z"), ("x", "y", "z"), ((1, 2),) * 3)
    r = recover_trivariate(f, base=(1, 1, 1))
    assert r.success
    assert r.residual < 1e-7
    h1 = r.components["H1"]
    # the inner components are logarithms in the base-point gauge
    assert max(abs(h1(t) - math.log(t)) for t in np.linspace(1, 2, 9)) < 1e-8


def test_recover_trivariate_exponential():
    f = FunctionSpec(parse("exp(x + y^2 + z^3)"), ("x", "y", "z"), ((0.5, 1.5),) * 3)
    r = recover_trivariate(f)
    assert r.success
    assert r.residual < 1e-6


def test_recover_trivariate_components_vanish_at_base():
    f = FunctionSpec(parse("x*y*z"), ("x", "y", "z"), ((1, 2),) * 3)
    r = recover_trivariate(f, base=(1.25, 1.5, 1.75))
    for i, name in enumerate(("H1", "H2", "H3")):
        assert abs(r.components[name](r.base[i])) < 1e-12


def test_recover_trivariate_from_off_centre_base():
    f = FunctionSpec(parse("exp(x + y^2 + z^3)"), ("x", "y", "z"), ((0.5, 1.5),) * 3)
    base = (0.6, 1.3, 0.9)
    r = recover_trivariate(f, base=base)
    assert r.success
    # the gauge H2'(y0) = 1 scales the inner sum x + y^2 + z^3 by 1/(2 y0)
    t = np.linspace(0.5, 1.5, 11)
    for name, power, b in zip(("H1", "H2", "H3"), (1, 2, 3), base):
        truth = (t**power - b**power) / (2 * base[1])
        assert np.max(np.abs(r.components[name](t) - truth)) < 1e-9


def test_recover_trivariate_separability_leaves_zeros_to_the_grid_check():
    # H1' = 6 (2x - 1)^2 vanishes at x = 1/2, a node of the 33-point
    # separability grids but not of the 32-point recovery grid
    f = FunctionSpec(parse("(2*x - 1)^3 + y + z"), ("x", "y", "z"), ((0, 1),) * 3)
    r = recover_trivariate(f, base=(0.3, 0.5, 0.5), grid_n=32)
    assert r.success
    with pytest.raises(PreconditionError, match="H1' vanishes on the grid"):
        recover_trivariate(f, base=(0.3, 0.5, 0.5), grid_n=33)


def test_recover_trivariate_rejects_expanding():
    f = FunctionSpec(parse("x*(y + z)"), ("x", "y", "z"), ((0.5, 1.5),) * 3)
    with pytest.raises(PreconditionError):
        recover_trivariate(f)


# ---------------------------------------------------------------------------
# bivariate recovery
# ---------------------------------------------------------------------------


def test_recover_bivariate_cubed_sum():
    f = FunctionSpec(parse("(x + y^2)^3"), ("x", "y"), ((0.5, 1.5),) * 2)
    r = recover_bivariate(f)
    assert r.success
    assert r.residual < 1e-6
    # h is x - x0 up to the shared gauge factor: check linearity
    h = r.components["h"]
    dev = np.diff(h.values) / np.diff(h.grid)
    assert np.max(np.abs(dev - dev[0])) < 1e-9


def test_recover_bivariate_additive():
    f = FunctionSpec(parse("x + y"), ("x", "y"), ((0, 1),) * 2)
    r = recover_bivariate(f)
    assert r.success
    assert r.residual < 1e-12


def test_recover_bivariate_from_off_centre_base():
    f = FunctionSpec(parse("(x + y^2)^3"), ("x", "y"), ((0.5, 1.5),) * 2)
    base = (0.7, 1.4)
    r = recover_bivariate(f, base=base)
    assert r.success
    assert r.residual < 1e-6
    # h' = q(x, y0) scales the inner sum x + y^2 by 1/(2 y0)
    t = np.linspace(0.5, 1.5, 11)
    for name, power, b in zip(("h", "k"), (1, 2), base):
        truth = (t**power - b**power) / (2 * base[1])
        assert np.max(np.abs(r.components[name](t) - truth)) < 1e-9


def test_recover_singular_integrand_is_quadrature_error(capsys):
    # f_x has no real value for |x - 3/10| < 1/10^4, which lies strictly
    # between two grid nodes: only the quadrature nodes meet it
    text = "x + y + ((x - 3/10)^2 - 1/10^8)^(3/2)"
    f = FunctionSpec(parse(text), ("x", "y"), ((0, 1),) * 2)
    with pytest.raises(QuadratureError, match="singular"):
        recover_bivariate(f)
    assert main(["recover", "-f", text, "--vars", "x,y", "--box", "0,1,0,1"]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_recover_bivariate_rejects_expanding():
    f = FunctionSpec(parse("x^2 + x*y"), ("x", "y"), ((0.5, 1.5),) * 2)
    with pytest.raises(PreconditionError):
        recover_bivariate(f)


def _random_special_form(rng):
    """g(h(x)+k(y)) from monotone cubics h, k and a monotone quintic g whose
    second derivative keeps a sign on the attained range."""

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


def test_recover_bivariate_random_round_trips():
    rng = np.random.default_rng(202)
    for _ in range(5):
        f = _random_special_form(rng)
        r = recover_bivariate(f)
        assert r.residual < 1e-5


def test_recover_gauge_freedom():
    f = FunctionSpec(parse("(x + y^2)^3"), ("x", "y"), ((0.5, 1.5),) * 2)
    r = recover_bivariate(f)
    c = 2.0
    offsets = (0.3, -0.2)
    regauged = {
        "h": SampledFunction1D(r.components["h"].grid, c * r.components["h"].values + offsets[0]),
        "k": SampledFunction1D(r.components["k"].grid, c * r.components["k"].values + offsets[1]),
        "g": SampledFunction1D(
            c * r.components["g"].grid + sum(offsets), r.components["g"].values
        ),
    }
    residual = reconstruction_residual(f, regauged, 50)
    assert residual < max(r.residual, 1e-6)


def test_recovery_result_serializes():
    f = FunctionSpec(parse("x + y"), ("x", "y"), ((0, 1),) * 2)
    doc = recover_bivariate(f).to_json_dict()
    assert doc["verdict"] == "success"
    assert doc["components"] == ["g", "h", "k"]
    assert doc["kind"] == "bivariate"
