"""Tests for streaming quantization, box counts, and dimension estimates."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from expandlab.dimlab import (
    QuantizedSet,
    _Bitset,
    _nwords,
    box_counts,
    covered_fraction,
    dim_estimate,
    expansion_experiment,
    image_quantize,
    naive_quantize_cells,
    power_ladder,
)
from expandlab.expr import FunctionSpec, parse
from expandlab.fractal import CantorSpec, PointSet1D, cantor_points, digit_points

F_SUM = FunctionSpec(parse("x + y"), ("x", "y"), ((0, 1), (0, 1)))
F_PROD = FunctionSpec(parse("x*y"), ("x", "y"), ((1, 2), (1, 2)))


# ---------------------------------------------------------------------------
# image quantization
# ---------------------------------------------------------------------------


def test_image_quantize_small_sum():
    A = PointSet1D.from_values([0.0, 2 / 3])
    q = image_quantize(F_SUM, [A, A], delta_min=1e-3, value_range=(0, 2))
    assert q.population == 3  # values {0, 2/3, 4/3}


def test_image_quantize_small_product():
    B = PointSet1D.from_values([1.0, 2.0])
    q = image_quantize(F_PROD, [B, B], delta_min=1e-3, value_range=(1, 4))
    assert q.population == 3  # values {1, 2, 4}


def test_image_quantize_matches_naive_enumeration():
    cases = [
        (F_SUM, [digit_points(3, [0, 2], 6)] * 2),
        (F_PROD, [digit_points(4, [0, 1], 4, interval=(1.0, 2.0))] * 2),
        (
            FunctionSpec(parse("x*y + y^2"), ("x", "y"), ((0, 1), (0, 1))),
            [digit_points(2, [0, 1], 7), digit_points(3, [0, 2], 4)],
        ),
        (
            FunctionSpec(parse("x*y + z"), ("x", "y", "z"), ((0, 1),) * 3),
            [digit_points(2, [0, 1], 5)] * 3,
        ),
    ]
    for f, sets in cases:
        q = image_quantize(f, sets, delta_min=1e-4)
        naive = naive_quantize_cells(f, sets, q.lo, q.delta_min, q.ncells)
        assert q.occupied_cells().tolist() == naive


def test_image_quantize_thread_invariance():
    mt = digit_points(3, [0, 2], 10)  # 2^20 pairs
    delta = float(Fraction(1, 3**10))
    qs = [
        image_quantize(F_SUM, [mt, mt], delta_min=delta, value_range=(0, 2), threads=t)
        for t in (1, 4, 8)
    ]
    assert qs[0].bit_identical(qs[1])
    assert qs[0].bit_identical(qs[2])
    assert qs[0].population == qs[1].population == qs[2].population


@pytest.mark.parametrize(
    "f, sets",
    [
        (F_SUM, [digit_points(3, [0, 2], 6)] * 2),
        (
            FunctionSpec(parse("x*y + z"), ("x", "y", "z"), ((0, 1),) * 3),
            [digit_points(2, [0, 1], 4)] * 3,
        ),
    ],
)
def test_shared_scatter_is_thread_invariant_and_matches_naive(f, sets):
    # a small block makes every shard write many blocks into the shared map
    # while the others do; a short switch interval interleaves them more
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        qs = [image_quantize(f, sets, delta_min=1e-3, threads=t, block=64) for t in (1, 2, 3, 8)]
    finally:
        sys.setswitchinterval(interval)
    for q in qs[1:]:
        assert qs[0].bit_identical(q)
    naive = naive_quantize_cells(f, sets, qs[0].lo, qs[0].delta_min, qs[0].ncells)
    assert qs[0].occupied_cells().tolist() == naive
    assert qs[0].population == len(naive)


def test_image_quantize_widens_declared_range():
    A = PointSet1D.from_values([0.0, 0.9])
    q = image_quantize(F_SUM, [A, A], delta_min=1e-3, value_range=(0.0, 1.0))
    assert q.widened
    assert q.out_of_declared_count == 1  # only the tuple (0.9, 0.9) -> 1.8
    assert q.hi >= 1.8


def test_image_quantize_rejects_degenerate_range():
    A = PointSet1D.from_values([0.5])
    with pytest.raises(ValueError):
        image_quantize(F_SUM, [A, A])


def test_quantized_set_requires_positive_range():
    with pytest.raises(ValueError):
        QuantizedSet(lo=1.0, hi=1.0, delta_min=0.1, bits=_Bitset(4), population=0)


# ---------------------------------------------------------------------------
# box counts
# ---------------------------------------------------------------------------


def test_box_counts_middle_thirds_exact():
    mt = digit_points(3, [0, 2], 10)
    counts = box_counts(mt, power_ladder(3, 1, 10))
    for k, (delta, n) in enumerate(counts, start=1):
        assert n == 2**k


def test_box_counts_single_point():
    p = PointSet1D(
        values=np.array([0.25]), dimension=0.0, provenance="single", interval=(0.0, 1.0)
    )
    for delta, n in box_counts(p, [0.5, 0.1, 0.01]):
        assert n == 1


def test_box_counts_full_interval_grid():
    grid = PointSet1D(
        values=np.linspace(0, 1, 1001),
        dimension=1.0,
        provenance="grid",
        interval=(0.0, 1.0),
    )
    for delta in (0.5, 0.25, 0.1, 0.008):
        (_, n), = box_counts(grid, [delta])
        assert n == math.ceil(1 / delta)


def test_box_counts_quantized_monotone_and_multiple_check():
    mt = digit_points(3, [0, 2], 8)
    delta_min = float(Fraction(1, 3**8))
    q = image_quantize(F_SUM, [mt, mt], delta_min=delta_min, value_range=(0, 2))
    ladder = [delta_min * 3**k for k in range(6)]
    counts = box_counts(q, ladder)
    ns = [n for _, n in counts]
    assert ns == sorted(ns, reverse=True)  # N non-increasing as delta grows
    with pytest.raises(ValueError):
        box_counts(q, [delta_min * 2.5])


def _random_quantized(rng, ncells: int, density: float) -> tuple[QuantizedSet, np.ndarray]:
    occ = np.flatnonzero(rng.random(ncells) < density)
    occ = np.union1d(occ, [ncells - 1])  # the last cell, so the last coarse cell is trimmed
    hit = np.zeros(_nwords(ncells) * 64, dtype=np.uint8)
    hit[occ] = 1
    delta_min = 2.0**-10
    # hi - lo ends half-way through the last cell
    q = QuantizedSet(
        lo=0.0,
        hi=(ncells - 0.5) * delta_min,
        delta_min=delta_min,
        bits=_Bitset.from_bytemap(hit, ncells),
        population=occ.size,
    )
    return q, occ


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_box_counts_match_unique_oracle_on_random_sets(seed):
    rng = np.random.default_rng(seed)
    for ncells, density in ((1, 1.0), (1000, 0.5), (100_003, 0.01), (5_000, 0.002)):
        q, occ = _random_quantized(rng, ncells, density)
        assert q.occupied_cells().tolist() == occ.tolist()
        for k in (1, 2, 3, 7, 64, 3**5):
            delta = k * q.delta_min
            cells = np.unique(occ // k)
            assert q.cells_at(delta).tolist() == cells.tolist()
            assert q.box_count(delta) == cells.size
            assert box_counts(q, [delta]) == [(delta, cells.size)]
            ncoarse = -(-ncells // k)
            covered = cells.size * delta
            if cells[-1] == ncoarse - 1:
                covered -= max(0.0, ncoarse * delta - (q.hi - q.lo))
            assert covered_fraction(q, delta) == covered / (q.hi - q.lo)
            assert 0 < covered_fraction(q, delta) <= 1


def test_point_set_box_counts_match_unique_oracle():
    rng = np.random.default_rng(5)
    values = np.unique(rng.random(20_000))
    ps = PointSet1D(values=values, dimension=1.0, provenance="random", interval=(0.0, 1.0))
    for delta in (0.3, 2.0**-5, 1e-3, 3.0**-9, 1e-6):
        idx = np.clip(np.floor(values / delta).astype(np.int64), 0, math.ceil(1 / delta) - 1)
        assert box_counts(ps, [delta]) == [(delta, np.unique(idx).size)]
    mid = cantor_points(CantorSpec(3, Fraction(1, 4), 7, rule="mid"))
    for k in range(1, 9):
        d = Fraction(1, 4**k)
        exact = {min(int(n * 4**k) // mid.exact_den, 4**k - 1) for n in mid.exact_num.tolist()}
        assert box_counts(mid, [d]) == [(float(d), len(exact))]


def test_covered_fraction_basics():
    A = PointSet1D.from_values([0.0, 2 / 3])
    q = image_quantize(F_SUM, [A, A], delta_min=1e-3, value_range=(0, 2))
    frac = covered_fraction(q, 1e-3)
    assert frac == pytest.approx(3 * 1e-3 / 2)
    assert 0 < frac <= 1


def test_covered_fraction_sum_of_cantor_covers_interval():
    # the level-n sum-set anchors tile [0, 2] at one level coarser
    mt = digit_points(3, [0, 2], 8)
    delta_min = float(Fraction(1, 3**8))
    q = image_quantize(F_SUM, [mt, mt], delta_min=delta_min, value_range=(0, 2))
    assert covered_fraction(q, 3 * delta_min) >= 0.99


# ---------------------------------------------------------------------------
# dimension estimates
# ---------------------------------------------------------------------------


def test_dim_estimate_exact_dyadic():
    counts = [(2.0**-k, 2**k) for k in range(1, 12)]
    est = dim_estimate(counts)
    assert est.slope == pytest.approx(1.0, abs=1e-12)
    assert est.r2 == pytest.approx(1.0, abs=1e-12)


def test_dim_estimate_calibration_recovers_similarity_dimension():
    for m, r in ((2, Fraction(1, 3)), (2, Fraction(1, 4)), (3, Fraction(1, 4))):
        truth = math.log(m) / math.log(1 / float(r))
        counts = [(float(r) ** k, m**k) for k in range(1, 12)]
        est = dim_estimate(counts)
        assert abs(est.slope - truth) < 1e-12


def test_dim_estimate_window_selection():
    counts = [(3.0**-k, 2**k) for k in range(1, 15)]
    est = dim_estimate(counts, fit_window=(3.0**-12, 3.0**-4))
    assert est.window_deltas[0] == pytest.approx(3.0**-4)
    assert est.window_deltas[1] == pytest.approx(3.0**-12)
    assert est.slope == pytest.approx(math.log(2) / math.log(3), abs=1e-12)


def test_dim_estimate_degenerate_window():
    counts = [(2.0**-k, 7) for k in range(1, 10)]
    est = dim_estimate(counts)
    assert est.degenerate
    assert est.slope == 0.0
    assert est.r2 == 0.0


def test_dim_estimate_requires_four_rungs():
    with pytest.raises(ValueError):
        dim_estimate([(0.5, 2), (0.25, 4), (0.125, 8)], drop_edges=0)


def test_middle_thirds_level_14_estimate():
    mt = digit_points(3, [0, 2], 14)
    counts = box_counts(mt, power_ladder(3, 1, 14))
    est = dim_estimate(counts, fit_window=(Fraction(1, 3**12), Fraction(1, 3**4)))
    assert 0.61 <= est.slope <= 0.65


def test_base4_digit_estimate():
    ps = digit_points(4, [0, 1], 12)
    counts = box_counts(ps, power_ladder(4, 1, 12))
    est = dim_estimate(counts, fit_window=(Fraction(1, 4**10), Fraction(1, 4**2)))
    assert 0.48 <= est.slope <= 0.52


# ---------------------------------------------------------------------------
# expansion experiment
# ---------------------------------------------------------------------------


def test_expansion_experiment_sumset():
    b = digit_points(4, [0, 1], 10)
    report = expansion_experiment(
        F_SUM,
        [b, b],
        ladder=[2.0**-k for k in range(4, 19)],
        theorem="bivariate-analytic",
        delta_min=2.0**-20,
        value_range=(0.0, 2.0),
    )
    truth = math.log(3) / math.log(4)
    assert abs(report.image_estimate.slope - truth) < 0.05
    assert report.declared_dims == (0.5, 0.5)
    assert report.bound == Fraction(1, 3)
    assert report.passed
    assert not report.measure_predicted  # 1 < 5/3
    doc = report.to_json_dict()
    assert doc["bound"] == {"num": 1, "den": 3}


def test_expansion_experiment_warns_outside_witness_box():
    from expandlab.degeneracy import classify

    f = FunctionSpec(parse("x^2 + x*y"), ("x", "y"), ((0, 1), (0, 1)))
    deg = classify(f)
    b = digit_points(4, [0, 1], 8)
    report = expansion_experiment(
        f,
        [b, b],
        ladder=[2.0**-k for k in range(4, 15)],
        theorem="bivariate-analytic",
        delta_min=2.0**-16,
        degeneracy_report=deg,
    )
    assert report.warnings  # the witness box is a strict sub-box of [0,1]^2


def test_box_counts_cantor_self_similar_scaling():
    # when branch offsets align with the delta-grid (m=2, r=1/3: offsets are
    # multiples of 1/3), N(r^k) = m^k exactly for k <= level
    ps = cantor_points(CantorSpec(2, Fraction(1, 3), 8))
    deltas = [Fraction(1, 3) ** k for k in range(1, 9)]
    for k, (_, n) in enumerate(box_counts(ps, deltas), start=1):
        assert n == 2**k
    # an unaligned equal-gap construction straddles grid lines: the count
    # stays within a factor of two of the branch count
    ps2 = cantor_points(CantorSpec(3, Fraction(1, 4), 6))
    deltas2 = [Fraction(1, 4) ** k for k in range(1, 7)]
    for k, (_, n) in enumerate(box_counts(ps2, deltas2), start=1):
        assert 3**k <= n <= 2 * 3**k


def test_expansion_experiment_trivariate_measure_regime():
    # three inputs of declared dimension 0.7: the sum 2.1 exceeds the
    # trivariate positive-measure bound 2; the covered-fraction trace is
    # recorded as a diagnostic
    from expandlab.fractal import dimension_to_ratio

    spec = CantorSpec(2, dimension_to_ratio(0.7), 7)
    a = cantor_points(spec)
    f = FunctionSpec(parse("x*y + z"), ("x", "y", "z"), ((0, 1),) * 3)
    report = expansion_experiment(
        f,
        [a, a, a],
        ladder=[2.0**-k for k in range(3, 13)],
        theorem="trivariate-analytic",
        delta_min=2.0**-14,
    )
    assert report.measure_predicted
    assert len(report.covered_trace) == 10
    assert all(0 < frac <= 1 for _, frac in report.covered_trace)
    assert report.declared_dims == pytest.approx((0.7, 0.7, 0.7))
