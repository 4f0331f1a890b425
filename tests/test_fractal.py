"""Tests for the self-similar point-set generators."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from expandlab.errors import BudgetError
from expandlab.fractal import (
    CantorSpec,
    PointSet1D,
    cantor_points,
    digit_points,
    dimension_to_ratio,
    load_points,
    save_points,
    similarity_dimension,
)


def test_middle_thirds_level_two():
    ps = cantor_points(CantorSpec(2, Fraction(1, 3), 2))
    assert ps.values.tolist() == [0.0, 2 / 9, 2 / 3, 8 / 9]
    assert ps.exact_num.tolist() == [0, 2, 6, 8]
    assert ps.exact_den == 9


def test_quarter_ratio_level_one():
    ps = cantor_points(CantorSpec(2, Fraction(1, 4), 1))
    assert ps.values.tolist() == [0.0, 0.75]


def test_three_branch_matches_direct_enumeration():
    # independent oracle: enumerate sums c_{j1} + r*c_{j2} with Fractions
    m, r, n = 3, Fraction(1, 4), 2
    ps = cantor_points(CantorSpec(m, r, n))
    offsets = [Fraction(j) * (1 - r) / (m - 1) for j in range(m)]
    expected = sorted(o1 + r * o2 for o1, o2 in itertools.product(offsets, repeat=n))
    assert len(ps) == m**n == len(expected)
    assert ps.values.tolist() == [float(e) for e in expected]
    gaps = np.diff(ps.values)
    assert min(gaps) == pytest.approx(3 / 32)


def test_digit_points_base4():
    ps = digit_points(4, [0, 1], 1)
    assert ps.values.tolist() == [0.0, 0.25]
    ps8 = digit_points(4, [0, 1], 8)
    assert len(ps8) == 256
    assert ps8.dimension == pytest.approx(0.5)


def test_digit_points_reproduce_middle_thirds():
    d = digit_points(3, [0, 2], 7)
    c = cantor_points(CantorSpec(2, Fraction(1, 3), 7))
    assert np.array_equal(d.values, c.values)
    assert d.dimension == pytest.approx(math.log(2) / math.log(3))


def test_similarity_dimension_values():
    assert similarity_dimension(2, Fraction(1, 3)) == pytest.approx(0.6309297535714574)
    assert similarity_dimension(2, Fraction(1, 4)) == pytest.approx(0.5)
    assert similarity_dimension(3, Fraction(1, 4)) == pytest.approx(math.log(3) / math.log(4))


def test_dimension_to_ratio_round_trip():
    for alpha in (0.3, 0.5, 0.7, 0.99):
        r = dimension_to_ratio(alpha)
        assert similarity_dimension(2, r) == pytest.approx(alpha, rel=1e-12)


def test_point_sets_sorted_and_inside_interval():
    for spec in (
        CantorSpec(2, Fraction(1, 3), 6),
        CantorSpec(3, Fraction(1, 5), 4, interval=(-1.0, 3.0)),
        CantorSpec(2, Fraction(2, 5), 5, rule="mid"),
    ):
        ps = cantor_points(spec)
        assert np.all(np.diff(ps.values) > 0)
        lo, hi = spec.interval
        assert ps.values[0] >= lo and ps.values[-1] <= hi


def test_nesting_between_levels():
    # every level-(n+1) point lies within r^n of the level-n set
    spec_n = CantorSpec(2, Fraction(1, 3), 5)
    spec_n1 = CantorSpec(2, Fraction(1, 3), 6)
    coarse = cantor_points(spec_n).values
    fine = cantor_points(spec_n1).values
    tol = float(Fraction(1, 3) ** 5)
    for p in fine:
        assert np.min(np.abs(coarse - p)) <= tol + 1e-15


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        CantorSpec(2, Fraction(2, 3), 3)  # overlapping branches
    with pytest.raises(ValueError):
        CantorSpec(1, Fraction(1, 3), 3)
    with pytest.raises(ValueError):
        CantorSpec(2, Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        digit_points(4, [0, 5], 3)


def test_budget_guard():
    with pytest.raises(BudgetError):
        cantor_points(CantorSpec(2, Fraction(1, 3), 30), budget=1 << 20)


def test_binary_round_trip(tmp_path):
    ps = digit_points(4, [0, 1], 6, interval=(0.0, 1.0))
    path = tmp_path / "points.bin"
    save_points(ps, path)
    back = load_points(path)
    assert np.array_equal(back.values, ps.values)
    assert back.dimension == ps.dimension
    assert back.interval == ps.interval


def test_binary_round_trip_keeps_exact_box_counts(tmp_path):
    # the float values of m2r1/3:10 misplace points that sit on cell
    # boundaries (N(3^-5) = 51 and N(3^-8) = 291 against 32 and 256); the
    # stored numerators keep the exact counts
    from expandlab.dimlab import box_counts, power_ladder

    ps = cantor_points(CantorSpec(2, Fraction(1, 3), 10))
    path = tmp_path / "points.bin"
    save_points(ps, path)
    back = load_points(path)
    assert np.array_equal(back.exact_num, ps.exact_num)
    assert back.exact_den == ps.exact_den
    ladder = power_ladder(3, 1, 10)
    assert box_counts(back, ladder) == box_counts(ps, ladder)
    assert [n for _, n in box_counts(back, ladder)] == [2**k for k in range(1, 11)]


def test_load_rejects_v1_files(tmp_path):
    # a v1 file holds floats only, whose box counts can be wrong; the CLI
    # exits 2 on it
    from expandlab.cli import main

    ps = digit_points(4, [0, 1], 6)
    header = {
        "format": "expandlab-pointset-v1",
        "count": len(ps),
        "dimension": ps.dimension,
        "spec": ps.provenance,
        "interval": list(ps.interval),
    }
    path = tmp_path / "points-v1.bin"
    path.write_bytes(json.dumps(header).encode() + b"\n" + ps.values.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="gen-fractal"):
        load_points(path)
    argv = ["expand", "-f", "x + y", "--vars", "x,y", "--box", "0,1,0,1", "--inputs", f"file:{path}",
            "--ladder", "2^-2..2^-4", "--theorem", "bivariate-analytic", "--no-timestamp"]
    assert main(argv) == 2


def test_load_rejects_truncated_or_inconsistent_files(tmp_path):
    ps = digit_points(4, [0, 1], 4)
    path = tmp_path / "points.bin"
    save_points(ps, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])  # one numerator short
    with pytest.raises(ValueError):
        load_points(path)
    header, body = data.split(b"\n", 1)
    n = len(ps)
    shuffled = body[: 8 * n] + ps.exact_num[::-1].astype("<i8").tobytes()
    path.write_bytes(header + b"\n" + shuffled)
    with pytest.raises(ValueError):
        load_points(path)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_points(path)


def test_midpoint_rule_shifts_by_half_cell():
    left = cantor_points(CantorSpec(2, Fraction(1, 3), 4, rule="left"))
    mid = cantor_points(CantorSpec(2, Fraction(1, 3), 4, rule="mid"))
    shift = float(Fraction(1, 3) ** 4 / 2)
    assert np.allclose(mid.values - left.values, shift)
