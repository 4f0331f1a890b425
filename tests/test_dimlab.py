"""Tests for streaming quantization, box counts, and dimension estimates."""

import itertools
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from expandlab import dimlab
from expandlab.dimlab import (
    QuantizedSet,
    _coarsen,
    box_counts,
    covered_fraction,
    dim_estimate,
    expansion_experiment,
    image_quantize,
    naive_quantize_cells,
    power_ladder,
)
from expandlab.expr import Expr, FunctionSpec, compile_batch, const, parse, var
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
        # numpy's exp and sin may differ from libm's in the last bit; the
        # oracle evaluates with numpy too
        (
            FunctionSpec(parse("exp(3*x)*y - x"), ("x", "y"), ((0, 1), (0, 1))),
            [digit_points(3, [0, 2], 6), digit_points(2, [0, 1], 6)],
        ),
        (
            FunctionSpec(parse("sin(7*x)*z + y^2"), ("x", "y", "z"), ((0, 1),) * 3),
            [digit_points(2, [0, 1], 5)] * 3,
        ),
    ]
    for f, sets in cases:
        q = image_quantize(f, sets, delta_min=1e-4)
        naive = naive_quantize_cells(f, sets, q.lo, q.delta_min, q.ncells)
        assert q.occupied_cells().tolist() == naive


@pytest.fixture
def eight_cores(monkeypatch):
    """os.cpu_count() reads 8, so image_quantize starts the 2, 3, 4 or 8
    workers a test asks for on any machine, not one per core."""
    monkeypatch.setattr(dimlab.os, "cpu_count", lambda: 8)


@pytest.fixture
def routes(monkeypatch):
    """The route decisions of the quantize passes, one bool per block: the
    run route of _Grid.scatter on a plain block, and the ends route on a
    block of chunk ends (its verdicts also in routes.ends)."""

    class Taken(list):
        ends: list

    taken = Taken()
    taken.ends = []

    def runs(grid, vals, pay=dimlab._Grid.runs_pay):
        taken.append(pay(grid, vals))
        return taken[-1]

    def ends(grid, values, mark=dimlab._Grid.mark_ends):
        cross = mark(grid, values)
        taken.append(cross is not None)
        taken.ends.append(taken[-1])
        return cross

    monkeypatch.setattr(dimlab._Grid, "runs_pay", runs)
    monkeypatch.setattr(dimlab._Grid, "mark_ends", ends)
    return taken


@pytest.mark.usefixtures("eight_cores")
def test_image_quantize_thread_invariance(routes):
    cases = [
        (F_SUM, [digit_points(3, [0, 2], 10)] * 2, float(Fraction(1, 3**10)), False),  # 2^20 pairs
        # 16 neighbours in b4d01:9 span under 2^-12 of y: most chunks of a
        # row lie in one cell, so blocks take the run route (at 8 threads,
        # a shard whose first row crosses more cells does not)
        (FunctionSpec(parse("x^2 + x*y"), ("x", "y"), ((0, 1),) * 2), [digit_points(4, [0, 1], 9)] * 2,
         2.0**-12, True),
    ]
    for f, sets, delta, route in cases:
        routes.clear()
        qs = [image_quantize(f, sets, delta_min=delta, value_range=(0, 2), threads=t) for t in (1, 4, 8)]
        assert qs[0].bit_identical(qs[1])
        assert qs[0].bit_identical(qs[2])
        assert qs[0].population == qs[1].population == qs[2].population
        assert any(routes) == route


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
@pytest.mark.usefixtures("eight_cores")
def test_shared_scatter_is_thread_invariant_and_matches_naive(f, sets):
    # a small block makes every shard write many blocks into the shared map
    # while the others do; a short switch interval interleaves them more.
    # The declared range fails part-way: shards stop scattering against it
    # while others still do, and a second pass quantizes.
    for declared in (None, (0.0, 1.5)):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            qs = [image_quantize(f, sets, delta_min=1e-3, value_range=declared, threads=t, block=64)
                  for t in (1, 2, 3, 8)]
        finally:
            sys.setswitchinterval(interval)
        for q in qs[1:]:
            assert qs[0].bit_identical(q)
        assert qs[0].widened == (declared is not None)
        naive = naive_quantize_cells(f, sets, qs[0].lo, qs[0].delta_min, qs[0].ncells)
        assert qs[0].occupied_cells().tolist() == naive
        assert qs[0].population == len(naive)


@pytest.mark.parametrize("threads", [1, 4])
def test_image_quantize_folds_the_top_boundary_when_64_divides_ncells(threads):
    # values {0, 1, 2} on cells of 1/32: 64 cells, and the maximum 2 lies
    # exactly on the top boundary, at index 64, the one byte of the grid's
    # map past the cells, of which q.hit is a view
    A = PointSet1D.from_values([0.0, 1.0])
    q = image_quantize(F_SUM, [A, A], delta_min=1 / 32, threads=threads)
    assert q.ncells == 64 and q.hit.base.size == 65
    naive = naive_quantize_cells(F_SUM, [A, A], q.lo, q.delta_min, q.ncells)
    assert naive == [0, 32, 63]
    assert q.occupied_cells().tolist() == naive
    assert q.population == 3


_MT5 = digit_points(3, [0, 2], 5)  # 32 points, 1024 pairs
_B4 = digit_points(2, [0, 1], 4)  # 16 points, 4096 triples
_D16 = PointSet1D.from_values([i / 16 for i in range(17)])
_B7 = digit_points(4, [0, 1], 7)  # 16 neighbours span under 1e-3 of y


@pytest.mark.parametrize(
    "text, sets",
    [
        ("x^2 + x*y", [_MT5, _MT5]),
        # the maximum 2 is 2000 cells of 1e-3 from the minimum 0, so it is
        # folded into the last cell, 1999
        ("x + y", [_D16, _D16]),
        # (2.001 - 0)/1e-3 rounds to just below 2001, while 2.001*(1/1e-3)
        # is 2001: the cell index must divide
        ("x + y", [PointSet1D.from_values([0.0, 1.0, 2.001, 2.5]), _D16]),
        # f = y with one-tuple blocks, and f = x with a one-point second set,
        # return an input's own array from the evaluator
        ("y", [_MT5, _MT5]),
        ("x", [_MT5, PointSet1D.from_values([0.25])]),
        ("x*y + z", [_B4, _B4, _B4]),
        ("z", [_B4, PointSet1D.from_values([0.5]), _B4]),
        # takes the run route in blocks of 64 tuples and more
        ("x^2 + x*y", [_B7, _B7]),
    ],
)
@pytest.mark.usefixtures("eight_cores")
def test_image_quantize_is_block_size_invariant(text, sets, routes):
    names = ("x", "y", "z")[: len(sets)]
    f = FunctionSpec(parse(text), names, ((0, 3),) * len(sets))
    before = [s.values.copy() for s in sets]
    product = math.prod(len(s) for s in sets)
    blocks = (1, 64, 1 << 18, None, 10 * product)  # None: the default
    qs = [
        image_quantize(f, sets, delta_min=1e-3, threads=t, **({} if b is None else {"block": b}))
        for b in blocks
        for t in (1, 2)
    ]
    for q in qs[1:]:
        assert qs[0].bit_identical(q)
    naive = naive_quantize_cells(f, sets, qs[0].lo, qs[0].delta_min, qs[0].ncells)
    assert qs[0].occupied_cells().tolist() == naive
    assert any(routes) == (text == "x^2 + x*y")
    # the cell index is computed in place: no input may be written
    for s, values in zip(sets, before):
        assert np.array_equal(s.values, values)


@pytest.mark.parametrize("c", ["0", "1", "-1"])  # NaN, +inf, -inf
def test_image_quantize_rejects_one_non_finite_tuple_in_a_middle_block(c):
    # singular only at (1/2, 1/2); with one x row per block of 11 tuples
    # that tuple lies in the sixth of eleven blocks
    f = FunctionSpec(parse(f"x + y + {c}/((x - 1/2)^2 + (y - 1/2)^2)"), ("x", "y"), ((0, 1),) * 2)
    grid = PointSet1D.from_values([i / 10 for i in range(11)])
    for threads in (1, 2):
        with pytest.raises(ValueError, match="not finite"):
            image_quantize(f, [grid, grid], delta_min=1e-3, threads=threads, block=11)


# 0 and 1 put the sum's maximum 2, and x's maximum 1, on the top boundary
# of a power-of-two grid; 0.1, 1/3 and 0.7 round when scaled
_EDGES = PointSet1D.from_values([0.0, 0.1, 1 / 3, 0.5, 0.7, 1.0])


@pytest.mark.parametrize(
    "delta_min", [2.0**-10, 2.0**-24, 3.0**-7, 1e-3], ids=["2^-10", "2^-24", "3^-7", "1e-3"]
)
@pytest.mark.parametrize("text", ["x + y", "x"])  # f = x returns the input's own array
def test_cell_index_by_reciprocal_or_quotient_matches_naive(text, delta_min):
    # a power of two is multiplied by its reciprocal, any other delta_min
    # divided by; both must give the cells of the scalar floor of the quotient
    f = FunctionSpec(parse(text), ("x", "y"), ((0, 1),) * 2)
    sets = [_EDGES, PointSet1D.from_values([*digit_points(3, [0, 2], 3).values, 1.0])]
    before = [ps.values.copy() for ps in sets]
    q = image_quantize(f, sets, delta_min=delta_min)
    naive = naive_quantize_cells(f, sets, q.lo, q.delta_min, q.ncells)
    assert q.occupied_cells().tolist() == naive
    if delta_min == 2.0**-10:
        # the maximum lies on the top boundary and is folded into the last cell
        assert q.ncells == (q.hi - q.lo) * 1024 and naive[-1] == q.ncells - 1
    for ps, values in zip(sets, before):
        assert np.array_equal(ps.values, values)


@pytest.fixture
def serial_pool(monkeypatch):
    """ThreadPoolExecutor replaced by a pool that records max_workers and
    runs the shards one after another, on a machine of 2 cores: no thread
    is started, however many are asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(dimlab, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(dimlab.os, "cpu_count", lambda: 2)
    return sizes


def test_worker_threads_are_capped_at_the_core_count(serial_pool):
    q = image_quantize(F_SUM, [_MT5, _MT5], delta_min=1e-3, threads=100_000)
    # x + y rises in x, so one pass quantizes against a range known in advance
    assert serial_pool == [2]
    assert q.bit_identical(image_quantize(F_SUM, [_MT5, _MT5], delta_min=1e-3, threads=1))


def test_worker_pools_count_the_passes(serial_pool):
    # the benchmark's functions rise in x on their inputs, so one pass
    # quantizes; a saddle is not monotone in x, so a range scan comes first
    b4 = digit_points(4, [0, 1], 5)
    mt = cantor_points(CantorSpec(2, Fraction(1, 3), 6))
    for text, names, sets, passes in (
        ("x^2 + x*y", "xy", [b4, b4], 1),
        ("x*y + z", "xyz", [b4, b4, b4], 1),
        ("x + y", "xy", [mt, mt], 1),
        ("(x - 0.3)^2 - (y - 0.05)^2", "xy", [b4, b4], 2),
    ):
        f = FunctionSpec(parse(text), tuple(names), ((0, 1),) * len(names))
        serial_pool.clear()
        # 16-tuple blocks split each row of the trivariate product, so its
        # known range takes several blocks
        for block in (16, dimlab._BLOCK):
            image_quantize(f, sets, delta_min=2.0**-20, threads=100_000, block=block)
        assert serial_pool == [2] * 2 * passes, text


# f, its variables, and whether an enclosure of df/dx has one sign on [0, 1]
_ROUTES = [
    ("x^2 + x*y", "xy", True),
    ("x*y + z", "xyz", True),
    ("exp(x)*y - sin(3*z)", "xyz", True),
    ("y*z - x^3", "xyz", True),  # falls in x
    ("(x - 0.3)^2 - (y - 0.05)^2", "xy", False),
    ("sin(40*x)*y + x", "xy", False),
    # df/dx = sin x, whose enclosure is exactly 0 at x = 0, where b4d01 starts
    ("y - cos(x)", "xy", True, [digit_points(4, [0, 1], 6)] * 2),
]


@pytest.mark.usefixtures("eight_cores")
def test_one_pass_matches_the_two_pass_route(monkeypatch):
    # The one-pass route must give the two passes' result bit for bit, also
    # when its range fails: a declared range that widens, or an enclosure
    # that claims a sign it does not have, so the end rows miss an extreme.
    rng = random.Random(19)
    for text, names, monotone, *fixed in _ROUTES:
        f = FunctionSpec(parse(text), tuple(names), ((0, 1),) * len(names))
        for declared in (None, (-3.0, 3.0), (0.0, 0.05)):  # none, one that holds, one that widens
            threads = rng.choice((1, 2, 4, 8))
            block = rng.choice((11, 64, dimlab._BLOCK))
            levels = (3, 4, 5) if len(names) == 2 else (2, 3)
            sets = fixed[0] if fixed else [digit_points(rng.choice((3, 4)), [0, 1], rng.choice(levels)) for _ in names]
            args = dict(delta_min=1e-3, value_range=declared, threads=threads, block=block)
            passes = []
            with monkeypatch.context() as m:
                m.setattr(dimlab, "_run_sharded", lambda *a, run=dimlab._run_sharded: passes.append(1) or run(*a))
                q = image_quantize(f, sets, **args)
            holds = declared == (-3.0, 3.0) or declared is None and monotone
            assert len(passes) == (1 if holds else 2), (text, declared)
            with monkeypatch.context() as m:
                # with no proof that the rows rise, every function's range
                # comes from the enclosure of df/dx
                m.setattr(dimlab, "rising", lambda *a: False)
                m.setattr(dimlab, "enclosure", lambda *a: (0.0, 0.0))
                lied = image_quantize(f, sets, **args)
                m.setattr(dimlab, "_known_range", lambda *a: None)
                two = image_quantize(f, sets, **args)
            for other in (lied, two):
                assert q.bit_identical(other), (text, declared, threads, block)
                assert (q.widened, q.out_of_declared_count) == (other.widened, other.out_of_declared_count)
            assert q.widened == (declared == (0.0, 0.05))
            naive = naive_quantize_cells(f, sets, q.lo, q.delta_min, q.ncells)
            assert q.occupied_cells().tolist() == naive


def test_tuple_blocks_split_rows_that_exceed_the_block():
    a, b, c = (PointSet1D.from_values(np.arange(n) / n) for n in (5, 7, 9))
    for sets in ([a, b, c], [a, b]):
        product = sorted(itertools.product(*(s.values.tolist() for s in sets)))
        lead = dimlab._product([s.values for s in sets[:-1]])
        for block in (1, 5, 9, 16, 63, 64, 1000):
            tuples = []
            for rows, arrays in dimlab._blocks(lead, sets[-1].values, block):
                grids = np.broadcast_arrays(*arrays)
                assert grids[0].size <= block
                assert grids[0].shape[0] == len(range(len(lead[0]))[rows])
                tuples += zip(*(g.ravel().tolist() for g in grids))
            assert sorted(tuples) == product, (len(sets), block)
    # the benchmark's x*y + z on b4d01:8 keeps 23,620 of its 65,536 (x, y)
    # pairs, 512 rows of 256 values a block
    b8 = digit_points(4, [0, 1], 8)
    f = FunctionSpec(parse("x*y + z"), ("x", "y", "z"), ((0, 1),) * 3)
    lead, weights = dimlab._lead(f, [b8] * 3)
    shapes = [np.broadcast(*arrays).shape for _, arrays in dimlab._blocks(lead, b8.values, dimlab._BLOCK)]
    assert len(lead[0]) == 23_620 and shapes == [(512, 256)] * 46 + [(68, 256)]


@pytest.mark.usefixtures("eight_cores")
@pytest.mark.parametrize("text", ["x*y + z", "(x - 0.3)*y - z^2"])
def test_trivariate_bitset_is_invariant_to_split_rows(text):
    sets = [digit_points(3, [0, 2], 3), digit_points(4, [0, 1], 4), digit_points(2, [0, 1], 5)]
    f = FunctionSpec(parse(text), ("x", "y", "z"), ((0, 1),) * 3)
    # a row is 256 * 32 tuples: the smaller blocks split it along y
    qs = [image_quantize(f, sets, delta_min=1e-4, threads=t, block=b)
          for b in (7, 32, 100, 8192, dimlab._BLOCK) for t in (1, 3)]
    for q in qs[1:]:
        assert qs[0].bit_identical(q)
    naive = naive_quantize_cells(f, sets, qs[0].lo, qs[0].delta_min, qs[0].ncells)
    assert qs[0].occupied_cells().tolist() == naive


def _clustered_rows(rng, rows: int, n: int, cells: int, delta: float) -> np.ndarray:
    """rows x n values, each row sorted, in 5 of `cells` cells of delta over
    [0, cells * delta]: some on cell boundaries, and the top value once."""
    out = np.empty((rows, n))
    for r in range(rows):
        idx = np.sort(rng.choice(cells, size=5, replace=False))[rng.integers(0, 5, size=n)]
        out[r] = np.sort((idx + np.where(rng.random(n) < 0.1, 0.0, rng.random(n))) * delta)
    out[-1, -1] = cells * delta
    return out


def test_writing_into_a_compiled_result_leaves_the_inputs_unchanged():
    # the plain scatter writes cell coordinates over the values it is given,
    # so compile_batch must not hand back an input where f = x, or f = z
    # over a block of one lead tuple, has that input's shape
    a = np.linspace(0.5, 1.5, 7)
    compile_batch(parse("x"), ("x",))(a)[...] = -1.0
    assert a.tolist() == np.linspace(0.5, 1.5, 7).tolist()
    row = _B4.values.copy()
    (_, arrays), = dimlab._blocks([np.array([0.5]), np.array([0.25])], row, dimlab._BLOCK)
    compile_batch(parse("z"), ("x", "y", "z"))(*arrays)[...] = -1.0
    assert np.array_equal(row, _B4.values)


def test_run_route_marks_the_cells_of_the_plain_scatter():
    # the same values, sorted within each row (the run route) or shuffled
    # within it (the plain scatter), mark the same bytes: those of the
    # scalar floor of the quotient, the top value folded into the last cell
    rng = np.random.default_rng(20)
    delta = 2.0**-8
    for _ in range(20):
        rising = _clustered_rows(rng, 4, 1024, 256, delta)
        shuffled = rng.permuted(rising, axis=1)
        grids = [dimlab._Grid(0.0, 1.0, delta) for _ in range(2)]
        assert grids[0].runs_pay(rising) and not grids[1].runs_pay(shuffled)
        for grid, vals in zip(grids, (rising, shuffled)):
            # the plain scatter writes the cell coordinates over the values
            grid.scatter(vals.copy())
        assert np.array_equal(grids[0].hit, grids[1].hit)
        cells = {min(math.floor(v / delta), 255) for v in rising.ravel().tolist()}
        assert np.flatnonzero(grids[0].occupancy()).tolist() == sorted(cells)
        # one value out of order, in a row after the first, inside a chunk
        # whose ends share a cell: the probe still passes, and the exact
        # check must refuse the route
        j = next(k for k in range(0, 1024, 16) if int(rising[2, k] / delta) == int(rising[2, k + 15] / delta))
        free = min(set(range(256)) - cells)
        bumped = rising.copy()
        bumped[2, j + 7] = (free + 0.5) * delta
        grid = dimlab._Grid(0.0, 1.0, delta)
        assert not grid.runs_pay(bumped)
        grid.scatter(bumped)
        assert grid.hit[free] == 1


_B3 = digit_points(4, [0, 1], 3)
_B6 = digit_points(4, [0, 1], 6)


@pytest.mark.parametrize(
    "text, sets, route",
    [
        ("x^2 + x*y/8", [_B6, _B6], True),  # clustered rows
        ("x - y", [_B6, _B6], False),  # falling rows
        ("(y - 1/6)^2 + x", [_B6, _B6], False),  # rows that fall, then rise
        ("x + y", [digit_points(3, (0, 1, 2), 3)] * 2, False),  # rows of 27 values
        ("y", [_B6, digit_points(4, [0, 1], 9)], True),  # f returns the input's own array
        # the gathered crossing chunks take sin of their x coordinates
        ("sin(x) + x*y/8", [_B6, _B6], True),
        # trivariate: the chunks run along z, and a part may split y
        ("x*y + z/2", [_B3, _B3, _B7], True),
        ("x/(y + 1)", [_B6, _B6], False),  # proven to fall, not to rise
    ],
)
@pytest.mark.usefixtures("eight_cores")
def test_run_route_matches_naive_enumeration(text, sets, route, routes):
    names = ("x", "y", "z")[: len(sets)]
    f = FunctionSpec(parse(text), names, ((0, 1),) * len(sets))
    q = image_quantize(f, sets, delta_min=2.0**-8)
    # a proven f takes the ends route where it pays, which leaves the run
    # route of the plain scatter only blocks whose ends cross too often
    assert any(routes) == any(routes.ends) == route
    naive = naive_quantize_cells(f, sets, q.lo, q.delta_min, q.ncells)
    assert q.occupied_cells().tolist() == naive
    # every thread count and block size, also against a declared range that
    # the image leaves on both sides: widened, it is q's range again, and
    # the out-of-range count stays exact
    values = compile_batch(f.expr, f.vars)(*np.ix_(*(s.values for s in sets)))
    width = q.hi - q.lo
    declared = (q.lo + width / 4, q.lo + width / 2)
    outside = int(np.count_nonzero((values < declared[0]) | (values > declared[1])))
    assert outside
    for value_range, count in ((None, 0), (declared, outside)):
        for threads, block in itertools.product((1, 4, 8), (16, 100, 2048, dimlab._BLOCK)):
            other = image_quantize(f, sets, delta_min=2.0**-8, value_range=value_range, threads=threads, block=block)
            assert q.bit_identical(other), (value_range, threads, block)
            assert (other.widened, other.out_of_declared_count) == (bool(count), count)


_RISING = FunctionSpec(parse("x^2 + x*y"), ("x", "y"), ((0, 1),) * 2)
_B8 = digit_points(4, [0, 1], 8)


def test_a_shard_tries_no_chunk_ends_after_a_refusal(monkeypatch):
    # f rises along every row, and a row at x spans about x/3: the first
    # rows of the first shard cross few cells of 2^-12, later rows too many
    events = []
    blocks, mark = dimlab._blocks, dimlab._Grid.mark_ends

    def spied_blocks(lead, row, block):
        events.append("|")
        for part in blocks(lead, row, block):
            events.append(".")
            yield part

    def spied_mark(grid, ends):
        cross = mark(grid, ends)
        events.append("T" if cross is not None else "F")
        return cross

    monkeypatch.setattr(dimlab, "_blocks", spied_blocks)
    monkeypatch.setattr(dimlab._Grid, "mark_ends", spied_mark)
    q = image_quantize(_RISING, [_B8, _B8], delta_min=2.0**-12, block=1024)
    shards = "".join(events).split("|")[1:]
    # the known range's blocks, then the four shards of the one pass
    assert len(shards) == 5 and "T" not in shards[0] and "F" not in shards[0]
    for shard in shards[1:]:
        assert re.fullmatch(r"(\.T)*(\.F)?\.*", shard), shard
    assert re.fullmatch(r"(\.T)+\.F\.+", shards[1])  # a refusal with blocks after it
    naive = naive_quantize_cells(_RISING, [_B8, _B8], q.lo, q.delta_min, q.ncells)
    assert q.occupied_cells().tolist() == naive


def test_blocks_that_split_rows_never_reach_mark_ends(routes):
    sets = [_B8, _B8]
    whole = image_quantize(_RISING, sets, delta_min=2.0**-8)
    assert any(routes.ends)
    routes.ends.clear()
    # 100 of a row's 256 values a block: no block holds the whole row
    split = image_quantize(_RISING, sets, delta_min=2.0**-8, block=100)
    assert not routes.ends
    assert split.bit_identical(whole)
    naive = naive_quantize_cells(_RISING, sets, split.lo, split.delta_min, split.ncells)
    assert split.occupied_cells().tolist() == naive


# ---------------------------------------------------------------------------
# the lead list: one lead tuple per distinct row
# ---------------------------------------------------------------------------


_UNARY = ("neg", "sin", "exp", "log", "sqrt")


def _grown(rng, node: Expr, others: list, steps: int) -> Expr:
    """node grown by `steps` random ops, each on the node grown so far and,
    for + - * /, one of others on a random side: negation, integer powers,
    sin, exp, log and sqrt."""
    for _ in range(steps):
        op = str(rng.choice(["add", "sub", "mul", "div", "powi", *_UNARY]))
        if op == "powi":
            node = node ** int(rng.choice([-1, 2, 3]))
        elif op in _UNARY:
            node = Expr(op, (node,))
        else:
            other = others[int(rng.integers(len(others)))]
            node = Expr(op, (node, other) if rng.random() < 0.5 else (other, node))
    return node


def _random_rows(rng, names) -> Expr:
    """A random f whose rows (along the last variable) are built from one or
    two random parts of the lead variables, each x + y, x - y or x*y grown
    further (x*x or x + x when x is the only one), and now and then from a
    bare x: its frontier is those parts."""
    *lead, last = names
    parts = [
        _grown(rng, Expr(str(rng.choice(["add", "mul"] if len(lead) == 1 else ["add", "sub", "mul"])),
                         (var(lead[0]), var(lead[-1]))), [const(2)], int(rng.integers(0, 3)))
        for _ in range(int(rng.integers(1, 3)))
    ]
    others = parts + [const(Fraction(1, 3))] + ([var(lead[0])] if rng.random() < 0.25 else [])
    ends = (parts[0], var(last))
    row = Expr(str(rng.choice(["add", "sub", "mul", "div"])), ends if rng.random() < 0.5 else ends[::-1])
    return _grown(rng, row, others, int(rng.integers(0, 4)))


def _full_product(f, sets, delta, value_range):
    """lo, hi, the occupancy map and the out-of-range count that one batch
    evaluation of the whole product gives: None when a value is not finite."""
    vals = compile_batch(f.expr, f.vars)(*np.ix_(*(s.values for s in sets)))
    if not np.isfinite(vals).all():
        return None
    lo, hi, outside = float(vals.min()), float(vals.max()), 0
    if value_range is not None:
        outside = int(np.count_nonzero((vals < value_range[0]) | (vals > value_range[1])))
        lo, hi = value_range if not outside else (min(value_range[0], lo), max(value_range[1], hi))
    ncells = math.ceil((hi - lo) / delta)
    hit = np.zeros(ncells + 1, dtype=np.uint8)
    hit[((vals - lo) * (1 / delta)).astype(np.intp).ravel()] = 1  # delta is a power of two
    hit[ncells - 1] |= hit[ncells]
    return lo, hi, hit[:ncells], outside


# sums and products of the eighths collide (1/8 + 3/8 = 2/8 + 2/8, 2*6 =
# 3*4), and squares of a set symmetric about 0 collide in pairs
_EIGHTHS = PointSet1D.from_values([i / 8 for i in range(1, 10)])
_SYMMETRIC = PointSet1D.from_values([i / 8 for i in range(-8, 9) if i])
_ROW32 = digit_points(2, [0, 1], 5, interval=(0.5, 1.5))


@pytest.mark.usefixtures("eight_cores")
def test_lead_list_matches_the_full_product_on_random_functions():
    # the lead list must give the range, the map and the out-of-range count
    # of the whole product, on every route, thread count and block size
    rng = np.random.default_rng(29)
    checked, sorted_leads, failed = 0, 0, 0
    while checked < 24:
        names = ("x", "y", "z") if checked % 2 else ("x", "y")
        lead_set = (_EIGHTHS, _SYMMETRIC)[int(rng.integers(2))]
        sets = [lead_set] * (len(names) - 1) + [_ROW32]
        f = FunctionSpec(_random_rows(rng, names), names, ((0, 1),) * len(names))
        image = _full_product(f, sets, 1.0, None)
        if image is None:
            failed += 1
            with pytest.raises(ValueError, match="not finite"):
                image_quantize(f, sets, delta_min=1.0)
            continue
        vmin, vmax = image[:2]
        if not vmax - vmin > 1e-6 * max(1.0, abs(vmin)):
            continue
        checked += 1
        sorted_leads += dimlab._lead(f, sets)[1] is not None
        w = vmax - vmin
        delta = 2.0 ** (math.floor(math.log2(w)) - 9)
        for value_range in (None, (vmin - w / 8, vmax + w / 8), (vmin + w / 4, vmin + w / 2)):
            lo, hi, hit, outside = _full_product(f, sets, delta, value_range)
            for threads, block in itertools.product((1, 4, 8), (16, 100, 1 << 17)):
                q = image_quantize(f, sets, delta_min=delta, value_range=value_range, threads=threads, block=block)
                where = (str(f.expr), value_range, threads, block)
                assert (q.lo, q.hi) == (lo, hi), where
                assert np.array_equal(q.hit, hit), where
                assert (q.widened, q.out_of_declared_count) == (bool(outside), outside), where
    # the draws cover lead lists that sort, and functions that leave their domain
    assert sorted_leads >= 8 and failed >= 1


def test_a_frontier_of_minus_zero_and_zero_keeps_both_keys():
    # x*y at (-1, 0) is -0.0 and at (1, 0) is 0.0: equal as floats, but rows
    # built on them may differ (1/-0.0 is -inf), so both tuples stay
    f = FunctionSpec(parse("x*y + z"), ("x", "y", "z"), ((-1, 1),) * 3)
    a, b = PointSet1D.from_values([-1.0, 1.0]), PointSet1D.from_values([0.0])
    lead, weights = dimlab._lead(f, [a, b, _B4])
    assert lead[0].tolist() == [-1.0, 1.0] and weights.tolist() == [1, 1]
    # with y = 2 as well, (-1, 0) and (1, 0) stay apart, and no other pair meets
    lead, weights = dimlab._lead(f, [a, PointSet1D.from_values([0.0, 2.0]), _B4])
    assert list(zip(*(v.tolist() for v in lead))) == [(-1.0, 0.0), (-1.0, 2.0), (1.0, 0.0), (1.0, 2.0)]


def test_a_two_node_frontier_keeps_every_pair():
    # the frontier {x*y, x + y} is two keys, and only one is ever sorted: all
    # 81 pairs of eighths are kept, in lead order, though (x, y) and (y, x)
    # share a row
    f = FunctionSpec(parse("x*y + (x + y)*z"), ("x", "y", "z"), ((0, 2),) * 3)
    sets = [_EIGHTHS, _EIGHTHS, _B4]
    lead, weights = dimlab._lead(f, sets)
    assert weights is None
    assert [v.tolist() for v in lead] == [v.tolist() for v in dimlab._product([_EIGHTHS.values] * 2)]
    q = image_quantize(f, sets, delta_min=2.0**-14)
    assert q.occupied_cells().tolist() == naive_quantize_cells(f, sets, q.lo, q.delta_min, q.ncells)


@pytest.mark.parametrize(
    "text, names, sorts",
    [
        ("x^2 + x*y", "xy", False),  # frontier {x^2, x}
        ("x + y", "xy", False),  # {x}
        ("x", "xy", False),  # constant rows: the frontier is f itself
        ("x*(y + z)", "xyz", False),  # {x, y}
        ("x + sin(y)*z", "xyz", False),  # {x, sin(y)}: two nodes
        ("x*y + z", "xyz", True),  # {x*y}
        ("x + z", "xyz", True),  # {x}: y is not bare
        ("x^2 + y", "xy", True),  # {x^2}
        ("y", "xy", True),  # no frontier: every row is the same
        # five frontier nodes: every pair is kept
        ("x*y*z + (x + y)*z^2 + (x - y)*z^3 + x^2*y*z^4 + x*y^2*z^5", "xyz", False),
    ],
)
def test_a_frontier_with_every_lead_variable_bare_never_sorts(monkeypatch, text, names, sorts):
    sorted_by = []
    for name in ("argsort", "lexsort"):
        monkeypatch.setattr(dimlab.np, name, lambda *a, name=name, run=getattr(np, name), **k: (
            sorted_by.append(name) or run(*a, **k)))
    f = FunctionSpec(parse(text), tuple(names), ((0, 1),) * len(names))
    sets = [_B4] * len(names)
    q = image_quantize(f, sets, delta_min=2.0**-12)
    assert bool(sorted_by) == sorts, sorted_by
    monkeypatch.undo()
    lead, weights = dimlab._lead(f, sets)
    assert (weights is None) == (not sorts)
    assert int(len(lead[0]) if weights is None else weights.sum()) == len(_B4) ** (len(names) - 1)
    naive = naive_quantize_cells(f, sets, q.lo, q.delta_min, q.ncells)
    assert q.occupied_cells().tolist() == naive


def test_lead_lists_of_the_benchmark_commands():
    # expand-dense 0 and expand-fine (x^2 + x*y) and expand-dense 2 (x + y)
    # keep every x unsorted; expand-dense 1 (x*y + z on b4d01:8) keeps
    # 23,620 of its 65,536 (x, y) pairs
    for text, names, spec in (("x^2 + x*y", "xy", digit_points(4, [0, 1], 13)),
                              ("x + y", "xy", cantor_points(CantorSpec(2, Fraction(1, 3), 11))),
                              ("x*y + z", "xyz", _B8)):
        f = FunctionSpec(parse(text), tuple(names), ((0, 1),) * len(names))
        lead, weights = dimlab._lead(f, [spec] * len(names))
        if names == "xy":
            assert weights is None and lead[0] is spec.values
        else:
            assert len(lead[0]) == 23_620 and int(weights.sum()) == 65_536
            # in lead order, each pair the first of its x*y
            flat = np.searchsorted(spec.values, lead[0]) * len(spec) + np.searchsorted(spec.values, lead[1])
            assert np.all(np.diff(flat) > 0)
            products = (spec.values[:, None] * spec.values[None, :]).ravel()
            _, first = np.unique(products.view(np.uint64), return_index=True)
            assert np.array_equal(np.sort(first), flat)


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


@pytest.mark.parametrize("delta_min", [0.0, -1.0, math.nan])
def test_image_quantize_rejects_a_delta_min_that_is_not_positive(delta_min):
    # rejected before any grid is built: a declared range builds one first
    A = PointSet1D.from_values([0.0, 1.0])
    for value_range in (None, (0.0, 2.0)):
        with pytest.raises(ValueError, match="delta_min must be positive"):
            image_quantize(F_SUM, [A, A], delta_min=delta_min, value_range=value_range)


@pytest.mark.parametrize("rung", [Fraction(0), Fraction(-1, 8), Fraction(1, 2**1075), 0.0])
def test_expansion_experiment_rejects_a_rung_that_is_not_positive(rung):
    # 2^-1075 is positive, but its float is 0.0
    ladder = power_ladder(2, 2, 6) + [rung]
    with pytest.raises(ValueError, match="must be positive"):
        expansion_experiment(F_SUM, [_B4, _B4], ladder, "bivariate-analytic")


def test_quantized_set_requires_positive_range():
    with pytest.raises(ValueError):
        QuantizedSet(lo=1.0, hi=1.0, delta_min=0.1, hit=np.zeros(4, dtype=np.uint8))


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


def _random_quantized(
    rng, ncells: int, density: float, empty_top: int = 0
) -> tuple[QuantizedSet, np.ndarray]:
    occ = np.flatnonzero(rng.random(ncells - empty_top) < density)
    if not empty_top:
        occ = np.union1d(occ, [ncells - 1])  # the last cell, so the last coarse cell is trimmed
    hit = np.zeros(ncells, dtype=np.uint8)
    hit[occ] = 1
    delta_min = 2.0**-10
    # hi - lo ends half-way through the last cell
    q = QuantizedSet(
        lo=0.0,
        hi=(ncells - 0.5) * delta_min,
        delta_min=delta_min,
        hit=hit,
    )
    return q, occ


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_box_counts_match_unique_oracle_on_random_sets(seed):
    rng = np.random.default_rng(seed)
    # the last case leaves the top 300 cells empty, so for every k below the
    # last coarse cell is empty and not trimmed
    for ncells, density, empty_top in (
        (1, 1.0, 0),
        (1000, 0.5, 0),
        (100_003, 0.01, 0),
        (5_000, 0.002, 0),
        (5_000, 0.05, 300),
    ):
        q, occ = _random_quantized(rng, ncells, density, empty_top)
        assert q.occupied_cells().tolist() == occ.tolist()
        assert q.population == occ.size
        # one walk over a shuffled ladder with repeats: 6 and 24 are coarsened
        # from the maps of 3 and 12, the others from the finest map
        ks = [1, 2, 3, 6, 7, 12, 24, 64, 3**5, 6, 1]
        rng.shuffle(ks)
        ladder = [k * q.delta_min for k in ks]
        assert box_counts(q, ladder) == [
            (k * q.delta_min, np.unique(occ // k).size) for k in ks
        ]
        with pytest.raises(ValueError):
            box_counts(q, ladder[:3] + [2.5 * q.delta_min] + ladder[3:])
        finest = q.hit
        # the coarse cells themselves, from the finest map and along a chain
        assert np.flatnonzero(_coarsen(_coarsen(finest, 3), 4)).tolist() == (
            np.unique(occ // 12).tolist()
        )
        for k in (1, 2, 3, 7, 64, 3**5):
            delta = k * q.delta_min
            cells = np.unique(occ // k)
            assert np.flatnonzero(_coarsen(finest, k)).tolist() == cells.tolist()
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


def test_point_set_box_counts_exact_beyond_int64():
    ps = digit_points(3, [0, 2], 10)
    # in the first two extra rungs p = 3^35 fits int64 but num * p reaches
    # 3^45 > 2^63, in the third p = 3^45 itself does not fit; the first and
    # third merge points, so a wrapped product would change their counts
    ladder = power_ladder(3, 1, 10) + [
        Fraction(3**36 + 1, 3**45),
        Fraction(1, 3**45),
        Fraction(3**46 + 1, 3**55),
    ]
    counts = box_counts(ps, ladder)
    for d, (_, n) in zip(ladder, counts):
        ratio = 1 / (ps.exact_den * d)
        p, q = ratio.numerator, ratio.denominator
        cells = {min(x * p // q, math.ceil(1 / d) - 1) for x in ps.exact_num.tolist()}
        assert n == len(cells)
    assert [n for _, n in counts[:10]] == [2**k for k in range(1, 11)]
    assert counts[10][1] < len(ps) and counts[12][1] < len(ps)
    # p = 2^54 and max(num) * p < 2^63, but the rung has 2^64 cells, so its
    # last cell index does not fit int64 either
    small = digit_points(4, [0, 1], 5)
    d = Fraction(1, 2**64)
    assert box_counts(small, [d]) == [(float(d), 32)]


def test_point_set_box_counts_agree_in_int64_and_python_ints():
    # the same points with numerators and denominator scaled by 2^62 are
    # counted in Python ints; the originals fit int64 on every rung
    for ps in (digit_points(4, [0, 1], 6), digit_points(3, [0, 2], 8)):
        scaled = PointSet1D(
            values=ps.values, dimension=ps.dimension, provenance="scaled", interval=ps.interval,
            exact_num=np.array([n << 62 for n in ps.exact_num.tolist()], dtype=object),
            exact_den=ps.exact_den << 62,
        )
        ladder = power_ladder(2, 1, 14) + power_ladder(3, 1, 10)
        counts = box_counts(ps, ladder)
        assert box_counts(scaled, ladder) == counts
        for d, (_, n) in zip(ladder, counts):
            ratio = 1 / (ps.exact_den * d)
            cells = {min(x * ratio.numerator // ratio.denominator, math.ceil(1 / d) - 1)
                     for x in ps.exact_num.tolist()}
            assert n == len(cells)


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
    # the default window drops 2 rungs at each end: 7 rungs leave 3
    with pytest.raises(ValueError, match="fit window has 3 rungs"):
        dim_estimate([(2.0**-k, 2**k) for k in range(1, 8)])
    assert dim_estimate([(2.0**-k, 2**k) for k in range(1, 9)]).window == (2, 6)


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
