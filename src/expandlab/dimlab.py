"""Image-set measurement: streaming quantization, box counts, dimension fits.

The image f(A x B [x C]) is quantized onto a fixed grid of delta_min-cells
over its value range (a declared range is widened, never clamped, when
values fall outside it).  When that range is known before the pass (a
declared range; the extremes of the first and last columns when f is proven
to rise along every row; or the extremes of the first and last rows of A
when an interval enclosure of df/dx has one sign), one streaming pass
evaluates each tuple at most once, quantizes against the range and checks
it; otherwise, or when the check fails, a range scan comes first.  Every shard stores 1 into one
shared byte map at each cell it hits; since every write stores the same
value, the map is bit-identical for any thread count, shard order, block
size or route, and the QuantizedSet keeps it as it is, one 0/1 byte per
cell.  Box counts at coarser scales merge cells exactly (delta must be an
integer multiple of delta_min): one walk over the ladder, finest rung first,
counts the map itself and builds each coarser rung's map of one byte per
coarse cell by OR-ing strided slices of the previous rung's map, so a ladder
whose multiples of delta_min each divide the next costs about two passes
over the cell map in all, however many rungs it has (Liebovitch & Toth,
Phys. Lett. A 141, 1989).  The box-counting dimension is the least-squares
slope of log N against log(1/delta) over a fit window.

A row is f along the last axis, at one lead tuple: (x) of A, or (x, y) of
A x B.  The passes walk a lead list, one lead tuple per distinct row, not
the product of the lead axes.  f's frontier is the set of its maximal
subexpressions that do not involve the last variable but feed a node that
does ({x*y} for x*y + z, {h(x) + k(y)} for g(h(x) + k(y) + l(z))).  Every
node that involves the last variable is computed from frontier values,
constants and that variable by elementwise numpy ops, so two lead tuples
whose frontier values agree bit for bit have bit-identical rows.  When the
frontier is one node, the lead list keeps the first tuple of each set of
such tuples (one sort of its values as uint64 keys, so -0.0 and 0.0 stay
apart), with its multiplicity for the out-of-range count; the cells hit,
and so the map, are those of the whole product.  A frontier of two or more
nodes keeps every tuple with no sort (when a bare lead variable is among
them, as in x + sin(y)*z, no two tuples agree anyway: the point sets are
strictly increasing), and so does the frontier {x} of a bivariate f.  On
the benchmark:
  expand-dense 0 and expand-fine, x^2 + xy (frontier {x^2, x}), and
    expand-dense 2, x + y ({x}): every x kept, no sort;
  expand-dense 1, xy + z on b4d01:8 ({x*y}): 23,620 of 65,536 (x, y) pairs
    kept, so 37.1% of the product's tuples are evaluated, against 101.2%
    over the whole product.
For 3-D the lead list holds two floats per kept pair, 1/|C| of the tuples.

Every pass walks the lead list times the row in blocks of 2^17 tuples
(contiguous slices of the lead list by whole rows, or one lead tuple by a
slice of a row that holds more), so a float64 (or intp) array over a block
is 1 MiB.  Against blocks of 2^16, the benchmark's peak RSS (the maximum over
its commands, median of 6 runs on a 2-core VM) stayed at 32.8 MB on
expand-dense, with one thread, and rose from 37.3 to 40.9 MB on
expand-fine, whose two threads each hold a block's arrays.  The cell
index (v - lo) / delta_min is computed as (v - lo) * 2^k when delta_min is
2^-k and 2^k is finite: both are the same exact scaling, so the bits agree.
Any other delta_min divides.

Where many tuples share a cell, two routes evaluate or scatter fewer of
them.  Both split the rows (the last axis) into chunks of _RUN = 16 values.
When expr.rising proves, once per call, that f's float values rise along
every row over the hull of the inputs, a block's extremes are the min of its
first column and the max of its last, and each block of a shard first tries
its chunk ends (see _ends): f is evaluated only at the two ends of each
chunk, a chunk whose ends share a cell marks it once, and only the chunks
that cross a cell are gathered and evaluated in full.  A block that splits
its rows, leaves the grid's range or has more than 1/8 of its chunks
crossing a cell marks nothing and is evaluated in full where it stands, and
so is every later block of its shard (one line of the loop sets that
policy).  A block evaluated in full takes the run route of _Grid.scatter
when at least 7/8 of the chunks of its first row have ends in one cell and
every row is non-decreasing by an exact check of the values; falling and
non-monotone rows keep the plain scatter.  Measured on the benchmark
(percent of a command's tuples covered by each route, and evaluated):
  expand-dense 0, x^2 + xy on b4d01:13 at 2^-16: chunk ends 100%, 13.8%
    evaluated (1.2% of its chunks cross a cell);
  expand-dense 1, xy + z on b4d01:8, and 2, x + y on m2r1/3:11: each
    shard's first block refuses its chunk ends (8.7% of the kept rows and
    12.5% of the tuples), plain scatter 100%; 37.1% and 101.7% of the
    product's tuples evaluated;
  expand-fine, x^2 + xy on b4d01:12 at 2^-24 (2 threads): chunk ends 6.2%,
    run route 4.7%, plain scatter 89.1% (refused chunk ends 6.2%), 95.7%
    evaluated;
  certify: no quantize.
Rounding of + - * / is monotone, so a chunk of a rising row whose ends share
a cell lies in it, and numpy computes each tuple's float the same in any
array; every write still stores 1, so the map is the same on every route.

Box dimension dominates Hausdorff dimension, so the theorems' lower bounds
remain valid one-sided predicates for these estimates (up to estimator
noise); reports carry the exact bound next to the measured slope.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .degeneracy import DegeneracyReport, ThresholdReport, thresholds
from .errors import BudgetError
from .expr import Expr, ExprError, FunctionSpec, compile_batch, enclosure, free_vars, rising, var
from .fractal import PointSet1D
from .jsonutil import jsonable, rational

__all__ = [
    "DimEstimate",
    "ExperimentReport",
    "QuantizedSet",
    "box_counts",
    "covered_fraction",
    "dim_estimate",
    "expansion_experiment",
    "image_quantize",
    "naive_quantize_cells",
    "power_ladder",
]

# bounds the byte map image_quantize scatters into and its QuantizedSet
# keeps: 1 byte per cell, 256 MiB
_MAX_CELLS = 1 << 28
# tuples per block of every pass: 1 MiB per float64 array, and 2^13 chunks
# of _RUN values when f is proven to rise along the rows (see the module
# docstring)
_BLOCK = 1 << 17
# values per chunk of a row on the run route of _Grid.scatter and in _ends:
# a sweep of 8/16/32 against probe thresholds 1/2, 3/4 and 7/8
# chose 16 and 7/8 for the run route (CHANGES.md has the sweep)
_RUN = 16


def _run_starts(c: np.ndarray) -> np.ndarray:
    """Mask of the elements of a sorted array that differ from the one before
    it (the first is kept): c[mask] are its distinct values, in O(n) with no
    sort or hash.  Callers guarantee sortedness."""
    keep = np.empty(c.size, dtype=bool)
    keep[:1] = True
    np.not_equal(c[1:], c[:-1], out=keep[1:])
    return keep


@dataclass
class QuantizedSet:
    """Occupancy of delta_min-cells over [lo, hi] by the image values."""

    lo: float
    hi: float
    delta_min: float
    hit: np.ndarray = field(repr=False)  # one 0/1 byte per cell
    declared_range: tuple[float, float] | None = None
    widened: bool = False
    out_of_declared_count: int = 0

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("require hi > lo (empty value range)")
        if self.delta_min <= 0:
            raise ValueError("delta_min must be positive")

    @property
    def ncells(self) -> int:
        return self.hit.size

    @property
    def population(self) -> int:
        return int(np.count_nonzero(self.hit))

    def occupied_cells(self) -> np.ndarray:
        return np.flatnonzero(self.hit)

    def box_count(self, delta) -> int:
        k = _delta_multiple(delta, self.delta_min)
        return _ladder_counts(self.hit, [k])[k]

    def bit_identical(self, other: "QuantizedSet") -> bool:
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and self.delta_min == other.delta_min
            and bool(np.array_equal(self.hit, other.hit))
        )


def _delta_multiple(delta, delta_min: float) -> int:
    ratio = float(delta) / delta_min
    k = round(ratio)
    if k < 1 or abs(ratio - k) > 1e-9 * max(ratio, 1.0):
        raise ValueError(f"delta={delta} is not an integer multiple of delta_min={delta_min}")
    return int(k)


def _coarsen(m: np.ndarray, r: int) -> np.ndarray:
    """Map of one 0/1 byte per r consecutive bytes of m (the last group is
    short when r does not divide m.size): the OR of the r strided slices.
    m itself when r = 1, so the finest rung costs no copy of the map."""
    if r == 1:
        return m
    out = m[::r].copy()
    for j in range(1, r):
        s = m[j::r]
        out[: s.size] |= s
    return out


def _ladder_counts(hit: np.ndarray, ks: Sequence[int]) -> dict[int, int]:
    """N at every multiple k of delta_min in ks, by one walk in ascending k
    over the map hit of one 0/1 byte per cell: a rung whose k is a multiple
    of the previous rung's is coarsened from that rung's map, any other from
    hit, which the finest rung (k = 1) counts as it is.  Besides hit, at
    most a rung's coarse map and its coarsening are alive: 1.75 bytes per
    cell in all at the peak."""
    counts = {}
    k_prev, m = 1, hit
    for k in sorted(set(ks)):
        if k % k_prev:
            k_prev, m = 1, hit
        m = _coarsen(m, k // k_prev)
        counts[k] = int(np.count_nonzero(m))
        k_prev = k
    return counts


def _frontier(e: Expr, last: str) -> list[Expr]:
    """e's frontier along its last variable: the maximal subexpressions
    that involve a lead variable but not `last`, in the order a walk from the
    root meets them.  Every node that involves `last` is computed from them,
    constants and `last`.  [e] when e does not involve `last` (its rows are
    constant), and [] when it involves no variable."""
    names = free_vars(e)
    if last not in names:
        return [e] if names else []
    found, seen, stack = {}, {e}, [e]
    while stack:
        for a in stack.pop().args:
            if a not in seen:
                seen.add(a)
                names = free_vars(a)
                if last in names:
                    stack.append(a)
                elif names:
                    found[a] = None
    return list(found)


def _product(axes: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The tuples of the product of one or two axes in lexicographic order,
    one flat array per axis."""
    if len(axes) == 1:
        return [axes[0]]
    a, b = axes
    return [np.repeat(a, len(b)), np.tile(b, len(a))]


def _lead(f: FunctionSpec, sets: Sequence[PointSet1D]) -> tuple[list[np.ndarray], np.ndarray | None]:
    """The lead list of f over the sets: one lead tuple, (x) or (x, y), per
    distinct row (f along the last axis), in lead order, as one array per
    lead variable, and how many tuples of the product of the lead axes each
    stands for (None when every tuple is kept).

    Two tuples whose frontier values (see _frontier) agree bit for bit have
    bit-identical rows.  When the frontier is one node, a tuple is kept
    unless an earlier one has its bits, compared as uint64 keys, so -0.0
    and 0.0, and NaN payloads, stay apart; when it is empty, every row is
    the same, and the first tuple stands for all.  A frontier of two or more
    nodes keeps every tuple unsorted, as does one in which every lead
    variable is bare: then no two tuples agree (the point sets are strictly
    increasing)."""
    axes = [s.values for s in sets[:-1]]
    *names, last = f.vars
    frontier = _frontier(f.expr, last)
    if len(frontier) > 1 or all(var(v) in frontier for v in names):
        return _product(axes), None
    n = math.prod(map(len, axes))
    # compile_batch returns a new array, so the key can be sorted in place;
    # no frontier: one zero key keeps one tuple
    key = (compile_batch(frontier[0], tuple(names))(*np.ix_(*axes)).ravel().view(np.uint64)
           if frontier else np.zeros(n, dtype=np.uint64))
    # key and order are not freed before the outputs are built: the outputs
    # then split their space, and expand-dense's peak RSS rose 0.6-0.9 MB
    order = np.argsort(key, kind="stable")
    key.sort()
    runs = np.flatnonzero(_run_starts(key))
    # a stable sort puts each run's least index first: those tuples are kept
    first = np.zeros(n, dtype=bool)
    first[order[runs]] = True
    kept = np.unravel_index(np.flatnonzero(first), [len(a) for a in axes])
    counts = np.diff(runs, append=n)[np.argsort(order[runs])]
    return [a[i] for a, i in zip(axes, kept)], counts


def _blocks(lead: Sequence[np.ndarray], row: np.ndarray, block: int):
    """The blocks of the lead list times the row, each at most
    max(block, 1) tuples: as many lead tuples' whole rows as fit, or one
    lead tuple by as many values of the row as fit.  Each block is
    (rows, arrays): the slice of the lead list it covers, and one view per
    variable, (k, 1) for each lead array and (1, m) for the row, which
    broadcast to the block's (k, m) values."""
    n, m = len(lead[0]), len(row)
    if m <= block:
        step = block // m
        parts = ((slice(i, i + step), slice(None)) for i in range(0, n, step))
    else:
        step = max(1, block)
        parts = ((slice(i, i + 1), slice(j, j + step)) for i in range(n) for j in range(0, m, step))
    for i, j in parts:
        # new views for every block: one view of the row passed to every
        # block left 0.8 MB more resident after a 2-thread pass
        yield i, (*(v[i, None] for v in lead), row[None, j])


def _ends(fn, grid: _Grid, arrays: tuple, pairs: np.ndarray) -> tuple[float, float] | None:
    """Mark the cells of a block of rising rows, the product of arrays, from
    the ends of its _RUN-value chunks; pairs holds the (first, last) values
    of each chunk of a whole row.  f is evaluated at the chunk ends only, in
    one call over a trailing axis of the two; _Grid.mark_ends marks the cell
    of each chunk's first value, and the chunks whose ends lie in two cells
    are gathered and evaluated in full.

    Returns the extremes of the block's values, or None, marking nothing,
    when the block splits its rows, its values leave [grid.lo, grid.hi] or
    mark_ends refuses."""
    *lead, row = arrays
    if row.size != len(pairs) * _RUN:
        return None
    ends = fn(*(v[..., None] for v in lead), pairs)
    bmin, bmax = float(ends[..., 0].min()), float(ends[..., 1].max())
    if not (grid.lo <= bmin and bmax <= grid.hi):
        return None
    cross = grid.mark_ends(ends)
    if cross is None:
        return None
    flat = np.flatnonzero(cross)  # a quarter of np.nonzero's time
    if flat.size:
        t, c = np.unravel_index(flat, cross.shape)
        grid.hit[grid.cells(fn(*(v[t] for v in lead), row.reshape(-1, _RUN)[c]))] = 1
    return bmin, bmax


class _Grid:
    """The delta_min-cells over [lo, hi] and the byte map of the cells hit.

    The map is shared by every shard; a write never reads, and every write
    stores 1, so concurrent shards cannot lose a hit.  A value v in [lo, hi]
    has (v - lo) / delta_min in [0, ncells] (rounding is monotone): it
    reaches ncells only at v = hi when delta_min divides hi - lo.  That index
    lands in one byte past the cells, which occupancy folds into the last
    cell."""

    def __init__(self, lo: float, hi: float, delta_min: float | None):
        if not hi > lo:
            raise ValueError(
                "degenerate value range (single value); declare an explicit value_range"
            )
        if delta_min is None:
            delta_min = (hi - lo) * 2.0**-26
        cells = (hi - lo) / delta_min  # inf when the count has no float
        if not math.isfinite(cells):
            raise BudgetError(f"the value range [{lo}, {hi}] exceeds the cell budget of {_MAX_CELLS} cells")
        ncells = int(math.ceil(cells))
        if ncells < 1:
            raise ValueError("delta_min larger than the value range")
        if ncells > _MAX_CELLS:
            raise BudgetError(f"{ncells} cells exceed the cell budget of {_MAX_CELLS}")
        self.lo, self.hi, self.delta_min, self.ncells = lo, hi, float(delta_min), ncells
        self.hit = np.zeros(ncells + 1, dtype=np.uint8)
        # the same exact scaling as dividing, when delta_min is a power of two
        self.scale = 1.0 / delta_min
        self.dyadic = math.frexp(delta_min)[0] == 0.5 and math.isfinite(self.scale)
        # cleared by a pass that finds a block outside [lo, hi]; shards only
        # ever clear it, so they need no lock
        self.held = True

    def scatter(self, vals: np.ndarray) -> None:
        """Mark the cells of the values of a block, every one in [lo, hi].

        Run route (see runs_pay): each _RUN-value chunk of a row marks the
        cell of its first element, and only the chunks whose ends lie in
        two cells are scattered element by element.  Subtracting lo,
        scaling and truncating are each monotone, even rounded, so a chunk
        of a non-decreasing row whose ends share a cell lies in it.  Only
        the chunk ends and the crossing chunks get cell coordinates.

        Any other block (falling or non-monotone rows, NaN, a last axis
        that is not a multiple of _RUN) scatters every element, its cell
        coordinates computed in place, in vals (compile_batch's results
        share no memory with its inputs)."""
        if self.runs_pay(vals):
            chunks = vals.reshape(-1, _RUN)
            first = self.cells(chunks[:, 0])
            self.hit[first] = 1
            # compress copies the few crossing chunks: a boolean index took 4x as long
            cross = np.compress(first != self.cells(chunks[:, -1]), chunks, axis=0)
            self.hit[self.cells(cross)] = 1
        else:
            self.hit[self.cells(vals, out=vals)] = 1

    def cells(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The cell index of every value of v (in [lo, hi]), truncated from
        its coordinate (v - lo) / delta_min, which is computed into out."""
        c = np.subtract(v, self.lo, out=out)
        if self.dyadic:
            np.multiply(c, self.scale, out=c)
        else:
            np.divide(c, self.delta_min, out=c)
        return c.astype(np.intp)

    def runs_pay(self, vals: np.ndarray) -> bool:
        """Whether scatter takes its run route for a block: its last axis
        splits into _RUN-value chunks, at least 7/8 of the chunks of its
        first row have ends in one cell, and every row is non-decreasing by
        an exact comparison of the values (which a NaN fails).  Rounding
        keeps their order, so their cell coordinates do not decrease."""
        n = vals.shape[-1]
        if n % _RUN:
            return False
        probe = vals.reshape(-1, n)[0].reshape(-1, _RUN)
        single = np.count_nonzero(self.cells(probe[:, 0]) == self.cells(probe[:, -1]))
        return bool(8 * single >= 7 * len(probe)) and bool(np.all(vals[..., 1:] >= vals[..., :-1]))

    def mark_ends(self, ends: np.ndarray) -> np.ndarray | None:
        """The verdict on a block of chunks of rising rows, given by the
        values at their ends, first and last along a trailing axis (see
        _ends): the mask of the chunks whose ends lie in two cells, after
        marking the cell of every chunk's first value (the cell of all its
        values when its ends share one); None, marking nothing, when more
        than 1/8 of them cross."""
        c = self.cells(ends)
        cross = c[..., 0] != c[..., 1]
        if 8 * np.count_nonzero(cross) > cross.size:
            return None
        # a contiguous copy of the index scatters faster than the strided view
        self.hit[c[..., 0].ravel()] = 1
        return cross

    def occupancy(self) -> np.ndarray:
        """The map of the ncells cells, a view of hit with the top-boundary
        byte folded into the last cell."""
        hit, n = self.hit, self.ncells
        hit[n - 1] |= hit[n]
        hit[n] = 0
        return hit[:n]


def image_quantize(
    f: FunctionSpec,
    sets: Sequence[PointSet1D],
    delta_min: float | None = None,
    value_range: tuple[float, float] | None = None,
    threads: int = 1,
    block: int = _BLOCK,
) -> QuantizedSet:
    """Quantize f(A x B [x C]) at resolution delta_min, which must be
    positive (by default 2^-26 of the value range).

    A row is f along the last axis at one lead tuple, (x) or (x, y).  The
    passes walk a lead list of lead tuples.  When f's frontier (the maximal
    subexpressions that do not involve the last variable but feed a node
    that does) is at most one node, it keeps one tuple per distinct row:
    two tuples whose frontier values agree bit for bit have bit-identical
    rows, so the cells they hit, and the map, are those of the whole
    product, and each kept row counts once per tuple it stands for in the
    out-of-range count.  Any other frontier keeps every tuple (the module
    docstring has the rows each benchmark command keeps).  The lead list
    times the row streams through in blocks of `block` tuples (by default
    2^17).  The grid runs over the value range [lo, hi]: the image's
    own extremes, or a declared range (lo < hi), widened when values fall
    outside it (with the overflow count reported), never clamped.  The cell index of a
    value v is (v - lo) / delta_min truncated, its floor since v lies in
    [lo, hi]; the module docstring has how it is computed and which route
    a block takes.  At most one thread per core
    runs, over the shards that `threads` (at least 1) asks for.

    Whether f's float values rise along every row (the last axis) over the
    hull of the inputs is proven once per call (expr.rising).  Each tuple is
    evaluated at most once when the range is known before the pass: a
    declared range; when the rows rise, the extremes of the first and last
    columns over the lead list; or, when an interval enclosure of df/dx
    over the hull has one sign, the extremes of the first and last rows of
    A (f is monotone in x, so its extremes lie there).  The pass quantizes against that range
    and checks it, block by block; when a value falls outside, the map is
    dropped and a second pass quantizes against the true range.  Any other
    f is evaluated twice: a range scan, then the quantize pass.  Both
    passes walk the same blocks.  When the rows rise, each block of a shard
    first tries its chunk ends, which evaluates f at the ends of the rows'
    16-value chunks and in full only on the chunks that cross a cell; once
    a block refuses, it and the rest of its shard are evaluated in full (the
    module docstring has each route's measured share).  Either way lo, hi,
    delta_min and every value are the same floats, so the occupancy map,
    one 0/1 byte per cell that the QuantizedSet keeps as it is, is
    identical for any thread count, block size and route."""
    if len(sets) != f.arity or len(sets) not in (2, 3):
        raise ValueError("need one point set per variable (2 or 3)")
    if threads < 1:
        raise ValueError(f"the thread count must be at least 1, got {threads}")
    if delta_min is not None and not delta_min > 0:
        raise ValueError(f"delta_min must be positive, got {delta_min}")
    if value_range is not None and not value_range[0] < value_range[1]:
        raise ValueError(f"a declared value range needs lo < hi, got {list(value_range)}")
    fn = compile_batch(f.expr, f.vars)
    lead, weights = _lead(f, sets)
    shards = _shards(lead, weights, threads)
    rows_rise = rising(f.expr, f.vars, [(s.values[0], s.values[-1]) for s in sets], len(sets) - 1)
    row = sets[-1].values
    # the (first, last) values of each chunk of a whole row, gathered once
    # per call rather than once per block
    pairs = row.reshape(-1, _RUN)[:, [0, -1]] if rows_rise and len(row) % _RUN == 0 else None

    def blocks(shard, grid: _Grid | None):
        """Each block of shard, with the extremes of its values when _ends
        marked it in grid, else None: it is to be evaluated in full; and the
        weights of its lead tuples (None when each stands for itself)."""
        shard_lead, shard_weights = shard
        tries = pairs is not None and grid is not None
        for rows, arrays in _blocks(shard_lead, row, block):
            span = _ends(fn, grid, arrays, pairs) if tries and grid.held else None
            # after a refusal, the rest of the shard is evaluated in full
            tries = span is not None
            yield arrays, span, None if shard_weights is None else shard_weights[rows]

    def sweep(shard, grid: _Grid | None):
        """The shard's extremes and its count of tuples outside the declared
        range; every block is scattered into grid while all lie in its range."""
        vmin, vmax, outside = math.inf, -math.inf, 0
        for arrays, span, w in blocks(shard, grid):
            if span is not None:
                vmin, vmax = min(vmin, span[0]), max(vmax, span[1])
                continue
            vals = fn(*arrays)
            if rows_rise:  # proven finite, and each row's extremes are its ends
                bmin, bmax = float(vals[..., 0].min()), float(vals[..., -1].max())
            else:
                # NaN propagates through min and max, so finite extremes
                # mean every value is finite
                bmin, bmax = float(vals.min()), float(vals.max())
                if not (math.isfinite(bmin) and math.isfinite(bmax)):
                    raise ValueError("image values are not finite on the product set")
            vmin, vmax = min(vmin, bmin), max(vmax, bmax)
            if value_range is not None and (bmin < value_range[0] or bmax > value_range[1]):
                out = (vals < value_range[0]) | (vals > value_range[1])
                # a kept row counts once for every tuple whose row it is
                outside += int(np.count_nonzero(out) if w is None else np.count_nonzero(out, axis=-1) @ w)
            if grid is not None and grid.held:
                if grid.lo <= bmin and bmax <= grid.hi:
                    grid.scatter(vals)
                else:
                    grid.held = False
        return vmin, vmax, outside

    grid = None
    known = _known_range(f, sets, fn, lead, block, value_range, rows_rise)
    if known is not None:
        try:
            grid = _Grid(*known, delta_min)
        except (ArithmeticError, ValueError, BudgetError):
            pass  # the two passes raise, or widen a declared range, as they always have
    results = _run_sharded(lambda shard: sweep(shard, grid), shards, threads)
    vmin = min(r[0] for r in results)
    vmax = max(r[1] for r in results)
    outside = sum(r[2] for r in results)

    held = grid is not None and grid.held and not outside
    if held and value_range is None:
        held = (vmin, vmax) == (grid.lo, grid.hi)
    if not held:
        grid = None  # free the provisional map before the next is made
        if value_range is None:
            lo, hi = vmin, vmax
        else:
            lo, hi = float(value_range[0]), float(value_range[1])
            if outside:
                lo, hi = min(lo, vmin), max(hi, vmax)
        grid = _Grid(lo, hi, delta_min)

        def quantize(shard):
            for arrays, span, _ in blocks(shard, grid):
                if span is not None:
                    continue
                # vals stays alive while the next block is evaluated: freed
                # first, it leaves enough free memory at the top of the heap
                # for malloc to return it to the system, and every block
                # faults the pages in again (32 times the minor faults)
                vals = fn(*arrays)
                grid.scatter(vals)

        _run_sharded(quantize, shards, threads)
    return QuantizedSet(
        lo=grid.lo,
        hi=grid.hi,
        delta_min=grid.delta_min,
        hit=grid.occupancy(),
        declared_range=value_range,
        widened=bool(outside),
        out_of_declared_count=outside,
    )


def _known_range(f, sets, fn, lead, block, value_range, rows_rise) -> tuple[float, float] | None:
    """The value range known before the pass, if any: the declared one, or,
    when f is monotone along one axis, the extremes of f over the product
    with that axis cut to its first and last values.  That axis is the last
    one when f is proven to rise along every row, and then the lead list
    stands for the other axes (a tuple it leaves out has the row of one it
    keeps); it is the first when an enclosure of df/dx over the hull of the
    inputs has one sign, and then the sets are read in full."""
    if value_range is not None:
        return float(value_range[0]), float(value_range[1])
    row = sets[-1].values
    if rows_rise:
        parts = _blocks(lead, row[[0, -1]], block)
    else:
        try:
            lo, hi = enclosure(f.partial(0), f.vars, [(s.values[0], s.values[-1]) for s in sets])
        except ExprError:
            return None
        if not (lo >= 0 or hi <= 0):
            return None
        parts = _blocks(_product([sets[0].values[[0, -1]], *(s.values for s in sets[1:-1])]), row, block)
    vmin, vmax = math.inf, -math.inf
    for _, arrays in parts:
        vals = fn(*arrays)
        vmin, vmax = min(vmin, float(vals.min())), max(vmax, float(vals.max()))
    return vmin, vmax


def _shards(lead: list[np.ndarray], weights: np.ndarray | None, threads: int) -> list[tuple]:
    """The lead list cut into at most 4 * threads contiguous shards of
    sizes that differ by at most one, each (its lead arrays, its weights)."""
    n = len(lead[0])
    k = max(1, min(n, threads * 4))
    q, r = divmod(n, k)
    cuts = [i * q + min(i, r) for i in range(k + 1)]
    return [([v[a:b] for v in lead], None if weights is None else weights[a:b]) for a, b in zip(cuts, cuts[1:])]


def _run_sharded(fn, shards, threads: int) -> list:
    # more workers than cores only add threads: the map is the same
    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1 or len(shards) <= 1:
        return [fn(s) for s in shards]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, shards))


def naive_quantize_cells(
    f: FunctionSpec,
    sets: Sequence[PointSet1D],
    lo: float,
    delta_min: float,
    ncells: int,
) -> list[int]:
    """Independent oracle: evaluate the whole product with one batch call
    (the values image_quantize evaluates, bit for bit, however it splits the
    product), then floor, clip, sort and dedupe every tuple's cell in
    Python.  Only for products of at most 2^16 tuples."""
    total = math.prod(len(s) for s in sets)
    if total > 1 << 16:
        raise BudgetError(f"naive enumeration limited to {1 << 16} tuples, got {total}")
    values = compile_batch(f.expr, f.vars)(*np.ix_(*(s.values for s in sets)))
    cells = set()
    for v in values.ravel().tolist():
        idx = math.floor((v - lo) / delta_min)
        cells.add(min(max(idx, 0), ncells - 1))
    return sorted(cells)


# ---------------------------------------------------------------------------
# Box counts and dimension estimates
# ---------------------------------------------------------------------------


def box_counts(
    data: QuantizedSet | PointSet1D, deltas: Sequence[float | Fraction]
) -> list[tuple[float, int]]:
    """Exact occupied-cell counts N(delta) for each delta in the ladder, in
    the ladder's order."""
    if isinstance(data, QuantizedSet):
        # every delta is checked before any counting
        ks = [_delta_multiple(d, data.delta_min) for d in deltas]
        counts = _ladder_counts(data.hit, ks)
        return [(float(d), counts[k]) for d, k in zip(deltas, ks)]
    if not isinstance(data, PointSet1D):
        raise TypeError("expected a QuantizedSet or PointSet1D")
    out = []
    lo, hi = data.interval
    width = Fraction(hi) - Fraction(lo)
    for d in deltas:
        ncells = max(1, -((-width) // Fraction(d)) if isinstance(d, Fraction) else math.ceil(float(width) / float(d)))
        if isinstance(d, Fraction) and data.has_exact:
            # cell index = floor(num * (hi-lo) / (den * delta)); exact when
            # the interval endpoints are exactly representable rationals
            ratio = width / (Fraction(data.exact_den) * d)
            p, q = ratio.numerator, ratio.denominator
            nums = data.exact_num
            # every |num * p| is at most top, so int64 products are exact
            # when top and q fit; the numerators increase
            top = max(1, -int(nums[0]), int(nums[-1])) * p
            if nums.dtype.kind == "i" and top < 2**63 and q < 2**63:
                idx = np.minimum(nums * p // q, min(int(ncells) - 1, top))
            else:
                idx = np.minimum((nums.astype(object) * p) // q, int(ncells) - 1)
        else:
            dv = float(d)
            idx = np.floor((data.values - lo) / dv).astype(np.int64)
            idx = np.clip(idx, 0, int(ncells) - 1)
        # the points are strictly increasing and both cell maps are monotone,
        # so the cell indices are sorted
        n = int(np.count_nonzero(_run_starts(idx)))
        out.append((float(d), n))
    return out


def covered_fraction(q: QuantizedSet, delta) -> float:
    """N(delta)*delta normalized by the value range: the resolution-delta
    stand-in for positive measure of the image.  The final cell is trimmed
    to its intersection with the range, so the fraction stays in (0, 1]."""
    return _covered_fraction(q, delta, q.box_count(delta))


def _covered_fraction(q: QuantizedSet, delta, n: int) -> float:
    """covered_fraction with N(delta) = n already counted."""
    k = _delta_multiple(delta, q.delta_min)
    covered = n * float(delta)
    ncoarse = -(-q.ncells // k)
    if q.hit[(ncoarse - 1) * k :].any():
        covered -= max(0.0, ncoarse * float(delta) - (q.hi - q.lo))
    return covered / (q.hi - q.lo)


@dataclass(frozen=True)
class DimEstimate:
    """Least-squares slope of log N(delta) against log(1/delta)."""

    ladder: tuple[tuple[float, int], ...]
    slope: float
    intercept: float
    r2: float
    window: tuple[int, int]  # [start, end) into the coarse-to-fine ladder
    degenerate: bool = False

    @property
    def window_deltas(self) -> tuple[float, float]:
        rungs = self.ladder[self.window[0] : self.window[1]]
        return (rungs[0][0], rungs[-1][0])

    def to_json_dict(self) -> dict:
        return jsonable(
            {
                "ladder": [{"delta": d, "count": n} for d, n in self.ladder],
                "slope": self.slope,
                "intercept": self.intercept,
                "r2": self.r2,
                "window": list(self.window),
                "degenerate": self.degenerate,
            }
        )


def dim_estimate(
    counts: Sequence[tuple[float, int]],
    fit_window: tuple[float, float] | None = None,
) -> DimEstimate:
    """Fit the box-counting dimension over a fit window.

    The window defaults to the ladder minus its 2 coarsest and 2 finest
    rungs (boundary/saturation effects); passing fit_window=(d_fine, d_coarse)
    selects rungs with d_fine <= delta <= d_coarse instead."""
    ladder = sorted(((float(d), int(n)) for d, n in counts), key=lambda dn: -dn[0])
    if fit_window is not None:
        d_fine, d_coarse = sorted(float(v) for v in fit_window)
        sel = [
            i
            for i, (d, _) in enumerate(ladder)
            if d_fine * (1 - 1e-12) <= d <= d_coarse * (1 + 1e-12)
        ]
        if not sel:
            raise ValueError("fit window selects no rungs")
        start, end = sel[0], sel[-1] + 1
    else:
        start, end = 2, len(ladder) - 2
    if end - start < 4:
        raise ValueError(f"fit window has {max(end - start, 0)} rungs; need >= 4")
    window = ladder[start:end]
    x = np.array([-math.log(d) for d, _ in window])
    y = np.array([math.log(n) for _, n in window])
    if np.allclose(y, y[0]):
        return DimEstimate(
            ladder=tuple(ladder),
            slope=0.0,
            intercept=float(y[0]),
            r2=0.0,
            window=(start, end),
            degenerate=True,
        )
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return DimEstimate(
        ladder=tuple(ladder),
        slope=float(slope),
        intercept=float(intercept),
        r2=r2,
        window=(start, end),
    )


def power_ladder(base: int, k_min: int, k_max: int) -> list[Fraction]:
    """Exact ladder base^-k for k = k_min..k_max (coarse to fine)."""
    if k_min > k_max:
        k_min, k_max = k_max, k_min
    return [Fraction(1, base**k) for k in range(k_min, k_max + 1)]


# ---------------------------------------------------------------------------
# Expansion experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    function: str
    declared_dims: tuple[float, ...]
    input_estimates: tuple[DimEstimate, ...]
    image_estimate: DimEstimate
    threshold: ThresholdReport
    bound: Fraction
    slack: float
    passed: bool
    measure_predicted: bool
    covered_trace: tuple[tuple[float, float], ...]
    population: int
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return jsonable(
            {
                "function": self.function,
                "declared_dims": list(self.declared_dims),
                "input_estimates": [e.to_json_dict() for e in self.input_estimates],
                "image_estimate": self.image_estimate.to_json_dict(),
                "threshold": self.threshold.to_json_dict(),
                "bound": rational(self.bound),
                "slack": self.slack,
                "passed": self.passed,
                "measure_predicted": self.measure_predicted,
                "covered_trace": [
                    {"delta": d, "fraction": c} for d, c in self.covered_trace
                ],
                "population": self.population,
                "warnings": list(self.warnings),
            }
        )


def expansion_experiment(
    f: FunctionSpec,
    inputs: Sequence[PointSet1D],
    ladder: Sequence[float | Fraction],
    theorem: str,
    theorem_params: dict | None = None,
    slack: float = 0.05,
    delta_min: float | None = None,
    value_range: tuple[float, float] | None = None,
    threads: int = 1,
    degeneracy_report: DegeneracyReport | None = None,
) -> ExperimentReport:
    """Measure the image dimension of f over the input sets and compare it
    against the selected theorem's exact lower bound.

    The pass/fail predicate is one-sided: measured image slope >= bound -
    slack.  The covered-fraction trace is diagnostic for the positive-measure
    regime (no hard threshold)."""
    from .expr import to_string

    ladder = list(ladder)
    if not ladder:
        raise ValueError("empty delta ladder")
    for d in ladder:
        if not float(d) > 0:
            raise ValueError(f"every ladder rung must be positive as a float, got {float(d)!r}")
    report = thresholds(theorem, **(theorem_params or {}))
    warnings = []
    if degeneracy_report is not None and degeneracy_report.witness_box is not None:
        for i, ps in enumerate(inputs):
            lo, hi = degeneracy_report.witness_box[i]
            if ps.values[0] < lo - 1e-12 or ps.values[-1] > hi + 1e-12:
                warnings.append(
                    f"input {i} is not contained in the sign-stable witness box "
                    f"[{lo:.6g}, {hi:.6g}]; theorem hypotheses may fail"
                )

    if delta_min is None:
        delta_min = min(float(d) for d in ladder)
    q = image_quantize(f, inputs, delta_min=delta_min, value_range=value_range, threads=threads)
    # restrict to ladder rungs representable on the quantized grid
    image_ladder = [d for d in ladder if float(d) >= q.delta_min * (1 - 1e-12)]
    image_counts = box_counts(q, image_ladder)
    image_est = dim_estimate(image_counts)
    # one estimate per distinct set: a set given for several variables is
    # one object
    distinct = {id(ps): ps for ps in inputs}
    estimates = {key: dim_estimate(box_counts(ps, ladder)) for key, ps in distinct.items()}
    input_ests = tuple(estimates[id(ps)] for ps in inputs)
    dims = [ps.dimension for ps in inputs]
    bound = report.dim_lower_bound(dims)
    total = sum(Fraction(d).limit_denominator(10**9) for d in dims)
    covered = tuple(
        (dv, _covered_fraction(q, d, n)) for d, (dv, n) in zip(image_ladder, image_counts)
    )
    return ExperimentReport(
        function=to_string(f.expr),
        declared_dims=tuple(float(d) for d in dims),
        input_estimates=input_ests,
        image_estimate=image_est,
        threshold=report,
        bound=bound,
        slack=slack,
        passed=image_est.slope >= float(bound) - slack,
        measure_predicted=total > report.measure_bound,
        covered_trace=covered,
        population=q.population,
        warnings=tuple(warnings),
    )
