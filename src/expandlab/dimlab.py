"""Image-set measurement: streaming quantization, box counts, dimension fits.

The image f(A x B [x C]) is quantized onto a fixed grid of delta_min-cells
over a value range determined in a first streaming pass (a declared range is
widened, never clamped, when values fall outside it).  Every shard stores 1
into one shared byte map at each cell it hits; since every write stores the
same value, the map, and the bitset of uint64 words packed from it, is
bit-identical for any thread count, shard order or block size.  Box counts at
coarser scales merge cells exactly (delta must be an integer multiple of
delta_min) by counting runs in the sorted occupied cells, with no sort or
hash, and the box-counting dimension is the least-squares slope of log N
against log(1/delta) over a fit window.

Box dimension dominates Hausdorff dimension, so the theorems' lower bounds
remain valid one-sided predicates for these estimates (up to estimator
noise); reports carry the exact bound next to the measured slope.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .degeneracy import DegeneracyReport, ThresholdReport, thresholds
from .errors import BudgetError
from .expr import FunctionSpec, compile_batch, compile_scalar
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

# bounds both the byte map image_quantize scatters into (1 byte per cell,
# 256 MiB) and the bitset packed from it (32 MiB)
_MAX_CELLS = 1 << 28
_BLOCK = 1 << 22  # tuples evaluated per vectorized block


class _Bitset:
    def __init__(self, nbits: int, words: np.ndarray | None = None):
        if nbits < 1:
            raise ValueError("empty bitset")
        self.nbits = nbits
        self.words = np.zeros(_nwords(nbits), dtype=np.uint64) if words is None else words

    @classmethod
    def from_bytemap(cls, hit: np.ndarray, nbits: int) -> "_Bitset":
        """Pack a map of one 0/1 byte per cell, padded with zeros to whole
        words (_nwords(nbits) * 64 bytes), into a bitset."""
        return cls(nbits, np.packbits(hit, bitorder="little").view(np.uint64))

    def count(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def occupied(self) -> np.ndarray:
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return np.flatnonzero(bits).astype(np.int64)

    def equal(self, other: "_Bitset") -> bool:
        return self.nbits == other.nbits and bool(np.array_equal(self.words, other.words))


def _nwords(nbits: int) -> int:
    return (nbits + 63) // 64


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
    bits: _Bitset = field(repr=False)
    population: int
    declared_range: tuple[float, float] | None = None
    widened: bool = False
    out_of_declared_count: int = 0
    _occupied: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("require hi > lo (empty value range)")
        if self.delta_min <= 0:
            raise ValueError("delta_min must be positive")

    @property
    def ncells(self) -> int:
        return self.bits.nbits

    def occupied_cells(self) -> np.ndarray:
        if self._occupied is None:
            self._occupied = self.bits.occupied()
        return self._occupied

    def _coarse(self, delta) -> np.ndarray:
        # occupied_cells() comes from np.flatnonzero, so it is strictly
        # increasing, and floor division by k > 0 keeps it sorted: equal
        # coarse cells form runs
        return self.occupied_cells() // _delta_multiple(delta, self.delta_min)

    def cells_at(self, delta) -> np.ndarray:
        c = self._coarse(delta)
        return c[_run_starts(c)]

    def box_count(self, delta) -> int:
        return int(np.count_nonzero(_run_starts(self._coarse(delta))))

    def bit_identical(self, other: "QuantizedSet") -> bool:
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and self.delta_min == other.delta_min
            and self.bits.equal(other.bits)
        )


def _delta_multiple(delta, delta_min: float) -> int:
    ratio = float(delta) / delta_min
    k = round(ratio)
    if k < 1 or abs(ratio - k) > 1e-9 * max(ratio, 1.0):
        raise ValueError(f"delta={delta} is not an integer multiple of delta_min={delta_min}")
    return int(k)


def _cell_indices(values: np.ndarray, lo: float, delta_min: float, ncells: int) -> np.ndarray:
    idx = np.floor((values - lo) / delta_min).astype(np.int64)
    return np.clip(idx, 0, ncells - 1)


def _tuple_blocks(sets: Sequence[PointSet1D], shard: np.ndarray, block: int):
    """Yield coordinate arrays covering shard x rest as broadcast views, one
    axis per set, so the product is formed by the evaluator, not copied."""
    if len(sets) == 2:
        b = sets[1].values
        rows = max(1, block // max(len(b), 1))
        for i in range(0, len(shard), rows):
            yield (shard[i : i + rows, None], b[None, :])
    else:
        b, c = sets[1].values, sets[2].values
        rows = max(1, block // max(len(b) * len(c), 1))
        for i in range(0, len(shard), rows):
            yield (shard[i : i + rows, None, None], b[None, :, None], c[None, None, :])


def image_quantize(
    f: FunctionSpec,
    sets: Sequence[PointSet1D],
    delta_min: float | None = None,
    value_range: tuple[float, float] | None = None,
    threads: int = 1,
    block: int = _BLOCK,
) -> QuantizedSet:
    """Quantize f(A x B [x C]) at resolution delta_min.

    Every product tuple is evaluated exactly once, streaming in blocks.  A
    first pass resolves the value range: a declared range is widened when
    values fall outside it (with the overflow count reported), never
    clamped.  The occupancy bitset is identical for any thread count."""
    if len(sets) != f.arity or len(sets) not in (2, 3):
        raise ValueError("need one point set per variable (2 or 3)")
    fn = compile_batch(f.expr, f.vars)
    a = sets[0].values
    shards = _shards(a, threads)

    def scan(shard: np.ndarray):
        vmin, vmax = math.inf, -math.inf
        outside = 0
        for arrays in _tuple_blocks(sets, shard, block):
            vals = fn(*arrays)
            if not np.all(np.isfinite(vals)):
                raise ValueError("image values are not finite on the product set")
            vmin = min(vmin, float(vals.min()))
            vmax = max(vmax, float(vals.max()))
            if value_range is not None:
                outside += int(
                    np.count_nonzero((vals < value_range[0]) | (vals > value_range[1]))
                )
        return vmin, vmax, outside

    results = _run_sharded(scan, shards, threads)
    vmin = min(r[0] for r in results)
    vmax = max(r[1] for r in results)
    outside = sum(r[2] for r in results)

    widened = False
    if value_range is not None:
        lo, hi = float(value_range[0]), float(value_range[1])
        if outside:
            lo, hi = min(lo, vmin), max(hi, vmax)
            widened = True
    else:
        lo, hi = vmin, vmax
    if not hi > lo:
        raise ValueError(
            "degenerate value range (single value); declare an explicit value_range"
        )
    if delta_min is None:
        delta_min = (hi - lo) * 2.0**-26
    ncells = int(math.ceil((hi - lo) / delta_min))
    if ncells < 1:
        raise ValueError("delta_min larger than the value range")
    if ncells > _MAX_CELLS:
        raise BudgetError(f"{ncells} cells exceed the bitset budget of {_MAX_CELLS}")

    # one map shared by every shard; a write never reads, and every write
    # stores 1, so concurrent shards cannot lose a hit
    hit = np.zeros(_nwords(ncells) * 64, dtype=np.uint8)

    def quantize(shard: np.ndarray):
        for arrays in _tuple_blocks(sets, shard, block):
            hit[_cell_indices(fn(*arrays), lo, delta_min, ncells)] = 1

    _run_sharded(quantize, shards, threads)
    bits = _Bitset.from_bytemap(hit, ncells)
    return QuantizedSet(
        lo=lo,
        hi=hi,
        delta_min=float(delta_min),
        bits=bits,
        population=bits.count(),
        declared_range=value_range,
        widened=widened,
        out_of_declared_count=outside,
    )


def _shards(a: np.ndarray, threads: int) -> list[np.ndarray]:
    n_shards = max(1, min(len(a), threads * 4))
    return [s for s in np.array_split(a, n_shards) if len(s)]


def _run_sharded(fn, shards, threads: int) -> list:
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
    limit: int = 1 << 16,
) -> list[int]:
    """Independent oracle: enumerate every tuple with the scalar evaluator,
    quantize, sort, dedupe.  Only for products of at most `limit` tuples."""
    total = 1
    for s in sets:
        total *= len(s)
    if total > limit:
        raise BudgetError(f"naive enumeration limited to {limit} tuples, got {total}")
    fn = compile_scalar(f.expr, f.vars)
    cells = set()
    for tup in itertools.product(*(s.values.tolist() for s in sets)):
        v = fn(*tup)
        idx = math.floor((v - lo) / delta_min)
        cells.add(min(max(idx, 0), ncells - 1))
    return sorted(cells)


# ---------------------------------------------------------------------------
# Box counts and dimension estimates
# ---------------------------------------------------------------------------


def box_counts(
    data: QuantizedSet | PointSet1D, deltas: Sequence[float | Fraction]
) -> list[tuple[float, int]]:
    """Exact occupied-cell counts N(delta) for each delta in the ladder."""
    out = []
    if isinstance(data, QuantizedSet):
        for d in deltas:
            out.append((float(d), data.box_count(d)))
        return out
    if not isinstance(data, PointSet1D):
        raise TypeError("expected a QuantizedSet or PointSet1D")
    lo, hi = data.interval
    for d in deltas:
        width = Fraction(hi) - Fraction(lo)
        ncells = max(1, -((-width) // Fraction(d)) if isinstance(d, Fraction) else math.ceil(float(width) / float(d)))
        if isinstance(d, Fraction) and data.has_exact:
            # cell index = floor(num * (hi-lo) / (den * delta)); exact when
            # the interval endpoints are exactly representable rationals
            ratio = width / (Fraction(data.exact_den) * d)
            p, q = ratio.numerator, ratio.denominator
            nums = data.exact_num.astype(object)
            idx = np.minimum((nums * p) // q, int(ncells) - 1)
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
    k = _delta_multiple(delta, q.delta_min)
    n = q.box_count(delta)
    covered = n * float(delta)
    ncoarse = -(-q.ncells // k)
    occ = q.occupied_cells()
    if occ.size and int(occ[-1]) // k == ncoarse - 1:
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
    drop_edges: int = 2,
) -> DimEstimate:
    """Fit the box-counting dimension over a fit window.

    The window defaults to the ladder minus `drop_edges` coarsest and finest
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
        start, end = drop_edges, len(ladder) - drop_edges
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
    fit_window: tuple[float, float] | None = None,
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
        finest = min(float(d) for d in ladder)
        delta_min = finest
    q = image_quantize(f, inputs, delta_min=delta_min, value_range=value_range, threads=threads)
    # restrict to ladder rungs representable on the quantized grid
    image_ladder = [d for d in ladder if float(d) >= q.delta_min * (1 - 1e-12)]
    image_counts = box_counts(q, image_ladder)
    image_est = dim_estimate(image_counts, fit_window=fit_window)
    input_ests = tuple(
        dim_estimate(box_counts(ps, ladder), fit_window=fit_window) for ps in inputs
    )
    dims = [ps.dimension for ps in inputs]
    bound = report.dim_lower_bound(dims)
    total = sum(Fraction(d).limit_denominator(10**9) for d in dims)
    covered = tuple((float(d), covered_fraction(q, d)) for d in image_ladder)
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
