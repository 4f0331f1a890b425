"""Deterministic generators for self-similar subsets of the line.

Two constructions with prescribed similarity dimension log m / log(1/r):

  * cantor_points: the level-n orbit of the equal-gap iterated function
    system {t -> r*t + c_j}, c_j = j*(1-r)/(m-1), on a target interval;
  * digit_points: all n-digit base-b expansions with digits restricted to a
    set D (digit_points(3, {0,2}, n) reproduces the middle-thirds set).

For rational contraction ratios the points are carried exactly as integer
numerators over a common denominator, so box counts at commensurate scales
can be computed in exact integer arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BudgetError

__all__ = [
    "CantorSpec",
    "PointSet1D",
    "cantor_points",
    "digit_points",
    "dimension_to_ratio",
    "load_points",
    "save_points",
    "similarity_dimension",
]

DEFAULT_BUDGET = 1 << 24  # max points per generated set


def similarity_dimension(m: int, r: float | Fraction) -> float:
    """log m / log(1/r) for an IFS with m branches of contraction ratio r."""
    if m < 1:
        raise ValueError("m must be >= 1")
    r = float(r)
    if not 0 < r < 1:
        raise ValueError("r must lie in (0, 1)")
    return math.log(m) / math.log(1.0 / r)


def dimension_to_ratio(alpha: float, m: int = 2) -> float:
    """The contraction ratio giving similarity dimension alpha: r = m^(-1/alpha).

    The result is a double; the dimension actually realized is
    similarity_dimension(m, r) up to that rounding."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return float(m) ** (-1.0 / alpha)


@dataclass(frozen=True)
class CantorSpec:
    """Equal-gap IFS specification.  m branches of ratio r; m*r <= 1 keeps
    the branch images disjoint; point count is m**level."""

    m: int
    r: Fraction | float
    level: int
    interval: tuple[float, float] = (0.0, 1.0)
    rule: str = "left"  # "left" endpoints or "mid" midpoints of level cells

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be >= 2")
        r = Fraction(self.r) if isinstance(self.r, (int, Fraction)) else self.r
        rv = float(self.r)
        if not 0 < rv <= 1.0 / self.m:
            raise ValueError("require 0 < r <= 1/m (non-overlapping branches)")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError("degenerate target interval")
        if self.rule not in ("left", "mid"):
            raise ValueError("rule must be 'left' or 'mid'")

    @property
    def dimension(self) -> float:
        return similarity_dimension(self.m, self.r)

    @property
    def count(self) -> int:
        return self.m**self.level

    def describe(self) -> str:
        return f"cantor(m={self.m}, r={self.r}, level={self.level}, rule={self.rule})"


@dataclass(frozen=True)
class PointSet1D:
    """Sorted finite approximation of a fractal set.

    `exact_num`/`exact_den` (optional) carry the points as exact fractions of
    the target interval: point = lo + (hi - lo) * exact_num[i] / exact_den."""

    values: np.ndarray
    dimension: float
    provenance: str
    interval: tuple[float, float]
    exact_num: np.ndarray | None = field(default=None, repr=False)
    exact_den: int | None = field(default=None, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty 1-D array")
        if np.any(np.diff(v) <= 0):
            raise ValueError("values must be strictly increasing")
        lo, hi = self.interval
        if v[0] < lo - 1e-12 or v[-1] > hi + 1e-12:
            raise ValueError("points fall outside the target interval")
        if self.exact_num is not None:
            # box counts read the cells of the numerators as sorted runs
            num = np.asarray(self.exact_num)
            if num.shape != v.shape or np.any(np.diff(num) <= 0):
                raise ValueError("exact numerators must be strictly increasing, one per value")
            if not isinstance(self.exact_den, int) or self.exact_den < 1:
                raise ValueError("exact_den must be a positive integer")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def has_exact(self) -> bool:
        return self.exact_num is not None

    @staticmethod
    def from_values(
        values: Sequence[float], dimension: float = float("nan"), provenance: str = "raw"
    ) -> "PointSet1D":
        v = np.sort(np.asarray(values, dtype=np.float64))
        return PointSet1D(
            values=v,
            dimension=dimension,
            provenance=provenance,
            interval=(float(v[0]), float(v[-1]) if v[-1] > v[0] else float(v[0]) + 1.0),
        )


def _mixed_radix_sums(weights: Sequence[int], digits: Sequence[int]) -> np.ndarray:
    """All sums  sum_i d_i * w_i  over digit tuples, ordered lexicographically
    by digits of the first (coarsest) weight, as int64."""
    nums = np.zeros(1, dtype=np.int64)
    dig = np.asarray(sorted(digits), dtype=np.int64)
    for w in reversed(list(weights)):
        nums = (dig[:, None] * np.int64(w) + nums[None, :]).ravel()
    return nums


def _check_budget(count: int, budget: int):
    if count > budget:
        raise BudgetError(f"{count} points exceed the configured budget of {budget}")


def cantor_points(spec: CantorSpec, budget: int = DEFAULT_BUDGET) -> PointSet1D:
    """Level-n orbit of the equal-gap IFS, deterministic and sorted."""
    _check_budget(spec.count, budget)
    lo, hi = spec.interval
    width = hi - lo
    n = spec.level
    m = spec.m

    exact_num = None
    exact_den = None
    if isinstance(spec.r, (Fraction, int)) or (
        isinstance(spec.r, float) and Fraction(spec.r).limit_denominator(10**6) == Fraction(spec.r)
    ):
        r = Fraction(spec.r)
        p, q = r.numerator, r.denominator
        den = (m - 1) * q**n
        if den < (1 << 62) and (q**n) < (1 << 62):
            # c_j * r^(i-1) = j*(q-p)*p^(i-1)*q^(n-i) / ((m-1)*q^n)
            weights = [(q - p) * p ** (i - 1) * q ** (n - i) for i in range(1, n + 1)]
            if max(weights) * (m - 1) < (1 << 62):
                nums = _mixed_radix_sums(weights, range(m))
                if spec.rule == "mid":
                    # shift by r^n/2 = p^n / (2 q^n): scale denominator by 2
                    nums = 2 * nums + (m - 1) * p**n
                    den *= 2
                exact_num = nums
                exact_den = den
    if exact_num is not None:
        vals = lo + width * (exact_num.astype(np.float64) / float(exact_den))
    else:
        r = float(spec.r)
        offsets = np.array([j * (1.0 - r) / (m - 1) for j in range(m)])
        pts = np.zeros(1)
        for _ in range(n):
            pts = (offsets[:, None] + r * pts[None, :]).ravel()
        if spec.rule == "mid":
            pts = pts + r**n / 2.0
        vals = lo + width * pts
    return PointSet1D(
        values=vals,
        dimension=spec.dimension,
        provenance=_hash_spec(spec.describe(), spec.interval),
        interval=spec.interval,
        exact_num=exact_num,
        exact_den=exact_den,
    )


def digit_points(
    base: int,
    digits: Sequence[int],
    level: int,
    interval: tuple[float, float] = (0.0, 1.0),
    budget: int = DEFAULT_BUDGET,
) -> PointSet1D:
    """All numbers sum_{i<=level} d_i * base^-i with digits d_i in `digits`,
    mapped affinely onto the interval."""
    digits = sorted(set(int(d) for d in digits))
    if base < 2:
        raise ValueError("base must be >= 2")
    if not digits:
        raise ValueError("digit set must be nonempty")
    if digits[0] < 0 or digits[-1] >= base:
        raise ValueError(f"digits must lie in 0..{base - 1}")
    if level < 1:
        raise ValueError("level must be >= 1")
    count = len(digits) ** level
    _check_budget(count, budget)
    den = base**level
    if den >= (1 << 62):
        raise BudgetError("base**level exceeds exact integer range")
    weights = [base ** (level - i) for i in range(1, level + 1)]
    nums = _mixed_radix_sums(weights, digits)
    lo, hi = interval
    vals = lo + (hi - lo) * (nums.astype(np.float64) / float(den))
    dim = math.log(len(digits)) / math.log(base) if len(digits) > 1 else 0.0
    return PointSet1D(
        values=vals,
        dimension=dim,
        provenance=_hash_spec(f"digits(base={base}, digits={digits}, level={level})", interval),
        interval=interval,
        exact_num=nums,
        exact_den=den,
    )


def _hash_spec(description: str, interval: tuple[float, float]) -> str:
    payload = f"{description}@{interval}"
    return f"{description} sha1:{hashlib.sha1(payload.encode()).hexdigest()[:12]}"


# ---------------------------------------------------------------------------
# Binary export/import: one JSON header line, then the little-endian float64
# values and, in v2 when the set carries them, the little-endian int64 exact
# numerators over the header's "exact_den".  v1 files (values only) still load.
# ---------------------------------------------------------------------------

_MAGIC = "expandlab-pointset-v2"
_MAGIC_V1 = "expandlab-pointset-v1"


def save_points(ps: PointSet1D, path: str | Path):
    path = Path(path)
    header = {
        "format": _MAGIC,
        "count": len(ps),
        "dimension": ps.dimension,
        "spec": ps.provenance,
        "interval": list(ps.interval),
        "exact_den": ps.exact_den if ps.has_exact else None,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(ps.values.astype("<f8").tobytes())
        if ps.has_exact:
            fh.write(ps.exact_num.astype("<i8").tobytes())


def load_points(path: str | Path) -> PointSet1D:
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        header = json.loads(header_line.decode("utf-8"))
        if header.get("format") not in (_MAGIC, _MAGIC_V1):
            raise ValueError(f"{path} is not a {_MAGIC} or {_MAGIC_V1} file")
        body = fh.read()
    count = header["count"]
    exact_den = header.get("exact_den")
    width = 16 if exact_den is not None else 8
    if len(body) != count * width:
        raise ValueError(f"{path}: expected {count} points, found {len(body) / width:g}")
    exact_num = None
    if exact_den is not None:
        exact_num = np.frombuffer(body, dtype="<i8", offset=count * 8).astype(np.int64)
    return PointSet1D(
        values=np.frombuffer(body, dtype="<f8", count=count).astype(np.float64),
        dimension=float(header["dimension"]),
        provenance=str(header["spec"]),
        interval=tuple(header["interval"]),
        exact_num=exact_num,
        exact_den=exact_den,
    )
