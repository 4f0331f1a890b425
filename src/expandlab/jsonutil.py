"""JSON encoding helpers.

Exact rationals are always emitted as {"num": ..., "den": ...} objects, never
as floats; numpy scalars/arrays are converted to plain Python values, and a
non-finite float (NaN or infinity) becomes None, so the document stays JSON.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def rational(q: Fraction) -> dict:
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator}


def jsonable(obj):
    """Recursively convert to JSON-serializable structures."""
    if isinstance(obj, Fraction):
        return rational(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj
