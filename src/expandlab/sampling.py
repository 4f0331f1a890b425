"""Seeded sample streams: numpy's default generator, computed here.

numpy's default generator is PCG64 (O'Neill 2014: a 128-bit LCG with the
XSL-RR output), seeded through SeedSequence's hash mixing.  expandlab draws
only uniform floats and 64-bit bounded integers from it, so this module
computes just those, with Python ints, bit for bit as numpy does.  The
answers then do not depend on the installed numpy's generator (NEP 19 lets
its streams change between releases), and no command pays the import of
numpy's random package (8-17 ms a process).
"""
from __future__ import annotations

import operator

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128
# SeedSequence's hash constants; its pool holds 4 words of 32 bits
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _seed_state(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) after SeedSequence(seed).generate_state(4, uint64)."""
    words = []  # the seed as little-endian 32-bit words
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * _MULT_A & _M32
        value = value * h & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    out = []  # 8 words of 32 bits, drawn from the pool in turn
    for i in range(2 * _POOL):
        value = (pool[i % _POOL] ^ h) & _M32
        h = h * _MULT_B & _M32
        value = value * h & _M32
        out.append(value ^ value >> 16)
    # 64-bit words (little-endian pairs): state = w0:w1, sequence = w2:w3
    w = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state = (inc + (w[0] << 64 | w[1])) & _M128  # srandom: step from 0, add, step
    return (state * _PCG_MULT + inc) & _M128, inc


class Stream:
    """The draws of numpy's default generator seeded with seed (PCG64 from
    SeedSequence(seed)) that expandlab makes."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"the seed must be a non-negative integer, got {seed}")
        self._state, self._inc = _seed_state(seed)

    def next64(self) -> int:
        """One PCG64 output: step the LCG, then XSL-RR on the new state."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        rot = s >> 122
        return (x >> rot | x << (-rot & 63)) & _M64

    def uniform(self, lo: float, hi: float, size: int | None = None):
        """A float in [lo, hi), or a float64 array of size of them, as
        lo + (hi - lo) * (53 random bits / 2^53)."""
        lo = float(lo)
        span = float(hi) - lo
        if not 0.0 <= span < float("inf"):
            raise ValueError(f"cannot sample the range [{lo}, {hi}]")
        if size is None:
            return lo + span * ((self.next64() >> 11) * 2.0**-53)
        draw = self.next64
        return np.array([lo + span * ((draw() >> 11) * 2.0**-53) for _ in range(size)])

    def integers(self, high: int, size: int) -> list[int]:
        """size ints in [0, high) for 2^32 < high < 2^64, by Lemire's
        multiply-shift with rejection (numpy's 64-bit bounded route)."""
        if not 1 << 32 < high < 1 << 64:
            raise ValueError(f"integers draws only 64-bit bounds, got {high}")
        threshold = (1 << 64) % high  # products with a lower word below this are biased
        out = []
        for _ in range(size):
            m = self.next64() * high
            while m & _M64 < threshold:
                m = self.next64() * high
            out.append(m >> 64)
        return out
