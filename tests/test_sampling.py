"""The seeded sample streams against numpy's own generator, the oracle:
every draw expandlab makes must be the draw `numpy.random.default_rng(seed)`
makes, bit for bit."""

import numpy as np
import pytest

from expandlab.degeneracy import ZeroPolicy, classify
from expandlab.expr import FunctionSpec, parse
from expandlab.sampling import Stream

MODULUS = (1 << 61) - 1
SEEDS = [*range(200), 1 << 32, 1 << 64, (1 << 200) + 12345]
# the ranges the product samples: boxes, the fold's jitter and angle
# factors, negative and tiny ranges
RANGES = [(0.0, 1.0), (0.5, 1.5), (-0.15, 0.15), (0.5, 2.0), (-3.0, -2.0), (-1.0, 1.0),
          (1.0, 1.0 + 2.0**-50), (1e-300, 3e-300), (-1e-12, 0.0), (2.0, 2.0), (-1e300, 1e300)]


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_outputs_match_numpy(seed):
    ours = Stream(seed)
    assert [ours.next64() for _ in range(8)] == np.random.default_rng(seed).bit_generator.random_raw(8).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_and_modular_points_match_numpy(seed):
    ours, theirs = Stream(seed), np.random.default_rng(seed)
    for lo, hi in RANGES:
        assert ours.uniform(lo, hi) == theirs.uniform(lo, hi), (lo, hi)
    for lo, hi in RANGES[:4] + RANGES[-5:]:
        assert np.array_equal(ours.uniform(lo, hi, size=7), theirs.uniform(lo, hi, size=7))
    # the modular zero test draws its points row by row
    rows = [ours.integers(MODULUS, 3) for _ in range(4)]
    assert rows == theirs.integers(MODULUS, size=(4, 3)).tolist()
    assert ours.uniform(0.0, 1.0) == theirs.uniform(0.0, 1.0)  # still in step


def test_a_seed_past_64_bits_keeps_its_witness():
    # the witness numpy's generator gave for this seed, to the last bit
    f = FunctionSpec(parse("x^2 + x*y"), ("x", "y"), ((0.5, 1.5), (0.5, 1.5)))
    report = classify(f, ZeroPolicy(seed=123456789012345678901234567890))
    assert report.witness_point == {"x": 1.432508769130451, "y": 0.866964185076459}


def test_sized_uniform_is_float64_and_may_be_empty():
    assert Stream(5).uniform(0, 1, size=0).dtype == np.float64
    assert Stream(5).uniform(0, 1, size=0).shape == (0,)
    assert Stream(5).uniform(0, 1, size=64).tolist() == np.random.default_rng(5).uniform(0, 1, size=64).tolist()


@pytest.mark.parametrize("high", [(1 << 63) + 1, 3 << 62])
def test_bounded_draws_reject_like_numpy(high):
    # 2^64 mod high is 2^63 - 1 or 2^62, so a quarter or more of the draws
    # are rejected: the rejection loop runs, against numpy's own
    for seed in (0, 1, 7):
        ours = Stream(seed)
        expected = np.random.default_rng(seed).integers(high, size=50, dtype=np.uint64).tolist()
        assert ours.integers(high, 50) == expected


def test_bounded_draw_redraws_below_the_threshold():
    # for 2^61 - 1 the threshold is 2^64 mod (2^61 - 1) = 8: an output whose
    # product with the bound has a lower word of 7 is drawn again, one of 8
    # is kept, and the draw is the product's upper word
    class Scripted(Stream):
        def __init__(self, outputs):
            self.outputs = iter(outputs)

        def next64(self):
            return next(self.outputs)

    inverse = pow(MODULUS, -1, 1 << 64)
    low7, low8 = (7 * inverse) % (1 << 64), (8 * inverse) % (1 << 64)
    script = Scripted([low7, low7, low8, 5])
    assert script.integers(MODULUS, 2) == [low8 * MODULUS >> 64, 0]
    assert next(script.outputs, None) is None
    assert Scripted([(1 << 64) - 1]).integers(MODULUS, 1) == [MODULUS - 1]


def test_seed_must_be_a_non_negative_integer():
    with pytest.raises(ValueError, match="the seed must be a non-negative integer, got -3"):
        Stream(-3)
    with pytest.raises(TypeError):
        Stream(1.5)
    assert Stream(np.int64(9)).next64() == Stream(9).next64()


@pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.0, float("inf")), (float("nan"), 1.0), (-1e308, 1e308)])
def test_uniform_refuses_a_range_it_cannot_sample(lo, hi):
    with pytest.raises(ValueError, match="cannot sample the range"):
        Stream(0).uniform(lo, hi)


def test_integers_refuses_bounds_outside_the_64_bit_route():
    # numpy draws bounds up to 2^32 from 32-bit halves, a different stream
    for high in (1, 1 << 32, 1 << 64):
        with pytest.raises(ValueError, match="64-bit bounds"):
            Stream(0).integers(high, 1)
