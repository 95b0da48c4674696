"""The kernel suite's replay of numpy's draws from PCG64's raw outputs,
against numpy's own ``Generator``, byte for byte.

``verify``'s kernel suite does not call the ``Generator``: it decodes the
sticks' bounded integers (Lemire's multiply-and-reject on buffered 32-bit
halves) and the points' doubles from a block of raws, and the masked
``verify`` JSON goldens pin the result.  These tests pin the decoding itself
to numpy: each seed runs a random interleaving of the draw kinds the suite
makes, entering with PCG64's 32-bit buffer empty and full, and the raws
used plus the buffer must give the generator's final state.  If a numpy
release changes how it turns raws into draws, they fail here instead of the
suite's pairs drifting.
"""

import numpy as np
import pytest

from knotfield.verification import _Raws, _axis_stick
from scan_oracle import random_axis_segment

# Range sizes hi - lo: the suite's, small and large ones, 2**32 (a bare
# 32-bit half), and 2**31 + 1, which Lemire's loop rejects about half the time.
SIZES = (2, 3, 16, 17, 1000, 2**31 - 1, 2**31 + 1, 2**32 - 1, 2**32)
KINDS = ("integers", "integers3", "random", "uniform", "uniform13")


def replay_and_draw(kind, raws, rng, plan):
    """One draw of ``kind``, replayed and from numpy, as bytes."""
    if kind.startswith("integers"):
        size = 3 if kind == "integers3" else None
        lo = int(plan.integers(-2**40, 2**40))
        hi = lo + int(plan.choice(SIZES))
        got = [raws.integer(lo, hi) for _ in range(size or 1)]
        return np.array(got, dtype=np.int64).tobytes(), \
            np.array(rng.integers(lo, hi, size=size), dtype=np.int64).tobytes()
    if kind == "random":
        return np.float64(raws.random()).tobytes(), np.float64(rng.random()).tobytes()
    lo = plan.uniform(-20.0, 20.0, 3)
    hi = lo + plan.uniform(0.1, 30.0, 3)
    shape = (1, 3) if kind == "uniform13" else (3,)
    got = lo + (hi - lo) * np.array([raws.random() for _ in range(3)])
    return got.reshape(shape).tobytes(), \
        rng.uniform(lo, hi, size=shape if kind == "uniform13" else None).tobytes()


def generator_state(seed, raws):
    """The state dict of a PCG64 seeded ``seed`` after the raws ``raws`` has
    used, with its buffer."""
    state = np.random.PCG64(seed).advance(raws.pos).state
    state["has_uint32"], state["uinteger"] = raws.has, raws.half
    return state


@pytest.mark.parametrize("has", [0, 1])
def test_replay_matches_generator(has):
    rejected = 0
    for seed in range(200):
        plan = np.random.default_rng([seed, has, 1])     # picks the kinds and ranges
        rng, raws = np.random.default_rng(seed), _Raws(seed, 4)   # a small block grows
        if has:
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, int(plan.integers(2**32))
            rng.bit_generator.state = state
            raws.has, raws.half = 1, state["uinteger"]
        for kind in plan.choice(KINDS, size=40):
            before = 2 * raws.pos - raws.has
            got, want = replay_and_draw(kind, raws, rng, plan)
            assert got == want, (seed, kind)
            # 32-bit halves used beyond one per integer: Lemire's loop rejected.
            rejected += kind.startswith("integers") and \
                2 * raws.pos - raws.has - before > (3 if kind == "integers3" else 1)
        assert generator_state(seed, raws) == rng.bit_generator.state, seed
    assert rejected > 0


@pytest.mark.parametrize("has", [0, 1])
def test_replayed_sticks_match_generator(has):
    for seed in range(200):
        rng, raws = np.random.default_rng(seed), _Raws(seed, 64)
        if has:
            rng.integers(0, 3)
            raws.integer(0, 3)
        for _ in range(20):
            start, end = _axis_stick(raws)
            seg = random_axis_segment(rng)
            assert (tuple(start), tuple(end)) == (seg.start, seg.end), seed
        assert generator_state(seed, raws) == rng.bit_generator.state, seed
