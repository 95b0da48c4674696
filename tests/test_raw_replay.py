"""The kernel suite's replay of numpy's draws from PCG64's raw outputs,
against numpy's own ``Generator``, byte for byte.

``verify``'s kernel suite does not call the ``Generator``: ``_draw_stick``
decodes each stick's five bounded integers (Lemire's multiply-and-reject on
buffered 32-bit halves) and its sign's double from a list of raws, and the
suite turns the next three raws into the point; the masked ``verify`` JSON
goldens pin the result.  These tests pin the decoding itself to numpy: the
scalar ``ScanRaws`` on a random interleaving of draw kinds, and the suite's
decoder on sticks and points, each entering with PCG64's 32-bit buffer
empty and full, and the raws used plus the buffer must give the generator's
final state.  If a numpy release changes how it turns raws into draws, they
fail here instead of the suite's pairs drifting.  A zero 32-bit half, which
Lemire's loop rejects at the suite's ranges 17 and 3, comes about once in
2**32 draws, so handcrafted raw streams force it, and a short first block
forces the decoder to extend it.
"""

from unittest import mock

import numpy as np
import pytest

from knotfield import verification
from knotfield.verification import _draw_stick
from scan_oracle import ScanRaws, random_axis_segment, scan_axis_stick

# Range sizes hi - lo: the suite's, small and large ones, 2**32 (a bare
# 32-bit half), and 2**31 + 1, which Lemire's loop rejects about half the time.
SIZES = (2, 3, 16, 17, 1000, 2**31 - 1, 2**31 + 1, 2**32 - 1, 2**32)
KINDS = ("integers", "integers3", "random", "uniform", "uniform13")


class Stream:
    """A bit generator whose ``random_raw`` hands out ``raws`` in turn."""

    def __init__(self, raws):
        self.raws, self.pos = np.asarray(raws, dtype=np.uint64), 0

    def random_raw(self, n):
        self.pos += n
        return self.raws[self.pos - n:self.pos]


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


def generator_state(seed, pos, has, half):
    """The state dict of a PCG64 seeded ``seed`` after ``pos`` raws, with
    its buffer."""
    state = np.random.PCG64(seed).advance(pos).state
    state["has_uint32"], state["uinteger"] = has, half
    return state


@pytest.mark.parametrize("has", [0, 1])
def test_replay_matches_generator(has):
    rejected = 0
    for seed in range(200):
        plan = np.random.default_rng([seed, has, 1])     # picks the kinds and ranges
        rng, raws = np.random.default_rng(seed), ScanRaws(seed, 4)   # a small block grows
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
        assert generator_state(seed, raws.pos, raws.has, raws.half) == \
            rng.bit_generator.state, seed
    assert rejected > 0


@pytest.mark.parametrize("has", [0, 1])
def test_replayed_sticks_match_generator(has):
    """Sticks and their points, as the suite draws them, from a block of 64
    raws or, at odd seeds, of one raw that the decoder extends."""
    for seed in range(200):
        rng, bits = np.random.default_rng(seed), np.random.PCG64(seed)
        block = 1 if seed % 2 else 64
        raws, at = bits.random_raw(block).tolist(), (0, 0, 0)
        if has:
            rng.integers(0, 3)
            scan = ScanRaws(seed, 4)
            scan.integer(0, 3)
            at = (scan.pos, scan.has, scan.half)
        for _ in range(20):
            start, end, at = _draw_stick(raws, bits, *at)
            seg = random_axis_segment(rng)
            assert (start, end) == (seg.start, seg.end), seed
            lo, hi = np.minimum(start, end) - 4.0, np.maximum(start, end) + 4.0
            u = np.array(raws[at[0]:at[0] + 3], dtype=np.uint64)
            assert (lo + (hi - lo) * ((u >> 11) * 2.0 ** -53)).tobytes() == \
                rng.uniform(lo, hi).tobytes(), seed
            at = (at[0] + 3, *at[1:])
        assert generator_state(seed, *at) == rng.bit_generator.state, seed


@pytest.mark.parametrize("has", [0, 1])
@pytest.mark.parametrize("block, run", [(64, 0), (2, 0), (2, 40)],
                         ids=["block-64", "block-2", "block-2-zero-run"])
def test_zero_halves_take_the_exact_loop(has, block, run):
    """Streams in which every 32-bit half is zero with probability 1/4, so
    Lemire's loop rejects at each of a stick's slots, often several times in
    a row, and which may open with ``run`` zero raws, which that loop walks
    past the first extension of a 2-raw block: the decoder agrees with the
    scalar replay, stick for stick and state for state."""
    fallbacks = 0
    for seed in range(40):
        plan = np.random.default_rng([seed, has, 2])
        halves = plan.integers(1, 2**32, size=(4000, 2), dtype=np.uint64)
        halves[plan.random(halves.shape) < 0.25] = 0
        stream = halves[:, 0] | halves[:, 1] << np.uint64(32)
        stream[:run] = 0
        bits, scan = Stream(stream), ScanRaws(Stream(stream), 1)
        raws, at = bits.random_raw(block).tolist(), (0, 0, 0)
        if has:
            scan.has, scan.half = 1, 0              # a zero half held in the buffer
            at = (0, 1, 0)
        with mock.patch("knotfield.verification._lemire", wraps=verification._lemire) as loop:
            for _ in range(60):
                start, end, at = _draw_stick(raws, bits, *at)
                assert (start, end) == scan_axis_stick(scan), seed
                assert at == (scan.pos, scan.has, scan.half), seed
                for _ in range(3):                  # the point's raws
                    scan.raw()
                at = (at[0] + 3, *at[1:])
        fallbacks += loop.call_count
    assert fallbacks > 1000
