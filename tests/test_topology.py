import dataclasses
import gc
import itertools
import math
import pickle
import re
import signal
import weakref
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from knotfield.biot_savart import FieldError, total_field
from knotfield.braids import BraidWord, close_braid_on_lattice, parse_braid, permutation_cycles
from knotfield.geometry import (
    LatticeKnot,
    bounding_box,
    canonical_figure_eight,
    canonical_trefoil,
    refine,
    segments,
    stick_ends,
    validate,
)
from knotfield import topology
from knotfield.topology import (
    LinkingPrecisionError,
    Loop,
    LoopOnConductorError,
    _clearances,
    _holonomy_results,
    _linking_results,
    _measure,
    _orient,
    _refusal,
    holonomy,
    linking_number,
    loop_clearance,
    parse_loop_text,
    read_loop_file,
)
from knotfield import verification
from knotfield.verification import (random_clear_points, random_rect_loop, run_verification,
                                   suite_holonomy_linking)
from scan_oracle import scan_holonomy, scan_linking_number, scan_loop_clearance

FOUR_PI = 4.0 * math.pi


def paper_loop():
    return Loop(vertices=((5, 3, 2), (7, 3, 2), (7, 5, 2), (5, 5, 2)), name="paper")


def hopf_pair():
    """Square unknot in the z=0 plane, CCW about +z, and a tall rectangle
    carrying current +z through its center (a long-wire stand-in)."""
    square = Loop(vertices=((2, -2, 0), (2, 2, 0), (-2, 2, 0), (-2, -2, 0)), name="sq")
    wire = LatticeKnot(
        vertices=((0, 0, -1000), (0, 0, 1000), (1000, 0, 1000), (1000, 0, -1000)),
        name="tall-rectangle",
    )
    return wire, square


def square_around(stick, h):
    """Square of half-width h around the stick's midpoint, perpendicular to
    it and counterclockwise about +axis, so Lk = stick.direction_sign."""
    a = int(stick.axis)
    u, v = (a + 1) % 3, (a + 2) % 3          # e_u x e_v = e_a
    centre = 0.5 * (np.array(stick.start, dtype=float) + np.array(stick.end, dtype=float))
    corners = []
    for du, dv in ((-h, -h), (h, -h), (h, h), (-h, h)):
        p = centre.copy()
        p[u] += du
        p[v] += dv
        corners.append(tuple(p))
    return Loop(vertices=tuple(corners), name=f"square{h:g}")


# (2,2,0) -> (2,2,6): a tight square around it is at z=3 and has Lk = +1.
TREFOIL_STICK_1 = segments(canonical_trefoil())[0]

# Its first vertex lies on the axis extension of trefoil stick 1.
AXIS_LOOP = Loop(vertices=((2, 2, -1), (3, 1, 3), (3, 3, 3), (1, 3, 3), (1, 1, 3)),
                 name="axis-vertex")


class TestLoop:
    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            Loop(vertices=((0, 0, 0), (1, 0, 0)))

    def test_coincident_consecutive_vertices(self):
        with pytest.raises(ValueError):
            Loop(vertices=((0, 0, 0), (0, 0, 0), (1, 0, 0)))

    def test_real_coordinates_allowed(self):
        Loop(vertices=((0.5, 0.25, -1.75), (1.5, 0.25, -1.75), (1.5, 1.25, -1.75)))


class TestHolonomy:
    def test_paper_loop_value(self):
        # The loop encloses only the z-stick at (x, y) = (6, 4), which carries
        # current in -z; counterclockwise circulation about +z gives -4*pi*k.
        res = holonomy(canonical_trefoil(), paper_loop(), tol=1e-6)
        assert abs(res.value + FOUR_PI) < 1e-6 * FOUR_PI
        assert res.inferred_linking == -1
        assert abs(res.residual) < 1e-6
        assert res.edges_evaluated == 4
        assert res.estimated_error < 1e-5

    def test_far_loop_is_zero(self):
        far = Loop(vertices=((0, 0, 100), (4, 0, 100), (4, 4, 100), (0, 4, 100)))
        res = holonomy(canonical_trefoil(), far, tol=1e-7)
        assert abs(res.value) < 1e-6
        assert res.inferred_linking == 0

    def test_double_traversal_doubles(self):
        single = holonomy(canonical_trefoil(), paper_loop(), tol=1e-8)
        doubled = Loop(vertices=paper_loop().vertices * 2, name="twice")
        double = holonomy(canonical_trefoil(), doubled, tol=1e-8)
        assert abs(double.value - 2.0 * single.value) < 1e-6
        assert double.inferred_linking == -2

    def test_reversal_negates(self):
        res = holonomy(canonical_trefoil(), paper_loop(), tol=1e-8)
        rev = holonomy(canonical_trefoil(), paper_loop().reversed(), tol=1e-8)
        assert abs(res.value + rev.value) < 1e-7

    def test_additivity_of_concatenation(self):
        # Two rectangles sharing the basepoint (5,3,2), concatenated into one
        # loop, integrate to the sum of the parts.
        a = Loop(vertices=((5, 3, 2), (7, 3, 2), (7, 5, 2), (5, 5, 2)), name="a")
        b = Loop(vertices=((5, 3, 2), (5, 3, 4), (5, 1, 4), (5, 1, 2)), name="b")
        both = Loop(vertices=a.vertices + b.vertices, name="a+b")
        knot = canonical_trefoil()
        ha = holonomy(knot, a, tol=1e-8).value
        hb = holonomy(knot, b, tol=1e-8).value
        hab = holonomy(knot, both, tol=1e-8).value
        assert abs(hab - (ha + hb)) < 2e-7

    def test_translate_with_same_linking_matches(self):
        knot = canonical_trefoil()
        base = paper_loop()
        moved = Loop(vertices=((5, 3, 1.25), (7, 3, 1.25), (7, 5, 1.25), (5, 5, 1.25)))
        assert linking_number(knot, base) == linking_number(knot, moved)
        h1 = holonomy(knot, base, tol=1e-8).value
        h2 = holonomy(knot, moved, tol=1e-8).value
        assert abs(h1 - h2) < 2e-7

    def test_scale_invariance_under_refine(self):
        knot = canonical_trefoil()
        big = refine(knot, 2)
        h1 = holonomy(knot, paper_loop(), tol=1e-8).value
        doubled = Loop(vertices=tuple((2 * x, 2 * y, 2 * z) for x, y, z in paper_loop().vertices))
        h2 = holonomy(big, doubled, tol=1e-8).value
        assert abs(h1 - h2) < 2e-7

    def test_k_prefactor_scales_value(self):
        res = holonomy(canonical_trefoil(k=2.5), paper_loop(), tol=1e-6)
        assert abs(res.value + 2.5 * FOUR_PI) < 1e-5
        assert res.inferred_linking == -1

    def test_loop_touching_conductor(self):
        bad = Loop(vertices=((2, 2, 3), (7, 3, 2), (7, 5, 2), (5, 5, 2)))
        with pytest.raises(LoopOnConductorError) as err:
            holonomy(canonical_trefoil(), bad)
        assert err.value.segment_index == 1
        assert err.value.loop_edge in (0, 3)

    def test_unrepresentable_loop_refused(self):
        # Edge 0 runs through stick 1 at (2,2,3), but its length squared
        # overflows and its distance is NaN: refused, never skipped.
        huge = Loop(vertices=((1e200, 2, 3), (-5, 2, 3), (-5, -5, 3), (1e200, -5, 3)))
        for route in (loop_clearance, holonomy):
            with pytest.raises(LinkingPrecisionError, match="loop edge 0"):
                route(canonical_trefoil(), huge)

    def test_clearance_of_paper_loop(self):
        clear, _ = loop_clearance(canonical_trefoil(), paper_loop())
        assert abs(clear - 1.0) < 1e-12

    def test_unreachable_tolerance_raises(self):
        from knotfield.biot_savart import QuadratureError
        with pytest.raises(QuadratureError):
            holonomy(canonical_trefoil(), paper_loop(), tol=1e-14, max_levels=0)

    @pytest.mark.parametrize("levels, lo, hi", [(0, 0.0, 0.5), (2, 0.375, 0.5), (4, 0.46875, 0.5)])
    def test_unconverged_edge_is_named(self, levels, lo, hi):
        """Edge 2 passes 1e-4 from stick 1's midpoint, halfway along it: the
        error names that edge and stick, numbered as LoopOnConductorError
        numbers them when the edge passes nearer, the loop's tol, and the
        first panel left unconverged, which ends where the edge passes
        closest, at the split its row starts from."""
        from knotfield.biot_savart import QuadratureError
        knot, near = canonical_trefoil(), lambda d: Loop(
            vertices=((12, 9, 3), (12, -5, 3), (2 + d, -5, 3), (2 + d, 9, 3)))
        want = (f"holonomy edge 2 failed to converge to 1e-06 on [{lo}, {hi}] against circuit "
                f"segment 1 after {levels} halvings")
        for route in (holonomy, scan_holonomy):
            with pytest.raises(QuadratureError) as err:
                route(knot, near(1e-4), max_levels=levels)
            assert str(err.value) == want
        with pytest.raises(LoopOnConductorError) as err:
            holonomy(knot, near(1e-7))
        assert (err.value.loop_edge, err.value.segment_index) == (2, 1)

    @pytest.mark.parametrize("bounds, match", [
        ({"tol": math.nan}, "tol must be finite and > 0, got nan"),
        ({"tol": -1.0}, "tol must be finite and > 0"),
        ({"tol": 0.0}, "tol must be finite and > 0"),
        ({"tol": math.inf}, "tol must be finite and > 0"),
        ({"max_levels": -1}, "max_levels must be an integer >= 0, got -1"),
        ({"max_levels": 14.0}, "max_levels must be an integer >= 0"),
        ({"max_levels": True}, "max_levels must be an integer >= 0, got True"),
        ({"max_levels": False}, "max_levels must be an integer >= 0, got False"),
    ], ids=["nan", "negative", "zero", "inf", "levels-negative", "levels-float", "levels-true",
            "levels-false"])
    def test_invalid_bounds_refused(self, bounds, match):
        # Refused before the clearance check and before any kernel call, so
        # a loop through the conductor gets the ValueError; a NaN tol used
        # to refine every edge to max_levels first.
        bad = Loop(vertices=((2, 2, 3), (7, 3, 2), (7, 5, 2), (5, 5, 2)))
        knot = canonical_trefoil()
        with mock.patch("knotfield.topology._pair_terms") as kernel:
            for loop in (paper_loop(), bad):
                with pytest.raises(ValueError, match=match):
                    holonomy(knot, loop, **bounds)
                with pytest.raises(ValueError, match=match):
                    _holonomy_results(knot, [paper_loop(), loop], **bounds)
        assert kernel.call_count == 0

    def test_numpy_integer_levels_accepted(self):
        """``max_levels`` follows the one rule for integer arguments: a numpy
        integer is taken as the int it equals."""
        knot = canonical_trefoil()
        assert holonomy(knot, paper_loop(), max_levels=np.int64(40)) == \
            holonomy(knot, paper_loop(), max_levels=40)

    @pytest.mark.parametrize("k", [1e308, -1e308, 2e307])
    def test_overflowing_k_refused(self, k):
        # 4*pi*k overflows; the parent's rounding of value / inf hit NaN.
        with pytest.raises(ValueError,
                           match=re.escape(f"k = {k!r} is too large: the result overflows")):
            holonomy(canonical_trefoil(k=k), paper_loop())

    def test_huge_k_scales_an_unlinked_loop(self):
        # Lk and the residual are formed at k = 1 and only the result is
        # scaled: an unlinked loop's holonomy at k = 1e308 is representable
        # and answered, although 4*pi*k overflows.
        loop = random_rect_loop(np.random.default_rng(0), canonical_trefoil())
        at_1, res = (holonomy(canonical_trefoil(k=k), loop) for k in (1.0, 1e308))
        assert res.inferred_linking == at_1.inferred_linking == 0
        assert (res.value, res.residual) == (at_1.value * 1e308, at_1.residual * 1e308)


class TestLinkingNumber:
    def test_paper_loop(self):
        assert linking_number(canonical_trefoil(), paper_loop()) == -1

    def test_hopf_pair(self):
        wire, square = hopf_pair()
        assert linking_number(wire, square) == 1
        assert linking_number(wire, square.reversed()) == -1

    def test_hopf_holonomy_sign_anchor(self):
        # Ampere by hand: +z current through a CCW loop gives +4*pi*k.
        wire, square = hopf_pair()
        res = holonomy(wire, square, tol=1e-6)
        assert abs(res.value - FOUR_PI) < 1e-4
        assert res.inferred_linking == 1

    def test_disjoint_far_loops(self):
        far = Loop(vertices=((50, 50, 50), (54, 50, 50), (54, 54, 50), (50, 54, 50)))
        assert linking_number(canonical_trefoil(), far) == 0

    def test_figure_eight_loop_around_4_6_stick(self):
        loop = Loop(vertices=((3, 5, 2), (5, 5, 2), (5, 7, 2), (3, 7, 2)), name="around-46")
        knot = canonical_figure_eight()
        assert abs(linking_number(knot, loop)) == 1

    @pytest.mark.parametrize("loop, expected", [
        (square_around(TREFOIL_STICK_1, 3e-4), 1),
        (square_around(TREFOIL_STICK_1, 3e-4).reversed(), -1),
        (square_around(TREFOIL_STICK_1, 1e-5), 1),
        (square_around(TREFOIL_STICK_1, 1e-5).reversed(), -1),
        (AXIS_LOOP, 1),
        # ... and with an edge collinear with that extension.
        (Loop(vertices=((2, 2, -3),) + AXIS_LOOP.vertices), 1),
    ], ids=["3e-4", "3e-4-rev", "1e-5", "1e-5-rev", "axis-vertex", "axis-edge"])
    def test_exact_near_stick_and_its_axis(self, loop, expected):
        knot = canonical_trefoil()
        assert linking_number(knot, loop) == holonomy(knot, loop).inferred_linking == expected

    def test_near_corner_loop_takes_the_exact_sign(self):
        assert linking_number(canonical_trefoil(), NEAR_CORNER) == 0

    def test_overflowing_sum_raises(self):
        huge = Loop(vertices=((1e200, 3, 3), (7, 3, 2), (7, 5, 2), (5, 5, 2)))
        with pytest.raises(LinkingPrecisionError):
            linking_number(canonical_trefoil(), huge)

    def test_loop_crossing_conductor_rejected(self):
        bad = Loop(vertices=((2, 2, 3), (7, 3, 2), (7, 5, 2), (5, 5, 2)))
        with pytest.raises(LoopOnConductorError):
            linking_number(canonical_trefoil(), bad)


def polygons(knot, seed, count):
    """Triangles, rectangles and hexagons in turn, 0.05 or more from the
    circuit: the triangles and hexagons with vertices uniform in the knot's
    box inflated by 2, the rectangles ``random_rect_loop``'s."""
    rng = np.random.default_rng(seed)
    lo, hi = (np.asarray(c, dtype=float) for c in bounding_box(knot))
    loops = []
    while len(loops) < count:
        n = (3, 4, 6)[len(loops) % 3]
        loop = random_rect_loop(rng, knot, clearance=0.05) if n == 4 else \
            Loop(vertices=tuple(map(tuple, rng.uniform(lo - 2.0, hi + 2.0, size=(n, 3)))))
        if loop_clearance(knot, loop)[0] >= 0.05:
            loops.append(loop)
    return loops


def linking_outcome(route, knot, loops, *args):
    """The route's result, each total as its hex, or the type and message
    of the error it raises."""
    try:
        return [(lk, total.hex()) for lk, total in route(knot, loops, *args)]
    except FieldError as exc:
        return f"{type(exc).__name__}: {exc}"


def linking_one_at_a_time(knot, loops):
    """The one-loop scan's (Lk, total) of each loop, up to the first loop
    it refuses, whose error is then the outcome."""
    return linking_outcome(lambda knot, loops: [scan_linking_number(knot, loop) for loop in loops],
                           knot, loops)


# Edge 0 runs through trefoil stick 1: refused on its clearance of 0.
THROUGH = Loop(vertices=((2, 2, 3), (7, 3, 2), (7, 5, 2), (5, 5, 2)), name="through")
# Its length squared overflows: loop_clearance refuses it as not representable.
HUGE = Loop(vertices=((1e200, 3, 3), (7, 3, 2), (7, 5, 2), (5, 5, 2)), name="huge")
# A unit square with THROUGH's first vertex as its own: THROUGH meets it and
# HUGE is not representable around it.  Its sticks are 1 long, so a loop
# 1e154 across keeps its distances to them finite; around 3_1 the distance's
# own products with a 6-long stick's squared length overflow first.
UNIT_SQUARE = LatticeKnot(vertices=((2, 2, 3), (3, 2, 3), (3, 3, 3), (2, 3, 3)), name="unit-square")
# An octagon about 1.2e154 from UNIT_SQUARE whose corner cross products
# overflow: its Gauss sum is not representable.
OVERFLOWING = Loop(vertices=tuple((x * 1e153, y * 1e153, 3.5) for x, y in (
    (6.4, 11), (17.4, 4.7), (11, -6.4), (3.3, -12.3), (-6.4, -11), (-12.3, -3.3), (-11, 6.4),
    (-3.3, 12.3))), name="overflowing")
# A triangle 3e16 across, edge 0 through UNIT_SQUARE's box: its corners keep
# none of the square's own coordinates, and its sum, 0.359 where its piercing
# count is 0, rounds ambiguously.
AMBIGUOUS = Loop(vertices=((-6978075864248687.0, -1.643747356435298e+16, -7276168862752082.0),
                           (4559198520775904.0, 1.0739594498226324e+16, 4753960685055793.0),
                           (2107391203243480.0, 2.299383655613328e+16, -2530285132341498.0)),
                 name="ambiguous")
# A vertex 5e-16 from the trefoil's corner (0, 0, 4).  With exact signs its sum
# is 0, the Gauss integral at 60 digits; rounded triple products give 0.493.
NEAR_CORNER = Loop(vertices=((-2.4610302371825135e-16, 1.1305453486755004e-15, 3.9999999999999996),
                             (-1.5, 0.4, 3.3), (1.0, -1.7, 6.4), (0.9, 3.0, 5.8)), name="near-corner")


class TestBatchedLinking:
    @pytest.mark.parametrize("knot", [canonical_trefoil(), canonical_figure_eight(),
                                      close_braid_on_lattice(parse_braid("s1 s2^-1 s1 s2^-1"))],
                             ids=["3_1", "4_1", "braid"])
    def test_each_loop_as_alone(self, knot):
        """Mixed edge counts, so each loop's rows sit at their own offset:
        every integer and raw total has the bits of the one-loop sum and of
        ``linking_number``, and the clearances kept from ``polygons``' checks
        give the answers of a fresh knot, which measures them in one pass."""
        loops = polygons(knot, 0, 24)
        got = linking_outcome(_linking_results, knot, loops)
        assert got == linking_one_at_a_time(knot, loops) == \
            linking_outcome(lambda knot, loops: [
                (linking_number(knot, loop), _linking_results(knot, [loop])[0][1])
                for loop in loops], knot, loops)
        with mock.patch("knotfield.topology._measure", wraps=_measure) as engine:
            assert got == linking_outcome(_linking_results, dataclasses.replace(knot), loops)
        assert engine.call_count == 1
        assert any(lk for lk, _ in got)

    @pytest.mark.parametrize("bad", [[THROUGH], [HUGE], [OVERFLOWING], [AMBIGUOUS],
                                     [THROUGH, HUGE], [HUGE, OVERFLOWING],
                                     [OVERFLOWING, THROUGH], [AMBIGUOUS, OVERFLOWING],
                                     [OVERFLOWING, AMBIGUOUS]],
                             ids=lambda bad: "-".join(loop.name for loop in bad))
    def test_raises_the_first_error(self, bad):
        """Refused loops mid-batch around ``UNIT_SQUARE``: the batch raises
        the error ``linking_number`` raises on the first loop refused on its
        clearance, before any sum is formed, else the pass's overflow, also
        after a loop that rounds ambiguously, else the first ambiguous sum."""
        knot = UNIT_SQUARE
        good = polygons(knot, 1, 6)
        loops = good[:3] + bad + good[3:]
        alone = [linking_outcome(_linking_results, knot, [loop]) for loop in loops]
        assert alone == [linking_one_at_a_time(knot, [loop]) for loop in loops]
        errors = [got for got in alone if isinstance(got, str)]
        refused = [got for got in errors if "Gauss sum" not in got]
        overflow = [got for got in errors if "not representable: overflow" in got]
        assert len(errors) == len(bad)
        assert linking_outcome(_linking_results, knot, loops) == (refused or overflow or errors)[0]


def clearance_outcomes(knot, loops):
    """``_clearances`` of the loops on a fresh copy of the knot, one pass over
    them all, each distance as its hex, or the type and message of the error
    ``_refusal`` builds from an entry that is not finite.  Each entry's signs
    are its own read-only copy of the (edges, sticks) signs ``_orient`` gives
    the loop alone, and ``meets`` says whether any of its pairs meets."""
    entries = _clearances(dataclasses.replace(knot), loops)
    for loop, (clear, (edge, stick), sign, meets) in zip(loops, entries):
        assert type(clear) is float and type(edge) is type(stick) is int and type(meets) is bool
        assert sign.base is None and not sign.flags.writeable
        alone = _orient(knot, *loop._ends)
        assert sign.tolist() == alone[0].tolist() and meets == alone[1].any()
    return [f"{type(error).__name__}: {error}" if (error := _refusal(entry))
            else (entry[0].hex(), entry[1]) for entry in entries]


def one_at_a_time(route, knot, loops):
    """``clearance_outcomes`` from a one-loop route, loop by loop."""
    out = []
    for loop in loops:
        try:
            clear, where = route(knot, loop)
            out.append((clear.hex(), where))
        except LinkingPrecisionError as exc:
            out.append(f"LinkingPrecisionError: {exc}")
    return out


def polygons_3_to_8(knot, seed, count):
    """Polygons of 3 to 8 vertices in turn, the rectangles
    ``random_rect_loop``'s and the rest uniform in the knot's box inflated
    by 2."""
    rng = np.random.default_rng(seed)
    lo, hi = (np.asarray(c, dtype=float) for c in bounding_box(knot))
    return [random_rect_loop(rng, knot, clearance=0.05) if n == 4 else
            Loop(vertices=tuple(map(tuple, rng.uniform(lo - 2.0, hi + 2.0, size=(n, 3)))))
            for n in (3 + i % 6 for i in range(count))]


class TestClearances:
    @pytest.mark.parametrize("knot", [canonical_trefoil(), canonical_figure_eight(),
                                      close_braid_on_lattice(parse_braid("s1 s2^-1 s1 s2^-1"))],
                             ids=["3_1", "4_1", "braid"])
    def test_each_loop_as_alone(self, knot):
        """One pass over a stack of 3- to 8-edge loops gives each loop the
        bits of ``loop_clearance`` and of the edge-by-edge scan."""
        loops = polygons_3_to_8(knot, 0, 24)
        assert {len(loop.vertices) for loop in loops} == set(range(3, 9))
        assert clearance_outcomes(knot, loops) == one_at_a_time(loop_clearance, knot, loops) == \
            one_at_a_time(scan_loop_clearance, knot, loops)

    def test_unrepresentable_loop_mid_batch(self):
        """A loop with a vertex at 1e200 gets its own entry, the first pair
        whose distance is not finite, refused with a LinkingPrecisionError,
        and the loops around it keep their entries."""
        knot = canonical_trefoil()
        loops = polygons_3_to_8(knot, 1, 6)
        loops = loops[:3] + [HUGE] + loops[3:]
        got = clearance_outcomes(knot, loops)
        assert got == one_at_a_time(loop_clearance, knot, loops) == \
            one_at_a_time(scan_loop_clearance, knot, loops)
        assert [isinstance(outcome, str) for outcome in got] == [False] * 3 + [True] + [False] * 3
        clear, (edge, stick), *_ = _clearances(knot, loops)[3]
        assert not math.isfinite(clear) and f"loop edge {edge} " in got[3] and \
            f"circuit segment {stick} evaluates to {clear}" in got[3]
        with pytest.raises(LinkingPrecisionError):
            _holonomy_results(knot, loops)

    def test_empty(self):
        """No loops: no rows, no tuples, and a ``verify`` of no loops passes."""
        knot = canonical_trefoil()
        assert _clearances(knot, []) == _holonomy_results(knot, []) == \
            _linking_results(knot, []) == []
        results = run_verification(knot, seed=0, loops=0, points=4, kernel_pairs=2)
        assert all(r.passed for r in results)
        assert [r.details["loops"] for r in results[-2:]] == [0, 0]


@contextmanager
def alarm(seconds):
    """Fail the block with TimeoutError after ``seconds`` instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("clearance", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("draw", [
    lambda rng, knot, clearance: random_rect_loop(rng, knot, clearance),
    lambda rng, knot, clearance: verification._rect_loops(rng, knot, 3, clearance),
    lambda rng, knot, clearance: random_clear_points(rng, *stick_ends(knot), 3, 3.0, clearance)],
    ids=["random_rect_loop", "_rect_loops", "random_clear_points"])
def test_draws_refuse_a_clearance_not_finite(draw, clearance):
    """No candidate is at least NaN or +inf from the circuit, so such a draw
    would never return: a clearance that is not finite is refused before
    any draw, under an alarm that fails a regression instead of hanging."""
    rng, knot = np.random.default_rng(0), canonical_trefoil()
    state = rng.bit_generator.state
    with alarm(10), pytest.raises(ValueError, match="clearance must be finite"):
        draw(rng, knot, clearance)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("knot", [canonical_trefoil(), canonical_figure_eight()],
                         ids=["3_1", "4_1"])
@pytest.mark.parametrize("draw", [
    lambda rng, knot, clearance: random_rect_loop(rng, knot, clearance),
    lambda rng, knot, clearance: verification._rect_loops(rng, knot, 3, clearance),
    lambda rng, knot, clearance: random_clear_points(rng, *stick_ends(knot), 3, 3.0, clearance)],
    ids=["random_rect_loop", "_rect_loops", "random_clear_points"])
def test_draws_refuse_a_clearance_no_candidate_meets(draw, knot):
    """Every candidate and stick lies in the box drawn from, so no candidate
    is as far from the circuit as the box's diagonal: a clearance of 100
    around 3_1 or 4_1 is refused before any draw, under an alarm."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with alarm(10), pytest.raises(ValueError, match="clearance must be finite and below the "
                                                    r"box's diagonal \d+\.\d+, got 100.0"):
        draw(rng, knot, 100.0)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("draw, clearance", [
    (lambda rng, knot, clearance: random_rect_loop(rng, knot, clearance), 6.0),
    (lambda rng, knot, clearance: verification._rect_loops(rng, knot, 3, clearance), 6.0),
    (lambda rng, knot, clearance: random_clear_points(rng, *stick_ends(knot), 3, 3.0, clearance),
     10.0)],
    ids=["random_rect_loop", "_rect_loops", "random_clear_points"])
def test_draws_refuse_a_clearance_no_candidate_keeps(draw, clearance):
    """Around 3_1, no point of the box inflated by 3 is 10 from the circuit,
    and 1,000 rounds from seed 0 draw no rectangle 6 from it, although both
    clearances are below the box's diagonal: such a draw refuses the
    clearance after ``_BARREN_ROUNDS`` rounds in a row that keep nothing,
    under an alarm that fails a hang."""
    with alarm(30), pytest.raises(ValueError, match=(
            f"no candidate in {verification._BARREN_ROUNDS} rounds is at least {clearance} ")):
        draw(np.random.default_rng(0), canonical_trefoil(), clearance)


def test_verify_measures_each_clearance_once():
    """``holonomy-vs-linking`` draws its loops in rounds of exactly as many
    candidates as are still missing and measures each candidate once, in one
    ``_measure`` pass per round; its batched holonomy and linking calls read
    the kept entries and measure nothing.  ``holonomy`` then
    ``linking_number`` on a loop of their own measure it once between them,
    an equal but distinct loop reads its entry, and a different loop is
    measured."""
    knot, rounds = canonical_trefoil(), []

    def measured(knot, loops):
        out = _measure(knot, loops)
        rounds.append((loops, sum(clear >= 0.5 for clear, *_ in out)))
        return out

    with mock.patch("knotfield.topology._measure", measured), \
            mock.patch("knotfield.topology._orient", wraps=_orient) as orient, \
            mock.patch("knotfield.verification.Loop", wraps=Loop) as drawn:
        name, passed, *_ = suite_holonomy_linking(knot, 0, 20)
        assert passed and orient.call_count == len(rounds)
        missing = 20
        for loops, kept in rounds:
            assert len(loops) == missing
            missing -= kept
        candidates = [id(loop) for loops, _ in rounds for loop in loops]
        assert missing == 0 and len(rounds) > 1
        assert len(set(candidates)) == len(candidates) == drawn.call_count > 20
        rounds.clear()
        loop = paper_loop()
        holonomy(knot, loop)
        linking_number(knot, loop)
        assert len(rounds) == 1
        linking_number(knot, paper_loop())
        assert len(rounds) == 1
        loop_clearance(knot, loop.reversed())
        assert len(rounds) == 2


PUBLIC = {"loop_clearance": loop_clearance, "holonomy": holonomy, "linking_number": linking_number}


def error_data(exc):
    """An error's type, message, edge, stick and distance (as hex), None where it has none."""
    distance = getattr(exc, "distance", None)
    return (type(exc).__name__, str(exc), getattr(exc, "loop_edge", None),
            getattr(exc, "segment_index", None), None if distance is None else distance.hex())


def public_outcome(name, knot, loop):
    """A public call's answer, each float as its hex, or its ``error_data``."""
    try:
        got = PUBLIC[name](knot, loop)
    except FieldError as exc:
        return error_data(exc)
    if name == "loop_clearance":
        return got[0].hex(), got[1]
    if name == "holonomy":
        return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(got))
    return got


def traceback_depth(exc):
    depth, tb = 0, exc.__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    return depth


@pytest.mark.parametrize("loop", [THROUGH, HUGE], ids=lambda loop: loop.name)
def test_memo_errors_keep_their_data(loop):
    """A refused loop and an unrepresentable one, through each order of the
    three public calls, three times on one knot per order: each call raises
    an error of one type, with one message, edge, stick and distance,
    whatever came before it, as a new object whose traceback does not grow
    from raise to raise.  The refused loop's clearance is the edge, stick
    and distance its errors carry."""
    outcomes, depths, errors = {}, {}, []
    for order in itertools.permutations(PUBLIC):
        knot = canonical_trefoil()
        for _ in range(3):
            for name in order:
                try:
                    clear, where = PUBLIC[name](knot, loop)
                    outcomes.setdefault(name, set()).add((clear.hex(), where))
                except FieldError as exc:
                    errors.append(exc)
                    outcomes.setdefault(name, set()).add(error_data(exc))
                    depths.setdefault(name, set()).add(traceback_depth(exc))
    assert all(len(got) == 1 for got in outcomes.values())
    assert all(len(got) == 1 for got in depths.values())
    assert len(set(map(id, errors))) == len(errors)
    (hol,), (lk,) = outcomes["holonomy"], outcomes["linking_number"]
    assert hol == lk
    (clear,), (kind, _, edge, stick, distance) = outcomes["loop_clearance"], hol
    if loop is THROUGH:
        assert kind == "LoopOnConductorError" and clear == (distance, (edge, stick))
        assert len(errors) == 6 * 3 * 2
    else:
        assert clear == hol and kind == "LinkingPrecisionError" and len(errors) == 6 * 3 * 3


def test_one_orient_pass_per_loop():
    """On a fresh knot and loop, ``loop_clearance``, ``holonomy`` and
    ``linking_number`` make one ``_orient`` call between them, in the loop's
    one ``_measure`` pass, and the signs its entry keeps are read-only."""
    knot, loop = canonical_trefoil(), paper_loop()
    with mock.patch("knotfield.topology._orient", wraps=_orient) as orient:
        loop_clearance(knot, loop)
        holonomy(knot, loop)
        linking_number(knot, loop)
    assert orient.call_count == 1
    ((_, _, sign, _),) = _clearances(knot, [loop])
    with pytest.raises(ValueError, match="read-only"):
        sign[0, 0] = 1.0


def test_store_keeps_one_knot_per_loop():
    """A loop keeps the entry of the last knot it was measured against, and
    the store keeps neither alive: the three calls on one knot measure the
    loop once, another knot measures it again and takes the knot's place,
    the knots are freed while the loop lives, and once the loop is freed no
    entry is left."""
    knot, other, loop = canonical_trefoil(), canonical_trefoil(), Loop(paper_loop().vertices, "s")
    with mock.patch("knotfield.topology._measure", wraps=_measure) as engine:
        for each in (knot, knot, other, other, knot):
            for call in PUBLIC.values():
                call(each, loop)
    assert engine.call_count == 3
    refs = [weakref.ref(kept) for kept in (knot, other, loop)]
    del knot, other, each, engine           # the mock keeps its calls' arguments
    gc.collect()
    assert [ref() for ref in refs] == [None, None, loop] and loop in topology._kept
    del loop
    gc.collect()
    assert refs[2]() is None and Loop(paper_loop().vertices, "s") not in topology._kept


@pytest.mark.parametrize("loop", [paper_loop(), THROUGH, HUGE], ids=lambda loop: loop.name)
def test_knot_and_loop_pickle_after_every_call(loop):
    """After the three public calls and both batches, a knot and a loop
    pickle, and the copies are equal and answer as the originals."""
    knot = canonical_trefoil()
    want = [public_outcome(name, knot, loop) for name in PUBLIC]
    for batch in (_holonomy_results, _linking_results):
        with pytest.raises(FieldError) if loop.name != "paper" else nullcontext():
            batch(knot, [loop, paper_loop()])
    copies = pickle.loads(pickle.dumps((knot, loop)))
    assert copies == (knot, loop)
    # Only the fields travel, so each copy rebuilds its caches, read-only.
    assert {"_lattice", "_ends", "sticks"} <= vars(knot).keys() and "_ends" in vars(loop)
    assert vars(copies[0]).keys() == {"vertices", "name", "k"}
    assert vars(copies[1]).keys() == {"vertices", "name"}
    assert [public_outcome(name, *copies) for name in PUBLIC] == want
    cached = (*stick_ends(copies[0]), copies[0]._lattice[0], copies[1]._ends)
    assert not any(a.flags.writeable for a in cached)


def test_invalid_knot_raises_on_every_call():
    """A knot with an edge that is not a stick raises ValueError from each
    public call, every time, and keeps nothing of the loop."""
    knot, loop = LatticeKnot(vertices=((0, 0, 0), (1, 1, 0), (0, 1, 0))), paper_loop()
    for _ in range(2):
        for call in PUBLIC.values():
            with pytest.raises(ValueError, match="is not a nonzero axis-aligned stick"):
                call(knot, loop)
    kept = weakref.ref(loop)
    del loop
    gc.collect()
    assert kept() is None


@pytest.mark.parametrize("vertices", [
    ((0, 0, 0), (2.0, 0, 0), (2, 2, 0), (0, 2, 0)),
    ((0, 0, 0), (2, 0, 0), (2, 2, False), (0, 2, 0)),
    ((0, 0, 0), (2, 0, 0), (2, np.int64(2), 0), (0, 2, 0)),
    ((2**63, 0, 0), (2**63 + 2, 0, 0), (2**63 + 2, 2, 0), (2**63, 2, 0)),
], ids=["float", "bool", "np.int64", "2**63"])
def test_engine_refuses_a_vertex_that_validate_refuses(vertices):
    """``stick_ends``, ``total_field`` and ``loop_clearance`` raise
    ``validate``'s first vertex violation on every call: no field comes from
    coordinates that are not three ints in the int64 range."""
    knot = LatticeKnot(vertices)
    first = validate(knot).violations[0]
    assert first.startswith("vertex ")
    calls = (lambda: stick_ends(knot), lambda: total_field(knot, (1.0, 1.0, 1.0)),
             lambda: loop_clearance(knot, paper_loop()))
    for _ in range(2):
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(first)}$"):
                call()


def test_verify_draws_and_integrates_each_loop_once():
    """``verify`` draws its loops only in ``holonomy-vs-linking``, in one
    ``_rect_loops`` call that makes one ``_measure`` pass per round, and
    makes two batched holonomy calls: every loop at base scale, reading the
    entries its draws kept, then the first half on the knot refined by 3,
    each edge split in two, whose clearances the call measures in one pass.
    No other call measures a clearance."""
    knot, calls = canonical_trefoil(), mock.Mock()
    with mock.patch("knotfield.verification._rect_loops", wraps=verification._rect_loops) as draws, \
            mock.patch("knotfield.verification._holonomy_results",
                       wraps=_holonomy_results) as batches, \
            mock.patch("knotfield.verification._linking_results", wraps=_linking_results) as links, \
            mock.patch("knotfield.topology._measure", wraps=_measure) as engine:
        for name, each in (("draws", draws), ("holonomy", batches), ("linking", links),
                           ("measure", engine)):
            calls.attach_mock(each, name)
        results = run_verification(knot, seed=0, loops=20, points=4, kernel_pairs=2)
    assert all(r.passed for r in results)
    assert draws.call_count == 1 and draws.call_args[0][2] == 20
    order = [call[0] for call in calls.mock_calls]
    rounds = order.index("holonomy") - 1
    assert rounds > 1 and order == ["draws"] + ["measure"] * rounds + [
        "holonomy", "linking", "holonomy", "measure"]
    (base, base_kw), (refined, refined_kw) = batches.call_args_list
    assert base[0].vertices == knot.vertices and len(base[1]) == 20
    assert refined[0].vertices == refine(knot, 3).vertices
    assert [len(loop.vertices) for loop in refined[1]] == [8] * 10
    assert all(call[0][0] is base[0] for call in engine.call_args_list[:-1])
    assert engine.call_args[0] == (refined[0], refined[1])


class TestVerifyFlatConnection:
    """holonomy = 4*pi*k*Lk, with Lk from the independent Gauss sum."""

    @staticmethod
    def flat_check(knot, loop, tol=1e-5):
        res = holonomy(knot, loop, tol=1e-6)
        lk = linking_number(knot, loop)
        expected = FOUR_PI * knot.k * lk
        assert abs(res.value - expected) < tol * max(1.0, abs(res.value))
        return lk, expected

    def test_trefoil_report(self):
        knot = canonical_trefoil()
        far = Loop(vertices=((0, 0, 100), (4, 0, 100), (4, 4, 100), (0, 4, 100)),
                   name="far")
        lk, expected = self.flat_check(knot, paper_loop())
        assert lk == -1
        assert abs(expected + FOUR_PI) < 1e-12
        assert self.flat_check(knot, far)[0] == 0

    def test_figure_eight_passes(self):
        loop = Loop(vertices=((3, 5, 2), (5, 5, 2), (5, 7, 2), (3, 7, 2)), name="l46")
        assert abs(self.flat_check(canonical_figure_eight(), loop)[0]) == 1


@pytest.mark.parametrize("knot, seed", [(canonical_trefoil(), 148), (canonical_trefoil(), 331),
                                        (canonical_figure_eight(), 285),
                                        (canonical_figure_eight(), 404),
                                        (canonical_figure_eight(), 504)],
                         ids=["3_1-148", "3_1-331", "4_1-285", "4_1-404", "4_1-504"])
def test_verify_loops_end_within_tol(knot, seed):
    """Every loop of ``verify``'s holonomy suite at these seeds ends within its
    tol of 1e-6 from 4*pi*Lk, under its estimated error.  A Gauss panel
    accepted when its halves agreed with it left one loop of each 4.75e-5
    (3_1 seed 148 loop 13) down to 1.11e-6 off, over its estimate."""
    _, _, _, loops, values = suite_holonomy_linking(knot, seed)
    for loop, value in zip(loops, values):
        error = abs(value - FOUR_PI * linking_number(knot, loop))
        assert error <= 1e-6 and error <= holonomy(knot, loop).estimated_error


@st.composite
def braid_closures(draw):
    """Closures of random 2-3 strand braid words of at most 8 letters that are knots."""
    strands = draw(st.integers(2, 3))
    letters = draw(st.lists(st.tuples(st.integers(1, strands - 1), st.sampled_from((-1, 1))),
                            min_size=1, max_size=8))
    word = BraidWord(strands, tuple(letters))
    assume(len(permutation_cycles(word)) == 1)
    return close_braid_on_lattice(word)


@st.composite
def tight_squares(draw):
    """(knot, square, Lk): a square of half-width 10^[-5, -1] around the
    midpoint of a random stick, perpendicular to it, so Lk = +-1."""
    knot = draw(st.sampled_from((canonical_trefoil(), canonical_figure_eight())))
    stick = draw(st.sampled_from(segments(knot)))
    loop = square_around(stick, 10.0 ** draw(st.floats(-5.0, -1.0)))
    if draw(st.booleans()):
        return knot, loop.reversed(), -stick.direction_sign
    return knot, loop, stick.direction_sign


class TestLinkingProperties:
    @settings(max_examples=30, deadline=None)
    @given(knot=braid_closures(), seed=st.integers(0, 2**32 - 1))
    def test_braid_closure_holonomy_matches_linking(self, knot, seed):
        loop = random_rect_loop(np.random.default_rng(seed), knot)
        lk = linking_number(knot, loop)
        assert holonomy(knot, loop).inferred_linking == lk
        assert linking_number(knot, loop.reversed()) == -lk

    @settings(max_examples=100, deadline=None)
    @given(case=tight_squares())
    def test_tight_square_links_once(self, case):
        knot, loop, expected = case
        assert linking_number(knot, loop) == expected


@settings(max_examples=30, deadline=None)
@given(knot=st.one_of(st.sampled_from((canonical_trefoil(), canonical_figure_eight())),
                      braid_closures()),
       seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12), clearance=st.floats(0.0, 1.0))
def test_rect_loops_draw_as_one_at_a_time(knot, seed, n, clearance):
    """Rounds of as many candidates as are missing give the loops and final
    generator state of n ``random_rect_loop`` calls, and keep each loop's
    entry: ``_clearances`` then measures nothing and reads the entries a
    fresh knot measures."""
    rng = np.random.default_rng(seed)
    loops = verification._rect_loops(rng, knot, n, clearance)
    after = rng.bit_generator.state
    with mock.patch("knotfield.topology._measure", wraps=_measure) as engine:
        kept = _clearances(knot, loops)
    assert engine.call_count == 0
    rng = np.random.default_rng(seed)
    want = [random_rect_loop(rng, knot, clearance) for _ in range(n)]
    fresh = dataclasses.replace(knot)
    assert loops == want and [entry[:2] for entry in kept] == \
        [loop_clearance(fresh, loop) for loop in want]
    assert [(sign.tobytes(), meets) for _, _, sign, meets in kept] == \
        [(sign.tobytes(), meets) for _, _, sign, meets in _clearances(fresh, want)]
    assert after == rng.bit_generator.state


class TestLoopFiles:
    def test_round_trip(self, tmp_path):
        loop = Loop(vertices=((0.5, 0.25, -1.75), (1.5, 0.25, -1.75), (1.5, 1.25, -1.75)),
                    name="frac")
        path = tmp_path / "loop.txt"
        path.write_text("# loop\n0.5 0.25 -1.75\n1.5 0.25 -1.75\n1.5 1.25 -1.75\n",
                        encoding="ascii")
        back = read_loop_file(path, name="frac")
        assert back == loop

    def test_parse_real_coordinates(self):
        loop = parse_loop_text("5 3 2\n7.5 3 2\n# c\n7.5 5 2\n")
        assert loop.vertices == ((5.0, 3.0, 2.0), (7.5, 3.0, 2.0), (7.5, 5.0, 2.0))
