import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from knotfield.braids import BraidWord, close_braid_on_lattice, permutation_cycles
from knotfield.geometry import (
    LatticeKnot,
    canonical_figure_eight,
    canonical_trefoil,
    refine,
    segments,
)
from knotfield.topology import (
    LinkingPrecisionError,
    Loop,
    LoopOnConductorError,
    holonomy,
    linking_number,
    loop_clearance,
    parse_loop_text,
    read_loop_file,
)
from knotfield.verification import random_rect_loop

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
        h2 = holonomy(big, paper_loop().scaled(2), tol=1e-8).value
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
            holonomy(canonical_trefoil(), paper_loop(), tol=1e-14, max_levels=1)

    @pytest.mark.parametrize("k", [1e308, -1e308, 2e307])
    def test_overflowing_k_refused(self, k):
        # 4*pi*k overflows; the parent's rounding of value / inf hit NaN.
        with pytest.raises(ValueError,
                           match=re.escape(f"k = {k!r} is too large: the result overflows")):
            holonomy(canonical_trefoil(k=k), paper_loop())


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

    def test_overflowing_sum_raises(self):
        huge = Loop(vertices=((1e200, 3, 3), (7, 3, 2), (7, 5, 2), (5, 5, 2)))
        with pytest.raises(LinkingPrecisionError):
            linking_number(canonical_trefoil(), huge)

    def test_loop_crossing_conductor_rejected(self):
        bad = Loop(vertices=((2, 2, 3), (7, 3, 2), (7, 5, 2), (5, 5, 2)))
        with pytest.raises(LoopOnConductorError):
            linking_number(canonical_trefoil(), bad)


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
