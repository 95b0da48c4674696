"""``validate``, ``projection_crossings`` and ``loop_clearance`` against the
scan oracles.

The engine finds touching edges by sorting and searching; the oracles in
``scan_oracle.py`` compare every pair.  Both must give the same report, the
same crossings in the same order, or the same PlacementError message, on
braid closures, refined knots and corrupted polygons, viewed along each
axis.  The engine measures a loop's clearance in one (edge, stick) pass; the
oracle walks the loop one edge at a time.  Both must give the same value
bits and (edge, stick), or the same LinkingPrecisionError message.
"""

import struct

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from knotfield.braids import (
    BraidWord,
    PlacementError,
    close_braid_on_lattice,
    parse_braid,
    permutation_cycles,
    projection_crossings,
)
from knotfield.geometry import (
    Axis,
    LatticeKnot,
    canonical_figure_eight,
    canonical_trefoil,
    refine,
    segments,
    stick_ends,
    validate,
)
from knotfield.topology import LinkingPrecisionError, Loop, loop_clearance
from knotfield.verification import random_rect_loop
from scan_oracle import scan_loop_clearance, scan_projection_crossings, scan_validate
from test_topology import AXIS_LOOP, square_around

SETTINGS = settings(max_examples=50, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def crossings_outcome(find, knot, view_axis):
    try:
        return find(knot, view_axis)
    except PlacementError as exc:
        return f"PlacementError: {exc}"


def assert_agrees(knot):
    assert validate(knot) == scan_validate(knot)
    for view_axis in Axis:
        assert (crossings_outcome(projection_crossings, knot, view_axis)
                == crossings_outcome(scan_projection_crossings, knot, view_axis))


@st.composite
def braid_closures(draw, max_letters=10):
    """Closures of random words on 2-4 strands.  A closure is a knot only if
    the strand permutation is one n-cycle, whose parity is that of n - 1, so
    the letter count is drawn with that parity (even on 3 strands)."""
    n = draw(st.integers(2, 4))
    count = 2 * draw(st.integers(0, max_letters // 2)) + (n - 1) % 2
    letters = draw(st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))),
                            min_size=count, max_size=count))
    word = BraidWord(strands=n, letters=tuple(letters))
    assume(len(permutation_cycles(word)) == 1)
    return close_braid_on_lattice(word)


knots = st.one_of(braid_closures(), st.sampled_from((canonical_trefoil(), canonical_figure_eight())))


def _along(a, b, t):
    """The point a + (b - a) * t // |b - a|: t lattice steps from a towards b."""
    length = sum(abs(y - x) for x, y in zip(a, b))
    return tuple(x + (y - x) * t // length for x, y in zip(a, b))


@st.composite
def corrupted(draw):
    """A valid knot with one defect: a moved vertex, a copied vertex, a
    reversed stick, a doubled-back edge, or a stick split so that two edges
    are collinear."""
    v = list(draw(knots).vertices)
    n = len(v)
    i = draw(st.integers(0, n - 1))
    a, b = v[i], v[(i + 1) % n]
    length = sum(abs(y - x) for x, y in zip(a, b))
    kind = draw(st.sampled_from(("moved", "copied", "reversed", "doubled-back", "collinear")))
    if kind == "moved":
        axis, step = draw(st.integers(0, 2)), draw(st.sampled_from((-2, -1, 1, 2)))
        v[i] = tuple(c + step * (k == axis) for k, c in enumerate(a))
    elif kind == "copied":
        v[i] = v[draw(st.integers(0, n - 1))]
    elif kind == "reversed":
        v[i], v[(i + 1) % n] = b, a
    elif kind == "doubled-back":
        v.insert(i + 2, _along(b, a, draw(st.integers(1, length))))
    else:
        assume(length >= 2)
        v.insert(i + 1, _along(a, b, draw(st.integers(1, length - 1))))
    return LatticeKnot(vertices=tuple(v))


@SETTINGS
@given(braid_closures())
def test_braid_closures_agree(knot):
    assert validate(knot).ok
    assert_agrees(knot)


@SETTINGS
@given(knots, st.integers(1, 1000))
def test_refined_knots_agree(knot, factor):
    assert_agrees(refine(knot, factor))


@SETTINGS
@given(corrupted())
def test_corrupted_polygons_agree(knot):
    assert_agrees(knot)


# The inputs of the hand-written validate and crossing tests.
HAND_WRITTEN = [
    ((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)),
    ((0, 0, 0), (2, 0, 0), (2, 2, 0)),
    ((0, 0, 0), (3, 0, 0), (3, 2, 0), (1, 2, 0), (1, -1, 0), (0, -1, 0)),
    ((0, 0, 0), (4, 0, 0), (4, 2, 0), (2, 2, 0), (2, 0, 0), (6, 0, 0), (6, 4, 0), (0, 4, 0)),
    ((0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)),
    ((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0), (0, 0, 0), (2, 0, 0)),
    ((0, 0, 0), (0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)),
    ((0, 0, 0.5), (2, 0, 0), (2, 2, 0), (0, 2, 0)),
    ((0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)),
    ((0, 0, 0),),
    ((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 1)),
]


def test_hand_written_inputs_agree():
    for vertices in HAND_WRITTEN:
        assert validate(LatticeKnot(vertices=vertices)) == \
            scan_validate(LatticeKnot(vertices=vertices))
    for word in ("s1 s1 s1", "s1 s2^-1 s1 s2^-1", "s1^-1 s1^-1 s1^-1"):
        assert_agrees(close_braid_on_lattice(parse_braid(word)))
    for knot in (canonical_trefoil(), canonical_figure_eight()):
        for factor in (1, 2, 3, 5):
            assert_agrees(refine(knot, factor))


def clearance_outcome(route, knot, loop):
    try:
        value, where = route(knot, loop)
    except LinkingPrecisionError as exc:
        return f"LinkingPrecisionError: {exc}"
    return struct.pack("<d", value), where


@st.composite
def clearance_loops(draw):
    """A knot and a loop around it: a random rectangle, a square of
    half-width 10^[-5, -1] around a stick, a polygon with a vertex on a
    stick's axis extension or an edge along it, or a polygon with a
    coordinate of 1e200."""
    knot = draw(knots)
    kind = draw(st.sampled_from(["rect", "tight", "axis-vertex", "axis-edge", "huge"]))
    if kind == "rect":
        return knot, random_rect_loop(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), knot)
    if kind == "tight":
        stick = draw(st.sampled_from(segments(knot)))
        return knot, square_around(stick, 10.0 ** draw(st.floats(-5.0, -1.0)))
    starts, ends = stick_ends(knot)
    lo, hi = starts.min(axis=0) - 3.0, starts.max(axis=0) + 3.0
    unit = st.floats(0.0, 1.0)
    coord = st.tuples(unit, unit, unit).map(lambda u: tuple(lo + np.array(u) * (hi - lo)))
    rest = draw(st.lists(coord, min_size=2, max_size=4))
    j = draw(st.integers(0, len(starts) - 1))
    s, e = starts[j], ends[j]
    t = sorted(draw(st.lists(st.floats(1.0, 4.0), min_size=2, max_size=2, unique=True)))
    on_axis = [tuple(e + ti * (e - s)) for ti in t]
    if kind == "axis-vertex":
        vertices = on_axis[:1] + rest
    elif kind == "axis-edge":
        vertices = on_axis + rest
    else:
        vertices = [tuple(map(float, v)) for v in rest + on_axis[:1]]
        i, c = draw(st.integers(0, len(vertices) - 1)), draw(st.integers(0, 2))
        vertices[i] = tuple(draw(st.sampled_from([1e200, -1e200])) if k == c else x
                            for k, x in enumerate(vertices[i]))
    try:
        return knot, Loop(vertices=tuple(vertices))
    except ValueError:          # consecutive vertices coincide
        assume(False)


@SETTINGS
@given(clearance_loops())
def test_loop_clearance_agrees(case):
    knot, loop = case
    assert clearance_outcome(loop_clearance, knot, loop) == \
        clearance_outcome(scan_loop_clearance, knot, loop)


def test_hand_written_loops_agree():
    huge = Loop(vertices=((1e200, 2, 3), (-5, 2, 3), (-5, -5, 3), (1e200, -5, 3)))
    for knot, loop in ((canonical_trefoil(), AXIS_LOOP), (canonical_trefoil(), huge),
                       (canonical_trefoil(), Loop(vertices=((2, 2, -3),) + AXIS_LOOP.vertices))):
        assert clearance_outcome(loop_clearance, knot, loop) == \
            clearance_outcome(scan_loop_clearance, knot, loop)
