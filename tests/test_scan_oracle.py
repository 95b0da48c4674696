"""``validate``, ``projection_crossings``, ``loop_clearance``,
``segment_field_quadrature`` and ``holonomy`` against the scan oracles.

The engine finds touching edges by sorting and searching; the oracles in
``scan_oracle.py`` compare every pair.  Both must give the same report, the
same crossings in the same order, or the same PlacementError message, on
braid closures, refined knots and corrupted polygons, viewed along each
axis.  The engine measures a loop's clearance in one (edge, stick) pass; the
oracle walks the loop one edge at a time.  Both must give the same value
bits and (edge, stick), or the same LinkingPrecisionError message.  The
engine's integrators step every (stick, point) row, or every (loop edge,
stick) pair, at once, a depth at a time; the oracles scan one panel at a
time, a level at a time.  Both must give
the same bits in every field, or the same QuadratureError message.  The
batched holonomy entry refines many loops' edges together and must give
each loop the bits of ``holonomy`` on it alone, or the first error that
``holonomy`` raises on the loops in order, with the same message.
``verify`` draws its points in blocks, evaluates each suite's points in one
kernel call, draws the kernel suite's pairs with ``Generator`` array calls
and its points in rounds, and integrates each holonomy suite's loops in one
batch; the oracles draw and evaluate one point, pair or loop at a time with
``Generator`` calls.  Both must give the same points, generator state and
details.  The kernel suite's sticks must be valid and keep the
distribution of rejecting an out-of-box end.  The tile and paired
drivers must carry the bits of ``scan_stick_field``, the tiles as they
were before the drivers shared one per-axis term, signed zeros and NaN
included, on a one-point tile too.  On rectangles, holonomy's inferred
linking and the Gauss sum must each equal the exact piercing count or
refuse with a typed error; on degenerate rectangles, with a stick in their
plane or on their boundary, both refuse one that meets the knot, and each
answer equals the count of the rectangle moved off the degeneracy.  So do
planar quadrilaterals whose skew edge passes within rounding of a stick,
against the exact count of any planar polygon.  Degenerate (edge, stick)
pairs get an exact sign of 0 and their exact contact, and axis-aligned
loops never reach the predicate's exact fallback.  The
quadrature routes must keep the scan oracle's bits at offsets whose
squares overflow, are subnormal or are 0.  Batches that
mix axis-aligned rectangles with skew triangles and hexagons must give
each loop the holonomy and linking bits of the loop alone and of the
scans.  The transcription ledger reads each printed term against
its stick's derived term; the oracle builds the stick's expected bracket
atoms from a parity table.  On printed tables with injected faults both must
give the same entries.  The writers format each block of rows with one
``%`` and spell each distinct coordinate once; the oracles format a row at a
time.  Both must write the same bytes.
"""

import contextlib
import dataclasses
import io
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from knotfield import sampling, verification
from knotfield.biot_savart import (
    DEFAULT_EXCLUSION_RADIUS,
    FieldError,
    OnConductorError,
    QuadratureError,
    _TILE_PAIRS,
    _XK,
    _bisect,
    _pair_terms,
    _paired_field,
    _quadrature,
    _stick_field,
    segment_field,
    segment_field_quadrature,
)

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
    PackedSticks,
    bounding_box,
    canonical_figure_eight,
    Segment,
    canonical_trefoil,
    refine,
    segments,
    stick_ends,
    validate,
)
from knotfield.sampling import _BLOCK_ROWS, FieldSample, GridSpec, write_csv, write_jsonl, write_vtk
from knotfield.topology import (
    LinkingPrecisionError,
    LoopOnConductorError,
    Loop,
    _clearances,
    _exact,
    _holonomy_results,
    _linking_results,
    _measure,
    _orient,
    _refusal,
    holonomy,
    linking_number,
    loop_clearance,
)
from knotfield.transcription import TERM_TABLES, discrepancy_ledger
from knotfield.verification import (
    random_clear_point,
    random_clear_points,
    random_rect_loop,
    suite_flatness,
    suite_holonomy_linking,
    suite_refined_holonomy,
    suite_scaling,
    suite_segment_kernel,
)
from scan_oracle import (
    bisect_levels,
    kronrod_gauss,
    piercing_count,
    scan_discrepancy_ledger,
    scan_holonomy,
    scan_linking_number,
    scan_loop_clearance,
    scan_projection_crossings,
    scan_random_clear_point,
    scan_segment_field_quadrature,
    scan_suite_flatness,
    scan_suite_holonomy_linking,
    scan_suite_refined_holonomy,
    scan_suite_scaling,
    scan_segment_pairs,
    scan_stick_field,
    scan_suite_segment_kernel,
    dumps_write_jsonl,
    random_axis_segment,
    scan_validate,
    scan_write_csv,
    scan_write_jsonl,
    scan_write_vtk,
)
from test_biot_savart import BRAID_40
from test_topology import AXIS_LOOP, PUBLIC, public_outcome, square_around

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
# The 412-stick closure of (s1 s2^-1)^20.
CLOSURE_412 = close_braid_on_lattice(parse_braid("s1 s2^-1 " * 20))
CLOSURE_BRAID_40 = close_braid_on_lattice(parse_braid(BRAID_40))
CLOSURE_1612 = close_braid_on_lattice(parse_braid("s1 s2^-1 " * 80))


def _along(a, b, t):
    """The point a + (b - a) * t // |b - a|: t lattice steps from a towards b."""
    length = sum(abs(y - x) for x, y in zip(a, b))
    return tuple(x + (y - x) * t // length for x, y in zip(a, b))


@st.composite
def corrupted(draw):
    """A valid knot with one to three defects, each a moved vertex, a copied
    vertex, a reversed stick, a doubled-back edge, a stick split so that two
    edges are collinear, a vertex that is not three ints (a float or bool
    coordinate, or only two coordinates), an ``np.int64`` coordinate, or a
    coordinate c shifted past the int64 range, to 2**63 + |c| or -2**63 - 1 - |c|."""
    v = list(draw(knots).vertices)
    for _ in range(draw(st.integers(1, 3))):
        n = len(v)
        i = draw(st.integers(0, n - 1))
        a, b = v[i], v[(i + 1) % n]
        lattice = len(a) == len(b) == 3 and all(type(c) is int for c in a + b)
        # An np.int64 minus an int beyond int64 overflows: the length is a lattice edge's.
        length = sum(abs(y - x) for x, y in zip(a, b)) if lattice else 0
        kind = draw(st.sampled_from(("moved", "copied", "reversed", "doubled-back", "collinear",
                                     "non-integer", "np.int64", "beyond-int64")))
        if kind == "moved":
            axis, step = draw(st.integers(0, 2)), draw(st.sampled_from((-2, -1, 1, 2)))
            v[i] = tuple(c + step * (k == axis) for k, c in enumerate(a))
        elif kind == "copied":
            v[i] = v[draw(st.integers(0, n - 1))]
        elif kind == "reversed":
            v[i], v[(i + 1) % n] = b, a
        elif kind == "doubled-back" and lattice and length >= 1:
            v.insert(i + 2, _along(b, a, draw(st.integers(1, length))))
        elif kind == "collinear" and lattice and length >= 2:
            v.insert(i + 1, _along(a, b, draw(st.integers(1, length - 1))))
        elif kind == "non-integer":
            k = draw(st.integers(0, len(a) - 1))
            bad = draw(st.sampled_from((float(a[k]), a[k] + 0.5, bool(a[k] % 2), None)))
            v[i] = a[:k] + a[k + 1:] if bad is None else a[:k] + (bad,) + a[k + 1:]
        elif kind == "np.int64" and lattice and max(map(abs, a)) < 2**63:
            k = draw(st.integers(0, 2))
            v[i] = a[:k] + (np.int64(a[k]),) + a[k + 1:]
        elif kind == "beyond-int64" and lattice:
            k = draw(st.integers(0, 2))
            bad = draw(st.sampled_from((2**63 + abs(a[k]), -2**63 - 1 - abs(a[k]))))
            v[i] = a[:k] + (bad,) + a[k + 1:]
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
    report = validate(knot)
    assert report == scan_validate(knot)
    # projection_crossings raises ValueError on a float, bool, np.int64 or
    # two-coordinate vertex, or on a coordinate outside the int64 range.
    if any("non-integer" in v or "int64 range" in v for v in report.violations):
        for view_axis in Axis:
            with pytest.raises(ValueError):
                projection_crossings(knot, view_axis)
    else:
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
    ((0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 2, 0), (-1, 2, 0), (-1, 0, 0)),
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
def clearance_loops(draw, knot_draws=knots):
    """A knot from ``knot_draws`` and a loop around it: a random rectangle, a
    square of half-width 10^[-5, -1] around a stick, a polygon with a vertex
    on a stick's axis extension or an edge along it, or a polygon with a
    coordinate of 1e200."""
    knot = draw(knot_draws)
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


@SETTINGS
@given(st.data())
def test_clearance_stacks_agree(data):
    """One ``_measure`` pass over a stack of loops around a fresh copy of one
    knot, tight, on a stick's axis or not representable among them, gives
    each loop the outcome of the edge-by-edge scan, an entry not finite
    refused by ``_refusal``'s LinkingPrecisionError."""
    knot = data.draw(knots)
    loops = data.draw(st.lists(clearance_loops(st.just(knot)).map(lambda case: case[1]),
                               max_size=6))
    with mock.patch("knotfield.topology._measure", wraps=_measure) as engine:
        entries = _clearances(dataclasses.replace(knot), loops)
    assert engine.call_count == (len(loops) > 0)
    assert [f"LinkingPrecisionError: {error}" if (error := _refusal(entry))
            else (struct.pack("<d", entry[0]), entry[1]) for entry in entries] == \
        [clearance_outcome(scan_loop_clearance, knot, loop) for loop in loops]


# --- the integrators ---------------------------------------------------------

KS = st.sampled_from((1.0, -2.5, 1e-3))


def float_bits(value):
    return (type(value), struct.pack("<d", value) if isinstance(value, float) else value)


def quadrature_outcome(route, *args, **kwargs):
    try:
        b = route(*args, **kwargs)
    except QuadratureError as exc:
        return f"QuadratureError: {exc}"
    return b.shape, b.dtype.str, b.tobytes()


@st.composite
def stick_points(draw):
    """The kernel-vs-quadrature orientation domain: a stick along
    sign * e_axis, and a point at axial offset s along the flow from its
    start and distance r = 10^U(-12, 0.7) off its axis: broadside, beyond
    either end, or within 1e-3 of (or on) the axis extension."""
    axis, sign = draw(st.integers(0, 2)), draw(st.sampled_from([1, -1]))
    start, length = draw(st.tuples(*[st.integers(-6, 6)] * 3)), draw(st.integers(1, 8))
    region = draw(st.sampled_from(["broadside", "before", "after",
                                   "near-axis-before", "near-axis-after"]))
    u, angle = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 2 * math.pi))
    end = list(start)
    end[axis] += sign * length
    r = 10.0 ** draw(st.floats(-12.0, 0.7))
    if region == "broadside":
        s, r = u * length, 0.05 + r
    else:
        s = -0.05 - 5 * u if region.endswith("before") else length + 0.05 + 5 * u
        if region.startswith("near-axis"):
            r = 0.0 if draw(st.booleans()) else min(r, 1e-3)
    p = np.array(start, dtype=float)
    p[axis] += sign * s
    p[(axis + 1) % 3] += r * math.cos(angle)
    p[(axis + 2) % 3] += r * math.sin(angle)
    return Segment(start, tuple(end)), p


def verify_pairs(seed, n):
    """The (stick, point) pairs ``verify``'s kernel suite draws at a seed."""
    segs, pts, _ = scan_segment_pairs(seed, n)
    return list(zip(segs, pts))


@SETTINGS
@given(stick_points(), KS, st.sampled_from((1e-6, 1e-8, 1e-10)), st.sampled_from((1, 40)))
def test_quadrature_agrees_in_every_orientation(case, k, tol, max_depth):
    seg, p = case
    assert quadrature_outcome(segment_field_quadrature, seg, p, k=k, tol=tol,
                              max_depth=max_depth) == \
        quadrature_outcome(scan_segment_field_quadrature, seg, p, k=k, tol=tol,
                           max_depth=max_depth)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), KS)
def test_batched_quadrature_agrees_on_verify_pairs(seed, k):
    pairs = verify_pairs(seed, 200)
    batched = _quadrature([s.start for s, _ in pairs], [s.end for s, _ in pairs],
                          np.array([p for _, p in pairs]), k, 1e-10, 40)
    want = np.array([scan_segment_field_quadrature(s, p, k=k, tol=1e-10) for s, p in pairs])
    assert batched.tobytes() == want.tobytes()


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), KS,
       st.sampled_from(((1e-6, 40), (1e-10, 40), (1e-14, 3))), st.data())
def test_quadrature_rows_are_independent(seed, n, k, tol_depth, data):
    """N rows at once give the N one-row answers, or the first one-row
    failure, whether they run in one block or in blocks of 3; rows on a
    stick's axis line are among them."""
    tol, max_depth = tol_depth
    pairs = verify_pairs(seed, n)
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        seg, _ = pairs[i]
        pairs[i] = seg, np.array(seg.end) + 0.5 * (np.array(seg.end) - np.array(seg.start))
    starts, ends = [[s.start] for s, _ in pairs], [[s.end] for s, _ in pairs]
    alone = [quadrature_outcome(_quadrature, a, b, p.reshape(1, 3), k, tol, max_depth)
             for a, b, (_, p) in zip(starts, ends, pairs)]
    failed = [o for o in alone if isinstance(o, str)]
    with mock.patch("knotfield.biot_savart._QUAD_ROWS", data.draw(st.sampled_from((3, 4096)))):
        together = quadrature_outcome(_quadrature, np.vstack(starts), np.vstack(ends),
                                      np.array([p for _, p in pairs]), k, tol, max_depth)
    if failed:
        assert together == failed[0]
    else:
        assert together[2] == b"".join(o[2] for o in alone)


def field_outcome(route, *args, **kwargs):
    """``quadrature_outcome`` with an on-conductor refusal as its message,
    numpy's floating-point warnings off: an offset whose square overflows
    warns in every route."""
    try:
        with np.errstate(all="ignore"):
            return quadrature_outcome(route, *args, **kwargs)
    except OnConductorError as exc:
        return f"OnConductorError: {exc}"


# Transverse offsets, each drawn as +-10^U(lo, hi) or exactly 0: squares
# that overflow, squares that are subnormal or zero, and ordinary ones.
OFFSETS = {"overflow": (155.0, 300.0), "subnormal": (-320.0, -160.0), "zero": None,
           "ordinary": (-3.0, 1.0)}


@st.composite
def offset_stick_points(draw, axis=None, sign=None, kind=None):
    """A stick along sign * e_axis and a point beside it or beyond either
    end, whose offsets on the two other axes are of ``kind`` and of any kind
    of ``OFFSETS``, in either order: the squares the oracle adds to its one
    moving coordinate's."""
    axis = draw(st.integers(0, 2)) if axis is None else axis
    sign = draw(st.sampled_from([1, -1])) if sign is None else sign
    kinds = [draw(st.sampled_from(sorted(OFFSETS))) if kind is None else kind,
             draw(st.sampled_from(sorted(OFFSETS)))]
    start, length = draw(st.tuples(*[st.integers(-6, 6)] * 3)), draw(st.integers(1, 8))
    end = list(start)
    end[axis] += sign * length
    p = np.array(start, dtype=float)
    p[axis] += sign * draw(st.one_of(st.floats(-6.0, length + 6.0), st.sampled_from((0, length))))
    for ax, each in zip(draw(st.permutations([(axis + 1) % 3, (axis + 2) % 3])), kinds):
        if OFFSETS[each] is not None:
            p[ax] += draw(st.sampled_from([1, -1])) * 10.0 ** draw(st.floats(*OFFSETS[each]))
    return Segment(start, tuple(end)), p


@SETTINGS
@pytest.mark.parametrize("kind", ["overflow", "subnormal", "zero"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("axis", [0, 1, 2])
@given(data=st.data(), k=KS, tol=st.sampled_from((1e-6, 1e-10)), max_depth=st.sampled_from((1, 40)))
def test_quadrature_agrees_at_extreme_offsets(axis, sign, kind, data, k, tol, max_depth):
    """Along every axis and direction, with an offset whose square overflows,
    is subnormal or is 0 (the point on the stick's axis line),
    ``segment_field_quadrature`` and one batched ``_quadrature`` call of
    these rows and up to three of any kind give the scan oracle's bits, or
    its error: the oracle's constant squared offsets are the terms its
    three-wide sum adds in x, y, z order."""
    cases = [data.draw(offset_stick_points(axis, sign, kind))]
    cases += data.draw(st.lists(offset_stick_points(), max_size=3))
    want = [field_outcome(scan_segment_field_quadrature, seg, p, k=k, tol=tol,
                          max_depth=max_depth) for seg, p in cases]
    assert [field_outcome(segment_field_quadrature, seg, p, k=k, tol=tol, max_depth=max_depth)
            for seg, p in cases] == want
    rows = [(case, w) for case, w in zip(cases, want)
            if not (isinstance(w, str) and w.startswith("OnConductorError"))]
    assume(rows)
    (segs, points), outcomes = zip(*(case for case, _ in rows)), [w for _, w in rows]
    got = field_outcome(_quadrature, [s.start for s in segs], [s.end for s in segs],
                        np.array(points), k, tol, max_depth)
    failed = [o for o in outcomes if isinstance(o, str)]
    assert got == (failed[0] if failed else ((len(rows), 3), "<f8",
                                              b"".join(o[2] for o in outcomes)))


@SETTINGS
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from((0.0, 0.0, 0.0, 1e-6, 1e-3, 0.3)),
                          st.floats(-9.0, -3.0), st.booleans(), st.booleans()),
                min_size=1, max_size=4),
       st.sampled_from((2, 12, 40)))
def test_bisect_agrees_with_a_level_scan(rows, max_depth):
    """``_bisect`` on rows of a peaked integrand, each NaN on a window of
    width 0, 1e-6, 1e-3 or 0.3, some first split at the peak and some
    drawing on the pool of the row before, gives each row's value bits and
    each pool's error bits, panels and deepest halving, or the first
    failure, of ``bisect_levels`` on the pools in order: a panel whose
    estimate is NaN fails at its own depth, the first of its pool."""
    peak, width, log_tol, split, joined = (np.array(x) for x in zip(*rows))
    group = np.cumsum(~joined | (np.arange(len(rows)) == 0)) - 1
    tol = np.array([10.0 ** log_tol[group == g][0] for g in range(group[-1] + 1)])
    panels = [[(row, 0.0, c), (row, c, 1.0)] if cut and 0.0 < c < 1.0 else [(row, 0.0, 1.0)]
              for row, (c, cut) in enumerate(zip(peak, split))]

    def integrand(rows, t):
        c, w = (x[rows, None] for x in (peak, width))
        return np.where((t > c) & (t < c + w), np.nan, 1.0 / (1.0 + 400.0 * (t - c) ** 2))

    def panel(row, lo, hi):
        f = integrand(np.array([row]), (0.5 * (hi + lo) + 0.5 * (hi - lo) * _XK)[None])
        return kronrod_gauss(lo, hi, f[0])

    want, sums = [], []
    for g, each in enumerate(tol.tolist()):
        try:
            pool = [p for row in np.flatnonzero(group == g) for p in panels[row]]
            got = bisect_levels(panel, pool, each, max_depth, lambda *where: QuadratureError(*where))
        except QuadratureError as exc:
            want = exc.args
            break
        sums += got[0]
        want.append((got[1].hex(), *got[2:]))
    first = [p for row in panels for p in row]
    total, pools, stats, failure = _bisect(integrand, *(np.array(x) for x in zip(*first)), group,
                                           tol, max_depth)
    if failure is None:
        assert total.tobytes() == np.array(sums).tobytes()
        assert want == [(e.hex(), *x) for e, x in zip(pools.tolist(), stats.tolist())]
    else:
        assert failure == want


def result_bits(res):
    return [(f.name, float_bits(getattr(res, f.name))) for f in dataclasses.fields(res)]


def holonomy_outcome(route, *args, **kwargs):
    """Every field's bits of the route's result, or of each result in its
    list, or the type and message of the error it raises."""
    try:
        res = route(*args, **kwargs)
    except (FieldError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return [result_bits(r) for r in res] if isinstance(res, list) else result_bits(res)


@SETTINGS
@given(st.one_of(st.sampled_from((canonical_trefoil(), canonical_figure_eight())),
                 braid_closures(max_letters=20)),
       st.sampled_from(["rect", "tight"]), st.data(), KS, st.sampled_from((1e-6, 1e-8)),
       st.sampled_from((1, 18)))
def test_holonomy_agrees(knot, kind, data, k, tol, max_levels):
    knot = dataclasses.replace(knot, k=k)
    if kind == "rect":
        loop = random_rect_loop(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                                knot)
    else:
        loop = square_around(data.draw(st.sampled_from(segments(knot))),
                             10.0 ** data.draw(st.floats(-5.0, -1.0)))
    assert holonomy_outcome(holonomy, knot, loop, tol=tol, max_levels=max_levels) == \
        holonomy_outcome(scan_holonomy, knot, loop, tol=tol, max_levels=max_levels)


def loop_at_a_time(knot, loops, tol, max_levels):
    """``holonomy_outcome`` of ``holonomy`` on each loop in turn: the error
    of the first loop refused on its clearance, else of the first that
    raises, else every loop's."""
    want = [holonomy_outcome(holonomy, knot, loop, tol=tol, max_levels=max_levels)
            for loop in loops]
    errors = [got for got in want if isinstance(got, str)]
    refused = [got for got in errors if not got.startswith("QuadratureError: ")]
    return (refused or errors or [want])[0]


@SETTINGS
@given(st.data(), KS, st.sampled_from((1e-6, 1e-8)), st.sampled_from((1, 18)))
def test_batched_holonomy_agrees(data, k, tol, max_levels):
    """The batched entry equals ``holonomy`` loop by loop, bit for bit, or
    raises the error ``holonomy`` raises on the first loop refused on its
    clearance, before any loop is integrated, else on the first that raises."""
    knot, loop = data.draw(clearance_loops())
    more = data.draw(st.lists(clearance_loops(st.just(knot)), max_size=4))
    knot, loops = dataclasses.replace(knot, k=k), [loop] + [l for _, l in more]
    assert holonomy_outcome(_holonomy_results, knot, loops, tol, max_levels=max_levels) == \
        loop_at_a_time(knot, loops, tol, max_levels)


def test_batched_holonomy_raises_the_first_error():
    """One loop fails to converge and another touches the conductor: either
    order raises the refusal, from the check of every loop's clearance
    before any is integrated; two that fail to converge raise the first's
    error."""
    unreachable = Loop(vertices=((5, 3, 2), (7, 3, 2), (7, 5, 2), (5, 5, 2)))
    also = Loop(vertices=((5, 3, 2.5), (7, 3, 2.5), (7, 5, 2.5), (5, 5, 2.5)))
    touching = Loop(vertices=((2, 2, 3), (7, 3, 2), (7, 5, 2), (5, 5, 2)))
    knot = canonical_trefoil()
    for loops, error in (([unreachable, touching], "LoopOnConductorError"),
                         ([touching, unreachable], "LoopOnConductorError"),
                         ([also, unreachable], "QuadratureError")):
        got = holonomy_outcome(_holonomy_results, knot, loops, 1e-14, max_levels=0)
        assert got.startswith(error + ": ")
        assert got == loop_at_a_time(knot, loops, 1e-14, 0)
    assert loop_at_a_time(knot, [also, unreachable], 1e-14, 0) != \
        loop_at_a_time(knot, [unreachable, also], 1e-14, 0)


@st.composite
def mixed_batches(draw):
    """3_1, 4_1 or a braid closure, and 2 to 6 loops 0.05 or more from it:
    ``random_rect_loop``'s axis-aligned rectangles, and skew triangles and
    hexagons with vertices uniform in the knot's box inflated by 2, at
    least one of each kind, in the order drawn."""
    knot = draw(st.one_of(st.sampled_from((canonical_trefoil(), canonical_figure_eight())),
                          braid_closures()))
    kinds = draw(st.lists(st.sampled_from((3, 4, 6)), min_size=2, max_size=6))
    assume(4 in kinds and kinds != [4] * len(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = (np.asarray(c, dtype=float) for c in bounding_box(knot))
    loops = []
    for n in kinds:
        loop = None
        while loop is None or loop_clearance(knot, loop)[0] < 0.05:
            loop = random_rect_loop(rng, knot, clearance=0.05) if n == 4 else \
                Loop(vertices=tuple(map(tuple, rng.uniform(lo - 2.0, hi + 2.0, (n, 3)))))
        loops.append(loop)
    return knot, loops


@settings(SETTINGS, max_examples=25)
@given(mixed_batches(), KS)
def test_mixed_batches_agree(batch, k):
    """Aligned and skew edges take one pair-row term: in one batch, each
    loop's holonomy and linking total keep the bits of the loop taken alone
    and of the scans."""
    knot, loops = batch
    knot = dataclasses.replace(knot, k=k)
    assert holonomy_outcome(_holonomy_results, knot, loops) == \
        [holonomy_outcome(holonomy, knot, loop) for loop in loops] == \
        [holonomy_outcome(scan_holonomy, knot, loop) for loop in loops]
    totals = lambda pairs: [(lk, total.hex()) for lk, total in pairs]
    assert totals(_linking_results(knot, loops)) == \
        totals(_linking_results(knot, [loop])[0] for loop in loops) == \
        totals(scan_linking_number(knot, loop) for loop in loops)


def kernel_calls(call, *args):
    """``call(*args)`` with ``topology._pair_terms`` wrapped: its result and
    the (sticks, nodes) of every kernel call it made, in order, stick i
    alone at node row i, so a call makes ``nodes.size`` pair evaluations."""
    calls = []

    def paired(operands, clearance=True):
        for sticks, *nodes in operands:
            calls.append((sticks, nodes[0]))
            yield from _pair_terms([(sticks, *nodes)], clearance)

    with mock.patch("knotfield.topology._pair_terms", paired):
        result = call(*args)
    return result, calls


def test_holonomy_makes_one_call_per_level():
    """A lone loop's first call reads every (edge, stick) pair but those
    along the edge, each stick on the 21 Kronrod nodes of each of its row's
    one or two initial panels, and each later depth one call on the 42
    nodes of both halves of every panel split, so on at most twice as many
    panels as the depth before.  The result counts those pair evaluations
    and depths."""
    knot = canonical_trefoil()
    loop = random_rect_loop(np.random.default_rng(0), knot, clearance=0.5)
    res, calls = kernel_calls(holonomy, knot, loop)
    steps = np.diff(np.array(loop.vertices + loop.vertices[:1]), axis=0)
    along = knot.sticks.roles[0]
    pairs = [j for a in np.argmax(steps != 0, axis=1) for j in np.flatnonzero(along != a)]
    assert all(nodes.shape[1] == 21 for _, nodes in calls) and len(calls) == res.depth + 1 > 1
    # The first call's sticks, panel by panel: each row's stick once or twice in a row.
    first = calls[0][0].start[:, :, 0]
    again = np.r_[False, (first[:, 1:] == first[:, :-1]).all(axis=0)]
    assert first[:, ~again].tolist() == knot.sticks.start[:, pairs, 0].tolist()
    assert len(pairs) < len(first[0]) <= 2 * len(pairs)
    live = [len(nodes) for _, nodes in calls]
    assert all(n % 2 == 0 and 0 < n <= 2 * m for m, n in zip(live, live[1:]))
    assert res.pair_evaluations == sum(nodes.size for _, nodes in calls) == 1638


def test_holonomy_suite_calls_per_level():
    """The trefoil's 20 loops make 30,786 pair evaluations one loop at a
    time (88,704 (point, stick) pairs before pair rows), in 45 calls, one per
    loop and depth; the batched suite, each loop drawing on its own pool,
    makes the same evaluations over its 3 depths in 9 calls of at most
    ``_TILE_PAIRS`` / 8 pairs (6, 2 and 1), none on no nodes (14 axis-driver
    calls before pair rows)."""
    knot = canonical_trefoil()
    rng = np.random.default_rng(0)
    alone = [kernel_calls(holonomy, knot, random_rect_loop(rng, knot, clearance=0.5,
                                                           name=f"loop{i}")) for i in range(20)]
    assert sum(len(calls) for _, calls in alone) == 45
    assert sum(res.pair_evaluations for res, _ in alone) == 30786
    result, calls = kernel_calls(verification.suite_holonomy_linking, knot, 0, 20)
    assert result[1] and max(res.depth for res, _ in alone) == 2 and len(calls) == 9
    assert sum(nodes.size for _, nodes in calls) == 30786
    assert all(0 < nodes.size <= _TILE_PAIRS // 8 for _, nodes in calls)


@pytest.mark.parametrize("d, evaluations", [(1e-4, 2940), (1e-5, 3192), (1e-6, 3444)])
def test_holonomy_near_the_conductor(d, evaluations):
    """A 14-unit edge passing d from the midpoint of trefoil stick 1 is
    refined only in its row for that stick, from its peak outward: the
    answer is Lk from ``evaluations`` pair evaluations, where whole edges
    against every stick took 18,144, 21,168 and 24,192, and halving every
    panel took 2.6M points at 1e-4 and refused at 1e-5."""
    knot = canonical_trefoil()
    loop = Loop(vertices=((2 + d, -5, 3), (2 + d, 9, 3), (12, 9, 3), (12, -5, 3)))
    res, calls = kernel_calls(holonomy, knot, loop)
    assert res.inferred_linking == linking_number(knot, loop) == 2
    assert abs(res.residual) < 1e-6
    assert res.pair_evaluations == sum(nodes.size for _, nodes in calls) == evaluations


@pytest.mark.parametrize("knot, evaluations", [
    (canonical_trefoil(), [1638, 840, 1344, 1512, 1848, 1176]),
    (CLOSURE_412, [101472, 127302, 40824, 53046, 63630, 37884]),
    (CLOSURE_1612, [507864, 686574, 186270, 204624, 346080, 163422]),
], ids=["12", "412", "1612"])
def test_lone_loop_pair_evaluations(knot, evaluations):
    """The pair evaluations of six seed-0 ``random_rect_loop``s at 12, 412
    and 1,612 sticks, a count that no host's speed moves.  Whole edges
    against every stick took 4,032, 2,016, 3,528, 4,032, 6,048 and 4,032
    (point, stick) pairs at 12 sticks, 138,432 to 1,540,056 at 412 and
    609,336 to 21,732,984 at 1,612."""
    rng = np.random.default_rng(0)
    assert [holonomy(knot, random_rect_loop(rng, knot)).pair_evaluations
            for _ in evaluations] == evaluations


@st.composite
def near_edge_loops(draw):
    """(knot, loop): a rectangle in the plane through a drawn stick's
    midpoint, perpendicular to it, whose first edge passes 10^[-6, -1] from
    that midpoint and reaches 1 to 8 units past it each way, and whose far
    edge lies 1 to 8 units off on the same side."""
    knot = draw(knots)
    stick = draw(st.sampled_from(segments(knot)))
    u, v = draw(st.permutations([(int(stick.axis) + 1) % 3, (int(stick.axis) + 2) % 3]))
    side, d = draw(st.sampled_from((1, -1))), 10.0 ** draw(st.floats(-6.0, -1.0))
    near, far, lo, hi = d, *(draw(st.integers(1, 8)) for _ in range(3))
    mid = 0.5 * (np.array(stick.start, dtype=float) + np.array(stick.end, dtype=float))
    corners = []
    for du, dv in ((near, -lo), (near, hi), (far, hi), (far, -lo)):
        p = mid.copy()
        p[u] += side * du
        p[v] += dv
        corners.append(tuple(p))
    return knot, Loop(vertices=tuple(corners))


@SETTINGS
@given(near_edge_loops())
def test_holonomy_near_a_stick_equals_linking(case):
    knot, loop = case
    assume(loop_clearance(knot, loop)[0] >= DEFAULT_EXCLUSION_RADIUS)
    res, lk = holonomy(knot, loop), linking_number(knot, loop)
    assert res.inferred_linking == lk
    assert abs(res.value - 4.0 * math.pi * knot.k * lk) < 1e-6


def assert_routes_count(knot, loop):
    """``holonomy``'s inferred_linking and ``linking_number`` each equal the
    exact piercing count, or refuse with a typed error; a degenerate
    rectangle, a stick on its boundary or in its plane, is left out."""
    count = piercing_count(knot, loop)
    assume(count is not None)
    for route in (lambda: holonomy(knot, loop).inferred_linking, lambda: linking_number(knot, loop)):
        try:
            assert route() == count
        except FieldError:
            pass


@settings(SETTINGS, max_examples=20)
@given(st.sampled_from((CLOSURE_BRAID_40, CLOSURE_1612)), st.integers(0, 2**32 - 1))
def test_long_braid_holonomy_equals_the_piercing_count(knot, seed):
    """Around the 412-stick ``BRAID_40`` closure and a 1,612-stick closure,
    a rectangle's holonomy infers ``linking_number``'s Lk and the exact
    piercing count, its residual within tol.  Pair rows make this
    affordable: a loop at 1,612 sticks is about ten times as fast as whole
    edges against every stick."""
    for loop in verification._rect_loops(np.random.default_rng(seed), knot, 2):
        count = piercing_count(knot, loop)
        assume(count is not None)
        res = holonomy(knot, loop)
        assert res.inferred_linking == linking_number(knot, loop) == count
        assert abs(res.residual) < 1e-6


@SETTINGS
@given(st.sampled_from((canonical_trefoil(), canonical_figure_eight(), CLOSURE_412)),
       st.integers(0, 2**32 - 1))
def test_rect_loops_equal_the_piercing_count(knot, seed):
    for loop in verification._rect_loops(np.random.default_rng(seed), knot, 3):
        assert_routes_count(knot, loop)


@SETTINGS
@given(near_edge_loops())
def test_near_edge_loops_equal_the_piercing_count(case):
    assert_routes_count(*case)


@st.composite
def half_lattice_rects(draw):
    """(knot, loop): an axis-aligned rectangle in a plane at a half-integer
    coordinate across the knot's box, its sides at half-integers or at any
    float in the box inflated by 2, traversed either way."""
    knot = draw(st.one_of(knots, st.just(CLOSURE_412)))
    lo, hi = bounding_box(knot)
    n = draw(st.integers(0, 2))
    u, v = (n + 1) % 3, (n + 2) % 3
    corner = {n: [draw(st.integers(lo[n] - 1, hi[n])) + 0.5] * 4}
    for a, turn in ((u, (0, 1, 1, 0)), (v, (0, 0, 1, 1))):
        side = st.one_of(st.integers(lo[a] - 2, hi[a] + 1).map(lambda i: i + 0.5),
                         st.floats(lo[a] - 2.0, hi[a] + 2.0))
        ends = sorted(draw(st.lists(side, min_size=2, max_size=2, unique=True)))
        corner[a] = [ends[t] for t in turn]
    loop = Loop(vertices=tuple(zip(corner[0], corner[1], corner[2])))
    return knot, loop.reversed() if draw(st.booleans()) else loop


@SETTINGS
@given(half_lattice_rects())
def test_half_lattice_rects_equal_the_piercing_count(case):
    assert_routes_count(*case)


def touches(knot, loop):
    """Whether an edge of the axis-aligned loop meets a stick, exactly: each
    is its own box, so they meet where the boxes overlap on every axis."""
    starts, ends = stick_ends(knot)
    p0 = np.array(loop.vertices)[:, None]
    p1 = np.roll(p0, -1, axis=0)
    return bool(((np.minimum(p0, p1) <= np.maximum(starts, ends))
                 & (np.minimum(starts, ends) <= np.maximum(p0, p1))).all(axis=2).any())


# Floats at least 2^-28 from every lattice value.
OFF_LATTICE = 2.0 ** -28


@st.composite
def degenerate_rects(draw):
    """(knot, loop): an axis-aligned rectangle in the lattice plane through
    an end of one of the knot's sticks, around that stick and every stick
    lying in the plane, traversed either way.  Each side is at the edge of
    those sticks' extent, at a lattice value or at a float at least
    ``OFF_LATTICE`` from every lattice value beyond it, in the knot's box
    inflated by 2; in half the draws every side is such a float, and the
    loop clears the knot by at least that much."""
    knot = draw(st.one_of(knots, st.just(CLOSURE_412)))
    starts, ends = stick_ends(knot)
    j, n = draw(st.integers(0, len(starts) - 1)), draw(st.integers(0, 2))
    c = draw(st.sampled_from((starts[j, n], ends[j, n])))
    held = (starts[:, n] == c) & (ends[:, n] == c) | (np.arange(len(starts)) == j)
    near = np.minimum(starts[held], ends[held]).min(axis=0).tolist()
    far = np.maximum(starts[held], ends[held]).max(axis=0).tolist()
    lo, hi, clear = *bounding_box(knot), draw(st.booleans())
    corner = {n: [float(c)] * 4}
    for a, turn in (((n + 1) % 3, (0, 1, 1, 0)), ((n + 2) % 3, (0, 0, 1, 1))):
        sides = []
        for x, span in ((near[a], (lo[a] - 2, near[a])), (far[a], (far[a], hi[a] + 2))):
            off = st.floats(*map(float, span)).filter(lambda f: abs(f - round(f)) >= OFF_LATTICE)
            sides.append(draw(off if clear else st.one_of(st.just(x), st.integers(*span), off)))
        assume(sides[0] < sides[1])
        corner[a] = [sides[t] for t in turn]
    loop = Loop(vertices=tuple(zip(corner[0], corner[1], corner[2])))
    return knot, loop.reversed() if draw(st.booleans()) else loop


@SETTINGS
@given(degenerate_rects())
@example((canonical_trefoil(), Loop(((-0.3, -0.3, 4.0), (6.0, -0.3, 4.0), (6.0, 8.0, 4.0),
                                     (-0.3, 8.0, 4.0)))))    # meets stick 9; read 8.9e-16
def test_degenerate_rects_equal_the_shifted_piercing_count(case):
    """A rectangle with a stick in its plane or on its boundary has no
    piercing count.  When it meets the knot both routes refuse it with a
    typed error; else holonomy's inferred linking and the Gauss sum each
    equal the piercing count of the rectangle moved by 2^-28 / 4 along
    (1, 1, 1) and along -(1, 1, 1), which agree, or refuse with a typed
    error (holonomy within its exclusion radius).  Edges on a lattice line
    put holonomy's nodes on sticks' axis extensions."""
    knot, loop = case
    assert piercing_count(knot, loop) is None
    answers = []
    for route in (lambda: holonomy(knot, loop).inferred_linking, lambda: linking_number(knot, loop)):
        try:
            answers.append(route())
        except FieldError as exc:
            answers.append(type(exc))
    if touches(knot, loop):
        assert not any(isinstance(a, int) for a in answers), answers
        return
    counts = {piercing_count(knot, Loop(tuple(tuple(c + eps for c in v) for v in loop.vertices)))
              for eps in (OFF_LATTICE / 4, -OFF_LATTICE / 4)}
    assert len(counts) == 1 and None not in counts
    assert all(a in counts or not isinstance(a, int) for a in answers), (answers, counts)


# The skew edge of ROADMAP item 12's probe: 1.1e-16 from trefoil stick 1,
# which the rounded triple products counted once; the exact count is 0.
ROADMAP_A = (2.7231004774809464, 2.75537611584457, 0.038969985691726494)
ROADMAP_B = (1.2906493183033059, 1.2589874029977173, 1.804549047461962)


def raised(a, b):
    """The quadrilateral a -> b -> b + 30 e_z -> a + 30 e_z, planar in floats."""
    up = lambda p: (p[0], p[1], p[2] + 30.0)
    return Loop(vertices=(a, b, up(b), up(a)))


@st.composite
def skew_quads(draw, count=20):
    """(knot, loops): 3_1, 4_1, a braid closure or the 412-stick closure of
    ``BRAID_40``, and ``count`` loops ``raised(a, b)`` drawn from
    ``default_rng`` at a drawn seed, each traversed either way, where a -> b
    is a skew segment through a float point on a uniform stick: the point at
    a uniform fraction of the stick, a and b 0.5 to 4 from it along a
    uniform direction on the sphere."""
    knot = draw(st.one_of(knots, st.just(CLOSURE_BRAID_40)))
    rng, (starts, ends) = np.random.default_rng(draw(st.integers(0, 2**32 - 1))), stick_ends(knot)
    loops = []
    for _ in range(count):
        j = rng.integers(len(starts))
        x = starts[j] + rng.random() * (ends[j] - starts[j])
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        a, b = (tuple(x + t * w) for t in (-rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)))
        loop = raised(a, b)
        loops.append(loop.reversed() if rng.random() < 0.5 else loop)
    return knot, loops


@SETTINGS
@given(skew_quads())
@example((canonical_trefoil(), [raised(ROADMAP_A, ROADMAP_B)]))
def test_skew_quads_equal_the_piercing_count(case):
    """Holonomy's inferred linking and the Gauss sum each equal the exact
    piercing count of a planar quadrilateral whose edge passes within
    rounding of a stick, or refuse with a typed error; both refuse one that
    meets the knot.  The signs near contact come from ``_orient``'s exact
    fallback: rounded triple products give 85 wrong Gauss sums in 3,000
    such loops around 3_1."""
    knot, loops = case
    for loop in loops:
        if piercing_count(knot, loop) is not None:
            assert_routes_count(knot, loop)
        elif scan_loop_clearance(knot, loop)[0] == 0.0:
            for route in (lambda: holonomy(knot, loop), lambda: linking_number(knot, loop)):
                with pytest.raises(FieldError):
                    route()


@st.composite
def near_line_polygons(draw):
    """(knot, loop): 3_1, 4_1 or a braid closure, moved along the lattice so
    that a drawn stick lies on an axis line through the origin, and a
    triangle or quadrilateral whose first edge a -> b runs 2^-600 to 2^-20
    from that line: a and b off it by that much, of either sign, along each
    other axis, a before the stick's middle along its axis and b past it.
    A triangle's third vertex is uniform in the knot's box inflated by 2 and
    at least 0.5 off the line along another axis, so not on a -> b's line; a
    quadrilateral is b and a moved 0.5 to 8 along another axis, so planar."""
    knot = draw(knots)
    stick = draw(st.sampled_from(segments(knot)))
    axis = int(stick.axis)
    shift = [0 if k == axis else -stick.start[k] for k in range(3)]
    knot = LatticeKnot(tuple(tuple(x + s for x, s in zip(v, shift)) for v in knot.vertices),
                       knot.name)
    lo, hi = sorted((stick.start[axis], stick.end[axis]))
    ends = []
    for along in (st.floats(lo - 2.0, 0.5 * (lo + hi)), st.floats(0.5 * (lo + hi), hi + 2.0)):
        p = [draw(st.sampled_from((1.0, -1.0))) * 2.0 ** -draw(st.floats(20.0, 600.0))
             for _ in range(3)]
        p[axis] = draw(along)
        ends.append(tuple(p))
    if draw(st.booleans()):
        box = bounding_box(knot)
        rest = [draw(st.tuples(*(st.floats(a - 2.0, b + 2.0) for a, b in zip(*box))))]
        assume(any(abs(x) >= 0.5 for k, x in enumerate(rest[0]) if k != axis))
    else:
        u, by = draw(st.sampled_from([k for k in range(3) if k != axis])), draw(st.floats(0.5, 8.0))
        rest = [tuple(x + by * (k == u) for k, x in enumerate(p)) for p in ends[::-1]]
    try:
        return knot, Loop(vertices=tuple(ends + rest))
    except ValueError:          # consecutive vertices coincide
        assume(False)


# Edge 0 runs 1e-162 from the line of trefoil stick 7, (0,0,2)->(0,0,4): the
# squares of its corners' cross products are subnormal, and normalised
# unscaled they gave a Gauss sum of 0 where the piercing count is -1.
NEAR_LINE = Loop(((1.3111442134864767e-162, 8.105416663783219e-163, -0.7915146967486031),
                  (-5.790573815811792e-163, -3.579698786508184e-163, 3.8908124892485407),
                  (-0.493687547844635, -0.7508011450849521, 1.7329888023476876)))


@SETTINGS
@given(near_line_polygons())
@example((canonical_trefoil(), NEAR_LINE))
def test_near_line_polygons_equal_the_piercing_count(case):
    """Holonomy's inferred linking and the Gauss sum each equal the exact
    piercing count of a polygon with an edge within 2^-20 of a stick's line,
    down to 2^-600, where the squares of the Gauss sum's normals leave the
    normal range, or refuse with a typed error."""
    assert_routes_count(*case)


# Loops 2, 3, 9 and 12 of 3,000 ``raised`` skew quadrilaterals around 3_1,
# drawn as ``skew_quads`` draws them from ``default_rng(0)``: a float distance
# rounds to 0, and no pair meets.
ROUNDED_TO_ZERO = [
    ((6.16271641564004, 2.0618842914545485, -0.5363071605141836),
     (5.746062971415983, 2.604113807547205, 0.8369668555788325)),
    ((0.26730937692275347, 5.685012545291111, 8.491088311952632),
     (5.525969867005749, 6.232212404076888, 4.163540810788888)),
    ((0.3323912043362931, 3.8959380683481526, 3.1379542741283166),
     (5.949136494967417, 3.7633162459014904, 1.3952386067101594)),
    ((2.7957091374888914, -1.6563218836327929, 1.0050787875312543),
     (1.9513678762706248, 2.9692686886583157, -0.2664402723265673)),
]


@pytest.mark.parametrize("a, b", ROUNDED_TO_ZERO, ids=["2", "3", "9", "12"])
def test_rounded_contact_is_answered(a, b):
    """The loop's clearance reads 0, but ``_orient`` finds no pair that
    meets: ``linking_number`` gives the exact piercing count, where it
    refused 1,245 of the 3,000 loops by the rounded distance, and
    ``holonomy``, whose nodes would lie inside its exclusion radius,
    refuses it with a typed error."""
    knot, loop = canonical_trefoil(), raised(a, b)
    assert loop_clearance(knot, loop)[0] == 0.0 and not _orient(knot, *loop._ends)[1].any()
    assert linking_number(knot, loop) == piercing_count(knot, loop)
    with pytest.raises(LoopOnConductorError):
        holonomy(knot, loop)


# Trefoil sticks (0-based) 0: (2,2,0)->(2,2,6), 6: (0,0,2)->(0,0,4) and 11:
# (6,2,0)->(2,2,0).  Each case: (loop, edge, stick, meets) for one pair of
# determinant exactly 0, so of sign 0.
DEGENERATE_PAIRS = {
    "axis-vertex": (Loop(((0, 0, 1), (4, 0.5, 1), (1, 4, 1))), 0, 6, False),   # below stick 6
    "coplanar": (Loop(((2.5, 2, 7), (2.25, 2, 0.5), (-1, -1, 3))), 0, 0, False),  # in y = 2
    "through-end": (Loop(((1.5, 1.25, -0.5), (2.5, 2.75, 0.5), (0.5, 3, 1))), 0, 11, True),
    "collinear": (Loop(((2, 2, 7), (2, 2, 9), (3, 3, 8))), 0, 0, False),
    "collinear-touching": (Loop(((2, 2, 6), (2, 2, 9), (3, 3, 8))), 0, 0, True),
    "collinear-overlapping": (Loop(((2, 2, 5), (2, 2, 9), (3, 3, 8))), 0, 0, True),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_PAIRS))
def test_degenerate_pairs(name):
    """A loop vertex on a stick's axis extension, an edge coplanar with a
    stick, a skew edge through a stick's end (passing through (2, 2, 0) at
    its midpoint) and edges collinear with a stick: ``_orient`` gives the
    pair a sign of exactly +0.0 and its exact contact.  A loop that meets the
    knot is at 0 and both routes refuse it; any other has a piercing count,
    which both routes give."""
    knot, (loop, edge, stick, meets) = canonical_trefoil(), DEGENERATE_PAIRS[name]
    sign, meet = _orient(knot, *(e[edge:edge + 1] for e in loop._ends))
    assert (sign[0, stick].hex(), bool(meet[0, stick])) == ((0.0).hex(), meets)
    if meets:
        assert piercing_count(knot, loop) is None and loop_clearance(knot, loop)[0] == 0.0
        for route in (lambda: holonomy(knot, loop), lambda: linking_number(knot, loop)):
            with pytest.raises(LoopOnConductorError):
                route()
    else:
        count = piercing_count(knot, loop)
        assert linking_number(knot, loop) == holonomy(knot, loop).inferred_linking == count


@pytest.mark.parametrize("knot", [canonical_trefoil(), canonical_figure_eight()],
                         ids=["3_1", "4_1"])
def test_axis_aligned_loops_take_no_exact_pair(knot):
    """On ``_rect_loops`` rectangles at seeds 0-4 and on a square of
    half-width 1e-5 around each stick's midpoint, as perfbench's tight loops
    are drawn, every pair's sign and contact come from the float filter:
    neither ``_measure`` nor ``_linking_results`` calls ``_exact``."""
    loops = [loop for seed in range(5)
             for loop in verification._rect_loops(np.random.default_rng(seed), knot, 20)]
    loops += [square_around(stick, 1e-5) for stick in segments(knot)]
    with mock.patch("knotfield.topology._exact", wraps=_exact) as exact:
        _measure(knot, loops)
        _linking_results(knot, loops)
    assert exact.call_count == 0


rect_loops = st.builds(lambda knot, seed: (knot, verification._rect_loops(
    np.random.default_rng(seed), knot, 1)[0]), knots, st.integers(0, 2**32 - 1))

BATCHES = {"_holonomy_results": _holonomy_results, "_linking_results": _linking_results}


def call_outcome(name, knot, loops):
    """``public_outcome`` of a public call on the first loop, or a batch's
    answers on them all, each float as its hex, or its error's type and message."""
    if name in PUBLIC:
        return public_outcome(name, knot, loops[0])
    try:
        got = BATCHES[name](knot, loops)
    except FieldError as exc:
        return f"{type(exc).__name__}: {exc}"
    return [tuple(v.hex() if isinstance(v, float) else v for v in
                  (dataclasses.astuple(res) if dataclasses.is_dataclass(res) else res))
            for res in got]


@SETTINGS
@given(st.lists(st.one_of(rect_loops, near_edge_loops()), min_size=2, max_size=2),
       st.lists(st.tuples(st.integers(0, 1), st.sampled_from(sorted(PUBLIC) + sorted(BATCHES)),
                          st.booleans()), min_size=1, max_size=8))
def test_memo_answers_as_a_fresh_knot(cases, calls):
    """The three public calls and the two batches, interleaved over two
    (knot, loop) cases in any order, each on its loops or on equal but
    distinct copies, give the bits of the same call on a fresh knot built
    from the same vertices.  A batch takes the case's loop, then the other
    case's, around the case's knot.  The canonical knots are shared across
    examples, so their loops' kept entries may come from earlier examples."""
    for case, name, copy in calls:
        knot, loop = cases[case]
        loops = [loop, cases[1 - case][1]] if name in BATCHES else [loop]
        copies = [Loop(each.vertices, each.name) for each in loops]
        fresh = LatticeKnot(vertices=knot.vertices, name=knot.name, k=knot.k)
        assert call_outcome(name, knot, copies if copy else loops) == \
            call_outcome(name, fresh, copies)


def test_failing_batch_memory():
    """Three copies of a polygon that cannot converge at depth 14 give the
    loop-at-a-time error, and the batch stops at the first failing edge:
    its tracemalloc peak was 57.7 MB when every loop was refined to the
    last level, against 0.7 MB measured now."""
    loop = Loop(vertices=((2, 2, -3), (2, 2, -1e-4), (3, 1, 3), (3, 3, 3), (1, 3, 3), (1, 1, 3)))
    knot, loops = canonical_trefoil(), [loop] * 3
    want = loop_at_a_time(knot, loops, 1e-8, 14)
    assert want.startswith("QuadratureError: ")
    tracemalloc.start()
    try:
        got = holonomy_outcome(_holonomy_results, knot, loops, 1e-8, max_levels=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2 * 2 ** 20


# --- verify's batched draws and suites ----------------------------------------

@st.composite
def clear_point_draws(draw):
    """Sticks (one random stick, or a knot's), a margin, a clearance up to
    1.3 margins, which leaves a few percent of a lone stick's box clear, and
    a point count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    margin = draw(st.floats(0.25, 4.0))
    if draw(st.booleans()):
        sticks, clearance = [random_axis_segment(rng)], margin * draw(st.floats(0.0, 1.3))
    else:
        sticks, clearance = segments(draw(knots)), draw(st.floats(0.0, 0.6))
    return rng, sticks, margin, clearance, draw(st.integers(0, 12))


@SETTINGS
@given(clear_point_draws())
def test_random_clear_points_agree(case):
    rng, sticks, margin, clearance, n = case
    state = rng.bit_generator.state
    ends = np.array([(s.start, s.end) for s in sticks], dtype=float)
    points = random_clear_points(rng, ends[:, 0], ends[:, 1], n, margin, clearance)
    after = rng.bit_generator.state
    rng.bit_generator.state = state
    want = [scan_random_clear_point(rng, sticks, margin, clearance) for _ in range(n)]
    assert points.shape == (n, 3)
    assert points.tobytes() == np.reshape(want, (-1, 3)).tobytes()
    assert after == rng.bit_generator.state
    rng.bit_generator.state = state
    one = random_clear_point(rng, sticks, margin, clearance)
    rng.bit_generator.state = state
    assert one.tobytes() == scan_random_clear_point(rng, sticks, margin, clearance).tobytes()


@st.composite
def on_stick_points(draw):
    """A stick and a point on it (distance 0), at an endpoint or inside, or
    on its axis extension at a lattice or real offset."""
    axis, sign = draw(st.integers(0, 2)), draw(st.sampled_from([1, -1]))
    start, length = draw(st.tuples(*[st.integers(-6, 6)] * 3)), draw(st.integers(1, 8))
    end = list(start)
    end[axis] += sign * length
    s = draw(st.one_of(st.sampled_from([0.0, float(length), -1.0, length + 1.0]),
                       st.floats(-3.0, length + 3.0)))
    p = np.array(start, dtype=float)
    p[axis] += sign * s
    return Segment(start, tuple(end)), p


@SETTINGS
@given(st.lists(st.one_of(stick_points(), on_stick_points()), min_size=1, max_size=20))
# On the axis extension so near the start that |P - start| underflows to 0:
# the factor is infinite and a zero offset times it is NaN, without a warning.
@example([(Segment((0, 0, 0), (1, 0, 0)), np.array([-2.0 ** -860, 0.0, 0.0]))])
def test_paired_rows_match_one_stick_rows(cases):
    """Row i of the paired driver has the bits of stick i alone at point i
    in the former tiles' ``scan_stick_field``, signed zeros and NaN included."""
    starts, ends = [s.start for s, _ in cases], [s.end for s, _ in cases]
    points = np.array([p for _, p in cases])
    b, dist = _paired_field(PackedSticks.pack(starts, ends), points)
    for i, (seg, p) in enumerate(cases):
        want_b, want_near, _ = scan_stick_field(PackedSticks.pack([seg.start], [seg.end]),
                                                p.reshape(1, 3))
        assert b[i].tobytes() == want_b[0].tobytes()
        assert dist[i].tobytes() == want_near[0].tobytes()


@st.composite
def axis_rows(draw):
    """(sticks, points): a knot's sticks, all of them or those off one axis,
    and 1 to 40 points around them, on the half-lattice, where offsets
    vanish and points lie on sticks and their axis extensions, or uniform in
    the knot's box inflated by 2."""
    knot = draw(knots)
    starts, ends = stick_ends(knot)
    keep = knot.sticks.roles[0] != draw(st.sampled_from((3, 0, 1, 2)))
    sticks = PackedSticks.pack(starts[keep], ends[keep])
    lo, hi = starts.min(axis=0) - 2.0, starts.max(axis=0) + 2.0
    half = st.tuples(*[st.integers(0, int(2 * (h - l))) for l, h in zip(lo, hi)]).map(
        lambda n: tuple(lo + np.array(n) / 2))
    uniform = st.tuples(*[st.floats(0.0, 1.0)] * 3).map(lambda u: tuple(lo + np.array(u) * (hi - lo)))
    m = draw(st.integers(1, 40))
    return sticks, np.array(draw(st.lists(st.one_of(half, uniform), min_size=m, max_size=m)))


def one_point_last_tile(knot, seed):
    """(sticks, points): one point more than a tile of the knot's sticks
    holds, uniform in its box inflated by 2, so the last tile holds one
    point, over whose terms a sum would pair."""
    m = _TILE_PAIRS // len(knot.sticks.sign) + 1
    lo, hi = (np.asarray(c, dtype=float) for c in bounding_box(knot))
    return knot.sticks, np.random.default_rng(seed).uniform(lo - 2.0, hi + 2.0, (m, 3))


def assert_drivers_match_scan(sticks, points):
    """The tile driver's (B, near, nearest) has the bits of the former
    tiles' ``scan_stick_field``."""
    for got, want in zip(_stick_field(sticks, points), scan_stick_field(sticks, points)):
        assert got.tobytes() == want.tobytes()


@SETTINGS
@given(axis_rows())
# On the axis extension so near the start that |P - start| underflows to 0:
# the factor is infinite, so the offset along y times it is NaN, and along x,
# the stick's own axis, the term is the structural zero.
@example((PackedSticks.pack([(0, 0, 0)], [(1, 0, 0)]), np.array([[-2.0 ** -860, 0.0, 0.0]] * 2)))
# One point on a +z stick's axis extension, in a one-point tile: its one
# term along x is -0.0, and a sum onto zero makes it +0.0.
@example((PackedSticks.pack([(2, 2, 0)], [(2, 2, 6)]), np.array([[2.0, 2.0, -1.0]])))
@example(one_point_last_tile(CLOSURE_412, 1))
def test_axis_rows_match_stick_field_rows(rows):
    """The tile driver against the former tiles, bit for bit, signed zeros
    and NaN included."""
    assert_drivers_match_scan(*rows)


def test_axis_rows_on_a_one_point_tile():
    """A 212-stick closure's last tile holds one point: the tile driver
    still has the bits of the former tiles, which add the sticks onto zero
    in flow order."""
    assert_drivers_match_scan(*one_point_last_tile(
        close_braid_on_lattice(parse_braid("s1 s2^-1 " * 10)), 0))


def suite_outcome(result):
    """A suite's (name, passed, details) as ``run_verification`` reports it,
    every detail as its repr."""
    name, passed, details = result
    return name, bool(passed), repr(details)


def segment_suite_run(suite, quadrature_at, seed, n_pairs):
    """A kernel suite's outcome at (seed, n_pairs), and the dtype, shape and
    bytes of the starts, ends and points it hands to ``_quadrature``."""
    seen = []

    def quadrature(*args):
        seen.extend((a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, args[:3]))
        return _quadrature(*args)

    with mock.patch(quadrature_at, quadrature):
        return suite_outcome(suite(seed, n_pairs)), seen


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 300))
def test_replayed_segment_suite_agrees(seed, n_pairs):
    assert segment_suite_run(suite_segment_kernel, "knotfield.verification._quadrature",
                             seed, n_pairs) == \
        segment_suite_run(scan_suite_segment_kernel, "scan_oracle._quadrature", seed, n_pairs)


# (seed, pairs, redraws): the rows nearer than 0.5 in the first round, all
# clear in the second.  One pair, and 300 at seed 1, take one round.
@pytest.mark.parametrize("seed, n_pairs, redraws", [
    pytest.param(1, 300, 0, id="1-300"), pytest.param(9, 500, 3, id="9-500"),
    pytest.param(391, 1, 0, id="391-1")])
def test_replay_judges_each_pair_once(seed, n_pairs, redraws):
    """Each drawn point reaches the paired kernel exactly once, with its
    stick, and a row nearer than 0.5 is drawn again in the next round; the
    outcome is the oracle's."""
    rounds = []

    def paired(sticks, points):
        b, dist = _paired_field(sticks, points)
        rounds.append((sticks, points, dist < 0.5))
        return b, dist

    with mock.patch("knotfield.verification._paired_field", paired):
        starts, ends, points = drawn_pairs(seed, n_pairs)
    rows = np.arange(n_pairs)
    for sticks, drawn, near in rounds:
        assert all(map(np.array_equal, sticks, PackedSticks.pack(starts[rows], ends[rows])))
        assert np.array_equal(drawn[~near], points[rows[~near]])
        rows = rows[near]
    assert rows.size == 0 and len(rounds) == 1 + bool(redraws)
    judged = np.concatenate([drawn for _, drawn, _ in rounds])
    assert len(np.unique(judged, axis=0)) == len(judged) == n_pairs + redraws
    assert segment_suite_run(suite_segment_kernel, "knotfield.verification._quadrature",
                             seed, n_pairs) == \
        segment_suite_run(scan_suite_segment_kernel, "scan_oracle._quadrature", seed, n_pairs)


def forced_segment_suite_runs(seed, n_pairs, refused):
    """The suite's and the oracle's kernel-suite runs at (seed, n_pairs) with
    the first-round points of rows ``refused`` turned away as if nearer than
    0.5, on both sides; each run's outcome and ``_quadrature`` inputs, the
    suite's rounds as (natural near, near) masks, and the oracle's redraws."""
    forced, rounds = np.isin(np.arange(n_pairs), refused), []

    def paired(sticks, points):
        b, dist = _paired_field(sticks, points)
        natural = dist < 0.5
        if not rounds:
            dist = np.where(forced, 0.0, dist)
        rounds.append((natural, dist < 0.5))
        return b, dist

    calls = []

    def judge(seg, point, **kwargs):
        calls.append(None)
        if len(calls) <= n_pairs and forced[len(calls) - 1]:
            raise OnConductorError(point, 0.0)
        return segment_field(seg, point, **kwargs)

    with mock.patch("knotfield.verification._paired_field", paired):
        got = segment_suite_run(suite_segment_kernel, "knotfield.verification._quadrature",
                                seed, n_pairs)
    with mock.patch("scan_oracle.segment_field", judge):
        want = segment_suite_run(scan_suite_segment_kernel, "scan_oracle._quadrature",
                                 seed, n_pairs)
    return got, want, rounds, len(calls) - n_pairs


# (seed, pairs, refused): that many first-round points, spread over the rows,
# are turned away on both sides, on top of any nearer than 0.5 (three at
# seed 9), so each side must draw them again in the next round to agree.
@pytest.mark.parametrize("seed, n_pairs, refused", [(1, 300, 2), (9, 500, 5), (11, 100, 1)])
def test_replayed_segment_suite_rewinds(seed, n_pairs, refused):
    rows = np.linspace(0, n_pairs - 1, refused).astype(int)
    got, want, rounds, redraws = forced_segment_suite_runs(seed, n_pairs, rows)
    (natural, near), *later = rounds
    assert np.array_equal(near, natural | np.isin(np.arange(n_pairs), rows))
    assert sum(len(n) for n, _ in later) == redraws >= refused
    assert got == want


# (seed, pairs, cut, redraws): the suite judges every first point of a round
# at once, before it knows which are turned away.  With rows 38 and 277 turned
# away in the first round, a run of 38 pairs ends just before the first and a
# run of 39 ends on it, leaving one row to draw again; the full run draws two.
# The cut runs and the full run all agree with the oracle.
@pytest.mark.parametrize("seed, n_pairs, cut, redraws", [(1, 300, 38, 2), (1, 300, 39, 2)])
def test_speculative_segment_suite_agrees(seed, n_pairs, cut, redraws):
    for pairs, want_redraws in ((cut, int(cut > 38)), (n_pairs, redraws)):
        got, want, rounds, oracle_redraws = forced_segment_suite_runs(seed, pairs, [38, 277])
        assert [len(near) for _, near in rounds] == [pairs] + [want_redraws] * bool(want_redraws)
        assert oracle_redraws == want_redraws
        assert got == want


def drawn_pairs(seed, n_pairs, rng=None):
    """(starts, ends, points) that ``suite_segment_kernel`` hands its oracle,
    drawn from ``default_rng(seed)`` or, when given, from ``rng``; the oracle
    is not run."""
    seen = []
    scripted = (mock.patch("numpy.random.default_rng", return_value=rng) if rng
                else contextlib.nullcontext())
    with scripted, mock.patch("knotfield.verification._quadrature",
                              lambda *args: seen.extend(args[:3]) or np.zeros((n_pairs, 3))):
        suite_segment_kernel(seed, n_pairs)
    return seen


class Scripted:
    """A generator whose ``integers`` calls return ``draws`` in turn and whose
    ``uniform`` returns its upper bound, 4 from the stick."""

    def __init__(self, *draws):
        self.draws = iter(draws)

    def integers(self, *args):
        return next(self.draws)

    def uniform(self, low, high):
        return high


def test_other_end_maps_onto_the_other_lattice_values():
    """For every start s in [-8, 8] and every axis, ``other`` in [-8, 7]
    gives, one to one, the ends [-8, 8] without s."""
    s, other, axis = np.meshgrid(np.arange(-8, 9), np.arange(-8, 8), np.arange(3), indexing="ij")
    s, other, axis = s.ravel(), other.ravel(), axis.ravel()
    starts = np.zeros((s.size, 3), np.int64)
    starts[np.arange(s.size), axis] = s
    got_starts, ends, _ = drawn_pairs(0, s.size, Scripted(starts, axis, other))
    assert np.array_equal(got_starts, starts)
    ends = ends.reshape(17, 16, 3, 3)
    for i, start in enumerate(range(-8, 9)):
        for a in range(3):
            assert ends[i, :, a, a].tolist() == [v for v in range(-8, 9) if v != start]


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(0, 400))
def test_kernel_suite_pairs_are_valid(seed, n_pairs):
    """Every stick is a nonzero axis-aligned stick inside [-8, 8]^3, and every
    point lies in its stick's box inflated by 4, at least 0.5 from the stick
    by the kernel's own distance."""
    starts, ends, points = drawn_pairs(seed, n_pairs)
    assert starts.shape == ends.shape == points.shape == (n_pairs, 3)
    assert np.all((np.abs(starts) <= 8) & (np.abs(ends) <= 8))
    assert np.all(np.count_nonzero(ends - starts, axis=1) == 1)
    assert np.all(np.minimum(starts, ends) - 4.0 <= points)
    assert np.all(points <= np.maximum(starts, ends) + 4.0)
    for start, end, p in zip(starts, ends, points):
        assert _stick_field(PackedSticks.pack([start], [end]), p[None])[1][0] >= 0.5


@pytest.mark.parametrize("knot", [canonical_trefoil(), canonical_figure_eight(),
                                  close_braid_on_lattice(parse_braid("s1 s2^-1 s1 s2^-1"))])
@pytest.mark.parametrize("seed", [0, 5])
def test_batched_point_suites_agree(knot, seed):
    assert suite_outcome(suite_flatness(knot, seed, 40)) == \
        suite_outcome(scan_suite_flatness(knot, seed, 40))
    assert suite_outcome(suite_scaling(knot, seed, 40)) == \
        suite_outcome(scan_suite_scaling(knot, seed, 40))


def test_row_norms_are_per_row_norms():
    """The point suites' batched row norms have each row's
    ``np.linalg.norm`` bits, rows and strided rows alike, at magnitudes from
    subnormal squares to overflow, where a sum of squares rounds otherwise."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal((20000, 3)) * 10.0 ** rng.uniform(-170.0, 170.0, (20000, 1))
    v[::7, 1], v[::11] = 0.0, v[::11] * 2.0 ** -900
    with np.errstate(over="ignore", under="ignore"):
        for rows in (v, np.repeat(v, 2, axis=0).reshape(-1, 2, 3)[:, 1]):
            want = np.array([np.linalg.norm(r) for r in rows])
            assert verification._row_norms(rows).tobytes() == want.tobytes()
        assert (np.sqrt(np.sum(v * v, axis=1)) != want).any()


@settings(SETTINGS, max_examples=12)
@given(st.one_of(st.sampled_from((canonical_trefoil(), canonical_figure_eight())),
                 braid_closures()), st.sampled_from((0, 3, 9, 1300)), KS)
def test_batched_holonomy_suites_agree(knot, seed, k):
    """At ``verify``'s loop counts, the batched suites report what calling
    ``holonomy`` one loop at a time reports."""
    knot = dataclasses.replace(knot, k=k)
    *result, loops, values = suite_holonomy_linking(knot, seed, 20)
    assert suite_outcome(result) == suite_outcome(scan_suite_holonomy_linking(knot, seed, 20))
    assert suite_outcome(suite_refined_holonomy(knot, loops[:10], values[:10])) == \
        suite_outcome(scan_suite_refined_holonomy(knot, seed, 10))


@pytest.mark.parametrize("suite, scan", [
    pytest.param(lambda knot, seed, n: suite_holonomy_linking(knot, seed, n)[:3],
                 scan_suite_holonomy_linking,
                 id="suite_holonomy_linking-scan_suite_holonomy_linking"),
    pytest.param(lambda knot, seed, n: suite_refined_holonomy(
                     knot, *suite_holonomy_linking(knot, seed, n)[3:]),
                 scan_suite_refined_holonomy,
                 id="suite_refined_holonomy-scan_suite_refined_holonomy"),
    (suite_flatness, scan_suite_flatness), (suite_scaling, scan_suite_scaling),
    (lambda knot, seed, n: suite_segment_kernel(seed, n),
     lambda knot, seed, n: scan_suite_segment_kernel(seed, n))])
def test_empty_suites_agree(suite, scan):
    """A suite of no pairs, points or loops passes with nothing drawn, as
    the one-at-a-time suite does."""
    assert suite_outcome(suite(canonical_trefoil(), 0, 0)) == \
        suite_outcome(scan(canonical_trefoil(), 0, 0))


@pytest.mark.parametrize("suite", [suite_flatness, suite_scaling])
def test_nan_row_fails_the_suite(suite):
    """A NaN field row the kernel does not flag fails the suite instead of
    being dropped by the running maximum."""
    real = verification.total_field_many

    def one_nan_row(knot, points):
        b, on = real(knot, points)
        b[len(b) // 2] = np.nan
        return b, on

    with mock.patch("knotfield.verification.total_field_many", one_nan_row):
        name, passed, details = suite(canonical_trefoil(), 0, 10)
    assert not passed


@pytest.mark.parametrize("suite", [suite_flatness, suite_scaling])
def test_on_conductor_row_refused(suite):
    """A stencil or scaling point on the conductor raises OnConductorError
    naming it, its distance and its nearest stick, as total_field does."""
    on = np.array([[2.0, 2.0, 3.0], [9.0, 9.0, 9.0]])        # on trefoil stick 1
    with mock.patch("knotfield.verification.random_clear_points", return_value=on), \
            pytest.raises(OnConductorError) as exc:
        suite(canonical_trefoil(), 0, 2)
    assert (exc.value.point, exc.value.distance, exc.value.segment_index) == \
        ((2.0, 2.0, 3.0), 0.0, 1)


@st.composite
def faulty_tables(draw):
    """A built-in knot's printed tables with one to four injected faults: a
    flipped sign, a moved bracket endpoint, a bracket entry along another
    axis, a changed radicand or denominator constant, a dropped term or a
    duplicated term."""
    label = draw(st.sampled_from(sorted(TERM_TABLES)))
    tables = {c: list(terms) for c, terms in TERM_TABLES[label].items()}
    for _ in range(draw(st.integers(1, 4))):
        terms = tables[draw(st.sampled_from(sorted(tables)))]
        i = draw(st.integers(0, len(terms) - 1))
        t, side = terms[i], draw(st.sampled_from(("first", "second")))
        entry, shift = getattr(t, side), draw(st.sampled_from((-4.0, -2.0, 1.0, 2.0, 6.0)))

        def moved(form):
            return (form[0] + shift,) + form[1:]

        fault = draw(st.sampled_from(("sign", "endpoint", "variable", "radicand",
                                      "denominator", "drop", "duplicate")))
        if fault == "sign":
            terms[i] = dataclasses.replace(t, sign=-t.sign)
        elif fault == "endpoint":
            terms[i] = dataclasses.replace(
                t, **{side: dataclasses.replace(entry, num=moved(entry.num))})
        elif fault == "variable":
            num = entry.num[:2] + (draw(st.sampled_from("xyz")),)
            terms[i] = dataclasses.replace(t, **{side: dataclasses.replace(entry, num=num)})
        elif fault == "radicand":
            k = draw(st.integers(0, 2))
            rad = entry.radicand[:k] + (moved(entry.radicand[k]),) + entry.radicand[k + 1:]
            terms[i] = dataclasses.replace(
                t, **{side: dataclasses.replace(entry, radicand=rad)})
        elif fault == "denominator":
            terms[i] = dataclasses.replace(t, den=(moved(t.den[0]), t.den[1]))
        elif fault == "drop":
            del terms[i]
        else:
            terms.insert(i, t)
    return label, {c: tuple(terms) for c, terms in tables.items()}


@settings(max_examples=300, deadline=None)
@given(faulty_tables())
def test_ledger_agrees_on_faulty_tables(case):
    """The ledger read through the derived table gives the entries of the
    parity-table ledger, field for field, however the tables are damaged."""
    label, tables = case
    assert discrepancy_ledger(label, tables) == scan_discrepancy_ledger(label, tables)


# Floats whose spelling is an edge case: signed zeros, subnormals, the
# neighbours of 1e16 and 1e-4, where repr switches between positional and
# exponent notation, and the non-finite values, NaN of either sign.
SPELLING_EDGES = (0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e16, 9999999999999998.0,
                  1.0000000000000002e16, -1e16, 1e-4, 9.999999999999999e-05,
                  1.0000000000000002e-04, -1e-4, 0.1, 1.5, -2.5e17, 1e300,
                  math.inf, -math.inf, math.nan, -math.nan)
# Grids of _BLOCK_ROWS - 1, _BLOCK_ROWS and _BLOCK_ROWS + 1 rows.
BLOCK_EDGE_COUNTS = ((5, 9, 91), (16, 16, 16), (17, 1, 241))
assert [math.prod(c) - _BLOCK_ROWS for c in BLOCK_EDGE_COUNTS] == [-1, 0, 1]


BLOCK_COUNTS = st.one_of(st.tuples(*[st.integers(1, 12)] * 3),
                         st.sampled_from(BLOCK_EDGE_COUNTS).flatmap(st.permutations))


@st.composite
def field_samples(draw, counts=BLOCK_COUNTS):
    """A FieldSample of ``counts`` points: by default 1-12 a side, or one row
    fewer than, as many as or one more than a writer block, in some axis
    order.  Its coordinates take a few values each, its fields are
    log-uniform over every magnitude, and both draw from ``SPELLING_EDGES``
    and from floats hypothesis picks; on-conductor rows are NaN."""
    counts = draw(counts)
    n = math.prod(counts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(SPELLING_EDGES + tuple(draw(st.lists(st.floats(), max_size=8))))
    coordinates = rng.choice(np.concatenate([pool, rng.uniform(-9, 9, 6)]), size=(n, 3))
    b = np.where(rng.random((n, 3)) < draw(st.sampled_from([0.0, 0.05, 0.5])),
                 rng.choice(pool, size=(n, 3)),
                 rng.choice([-1.0, 1.0], size=(n, 3)) * 10.0 ** rng.uniform(-330, 308, (n, 3)))
    mask = rng.random(n) < 0.05
    b[mask] = np.nan
    if draw(st.booleans()):
        coordinates[~np.isfinite(coordinates)] = 1.0
    return FieldSample(GridSpec((0.5, -1.0, 3.0), 0.25, counts), coordinates, b, mask)


def _written(writer, sample, **kwargs):
    fh = io.StringIO()
    writer(sample, fh, **kwargs)
    return fh.getvalue()


def _oracle_texts(sample):
    """Each writer's oracle text.  The oracle wrote a non-finite coordinate
    as Python spells it, which is not JSON, so there the JSON-lines writer's
    oracle is json.dumps instead."""
    jsonl = scan_write_jsonl if np.isfinite(sample.points).all() else dumps_write_jsonl
    return {write_csv: _written(scan_write_csv, sample), write_jsonl: _written(jsonl, sample),
            write_vtk: _written(scan_write_vtk, sample)}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(field_samples())
def test_writers_match_row_at_a_time_writers(sample):
    """Each writer gives the row-at-a-time oracle's bytes."""
    for writer, want in _oracle_texts(sample).items():
        assert _written(writer, sample) == want


SMALL_BLOCK_ROWS = 7


@st.composite
def small_block_counts(draw):
    """Grid counts of 1 row, of 1-9 whole 7-row blocks or of one row more,
    split over the three axes in some order."""
    k = draw(st.integers(1, 9))
    n = draw(st.sampled_from([1, SMALL_BLOCK_ROWS * k, SMALL_BLOCK_ROWS * k + 1]))
    a = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    b = draw(st.sampled_from([d for d in range(1, n // a + 1) if n // a % d == 0]))
    return draw(st.permutations((a, b, n // a // b)))


def _across_worker_edges():
    """Two 7-row blocks and one row: non-finite coordinates and NaN fields on
    both sides of the edge after row 6, where a second worker's run starts,
    and after row 13, where a third's does."""
    n = 2 * SMALL_BLOCK_ROWS + 1
    points = np.tile([0.5, -1.0, 3.0], (n, 1))
    points[[6, 7, 13]] = [(math.inf, -0.0, math.nan), (math.nan, -math.inf, 1.0),
                          (-math.inf, math.inf, math.nan)]
    b = np.full((n, 3), 1e-5)
    b[[0, 8, 14]] = [(math.inf, -math.inf, 0.0), (-0.0, math.inf, 2.5e17), (math.inf, 1, -1)]
    mask = np.isin(np.arange(n), [5, 6, 7, 12, 13])
    b[mask] = np.nan
    return FieldSample(GridSpec((0.5, -1.0, 3.0), 0.25, (3, 1, 5)), points, b, mask)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(field_samples(counts=small_block_counts()))
@example(_across_worker_edges())
def test_writer_bytes_do_not_depend_on_workers(sample):
    """With 7-row blocks, each writer gives the oracle's bytes at 1-4 worker
    processes: one-block runs, a partial last block, more workers than
    blocks, and JSON's respelling of nan and inf next to a run's edge."""
    want = _oracle_texts(sample)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "_BLOCK_ROWS", SMALL_BLOCK_ROWS)
        for writer, text in want.items():
            for threads in (1, 2, 3, 4):
                assert _written(writer, sample, threads=threads) == text, (writer, threads)
