"""``validate``, ``projection_crossings``, ``loop_clearance``,
``segment_field_quadrature`` and ``holonomy`` against the scan oracles.

The engine finds touching edges by sorting and searching; the oracles in
``scan_oracle.py`` compare every pair.  Both must give the same report, the
same crossings in the same order, or the same PlacementError message, on
braid closures, refined knots and corrupted polygons, viewed along each
axis.  The engine measures a loop's clearance in one (edge, stick) pass; the
oracle walks the loop one edge at a time.  Both must give the same value
bits and (edge, stick), or the same LinkingPrecisionError message.  The
engine's integrators step every (stick, point) row, or every loop edge, at
once; the oracles take one interval or one edge at a time.  Both must give
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
distribution of rejecting an out-of-box end.  The tile, axis and paired
drivers must carry the bits of ``scan_stick_field``, the tiles as they
were before the drivers shared one per-axis term, signed zeros and NaN
included, on a one-point tile too.  On rectangles, holonomy's inferred
linking and the Gauss sum must each equal the exact piercing count or
refuse with a typed error.  Batches that
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
    _GL_W,
    _GL_X,
    _TILE_PAIRS,
    _axis_field,
    _bisect,
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
    Loop,
    _clearances,
    _holonomy_results,
    _linking_results,
    _measure,
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
    bisect_stack,
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


def _along(a, b, t):
    """The point a + (b - a) * t // |b - a|: t lattice steps from a towards b."""
    length = sum(abs(y - x) for x, y in zip(a, b))
    return tuple(x + (y - x) * t // length for x, y in zip(a, b))


@st.composite
def corrupted(draw):
    """A valid knot with one to three defects, each a moved vertex, a copied
    vertex, a reversed stick, a doubled-back edge, a stick split so that two
    edges are collinear, or a vertex that is not three ints: a float or bool
    coordinate, or only two coordinates."""
    v = list(draw(knots).vertices)
    for _ in range(draw(st.integers(1, 3))):
        n = len(v)
        i = draw(st.integers(0, n - 1))
        a, b = v[i], v[(i + 1) % n]
        length = sum(abs(y - x) for x, y in zip(a, b))
        lattice = len(a) == len(b) == 3 and all(type(c) is int for c in a + b)
        kind = draw(st.sampled_from(("moved", "copied", "reversed", "doubled-back", "collinear",
                                     "non-integer")))
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
    # projection_crossings raises ValueError on a float, bool or two-coordinate vertex.
    if any("non-integer" in v for v in report.violations):
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


@SETTINGS
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from((0.0, 0.0, 0.0, 1e-6, 1e-3, 0.3)),
                          st.floats(-9.0, -3.0)), min_size=1, max_size=4),
       st.sampled_from((2, 12, 40)))
def test_bisect_agrees_with_a_depth_first_stack(rows, max_depth):
    """``_bisect`` on rows of a peaked integrand, each NaN on a window of
    width 0, 1e-6, 1e-3 or 0.3, gives each row's value and error bits, or the
    first failure, of the depth-first stack on the rows in order: a panel
    whose estimate is NaN fails at its own depth, the rightmost of its row."""
    peak, width, log_budget = (np.array(x) for x in zip(*rows))

    def integrand(rows, t):
        c, w = (x[rows, None, None] for x in (peak, width))
        return np.where((t > c) & (t < c + w), np.nan, 1.0 / (1.0 + 400.0 * (t - c) ** 2))

    def panel(row, lo, hi):
        f = integrand(np.array([row]), (0.5 * (hi + lo) + 0.5 * (hi - lo) * _GL_X)[None, None])
        return 0.5 * (hi - lo) * float(np.dot(_GL_W, f[0, 0]))

    want = []
    for row in range(len(rows)):
        try:
            want.append(bisect_stack(lambda lo, hi: panel(row, lo, hi), 10.0 ** log_budget[row],
                                     max_depth, lambda *where: QuadratureError(row, *where)))
        except QuadratureError as exc:
            want = exc.args
            break
    total, failure = _bisect(integrand, 10.0 ** log_budget, max_depth)
    if failure is None:
        assert total.tobytes() == np.array(want).tobytes()
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
    """``holonomy_outcome`` of ``holonomy`` on each loop in turn, up to the
    first that raises, whose error is then the outcome."""
    want = []
    for loop in loops:
        want.append(holonomy_outcome(holonomy, knot, loop, tol=tol, max_levels=max_levels))
        if isinstance(want[-1], str):
            return want[-1]
    return want


@SETTINGS
@given(st.data(), KS, st.sampled_from((1e-6, 1e-8)), st.sampled_from((1, 18)))
def test_batched_holonomy_agrees(data, k, tol, max_levels):
    """The batched entry equals ``holonomy`` loop by loop, bit for bit, or
    raises the first error that ``holonomy`` raises on the loops in order."""
    knot, loop = data.draw(clearance_loops())
    more = data.draw(st.lists(clearance_loops(st.just(knot)), max_size=4))
    knot, loops = dataclasses.replace(knot, k=k), [loop] + [l for _, l in more]
    assert holonomy_outcome(_holonomy_results, knot, loops, tol, max_levels=max_levels) == \
        loop_at_a_time(knot, loops, tol, max_levels)


def test_batched_holonomy_raises_the_first_error():
    """Loop 0 fails to converge and loop 1 touches the conductor: each order
    raises the error of the loop that comes first."""
    unreachable = Loop(vertices=((5, 3, 2), (7, 3, 2), (7, 5, 2), (5, 5, 2)))
    touching = Loop(vertices=((2, 2, 3), (7, 3, 2), (7, 5, 2), (5, 5, 2)))
    knot = canonical_trefoil()
    for loops, error in (([unreachable, touching], "QuadratureError"),
                         ([touching, unreachable], "LoopOnConductorError")):
        got = holonomy_outcome(_holonomy_results, knot, loops, 1e-14, max_levels=1)
        assert got.startswith(error + ": ")
        assert got == loop_at_a_time(knot, loops, 1e-14, 1)


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
    """Aligned edges read the field along their axis, skew edges all of it:
    in one batch, each loop's holonomy and linking total keep the bits of
    the loop taken alone and of the scans."""
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
    """``call(*args)`` with ``topology._stick_field`` and ``topology._axis_field``
    wrapped: its result and the (sticks, points, axis) of every kernel call
    it made, in order, with axis None for a full-field call and each point's
    edge axis for an axis-driver call."""
    calls = []

    def full(sticks, points):
        calls.append((sticks, points, None))
        return _stick_field(sticks, points)

    def along(sticks, points, axis, length):
        calls.append((sticks, points, axis))
        return _axis_field(sticks, points, axis, length)

    with mock.patch("knotfield.topology._stick_field", full), \
            mock.patch("knotfield.topology._axis_field", along):
        result = call(*args)
    return result, calls


def test_holonomy_makes_one_call_per_level():
    """A lone loop is not pruned: its first call is from all the sticks on
    the 30 Gauss nodes of each of its 4 edges and their two halves, each
    node with its edge's axis, and each later depth one on the 20 nodes of
    both halves of every panel still live, at most twice as many as at the
    depth before.  Every rectangle edge is on an axis, so every call reads
    the field along it alone."""
    knot = canonical_trefoil()
    loop = random_rect_loop(np.random.default_rng(0), knot, clearance=0.5)
    _, calls = kernel_calls(holonomy, knot, loop)
    live = [8] + [len(points) / 20 for _, points, _ in calls[1:]]
    assert all(sticks is knot.sticks and axis is not None for sticks, _, axis in calls)
    assert len(calls[0][1]) == 120 and len(calls) > 2
    assert all(n == int(n) and 0 < n <= 2 * m for m, n in zip(live, live[1:]))
    steps = np.diff(np.array(loop.vertices + loop.vertices[:1]), axis=0)
    assert calls[0][2].tolist() == np.repeat(np.argmax(steps != 0, axis=1), 30).tolist()


def test_holonomy_suite_calls_per_level():
    """The trefoil's 20 loops cost 72 kernel calls one loop at a time, one per
    loop and depth; the batched suite makes at most 4 per depth reached, one
    per edge axis with a live panel and one for edges off the axes, and
    never one on no points."""
    knot = canonical_trefoil()
    rng = np.random.default_rng(0)
    levels = [len(kernel_calls(holonomy, knot, random_rect_loop(
        rng, knot, clearance=0.5, name=f"loop{i}"))[1]) for i in range(20)]
    assert sum(levels) == 72
    result, calls = kernel_calls(verification.suite_holonomy_linking, knot, 0, 20)
    assert result[1] and len(calls) <= 4 * max(levels)
    assert all(len(points) for _, points, _ in calls)
    # Every rectangle edge is along an axis a and meets only the sticks off a.
    along = knot.sticks.roles[0]
    for sticks, _, axis in calls:
        (a,) = set(axis.tolist())
        assert a not in sticks.roles[0] and len(sticks.sign) == np.sum(along != a)


@pytest.mark.parametrize("d, bound", [(1e-4, 2000), (1e-5, 4000), (1e-6, 8000)])
def test_holonomy_near_the_conductor(d, bound):
    """A 14-unit edge passing d from the midpoint of trefoil stick 1 is
    bisected only near the stick: the answer is Lk, from under ``bound``
    kernel points (1,480, 3,240 and 7,160 measured), where halving every
    panel took 2.6M points at 1e-4 and refused at 1e-5."""
    knot = canonical_trefoil()
    loop = Loop(vertices=((2 + d, -5, 3), (2 + d, 9, 3), (12, 9, 3), (12, -5, 3)))
    res, calls = kernel_calls(holonomy, knot, loop)
    assert res.inferred_linking == linking_number(knot, loop) == 2
    assert abs(res.residual) < 1e-6
    assert 0 < sum(len(points) for _, points, _ in calls) < bound


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
    """(sticks, points, axis, length): a knot's sticks, all of them or those
    off one axis, and 1 to 40 points around them, on the half-lattice,
    where offsets vanish and points lie on sticks and their axis
    extensions, or uniform in the knot's box inflated by 2; each point with
    an edge axis, the one the sticks are off if any, and a signed length."""
    knot = draw(knots)
    starts, ends = stick_ends(knot)
    off = draw(st.sampled_from((None, 0, 1, 2)))
    keep = knot.sticks.roles[0] != (3 if off is None else off)
    sticks = PackedSticks.pack(starts[keep], ends[keep])
    lo, hi = starts.min(axis=0) - 2.0, starts.max(axis=0) + 2.0
    half = st.tuples(*[st.integers(0, int(2 * (h - l))) for l, h in zip(lo, hi)]).map(
        lambda n: tuple(lo + np.array(n) / 2))
    uniform = st.tuples(*[st.floats(0.0, 1.0)] * 3).map(lambda u: tuple(lo + np.array(u) * (hi - lo)))
    m = draw(st.integers(1, 40))
    each = lambda s: draw(st.lists(s, min_size=m, max_size=m))
    return (sticks, np.array(each(st.one_of(half, uniform))),
            np.array(each(st.integers(0, 2) if off is None else st.just(off))),
            np.array(each(st.sampled_from((1.0, -1.0, 2.5, -0.3, 1e-300)))))


def one_point_last_tile(knot, seed):
    """(sticks, points, axis, length): one point more than a tile of the
    knot's sticks holds, uniform in its box inflated by 2, so the last tile
    holds one point, over whose terms a sum would pair; each point with a
    random axis and length 1."""
    m = _TILE_PAIRS // len(knot.sticks.sign) + 1
    rng = np.random.default_rng(seed)
    lo, hi = (np.asarray(c, dtype=float) for c in bounding_box(knot))
    return knot.sticks, rng.uniform(lo - 2.0, hi + 2.0, (m, 3)), rng.integers(0, 3, m), np.ones(m)


def assert_drivers_match_scan(sticks, points, axis, length):
    """The tile driver's (B, near, nearest) and the axis driver's rows have
    the bits of the former tiles' ``scan_stick_field``: its B, and its
    component along each point's axis times its length."""
    want = scan_stick_field(sticks, points)
    for got, w in zip(_stick_field(sticks, points), want):
        assert got.tobytes() == w.tobytes()
    along = want[0][np.arange(len(points)), axis] * length
    assert _axis_field(sticks, points, axis, length).tobytes() == along.tobytes()


@SETTINGS
@given(axis_rows())
# On the axis extension so near the start that |P - start| underflows to 0:
# the factor is infinite, so the offset along y times it is NaN, and along x,
# the stick's own axis, the term is the structural zero.
@example((PackedSticks.pack([(0, 0, 0)], [(1, 0, 0)]), np.array([[-2.0 ** -860, 0.0, 0.0]] * 2),
          np.array([0, 1]), np.array([1.0, 1.0])))
# One point on a +z stick's axis extension, in a one-point tile: its one
# term along x is -0.0, and a sum onto zero makes it +0.0.
@example((PackedSticks.pack([(2, 2, 0)], [(2, 2, 6)]), np.array([[2.0, 2.0, -1.0]]),
          np.array([0]), np.array([1.0])))
@example(one_point_last_tile(CLOSURE_412, 1))
def test_axis_rows_match_stick_field_rows(rows):
    """Both tile drivers against the former tiles, bit for bit, signed
    zeros and NaN included."""
    assert_drivers_match_scan(*rows)


def test_axis_rows_on_a_one_point_tile():
    """A 212-stick closure's last tile holds one point: both tile drivers
    still have the bits of the former tiles, which add the sticks onto zero
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
