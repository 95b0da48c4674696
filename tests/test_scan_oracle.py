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
the same bits in every field, or the same QuadratureError message.
``verify`` draws its points in blocks, evaluates each suite's points in one
kernel call and replays the kernel suite's pairs from the raw stream; the
oracles draw and evaluate one point or pair at a time with ``Generator``
calls.  Both must give the same points, generator state and details.  The
paired kernel rows must carry the bits of one-stick all-pairs rows, signed
zeros included.  The transcription ledger reads each printed term against
its stick's derived term; the oracle builds the stick's expected bracket
atoms from a parity table.  On printed tables with injected faults both must
give the same entries.  The writers format each block of rows with one
``%`` and spell each distinct coordinate once; the oracles format a row at a
time.  Both must write the same bytes.
"""

import dataclasses
import io
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from knotfield import sampling, verification
from knotfield.biot_savart import (
    OnConductorError,
    QuadratureError,
    _paired_field,
    _quadrature,
    _stick_field,
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
    canonical_figure_eight,
    Segment,
    canonical_trefoil,
    refine,
    segments,
    stick_ends,
    validate,
)
from knotfield.sampling import _BLOCK_ROWS, FieldSample, GridSpec, write_csv, write_jsonl, write_vtk
from knotfield.topology import LinkingPrecisionError, Loop, holonomy, loop_clearance
from knotfield.transcription import TERM_TABLES, discrepancy_ledger
from knotfield.verification import (
    random_clear_point,
    random_clear_points,
    random_rect_loop,
    suite_flatness,
    suite_scaling,
    suite_segment_kernel,
)
from scan_oracle import (
    scan_discrepancy_ledger,
    scan_holonomy,
    scan_loop_clearance,
    scan_projection_crossings,
    scan_random_clear_point,
    scan_segment_field_quadrature,
    scan_suite_flatness,
    scan_suite_scaling,
    scan_suite_segment_kernel,
    dumps_write_jsonl,
    random_axis_segment,
    scan_validate,
    scan_write_csv,
    scan_write_jsonl,
    scan_write_vtk,
)
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
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        seg = random_axis_segment(rng)
        pairs.append((seg, random_clear_point(rng, [seg], margin=4.0, clearance=0.5)))
    return pairs


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


def holonomy_outcome(route, *args, **kwargs):
    try:
        res = route(*args, **kwargs)
    except QuadratureError as exc:
        return f"QuadratureError: {exc}"
    return [(f.name, float_bits(getattr(res, f.name))) for f in dataclasses.fields(res)]


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
    points = random_clear_points(rng, sticks, n, margin, clearance)
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
    starts, ends = [s.start for s, _ in cases], [s.end for s, _ in cases]
    points = np.array([p for _, p in cases])
    b, dist = _paired_field(PackedSticks.pack(starts, ends), points)
    for i, (seg, p) in enumerate(cases):
        want_b, want_near, _ = _stick_field(PackedSticks.pack([seg.start], [seg.end]),
                                            p.reshape(1, 3))
        assert b[i].tobytes() == want_b[0].tobytes()
        assert dist[i].tobytes() == want_near[0].tobytes()


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


# (seed, pairs, redraws): the oracle rejects a first point and draws another
# at seed 1 for pairs 38 and 277, at seed 11 for pair 25, and at seed 9 for
# pairs 29, 133, 440, 451 and 463, so the replay must rewind to agree.
@pytest.mark.parametrize("seed, n_pairs, redraws", [(1, 300, 2), (9, 500, 5), (11, 100, 1)])
def test_replayed_segment_suite_rewinds(seed, n_pairs, redraws):
    with mock.patch("scan_oracle._stick_field", wraps=_stick_field) as judge:
        want = segment_suite_run(scan_suite_segment_kernel, "scan_oracle._quadrature",
                                 seed, n_pairs)
    assert judge.call_count - n_pairs == redraws
    assert segment_suite_run(suite_segment_kernel, "knotfield.verification._quadrature",
                             seed, n_pairs) == want


# (seed, pairs, cut, redraws): the replay speculates every first point of a
# run at once.  At seed 1 the first redraw is pair 38, so a run of 38 pairs
# ends just before it and a run of 39 ends on it, leaving a tail of one pair
# to judge again.  The cut runs and the full run all agree with the oracle.
@pytest.mark.parametrize("seed, n_pairs, cut, redraws", [(1, 300, 38, 2), (1, 300, 39, 2)])
def test_speculative_segment_suite_agrees(seed, n_pairs, cut, redraws):
    for pairs, want_redraws in ((cut, int(cut > 38)), (n_pairs, redraws)):
        with mock.patch("scan_oracle._stick_field", wraps=_stick_field) as judge:
            want = segment_suite_run(scan_suite_segment_kernel, "scan_oracle._quadrature",
                                     seed, pairs)
        assert judge.call_count - pairs == want_redraws
        assert segment_suite_run(suite_segment_kernel, "knotfield.verification._quadrature",
                                 seed, pairs) == want


@pytest.mark.parametrize("knot", [canonical_trefoil(), canonical_figure_eight(),
                                  close_braid_on_lattice(parse_braid("s1 s2^-1 s1 s2^-1"))])
@pytest.mark.parametrize("seed", [0, 5])
def test_batched_point_suites_agree(knot, seed):
    assert suite_outcome(suite_flatness(knot, seed, 40)) == \
        suite_outcome(scan_suite_flatness(knot, seed, 40))
    assert suite_outcome(suite_scaling(knot, seed, 40)) == \
        suite_outcome(scan_suite_scaling(knot, seed, 40))


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
