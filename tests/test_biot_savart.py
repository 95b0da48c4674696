import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knotfield.braids import close_braid_on_lattice, parse_braid
from knotfield.geometry import (
    LatticeKnot,
    PackedSticks,
    Segment,
    canonical_figure_eight,
    canonical_trefoil,
    refine,
    segments,
    stick_ends,
)
from knotfield.biot_savart import (
    OnConductorError,
    _stick_field,
    segment_field,
    segment_field_quadrature,
    total_field,
    total_field_many,
)
from knotfield.sampling import GridSpec, sample_field
from knotfield.topology import Loop, holonomy
from knotfield.verification import random_clear_point
from scan_oracle import random_axis_segment


# A 40-letter 3-strand word whose closure is a 412-stick knot.
BRAID_40 = ("s1^-1 s2 s2 s2 s1 s2^-1 s1^-1 s1^-1 s2^-1 s1 s1 s1 s2 s1^-1 s1 s1^-1 s2^-1 "
            "s2^-1 s2 s1^-1 s1 s2^-1 s1^-1 s2^-1 s1^-1 s1 s1^-1 s1^-1 s1 s2^-1 s2^-1 "
            "s2^-1 s1^-1 s1^-1 s2 s2^-1 s1 s1^-1 s2^-1 s2")
# A 20-letter one whose closure has 212 sticks.
BRAID_20 = "s1 s2 s2 s2^-1 s1 s1 s2^-1 s1 s1 s1 s2^-1 s1^-1 s1 s2^-1 s1 s2^-1 s2 s2^-1 s1 s1^-1"


@pytest.fixture(scope="module")
def closure_412():
    knot = close_braid_on_lattice(parse_braid(BRAID_40))
    assert len(knot) == 412
    return knot


def square_loop_ccw():
    # Corners (+-1, +-1, 0) traversed counterclockwise about +z.
    return LatticeKnot(vertices=((1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)))


class TestSegmentField:
    def test_broadside_analytic_value(self):
        # Unit perpendicular distance from the midpoint of a length-2 stick:
        # cos t1 = cos t2 = 1/sqrt(2), so B = sqrt(2) in the +y direction.
        b = segment_field(Segment((0, 0, -1), (0, 0, 1)), (1.0, 0.0, 0.0))
        assert np.allclose(b, [0.0, math.sqrt(2.0), 0.0], atol=1e-15)

    def test_infinite_wire_limit(self):
        seg = Segment((0, 0, -10 ** 6), (0, 0, 10 ** 6))
        b = segment_field(seg, (1.0, 0.0, 0.0))
        assert abs(np.linalg.norm(b) - 2.0) / 2.0 < 1e-9

    def test_on_axis_beyond_endpoint_is_zero(self):
        b = segment_field(Segment((0, 0, 0), (0, 0, 2)), (0.0, 0.0, 5.0))
        assert (b == 0.0).all()

    def test_point_on_conductor_raises(self):
        with pytest.raises(OnConductorError):
            segment_field(Segment((0, 0, 0), (0, 0, 2)), (0.0, 0.0, 1.0))

    def test_point_near_endpoint_raises(self):
        with pytest.raises(OnConductorError):
            segment_field(Segment((0, 0, 0), (0, 0, 2)), (0.0, 0.0, 2.0 + 1e-9))

    def test_exclusion_radius_configurable(self):
        seg = Segment((0, 0, 0), (0, 0, 2))
        p = (0.05, 0.0, 1.0)
        segment_field(seg, p)
        with pytest.raises(OnConductorError):
            segment_field(seg, p, exclusion_radius=0.1)

    # Each entry at (2, 2, 3) or a loop through it, on the trefoil's stick 1,
    # where a radius of 0 or NaN excludes nothing and returns a value.
    @pytest.mark.parametrize("entry", [
        lambda r: segment_field(Segment((2, 2, 0), (2, 2, 6)), (2, 2, 3), exclusion_radius=r),
        lambda r: segment_field_quadrature(Segment((2, 2, 0), (2, 2, 6)), (2, 2, 3),
                                           exclusion_radius=r),
        lambda r: total_field(canonical_trefoil(), (2, 2, 3), exclusion_radius=r),
        lambda r: total_field_many(canonical_trefoil(), [(2, 2, 3)], exclusion_radius=r),
        lambda r: sample_field(canonical_trefoil(), GridSpec((2, 2, 0), 1, (1, 1, 3)),
                               exclusion_radius=r),
        lambda r: holonomy(canonical_trefoil(), Loop(((2, 2, 3), (3, 2, 3), (3, 3, 3), (2, 3, 3))),
                           exclusion_radius=r),
    ], ids=["segment_field", "segment_field_quadrature", "total_field", "total_field_many",
            "sample_field", "holonomy"])
    @pytest.mark.parametrize("radius", [0.0, -1e-3, math.nan, math.inf])
    def test_exclusion_radius_must_be_finite_and_positive(self, entry, radius):
        with pytest.raises(ValueError, match="exclusion_radius must be finite and > 0"):
            entry(radius)

    def test_k_scales_linearly(self):
        seg = Segment((0, 0, -1), (0, 0, 1))
        b1 = segment_field(seg, (1.0, 2.0, 0.5), k=1.0)
        b2 = segment_field(seg, (1.0, 2.0, 0.5), k=2.0)
        assert np.array_equal(b2, 2.0 * b1)

    def test_overflowing_k_refused(self):
        # |B| = sqrt(2) here, so k = 1.5e308 overflows where k = 1e308 does not.
        seg, p = Segment((0, 0, -1), (0, 0, 1)), (1.0, 0.0, 0.0)
        assert np.isfinite(segment_field(seg, p, k=1e308)).all()
        with pytest.raises(ValueError, match=r"k = 1\.5e\+308 is too large: the result overflows"):
            segment_field(seg, p, k=1.5e308)
        knot = canonical_trefoil(k=1e308)
        with pytest.raises(ValueError, match=r"k = 1e\+308 is too large"):
            total_field(knot, (2.5, 2.1, 1.0))
        with pytest.raises(ValueError, match=r"k = 1e\+308 is too large"):
            total_field_many(knot, [(2.5, 2.1, 1.0), (3.5, 2.1, 1.0)])

    def test_huge_k_keeps_on_conductor_rows_masked(self):
        # The field just inside the exclusion radius overflows at this k;
        # the row is masked, not refused, and the other row is finite.
        b, mask = total_field_many(canonical_trefoil(k=1e302),
                                   [(2.0, 2.0 + 1e-7, 3.0), (4.0, 0.5, 1.0)])
        assert mask.tolist() == [True, False]
        assert np.isnan(b[0]).all() and np.isfinite(b[1]).all()

    def test_near_axis_extension_is_smooth(self):
        # The cancellation-free branch: tiny perpendicular offset far beyond
        # the end must agree with the quadrature oracle, not explode.
        seg = Segment((0, 0, 0), (0, 0, 2))
        p = (1e-7, 0.0, 5.0)
        closed = segment_field(seg, p)
        quad = segment_field_quadrature(seg, p, tol=1e-18)
        assert np.allclose(closed, quad, rtol=1e-10, atol=1e-22)


class TestQuadratureOracle:
    def test_matches_analytic_value(self):
        b = segment_field_quadrature(Segment((0, 0, -1), (0, 0, 1)), (1.0, 0.0, 0.0),
                                     tol=1e-12)
        assert np.allclose(b, [0.0, math.sqrt(2.0), 0.0], atol=1e-11)

    def test_on_conductor_raises(self):
        with pytest.raises(OnConductorError):
            segment_field_quadrature(Segment((0, 0, 0), (0, 0, 2)), (0.0, 0.0, 1.0))

    def test_zero_length_rejected_upstream(self):
        with pytest.raises(ValueError, match="zero-length"):
            Segment((1, 0, 0), (1, 0, 0))

    def test_random_agreement_with_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            seg = random_axis_segment(rng)
            p = random_clear_point(rng, [seg], margin=4.0, clearance=0.5)
            closed = segment_field(seg, p)
            quad = segment_field_quadrature(seg, p, tol=1e-10)
            assert np.max(np.abs(closed - quad)) <= 1e-9   # 10x the quadrature tol

    def test_unreachable_tolerance_raises(self):
        from knotfield.biot_savart import QuadratureError
        with pytest.raises(QuadratureError):
            segment_field_quadrature(Segment((0, 0, -8), (0, 0, 8)), (0.6, 0.0, 0.0),
                                     tol=1e-16, max_depth=1)

    @pytest.mark.parametrize("bounds, match", [
        ({"tol": math.nan}, "tol must be finite and > 0, got nan"),
        ({"tol": -1.0}, "tol must be finite and > 0"),
        ({"tol": 0.0}, "tol must be finite and > 0"),
        ({"tol": math.inf}, "tol must be finite and > 0"),
        ({"max_depth": -1}, "max_depth must be an integer >= 0, got -1"),
        ({"max_depth": 2.5}, "max_depth must be an integer >= 0"),
        ({"max_depth": True}, "max_depth must be an integer >= 0, got True"),
        ({"max_depth": np.bool_(True)}, "max_depth must be an integer >= 0"),
    ], ids=["nan", "negative", "zero", "inf", "depth-negative", "depth-float", "depth-bool",
            "depth-numpy-bool"])
    def test_invalid_bounds_refused(self, bounds, match):
        # The point is on the conductor: the bounds are refused before the
        # kernel is asked about it.
        with pytest.raises(ValueError, match=match):
            segment_field_quadrature(Segment((0, 0, 0), (0, 0, 2)), (0.0, 0.0, 1.0), **bounds)

    def test_numpy_integer_depth_accepted(self):
        """An integer depth is an int or a numpy integer, as a count is in sampling."""
        seg, point = Segment((0, 0, -8), (0, 0, 8)), (0.6, 0.0, 0.0)
        want = segment_field_quadrature(seg, point, max_depth=40)
        assert segment_field_quadrature(seg, point, max_depth=np.int64(40)).tobytes() == \
            want.tobytes()


def field_direction(seg, point):
    b = segment_field(seg, point)
    norm = np.linalg.norm(b)
    if norm == 0.0:
        raise ValueError("field direction undefined on the stick's axis extension")
    return b / norm


class TestGammaWeights:
    """Direction cosines (g1, g2, g3) = phi_hat . e_i of one stick's field."""

    def test_z_parallel(self):
        seg = Segment((0, 0, -3), (0, 0, 3))
        x, y = 0.3, 1.7
        g = field_direction(seg, (x, y, 0.9))
        r = math.hypot(x, y)
        assert np.allclose(g, [-y / r, x / r, 0.0], atol=1e-15)
        assert g[2] == 0.0                      # exactly, not approximately

    def test_x_parallel(self):
        g = field_direction(Segment((0, 0, 0), (5, 0, 0)), (2.0, 3.0, 0.0))
        assert np.allclose(g, [0.0, 0.0, 1.0], atol=1e-15)

    def test_reversal_negates(self):
        p = (0.4, 1.1, 0.2)
        b1 = segment_field(Segment((0, 0, -3), (0, 0, 3)), p)
        b2 = segment_field(Segment((0, 0, 3), (0, 0, -3)), p)
        assert np.allclose(b1, -b2, atol=1e-15)

    def test_on_axis_raises(self):
        # On the axis extension, beyond either end, the field vanishes
        # exactly, so there is no direction to take.
        seg = Segment((0, 0, 0), (0, 0, 2))
        for p in [(0.0, 0.0, 7.0), (0.0, 0.0, -3.0)]:
            assert (segment_field(seg, p) == 0.0).all()
            with pytest.raises(ValueError, match="axis extension"):
                field_direction(seg, p)


class TestSegmentFrame:
    def test_invariants(self):
        # B is azimuthal: perpendicular to the stick and to the point's
        # perpendicular offset rho from the stick's axis.
        rng = np.random.default_rng(3)
        for _ in range(50):
            seg = random_axis_segment(rng)
            p = random_clear_point(rng, [seg], margin=4.0, clearance=0.5)
            start, end = np.array(seg.start, dtype=float), np.array(seg.end, dtype=float)
            uhat = (end - start) / PackedSticks.pack([start], [end]).length[0, 0]
            rho = (p - start) - np.dot(p - start, uhat) * uhat
            g = field_direction(seg, p)
            assert abs(np.dot(g, uhat)) < 1e-12
            assert abs(np.dot(g, rho)) < 1e-9
            # Only the two components transverse to the stick are nonzero.
            assert g[int(seg.axis)] == 0.0


class TestTotalField:
    def test_square_loop_center(self):
        # Each side contributes k * (2/sqrt(2)) / 1 along +z.
        b = total_field(square_loop_ccw(), (0.0, 0.0, 0.0))
        assert np.allclose(b, [0.0, 0.0, 4.0 * math.sqrt(2.0)], atol=1e-14)

    def test_square_loop_center_against_quadrature(self):
        knot = square_loop_ccw()
        expect = sum(
            segment_field_quadrature(s, (0.0, 0.0, 0.0), tol=1e-12)
            for s in segments(knot)
        )
        assert np.allclose(total_field(knot, (0.0, 0.0, 0.0)), expect, atol=1e-10)

    def test_trefoil_at_paper_point_matches_quadrature(self):
        knot = canonical_trefoil()
        p = (5.0, 3.0, 2.0)
        expect = sum(segment_field_quadrature(s, p, tol=1e-12) for s in segments(knot))
        assert np.max(np.abs(total_field(knot, p) - expect)) < 1e-8

    def test_superposition_linearity_exact(self):
        p = (5.0, 3.0, 2.0)
        b1 = total_field(canonical_trefoil(k=1.0), p)
        b2 = total_field(canonical_trefoil(k=2.0), p)
        assert np.array_equal(b2, 2.0 * b1)

    def test_reversing_orientation_negates(self):
        knot = canonical_trefoil()
        rev = LatticeKnot(vertices=tuple(reversed(knot.vertices)), name="rev")
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = random_clear_point(rng, segments(knot), margin=3.0, clearance=0.5)
            assert np.allclose(total_field(knot, p), -total_field(rev, p),
                               rtol=1e-12, atol=1e-15)

    def test_on_conductor_names_segment(self):
        with pytest.raises(OnConductorError) as err:
            total_field(canonical_trefoil(), (2.0, 2.0, 3.0))
        assert err.value.segment_index == 1     # first stick runs (2,2,0) -> (2,2,6)

    def test_on_conductor_names_nearest_stick(self):
        # Within the radius of stick 1, (2,2,0) -> (2,2,6), at 5.0e-7 and of
        # stick 2, which leaves (2,2,6) along y, at 1.005e-7: the nearer wins.
        with pytest.raises(OnConductorError) as err:
            total_field(canonical_trefoil(), (2.0 + 1e-8, 2.0 + 5e-7, 6.0 - 1e-7))
        assert err.value.segment_index == 2
        assert err.value.distance == pytest.approx(1.005e-7, rel=1e-3)

    def test_on_conductor_reports_true_distance(self):
        with pytest.raises(OnConductorError) as err:
            total_field(canonical_trefoil(), (2.0 + 1e-7, 2.0, 3.0))
        assert err.value.segment_index == 1
        assert err.value.distance == pytest.approx(1e-7, rel=1e-6)
        assert "1e-07 from the conductor" in str(err.value)

    def test_degenerate_knot_rejected(self):
        with pytest.raises(ValueError, match="edge 1"):
            total_field(LatticeKnot(vertices=((0, 0, 0), (2, 0, 0), (2, 0, 0), (0, 2, 0))),
                        (5.0, 5.0, 5.0))

    def test_scaling_law(self):
        knot = canonical_trefoil()
        rng = np.random.default_rng(13)
        for factor in (2, 3):
            big = refine(knot, factor)
            for _ in range(20):
                p = random_clear_point(rng, segments(knot), margin=3.0, clearance=0.5)
                b = total_field(knot, p)
                b_scaled = total_field(big, factor * p)
                assert np.max(np.abs(b_scaled - b / factor)) < 1e-9 * np.linalg.norm(b)

    def test_far_field_decays_at_least_quadratically(self):
        # A closed circuit has no monopole or straight-wire 1/r term, so a
        # log-log fit over a decade of distances must give slope <= -2 (the
        # true dipole slope is -3).
        knot = canonical_trefoil()
        center = np.array([3.0, 3.0, 3.0])
        direction = np.array([1.0, 0.7, -0.4])
        direction /= np.linalg.norm(direction)
        diameter = 6.0 * math.sqrt(3.0)
        radii = np.geomspace(100 * diameter, 1000 * diameter, 8)
        mags = [np.linalg.norm(total_field(knot, center + r * direction)) for r in radii]
        slope = np.polyfit(np.log(radii), np.log(mags), 1)[0]
        assert slope <= -2.0

    def test_many_matches_single(self, closure_412):
        knot = canonical_trefoil()
        pts = np.array([[5.0, 3.0, 2.0], [-1.0, -1.0, -1.0], [3.0, 3.0, 7.0]])
        b, mask = total_field_many(knot, pts)
        assert not mask.any()
        for row, p in zip(b, pts):
            assert np.array_equal(row, total_field(knot, p))
        # Many sticks and enough points for several kernel tiles: each row
        # is bit for bit the one-point sum, whatever tile it landed in.
        knot = closure_412
        pts = np.random.default_rng(2).uniform((-8, -2, 0), (168, 4, 14), size=(400, 3))
        b, mask = total_field_many(knot, pts)
        assert not mask.any()
        for row, p in zip(b, pts):
            assert row.tobytes() == total_field(knot, p).tobytes()

    def test_many_memory_is_per_tile(self, closure_412):
        # The kernel's temporaries are bounded by its tile and it keeps one
        # clearance per point, so a 4096-point batch on 412 sticks needs a
        # few MB, not the 13.5 MB of a (4096, 412) distance array.
        knot = closure_412
        pts = np.random.default_rng(3).uniform((-8, -2, 0), (168, 4, 14), size=(4096, 3))
        total_field_many(knot, pts[:1])          # pack the circuit first
        tracemalloc.start()
        try:
            total_field_many(knot, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_far_point_is_exact_zero(self):
        # The true field underflows; overflowing intermediates give exact
        # zeros, with no RuntimeWarning.
        knot = canonical_trefoil()
        assert (total_field(knot, (1e200, 0.0, 0.0)) == 0.0).all()
        b, mask = total_field_many(knot, [[1e200, 0, 0], [0, -1e300, 3], [1e300, 1e300, -1e300]])
        assert (b == 0.0).all() and not mask.any()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_point_rejected(self, bad):
        knot = canonical_trefoil()
        with pytest.raises(ValueError, match="not finite"):
            total_field(knot, (bad, 0.0, 0.0))
        with pytest.raises(ValueError, match=r"point 1 \(5\.0, .*\) is not finite"):
            total_field_many(knot, [[1.0, 1.0, 1.0], [5.0, bad, 2.0], [bad, 0.0, 0.0]])

    def test_many_masks_on_conductor(self):
        knot = canonical_trefoil()
        pts = np.array([[2.0, 2.0, 3.0], [5.0, 3.0, 2.0]])
        b, mask = total_field_many(knot, pts)
        assert mask.tolist() == [True, False]
        assert np.isnan(b[0]).all()
        assert np.isfinite(b[1]).all()


class TestKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(axis=st.integers(0, 2), sign=st.sampled_from([1, -1]),
           start=st.tuples(*[st.integers(-6, 6)] * 3), length=st.integers(1, 8),
           region=st.sampled_from(["broadside", "before", "after",
                                   "near-axis-before", "near-axis-after"]),
           u=st.floats(0.0, 1.0), log_r=st.floats(-12.0, 0.7), on_axis=st.booleans(),
           angle=st.floats(0.0, 2 * math.pi))
    def test_matches_quadrature_in_every_orientation(self, axis, sign, start, length, region,
                                                     u, log_r, on_axis, angle):
        # A stick along sign * e_axis, and a point at axial offset s along
        # the flow from the start and distance r off the axis: broadside,
        # beyond either end, or within 1e-3 of the axis extension.  Every
        # point is at least 0.05 from the stick.
        end = list(start)
        end[axis] += sign * length
        seg = Segment(start, tuple(end))
        r = 10.0 ** log_r
        if region == "broadside":
            s, r = u * length, 0.05 + r
        else:
            s = -0.05 - 5 * u if region.endswith("before") else length + 0.05 + 5 * u
            if region.startswith("near-axis"):
                r = 0.0 if on_axis else min(r, 1e-3)
        p = np.array(start, dtype=float)
        p[axis] += sign * s
        p[(axis + 1) % 3] += r * math.cos(angle)
        p[(axis + 2) % 3] += r * math.sin(angle)
        closed = segment_field(seg, p)
        scale = float(np.linalg.norm(closed))
        # On the axis extension the field is an exact zero, and tol must be > 0.
        quad = segment_field_quadrature(seg, p, tol=1e-13 * scale or 1e-13)
        assert np.max(np.abs(closed - quad)) <= 1e-9 * scale


@functools.cache
def contract_knot(name):
    if name.startswith("braid"):
        return close_braid_on_lattice(parse_braid(BRAID_40 if name == "braid40" else BRAID_20))
    return {"3_1": canonical_trefoil, "4_1": canonical_figure_eight}[name]()


def clamp_oracle(knot, points):
    """Each point's distance |p - clip(p, lo, hi)| to its nearest stick, one
    stick at a time, and that stick's lowest index."""
    starts, ends = stick_ends(knot)
    lo, hi = np.minimum(starts, ends), np.maximum(starts, ends)
    with np.errstate(over="ignore"):
        dist = np.linalg.norm(points[:, None] - np.clip(points[:, None], lo, hi), axis=2)
    return dist.min(axis=1), dist.argmin(axis=1)


@st.composite
def contract_cases(draw):
    """A closure of 412 or 212 sticks or a canonical knot, and up to 200
    points: on a stick, at or near a vertex (where two sticks tie), on a
    stick's axis extension, far enough that distances overflow, or random."""
    knot = contract_knot(draw(st.sampled_from(["braid40", "braid20", "3_1", "4_1"])))
    starts, ends = stick_ends(knot)
    lo, hi = starts.min(axis=0) - 3.0, starts.max(axis=0) + 3.0
    unit = st.floats(0.0, 1.0)
    points = []
    for _ in range(draw(st.integers(1, 200))):
        j = draw(st.integers(0, len(starts) - 1))
        s, e = starts[j], ends[j]
        kind = draw(st.sampled_from(["on", "vertex", "near-vertex", "extension", "far", "random"]))
        if kind == "on":
            p = s + draw(unit) * (e - s)
        elif kind == "vertex":
            p = s
        elif kind == "near-vertex":
            p = s + np.array(draw(st.tuples(*[st.floats(-1e-3, 1e-3)] * 3)))
        elif kind == "extension":
            t = draw(st.floats(1.0, 4.0))
            p = s + t * (e - s) if draw(st.booleans()) else e + t * (s - e)
        elif kind == "far":
            p = np.array(draw(st.tuples(*[st.sampled_from([-1e200, 0.0, 3.5, 1e200])] * 3)))
            p[draw(st.integers(0, 2))] = 1e200
        else:
            p = lo + np.array(draw(st.tuples(unit, unit, unit))) * (hi - lo)
        points.append(p)
    return knot, np.array(points, dtype=float)


class TestClearanceContract:
    @settings(max_examples=60, deadline=None)
    @given(case=contract_cases())
    def test_near_and_nearest_match_clamp_oracle(self, case):
        knot, points = case
        _, near, nearest = _stick_field(knot.sticks, points)
        want_near, want_nearest = clamp_oracle(knot, points)
        assert near.tobytes() == want_near.tobytes()
        assert nearest.tolist() == want_nearest.tolist()
