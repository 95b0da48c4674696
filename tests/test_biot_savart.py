import math

import numpy as np
import pytest

from knotfield.geometry import LatticeKnot, Segment, canonical_trefoil, refine, segments
from knotfield.biot_savart import (
    OnConductorError,
    segment_field,
    segment_field_quadrature,
    total_field,
    total_field_many,
)
from knotfield.verification import random_axis_segment, random_clear_point


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

    def test_k_scales_linearly(self):
        seg = Segment((0, 0, -1), (0, 0, 1))
        b1 = segment_field(seg, (1.0, 2.0, 0.5), k=1.0)
        b2 = segment_field(seg, (1.0, 2.0, 0.5), k=2.0)
        assert np.array_equal(b2, 2.0 * b1)

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
            uhat = (end - start) / seg.length
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

    def test_many_matches_single(self):
        knot = canonical_trefoil()
        pts = np.array([[5.0, 3.0, 2.0], [-1.0, -1.0, -1.0], [3.0, 3.0, 7.0]])
        b, mask = total_field_many(knot, pts)
        assert not mask.any()
        for row, p in zip(b, pts):
            assert np.array_equal(row, total_field(knot, p))

    def test_many_masks_on_conductor(self):
        knot = canonical_trefoil()
        pts = np.array([[2.0, 2.0, 3.0], [5.0, 3.0, 2.0]])
        b, mask = total_field_many(knot, pts)
        assert mask.tolist() == [True, False]
        assert np.isnan(b[0]).all()
        assert np.isfinite(b[1]).all()
