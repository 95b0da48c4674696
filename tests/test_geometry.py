import numpy as np
import pytest

from knotfield.geometry import (
    Axis,
    LatticeKnot,
    PackedSticks,
    Segment,
    bounding_box,
    canonical_figure_eight,
    canonical_trefoil,
    format_knot,
    parse_knot_text,
    read_knot_file,
    refine,
    segments,
    stick_ends,
    validate,
)


def square_loop():
    return LatticeKnot(vertices=((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)), name="square")


def test_square_loop_validates():
    report = validate(square_loop())
    assert report.ok
    assert report.violations == ()


def test_open_path_diagonal_closure_flagged():
    # Closing edge (2,2,0) -> (0,0,0) is diagonal.
    knot = LatticeKnot(vertices=((0, 0, 0), (2, 0, 0), (2, 2, 0)))
    report = validate(knot)
    assert not report.ok
    assert any("not axis-aligned" in v for v in report.violations)


def test_crossing_edges_flagged():
    # Edge 0 runs along y=0 and edge 3 crosses it at (1, 0, 0).
    knot = LatticeKnot(
        vertices=((0, 0, 0), (3, 0, 0), (3, 2, 0), (1, 2, 0), (1, -1, 0), (0, -1, 0))
    )
    report = validate(knot)
    assert not report.ok
    assert any("self-intersection" in v and "(1, 0, 0)" in v for v in report.violations)


def test_overlapping_edges_flagged():
    knot = LatticeKnot(vertices=((0, 0, 0), (4, 0, 0), (4, 2, 0), (2, 2, 0),
                                 (2, 0, 0), (6, 0, 0), (6, 4, 0), (0, 4, 0)))
    report = validate(knot)
    assert not report.ok
    assert any("self-intersection" in v or "overlap" in v for v in report.violations)


def test_collinear_interior_vertex_flagged():
    knot = LatticeKnot(vertices=((0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)))
    report = validate(knot)
    assert not report.ok
    assert any("not a corner" in v for v in report.violations)


def test_corners_reported_in_edge_order():
    # Vertex 0 lies between the last edge and edge 0, so it is reported last.
    knot = LatticeKnot(vertices=((0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 2, 0),
                                 (-1, 2, 0), (-1, 0, 0)))
    assert validate(knot).violations == (
        "vertex 1 (1, 0, 0) is not a corner (edges 0,1 collinear)",
        "vertex 0 (0, 0, 0) is not a corner (edges 5,0 collinear)",
    )


def test_repeated_vertex_flagged():
    knot = LatticeKnot(vertices=((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0),
                                 (0, 0, 0), (2, 0, 0)))
    assert any("repeated vertex" in v for v in validate(knot).violations)


def test_zero_length_edge_flagged():
    knot = LatticeKnot(vertices=((0, 0, 0), (0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)))
    assert any("zero length" in v for v in validate(knot).violations)


def test_non_integer_coordinates_flagged():
    knot = LatticeKnot(vertices=((0, 0, 0.5), (2, 0, 0), (2, 2, 0), (0, 2, 0)))
    assert any("non-integer" in v for v in validate(knot).violations)
    # A vertex without three coordinates is reported the same way, not
    # raised, and the edges that touch it are left out of the edge checks.
    knot = LatticeKnot(vertices=((0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)))
    assert validate(knot).violations == ("vertex 0 (0, 0) has non-integer coordinates",)


def test_out_of_int64_coordinates_flagged():
    big, small = 2**63, -(2**63) - 1
    knot = LatticeKnot(vertices=((0, 0, 0), (big, 0, 0), (big, 2, 0), (0, 2, 0)))
    assert validate(knot).violations == (
        f"vertex 1 ({big}, 0, 0) has a coordinate outside the int64 range",
        f"vertex 2 ({big}, 2, 0) has a coordinate outside the int64 range",
    )
    # The flagged vertex's edges are left out of the edge and pair checks,
    # so the diagonal closing edge into it is not reported as well.
    knot = LatticeKnot(vertices=((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, small)))
    assert validate(knot).violations == (
        f"vertex 3 (0, 2, {small}) has a coordinate outside the int64 range",)
    # The int64 limits themselves are in range.
    lo, hi = -(2**63), 2**63 - 1
    assert validate(LatticeKnot(vertices=((lo, 0, hi), (hi, 0, hi), (hi, 2, hi),
                                          (lo, 2, hi)))).ok


def test_too_few_vertices_flagged():
    assert any("too few" in v for v in validate(LatticeKnot(vertices=((0, 0, 0),))).violations)


def test_validate_is_pure_and_repeatable():
    k1 = canonical_trefoil()
    k2 = canonical_trefoil()
    assert validate(k1) == validate(k2) == validate(k1)


class TestCanonicalKnots:
    def test_trefoil_vertex_cycle(self):
        knot = canonical_trefoil()
        assert knot.vertices[0] == (2, 2, 0)      # fiducial starting site
        assert len(knot.vertices) == 12

    def test_trefoil_validates(self):
        assert validate(canonical_trefoil()).ok

    def test_trefoil_segments_four_per_axis(self):
        segs = segments(canonical_trefoil())
        assert len(segs) == 12
        for ax in Axis:
            assert sum(1 for s in segs if s.axis == ax) == 4

    def test_trefoil_first_segment(self):
        seg = segments(canonical_trefoil())[0]
        assert seg.start == (2, 2, 0)
        assert seg.index == 1

    def test_figure_eight_validates(self):
        assert validate(canonical_figure_eight()).ok

    def test_figure_eight_counts(self):
        segs = segments(canonical_figure_eight())
        assert len(segs) == 14
        by_axis = {ax: sum(1 for s in segs if s.axis == ax) for ax in Axis}
        assert by_axis == {Axis.X: 4, Axis.Y: 6, Axis.Z: 4}

    def test_figure_eight_z_segment_at_4_6(self):
        # The z-parallel stick with transverse coordinates (x, y) = (4, 6)
        # spans z in [0, 4].
        segs = [s for s in segments(canonical_figure_eight())
                if s.axis == Axis.Z and (s.start[0], s.start[1]) == (4, 6)]
        assert len(segs) == 1
        assert sorted(segs[0].span) == [0, 4]

    def test_closure_sum_zero(self):
        for knot in (canonical_trefoil(), canonical_figure_eight()):
            total = np.zeros(3, dtype=int)
            for s in segments(knot):
                total += np.array(s.end) - np.array(s.start)
            assert (total == 0).all()

    def test_segments_concatenate_to_cycle(self):
        knot = canonical_figure_eight()
        segs = segments(knot)
        for a, b in zip(segs, segs[1:]):
            assert a.end == b.start
        assert segs[-1].end == segs[0].start
        assert [s.index for s in segs] == list(range(1, 15))


class TestSegment:
    def test_axis_and_sign(self):
        seg = Segment((1, 2, 3), (1, 2, 7))
        assert seg.axis == Axis.Z
        assert seg.direction_sign == 1
        assert PackedSticks.pack([seg.start], [seg.end]).length.tolist() == [[4.0]]
        assert seg.transverse == ((Axis.X, 1), (Axis.Y, 2))

    def test_reversed_sign(self):
        assert Segment((0, 5, 0), (0, 1, 0)).direction_sign == -1

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="zero-length"):
            Segment((1, 1, 1), (1, 1, 1))

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError, match="axis-aligned"):
            Segment((0, 0, 0), (1, 1, 0))

    def test_stick_ends_are_the_segments(self):
        for knot in (canonical_trefoil(), canonical_figure_eight(), square_loop()):
            starts, ends = stick_ends(knot)
            segs = segments(knot)
            assert starts.dtype == ends.dtype == np.float64
            assert starts.tolist() == [list(s.start) for s in segs]
            assert ends.tolist() == [list(s.end) for s in segs]
        with pytest.raises(ValueError, match="edge 2 "):
            stick_ends(LatticeKnot(vertices=((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 1))))

    def test_stick_ends_are_cached_and_read_only(self):
        knot = canonical_trefoil()
        starts, ends = stick_ends(knot)
        assert stick_ends(knot)[0] is starts and stick_ends(knot)[1] is ends
        for a in (starts, ends):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 99.0
        assert starts.tolist() == [list(s.start) for s in segments(knot)]

    def test_invalid_knot_raises_on_every_call(self):
        knot = LatticeKnot(vertices=((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 1)))
        for get in (stick_ends, stick_ends, lambda k: k.sticks, lambda k: k.sticks):
            with pytest.raises(ValueError, match="edge 2 "):
                get(knot)


class TestRefine:
    def test_identity(self):
        knot = canonical_trefoil()
        assert refine(knot, 1) == knot

    def test_square_side_doubles(self):
        big = refine(square_loop(), 2)
        assert big.vertices == ((0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0))
        assert validate(big).ok

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            refine(square_loop(), 0)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            refine(square_loop(), 1.5)

    def test_segments_scale(self):
        knot = canonical_trefoil()
        orig = segments(knot)
        scaled = segments(refine(knot, 3))
        assert len(orig) == len(scaled)
        for a, b in zip(orig, scaled):
            assert tuple(3 * c for c in a.start) == b.start
            assert tuple(3 * c for c in a.end) == b.end

    def test_refined_canonicals_validate(self):
        assert validate(refine(canonical_trefoil(), 2)).ok
        assert validate(refine(canonical_figure_eight(), 5)).ok


class TestKnotFiles:
    def test_round_trip(self, tmp_path):
        knot = canonical_figure_eight()
        path = tmp_path / "f8.txt"
        path.write_text(format_knot(knot, header_comments=("a comment",)), encoding="ascii")
        back = read_knot_file(path, name=knot.name)
        assert back.vertices == knot.vertices

    def test_comments_and_blank_lines(self):
        text = "# heading\n\n0 0 0\n2 0 0  # inline\n\n2 2 0\n0 2 0\n"
        knot = parse_knot_text(text)
        assert knot.vertices == ((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0))

    def test_bad_field_count(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_knot_text("0 0 0\n1 2\n")

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_knot_text("0 0 0.5\n")

    def test_format_is_ascii(self):
        format_knot(canonical_trefoil()).encode("ascii")


def test_bounding_box():
    assert bounding_box(canonical_trefoil()) == ((0, 0, 0), (6, 6, 6))
    assert bounding_box(canonical_figure_eight()) == ((0, 0, 0), (6, 10, 6))
