"""Reference oracles: the pairwise scans ``validate`` and ``projection_crossings``
ran before their sort-and-search versions, kept verbatim apart from names.

``scan_validate`` compares every pair of edges' bounding boxes and
``scan_projection_crossings`` every pair of projected edges, both in
O(N^2) pure Python.  They share no code with the engine's versions, so the
property tests in ``test_scan_oracle.py`` check the engine against them.
"""

from knotfield.braids import PlacementError, ProjectedCrossing
from knotfield.geometry import Axis, LatticeKnot, ValidationReport


def _edge_box(a, b):
    return tuple(min(a[i], b[i]) for i in range(3)), tuple(max(a[i], b[i]) for i in range(3))


def _boxes_intersection(box1, box2):
    """Intersection of two axis-aligned boxes, or None if empty."""
    lo = tuple(max(box1[0][i], box2[0][i]) for i in range(3))
    hi = tuple(min(box1[1][i], box2[1][i]) for i in range(3))
    if any(lo[i] > hi[i] for i in range(3)):
        return None
    return lo, hi


def scan_validate(knot: LatticeKnot) -> ValidationReport:
    """Check every structural invariant of a lattice knot.

    Violations are returned as data, never raised: degenerate input is a
    reportable condition, not an exception.  Each violation names the
    offending vertex or edge pair.
    """
    v = knot.vertices
    n = len(v)
    violations = []

    if n < 4:
        violations.append(f"too few vertices: {n} < 4")

    bad_vertices = set()
    for i, p in enumerate(v):
        if len(p) != 3 or any(not isinstance(c, int) or isinstance(c, bool) for c in p):
            violations.append(f"vertex {i} {p} has non-integer coordinates")
            bad_vertices.add(i)

    seen = {}
    for i, p in enumerate(v):
        if p in seen:
            violations.append(f"repeated vertex {p} at positions {seen[p]} and {i}")
        else:
            seen[p] = i

    # Edge-level checks; edges that fail here, or touch a vertex flagged
    # above, are excluded from the pair scan.
    good_edges = {}
    for i in range(n):
        if {i, (i + 1) % n} & bad_vertices:
            continue
        a, b = v[i], v[(i + 1) % n]
        diffs = [b[c] - a[c] for c in range(3)]
        moving = [c for c in range(3) if diffs[c] != 0]
        if not moving:
            violations.append(f"edge {i} {a}->{b} has zero length")
        elif len(moving) > 1:
            violations.append(f"edge {i} {a}->{b} not axis-aligned")
        else:
            good_edges[i] = (a, b, moving[0])

    # True corners only: consecutive edges must change axis.
    for i in range(n):
        j = (i + 1) % n
        if i in good_edges and j in good_edges and good_edges[i][2] == good_edges[j][2]:
            violations.append(
                f"vertex {j} {v[j]} is not a corner (edges {i},{j} collinear)"
            )

    # Self-avoidance: an axis-aligned segment equals its bounding box, so
    # segment intersection reduces to box intersection.
    idx = sorted(good_edges)
    for a_pos in range(len(idx)):
        for b_pos in range(a_pos + 1, len(idx)):
            i, j = idx[a_pos], idx[b_pos]
            adjacent = (j - i == 1) or (i == 0 and j == n - 1)
            bi = _edge_box(good_edges[i][0], good_edges[i][1])
            bj = _edge_box(good_edges[j][0], good_edges[j][1])
            inter = _boxes_intersection(bi, bj)
            if inter is None:
                continue
            if adjacent:
                shared = v[j] if j - i == 1 else v[0]
                if inter != (shared, shared):
                    violations.append(f"consecutive edges {i},{j} overlap beyond {shared}")
            else:
                lo, hi = inter
                where = lo if lo == hi else f"{lo}..{hi}"
                violations.append(f"self-intersection: edges {i} and {j} meet at {where}")

    return ValidationReport(ok=not violations, violations=tuple(violations))


def scan_projection_crossings(knot: LatticeKnot, view_axis: Axis = Axis.Y) -> tuple[ProjectedCrossing, ...]:
    """Scan the projection along ``view_axis`` for transverse double points.

    The viewer sits at -infinity on the view axis, so of two edges meeting
    in projection the one with the smaller view-axis coordinate is in front.
    Only strict interior-interior transverse intersections count; endpoint
    touches are where a strand changes face and are not crossings.  Any
    collinear overlap in projection means the layout is broken and raises
    PlacementError.
    """
    va = int(view_axis)
    h_ax, v_ax = [i for i in range(3) if i != va]

    v = knot.vertices
    n = len(v)
    edges = []
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        if a[h_ax] == b[h_ax] and a[v_ax] == b[v_ax]:
            continue                       # parallel to the view axis
        edges.append((i, a, b))

    def span(a, b, ax):
        return (min(a[ax], b[ax]), max(a[ax], b[ax]))

    crossings = []
    for p in range(len(edges)):
        i, a1, b1 = edges[p]
        for q in range(p + 1, len(edges)):
            j, a2, b2 = edges[q]
            horiz1 = a1[v_ax] == b1[v_ax]
            horiz2 = a2[v_ax] == b2[v_ax]
            if horiz1 == horiz2:
                # Parallel in projection: any shared interior is an overlap.
                fixed_ax, run_ax = (v_ax, h_ax) if horiz1 else (h_ax, v_ax)
                if a1[fixed_ax] == a2[fixed_ax]:
                    lo1, hi1 = span(a1, b1, run_ax)
                    lo2, hi2 = span(a2, b2, run_ax)
                    if max(lo1, lo2) < min(hi1, hi2):
                        raise PlacementError(
                            f"edges {i} and {j} overlap in projection"
                        )
                continue
            (hi_, ha, hb), (vi_, va_, vb) = ((i, a1, b1), (j, a2, b2)) if horiz1 \
                else ((j, a2, b2), (i, a1, b1))
            hx_lo, hx_hi = span(ha, hb, h_ax)
            vz_lo, vz_hi = span(va_, vb, v_ax)
            x_cross, z_cross = va_[h_ax], ha[v_ax]
            if not (hx_lo < x_cross < hx_hi and vz_lo < z_cross < vz_hi):
                continue
            y_h, y_v = ha[va], va_[va]
            if y_h == y_v:
                raise PlacementError(
                    f"edges {hi_} and {vi_} cross at equal depth {y_h}"
                )
            over, under = ((hi_, ha, hb), (vi_, va_, vb)) if y_h < y_v \
                else ((vi_, va_, vb), (hi_, ha, hb))

            def tangent(a, b):
                t = [0, 0, 0]
                ax = [k for k in range(3) if a[k] != b[k]][0]
                t[ax] = 1 if b[ax] > a[ax] else -1
                return t

            to, tu = tangent(over[1], over[2]), tangent(under[1], under[2])
            cross = [
                to[1] * tu[2] - to[2] * tu[1],
                to[2] * tu[0] - to[0] * tu[2],
                to[0] * tu[1] - to[1] * tu[0],
            ]
            sign = -cross[va]              # viewer normal is -e_view
            crossings.append(
                ProjectedCrossing(
                    position=(x_cross, z_cross),
                    sign=sign,
                    over_edge=over[0],
                    under_edge=under[0],
                )
            )
    return tuple(sorted(crossings, key=lambda c: c.position))
