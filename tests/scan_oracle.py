"""Reference oracles: the pairwise scans ``validate`` and ``projection_crossings``
ran before their sort-and-search versions, the one-edge-at-a-time scan
``loop_clearance`` ran before its single (edge, stick) pass, the one-loop
``scan_linking_number`` that ``linking_number`` ran before the loops of a
batch shared one pass over their (edge, stick) rows and before that pass
took x, y and z arrays in place of ``np.cross`` and ``np.linalg.norm``
over (..., 3) arrays, with its ``_unit_normals``, and the
one-point-at-a-time ``random_clear_point`` and self-check suites that
``verify`` ran before it drew and evaluated each suite's points in a few
kernel calls, and ``scan_stick_field``, the tile driver as it built
each tile's (N, 3, M) field buffer before the point drivers shared one
per-axis term, kept verbatim apart from names; and level-by-level,
one-panel-at-a-time versions of the adaptive bisection that
``segment_field_quadrature`` and ``holonomy`` run a depth at a time over
every row or (edge, stick) pair at once.

``scan_validate`` compares every pair of edges' bounding boxes and
``scan_projection_crossings`` every pair of projected edges, both in
O(N^2) pure Python; ``scan_loop_clearance`` walks the loop's edges in a
Python loop.  ``scan_segment_field_quadrature`` and ``scan_holonomy`` scan
one panel at a time, a level at a time, in ``bisect_levels``, with one
kernel call per panel.  They share no code with
the engine's versions beyond the kernel and the refusals, so the property
tests in ``test_scan_oracle.py`` check the engine against them.
``scan_random_clear_point`` draws one candidate per kernel call, and
``scan_suite_segment_kernel``, ``scan_suite_flatness`` and
``scan_suite_scaling`` draw and evaluate one pair or point at a time, and
``scan_suite_holonomy_linking`` and ``scan_suite_refined_holonomy`` draw
their loops and call ``holonomy`` one loop at a time, where the suites
draw them once and refine every loop's edges together;
``scan_segment_pairs`` draws the kernel suite's sticks with its array
calls and its points one row at a time, which gives the bits of the
suite's one ``uniform`` call per round, judging each row with
``segment_field``; it picks each stick's end from the list of lattice
values, where the suite maps its draw with one comparison.
``random_axis_segment`` draws a stick with scalar ``Generator`` calls,
rejecting an end outside the box, for tests that want sticks of that
distribution from a generator of their own.
``scan_discrepancy_ledger`` is the transcription ledger from before the
engine's side became the derived term table: it builds each stick's
expected term as a set of bracket atoms from a parity table, and shares
only the printed-term canonicalisation with the engine's ledger.
``scan_write_csv``, ``scan_write_jsonl`` and ``scan_write_vtk`` are the
writers from before they formatted each block with one ``%``: they format a
row at a time with f-strings and spell every coordinate with ``repr``.
``dumps_write_jsonl`` writes each row with ``json.dumps``: the JSON-lines
writer before it formatted blocks, and the reference for JSON spelling.
``piercing_count`` is a third answer for a planar polygon's linking
number, beside holonomy and the Gauss sum: the signed count of sticks
through its flat disc, weighted by the polygon's winding number, in
``Fraction``s, or None when a stick meets the disc otherwise.
``scan_loop_clearance`` puts a pair that meets at exactly 0 by the clamped
closest points in ``Fraction``s, and ``scan_linking_number`` takes each
pair's sign from the full triple product, in ``Fraction``s wherever its
float value is within 2^-40 of its terms' size: the engine's one lattice
predicate reached by general 3-D rules of its own.
"""

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from knotfield.biot_savart import (
    DEFAULT_EXCLUSION_RADIUS,
    OnConductorError,
    QuadratureError,
    _TILE_PAIRS,
    _WG,
    _WK,
    _XK,
    _finite,
    _pair_terms,
    _quadrature,
    _stick_field,
    segment_field,
    total_field,
)
from knotfield.braids import PlacementError, ProjectedCrossing
from knotfield.geometry import (
    CANONICAL,
    Axis,
    LatticeKnot,
    PackedSticks,
    Segment,
    ValidationReport,
    refine,
    segments,
    stick_ends,
)
from knotfield.sampling import CSV_HEADER, FieldSample, _BLOCK_ROWS
from knotfield.topology import (
    HolonomyResult,
    LinkingPrecisionError,
    Loop,
    LoopOnConductorError,
    holonomy,
    linking_number,
    loop_clearance,
)
from knotfield.transcription import (
    _AXES,
    LedgerEntry,
    TERM_TABLES,
    TranscribedTerm,
    TranscriptionLedger,
    _canon_numerator,
    _canon_squared,
    _fmt_rad,
    _printed_atoms,
)
from knotfield.verification import random_rect_loop


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
        elif any((c if c >= 0 else ~c).bit_length() > 63 for c in p):    # int64: 63 bits and a sign
            violations.append(f"vertex {i} {p} has a coordinate outside the int64 range")
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


def _segment_segment_distances(p0, p1, q0s, q1s):
    """Distance from one segment (p0, p1) to each of N segments (q0s, q1s).

    Standard clamped closest-point computation between segment pairs, with
    the parallel case resolved by the same clamping iteration.  Coordinates
    too large to square overflow to inf or NaN silently; the caller refuses
    non-finite distances.
    """
    with np.errstate(all="ignore"):
        d1 = p1 - p0                       # (3,)
        d2 = q1s - q0s                     # (N, 3)
        r = p0[None, :] - q0s              # (N, 3)
        a = float(np.dot(d1, d1))
        e = np.einsum("nc,nc->n", d2, d2)
        f = np.einsum("nc,nc->n", d2, r)
        c = r @ d1
        b = d2 @ d1
        denom = a * e - b * b
        s = np.where(denom > 0.0, np.clip((b * f - c * e) / denom, 0.0, 1.0), 0.0)
        t = (b * s + f) / e
        # Clamp t, then recompute s against the clamped t where needed.
        s = np.where(t < 0.0, np.clip(-c / a, 0.0, 1.0),
                     np.where(t > 1.0, np.clip((b - c) / a, 0.0, 1.0), s))
        t = np.clip(t, 0.0, 1.0)
        closest1 = p0[None, :] + s[:, None] * d1[None, :]
        closest2 = q0s + t[:, None] * d2
        return np.linalg.norm(closest1 - closest2, axis=1)


def _exact_meets(p0, p1, q0, q1):
    """Whether segments p0-p1 and q0-q1 share a point: the closest points of
    the standard clamped computation (Ericson, *Real-Time Collision
    Detection*, 2005, 5.1.9), in ``Fraction``s, coincide."""
    p0, p1, q0, q1 = ([Fraction(x) for x in v] for v in (p0, p1, q0, q1))
    dot = lambda u, v: sum(x * y for x, y in zip(u, v))
    d1, d2 = [y - x for x, y in zip(p0, p1)], [y - x for x, y in zip(q0, q1)]
    r = [x - y for x, y in zip(p0, q0)]
    a, e, f, c, b = dot(d1, d1), dot(d2, d2), dot(d2, r), dot(d1, r), dot(d1, d2)
    clamp = lambda x: min(max(x, 0), 1)
    s = clamp((b * f - c * e) / (a * e - b * b)) if a * e != b * b else 0
    t = (b * s + f) / e
    if not 0 <= t <= 1:
        s, t = (clamp(-c / a), 0) if t < 0 else (clamp((b - c) / a), 1)
    return all(x + s * u == y + t * v for x, u, y, v in zip(p0, d1, q0, d2))


def scan_loop_clearance(knot: LatticeKnot, loop: Loop):
    """Minimum distance from each loop edge to the circuit.

    Returns (clearance, (loop_edge, segment_index)) for the closest approach.
    A pair that meets, by ``_exact_meets`` on every pair of finite
    coordinates whose float distance is not above 2^-30 of their size, is at
    exactly 0.  Raises LinkingPrecisionError when a distance is not finite,
    since the loop is then not representable and its closest approach is
    unknown.
    """
    starts, ends = stick_ends(knot)
    best = math.inf
    where = (0, 1)
    v = [np.asarray(p, dtype=float) for p in loop.vertices]
    for i, (a, b) in enumerate((v[i], v[(i + 1) % len(v)]) for i in range(len(v))):
        d = _segment_segment_distances(a, b, starts, ends)
        if np.isfinite([a, b]).all():
            size = 1.0 + max(np.abs([a, b]).max(), np.abs(starts).max())
            for j in np.flatnonzero(~(d > 2.0 ** -30 * size)):
                if _exact_meets(a, b, starts[j], ends[j]):
                    d[j] = 0.0
        bad = np.flatnonzero(~np.isfinite(d))
        if bad.size:
            raise LinkingPrecisionError(
                f"loop edge {i} is not representable: its distance to circuit "
                f"segment {bad[0] + 1} evaluates to {d[bad[0]]}"
            )
        j = int(np.argmin(d))
        if d[j] < best:
            best = float(d[j])
            where = (i, j + 1)
    return best, where


def _triple_signs(p0, p1, q0, q1):
    """sign(((q1-q0) x (p1-p0)) . (q0-p0)) over broadcast (..., 3) arrays of
    finite coordinates, exact: the float product where it exceeds 2^-40 of
    the sum of its terms' magnitudes, far above its rounding, else the same
    product in ``Fraction``s."""
    u, d, r = np.broadcast_arrays(q1 - q0, p1 - p0, q0 - p0)
    with np.errstate(all="ignore"):
        t = np.sum(np.cross(u, d) * r, axis=-1)
        size = np.sum((np.abs(u[..., [1, 2, 0]] * d[..., [2, 0, 1]])
                       + np.abs(u[..., [2, 0, 1]] * d[..., [1, 2, 0]])) * np.abs(r), axis=-1)
    sign = np.sign(t) + 0.0
    p0, p1, q0, q1 = np.broadcast_arrays(p0, p1, q0, q1)
    for k in zip(*np.nonzero(~(np.abs(t) > 2.0 ** -40 * size))):
        a, b, c, e = ([Fraction(x) for x in v[k]] for v in (p0, p1, q0, q1))
        uu, dd, rr = ([y - x for x, y in zip(m, n)] for m, n in ((c, e), (a, b), (a, c)))
        exact = sum(x * y for x, y in zip(
            (uu[1] * dd[2] - uu[2] * dd[1], uu[2] * dd[0] - uu[0] * dd[2],
             uu[0] * dd[1] - uu[1] * dd[0]), rr))
        sign[k] = (exact > 0) - (exact < 0)
    return sign


def _unit_normals(a, b):
    """Unit vectors along a x b; zero where a and b are parallel.  Each cross
    product is first scaled by 2^-e, e the exponent of its largest
    |component|, as ``linking_number`` scales it."""
    c = np.cross(a, b)
    c = np.ldexp(c, -np.frexp(np.abs(c).max(axis=-1, keepdims=True))[1])
    norm = np.linalg.norm(c, axis=-1, keepdims=True)
    return np.divide(c, norm, out=np.zeros_like(c), where=norm > 0.0)


def scan_linking_number(knot: LatticeKnot, loop: Loop):
    """``linking_number`` of one loop as it was summed before the loops of a
    batch shared one pass, with the Gauss sum / 4*pi it rounds: (Lk, total)."""
    clear, (i, j) = loop_clearance(knot, loop)
    if clear <= 0.0:
        raise LoopOnConductorError(i, j, clear)

    # Loop edges along axis 0, knot sticks along axis 1.
    p0 = np.array(loop.vertices)[:, None, :]
    p1 = np.roll(p0, -1, axis=0)
    q0, q1 = (a[None, :, :] for a in stick_ends(knot))
    try:
        with np.errstate(over="raise", invalid="raise"):
            corners = [q0 - p0, q1 - p0, q1 - p1, q0 - p1]
            n = [_unit_normals(a, b) for a, b in zip(corners, corners[1:] + corners[:1])]
            omega = sum(np.arcsin(np.clip(np.sum(a * b, axis=-1), -1.0, 1.0))
                        for a, b in zip(n, n[1:] + n[:1]))
            total = float(np.sum(_triple_signs(p0, p1, q0, q1) * omega)) / (4.0 * math.pi)
    except FloatingPointError as exc:
        raise LinkingPrecisionError(f"Gauss sum not representable: {exc}") from exc

    # NaN fails every comparison, so a non-finite sum is refused explicitly.
    residual = abs(total - round(total)) if math.isfinite(total) else math.inf
    if residual >= 0.25:
        raise LinkingPrecisionError(
            f"Gauss sum {total:.6f} rounds ambiguously (residual {residual:.3f})"
        )
    return int(round(total)), total


def _orient2(a, b, c):
    """Twice the signed area of the triangle (a, b, c) of rational 2-D points."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, p):
    """Whether the rational 2-D point p lies on the closed segment a-b."""
    return (_orient2(a, b, p) == 0 and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _winding(poly, p):
    """The winding number of the closed 2-D polygon about p, or None when p is
    on it (Sunday's crossing rule, exact on rational points)."""
    wind = 0
    for a, b in zip(poly, poly[1:] + poly[:1]):
        if _on_segment(a, b, p):
            return None
        if a[1] <= p[1] < b[1] and _orient2(a, b, p) > 0:
            wind += 1
        elif b[1] <= p[1] < a[1] and _orient2(a, b, p) < 0:
            wind -= 1
    return wind


def _segments_meet(a, b, c, d):
    """Whether the closed rational 2-D segments a-b and c-d share a point."""
    o = [_orient2(a, b, c), _orient2(a, b, d), _orient2(c, d, a), _orient2(c, d, b)]
    if (o[0] * o[1] < 0) and (o[2] * o[3] < 0):
        return True
    return _on_segment(a, b, c) or _on_segment(a, b, d) or _on_segment(c, d, a) \
        or _on_segment(c, d, b)


def piercing_count(knot: LatticeKnot, loop: Loop):
    """The linking number of a planar polygon with the knot, exact: the
    algebraic intersection number of the knot with the polygon's flat disc
    (Rolfsen, *Knots and Links*, 1976, 5.D), in rationals.  Each stick that
    crosses the polygon's plane, from one side to the other, at a point off
    the polygon adds the polygon's winding number about that point times the
    sign of the stick's direction along the polygon's vector area.  None, as
    degenerate, when any stick meets the closed disc otherwise: crossing the
    plane on the polygon, ending in the closed disc or lying in its plane and
    meeting it.  Every value is a ``Fraction`` of the loop's floats and the
    sticks' integers, so none rounds."""
    v = [tuple(map(Fraction, p)) for p in loop.vertices]
    area = [sum(p[i] * q[j] - p[j] * q[i] for p, q in zip(v, v[1:] + v[:1]))
            for i, j in ((1, 2), (2, 0), (0, 1))]               # twice the vector area
    # The side of the plane, scaled to integers: area . (p - v[0]) times a common denominator.
    offset = sum(n * x for n, x in zip(area, v[0]))
    scale = math.lcm(*(x.denominator for x in area + [offset]))
    normal, offset = [int(n * scale) for n in area], int(offset * scale)
    side = lambda p: sum(n * x for n, x in zip(normal, p)) - offset
    assert any(area) and not any(map(side, v)), "the loop is not a planar polygon"
    k = max(range(3), key=lambda i: abs(area[i]))
    u, w = (k + 1) % 3, (k + 2) % 3                 # e_u x e_w = e_k
    flat = lambda p: (p[u], p[w])
    poly, turn = [flat(p) for p in v], 1 if area[k] > 0 else -1
    box = [(min(p[i] for p in poly), max(p[i] for p in poly)) for i in (0, 1)]
    count, ends = 0, [e.astype(int).tolist() for e in stick_ends(knot)]
    for q0, q1, f0, f1 in zip(*ends, *([side(q) for q in e] for e in ends)):
        if f0 * f1 > 0:
            continue
        if f0 == f1 == 0:                           # in the plane: degenerate if it meets the disc
            a, b = flat(q0), flat(q1)
            if any(max(a[i], b[i]) < lo or min(a[i], b[i]) > hi for i, (lo, hi) in enumerate(box)):
                continue
            if _winding(poly, a) != 0 or any(_segments_meet(a, b, c, d)
                                             for c, d in zip(poly, poly[1:] + poly[:1])):
                return None
            continue
        t = Fraction(f0, f0 - f1)
        wind = _winding(poly, flat([x + t * (y - x) for x, y in zip(q0, q1)]))
        if wind is None or wind and 0 in (f0, f1):  # on the polygon, or ending in the disc
            return None
        count += wind * turn * (1 if f1 > f0 else -1)
    return count


def _scan_by_axis(sticks: PackedSticks, h_b, h_c, factor):
    """Each stick's field, (N, 3, ...), from ``_pair_terms``' offsets and
    factor; the offsets become its components along b and c in place."""
    (_, ax_b, ax_c), j = sticks.roles, np.arange(len(h_b))
    contrib = np.zeros((len(h_b), 3) + h_b.shape[1:])
    contrib[j, ax_b], contrib[j, ax_c] = (np.multiply(h, factor, out=h) for h in (h_b, h_c))
    return contrib


def scan_stick_field(sticks: PackedSticks, points):
    """Field (prefactor k = 1) of packed sticks at (M, 3) points, and each
    point's clearance from them: (B, near, nearest), with B of shape (M, 3),
    near the distance to the nearest stick and nearest that stick's 0-based
    index, the lowest on ties.  Raises ValueError naming the first point
    that is not finite."""
    _finite(points)
    pts = np.ascontiguousarray(points.T)
    m = pts.shape[1]
    b, near, nearest = np.empty((m, 3)), np.empty(m), np.empty(m, dtype=np.intp)
    starts = range(0, m, max(1, _TILE_PAIRS // len(sticks.sign)))
    terms = _pair_terms((sticks, *(pts[ax, lo:lo + starts.step] for ax in sticks.roles))
                        for lo in starts)
    # Far points overflow to inf, which the forms turn into an exact zero
    # field and an infinite distance.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo, (h_b, h_c, factor, dist2) in zip(starts, terms):
            hi, dist = lo + starts.step, np.sqrt(dist2, out=dist2)
            nearest[lo:hi], near[lo:hi] = dist.argmin(axis=0), dist.min(axis=0)
            # Summing over the leading axis adds the sticks onto zero one at
            # a time in flow order.
            contrib = _scan_by_axis(sticks, h_b, h_c, factor)     # replaced by the next tile's
            b[lo:hi] = contrib.sum(axis=0).T
            del h_b, h_c, factor, dist2, dist  # the next tile replaces them in the kernel's frame
    return b, near, nearest


def scan_segment_field_quadrature(seg: Segment, point, k: float = 1.0, tol: float = 1e-10,
                                  exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
                                  max_depth: int = 40):
    """Direct numerical integration of dB = k dl x s / |s|^3 along the stick.

    Interval-halving adaptive quadrature with the fixed-order QK21 panel
    rule and absolute tolerance per component.  Slower than the closed form
    by construction; it exists to be independently auditable, not fast.
    """
    segment_field(seg, point, exclusion_radius=exclusion_radius)    # OnConductorError
    start = np.asarray(seg.start, dtype=float)
    u = np.asarray(seg.end, dtype=float) - start
    a = np.asarray(point, dtype=float) - start

    # dl x (p - l(t)) = u x a for every t because u x u = 0, so the vector
    # direction is constant and only the scalar 1/|p - l(t)|^3 is integrated.
    c = np.cross(u, a)
    cmax = float(np.max(np.abs(c)))
    if cmax == 0.0:
        return np.zeros(3)
    scalar_tol = tol / cmax

    def panel(lo, hi):
        t = 0.5 * (hi + lo) + 0.5 * (hi - lo) * _XK
        d = a[None, :] - t[:, None] * u[None, :]
        w = np.sum(d * d, axis=1) ** 1.5
        return kronrod_gauss(lo, hi, 1.0 / w)

    [total], *_ = bisect_levels(lambda row, lo, hi: panel(lo, hi), [(0, 0.0, 1.0)], scalar_tol,
                                max_depth, lambda row, depth, lo, hi: QuadratureError(
                                    f"no convergence after depth {depth} on [{lo}, {hi}]"))
    return k * c * total


# A panel is accepted within this many ulps of its scale, whatever its pool.
ULPS = 64 * np.finfo(float).eps


def kronrod_gauss(lo, hi, f):
    """(K21, G10) over [lo, hi] of f, the integrand at the panel's 21 nodes."""
    return tuple(0.5 * (hi - lo) * float(np.dot(w, f)) for w in (_WK, _WG))


def bisect_levels(panel, panels, tol, max_depth, error):
    """(rows, pool, panels evaluated, deepest level): each row's value of
    ``panel(row, lo, hi)`` and the pool's accepted error, by adaptive
    bisection from the initial (row, lo, hi) ``panels`` with one error pool
    of ``tol``, a level at a time, one
    panel at a time: take each live panel's (K21, G10) from ``panel``; if
    the pool's accepted errors plus the live ones, each summed in order,
    are within tol, accept every live panel, else accept each whose
    |K21 - G10| is within (tol - accepted) / live count or ULPS times the
    largest |K21| from it up to its initial panel, and halve the rest.
    Raises ``error(row, depth, lo, hi)`` for the first live panel whose
    estimate is not finite or, at ``max_depth``, that is not accepted.  A
    row sums its accepted panels in the order they are accepted."""
    accepted, kept, live, depth = 0.0, [], [(row, lo, hi, 0.0) for row, lo, hi in panels], 0
    evaluated = 0
    while live:
        scanned, pool = [], 0.0
        for row, lo, hi, scale in live:
            value, gauss = panel(row, lo, hi)
            scanned.append((row, lo, hi, value, abs(value - gauss), max(scale, abs(value))))
            pool += scanned[-1][4]
        settled, cut, new, live = accepted + pool <= tol, (tol - accepted) / len(scanned), 0.0, []
        for row, lo, hi, value, err, scale in scanned:
            if not math.isfinite(err):
                raise error(row, depth, lo, hi)
            if settled or err <= max(cut, ULPS * scale):
                kept.append((row, lo, value, err))
                new += err
            elif depth >= max_depth:
                raise error(row, depth, lo, hi)
            else:
                mid = 0.5 * (lo + hi)
                live += [(row, lo, mid, scale), (row, mid, hi, scale)]
        accepted, evaluated, depth = accepted + new, evaluated + len(scanned), depth + 1
    sums = {}
    for row, _, value, _ in kept:
        sums[row] = sums.get(row, 0.0) + value
    return [sums[row] for row in sorted(sums)], accepted, evaluated, depth - 1


def scan_holonomy(knot: LatticeKnot, loop: Loop, tol: float = 1e-6,
                  exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
                  max_levels: int = 40) -> HolonomyResult:
    """Integrate the circuit's field along the loop.

    Each (loop edge, stick) pair whose ``_triple_signs`` is not 0 is one
    row: the stick alone, read by the kernel at one panel's 21 nodes, its
    field dotted with the edge's step d in the stick's roles (a, b, c),
    which is its factor times the constant hand * (d_b * r_c - d_c * r_b),
    r = q0 - p0, the row split first where the edge passes closest to the
    stick's line.  The
    rows share one ``bisect_levels`` pool of ``tol``, the error estimate.
    Each edge sums its rows in stick order and the loop its edges in order.  The loop is first checked
    with ``loop_clearance``: LoopOnConductorError when it passes within the
    exclusion radius, LinkingPrecisionError when it is not representable.
    Lk and the residual are formed at k = 1, and k is applied last.
    """
    clear, (i, j) = loop_clearance(knot, loop)
    if clear < exclusion_radius:
        raise LoopOnConductorError(i, j, clear)

    v = [np.asarray(p, dtype=float) for p in loop.vertices]
    rows, panels = [], []
    for edge in range(len(v)):
        a, b = v[edge], v[(edge + 1) % len(v)]
        signs = _triple_signs(a[None], b[None], *stick_ends(knot))
        for index, seg in enumerate(segments(knot)):
            one = PackedSticks.pack([seg.start], [seg.end])
            roles = one.roles[:, 0]
            e0, d = a[roles], (b - a)[roles]
            if signs[index] == 0.0:
                continue        # coplanar, the stick along the edge among them: an exact zero
            (qb, qc), (db, dc) = one.start[1:, 0, 0], d[1:]
            with np.errstate(all="ignore"):
                rb, rc = qb - e0[1], qc - e0[2]
                det = one.hand[0, 0] * (db * rc - dc * rb)
                peak = float((rb * db + rc * dc) / (db * db + dc * dc))
            row = len(rows)
            rows.append((edge, index, one, e0, d, det))
            split = 0.0 < peak < 1.0
            panels += [(row, 0.0, peak), (row, peak, 1.0)] if split else [(row, 0.0, 1.0)]

    def panel(row, lo, hi):
        _, _, one, e0, d, det = rows[row]
        t = 0.5 * (hi + lo) + 0.5 * (hi - lo) * _XK
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _, _, factor, _ = next(_pair_terms(
                [(one, *(e0[:, None] + t * d[:, None])[:, None, :])], clearance=False))
            f = factor * det
        return kronrod_gauss(lo, hi, f[0])

    def error(row, depth, lo, hi):
        edge, index = rows[row][:2]
        return QuadratureError(f"holonomy edge {edge} failed to converge to {tol:.3g} on "
                               f"[{lo}, {hi}] against circuit segment {index + 1} after "
                               f"{depth} halvings")

    sums, est, evaluated, depth = bisect_levels(panel, panels, tol, max_levels, error)
    edges = [0.0] * len(v)
    for (edge, *_), cur in zip(rows, sums):
        edges[edge] += cur
    value = 0.0
    for cur in edges:
        value += cur

    # Lk and the residual at k = 1; k is applied last.
    inferred = int(round(value / (4.0 * math.pi))) if knot.k != 0 else 0
    residual = (value - 4.0 * math.pi * inferred) * knot.k
    value *= knot.k
    est *= abs(knot.k)
    return HolonomyResult(
        value=value,
        estimated_error=est,
        edges_evaluated=len(v),
        inferred_linking=inferred,
        residual=residual,
        k=knot.k,
        pair_evaluations=21 * evaluated,
        depth=depth,
    )


def random_axis_segment(rng, lo: int = -8, hi: int = 8) -> Segment:
    """A random axis-aligned stick with integer endpoints."""
    while True:
        start = rng.integers(lo, hi + 1, size=3)
        end = start.copy()
        axis = int(rng.integers(0, 3))
        step = int(rng.integers(1, hi - lo + 1)) * (1 if rng.random() < 0.5 else -1)
        end[axis] += step
        if lo <= end[axis] <= hi:
            return Segment(tuple(int(c) for c in start), tuple(int(c) for c in end))


def scan_random_clear_point(rng, sticks, margin: float, clearance: float):
    """Uniform point in the sticks' inflated bounding box, at least
    ``clearance`` from them by the field kernel's own distance."""
    ends = np.array([(s.start, s.end) for s in sticks], dtype=float)    # (N, 2, 3)
    packed = PackedSticks.pack(ends[:, 0], ends[:, 1])
    lo, hi = ends.min(axis=(0, 1)) - margin, ends.max(axis=(0, 1)) + margin
    while True:
        p = rng.uniform(lo, hi)
        if _stick_field(packed, p.reshape(1, 3))[1][0] >= clearance:
            return p


def scan_segment_pairs(seed: int, n_pairs: int):
    """The kernel suite's (stick, point) pairs at (seed, n_pairs), as lists
    of ``Segment``s, points and closed-form fields.  The sticks take the
    suite's three array draws; stick i ends at the ``other[i]``-th lattice
    value of [-8, 8] on its axis, its start left out.  Each round then draws
    the points still missing one row at a time, in row order, and
    ``segment_field`` refuses a point nearer than 0.5, which the next round
    draws again."""
    rng = np.random.default_rng(seed)
    starts = rng.integers(-8, 9, (n_pairs, 3)).tolist()
    axes = rng.integers(0, 3, n_pairs).tolist()
    others = rng.integers(-8, 8, n_pairs).tolist()
    segs = []
    for start, axis, other in zip(starts, axes, others):
        end = list(start)
        end[axis] = [v for v in range(-8, 9) if v != start[axis]][other + 8]
        segs.append(Segment(tuple(start), tuple(end)))
    pts, closed, todo = [None] * n_pairs, [None] * n_pairs, list(range(n_pairs))
    while todo:
        for i in todo:
            lo = np.minimum(segs[i].start, segs[i].end) - 4.0
            pts[i] = rng.uniform(lo, np.maximum(segs[i].start, segs[i].end) + 4.0)
        near = []
        for i in todo:
            try:
                closed[i] = segment_field(segs[i], pts[i], exclusion_radius=0.5)
            except OnConductorError:
                near.append(i)
        todo = near
    return segs, pts, closed


def scan_suite_segment_kernel(seed: int = 0, n_pairs: int = 1000):
    """Closed form vs. quadrature oracle on random (stick, point) pairs."""
    segs, pts, closed = scan_segment_pairs(seed, n_pairs)
    quad = _quadrature(np.reshape([s.start for s in segs], (-1, 3)),
                       np.reshape([s.end for s in segs], (-1, 3)),
                       np.reshape(pts, (-1, 3)), 1.0, 1e-10, 40)
    worst = float(np.max(np.abs(np.reshape(closed, (-1, 3)) - quad), initial=0.0))
    return ("segment-kernel-vs-quadrature", worst <= 1e-8,
            {"pairs": n_pairs, "worst_abs_err": worst, "tol": 1e-8})


def _central_difference_derivatives(knot, p, h):
    """d B_i / d x_j matrix by central differences."""
    d = np.empty((3, 3))
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        d[:, j] = (total_field(knot, p + step) - total_field(knot, p - step)) / (2 * h)
    return d


def scan_suite_flatness(knot: LatticeKnot, seed: int = 0, n_points: int = 200):
    """Central-difference curl and divergence vanish off the conductor."""
    rng = np.random.default_rng(seed)
    segs = segments(knot)
    worst_curl = worst_div = 0.0
    for _ in range(n_points):
        p = scan_random_clear_point(rng, segs, margin=3.0, clearance=1.0)
        scale = float(np.linalg.norm(total_field(knot, p)))
        d = _central_difference_derivatives(knot, p, 1e-3)
        curl = np.array([d[2, 1] - d[1, 2], d[0, 2] - d[2, 0], d[1, 0] - d[0, 1]])
        div = d[0, 0] + d[1, 1] + d[2, 2]
        worst_curl = max(worst_curl, float(np.linalg.norm(curl)) / scale)
        worst_div = max(worst_div, abs(div) / scale)
    return ("flatness-and-divergence", worst_curl <= 1e-4 and worst_div <= 1e-4,
            {"points": n_points, "h": 1e-3, "worst_rel_curl": float(worst_curl),
             "worst_rel_div": float(worst_div), "bound": 1e-4})


def scan_suite_scaling(knot: LatticeKnot, seed: int = 0, n_points: int = 100):
    """B(lambda x; lambda K) = B(x; K) / lambda, at lambda = 3."""
    rng = np.random.default_rng(seed)
    segs = segments(knot)
    big = refine(knot, 3)
    worst = 0.0
    for _ in range(n_points):
        p = scan_random_clear_point(rng, segs, margin=3.0, clearance=0.5)
        b = total_field(knot, p)
        b_scaled = total_field(big, 3 * p)
        ref = float(np.linalg.norm(b))
        worst = max(worst, float(np.max(np.abs(b_scaled - b / 3))) / ref)
    return ("scaling-law", worst <= 1e-9,
            {"points": n_points, "factor": 3, "worst_rel_err": float(worst), "tol": 1e-9})


def scan_suite_holonomy_linking(knot: LatticeKnot, seed: int = 0, n_loops: int = 20):
    """holonomy = 4*pi*k*Lk on random rectangular loops in the complement,
    compared in units of k: at k = 1."""
    rng = np.random.default_rng(seed)
    knot = replace(knot, k=1.0)
    worst = 0.0
    linked = 0
    for i in range(n_loops):
        loop = random_rect_loop(rng, knot, clearance=0.5, name=f"loop{i}")
        per_k = holonomy(knot, loop, tol=1e-6).value
        lk = linking_number(knot, loop)
        linked += lk != 0
        worst = max(worst, abs(per_k - 4.0 * math.pi * lk) / max(1.0, abs(per_k)))
    return ("holonomy-vs-linking", worst < 1e-5,
            {"loops": n_loops, "nonzero_linking": int(linked),
             "worst_rel_err": float(worst), "tol": 1e-5})


def scan_suite_refined_holonomy(knot: LatticeKnot, seed: int = 0, n_loops: int = 20):
    """Refining knot and loop together by 3, each loop edge split a third of
    the way along, leaves every holonomy unchanged, compared at k = 1."""
    rng = np.random.default_rng(seed)
    knot = replace(knot, k=1.0)
    big = refine(knot, 3)
    worst = 0.0
    for i in range(n_loops):
        loop = random_rect_loop(rng, knot, clearance=0.5, name=f"loop{i}")
        v = loop.vertices
        split = []
        for p, q in zip(v, v[1:] + v[:1]):
            split.append(tuple(3 * a for a in p))
            split.append(tuple(2 * a + b for a, b in zip(p, q)))
        h1 = holonomy(knot, loop, tol=1e-6).value
        h2 = holonomy(big, Loop(vertices=tuple(split), name=loop.name), tol=1e-6).value
        worst = max(worst, abs(h1 - h2))
    return ("refined-holonomy-invariance", worst < 2e-5,
            {"loops": n_loops, "factor": 3, "worst_abs_err": float(worst), "tol": 2e-5})


# Parity of (i, w, v) as a permutation of (0, 1, 2).
_EPS = {
    (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
    (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1,
}


@dataclass(frozen=True)
class _EngineTerm:
    component: str
    segment_index: int
    den_key: tuple
    num: tuple            # (var, const)
    atoms: frozenset      # {(G, endpoint, radicand_key)}


def _engine_terms(knot: LatticeKnot) -> dict[tuple, "_EngineTerm"]:
    """Expected printed shape of every stick's two component contributions."""
    out = {}
    for seg in segments(knot):
        w = int(seg.axis)
        trans = {int(ax): c for ax, c in seg.transverse}
        s_w, e_w = seg.span
        den_key = tuple(sorted((_AXES[ax], float(c)) for ax, c in trans.items()))
        for i in range(3):
            if i == w:
                continue
            v = 3 - i - w
            p = -_EPS[(i, w, v)]
            atoms = frozenset(
                (g, float(end), tuple(sorted(den_key + ((_AXES[w], float(end)),))))
                for g, end in ((-p, s_w), (p, e_w))
            )
            term = _EngineTerm(
                component="B" + _AXES[i],
                segment_index=seg.index,
                den_key=den_key,
                num=(_AXES[v], float(trans[v])),
                atoms=atoms,
            )
            out[(term.component, den_key)] = term
    return out


def _compare(term: TranscribedTerm, eng: _EngineTerm) -> tuple[str, tuple[str, ...]]:
    notes = []
    num_var, num_const, _ = _canon_numerator(term.num)
    if (num_var, num_const) != eng.num:
        notes.append(
            f"numerator ({num_const:g}-{num_var}) should be ({eng.num[1]:g}-{eng.num[0]})"
        )

    printed = _printed_atoms(term)
    as_set = frozenset((g, c, r) for g, _v, c, r in printed)
    # Bracket entries must vary along the stick's own axis, which is the one
    # radicand letter the denominator does not fix.
    stick_axis = set(a for a, _c in next(iter(eng.atoms))[2]) - set(
        a for a, _c in eng.den_key
    )
    for _g, v, _c, _r in printed:
        if stick_axis and v not in stick_axis:
            notes.append(f"bracket entry varies along {v}, stick runs along "
                         f"{''.join(sorted(stick_axis))}")

    if not notes and as_set == eng.atoms:
        return "exact", ()
    flipped = frozenset((-g, c, r) for g, c, r in as_set)
    if not notes and flipped == eng.atoms:
        return "sign_flipped", ("printed with the opposite overall sign",)

    # Itemize: pair printed and engine atoms by endpoint, then by order.
    eng_atoms = sorted(eng.atoms, key=lambda a: a[1])
    for g, v, c, r in printed:
        match = [a for a in eng_atoms if a[1] == c]
        if not match:
            ends = ", ".join(f"{a[1]:g}" for a in eng_atoms)
            notes.append(f"bracket endpoint {c:g} not an endpoint of the stick "
                         f"(expected one of: {ends})")
            continue
        g_e, c_e, r_e = match[0]
        if r != r_e:
            notes.append(f"radicand at endpoint {c:g} disagrees: printed "
                         f"{_fmt_rad(r)}, engine {_fmt_rad(r_e)}")
        if g != g_e:
            notes.append(f"bracket entry at endpoint {c:g} has flipped sign")
    return "mismatch", tuple(notes)


def scan_discrepancy_ledger(label: str, tables=None) -> TranscriptionLedger:
    """Match every printed term to its engine stick and report disagreements.

    Terms pair up by denominator (the stick's fixed transverse coordinates);
    the ledger then checks signs, endpoints and radicands.  The engine is
    authoritative: a flagged term documents a misprint, it never changes
    what the engine computes.
    """
    tables = tables if tables is not None else TERM_TABLES[label]
    engine = _engine_terms(CANONICAL[label]())
    entries = []
    seen = set()
    for comp in ("Bx", "By", "Bz"):
        for term in tables[comp]:
            den_key = tuple(sorted(_canon_squared(d) for d in term.den))
            eng = engine.get((comp, den_key))
            if eng is None:
                entries.append(LedgerEntry(comp, term.index, None, "unmatched",
                                           (f"no stick with fixed coordinates "
                                            f"{_fmt_rad(den_key)}",)))
                continue
            seen.add((comp, den_key))
            status, notes = _compare(term, eng)
            entries.append(LedgerEntry(comp, term.index, eng.segment_index, status, notes))
    for key, eng in sorted(engine.items()):
        if key not in seen:
            entries.append(LedgerEntry(eng.component, 0, eng.segment_index, "unmatched",
                                       ("engine contribution has no printed term",)))
    return TranscriptionLedger(label=label, entries=tuple(entries))


def scan_write_csv(sample: FieldSample, fh) -> None:
    fh.write(CSV_HEADER + "\n")
    for lo in range(0, len(sample.points), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        rows = zip(sample.points[block].tolist(), sample.b[block].tolist(),
                   sample.on_conductor[block].tolist())
        fh.write("".join(f"{x!r},{y!r},{z!r},{bx!r},{by!r},{bz!r},{m:d}\n"
                         for (x, y, z), (bx, by, bz), m in rows))


def scan_write_jsonl(sample: FieldSample, fh) -> None:
    """One JSON object per row, byte for byte what ``json.dumps`` writes."""
    for lo in range(0, len(sample.points), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        rows = zip(sample.points[block].tolist(), sample.b[block].tolist(),
                   sample.on_conductor[block].tolist())
        text = "".join(f'{{"x": {x!r}, "y": {y!r}, "z": {z!r}, "Bx": {bx!r}, "By": {by!r}, '
                       f'"Bz": {bz!r}, "on_conductor": {"true" if m else "false"}}}\n'
                       for (x, y, z), (bx, by, bz), m in rows)
        # json.dumps spells non-finite floats NaN, Infinity and -Infinity;
        # points are finite, and no key or finite float holds "nan" or "inf".
        if not np.isfinite(sample.b[block]).all():
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        fh.write(text)


def dumps_write_jsonl(sample: FieldSample, fh) -> None:
    for p, b, m in zip(sample.points, sample.b, sample.on_conductor):
        fh.write(json.dumps({
            "x": float(p[0]), "y": float(p[1]), "z": float(p[2]),
            "Bx": float(b[0]), "By": float(b[1]), "Bz": float(b[2]),
            "on_conductor": bool(m),
        }) + "\n")


def scan_write_vtk(sample: FieldSample, fh) -> None:
    """Legacy ASCII structured-points dataset with one vector field."""
    nx, ny, nz = sample.grid.counts
    ox, oy, oz = sample.grid.origin
    s = float(sample.grid.spacing)
    fh.write("# vtk DataFile Version 3.0\n")
    fh.write("knotfield sample\n")
    fh.write("ASCII\n")
    fh.write("DATASET STRUCTURED_POINTS\n")
    fh.write(f"DIMENSIONS {nx} {ny} {nz}\n")
    fh.write(f"ORIGIN {ox!r} {oy!r} {oz!r}\n")
    fh.write(f"SPACING {s!r} {s!r} {s!r}\n")
    fh.write(f"POINT_DATA {sample.grid.n_points}\n")
    fh.write("VECTORS B double\n")
    # Our rows are z-fastest; VTK wants x-fastest.
    order = np.arange(sample.grid.n_points).reshape(nx, ny, nz).transpose(2, 1, 0).ravel()
    for lo in range(0, len(order), _BLOCK_ROWS):
        rows = sample.b[order[lo:lo + _BLOCK_ROWS]].tolist()
        fh.write("".join(f"{bx!r} {by!r} {bz!r}\n" for bx, by, bz in rows))
