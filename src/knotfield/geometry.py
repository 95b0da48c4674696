"""Lattice knots: closed self-avoiding axis-aligned polygons on the cubic lattice.

A lattice knot models a knotted circuit built from straight wire sticks, each
parallel to a coordinate axis.  Vertex coordinates are exact integers so the
circuit geometry never drifts.  The built-in trefoil and figure-eight knots
are stored in doubled coordinates (even integers), which keeps half-lattice
probe points such as (5, 3, 2) representable as integers after the doubling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np


LatticePoint = tuple[int, int, int]


class Axis(IntEnum):
    X = 0
    Y = 1
    Z = 2


@dataclass(frozen=True)
class Segment:
    """One directed axis-aligned stick of a circuit.

    ``index`` is the 1-based position in traversal order (current flow).
    """

    start: LatticePoint
    end: LatticePoint
    index: int = 0

    def __post_init__(self):
        diffs = [e - s for s, e in zip(self.start, self.end)]
        moving = [i for i, d in enumerate(diffs) if d != 0]
        if not moving:
            raise ValueError(f"zero-length segment at {self.start}")
        if len(moving) != 1:
            raise ValueError(f"segment {self.start}->{self.end} is not axis-aligned")

    @property
    def axis(self) -> Axis:
        for i in range(3):
            if self.end[i] != self.start[i]:
                return Axis(i)
        raise AssertionError("unreachable for a validated segment")

    @property
    def direction_sign(self) -> int:
        a = self.axis
        return 1 if self.end[a] > self.start[a] else -1

    @property
    def transverse(self) -> tuple[tuple[Axis, int], tuple[Axis, int]]:
        """The two fixed (axis, coordinate) pairs of this stick."""
        a = self.axis
        return tuple((Axis(i), self.start[i]) for i in range(3) if i != a)

    @property
    def span(self) -> tuple[int, int]:
        """Start and end coordinate along the stick's own axis."""
        a = self.axis
        return (self.start[a], self.end[a])


@dataclass(frozen=True)
class LatticeKnot:
    """Oriented closed polygon on the cubic lattice; the current circuit.

    The vertex list is cyclic: the edge from the last vertex back to the
    first is implied.  ``k`` is the current prefactor I/c multiplying every
    field this circuit produces.
    """

    vertices: tuple[LatticePoint, ...]
    name: str = ""
    k: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(tuple(v) for v in self.vertices))

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        """``stick_ends``, validated once and kept read-only; nothing is
        cached when an edge is not a stick."""
        starts = np.array(self.vertices, dtype=float)
        ends = np.roll(starts, -1, axis=0)
        bad = np.flatnonzero(np.count_nonzero(ends - starts, axis=1) != 1)
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"edge {i} {self.vertices[i]}->{self.vertices[(i + 1) % len(self)]} "
                             "is not a nonzero axis-aligned stick")
        starts.flags.writeable = ends.flags.writeable = False
        return starts, ends

    @cached_property
    def sticks(self) -> PackedSticks:
        """The circuit packed for the field kernel; ValueError as ``stick_ends``."""
        return PackedSticks.pack(*self._ends)


# Columns a = x, y, z: the roles (a, b, c), b < c, and the orientation of
# (e_a, e_b, e_c).
_ROLES, _HAND = np.array([[0, 1, 2], [1, 0, 0], [2, 2, 1]]), np.array([1.0, -1.0, 1.0])


class PackedSticks(NamedTuple):
    """Sticks in flow order as the field kernel reads them, each per-stick
    value a column, row j for stick j, that broadcasts against a tile of
    points.  ``roles`` (3, N) holds the coordinate index of the stick's axis
    a and of the other two axes b < c; ``start`` (3, N, 1) its start point's
    coordinates in those roles; ``sign`` (N, 1) its flow direction along a
    (+1.0 or -1.0); ``length``; ``hand`` the sign times the orientation of
    (e_a, e_b, e_c), which is -1 for a y stick; ``span`` (2, N, 1) its low
    and high end on a; ``along_z`` whether a is z."""

    roles: np.ndarray
    start: np.ndarray
    sign: np.ndarray
    length: np.ndarray
    hand: np.ndarray
    span: np.ndarray
    along_z: np.ndarray

    @classmethod
    def pack(cls, starts, ends) -> PackedSticks:
        """From the (N, 3) start and end points of nonzero axis-aligned sticks."""
        starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
        u = ends - starts
        n, axis = np.arange(len(u)), np.argmax(u != 0.0, axis=1)
        roles, u_a = _ROLES[:, axis], u[n, axis][:, None]
        span = np.array((starts[n, axis], ends[n, axis]))[:, :, None]
        span.sort(axis=0)
        sign = np.sign(u_a)
        return cls(roles, starts[n, roles][:, :, None], sign, np.abs(u_a),
                   sign * _HAND[axis][:, None], span, axis[:, None] == 2)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def touching_pairs(lo, hi, axis, strict=False):
    """Index pairs (p, q), p < q, of axis-parallel segments that meet, sorted.

    Row p of the (M, D) arrays ``lo`` and ``hi`` holds segment p's box
    corners, equal but on its moving axis ``axis[p]``.  Segments meet when
    their closed boxes share a point or, if ``strict``, a point interior to
    both spans.  Each coordinate becomes twice its rank (where its first copy
    sorts), so keys fit int64 and an open span (lo, hi) is the closed
    [lo + 1, hi - 1].  For moving axes a <= b, the b-segments sorted by
    (other fixed coordinates, ``lo`` along a) hold each a-segment's partners
    in one ``searchsorted`` range: the later members of its group if a == b,
    else the segments of its plane crossing its a-span, kept if its
    b-coordinate lies in their b-span.  Cost: O(M log M) plus those ranges,
    which hold only hits when a == b.
    """
    m, d = lo.shape
    flat = np.concatenate([lo, hi]).ravel()
    lo, hi = 2 * np.searchsorted(flat[np.argsort(flat)], flat).reshape(2, m, d)
    if strict:
        lo[np.arange(m), axis] += 1
        hi[np.arange(m), axis] -= 1
    base = 4 * m * d + 1                   # exceeds every coordinate
    found = []
    for a in range(d):
        for b in range(a, d):
            group = np.zeros(m, np.int64)
            for c in set(range(d)) - {a, b}:
                group = group * base + lo[:, c]
            group = np.searchsorted(group[np.argsort(group)], group) * base
            key = group + lo[:, a]
            order = np.flatnonzero(axis == b)
            order = order[np.argsort(key[order])]
            queries = order if a == b else np.flatnonzero(axis == a)
            start = (np.arange(1, len(order) + 1) if a == b else
                     np.searchsorted(key[order], key[queries]))
            count = np.searchsorted(key[order], group[queries] + hi[queries, a], "right") - start
            p = np.repeat(queries, count)
            q = order[np.arange(len(p)) + np.repeat(start + count - np.cumsum(count), count)]
            if a != b:
                hit = (lo[q, b] <= lo[p, b]) & (lo[p, b] <= hi[q, b])
                p, q = p[hit], q[hit]
            found.append((np.minimum(p, q), np.maximum(p, q)))
    p, q = (np.concatenate(side) for side in zip(*found))
    order = np.argsort(p * m + q)
    return p[order], q[order]


def validate(knot: LatticeKnot) -> ValidationReport:
    """Check every structural invariant of a lattice knot.

    Violations are returned as data, never raised: degenerate input is a
    reportable condition, not an exception.  Each violation names the
    offending vertex or edge pair, in scan order: vertices, edges, corners,
    then edge pairs (i, j), i < j.  Past the type check the vertices are one
    int64 array, checked as a whole.  The sticks, as boxes (a stick is its
    bounding box), go to ``touching_pairs`` for self-avoidance: O(N log N)
    plus the hits and the perpendicular near misses, not O(N^2) pairs.
    """
    v = knot.vertices
    n = len(v)
    violations = []

    if n < 4:
        violations.append(f"too few vertices: {n} < 4")

    good = [True] * n
    for i, p in enumerate(v):
        if len(p) != 3 or any(not isinstance(c, int) or isinstance(c, bool) for c in p):
            violations.append(f"vertex {i} {p} has non-integer coordinates")
            good[i] = False
        elif any(not -2**63 <= c < 2**63 for c in p):
            violations.append(f"vertex {i} {p} has a coordinate outside the int64 range")
            good[i] = False

    seen = {}
    for i, p in enumerate(v):
        if seen.setdefault(p, i) != i:
            violations.append(f"repeated vertex {p} at positions {seen[p]} and {i}")

    # Edge i runs from row i of ``a`` to row i of ``b``; an edge into or out
    # of a flagged vertex is checked no further.
    a = np.array([p if ok else (0, 0, 0) for p, ok in zip(v, good)], np.int64).reshape(n, 3)
    b, good = np.roll(a, -1, axis=0), np.array(good, bool)
    moving = a != b
    count, axis = moving.sum(axis=1), moving.argmax(axis=1)
    checked = good & np.roll(good, -1)
    for i in np.flatnonzero(checked & (count != 1)).tolist():
        fault = "has zero length" if count[i] == 0 else "not axis-aligned"
        violations.append(f"edge {i} {v[i]}->{v[(i + 1) % n]} {fault}")

    # True corners only: consecutive sticks must change axis.
    stick = checked & (count == 1)
    for i in np.flatnonzero(stick & np.roll(stick, -1) & (axis == np.roll(axis, -1))).tolist():
        j = (i + 1) % n
        violations.append(f"vertex {j} {v[j]} is not a corner (edges {i},{j} collinear)")

    # Self-avoidance.  Consecutive edges always share their joint vertex and
    # fault only when they meet beyond it; any other meeting is a fault.
    idx = np.flatnonzero(stick)
    lo, hi = np.minimum(a, b)[idx], np.maximum(a, b)[idx]
    p, q = touching_pairs(lo, hi, axis[idx])
    i, j = idx[p], idx[q]
    follows = j - i == 1
    adjacent = follows | ((i == 0) & (j == n - 1))
    shared = a[np.where(follows, j, i)]
    meet_lo, meet_hi = np.maximum(lo[p], lo[q]), np.minimum(hi[p], hi[q])
    fault = ~adjacent | (meet_lo != shared).any(axis=1) | (meet_hi != shared).any(axis=1)
    for i, j, adj, at, mlo, mhi in zip(*(x[fault].tolist() for x in
                                         (i, j, adjacent, shared, meet_lo, meet_hi))):
        if adj:
            violations.append(f"consecutive edges {i},{j} overlap beyond {tuple(at)}")
        else:
            where = tuple(mlo) if mlo == mhi else f"{tuple(mlo)}..{tuple(mhi)}"
            violations.append(f"self-intersection: edges {i} and {j} meet at {where}")

    return ValidationReport(ok=not violations, violations=tuple(violations))


def segments(knot: LatticeKnot) -> list[Segment]:
    """The public per-stick view: the knot's directed sticks as ``Segment``s,
    indexed 1..n in flow order.  No engine path reads it."""
    v = knot.vertices
    return [Segment(v[i], v[(i + 1) % len(v)], index=i + 1) for i in range(len(v))]


def stick_ends(knot: LatticeKnot) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points of the knot's sticks, in flow order, as float (N, 3),
    read-only and cached on the knot.

    Raises ValueError, as ``segments`` does, when an edge is not a stick:
    of zero length or not parallel to an axis, on every call.
    """
    return knot._ends


def refine(knot: LatticeKnot, factor: int) -> LatticeKnot:
    """Scale every vertex by a positive integer factor.

    The corner set is unchanged; only the lattice is made finer relative to
    the curve.  Fields and holonomies transform predictably (see the engine's
    scaling law), which is what makes this useful for convergence checks.
    """
    if not isinstance(factor, (int, np.integer)) or isinstance(factor, bool) or factor < 1:
        raise ValueError(f"refine factor must be a positive integer, got {factor!r}")
    scaled = tuple(tuple(c * int(factor) for c in p) for p in knot.vertices)
    return LatticeKnot(vertices=scaled, name=knot.name, k=knot.k)


# Built-in minimal lattice embeddings, in doubled coordinates.  The traversal
# direction fixes the current flow; (2,2,0) is the fiducial starting vertex.

_TREFOIL_VERTICES = (
    (2, 2, 0), (2, 2, 6), (2, 6, 6), (4, 6, 6), (4, 6, 2), (4, 0, 2),
    (0, 0, 2), (0, 0, 4), (0, 4, 4), (6, 4, 4), (6, 4, 0), (6, 2, 0),
)

_FIGURE_EIGHT_VERTICES = (
    (2, 2, 0), (2, 2, 6), (2, 10, 6), (2, 10, 2), (2, 4, 2), (6, 4, 2),
    (6, 8, 2), (6, 8, 4), (0, 8, 4), (0, 0, 4), (4, 0, 4), (4, 6, 4),
    (4, 6, 0), (4, 2, 0),
)


def canonical_trefoil(k: float = 1.0) -> LatticeKnot:
    """The 12-stick lattice trefoil, oriented to match the engine's signs."""
    return LatticeKnot(vertices=_TREFOIL_VERTICES, name="3_1", k=k)


def canonical_figure_eight(k: float = 1.0) -> LatticeKnot:
    """The 14-stick lattice figure-eight knot."""
    return LatticeKnot(vertices=_FIGURE_EIGHT_VERTICES, name="4_1", k=k)


# The built-in knots by name, as the CLI's --knot and the printed formulas
# label them.
CANONICAL = {"3_1": canonical_trefoil, "4_1": canonical_figure_eight}


def bounding_box(knot: LatticeKnot) -> tuple[LatticePoint, LatticePoint]:
    v = np.array(knot.vertices)
    return tuple(v.min(axis=0).tolist()), tuple(v.max(axis=0).tolist())


# --- knot file format -------------------------------------------------------
#
# One vertex per line as "x y z" decimal integers; '#' starts a comment;
# blank lines ignored; the closing edge back to the first vertex is implicit.


def parse_point_lines(text: str, cast=int) -> list[tuple]:
    """Shared reader for the knot/loop file grammar."""
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 3 coordinates, got {len(fields)}")
        try:
            points.append(tuple(cast(f) for f in fields))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return points


def parse_knot_text(text: str, name: str = "", k: float = 1.0) -> LatticeKnot:
    return LatticeKnot(vertices=tuple(parse_point_lines(text, int)), name=name, k=k)


def read_knot_file(path, name: str | None = None, k: float = 1.0) -> LatticeKnot:
    p = Path(path)
    return parse_knot_text(p.read_text(encoding="ascii"), name=name or p.stem, k=k)


def format_knot(knot: LatticeKnot, header_comments: tuple[str, ...] = ()) -> str:
    lines = [f"# {c}" for c in header_comments]
    lines += [f"{x} {y} {z}" for x, y, z in knot.vertices]
    return "\n".join(lines) + "\n"

