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
from pathlib import Path

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
    def length(self) -> int:
        a = self.axis
        return abs(self.end[a] - self.start[a])

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


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def _edge_box(a, b):
    return tuple(min(a[i], b[i]) for i in range(3)), tuple(max(a[i], b[i]) for i in range(3))


def _boxes_intersection(box1, box2):
    """Intersection of two axis-aligned boxes, or None if empty."""
    lo = tuple(max(box1[0][i], box2[0][i]) for i in range(3))
    hi = tuple(min(box1[1][i], box2[1][i]) for i in range(3))
    if any(lo[i] > hi[i] for i in range(3)):
        return None
    return lo, hi


def validate(knot: LatticeKnot) -> ValidationReport:
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

    for i, p in enumerate(v):
        if len(p) != 3 or any(not isinstance(c, int) or isinstance(c, bool) for c in p):
            violations.append(f"vertex {i} {p} has non-integer coordinates")

    seen = {}
    for i, p in enumerate(v):
        if p in seen:
            violations.append(f"repeated vertex {p} at positions {seen[p]} and {i}")
        else:
            seen[p] = i

    # Edge-level checks; edges that fail here are excluded from the pair scan.
    good_edges = {}
    for i in range(n):
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


def segments(knot: LatticeKnot) -> list[Segment]:
    """Decompose the knot into directed sticks, indexed 1..n in flow order."""
    v = knot.vertices
    return [Segment(v[i], v[(i + 1) % len(v)], index=i + 1) for i in range(len(v))]


def stick_ends(knot: LatticeKnot) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points of the knot's sticks, in flow order, as float (N, 3).

    Raises ValueError, as ``segments`` does, when an edge is not a stick:
    of zero length or not parallel to an axis.
    """
    starts = np.array(knot.vertices, dtype=float)
    ends = np.roll(starts, -1, axis=0)
    bad = np.flatnonzero(np.count_nonzero(ends - starts, axis=1) != 1)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"edge {i} {knot.vertices[i]}->{knot.vertices[(i + 1) % len(knot)]} "
                         "is not a nonzero axis-aligned stick")
    return starts, ends


def refine(knot: LatticeKnot, factor: int) -> LatticeKnot:
    """Scale every vertex by a positive integer factor.

    The corner set is unchanged; only the lattice is made finer relative to
    the curve.  Fields and holonomies transform predictably (see the engine's
    scaling law), which is what makes this useful for convergence checks.
    """
    if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
        raise ValueError(f"refine factor must be a positive integer, got {factor!r}")
    scaled = tuple(tuple(c * factor for c in p) for p in knot.vertices)
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


def bounding_box(knot: LatticeKnot) -> tuple[LatticePoint, LatticePoint]:
    v = knot.vertices
    return (
        tuple(min(p[i] for p in v) for i in range(3)),
        tuple(max(p[i] for p in v) for i in range(3)),
    )


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


def write_knot_file(knot: LatticeKnot, path, header_comments: tuple[str, ...] = ()) -> None:
    Path(path).write_text(format_knot(knot, header_comments), encoding="ascii")
