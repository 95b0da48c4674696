"""Braid words and their end-on-end closures as lattice knots.

A braid on n strands is written with Artin generators: ``s1 s2^-1 s1`` (a
prime also marks an inverse, ``s2'``), or in signed-integer shorthand
``1 -2 1``.  Closing a braid joins each strand's right end back around to
the left end at the same height; the closure is a knot (single component)
exactly when the braid's strand permutation is a single n-cycle, and
anything else is rejected with its cycle structure.

Lattice realization: strands run along +x on the front face y = 0 at
heights z = 2, 4, ..., 2n.  Every letter occupies an x-interval of width 4
in which the two participating strands swap heights; the strand that passes
behind migrates to the back face y = 2 for the width of the interval, while
the other strand stays in front and steps through the odd mid-level between
the two heights.  Crossings of the two faces are therefore the only places
the projection along y acquires double points: exactly one transverse
crossing per letter, whose sign (viewed from y = -infinity) equals the
letter's sign.  A positive letter sends the lower strand to the back face;
the convention is fixed so the projected crossing signs sum to the writhe.

Closure arcs stay on the front face and nest around the braid's bounding
box: the strand ending at height 2j returns at level 2n + 2(n-j+1), with
lower strands travelling on wider, higher arcs so no two arcs meet.  The
builder, ``close_braid_on_lattice``, is the one layout source: it lays out
each letter from the word, favoring an obviously-correct embedding over a
small one.  ``plan_embedding`` gives what callers read without building the
knot: ``strands``, ``front_y``/``back_y``, ``closure_levels``, ``tile`` and ``bounding_box``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .geometry import Axis, LatticeKnot, touching_pairs, validate


class BraidParseError(ValueError):
    """Malformed braid word; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class MultiComponentError(ValueError):
    """The braid closure is a link, not a knot."""

    def __init__(self, cycles):
        self.cycles = tuple(tuple(c) for c in cycles)
        structure = ", ".join("(" + " ".join(str(s + 1) for s in c) + ")" for c in self.cycles)
        super().__init__(
            f"closure has {len(self.cycles)} components; strand cycles: {structure}"
        )


class PlacementError(RuntimeError):
    """The builder produced an invalid embedding; always a bug, never data."""


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[tuple[int, int], ...]   # (generator index, sign)

    def __post_init__(self):
        if self.strands < 2:
            raise ValueError(f"braid needs at least 2 strands, got {self.strands}")
        for gi, sign in self.letters:
            if not 1 <= gi <= self.strands - 1:
                raise ValueError(
                    f"generator index {gi} out of range 1..{self.strands - 1}"
                )
            if sign not in (-1, 1):
                raise ValueError(f"letter sign must be +-1, got {sign}")


_GEN_RE = re.compile(r"^s(\d+)(\^-1|')?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse a braid word; see the module docstring for the grammar.

    The strand count is inferred as 1 + the largest generator index (2 for
    the empty word) unless given explicitly.
    """
    letters = []
    max_index = 0
    for m in re.finditer(r"\S+", text):
        tok, off = m.group(0), m.start()
        gm = _GEN_RE.match(tok)
        if gm:
            gi = int(gm.group(1))
            sign = -1 if gm.group(2) else 1
        elif _INT_RE.match(tok):
            val = int(tok)
            gi, sign = abs(val), (1 if val > 0 else -1)
        elif tok.startswith("s") and "^" in tok:
            raise BraidParseError(
                f"malformed exponent in {tok!r} (only ^-1 is allowed)",
                off + tok.index("^"),
            )
        else:
            raise BraidParseError(f"unknown token {tok!r}", off)
        if gi == 0:
            raise BraidParseError("generator index 0 is not a braid generator", off)
        max_index = max(max_index, gi)
        letters.append((gi, sign))
    inferred = max(2, max_index + 1)
    return BraidWord(strands=strands if strands is not None else inferred,
                     letters=tuple(letters))


def format_braid(word: BraidWord) -> str:
    return " ".join(f"s{gi}" + ("" if sign > 0 else "^-1") for gi, sign in word.letters)


def crossing_count(word: BraidWord) -> int:
    return len(word.letters)


def writhe(word: BraidWord) -> int:
    return sum(sign for _gi, sign in word.letters)


def permutation_cycles(word: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Cycles of perm, perm[j] the slot (0-based) where the strand starting in slot j ends."""
    occupant = list(range(word.strands))
    for gi, _sign in word.letters:
        occupant[gi - 1], occupant[gi] = occupant[gi], occupant[gi - 1]
    perm = sorted(range(word.strands), key=occupant.__getitem__)     # occupant's inverse
    seen = set()
    cycles = []
    for start in range(len(perm)):
        if start in seen:
            continue
        cyc, j = [], start
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = perm[j]
        cycles.append(tuple(cyc))
    return tuple(cycles)


_TILE = 4
_FRONT_Y, _BACK_Y = 0, 2


def _height(slot):
    """z of the strand in 0-based slot ``slot`` between tiles."""
    return 2 * (slot + 1)


def _arc(n, slot):
    """How far the closure arc from ``slot`` reaches past the braid in x, and its z-level."""
    reach = 2 * (n - slot)
    return reach, 2 * n + reach


@dataclass(frozen=True)
class EmbeddingPlan:
    """What a caller can know of a closure's layout without building it."""

    strands: int
    front_y: int
    back_y: int
    closure_levels: tuple[int, ...]    # return z-level for slot j (0-based)
    tile: int                          # x-width of each letter's crossing tile
    bounding_box: tuple[tuple[int, int, int], tuple[int, int, int]]


def plan_embedding(word: BraidWord) -> EmbeddingPlan:
    n, xr = word.strands, _TILE * len(word.letters)
    reach, top = _arc(n, 0)
    return EmbeddingPlan(strands=n, front_y=_FRONT_Y, back_y=_BACK_Y,
                         closure_levels=tuple(_arc(n, s)[1] for s in range(n)), tile=_TILE,
                         bounding_box=((-reach, _FRONT_Y, _height(0)), (xr + reach, _BACK_Y, top)))


def close_braid_on_lattice(word: BraidWord) -> LatticeKnot:
    """Build the closure of the braid word as a validated lattice knot.

    Raises MultiComponentError when the closure is a link.  Any geometric
    failure of the layout itself (overlap, bad crossing count) raises
    PlacementError: the construction is supposed to be correct by design,
    so a bad embedding is an internal error, never a silent return.
    """
    cycles = permutation_cycles(word)
    if len(cycles) != 1:
        raise MultiComponentError(cycles)

    # Only corners are listed: between tiles, and across x = 0 and the right
    # end, a strand runs straight on in x.  validate refuses any other point.
    n, fy, by = word.strands, _FRONT_Y, _BACK_Y
    paths = [[] for _ in range(n)]         # each strand's corners, at the slot it is in
    for j, (gi, sign) in enumerate(word.letters):
        x0, i = _TILE * j, gi - 1
        # The strand passing behind runs from height zb to zf along the back
        # face; the other descends or rises in front through the odd
        # mid-level, so the projections cross exactly once.
        if sign > 0:
            back, front, zb, zf = paths[i], paths[i + 1], _height(i), _height(i + 1)
        else:
            back, front, zb, zf = paths[i + 1], paths[i], _height(i + 1), _height(i)
        zm = (zb + zf) // 2
        back += [
            (x0 + 1, fy, zb), (x0 + 1, by, zb), (x0 + 2, by, zb),
            (x0 + 2, by, zf), (x0 + 3, by, zf), (x0 + 3, fy, zf),
        ]
        front += [(x0 + 1, fy, zf), (x0 + 1, fy, zm), (x0 + 3, fy, zm), (x0 + 3, fy, zb)]
        paths[i], paths[i + 1] = paths[i + 1], paths[i]

    # The strand starting in a slot of the one cycle ends in the next one,
    # where its arc returns it and the strand starting there goes on.
    xr, cycle = _TILE * len(word.letters), cycles[0]
    points = []
    for slot in cycle[1:] + cycle[:1]:
        z, (reach, level) = _height(slot), _arc(n, slot)
        points += paths[slot] + [
            (xr + reach, fy, z), (xr + reach, fy, level), (-reach, fy, level), (-reach, fy, z),
        ]

    knot = LatticeKnot(vertices=points, name=f"closure({format_braid(word) or 'e'})")
    violations = validate(knot).violations
    if violations:
        raise PlacementError("braid layout produced an invalid knot: " + "; ".join(violations))
    crossings = projection_crossings(knot)
    if len(crossings) != crossing_count(word):
        raise PlacementError(f"projection has {len(crossings)} crossings, "
                             f"expected {crossing_count(word)}")
    if sum(c.sign for c in crossings) != writhe(word):
        raise PlacementError("projected crossing signs do not sum to the writhe")
    return knot


@dataclass(frozen=True)
class ProjectedCrossing:
    position: tuple[int, int]    # (x, z) of the double point
    sign: int
    over_edge: int               # edge indices: edge i runs from vertex i to i + 1
    under_edge: int


def projection_crossings(knot: LatticeKnot, view_axis: Axis = Axis.Y) -> tuple[ProjectedCrossing, ...]:
    """Find the transverse double points of the projection along ``view_axis``.

    The viewer sits at -infinity on the view axis, so of two edges meeting
    in projection the one with the smaller view-axis coordinate is in front.
    Only strict interior-interior transverse intersections count; endpoint
    touches are where a strand changes face and are not crossings.  Any
    collinear overlap in projection, or a crossing at equal depth, means the
    layout is broken and raises PlacementError for the first such pair in
    edge order.  Edges not parallel to the view axis project to horizontal or
    vertical segments through their starts; ``touching_pairs`` finds those
    whose open spans meet in O(E log E) plus the candidates, not O(E^2).
    Crossings are sorted by position, ties in edge-pair order.
    """
    va = int(view_axis)
    plane = [i for i in range(3) if i != va]
    a = knot._vertex_array()
    b = np.roll(a, -1, axis=0)
    idx = np.flatnonzero((a[:, plane] != b[:, plane]).any(axis=1))
    a, b = a[idx], b[idx]
    k = np.arange(len(idx))
    vertical = (a[:, plane[1]] != b[:, plane[1]]).astype(int)
    run = np.array(plane)[vertical]
    lo, hi = a[:, plane], a[:, plane]
    lo[k, vertical], hi[k, vertical] = np.minimum(a, b)[k, run], np.maximum(a, b)[k, run]
    p, q = touching_pairs(lo, hi, vertical, strict=True)
    h, w = np.where(vertical[p] == 1, q, p), np.where(vertical[p] == 1, p, q)
    depth_h, depth_w = a[h, va], a[w, va]
    broken = (vertical[p] == vertical[q]) | (depth_h == depth_w)
    if broken.any():
        f = int(np.argmax(broken))
        if vertical[p[f]] == vertical[q[f]]:
            raise PlacementError(f"edges {idx[p[f]]} and {idx[q[f]]} overlap in projection")
        raise PlacementError(f"edges {idx[h[f]]} and {idx[w[f]]} cross at equal depth "
                             f"{depth_h[f].item()}")
    front = depth_h < depth_w
    over, under = np.where(front, h, w), np.where(front, w, h)
    # Tangents are +-1 along the first moving axis.  The sign is -(t_over x
    # t_under) . e_view, and e_i x e_j . e_k = (i - j)(j - k)(k - i) / 2.
    t_axis = np.argmax(a != b, axis=1)
    t_sign = np.sign((b - a)[k, t_axis])
    ao, au = t_axis[over], t_axis[under]
    sign = -t_sign[over] * t_sign[under] * (ao - au) * (au - va) * (va - ao) // 2
    crossings = [ProjectedCrossing(position=(x, z), sign=s, over_edge=o, under_edge=u)
                 for x, z, s, o, u in zip(*(arr.tolist() for arr in (
                     a[w, plane[0]], a[h, plane[1]], sign, idx[over], idx[under])))]
    return tuple(sorted(crossings, key=lambda c: c.position))
