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
builder is deterministic and favors an obviously-correct embedding over a
small one; minimal embeddings are the knot catalog's job, not the builder's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .geometry import Axis, LatticeKnot, validate


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


def braid_permutation(word: BraidWord) -> tuple[int, ...]:
    """perm[j] = slot (0-based) where the strand starting in slot j ends."""
    occupant = list(range(word.strands))
    for gi, _sign in word.letters:
        i = gi - 1
        occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
    perm = [0] * word.strands
    for slot, strand in enumerate(occupant):
        perm[strand] = slot
    return tuple(perm)


def permutation_cycles(word: BraidWord) -> tuple[tuple[int, ...], ...]:
    perm = braid_permutation(word)
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


@dataclass(frozen=True)
class LetterPlacement:
    x_interval: tuple[int, int]
    lower_slot: int            # 0-based slot of the lower participating strand
    migrates_lower: bool       # True when the lower strand visits the back face
    heights: tuple[int, int]   # z of the two participating strands at entry


@dataclass(frozen=True)
class EmbeddingPlan:
    """Where each letter's crossing tile sits and how the closure returns."""

    strands: int
    placements: tuple[LetterPlacement, ...]
    front_y: int
    back_y: int
    closure_levels: tuple[int, ...]    # return z-level for slot j (0-based)
    bounding_box: tuple[tuple[int, int, int], tuple[int, int, int]]


def plan_embedding(word: BraidWord) -> EmbeddingPlan:
    n, m = word.strands, len(word.letters)
    placements = []
    occupied_slots = list(range(n))
    for j, (gi, sign) in enumerate(word.letters):
        i = gi - 1
        placements.append(
            LetterPlacement(
                x_interval=(4 * j, 4 * j + 4),
                lower_slot=i,
                migrates_lower=sign > 0,
                heights=(2 * (i + 1), 2 * (i + 2)),
            )
        )
    levels = tuple(2 * n + 2 * (n - s) for s in range(n))
    xr = 4 * m
    return EmbeddingPlan(
        strands=n,
        placements=tuple(placements),
        front_y=0,
        back_y=2,
        closure_levels=levels,
        bounding_box=((-2 * n, 0, 2), (xr + 2 * n, 2, 4 * n)),
    )


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

    plan = plan_embedding(word)
    n, fy, by = plan.strands, plan.front_y, plan.back_y
    paths = {s: [(0, fy, 2 * (s + 1))] for s in range(n)}
    occupant = list(range(n))

    for tile in plan.placements:
        x0, x1 = tile.x_interval
        i = tile.lower_slot
        lo, hi = occupant[i], occupant[i + 1]
        # The strand passing behind runs from height zb to zf along the back
        # face; the other descends or rises in front through the odd
        # mid-level, so the projections cross exactly once.
        if tile.migrates_lower:
            back, front, (zb, zf) = lo, hi, tile.heights
        else:
            back, front, (zf, zb) = hi, lo, tile.heights
        zm = (zb + zf) // 2
        paths[back] += [
            (x0 + 1, fy, zb), (x0 + 1, by, zb), (x0 + 2, by, zb),
            (x0 + 2, by, zf), (x0 + 3, by, zf), (x0 + 3, fy, zf),
            (x1, fy, zf),
        ]
        paths[front] += [
            (x0 + 1, fy, zf), (x0 + 1, fy, zm), (x0 + 3, fy, zm),
            (x0 + 3, fy, zb), (x1, fy, zb),
        ]
        occupant[i], occupant[i + 1] = hi, lo
        for s in range(n):
            if s not in (i, i + 1):
                paths[occupant[s]].append((x1, fy, 2 * (s + 1)))

    final_slot = {strand: slot for slot, strand in enumerate(occupant)}
    xr = plan.placements[-1].x_interval[1]

    points = []
    strand = 0
    while True:
        points += paths[strand]
        slot = final_slot[strand]
        z = 2 * (slot + 1)
        q = n - slot                      # lower slots take wider, higher arcs
        level = plan.closure_levels[slot]
        points += [
            (xr + 2 * q, fy, z), (xr + 2 * q, fy, level),
            (-2 * q, fy, level), (-2 * q, fy, z), (0, fy, z),
        ]
        strand = slot                      # strand ids equal their start slots
        if strand == 0:
            break

    vertices = _merge_collinear(points)
    knot = LatticeKnot(vertices=tuple(vertices), name=f"closure({format_braid(word) or 'e'})")

    report = validate(knot)
    if not report.ok:
        raise PlacementError(
            "braid layout produced an invalid knot: " + "; ".join(report.violations)
        )
    crossings = projection_crossings(knot)
    if len(crossings) != crossing_count(word):
        raise PlacementError(
            f"projection has {len(crossings)} crossings, expected {crossing_count(word)}"
        )
    if sum(c.sign for c in crossings) != writhe(word):
        raise PlacementError("projected crossing signs do not sum to the writhe")
    return knot


def _merge_collinear(points):
    """Drop duplicate and collinear interior points of a closed polyline."""
    pts = []
    for p in points:
        if not pts or p != pts[-1]:
            pts.append(p)
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()

    def moving_axis(a, b):
        ax = [i for i in range(3) if a[i] != b[i]]
        return ax[0] if len(ax) == 1 else None

    changed = True
    while changed and len(pts) > 2:
        changed = False
        out = []
        k = len(pts)
        for i in range(k):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % k]
            ax1, ax2 = moving_axis(a, b), moving_axis(b, c)
            if ax1 is not None and ax1 == ax2:
                changed = True
                continue
            out.append(b)
        pts = out
    return pts


@dataclass(frozen=True)
class ProjectedCrossing:
    position: tuple[int, int]    # (x, z) of the double point
    sign: int
    over_edge: int               # 0-based edge indices into segments(knot)
    under_edge: int


def projection_crossings(knot: LatticeKnot, view_axis: Axis = Axis.Y) -> tuple[ProjectedCrossing, ...]:
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
