"""Holonomies and linking numbers in the circuit complement.

The line integral of the field around a closed loop equals, by the Ampere /
Stokes argument, 4*pi*k times the (integer) linking number of the loop with
the circuit.  That identity is the computable form of the claim that the
field is a flat connection on the knot complement: curl-free away from the
wire yet with non-trivial circulation around it.

Two independent routes are implemented so they can catch each other's bugs.
Both read each loop's ``_clearances`` entry, its clearance and exact pair
signs, measured once per live loop and knot and kept for all three calls, by
which ``_edges`` refuses a loop on or near the circuit before either route runs:

* ``holonomy`` integrates the closed-form field along the loop, one
  ``_bisect`` row per (loop edge, stick) pair of nonzero sign: that stick's
  term alone, so cost follows the near sticks.  A row starts split where the
  edge passes closest to the stick's line, and each loop draws on one error
  pool (QUADPACK's QAG and QAGP, Piessens et al. 1983); each depth's kernel
  calls span all loops;
* ``linking_number`` sums the Gauss double integral exactly, one closed-form
  signed solid angle per (loop edge, knot stick) pair (Banchoff 1976;
  Klenin & Langowski 2000) -- no surface construction, no reuse of the
  closed-form field -- and rounds to the nearest integer, refusing to
  answer when the rounding residual is ambiguous.  Corners and normals are
  x, y, z arrays over every pair and corner at once, signed by the entries.

Sign conventions: a loop circulating counterclockwise about +z around a
single +z current stick has holonomy +4*pi*k and linking number +1.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

from .geometry import LatticeKnot, PackedSticks, parse_point_lines, stick_ends
from .biot_savart import (
    DEFAULT_EXCLUSION_RADIUS,
    FieldError,
    QuadratureError,
    _TILE_PAIRS,
    _bisect,
    _check_bounds,
    _check_positive,
    _pair_terms,
    _times_k,
)


class LoopOnConductorError(FieldError):
    """A loop edge passes within the exclusion radius of the circuit."""

    def __init__(self, loop_edge, segment_index, distance):
        self.loop_edge, self.segment_index = loop_edge, segment_index
        self.distance = float(distance)
        super().__init__(f"loop edge {loop_edge} passes {distance:.3g} from circuit "
                         f"segment {segment_index}")


class LinkingPrecisionError(FieldError):
    """The Gauss linking sum does not round convincingly to an integer, or the
    loop is not representable: its distances to the circuit or the sum overflow."""


@dataclass(frozen=True)
class Loop:
    """Oriented closed polyline (real coordinates, not lattice-bound)."""

    vertices: tuple[tuple[float, float, float], ...]
    name: str = ""

    def __post_init__(self):
        verts = tuple(tuple(float(c) for c in v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise ValueError(f"loop needs at least 3 vertices, got {len(verts)}")
        for i in range(len(verts)):
            if verts[i] == verts[(i + 1) % len(verts)]:
                raise ValueError(f"consecutive loop vertices {i} coincide: {verts[i]}")

    def __reduce__(self):    # as ``LatticeKnot``'s: a copy rebuilds its cache
        return Loop, (self.vertices, self.name)

    @cached_property
    def _ends(self) -> np.ndarray:
        """(2, n, 3): each edge's start and end, read-only, cached as the knot's are."""
        ends = np.array((self.vertices, self.vertices[1:] + self.vertices[:1]))
        ends.flags.writeable = False
        return ends

    def reversed(self) -> "Loop":
        return Loop(vertices=tuple(reversed(self.vertices)), name=self.name)


@dataclass(frozen=True)
class HolonomyResult:
    """Line integral of the field around a loop, in units of k.

    ``estimated_error`` is |k| times the loop's pooled sum of |K21 - G10|
    over its rows' accepted panels, at most tol except where the 64-ulp
    floor accepts: an estimate, not a bound, for the 21-point sums returned
    as ``value``.  ``pair_evaluations`` counts the rows' (node, stick)
    evaluations and ``depth`` is their deepest halving.
    """

    value: float
    estimated_error: float
    edges_evaluated: int
    inferred_linking: int
    residual: float
    k: float
    pair_evaluations: int
    depth: int


def loop_clearance(knot: LatticeKnot, loop: Loop):
    """Distance from the loop to the circuit, over every (loop edge, stick)
    pair: its ``_clearances`` entry's first two, or ``_refusal``'s error when not finite."""
    (entry,) = _clearances(knot, [loop])
    if (refusal := _refusal(entry)) is not None:
        raise refusal
    return entry[:2]


def _refusal(entry, radius=None):
    """A new error refusing a ``_clearances`` entry's loop, or None: LinkingPrecisionError if
    not finite, else, given a ``radius``, LoopOnConductorError if a pair meets or it is below."""
    distance, (edge, stick), _, meets = entry
    if not math.isfinite(distance):
        return LinkingPrecisionError(f"loop edge {edge} is not representable: its distance "
                                     f"to circuit segment {stick} evaluates to {distance}")
    return LoopOnConductorError(edge, stick, distance) if radius is not None and (
        meets or distance < radius) else None


def _stack(loops):
    """(sizes, firsts, starts, ends): the loops' edges as (M, 3) rows, loop l's
    from firsts[l]; a lone loop's are its own cached ``Loop._ends``."""
    sizes = [len(loop.vertices) for loop in loops]
    starts, ends = loops[0]._ends if len(loops) == 1 else np.concatenate(
        [loop._ends for loop in loops] or [np.empty((2, 0, 3))], axis=1)
    return sizes, list(accumulate(sizes, initial=0)), starts, ends


_kept = weakref.WeakKeyDictionary()     # loop -> (weakref to its last knot, its entry)


def _clearances(knot: LatticeKnot, loops):
    """Each loop's ``_measure`` entry, kept for the last knot it was measured
    against (loops match by equality, knots by identity; neither is kept alive
    or given an attribute, so both pickle); the rest take one ``_measure`` pass."""
    entries = [kept[1] if (kept := _kept.get(loop)) and kept[0]() is knot else None
               for loop in loops]
    if todo := [i for i, entry in enumerate(entries) if entry is None]:
        for i, entry in zip(todo, _measure(knot, [loops[i] for i in todo])):
            entries[i], _kept[loops[i]] = entry, (weakref.ref(knot), entry)
    return entries


def _measure(knot: LatticeKnot, loops):
    """Each loop's entry from one pass over every loop's stacked rows: (its
    clearance, (loop_edge, segment_index) at its closest approach, the first
    in (edge, stick) order on ties, a read-only int8 copy of its own (edges,
    sticks) ``_orient`` signs, whether a pair meets).  A pair that meets is at
    0, any other at the standard clamped closest-point distance, the parallel
    case resolved by the same clamping iteration; its dot products are batched
    matmuls and einsums, which reduce each pair in the order one edge alone
    would, so a distance does not depend on the other edges or loops.
    Coordinates too large to square overflow: such a loop is not representable,
    and its entry is its first pair whose distance is inf or NaN."""
    (sizes, firsts, p0, p1), (q0, q1) = _stack(loops), stick_ends(knot)
    with np.errstate(all="ignore"):
        d1 = p1 - p0                                # (M, 3)
        d2 = q1 - q0                                # (N, 3)
        r = p0[:, None, :] - q0                     # (M, N, 3)
        a = (d1[:, None, :] @ d1[:, :, None])[:, 0]   # (M, 1)
        e = np.einsum("nc,nc->n", d2, d2)           # (N,)
        f = np.einsum("nc,enc->en", d2, r)          # (M, N)
        c = (r @ d1[:, :, None])[..., 0]
        b = (d2 @ d1[:, :, None])[..., 0]
        denom = a * e - b * b
        s = np.where(denom > 0.0, np.clip((b * f - c * e) / denom, 0.0, 1.0), 0.0)
        t = (b * s + f) / e
        # Clamp t, then recompute s against the clamped t where needed; a
        # clamped s clamps to itself.
        s = np.where(t < 0.0, -c / a, np.where(t > 1.0, (b - c) / a, s)).clip(0.0, 1.0)
        t = t.clip(0.0, 1.0)
        gap = p0[:, None, :] + s[..., None] * d1[:, None, :] - (q0 + t[..., None] * d2)
        d = np.sqrt(np.add.reduce(gap * gap, axis=-1))      # np.linalg.norm's own sum
    sign, meets = _orient(knot, p0, p1)
    d[meets] = 0.0          # a pair that meets is at 0, not its rounding
    entries = []
    for lo, n in zip(firsts, sizes):
        rows, own = d[lo:lo + n], sign[lo:lo + n].astype(np.int8)
        own.flags.writeable = False
        i, j = divmod(int(np.argmin(np.where(np.isfinite(rows), rows, -np.inf))), rows.shape[1])
        entries.append((float(rows[i, j]), (i, j + 1), own, bool(meets[lo:lo + n].any())))
    return entries


def _orient(knot: LatticeKnot, p0, p1):
    """(sign, meets), (M, N) over the (edge p0->p1, stick q0->q1) pairs, both exact:
    the sign of ((q1-q0) x (p1-p0)) . (q0-p0), on the lattice premise L*h*(d_b*r_c -
    d_c*r_b) with d = p1-p0, r = q0-p0 in the stick's roles (a, b, c) and h its hand:
    Shewchuk's orient2d (Discrete Comput. Geom. 18:305, 1997), in floats where it clears
    his bound (3 + 16e)e(|d_b*r_c| + |d_c*r_b|), e = 2^-53, or both products are 0 by
    their factors, else in rationals by ``_exact``.  A pair meets only at 0, with the
    crossing in both spans: for an edge along a or across it, where their ranges
    overlap.  An edge not finite meets nothing."""
    sticks = knot.sticks
    (lo, hi), q = sticks.span[..., 0].tolist(), sticks.start[..., 0]
    e0, e1 = p0[:, sticks.roles], p1[:, sticks.roles]      # (M, 3, N): in each stick's roles
    with np.errstate(all="ignore"):
        d, r = e1 - e0, q - e0
        left, right = d[:, 1] * r[:, 2], d[:, 2] * r[:, 1]
        sure = abs(det := left - right) > (3.0 + 2.0 ** -49) * 2.0 ** -53 * (abs(left) + abs(right))
    sign, meets = np.sign(det) * sticks.hand.T + 0.0, np.zeros(det.shape, bool)
    # The pairs left, but an edge along a off the stick's line, of sign 0 and meeting nothing.
    for i, j in zip(*np.nonzero(~sure & ((d[:, 1] != 0.0) | (d[:, 2] != 0.0)
                                         | (r[:, 1] == 0.0) & (r[:, 2] == 0.0)))):
        a0, b0, c0, a1, b1, c1 = ends = [*e0[i, :, j].tolist(), *e1[i, :, j].tolist()]
        (db, dc), (rb, rc), (qb, qc) = d[i, 1:, j].tolist(), r[i, 1:, j].tolist(), q[1:, j]
        if not all(map(math.isfinite, ends)):
            continue
        if (db == 0.0 or rc == 0.0) and (dc == 0.0 or rb == 0.0) and (a0 == a1 or db == dc == 0.0):
            meets[i, j] = all(min(x0, x1) <= top and bottom <= max(x0, x1) for x0, x1, bottom, top
                              in ((a0, a1, lo[j], hi[j]), (b0, b1, qb, qb), (c0, c1, qc, qc)))
        else:
            s, meets[i, j] = _exact(*ends, qb, qc, lo[j], hi[j])
            sign[i, j] = s * sticks.hand[j, 0] + 0.0
    return sign, meets


def _exact(*coordinates):
    """``_orient``'s (sign, meets) in rationals from a0, b0, c0, a1, b1, c1, qb, qc,
    lo, hi: at determinant 0 the edge crosses the stick's line at s."""
    from fractions import Fraction      # here: importing it costs every run 2 ms, rarely needed
    a0, b0, c0, a1, b1, c1, qb, qc, lo, hi = map(Fraction, coordinates)
    (db, dc), (rb, rc) = (b1 - b0, c1 - c0), (qb - b0, qc - c0)
    if det := db * rc - dc * rb:
        return (det > 0) - (det < 0), False
    s = (db * rb + dc * rc) / (db * db + dc * dc)
    return 0, 0 <= s <= 1 and lo <= a0 + s * (a1 - a0) <= hi


def holonomy(knot: LatticeKnot, loop: Loop, tol: float = 1e-6,
             exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
             max_levels: int = 40) -> HolonomyResult:
    """Integrate the circuit's field along the loop.

    Each (loop edge, stick) pair is integrated by adaptive bisection of
    QK21 panels at most ``max_levels`` deep, its error estimated from each
    panel's embedded Gauss sum, every pair drawing on one pool of the
    absolute tolerance: the one-loop case of ``_holonomy_results``.  Raises
    LoopOnConductorError or LinkingPrecisionError from ``_edges``' check of
    the loop's clearance, QuadratureError naming the first unconverged panel
    [lo, hi] of an edge and the stick it was integrated against, and
    ValueError for a tol or exclusion_radius not finite and > 0, a
    max_levels not an int >= 0, or a k so large that the result overflows.
    """
    return _holonomy_results(knot, [loop], tol, exclusion_radius, max_levels)[0]


def _edges(knot: LatticeKnot, loops, radius):
    """(sizes, firsts, starts, ends, sign): ``_stack`` of the loops and their
    ``_clearances`` entries' signs, stacked, or the first ``_refusal`` at
    ``radius`` of an entry, raised before any loop is integrated or summed."""
    entries = _clearances(knot, loops)
    for entry in entries:
        if (refusal := _refusal(entry, radius)) is not None:
            raise refusal
    return (*_stack(loops), np.concatenate([entry[2] for entry in entries] or [np.empty((0, 0))]))


def _holonomy_results(knot: LatticeKnot, loops, tol: float = 1e-6,
                      exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
                      max_levels: int = 40) -> list[HolonomyResult]:
    """``holonomy`` of each loop, bit for bit, or ``_edges``' refusal, else the
    first error ``holonomy`` raises on the loops in order.  Each (loop edge,
    stick) pair of nonzero kept sign (0 is coplanar, an exact zero) is one
    ``_bisect`` row: the stick's field dotted with the step d, on the lattice
    premise hand * (d_b * r_c - d_c * r_b), ``_orient``'s determinant in the
    stick's roles (a, b, c), r = q0 - p0, times the factor of stick i alone
    at row i's nodes as in ``_paired_field``, split first where, inside
    the edge, it passes closest to the stick's line.  A pair carries its own
    node, so a call takes ``_TILE_PAIRS`` / 8 pairs, which keeps ``verify``'s
    peak memory.  Each loop is one error pool; an edge sums its rows onto
    zero in flow order, a loop its edges, Lk at k = 1.
    """
    _check_bounds(tol, max_levels, "max_levels")
    _check_positive("exclusion_radius", exclusion_radius)
    sizes, firsts, starts, ends, sign = _edges(knot, loops, exclusion_radius)
    edge, stick = np.nonzero(sign)
    role = knot.sticks.roles[:, stick]
    e0, d = starts[edge, role], (ends - starts)[edge, role]     # (3, R), in the stick's roles

    def integrand(rows, t):         # stick[rows[i]]'s field . step at edge[rows[i]]'s nodes t[i]
        f, chunk = np.empty(t.shape), _TILE_PAIRS // 8 // t.shape[1]
        for i in (slice(n, n + chunk) for n in range(0, len(rows), chunk)):
            at, j = rows[i], stick.take(rows[i])
            sticks = PackedSticks(knot.sticks.roles.take(j, 1),
                                  *(x.take(j, -2) for x in knot.sticks[1:]))
            nodes = e0.take(at, 1)[..., None] + t[i] * d.take(at, 1)[..., None]
            f[i] = next(_pair_terms([(sticks, *nodes)], clearance=False))[2] * det[at, None]
        return f

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = knot.sticks.start[1:, stick, 0] - e0[1:]
        det = knot.sticks.hand[stick, 0] * (d[1] * r[1] - d[2] * r[0])
        peak = (r[0] * d[1] + r[1] * d[2]) / (d[1] * d[1] + d[2] * d[2])
        split = (peak > 0.0) & (peak < 1.0)
        rows = np.repeat(np.arange(len(edge)), 1 + split)
        lo, hi, first = np.zeros(len(rows)), np.ones(len(rows)), np.cumsum(1 + split)[split] - 2
        hi[first] = lo[first + 1] = peak[split]
        sums, pools, stats, failure = _bisect(integrand, rows, lo, hi, np.repeat(
            np.arange(len(sizes)), sizes)[edge], np.full(len(sizes), tol), max_levels)
    edge_sums, results = np.bincount(edge, sums, len(starts)).tolist(), []
    for size, lo, est, (panels, depth) in zip(sizes, firsts, pools.tolist(), stats.tolist()):
        if failure and edge[failure[0]] < lo + size:    # the first loop left unconverged
            raise QuadratureError(f"holonomy edge {edge[failure[0]] - lo} failed to converge to "
                                  f"{tol:.3g} on [{failure[2]}, {failure[3]}] against circuit "
                                  f"segment {stick[failure[0]] + 1} after {failure[1]} halvings")
        value = 0.0
        for v in edge_sums[lo:lo + size]:      # the loop's edges onto zero in order
            value += v
        # The pool est >= 0, so |est * k| is est * |k|.
        inferred = int(round(value / (4.0 * math.pi))) if knot.k != 0 else 0
        value, est, residual = _times_k(np.array([value, est, value - 4.0 * math.pi * inferred]),
                                        knot.k).tolist()
        results.append(HolonomyResult(value, abs(est), size, inferred, residual, knot.k,
                                      21 * panels, depth))
    return results


def linking_number(knot: LatticeKnot, loop: Loop) -> int:
    """Gauss linking number of the loop with the knot, summed exactly.

    The Gauss double integral over one straight loop edge p0->p1 and one
    straight knot stick q0->q1 is the signed solid angle that their
    difference parallelogram subtends, in closed form (Banchoff, Indiana
    Univ. Math. J. 25, 1976; Klenin & Langowski, Biopolymers 54:307, 2000):

        Omega = sign(((q1-q0) x (p1-p0)) . (q0-p0)) * sum_i arcsin(n_i . n_i+1)

    with n_i the unit normals of the planes spanned by consecutive corners
    q0-p0, q1-p0, q1-p1, q0-p1 of the parallelogram.  The linking number is
    the sum of Omega over every (loop edge, knot stick) pair divided by
    4*pi; no quadrature is involved.  The sum uses only the two polylines,
    never the closed-form field, so it stays an independent check of
    ``holonomy``.  The sign is ``_orient``'s, exact, so it does not flip near
    contact, and a coplanar pair (a loop vertex on a stick's axis extension,
    say) contributes exactly 0.  Raises LoopOnConductorError when a pair
    meets, by ``_orient``, not when a distance merely rounds to 0, and
    LinkingPrecisionError when the loop's clearance is not representable or
    the sum overflows or does not round convincingly: the one-loop case of
    ``_linking_results``.
    """
    return _linking_results(knot, [loop])[0][0]


def _linking_results(knot: LatticeKnot, loops) -> list[tuple[int, float]]:
    """(``linking_number``, the Gauss sum / 4*pi it rounds) of each loop, bit
    for bit, or ``_edges``' refusal, else the pass's overflow, else the first
    ambiguous loop's error.  One pass takes every loop's (edge, stick) rows,
    stacked, and each loop's Gauss sum is ``np.sum`` over its own contiguous
    rows, its kept signs times solid angles, as alone.  The pass forms x, y
    and z arrays, with ``np.cross``'s products and each three-term sum as
    ((x + y) + z), the order of ``np.sum`` and ``np.linalg.norm`` over a last
    axis of 3, each normal scaled first by 2^-e, e the exponent of its largest
    |component|: exact, so no n . n leaves the normal range near a stick's line.
    """
    sizes, firsts, p0, p1, sign = _edges(knot, loops, 0.0)
    # (coordinate, end, loop edge, 1) and (coordinate, end, 1, knot stick) arrays.
    p, q = (np.array(e).transpose(2, 0, 1) for e in ((p0, p1), stick_ends(knot)))
    p, q = p[..., None], q[:, :, None]
    try:
        with np.errstate(over="raise", invalid="raise"):
            c = q[:, [0, 1, 1, 0]] - p[:, [0, 0, 1, 1]]     # corners q0-p0, q1-p0, q1-p1, q0-p1
            e = c[:, [1, 2, 3, 0]]                          # n = c x e, as np.cross forms it
            n = np.array((c[1] * e[2] - c[2] * e[1], c[2] * e[0] - c[0] * e[2],
                          c[0] * e[1] - c[1] * e[0]))
            n = np.ldexp(n, -np.frexp(abs(n).max(axis=0))[1])
            norm = np.sqrt(np.add.reduce(n * n))
            n = np.divide(n, norm, out=np.zeros_like(n), where=norm > 0.0)
            omega = sum(np.arcsin(np.clip(np.add.reduce(n * n[:, [1, 2, 3, 0]]), -1.0, 1.0)))
    except FloatingPointError as exc:
        raise LinkingPrecisionError(f"Gauss sum not representable: {exc}") from exc
    results = []
    for lo, n in zip(firsts, sizes):
        total = float(np.sum(sign[lo:lo + n] * omega[lo:lo + n])) / (4.0 * math.pi)
        # NaN fails every comparison, so a non-finite sum is refused explicitly.
        residual = abs(total - round(total)) if math.isfinite(total) else math.inf
        if residual >= 0.25:
            raise LinkingPrecisionError(
                f"Gauss sum {total:.6f} rounds ambiguously (residual {residual:.3f})"
            )
        results.append((int(round(total)), total))
    return results


# --- loop file format (same grammar as knot files, real coordinates) --------


def parse_loop_text(text: str, name: str = "") -> Loop:
    return Loop(vertices=tuple(parse_point_lines(text, float)), name=name)


def read_loop_file(path, name: str | None = None) -> Loop:
    p = Path(path)
    return parse_loop_text(p.read_text(encoding="ascii"), name=name or p.stem)
