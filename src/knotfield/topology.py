"""Holonomies and linking numbers in the circuit complement.

The line integral of the field around a closed loop equals, by the Ampere /
Stokes argument, 4*pi*k times the (integer) linking number of the loop with
the circuit.  That identity is the computable form of the claim that the
field is a flat connection on the knot complement: curl-free away from the
wire yet with non-trivial circulation around it.

Two independent routes are implemented so they can catch each other's bugs,
each refusing a loop by its clearance from the circuit, measured once per
live loop and knot by ``_clearances``, in one pass over the (edge, stick)
pairs of every loop it lacks, and kept for all three calls:

* ``holonomy`` integrates the closed-form superposed field along the loop
  (Gauss panels bisected by the quadrature oracle's integrator; each depth's
  kernel calls span all loops).  An edge along axis a reads B_a alone, from
  ``_axis_field``: one call per edge axis from the sticks off that axis, or,
  for a lone loop, one from all the sticks; edges off the axes take the
  full field;
* ``linking_number`` sums the Gauss double integral exactly, one closed-form
  signed solid angle per (loop edge, knot stick) pair (Banchoff 1976;
  Klenin & Langowski 2000) -- no surface construction, no reuse of the
  closed-form field -- and rounds to the nearest integer, refusing to
  answer when the rounding residual is ambiguous.  Corners, normals and
  triple products are x, y, z arrays over every pair and corner at once.

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
    _axis_field,
    _bisect,
    _check_bounds,
    _check_positive,
    _stick_field,
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

    ``estimated_error`` is |k| times the sum of |left + right - coarse| over
    every edge's accepted panels: the error of the coarse panels, not of the
    sum of halves returned as ``value``.  It is usually, but not always,
    above the true error: at tol=1e-6, loop 3 of ``verify --knot 4_1 --seed
    285`` is 4.79e-6 from 4*pi*k*Lk with an estimate of 2.3e-7, and loop 1
    at seed 404 is 4.13e-6 off with an estimate of 3.9e-8.
    """

    value: float
    estimated_error: float
    edges_evaluated: int
    inferred_linking: int
    residual: float
    k: float


def loop_clearance(knot: LatticeKnot, loop: Loop):
    """Distance from the loop to the circuit, over every (loop edge, stick)
    pair: its ``_clearances`` entry, or ``_refusal``'s error when not finite."""
    (entry,) = _clearances(knot, [loop])
    if (refusal := _refusal(entry)) is not None:
        raise refusal
    return entry


def _refusal(entry, on_conductor=False):
    """A new error refusing a ``_clearances`` entry's loop, or None: LinkingPrecisionError
    if its distance is not finite, else LoopOnConductorError if ``on_conductor``."""
    distance, (edge, stick) = entry
    if not math.isfinite(distance):
        return LinkingPrecisionError(f"loop edge {edge} is not representable: its distance "
                                     f"to circuit segment {stick} evaluates to {distance}")
    return LoopOnConductorError(edge, stick, distance) if on_conductor else None


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
    """Each loop's (clearance, (loop_edge, segment_index)) at its closest
    approach, the first in (edge, stick) order on ties, from one pass over
    every loop's stacked rows.  Each pair's distance is the standard clamped
    closest-point computation, with the parallel case resolved by the same
    clamping iteration; its dot products are batched matmuls and einsums,
    which reduce each pair in the order one edge alone would, so a distance
    does not depend on the other edges or loops.  Coordinates too large to
    square overflow: such a loop is not representable, and its entry is its
    first pair whose distance is inf or NaN."""
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
    entries = []
    for rows in (d[lo:lo + n] for lo, n in zip(firsts, sizes)):
        i, j = divmod(int(np.argmin(np.where(np.isfinite(rows), rows, -np.inf))), rows.shape[1])
        entries.append((float(rows[i, j]), (i, j + 1)))
    return entries


def holonomy(knot: LatticeKnot, loop: Loop, tol: float = 1e-6,
             exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
             max_levels: int = 40) -> HolonomyResult:
    """Integrate the circuit's field along the loop.

    Each loop edge gets an equal share of the absolute tolerance and is
    integrated by adaptive bisection of Gauss panels at most ``max_levels``
    deep, its error estimated from each accepted panel's halves: the
    one-loop case of ``_holonomy_results``.  Raises LoopOnConductorError or
    LinkingPrecisionError from the check of the loop's clearance,
    QuadratureError when an edge does not converge, and ValueError for a
    tol or exclusion_radius not finite and > 0, a max_levels not an int >= 0,
    or a k so large that the result overflows.
    """
    return _holonomy_results(knot, [loop], tol, exclusion_radius, max_levels)[0]


def _edges(knot: LatticeKnot, loops, refused):
    """(sizes, firsts, starts, ends, refusal): ``_stack`` of the loops before
    the first refused one, and that loop's error or None: ``_refusal`` of its
    ``_clearances`` entry, on the conductor when its distance is ``refused``."""
    for kept, entry in enumerate(_clearances(knot, loops)):
        if (refusal := _refusal(entry, refused(entry[0]))) is not None:
            return (*_stack(loops[:kept]), refusal)     # raised after the loops before it
    return (*_stack(loops), None)


def _holonomy_results(knot: LatticeKnot, loops, tol: float = 1e-6,
                      exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
                      max_levels: int = 40) -> list[HolonomyResult]:
    """``holonomy`` of each loop, bit for bit, or the first error it raises on
    the loops in order; each loop keeps its clearance check, budget and edge
    sum, and each edge is one ``_bisect`` row.  An edge along axis a reads
    B_a times its length from ``_axis_field``, with the bits of the full
    field dotted with the edge.  A depth makes one such call per edge axis a
    from the sticks off a, the only ones that add to B_a, or for a lone loop,
    whose few nodes cost less unpruned, one from all the sticks; edges off
    the axes take one ``_stick_field`` call.  Lk and the residual are formed
    at k = 1 and k is applied last, so no subnormal k underflows them.
    """
    _check_bounds(tol, max_levels, "max_levels")
    _check_positive("exclusion_radius", exclusion_radius)
    sizes, firsts, starts, ends, refusal = _edges(knot, loops,
                                                  lambda clear: clear < exclusion_radius)
    steps = ends - starts
    budget, along = np.array([tol / n for n in sizes for _ in range(n)]), knot.sticks.roles[0]
    prune = len(loops) > 1 and (along != along[0]).any()    # else an axis may have no stick off it
    axis = np.where(np.count_nonzero(steps, axis=1) == 1, np.argmax(steps != 0, 1), 3)
    group = np.where(prune | (axis == 3), axis, 4)      # 4: every edge on an axis, all the sticks
    sticks = {g: PackedSticks.pack(*(e[along != g] for e in stick_ends(knot))) if g < 3
              else knot.sticks for g in set(group.tolist())}

    def integrand(rows, t):         # B . step at edge rows[i]'s nodes t[i]
        f = np.empty(t.shape)
        for g in set(group[rows].tolist()) if len(sticks) > 1 else sticks:
            i = np.flatnonzero(group[rows] == g) if len(sticks) > 1 else slice(None)
            step = steps[rows[i], None, None, :]
            pts = starts[rows[i], None, None, :] + t[i, ..., None] * step
            if g == 3:
                b = _stick_field(sticks[g], pts.reshape(-1, 3))[0].reshape(pts.shape)
                f[i] = (b * step).sum(axis=3)
            else:
                a = axis[each := np.repeat(rows[i], t[0].size)]     # each node's edge and axis
                b = _axis_field(sticks[g], pts.reshape(-1, 3), a, steps[each, a])
                f[i] = b.reshape(pts.shape[:3])
        return f

    (sums, failure), results = _bisect(integrand, budget, max_levels), []
    for size, lo in zip(sizes, firsts):
        if failure and failure[0] < lo + size:          # the first loop left unconverged
            raise QuadratureError(f"holonomy edge failed to converge to {tol / size:.3g} "
                                  f"after {max_levels} halvings")
        value = est = 0.0
        for v, e in sums[lo:lo + size].tolist():        # the loop's edges onto zero in order
            value, est = value + v, est + e
        # est >= 0, so |est * k| is est * |k|.
        inferred = int(round(value / (4.0 * math.pi))) if knot.k != 0 else 0
        value, est, residual = _times_k(np.array([value, est, value - 4.0 * math.pi * inferred]),
                                        knot.k).tolist()
        results.append(HolonomyResult(value, abs(est), size, inferred, residual, knot.k))
    if refusal is not None:
        raise refusal
    return results


def _cross(a, b):
    """a x b of coordinates-leading arrays, by ``np.cross``'s products in its order."""
    return np.array((a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]))


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
    ``holonomy``.  Coplanar pairs, including a loop vertex on a stick's axis
    extension, contribute exactly 0.  Raises LoopOnConductorError or
    LinkingPrecisionError from the check of the loop's clearance, and
    LinkingPrecisionError when the sum overflows or does not round
    convincingly: the one-loop case of ``_linking_results``.
    """
    return _linking_results(knot, [loop])[0][0]


def _linking_results(knot: LatticeKnot, loops) -> list[tuple[int, float]]:
    """(``linking_number``, the Gauss sum / 4*pi it rounds) of each loop, bit
    for bit, or the first error it raises on the loops in order.  One pass
    takes every loop's (edge, stick) rows, stacked, and each loop's Gauss sum
    is ``np.sum`` over its own contiguous rows, as alone.  The pass forms x,
    y and z arrays, with ``np.cross``'s products and each three-term sum as
    ((x + y) + z), the order of ``np.sum`` and ``np.linalg.norm`` over a last
    axis of 3.  When it overflows, the loops are taken alone, in order, up to
    the first that raises.
    """
    sizes, firsts, p0, p1, refusal = _edges(knot, loops, lambda clear: clear <= 0.0)
    # (coordinate, end, loop edge, 1) and (coordinate, end, 1, knot stick) arrays.
    p, q = (np.array(e).transpose(2, 0, 1) for e in ((p0, p1), stick_ends(knot)))
    p, q = p[..., None], q[:, :, None]
    try:
        with np.errstate(over="raise", invalid="raise"):
            corners = q[:, [0, 1, 1, 0]] - p[:, [0, 0, 1, 1]]       # q0-p0, q1-p0, q1-p1, q0-p1
            n = _cross(corners, corners[:, [1, 2, 3, 0]])
            norm = np.sqrt(np.add.reduce(n * n))
            n = np.divide(n, norm, out=np.zeros_like(n), where=norm > 0.0)
            omega = sum(np.arcsin(np.clip(np.add.reduce(n * n[:, [1, 2, 3, 0]]), -1.0, 1.0)))
            sign = np.sign(np.add.reduce(_cross(q[:, 1] - q[:, 0], p[:, 1] - p[:, 0])
                                         * corners[:, 0]))
    except FloatingPointError as exc:
        # Each loop alone, in order: the first that fails raises its own error.
        for loop in loops[:len(sizes)] if len(sizes) > 1 else ():
            _linking_results(knot, [loop])
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
    if refusal is not None:
        raise refusal
    return results


# --- loop file format (same grammar as knot files, real coordinates) --------


def parse_loop_text(text: str, name: str = "") -> Loop:
    return Loop(vertices=tuple(parse_point_lines(text, float)), name=name)


def read_loop_file(path, name: str | None = None) -> Loop:
    p = Path(path)
    return parse_loop_text(p.read_text(encoding="ascii"), name=name or p.stem)
