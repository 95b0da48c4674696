"""Holonomies and linking numbers in the circuit complement.

The line integral of the field around a closed loop equals, by the Ampere /
Stokes argument, 4*pi*k times the (integer) linking number of the loop with
the circuit.  That identity is the computable form of the claim that the
field is a flat connection on the knot complement: curl-free away from the
wire yet with non-trivial circulation around it.

Two independent routes are implemented so they can catch each other's bugs:

* ``holonomy`` integrates the closed-form superposed field along the loop
  (Gauss panels halved level by level on each edge, with a Richardson-style
  error estimate from successive refinements; each level refines every edge
  not yet converged in one kernel call);
* ``linking_number`` sums the Gauss double integral exactly, one closed-form
  signed solid angle per (loop edge, knot stick) pair (Banchoff 1976;
  Klenin & Langowski 2000) -- no surface construction, no reuse of the
  closed-form field -- and rounds to the nearest integer, refusing to
  answer when the rounding residual is ambiguous.

Sign conventions: a loop circulating counterclockwise about +z around a
single +z current stick has holonomy +4*pi*k and linking number +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import LatticeKnot, parse_point_lines, stick_ends
from .biot_savart import (
    DEFAULT_EXCLUSION_RADIUS,
    FieldError,
    QuadratureError,
    _GL_W,
    _GL_X,
    _stick_field,
    _times_k,
)


class LoopOnConductorError(FieldError):
    """A loop edge passes within the exclusion radius of the circuit."""

    def __init__(self, loop_edge, segment_index, distance):
        self.loop_edge = loop_edge
        self.segment_index = segment_index
        self.distance = float(distance)
        super().__init__(
            f"loop edge {loop_edge} passes {distance:.3g} from circuit "
            f"segment {segment_index}"
        )


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

    def reversed(self) -> "Loop":
        return Loop(vertices=tuple(reversed(self.vertices)), name=self.name)

    def scaled(self, factor: float) -> "Loop":
        return Loop(
            vertices=tuple(tuple(c * factor for c in v) for v in self.vertices),
            name=self.name,
        )


@dataclass(frozen=True)
class HolonomyResult:
    """Line integral of the field around a loop, in units of k."""

    value: float
    estimated_error: float
    edges_evaluated: int
    inferred_linking: int
    residual: float
    k: float


def loop_clearance(knot: LatticeKnot, loop: Loop):
    """Distance from the loop to the circuit, over every (loop edge, stick) pair.

    Returns (clearance, (loop_edge, segment_index)) for the closest approach,
    the first in (edge, stick) order on ties.  Each pair's distance is the
    standard clamped closest-point computation, with the parallel case
    resolved by the same clamping iteration; its dot products are batched
    matmuls and einsums, which reduce each pair in the order one edge alone
    would, so a distance does not depend on the other edges.  Coordinates
    too large to square overflow to inf or NaN, and LinkingPrecisionError
    names the first pair whose distance is not finite: the loop is then not
    representable and its closest approach is unknown.
    """
    (q0, q1), p0 = stick_ends(knot), np.array(loop.vertices)
    with np.errstate(all="ignore"):
        d1 = np.roll(p0, -1, axis=0) - p0           # (E, 3)
        d2 = q1 - q0                                # (N, 3)
        r = p0[:, None, :] - q0                     # (E, N, 3)
        a = (d1[:, None, :] @ d1[:, :, None])[:, 0]   # (E, 1)
        e = np.einsum("nc,nc->n", d2, d2)           # (N,)
        f = np.einsum("nc,enc->en", d2, r)          # (E, N)
        c = (r @ d1[:, :, None])[..., 0]
        b = (d2 @ d1[:, :, None])[..., 0]
        denom = a * e - b * b
        s = np.where(denom > 0.0, np.clip((b * f - c * e) / denom, 0.0, 1.0), 0.0)
        t = (b * s + f) / e
        # Clamp t, then recompute s against the clamped t where needed.
        s = np.where(t < 0.0, np.clip(-c / a, 0.0, 1.0),
                     np.where(t > 1.0, np.clip((b - c) / a, 0.0, 1.0), s))
        t = np.clip(t, 0.0, 1.0)
        closest1 = p0[:, None, :] + s[..., None] * d1[:, None, :]
        closest2 = q0 + t[..., None] * d2
        d = np.linalg.norm(closest1 - closest2, axis=-1)
    bad = np.flatnonzero(~np.isfinite(d))
    if bad.size:
        i, j = divmod(int(bad[0]), d.shape[1])
        raise LinkingPrecisionError(
            f"loop edge {i} is not representable: its distance to circuit "
            f"segment {j + 1} evaluates to {d[i, j]}"
        )
    i, j = divmod(int(np.argmin(d)), d.shape[1])
    return float(d[i, j]), (i, j + 1)


def holonomy(knot: LatticeKnot, loop: Loop, tol: float = 1e-6,
             exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
             max_levels: int = 18) -> HolonomyResult:
    """Integrate the circuit's field along the loop.

    Each loop edge gets an equal share of the absolute tolerance and is
    integrated with composite fixed-order Gauss panels under interval
    halving; the Richardson-style error estimate is the difference between
    successive refinement levels.  Each level evaluates every unconverged
    edge's nodes in one kernel call and reduces each edge's rows on their
    own.  The loop is first checked with ``loop_clearance``:
    LoopOnConductorError when it passes within the exclusion radius,
    LinkingPrecisionError when it is not representable; ValueError when k
    is so large that the result overflows.
    """
    clear, (i, j) = loop_clearance(knot, loop)
    if clear < exclusion_radius:
        raise LoopOnConductorError(i, j, clear)

    starts = np.array(loop.vertices)
    steps = np.roll(starts, -1, axis=0) - starts
    budget = tol / len(starts)
    prev, cur, err = (np.empty(len(starts)) for _ in range(3))
    live = np.arange(len(starts))
    for level in range(max_levels + 1):
        n_panels = 2 ** level
        offsets = (np.arange(n_panels)[:, None] + 0.5 * (_GL_X + 1.0)[None, :]) / n_panels
        t = offsets.ravel()
        w = np.broadcast_to(_GL_W[None, :] / (2.0 * n_panels), offsets.shape).ravel()
        pts = starts[live, None, :] + t[:, None] * steps[live, None, :]
        b = _stick_field(knot.sticks, pts.reshape(-1, 3))[0].reshape(pts.shape)
        cur[live] = [np.dot(w, np.einsum("mc,c->m", b_e, steps[e])) for e, b_e in zip(live, b)]
        if level:
            err[live] = np.abs(cur[live] - prev[live])
            live = live[~(err[live] <= budget)]         # a NaN error never converges
            if not live.size:
                break
        prev[live] = cur[live]
    else:
        raise QuadratureError(
            f"holonomy edge failed to converge to {budget:.3g} "
            f"after {max_levels} halvings"
        )
    value = est = 0.0
    for c, e in zip(cur.tolist(), err.tolist()):
        value += c
        est += e

    # est >= 0, so |est * k| is est * |k|.
    value, est, four_pi_k = _times_k(np.array([value, est, 4.0 * math.pi]), knot.k).tolist()
    est = abs(est)
    inferred = int(round(value / four_pi_k)) if knot.k != 0 else 0
    residual = value - four_pi_k * inferred
    return HolonomyResult(
        value=value,
        estimated_error=est,
        edges_evaluated=len(starts),
        inferred_linking=inferred,
        residual=residual,
        k=knot.k,
    )


def _unit_normals(a, b):
    """Unit vectors along a x b; zero where a and b are parallel."""
    c = np.cross(a, b)
    norm = np.linalg.norm(c, axis=-1, keepdims=True)
    return np.divide(c, norm, out=np.zeros_like(c), where=norm > 0.0)


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
    extension, contribute exactly 0.  Raises LinkingPrecisionError when the
    sum overflows or does not round convincingly.
    """
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
            sign = np.sign(np.sum(np.cross(q1 - q0, p1 - p0) * (q0 - p0), axis=-1))
            total = float(np.sum(sign * omega)) / (4.0 * math.pi)
    except FloatingPointError as exc:
        raise LinkingPrecisionError(f"Gauss sum not representable: {exc}") from exc

    # NaN fails every comparison, so a non-finite sum is refused explicitly.
    residual = abs(total - round(total)) if math.isfinite(total) else math.inf
    if residual >= 0.25:
        raise LinkingPrecisionError(
            f"Gauss sum {total:.6f} rounds ambiguously (residual {residual:.3f})"
        )
    return int(round(total))


# --- loop file format (same grammar as knot files, real coordinates) --------


def parse_loop_text(text: str, name: str = "") -> Loop:
    return Loop(vertices=tuple(parse_point_lines(text, float)), name=name)


def read_loop_file(path, name: str | None = None) -> Loop:
    p = Path(path)
    return parse_loop_text(p.read_text(encoding="ascii"), name=name or p.stem)
