"""Magnetic field of straight segments and lattice knots, in closed form.

Units are Gaussian with the current prefactor k = I/c factored out, so an
infinite straight wire at perpendicular distance r carries |B| = 2k/r.  The
field of a finite stick is

    B = k * (cos t1 + cos t2) / r * phi_hat,

with r the perpendicular distance, t1/t2 the signed angles subtended by the
stick's endpoints, and phi_hat the azimuthal unit vector of the right-hand
rule (for a +z stick, phi_hat ~ -y i + x j).  The signed-cosine form is the
analytic continuation valid on either side of the stick's axial extent.

Every stick is parallel to an axis, so the kernel reads the circuit packed
once per knot (``LatticeKnot.sticks``) and evaluates the equivalent form
k * (u_hat x rho) * (cos t1 + cos t2) / r^2 from coordinate differences:
for a stick along s * e_a, with b < c the other two axes and tb, tc the
point's offsets along them, u_hat x rho is h*tb in component c and -h*tc in
component b, where h = s, or -s for a y stick.  That form vanishes smoothly
on the stick's axis extension; beyond the endpoints the cosine sum is
rearranged into a cancellation-free form so the near-axis limit stays
accurate.  Points go in tiles of at most
``_TILE_PAIRS`` (point, stick) pairs, so memory does not grow with the
batch, and each point's field is summed over the sticks one at a time in
flow order, so its bits depend on neither the tile, the batch nor the thread.
Alongside the field the kernel returns each point's clearance, the distance
to its nearest stick and that stick's index, reduced within the tile: every
exclusion decision reads that one answer.

``segment_field_quadrature`` is a deliberately plain adaptive integrator of
the raw current-element law dB = k dl x s / |s|^3 and serves as the
independent oracle for the closed form everywhere in the test suite.
"""

from __future__ import annotations

import numpy as np

from .geometry import LatticeKnot, PackedSticks, Segment

# Field vectors are numpy arrays of shape (3,): (Bx, By, Bz) in units of k.
FieldVector = np.ndarray

DEFAULT_EXCLUSION_RADIUS = 1e-6


class FieldError(Exception):
    """Base class for field-evaluation failures."""


class OnConductorError(FieldError):
    """Field requested within the exclusion radius of the conductor."""

    def __init__(self, point, distance, segment_index=None):
        self.point = tuple(float(c) for c in point)
        self.distance = float(distance)
        self.segment_index = segment_index
        where = f" (segment {segment_index})" if segment_index is not None else ""
        super().__init__(
            f"point {self.point} is {distance:.3g} from the conductor{where}"
        )


class QuadratureError(FieldError):
    """Adaptive quadrature failed to reach the requested tolerance."""


_TILE_PAIRS = 1 << 15


def _stick_field(sticks: PackedSticks, points):
    """Field (prefactor k = 1) of packed sticks at (M, 3) points, and each
    point's clearance from them: (B, near, nearest), with B of shape (M, 3),
    near the distance to the nearest stick and nearest that stick's 0-based
    index, the lowest on ties.  Raises ValueError naming the first point
    that is not finite."""
    if not np.isfinite(points).all():
        i = int(np.argmin(np.isfinite(points).all(axis=1)))
        raise ValueError(f"point {i} {tuple(points[i].tolist())} is not finite")
    n = len(sticks.sign)
    pts = np.ascontiguousarray(points.T)
    m = pts.shape[1]
    b, near, nearest = np.empty((m, 3)), np.empty(m), np.empty(m, dtype=np.intp)
    (ax_a, ax_b, ax_c), (s_a, s_b, s_c), (lo_a, hi_a) = sticks.roles, sticks.start, sticks.span
    sign, length, hand, on_z = sticks.sign, sticks.length, sticks.hand, sticks.along_z
    slot = 3 * np.arange(n)
    tile = max(1, _TILE_PAIRS // n)
    # Far points overflow to inf, which the forms below turn into an exact
    # zero field and an infinite distance.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, m, tile):
            p = pts[:, lo:lo + tile]
            p_a = p[ax_a]
            az1 = sign * (p_a - s_a)               # axial coord of P from start
            az2 = az1 - length                     # axial coord of P from end
            tb, tc = p[ax_b] - s_b, p[ax_c] - s_c
            tb2, tc2 = tb * tb, tc * tc
            r2 = tb2 + tc2                         # perpendicular distance^2
            na = np.sqrt(r2 + az1 * az1)           # |P - start|
            nb = np.sqrt(r2 + az2 * az2)           # |P - end|
            broadside = (az1 >= 0.0) & (az2 <= 0.0)
            # Distance to each stick's closest point, its squared offsets
            # summed in x, y, z order whatever the stick's axis, so sticks
            # equally near, as at a shared vertex, tie exactly and the lowest
            # index wins.  (a, b, c) is (x, y, z), (y, x, z) or (z, x, y), so
            # the axial offset comes first unless the stick is along z.
            q = np.maximum(p_a, lo_a)
            np.minimum(q, hi_a, out=q)
            q -= p_a
            q *= q                                 # axial offset^2
            dist = np.sqrt(np.where(on_z, r2 + q, (q + tb2) + tc2))
            nearest[lo:lo + tile], near[lo:lo + tile] = dist.argmin(axis=0), dist.min(axis=0)
            # Between the endpoints the direct form is stable (r2 == 0 there
            # only on the conductor, which contributes nothing); beyond them
            # cos t1 + cos t2 nearly cancels, so use the equivalent form with
            # the cancellation removed, which is smooth onto the axis.
            factor = hand * np.where(
                broadside, np.where(r2 > 0.0, (az1 / na - az2 / nb) / r2, 0.0),
                length * (az1 + az2) / (na * nb * (az1 * nb + az2 * na)))
            # Rows (stick, component): summing over the leading axis adds
            # the sticks one at a time in flow order.
            contrib = np.zeros((3 * n, p.shape[1]))
            contrib[slot + ax_c] = tb * factor
            contrib[slot + ax_b] = -tc * factor
            b[lo:lo + tile] = contrib.reshape(n, 3, -1).sum(axis=0).T
    return b, near, nearest


def segment_field(seg: Segment, point, k: float = 1.0,
                  exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS) -> FieldVector:
    """Closed-form field of one stick at one point, in units of k."""
    b, near, _ = _stick_field(PackedSticks.pack([seg.start], [seg.end]),
                              np.asarray(point, dtype=float).reshape(1, 3))
    if near[0] < exclusion_radius:
        raise OnConductorError(point, near[0], segment_index=seg.index or None)
    return k * b[0]


# Fixed-order Gauss panel rule, shared by the quadrature oracle and holonomy.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)


def segment_field_quadrature(seg: Segment, point, k: float = 1.0, tol: float = 1e-10,
                             exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
                             max_depth: int = 40) -> FieldVector:
    """Direct numerical integration of dB = k dl x s / |s|^3 along the stick.

    Interval-halving adaptive quadrature with a fixed-order Gauss panel rule
    and absolute tolerance per component.  Slower than the closed form by
    construction; it exists to be independently auditable, not fast.
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
        t = 0.5 * (hi + lo) + 0.5 * (hi - lo) * _GL_X
        d = a[None, :] - t[:, None] * u[None, :]
        w = np.sum(d * d, axis=1) ** 1.5
        return 0.5 * (hi - lo) * float(np.dot(_GL_W, 1.0 / w))

    total = 0.0
    stack = [(0.0, 1.0, panel(0.0, 1.0), scalar_tol, 0)]
    while stack:
        lo, hi, coarse, budget, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        if abs(left + right - coarse) <= budget or depth >= max_depth:
            if depth >= max_depth and abs(left + right - coarse) > budget:
                raise QuadratureError(
                    f"no convergence after depth {depth} on [{lo}, {hi}]"
                )
            total += left + right
        else:
            stack.append((lo, mid, left, 0.5 * budget, depth + 1))
            stack.append((mid, hi, right, 0.5 * budget, depth + 1))
    return k * c * total


def total_field(knot: LatticeKnot, point,
                exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS) -> FieldVector:
    """Superposed field of every stick of the knot at one point.

    Raises OnConductorError naming the nearest stick and the point's distance
    from the circuit when the point lies within the exclusion radius of the
    circuit, and ValueError when the point is not finite.
    """
    b, near, nearest = _stick_field(knot.sticks, np.asarray(point, dtype=float).reshape(1, 3))
    if near[0] < exclusion_radius:
        raise OnConductorError(point, near[0], segment_index=int(nearest[0]) + 1)
    return knot.k * b[0]


def total_field_many(knot: LatticeKnot, points,
                     exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS):
    """Vectorized superposition at many points.

    Returns (B, on_conductor) where rows of B within the exclusion radius of
    the circuit are NaN and flagged in the boolean mask instead of raising;
    grid samplers want masked rows, not exceptions.  Raises ValueError when
    a point is not finite.
    """
    b, near, _ = _stick_field(knot.sticks, np.asarray(points, dtype=float))
    b *= knot.k
    mask = near < exclusion_radius
    b[mask] = np.nan
    return b, mask
