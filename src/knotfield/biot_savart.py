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
for a stick along s * e_a, u_hat x rho is s*tb in component (a+2)%3 and
-s*tc in (a+1)%3, tb and tc being the point's offsets along (a+1)%3 and
(a+2)%3.  That form vanishes smoothly on the stick's axis extension; beyond
the endpoints the cosine sum is rearranged into a cancellation-free form so
the near-axis limit stays accurate.  Points go in tiles of at most
``_TILE_PAIRS`` (point, stick) pairs, so memory does not grow with the
batch, and each point's field is summed over the sticks one at a time in
flow order, so its bits depend on neither the tile, the batch nor the thread.

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
    """Field (prefactor k = 1) of packed sticks at (M, 3) points: (B, dist)
    with B of shape (M, 3) and dist of shape (M, N) the point-to-stick
    distances, so callers can apply their own exclusion policy.  Raises
    ValueError naming the first point that is not finite."""
    if not np.isfinite(points).all():
        i = int(np.argmin(np.isfinite(points).all(axis=1)))
        raise ValueError(f"point {i} {tuple(points[i].tolist())} is not finite")
    n = len(sticks.sign)
    pts = np.ascontiguousarray(points.T)
    b, dist = np.empty((pts.shape[1], 3)), np.empty((pts.shape[1], n))
    (ax_a, ax_b, ax_c), (s_a, s_b, s_c) = sticks.roles, sticks.start[:, :, None]
    sign, length, slot = sticks.sign[:, None], sticks.length[:, None], 3 * np.arange(n)
    tile = max(1, _TILE_PAIRS // n)
    # Far points overflow to inf, which the forms below turn into an exact
    # zero field and an infinite distance.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, pts.shape[1], tile):
            p = pts[:, lo:lo + tile]
            az1 = sign * (p[ax_a] - s_a)           # axial coord of P from start
            az2 = az1 - length                     # axial coord of P from end
            tb, tc = p[ax_b] - s_b, p[ax_c] - s_c
            r2 = tb * tb + tc * tc                 # perpendicular distance^2
            na = np.sqrt(r2 + az1 * az1)           # |P - start|
            nb = np.sqrt(r2 + az2 * az2)           # |P - end|
            broadside = (az1 >= 0.0) & (az2 <= 0.0)
            dist[lo:lo + tile] = np.where(broadside, np.sqrt(r2), np.minimum(na, nb)).T
            # Between the endpoints the direct form is stable (r2 == 0 there
            # only on the conductor, which contributes nothing); beyond them
            # cos t1 + cos t2 nearly cancels, so use the equivalent form with
            # the cancellation removed, which is smooth onto the axis.
            factor = sign * np.where(
                broadside, np.where(r2 > 0.0, (az1 / na - az2 / nb) / r2, 0.0),
                length * (az1 + az2) / (na * nb * (az1 * nb + az2 * na)))
            # Rows (stick, component): summing over the leading axis adds
            # the sticks one at a time in flow order.
            contrib = np.zeros((3 * n, p.shape[1]))
            contrib[slot + ax_c] = tb * factor
            contrib[slot + ax_b] = -tc * factor
            b[lo:lo + tile] = contrib.reshape(n, 3, -1).sum(axis=0).T
    return b, dist


def segment_field(seg: Segment, point, k: float = 1.0,
                  exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS) -> FieldVector:
    """Closed-form field of one stick at one point, in units of k."""
    b, dist = _stick_field(PackedSticks.pack([seg.start], [seg.end]),
                           np.asarray(point, dtype=float).reshape(1, 3))
    if dist[0, 0] < exclusion_radius:
        raise OnConductorError(point, dist[0, 0], segment_index=seg.index or None)
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
    start = np.asarray(seg.start, dtype=float)
    end = np.asarray(seg.end, dtype=float)
    p = np.asarray(point, dtype=float)
    u = end - start
    a = p - start

    _, dist = _stick_field(PackedSticks.pack([seg.start], [seg.end]), p.reshape(1, 3))
    if dist[0, 0] < exclusion_radius:
        raise OnConductorError(point, dist[0, 0], segment_index=seg.index or None)

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

    Raises OnConductorError naming the first offending stick and the point's
    distance from it when the point lies within the exclusion radius of the
    circuit, and ValueError when the point is not finite.
    """
    b, dist = _stick_field(knot.sticks, np.asarray(point, dtype=float).reshape(1, 3))
    bad = np.flatnonzero(dist[0] < exclusion_radius)
    if bad.size:
        raise OnConductorError(point, dist[0, bad[0]], segment_index=int(bad[0]) + 1)
    return knot.k * b[0]


def total_field_many(knot: LatticeKnot, points,
                     exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS):
    """Vectorized superposition at many points.

    Returns (B, on_conductor) where rows of B within the exclusion radius of
    the circuit are NaN and flagged in the boolean mask instead of raising;
    grid samplers want masked rows, not exceptions.  Raises ValueError when
    a point is not finite.
    """
    b, dist = _stick_field(knot.sticks, np.asarray(points, dtype=float))
    b *= knot.k
    mask = np.any(dist < exclusion_radius, axis=1)
    b[mask] = np.nan
    return b, mask
