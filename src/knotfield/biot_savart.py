"""Magnetic field of straight segments and lattice knots, in closed form.

Units are Gaussian with the current prefactor k = I/c factored out, so an
infinite straight wire at perpendicular distance r carries |B| = 2k/r.  The
field of a finite stick is

    B = k * (cos t1 + cos t2) / r * phi_hat,

with r the perpendicular distance, t1/t2 the signed angles subtended by the
stick's endpoints, and phi_hat the azimuthal unit vector of the right-hand
rule (for a +z stick, phi_hat ~ -y i + x j).  The signed-cosine form is the
analytic continuation valid on either side of the stick's axial extent.

The evaluator uses the equivalent cross-product arrangement
k * (u x rho) * (cos t1 + cos t2) / r^2, which vanishes smoothly as the
field point approaches the stick's axis extension; beyond the endpoints the
cosine sum is rearranged into a cancellation-free rational form so the
near-axis limit stays accurate in floating point.

``segment_field_quadrature`` is a deliberately plain adaptive integrator of
the raw current-element law dB = k dl x s / |s|^3 and serves as the
independent oracle for the closed form everywhere in the test suite.
"""

from __future__ import annotations

import numpy as np

from .geometry import LatticeKnot, Segment, stick_ends

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


def _field_core(starts, ends, points):
    """Closed-form field of N segments at M points, prefactor k = 1.

    Returns (B, dist) with B of shape (M, N, 3) holding each segment's
    contribution and dist of shape (M, N) the point-to-segment distances,
    so callers can apply their own exclusion policy before summing.
    """
    u = ends - starts                      # (N, 3)
    length = np.linalg.norm(u, axis=1)     # (N,)
    uhat = u / length[:, None]

    a = points[:, None, :] - starts[None, :, :]          # (M, N, 3)
    az1 = np.einsum("mnc,nc->mn", a, uhat)               # axial coord of P from start
    az2 = az1 - length[None, :]                          # axial coord of P from end
    cxa = np.cross(uhat[None, :, :], a)                  # u_hat x rho, (M, N, 3)
    r2 = np.einsum("mnc,mnc->mn", cxa, cxa)              # perpendicular distance^2
    na = np.sqrt(r2 + az1 * az1)                         # |P - start|
    nb = np.sqrt(r2 + az2 * az2)                         # |P - end|

    broadside = (az1 >= 0.0) & (az2 <= 0.0)
    dist = np.where(broadside, np.sqrt(r2), np.minimum(na, nb))

    factor = np.zeros_like(r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Between the endpoints: both cosine terms have the same sign, the
        # direct form is stable, and r2 > 0 whenever the point clears the
        # conductor (on-conductor entries are masked by the caller).
        m = broadside & (r2 > 0.0)
        factor[m] = (az1[m] / na[m] - az2[m] / nb[m]) / r2[m]
        # Beyond either endpoint: cos t1 + cos t2 nearly cancels, so use the
        # algebraically equivalent form with the cancellation removed; the
        # r^2 factor cancels exactly, so the on-axis limit is smooth.
        m = ~broadside
        denom = na[m] * nb[m] * (az1[m] * nb[m] + az2[m] * na[m])
        ell = np.broadcast_to(length[None, :], r2.shape)[m]
        factor[m] = ell * (az1[m] + az2[m]) / denom

    return cxa * factor[:, :, None], dist


def segment_field(seg: Segment, point, k: float = 1.0,
                  exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS) -> FieldVector:
    """Closed-form field of one stick at one point, in units of k."""
    contrib, dist = _field_core(np.array([seg.start], dtype=float),
                                np.array([seg.end], dtype=float),
                                np.asarray(point, dtype=float).reshape(1, 3))
    if dist[0, 0] < exclusion_radius:
        raise OnConductorError(point, dist[0, 0], segment_index=seg.index or None)
    return k * contrib[0, 0]


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

    _, dist = _field_core(start[None], end[None], p.reshape(1, 3))
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
    circuit.
    """
    b, bad, dist = _total_field_batch(
        knot, np.asarray(point, dtype=float).reshape(1, 3), exclusion_radius
    )
    if bad[0].any():
        j = int(np.argmax(bad[0]))
        raise OnConductorError(point, dist[0, j], segment_index=j + 1)
    return b[0]


def total_field_many(knot: LatticeKnot, points,
                     exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS):
    """Vectorized superposition at many points.

    Returns (B, on_conductor) where rows of B within the exclusion radius of
    the circuit are NaN and flagged in the boolean mask instead of raising;
    grid samplers want masked rows, not exceptions.
    """
    b, bad, _ = _total_field_batch(knot, np.asarray(points, dtype=float), exclusion_radius)
    mask = np.any(bad, axis=1)
    b[mask] = np.nan
    return b, mask


def _total_field_batch(knot, points, exclusion_radius):
    """(B, bad, dist): the summed field, and per (point, stick) the
    exclusion test and the distance it was made on."""
    contrib, dist = _field_core(*stick_ends(knot), points)
    return knot.k * np.sum(contrib, axis=1), dist < exclusion_radius, dist
