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
accurate.  Alongside the field the kernel returns each point's clearance,
the distance to its nearest stick and that stick's index: every exclusion
decision reads that one answer.  That arithmetic is written once, and three
drivers feed it: tiles of scattered points, at most ``_TILE_PAIRS`` (point,
stick) pairs each; a grid's 1-D axes, one stick at a time, taking the
broadside form only on the stick's slab and returning (B, near); and stick
i alone at point i, of which ``segment_field`` is the one-row case.  Each
point's field is summed onto zero over the sticks in flow order, so its
bits depend on neither the driver, the tile, the batch nor the thread.

The independent oracle for the closed form, in the test suite and in
``verify``, is a plain adaptive integrator of the raw current-element law
dB = k dl x s / |s|^3: depth-first interval halving with a Gauss panel
rule.  It takes many (stick, point) rows at once, each row stepping
through its own interval stack, so a row's bits are those it has alone;
``segment_field_quadrature`` is the one-row case.  A k so large that the
field overflows is refused with ValueError.
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


def _finite(points):
    """ValueError naming the first of the (M, 3) points that is not finite."""
    if not np.isfinite(points).all():
        i = int(np.argmin(np.isfinite(points).all(axis=1)))
        raise ValueError(f"point {i} {tuple(points[i].tolist())} is not finite")


def _live(cond, if_true, if_false):
    """np.where(cond, if_true(), if_false()), but only the form a Python bool picks."""
    if isinstance(cond, bool):
        return (if_true if cond else if_false)()
    return np.where(cond, if_true(), if_false())


def _pair_terms(operands):
    """The kernel's arithmetic.  ``operands`` yields (sticks, p_a, p_b, p_c):
    packed sticks, a tile's as columns or one stick's as Python scalars, and
    the points' coordinates along each stick's axis a and its other axes
    b < c, shaped by the driver to broadcast.  Yields (C_b, C_c, dist2) for
    each: the field (k = 1) along b and c and the squared distance of each
    stick at each point.  One frame serves every item, so each array
    replaces the last item's one at a time, as in a plain loop; freeing
    them all at once between tiles made glibc return the heap top and fault
    it back in, 1.7 times the page faults and 7% more time on 412 sticks."""
    for sticks, p_a, tb, tc in operands:
        (s_a, s_b, s_c), (lo_a, hi_a), length = sticks.start, sticks.span, sticks.length
        az1 = sticks.sign * (p_a - s_a)    # axial coord of P from start
        az2 = az1 - length                 # axial coord of P from end
        tb, tc = tb - s_b, tc - s_c        # rebound: frees a tile's gathered p_b, p_c
        tb2, tc2 = tb * tb, tc * tc
        r2 = tb2 + tc2                     # perpendicular distance^2
        na = np.sqrt(r2 + az1 * az1)       # |P - start|
        nb = np.sqrt(r2 + az2 * az2)       # |P - end|
        broadside = (az1 >= 0.0) & (az2 <= 0.0)
        # Distance to each stick's closest point, its squared offsets
        # summed in x, y, z order whatever the stick's axis, so sticks
        # equally near, as at a shared vertex, tie exactly and the lowest
        # index wins.  (a, b, c) is (x, y, z), (y, x, z) or (z, x, y), so
        # the axial offset comes first unless the stick is along z.
        q = np.maximum(p_a, lo_a)
        np.minimum(q, hi_a, out=q)
        q -= p_a
        q *= q                             # axial offset^2
        dist2 = _live(sticks.along_z, lambda: r2 + q, lambda: (q + tb2) + tc2)
        # Between the endpoints the direct form is stable (r2 == 0 there
        # only on the conductor, which contributes nothing); beyond them
        # cos t1 + cos t2 nearly cancels, so use the equivalent form with
        # the cancellation removed, which is smooth onto the axis.  The
        # hand, +-1, scales the offsets exactly as it would the factor.
        def direct(s=...):
            return np.where(r2 > 0.0, (az1[s] / na[s] - az2[s] / nb[s]) / r2, 0.0)
        factor = length * (az1 + az2) / (na * nb * (az1 * nb + az2 * na))
        if isinstance(sticks.along_z, bool):
            # One stick over a grid's axes has broadside (n_a, 1, ...), a
            # function of p_a alone, so it takes the direct form only on the
            # slab of a-indices from its first to its last broadside one.
            on = np.flatnonzero(broadside).tolist() or [0, -1]     # no slab: 0:0
            s = (..., slice(on[0], on[-1] + 1)) + (slice(None),) * (az1.ndim - 1)
            np.copyto(factor[s], direct(s), where=broadside[s])
        else:
            factor = np.where(broadside, direct(), factor)
        yield (-sticks.hand * tc) * factor, (sticks.hand * tb) * factor, dist2


def _by_axis(sticks: PackedSticks, c_b, c_c):
    """Each stick's field, (N, 3, ...), from its components along b and c."""
    (_, ax_b, ax_c), j = sticks.roles, np.arange(len(c_b))
    contrib = np.zeros((len(c_b), 3) + c_b.shape[1:])
    contrib[j, ax_b], contrib[j, ax_c] = c_b, c_c
    return contrib


def _stick_field(sticks: PackedSticks, points):
    """Field (prefactor k = 1) of packed sticks at (M, 3) points, and each
    point's clearance from them: (B, near, nearest), with B of shape (M, 3),
    near the distance to the nearest stick and nearest that stick's 0-based
    index, the lowest on ties.  Raises ValueError naming the first point
    that is not finite."""
    _finite(points)
    pts = np.ascontiguousarray(points.T)
    m = pts.shape[1]
    b, near, nearest = np.empty((m, 3)), np.empty(m), np.empty(m, dtype=np.intp)
    starts = range(0, m, max(1, _TILE_PAIRS // len(sticks.sign)))
    terms = _pair_terms((sticks, *(pts[ax, lo:lo + starts.step] for ax in sticks.roles))
                        for lo in starts)
    # Far points overflow to inf, which the forms turn into an exact zero
    # field and an infinite distance.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo, (c_b, c_c, dist2) in zip(starts, terms):
            hi, dist = lo + starts.step, np.sqrt(dist2, out=dist2)
            nearest[lo:hi], near[lo:hi] = dist.argmin(axis=0), dist.min(axis=0)
            # Summing over the leading axis adds the sticks onto zero one at
            # a time in flow order.
            contrib = _by_axis(sticks, c_b, c_c)     # like the terms, replaced by the next tile's
            b[lo:hi] = contrib.sum(axis=0).T
            del c_b, c_c, dist2, dist     # the next tile replaces them in the kernel's frame
    return b, near, nearest


def _grid_field(sticks: PackedSticks, axes):
    """(B, near) of ``_stick_field``, bit for bit, at the grid of the finite
    1-D arrays ``axes`` (x, y, z), z fastest.  Each stick's coordinates are
    the axes shaped to broadcast to (n_x, n_y, n_z), so a term depending on
    fewer axes is computed at that size, and the direct form only on the
    stick's slab.  near is the sqrt of a running minimum of squared
    distances, which is the minimum distance: sqrt is monotone and
    correctly rounded."""
    shape, grid = tuple(map(len, axes)), (axes[0][:, None, None], axes[1][:, None], axes[2])
    b, near2 = np.zeros((3,) + shape), np.full(shape, np.inf)
    fields = (sticks.roles.T, sticks.start[..., 0].T, sticks.sign[:, 0], sticks.length[:, 0],
              sticks.hand[:, 0], sticks.span[..., 0].T, sticks.along_z[:, 0])
    each = [PackedSticks(*row) for row in zip(*(f.tolist() for f in fields))]
    terms = _pair_terms((s, *(grid[i] for i in s.roles)) for s in each)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s, (c_b, c_c, dist2) in zip(each, terms):
            b[s.roles[1]] += c_b
            b[s.roles[2]] += c_c
            np.minimum(near2, dist2, out=near2)
    return b.reshape(3, -1).T, np.sqrt(near2).ravel()


def _paired_field(sticks: PackedSticks, points):
    """Field (prefactor k = 1) of stick i alone at point i, for M packed
    sticks and (M, 3) points, and its distance: (B, dist), row i with the
    bits of ``_stick_field``.  Raises ValueError for a point not finite."""
    _finite(points)
    pts = points.T[sticks.roles, np.arange(len(points)), None]     # (3, M, 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c_b, c_c, dist2 = next(_pair_terms([(sticks, *pts)]))
    # Summed onto zero, as in the tiles.
    return _by_axis(sticks, c_b, c_c).sum(axis=2), np.sqrt(dist2[:, 0])


def _times_k(b, k):
    """b scaled by k in place; ValueError when k is so large that a finite
    field overflows.  NaN rows stay NaN without a warning."""
    with np.errstate(over="raise"):
        try:
            return np.multiply(b, k, out=b)
        except FloatingPointError:
            raise ValueError(f"k = {k!r} is too large: the result overflows") from None


def _exclude(b, near, exclusion_radius, k):
    """(b, mask): b's rows within the exclusion radius set NaN, then b scaled by k, in place."""
    b[mask := near < exclusion_radius] = np.nan
    return _times_k(b, k), mask


def segment_field(seg: Segment, point, k: float = 1.0,
                  exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS) -> FieldVector:
    """Closed-form field of one stick at one point, in units of k."""
    b, near = _paired_field(PackedSticks.pack([seg.start], [seg.end]),
                            np.asarray(point, dtype=float).reshape(1, 3))
    if near[0] < exclusion_radius:
        raise OnConductorError(point, near[0], segment_index=seg.index or None)
    return _times_k(b[0], k)


# Fixed-order Gauss panel rule, shared by the quadrature oracle and holonomy.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
# Rows the quadrature oracle integrates at once: bounds its stacks' memory.
_QUAD_ROWS = 4096


def _quadrature(starts, ends, points, k, tol, max_depth):
    """k times dB = dl x s / |s|^3 integrated along stick i, starts[i] ->
    ends[i], at points[i], for each of the M rows: (M, 3).

    Each row runs depth-first interval halving on its own stack of
    (lo, hi, coarse, budget, depth) intervals: pop one, accept its two
    halves or push the left half, then the right.  Every numpy step pops
    one interval from each unfinished row, so a row's intervals are summed
    in the order it would take alone and its bits do not depend on the
    other rows; blocks of ``_QUAD_ROWS`` rows run one after another.  Raises
    QuadratureError for the lowest row that reaches ``max_depth`` above its
    budget.
    """
    starts, ends, points = (np.asarray(x, dtype=float) for x in (starts, ends, points))
    if len(points) > _QUAD_ROWS:
        return np.concatenate([_quadrature(starts[i:i + _QUAD_ROWS], ends[i:i + _QUAD_ROWS],
                                           points[i:i + _QUAD_ROWS], k, tol, max_depth)
                               for i in range(0, len(points), _QUAD_ROWS)])
    u, a = ends - starts, points - starts

    # dl x (p - l(t)) = u x a for every t because u x u = 0, so the vector
    # direction is constant and only the scalar 1/|p - l(t)|^3 is integrated.
    c = np.cross(u, a)
    cmax = np.max(np.abs(c), axis=1)

    def panel(rows, lo, hi):
        # The Gauss rule on (n, h) intervals [lo, hi], row i's along row
        # rows[i]'s stick; a (1 x 10) @ (10 x 1) per interval takes the
        # weights' dot product as one interval alone would.
        t = 0.5 * (hi + lo)[..., None] + 0.5 * (hi - lo)[..., None] * _GL_X
        d = a[rows, None, None, :] - t[..., None] * u[rows, None, None, :]
        w = np.sum(d * d, axis=3) ** 1.5
        return 0.5 * (hi - lo) * (_GL_W @ (1.0 / w)[..., None])[..., 0]

    total = np.zeros(len(a))
    stack = np.empty((len(a), max_depth + 2, 5))
    top = np.zeros(len(a), dtype=np.intp)
    rows = np.flatnonzero(cmax > 0.0)
    lo, hi = np.zeros((len(rows), 1)), np.ones((len(rows), 1))
    stack[rows, 0] = np.column_stack((lo, hi, panel(rows, lo, hi), tol / cmax[rows], lo))
    top[rows] = 1
    failure = None
    while rows.size:
        lo, hi, coarse, budget, depth = stack[rows, top[rows] - 1].T
        top[rows] -= 1
        mid = 0.5 * (lo + hi)
        left, right = panel(rows, np.stack((lo, mid), 1), np.stack((mid, hi), 1)).T
        err = np.abs(left + right - coarse)
        bottom = depth >= max_depth
        done = (err <= budget) | bottom
        total[rows[done]] += (left + right)[done]
        split = ~done
        s, half, deeper = rows[split], 0.5 * budget[split], depth[split] + 1
        stack[s, top[s]] = np.array((lo[split], mid[split], left[split], half, deeper)).T
        stack[s, top[s] + 1] = np.array((mid[split], hi[split], right[split], half, deeper)).T
        top[s] += 2
        failed = np.flatnonzero(bottom & (err > budget))
        if failed.size:
            # One row at a time, the rows past the first failure never run.
            i = failed[0]
            failure = (f"no convergence after depth {int(depth[i])} on "
                       f"[{float(lo[i])}, {float(hi[i])}]")
            top[rows[i]:] = 0
        rows = np.flatnonzero(top)
    if failure is not None:
        raise QuadratureError(failure)
    out = (k * c) * total[:, None]
    out[cmax == 0.0] = 0.0
    return out


def segment_field_quadrature(seg: Segment, point, k: float = 1.0, tol: float = 1e-10,
                             exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
                             max_depth: int = 40) -> FieldVector:
    """Direct numerical integration of dB = k dl x s / |s|^3 along the stick.

    Interval-halving adaptive quadrature with a fixed-order Gauss panel rule
    and absolute tolerance per component: the one-row case of the batched
    oracle, refusing on-conductor points as ``segment_field`` does.  Slower
    than the closed form by construction; it exists to be independently
    auditable, not fast.
    """
    segment_field(seg, point, exclusion_radius=exclusion_radius)    # OnConductorError
    return _quadrature([seg.start], [seg.end], np.reshape(point, (1, 3)), k, tol,
                       max_depth)[0]


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
    return _times_k(b[0], knot.k)


def total_field_many(knot: LatticeKnot, points,
                     exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS):
    """Vectorized superposition at many points.

    Returns (B, on_conductor) where rows of B within the exclusion radius of
    the circuit are NaN and flagged in the boolean mask instead of raising;
    grid samplers want masked rows, not exceptions.  Raises ValueError when
    a point is not finite.
    """
    b, near, _ = _stick_field(knot.sticks, np.asarray(points, dtype=float))
    return _exclude(b, near, exclusion_radius, knot.k)
