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
decision reads that one answer.  That arithmetic is written once, giving
the offsets h*tb, -h*tc and the factor they multiply: a stick's field
along axis a is its offset along a times factor, or an exact zero if the
stick lies along a.  Tiles of scattered points, at most ``_TILE_PAIRS``
(point, stick) pairs each, and stick i alone at point i, of which
``segment_field`` is the one-row case, read that term; a grid's 1-D axes
read the offsets and factor, returning (B, near).  On a grid, sticks
of one axis, direction and length whose starts differ by whole grid steps
share a template: the first one's terms on a window covering the others'
translated grids, sliced, are theirs bit for bit when every offset p - s
is exact, that is, with 2^-q the finest power of two in the step, the
axes' first values and the stick coordinates, when each axis is its
progression exactly and every coordinate of a stick, or of the grid
widened on each side by the spread of the sticks' whole steps from its
first point, times 2^q is an integer below 2^52.  That is decided before
any stick is grouped; else each stick is its own group over the grid.  A
stick joins its latest template only if this grows the window by fewer
cells than the grid has.  Each point's field is summed onto zero over the
sticks in flow order, a one-point tile's by accumulation plus 0.0, so its
bits depend on neither the driver, the tile, the block nor the batch.

The independent oracle for the closed form, in the test suite and in
``verify``, is a plain adaptive integrator of the raw current-element law
dB = k dl x s / |s|^3: per-panel bisection with QUADPACK's 21-point
Gauss-Kronrod rule, whose embedded 10-point Gauss sum gives each panel's
error, the integrator ``_bisect`` that holonomy also runs.  It takes many
(stick, point) rows, each its own error pool, one depth per step, so a
row's bits are those it has alone; ``segment_field_quadrature`` is the
one-row case.  A node forms only the stick's moving coordinate and adds
the two fixed squared offsets in a three-wide sum's x, y, z order, so no
bit moves.  A k so large that the field overflows raises ValueError.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import LatticeKnot, PackedSticks, Segment, _int_at_least

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
_XYZ = np.arange(3)[:, None, None]     # ``_along``'s three components


def _finite(points):
    """ValueError naming the first of the (M, 3) points that is not finite."""
    if not np.isfinite(points).all():
        i = int(np.argmin(np.isfinite(points).all(axis=1)))
        raise ValueError(f"point {i} {tuple(points[i].tolist())} is not finite")


def _pair_terms(operands, clearance=True):
    """The kernel's arithmetic.  ``operands`` yields (sticks, p_a, p_b, p_c):
    packed sticks, a tile's as columns or one stick's as Python scalars, and
    the points' coordinates along each stick's axis a and its other axes
    b < c, shaped by the driver to broadcast.  Yields (h_b, h_c, factor,
    dist2): the field (k = 1) along b and c is h_b and h_c times factor, and
    dist2 each stick's squared distance at each point, a tile's None unless
    ``clearance``.  One frame serves every item, so each array replaces the
    last item's one at a time, as in a plain loop; freeing them all at once
    between tiles made glibc return the heap top and fault it back in, 1.7
    times the page faults and 7% more time on 412 sticks."""
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
        if clearance:
            # Distance to each stick's closest point, its squared offsets
            # summed in x, y, z order whatever the stick's axis, so sticks
            # equally near, as at a shared vertex, tie exactly and the lowest
            # index wins.  (a, b, c) is (x, y, z), (y, x, z) or (z, x, y), so
            # the axial offset comes first unless the stick is along z.
            q = np.maximum(p_a, lo_a)
            np.minimum(q, hi_a, out=q)
            q -= p_a
            q *= q                         # axial offset^2
        # Between the endpoints the direct form is stable (r2 == 0 there
        # only on the conductor, which contributes nothing); beyond them
        # cos t1 + cos t2 nearly cancels, so use the equivalent form with
        # the cancellation removed, which is smooth onto the axis.  The
        # hand, +-1, scales the offsets exactly as it would the factor.
        def direct(s=...):
            return np.where(r2 > 0.0, (az1[s] / na[s] - az2[s] / nb[s]) / r2, 0.0)
        # length * (az1 + az2) / (na * nb * (az1 * nb + az2 * na)), in place
        factor = az1 * nb
        factor += az2 * na
        factor *= na * nb
        np.divide(length * (az1 + az2), factor, out=factor)
        if isinstance(sticks.along_z, bool):
            # One stick over a grid's axes has broadside (n_a, 1, ...), a
            # function of p_a alone, so it takes the direct form only on the
            # slab of a-indices from its first to its last broadside one.
            on = np.flatnonzero(broadside).tolist() or [0, -1]     # no slab: 0:0
            s = (..., slice(on[0], on[-1] + 1)) + (slice(None),) * (az1.ndim - 1)
            np.copyto(factor[s], direct(s), where=broadside[s])
            dist2 = r2 + q if sticks.along_z else (q + tb2) + tc2
        else:
            factor = np.where(broadside, direct(), factor)
            dist2 = np.where(sticks.along_z, r2 + q, (q + tb2) + tc2) if clearance else None
        yield -sticks.hand * tc, sticks.hand * tb, factor, dist2


def _along(sticks: PackedSticks, h_b, h_c, factor):
    """Each stick's field along x, y and z, (3, N, ...): its offset along the
    axis times factor, or for a stick along that axis an exact zero, never
    0 * factor, which is NaN where factor is infinite."""
    along, ax_b, _ = sticks.roles[:, :, None]
    term = np.where(ax_b == _XYZ, h_b, h_c)
    np.multiply(term, factor, out=term)
    np.copyto(term, 0.0, where=along == _XYZ)
    return term


def _stick_field(sticks: PackedSticks, points):
    """Field (prefactor k = 1) of packed sticks at (M, 3) points, and each
    point's clearance from them: (B, near, nearest), with B of shape (M, 3),
    near the distance to the nearest stick and nearest that stick's 0-based
    index, the lowest on ties.  Raises ValueError naming the first point
    that is not finite."""
    _finite(points)
    b, near, nearest = np.empty((m := len(points), 3)), np.empty(m), np.empty(m, dtype=np.intp)
    # Tiles of at most ``_TILE_PAIRS`` (point, stick) pairs.
    pts, step = np.ascontiguousarray(points.T), max(1, _TILE_PAIRS // len(sticks.sign))
    tiles = [slice(lo, lo + step) for lo in range(0, m, step)]
    # Far points overflow to inf, which the forms turn into an exact zero
    # field and an infinite distance.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rows, (h_b, h_c, factor, dist2) in zip(tiles, _pair_terms(
                (sticks, *(pts[ax, r] for ax in sticks.roles)) for r in tiles)):
            dist = np.sqrt(dist2, out=dist2)
            nearest[rows], near[rows] = dist.argmin(axis=0), dist.min(axis=0)
            # Onto zero over the sticks in flow order; over one point, where
            # numpy's sum pairs, by accumulation + 0.0.
            term = _along(sticks, h_b, h_c, factor)
            b[rows] = (term.sum(axis=1) if term.shape[2] > 1 else
                       np.add.accumulate(term, 1)[:, -1] + 0.0).T
            del h_b, h_c, factor, dist2, dist, term     # the next tile replaces them
    return b, near, nearest


def _templates(each, axes, step):
    """``_grid_field``'s templates by first stick: (window axes, [(index, window slices)])."""
    n, cells = [len(a) for a in axes], lambda lo, hi: math.prod(h - l for l, h in zip(lo, hi))
    ratios = {x: x.as_integer_ratio() for x in {
        step, *(float(a[0]) for a in axes), *(c for s in each for c in (*s.start, *s.span))}}
    q = max(d for _, d in ratios.values()).bit_length() - 1
    exact = {x: m * (1 << q) // d for x, (m, d) in ratios.items()}      # x * 2^q
    first, unit = [exact[float(a[0])] for a in axes], exact[step]
    # Each stick's start from the grid's first point: (whole steps, rest) along x, y, z.
    offsets = [tuple(zip(*(divmod(exact[c] - first[r], unit)
                           for r, c in sorted(zip(s.roles, s.start))))) for s in each]
    # A window reaches past the grid by at most the spread of the sticks' steps.
    ends = [f + unit * x for f, m, *steps in zip(first, n, *(shift for shift, _ in offsets))
            for x in (min(steps) - max(steps), m - 1 + max(steps) - min(steps))]
    if max(map(abs, (*exact.values(), *ends))) >= 2 ** 52 or not all(np.array_equal(
            np.ldexp(f + unit * np.arange(m), -q), a) for f, m, a in zip(first, n, axes)):
        return [(axes, [(j, (slice(None),) * 3)]) for j in range(len(each))]
    groups, latest = [], {}
    for j, (s, (shift, rest)) in enumerate(zip(each, offsets)):
        if g := latest.get(key := (s.roles[0], s.sign, s.length, rest)):
            e = [t - x for t, x in zip(g[0], shift)]    # the window index of stick j's grid
            lo, hi = list(map(min, g[1], e)), [max(h, x + m) for h, x, m in zip(g[2], e, n)]
            if cells(lo, hi) - cells(g[1], g[2]) < math.prod(n):
                g[1:] = lo, hi, [*g[3], (j, e)]
                continue
        latest[key] = g = [shift, [0] * 3, n, [(j, [0] * 3)]]
        groups.append(g)
    return [([a if (l, h) == (0, m) else np.ldexp(f + unit * np.arange(l, h), -q)
              for a, f, l, h, m in zip(axes, first, lo, hi, n)],
             [(j, tuple(slice(x - l, x - l + m) for x, l, m in zip(e, lo, n))) for j, e in members])
            for _, lo, hi, members in groups]


def _grid_field(sticks: PackedSticks, axes, step):
    """(B, near) of ``_stick_field``, bit for bit, at the grid of the finite
    1-D arrays ``axes`` (x, y, z), z fastest, each a progression of ``step``.
    A template is built at its first stick on its window's axes shaped to
    broadcast, so a term depending on fewer axes is computed at that size
    and the direct form only on the stick's slab.  Its members' squared
    distances go into a running minimum at once, whose sqrt (monotone and
    correctly rounded) is near; its factor and offsets, each sliced on the
    one axis it varies along, stay until its last member."""
    shape = tuple(map(len, axes))
    b, near2, term = np.zeros((3,) + shape), np.full(shape, np.inf), np.empty(shape)
    fields = (sticks.roles.T, sticks.start[..., 0].T, sticks.sign[:, 0], sticks.length[:, 0],
              sticks.hand[:, 0], sticks.span[..., 0].T, sticks.along_z[:, 0])
    each = [PackedSticks(*row) for row in zip(*(f.tolist() for f in fields))]
    groups, live = _templates(each, axes, step), {}
    at = {j: (g, place) for g, (_, members) in enumerate(groups) for j, place in members}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j, s in enumerate(each):
            (g, place), ((wx, wy, wz), members) = at[j], groups[at[j][0]]
            if g not in live:
                t, grid = each[members[0][0]], (wx[:, None, None], wy[:, None], wz)
                live[g] = next(_pair_terms([(t, *(grid[i] for i in t.roles))]))
                for _, p in members:
                    np.minimum(near2, live[g][3][p], out=near2)
                live[g] = live[g][:3]                        # frees the squared distances
            h_b, h_c, factor = live.pop(g) if j == members[-1][0] else live[g]
            b[s.roles[1]] += np.multiply(h_b[place[s.roles[2]]], factor[place], out=term)
            b[s.roles[2]] += np.multiply(h_c[place[s.roles[1]]], factor[place], out=term)
    return b.reshape(3, -1).T, np.sqrt(near2).ravel()


def _paired_field(sticks: PackedSticks, points):
    """Field (prefactor k = 1) of stick i alone at point i, for M packed
    sticks and (M, 3) points, and its distance: (B, dist), row i with the
    bits of ``_stick_field``.  Raises ValueError for a point not finite."""
    _finite(points)
    pts = points.T[sticks.roles, np.arange(len(points)), None]     # (3, M, 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h_b, h_c, factor, dist2 = next(_pair_terms([(sticks, *pts)]))
        # Summed onto zero, as in the tiles; a zero offset times an infinite
        # factor is NaN there too.
        return _along(sticks, h_b, h_c, factor).sum(axis=2).T, np.sqrt(dist2[:, 0])


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
    _check_positive("exclusion_radius", exclusion_radius)
    b, near = _paired_field(PackedSticks.pack([seg.start], [seg.end]),
                            np.asarray(point, dtype=float).reshape(1, 3))
    if near[0] < exclusion_radius:
        raise OnConductorError(point, near[0], segment_index=seg.index or None)
    return _times_k(b[0], k)


# QUADPACK's QK21 panel rule on [-1, 1] (Piessens et al. 1983; Kronrod 1965),
# shared by the quadrature oracle and holonomy, correctly rounded: each node
# x <= 0 with its 21-point Kronrod weight and its 10-point Gauss weight, 0 at
# the Kronrod-only nodes; the nodes x > 0 mirror them.
_QK21 = np.array([
    (-0.9956571630258081, 0.011694638867371874, 0.0),
    (-0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (-0.9301574913557082, 0.054755896574351995, 0.0),
    (-0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (-0.7808177265864169, 0.0931254545836976, 0.0),
    (-0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (-0.5627571346686047, 0.12349197626206584, 0.0),
    (-0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (-0.2943928627014602, 0.14277593857706009, 0.0),
    (-0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.0, 0.1494455540029169, 0.0)])
_XK, _WK, _WG = np.concatenate((_QK21, _QK21[-2::-1] * (-1.0, 1.0, 1.0))).T.copy()
# Rows the quadrature oracle integrates at once: bounds its panels' memory.
_QUAD_ROWS = 4096


def _check_positive(name, value):
    """ValueError unless ``value``, a tolerance or exclusion radius, is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _check_bounds(tol, max_depth, depth_name):
    _check_positive("tol", tol)
    if not _int_at_least(max_depth, 0):
        raise ValueError(f"{depth_name} must be an integer >= 0, got {max_depth!r}")


def _bisect(integrand, rows, lo, hi, group, tol, max_depth):
    """Adaptive bisection (QUADPACK's QAG, Piessens et al. 1983) over [0, 1]
    of R = len(group) rows from initial panels ``rows``, ``lo``, ``hi``, in
    row order, each row's left to right: (each row's value, each pool's
    accepted error, (G, 2) its panels evaluated and deepest halving, failure).
    ``integrand(rows, t)`` is row rows[i]'s integrand at the 21 Kronrod
    nodes t[i] of its panel, as alone; a panel's value is its QK21 sum and
    its error |K21 - G10|.  Row r draws on pool ``group[r]`` (pools in row
    order) of ``tol[g]``: each depth, a pool whose accepted and live errors,
    each summed onto zero in order, total at most tol accepts every live
    panel, else those within (tol - accepted) / live count or 64 ulps of the
    largest |value| up from the initial panel (Gander & Gautschi, BIT 40:84,
    2000), and splits the rest.  One call per depth.  A pool fails on an
    estimate not finite or a panel left at ``max_depth``: failure is None or
    (row, depth, lo, hi) of the lowest failing pool's first such panel, and
    later pools stop.  Each row sums its accepted values onto zero as they
    are accepted, by depth, then left to right, so its bits are its pool's.
    """
    pools, accepted, kept = len(tol), np.zeros(len(tol)), []
    scale, failure, depth, stats = np.zeros(len(rows)), None, 0, np.zeros((pools, 2), dtype=int)
    while True:
        half = 0.5 * (hi - lo)          # each (1 x 21) @ (21 x 1) dot as one panel's alone
        f = integrand(rows, (0.5 * (hi + lo))[:, None] + half[:, None] * _XK)[..., None]
        value, gauss = (half * (w @ f)[:, 0] for w in (_WK, _WG))
        err, scale, g = np.abs(value - gauss), np.maximum(scale, np.abs(value)), group.take(rows)
        live = np.bincount(g, minlength=pools)
        stats[:, 0] += live
        stats[live > 0, 1] = depth
        done = (accepted + np.bincount(g, err, pools) <= tol).take(g) | (err <= np.maximum(
            (tol - accepted).take(g) / live.take(g), 2.0 ** -46 * scale))   # 64 ulps times scale
        if (depth >= max_depth or not np.isfinite(err).all()) and (
                bad := ~np.isfinite(err) | ~done & (depth >= max_depth)).any():
            i = int(np.argmax(bad))         # pools, rows and panels in order
            failure = (int(rows[i]), depth, float(lo[i]), float(hi[i]))
            done |= g >= g[i]
        accepted += np.bincount(g[done], err[done], pools)
        kept.append((done, rows, value))    # filtered after the loop
        if not (go := np.flatnonzero(~done)).size:
            break
        rows, scale, lo, hi = (x.take(go).repeat(2) for x in (rows, scale, lo, hi))
        hi[::2] = lo[1::2] = 0.5 * (lo[::2] + hi[::2])      # each panel's halves, left first
        depth += 1
    done, rows, value = (np.concatenate(x) for x in zip(*kept))
    # One add at a time, in the order the row's panels were accepted.
    return np.bincount(rows[done], value[done], len(group)), accepted, stats, failure


def _quadrature(starts, ends, points, k, tol, max_depth):
    """k times dB = dl x s / |s|^3 integrated along stick i, starts[i] ->
    ends[i], at points[i], for each of the M rows: (M, 3), by ``_bisect`` in
    blocks of ``_QUAD_ROWS`` rows.  QuadratureError for the lowest failing row.
    Only a stick's own coordinate moves, so a node forms d = a_ax - t * u_ax
    alone and adds the fixed squared offsets as row constants, (d^2 + k1) +
    k2, k2 the z one (0.0 for a z stick): np.sum's (x + y) + z, bit for bit.
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
    live = np.flatnonzero(cmax > 0.0)
    ax = (np.arange(len(u)), np.argmax(u != 0.0, axis=1))      # each stick's one axis
    sq = np.where(u != 0.0, 0.0, a * a)                       # the other two offsets^2
    a_ax, u_ax, k1, k2 = (x[live, None]                       # against each row's nodes
                          for x in (a[ax], u[ax], sq[:, 0] + sq[:, 1], sq[:, 2]))

    def integrand(rows, t):
        d = a_ax[rows] - t * u_ax[rows]
        return 1.0 / ((d * d + k1[rows]) + k2[rows]) ** 1.5

    n, out = len(live), np.zeros_like(c)
    sums, _, _, failure = _bisect(integrand, np.arange(n), np.zeros(n), np.ones(n), np.arange(n),
                                  tol / cmax[live], max_depth)
    if failure is not None:
        raise QuadratureError("no convergence after depth {1} on [{2}, {3}]".format(*failure))
    out[live] = (k * c[live]) * sums[:, None]
    return out


def segment_field_quadrature(seg: Segment, point, k: float = 1.0, tol: float = 1e-10,
                             exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
                             max_depth: int = 40) -> FieldVector:
    """Direct numerical integration of dB = k dl x s / |s|^3 along the stick.

    Interval-halving adaptive quadrature with the 21-point Gauss-Kronrod
    panel rule, each panel's error |K21 - G10|, and absolute tolerance per
    component: the one-row case of the batched oracle, refusing on-conductor
    points as ``segment_field`` does and bad bounds with ValueError.  Slower
    than the closed form by construction; it exists to be independently
    auditable, not fast.
    """
    _check_bounds(tol, max_depth, "max_depth")
    segment_field(seg, point, exclusion_radius=exclusion_radius)    # OnConductorError
    return _quadrature([seg.start], [seg.end], np.reshape(point, (1, 3)), k, tol,
                       max_depth)[0]


def total_field(knot: LatticeKnot, point,
                exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS) -> FieldVector:
    """Superposed field of every stick of the knot at one point.

    Raises OnConductorError naming the nearest stick and the point's distance
    from the circuit when the point lies within the exclusion radius of the
    circuit, and ValueError when the point is not finite or the radius is
    not finite and > 0.
    """
    _check_positive("exclusion_radius", exclusion_radius)
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
    a point is not finite or the radius is not finite and > 0.
    """
    _check_positive("exclusion_radius", exclusion_radius)
    b, near, _ = _stick_field(knot.sticks, np.asarray(points, dtype=float))
    return _exclude(b, near, exclusion_radius, knot.k)
