"""Self-check suites: the library's own evidence that the field is right.

Each suite is a seeded, deterministic random experiment with a hard
tolerance, usable both from the test suite and from the command line:

* closed-form segment kernel vs. the direct quadrature of the current law,
  on pairs drawn by public ``Generator`` array calls, points in rounds of
  the rows still too near their sticks, each round judged in one kernel call;
* the infinite-wire limit 2k/r;
* flatness (curl) and solenoidality (divergence) in the complement;
* the scaling law B(lambda x; lambda K) = B(x; K)/lambda, at lambda = 3;
* holonomy = 4*pi*k*Lk against the Gauss-integral linking oracle, on random
  rectangular loops in the complement, drawn in rounds of as many candidates
  as are missing, each round's clearances measured in one pass and kept,
  and integrated once;
* invariance of the first half of those holonomies under refining knot and
  loops by 3, which moves every Gauss panel off the binary grid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .geometry import LatticeKnot, PackedSticks, Segment, bounding_box, refine, stick_ends
from .biot_savart import (_paired_field, _quadrature, _stick_field, segment_field, total_field,
                          total_field_many)
from .topology import Loop, _clearances, _holonomy_results, _linking_results, _refusal


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    details: dict
    duration: float

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.duration:.2f}s): {self.details}"


def random_clear_points(rng, starts, ends, n: int, margin: float, clearance: float):
    """(n, 3) uniform points in the inflated box of the sticks from (N, 3)
    ``starts`` to ``ends``, at least ``clearance`` from them by the kernel's
    own distance.  Each round draws one candidate per missing point, so the
    points and the generator's final state are those of drawing one at a time.
    ``_check_clearance`` refuses a clearance before any draw."""
    packed = PackedSticks.pack(starts, ends)
    both = np.concatenate([starts, ends])
    lo, hi = both.min(axis=0) - margin, both.max(axis=0) + margin
    _check_clearance(clearance, lo, hi)
    points = np.empty((0, 3))
    while len(points) < n:
        p = rng.uniform(lo, hi, size=(n - len(points), 3))
        points = np.concatenate([points, p[_stick_field(packed, p)[1] >= clearance]])
    return points


def random_clear_point(rng, sticks, margin: float, clearance: float):
    """One point of ``random_clear_points`` for a list of ``Segment``s."""
    ends = np.array([(s.start, s.end) for s in sticks], dtype=float)    # (N, 2, 3)
    return random_clear_points(rng, ends[:, 0], ends[:, 1], 1, margin, clearance)[0]


def random_rect_loop(rng, knot: LatticeKnot, clearance: float = 0.5,
                     margin: float = 3.0, name: str = "") -> Loop:
    """Random axis-aligned rectangle in the knot complement.

    Rectangles are drawn inside the knot's inflated bounding box so a good
    fraction of them actually link the circuit: ``_rect_loops`` at n = 1.
    """
    return _rect_loops(rng, knot, 1, clearance, margin, name)[0]


def _check_clearance(clearance, lo, hi):
    """Refuse a clearance that no candidate in the box drawn from meets, before any draw."""
    if not (clearance < (diagonal := math.dist(lo, hi)) and math.isfinite(clearance)):
        raise ValueError(f"clearance must be finite and below the box's diagonal {diagonal:.6g}, "
                         f"got {clearance}")


def _rect_loops(rng, knot: LatticeKnot, n: int, clearance: float = 0.5, margin: float = 3.0,
                name: str = ""):
    """n ``random_rect_loop``s, drawn in rounds of as many candidates as are
    missing, measured in one ``_clearances`` pass that keeps their entries.
    A candidate takes the same scalar draws kept or not, so the loops and the
    final generator state are those of one-at-a-time draws."""
    core_lo, core_hi = (np.asarray(c, dtype=float) for c in bounding_box(knot))
    half = 0.5 * ((core_hi + margin) - (core_lo - margin))
    reach = np.maximum(abs(half), 0.8)      # no rectangle's half-side exceeds it
    _check_clearance(clearance, core_lo - reach, core_hi + reach)
    loops = []
    while len(loops) < n:
        drawn = []
        for _ in range(n - len(loops)):
            normal = int(rng.integers(0, 3))
            u, v = [ax for ax in range(3) if ax != normal]
            # Centering inside the knot's own box makes linked loops common.
            c = rng.uniform(core_lo[normal], core_hi[normal])
            cu, cv = rng.uniform(core_lo[u], core_hi[u]), rng.uniform(core_lo[v], core_hi[v])
            hu, hv = rng.uniform(0.8, half[u]), rng.uniform(0.8, half[v])
            at = {normal: (c,) * 4, u: (cu - hu, cu + hu, cu + hu, cu - hu),
                  v: (cv - hv, cv - hv, cv + hv, cv + hv)}
            drawn.append(Loop(vertices=tuple(zip(at[0], at[1], at[2])), name=name))
        for loop, entry in zip(drawn, _clearances(knot, drawn)):
            if (refusal := _refusal(entry)) is not None:
                raise refusal
            if entry[0] >= clearance:
                loops.append(loop)
    return loops


def suite_segment_kernel(seed: int = 0, n_pairs: int = 1000):
    """Closed form vs. quadrature oracle on random (stick, point) pairs, drawn
    from ``default_rng(seed)`` by array calls.  A stick starts uniformly in
    [-8, 8]^3, along a uniform axis, and ends at a uniform other lattice value
    on that axis: ``other`` in [-8, 7] maps one-to-one onto [-8, 8] without
    the start.  Its point is uniform in its box inflated by 4 and is drawn
    again, in the next round, while it lies nearer than 0.5 to the stick;
    each round's rows take one paired kernel call."""
    rng, rows = np.random.default_rng(seed), np.arange(n_pairs)
    starts = rng.integers(-8, 9, (n_pairs, 3))
    axis = rng.integers(0, 3, n_pairs)
    other = rng.integers(-8, 8, n_pairs)
    ends = starts.copy()
    ends[rows, axis] = other + (other >= starts[rows, axis])
    lo, hi = np.minimum(starts, ends) - 4.0, np.maximum(starts, ends) + 4.0
    points, closed, todo = np.empty((n_pairs, 3)), np.empty((n_pairs, 3)), rows
    while todo.size:
        points[todo] = rng.uniform(lo[todo], hi[todo])
        closed[todo], dist = _paired_field(PackedSticks.pack(starts[todo], ends[todo]),
                                           points[todo])
        todo = todo[dist < 0.5]
    quad = _quadrature(starts, ends, points, 1.0, 1e-10, 40)
    worst = float(np.max(np.abs(closed - quad), initial=0.0))
    return ("segment-kernel-vs-quadrature", worst <= 1e-8,
            {"pairs": n_pairs, "worst_abs_err": worst, "tol": 1e-8})


def suite_infinite_wire():
    """|B| -> 2k/r for a long stick, the Gaussian-units sanity anchor."""
    b = segment_field(Segment((0, 0, -10 ** 6), (0, 0, 10 ** 6)), (1.0, 0.0, 0.0))
    rel_err = abs(float(np.linalg.norm(b)) - 2.0) / 2.0
    return ("infinite-wire-limit", rel_err <= 1e-9,
            {"half_length": 10 ** 6, "rel_err": rel_err, "tol": 1e-9})


def clear_field(knot: LatticeKnot, points):
    """``total_field`` at (M, 3) points in one kernel call, with its refusal."""
    b, on = total_field_many(knot, points)
    if on.any():
        total_field(knot, points[np.argmax(on)])        # OnConductorError
    return b


def _row_norms(v):
    """Each row's ``np.linalg.norm``, bit for bit: a stacked matmul takes each
    row's dot product as the norm does, which may round unlike a sum of squares."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def suite_flatness(knot: LatticeKnot, seed: int = 0, n_points: int = 200):
    """Central-difference curl and divergence vanish off the conductor,
    compared in units of k: at k = 1, which a field only scales by last."""
    rng, knot = np.random.default_rng(seed), replace(knot, k=1.0)
    p = random_clear_points(rng, *stick_ends(knot), n_points, margin=3.0, clearance=1.0)
    # Each point, then its neighbours +h and -h along x, y and z.
    step = 1e-3 * np.eye(3)
    stencil = np.concatenate([p[:, None], p[:, None] + step, p[:, None] - step], axis=1)
    b = clear_field(knot, stencil.reshape(-1, 3)).reshape(-1, 7, 3)
    d = np.swapaxes((b[:, 1:4] - b[:, 4:7]) / (2 * 1e-3), 1, 2)    # d[:, i, j] = dB_i/dx_j
    curl = (d - np.swapaxes(d, 1, 2))[:, [2, 0, 1], [1, 2, 0]]
    div = d[:, 0, 0] + d[:, 1, 1] + d[:, 2, 2]
    scale = _row_norms(b[:, 0])
    worst_curl = float(np.max(_row_norms(curl) / scale, initial=0.0))
    worst_div = float(np.max(np.abs(div) / scale, initial=0.0))
    return ("flatness-and-divergence", worst_curl <= 1e-4 and worst_div <= 1e-4,
            {"points": n_points, "h": 1e-3, "worst_rel_curl": worst_curl,
             "worst_rel_div": worst_div, "bound": 1e-4})


def suite_scaling(knot: LatticeKnot, seed: int = 0, n_points: int = 100):
    """B(lambda x; lambda K) = B(x; K) / lambda, at lambda = 3, off the binary
    grid where a power of two would scale every value exactly, compared in
    units of k: at k = 1, which a field only scales by last."""
    rng, knot = np.random.default_rng(seed), replace(knot, k=1.0)
    p = random_clear_points(rng, *stick_ends(knot), n_points, margin=3.0, clearance=0.5)
    b = clear_field(knot, p)
    b_scaled = clear_field(refine(knot, 3), 3 * p)
    ref = _row_norms(b)
    worst = float(np.max(np.max(np.abs(b_scaled - b / 3), axis=1) / ref, initial=0.0))
    return ("scaling-law", worst <= 1e-9,
            {"points": n_points, "factor": 3, "worst_rel_err": worst, "tol": 1e-9})


def suite_holonomy_linking(knot: LatticeKnot, seed: int = 0, n_loops: int = 20):
    """holonomy = 4*pi*k*Lk on random rectangular loops in the complement, in
    units of k: at k = 1, which no holonomy over- or underflows.  Both routes
    read the clearances the draws kept; the loops are handed on, with their holonomies."""
    rng, knot = np.random.default_rng(seed), replace(knot, k=1.0)
    loops = _rect_loops(rng, knot, n_loops)
    values = [h.value for h in _holonomy_results(knot, loops, tol=1e-6)]
    worst, linked = 0.0, 0
    for value, (lk, _) in zip(values, _linking_results(knot, loops)):
        linked += lk != 0
        worst = max(worst, abs(value - 4.0 * math.pi * lk) / max(1.0, abs(value)))
    return ("holonomy-vs-linking", worst < 1e-5,
            {"loops": n_loops, "nonzero_linking": int(linked),
             "worst_rel_err": float(worst), "tol": 1e-5}, loops, values)


def suite_refined_holonomy(knot: LatticeKnot, loops, values):
    """Refining knot and ``loops`` by 3, each edge split a third of the way
    along, moves every Gauss panel off the binary grid, so that the loops'
    holonomies ``values`` at k = 1 test convergence, not exact arithmetic."""
    thirds = [Loop(np.stack([3 * v, 2 * v + np.roll(v, -1, 0)], 1).reshape(-1, 3))
              for v in (np.array(loop.vertices) for loop in loops)]
    refined = _holonomy_results(refine(replace(knot, k=1.0), 3), thirds, tol=1e-6)
    worst = max([0.0] + [abs(value - h.value) for value, h in zip(values, refined)])
    return ("refined-holonomy-invariance", worst < 2e-5,
            {"loops": len(loops), "factor": 3, "worst_abs_err": float(worst), "tol": 2e-5})


def run_verification(knot: LatticeKnot, seed: int = 0, loops: int = 20,
                     points: int = 200, kernel_pairs: int = 1000) -> list[SuiteResult]:
    """The full battery, sized by the caller (CLI exposes the knobs).  Each
    suite returns (name, passed, details), and is timed here on its own;
    ``holonomy-vs-linking`` also hands on its loops and their holonomies,
    the first half of which the refined suite refines."""
    results = []

    def timed(suite, *args):
        t0 = time.perf_counter()
        name, passed, details, *handed = suite(*args)
        results.append(SuiteResult(name, bool(passed), details, time.perf_counter() - t0))
        return handed

    timed(suite_segment_kernel, seed, kernel_pairs)
    timed(suite_infinite_wire)
    timed(suite_flatness, knot, seed, points)
    timed(suite_scaling, knot, seed, max(1, points // 2))
    drawn = timed(suite_holonomy_linking, knot, seed, loops)      # (loops, holonomies)
    timed(suite_refined_holonomy, knot, *(x[:max(1, loops // 2)] for x in drawn))
    return results
