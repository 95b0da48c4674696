"""Self-check suites: the library's own evidence that the field is right.

Each suite is a seeded, deterministic random experiment with a hard
tolerance, usable both from the test suite and from the command line:

* closed-form segment kernel vs. the direct quadrature of the current law;
* the infinite-wire limit 2k/r;
* flatness (curl) and solenoidality (divergence) in the complement;
* the scaling law B(lambda x; lambda K) = B(x; K)/lambda;
* holonomy = 4*pi*k*Lk against the Gauss-integral linking oracle, on random
  rectangular loops in the complement;
* invariance of those holonomies under refining knot and loops together.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import LatticeKnot, PackedSticks, Segment, bounding_box, refine, stick_ends
from .biot_savart import (_paired_field, _quadrature, _stick_field, segment_field, total_field,
                          total_field_many)
from .topology import Loop, _holonomy_results, linking_number, loop_clearance


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
    points and the generator's final state are those of drawing one at a time."""
    packed = PackedSticks.pack(starts, ends)
    both = np.concatenate([starts, ends])
    lo, hi = both.min(axis=0) - margin, both.max(axis=0) + margin
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
    fraction of them actually link the circuit.
    """
    core_lo, core_hi = (np.asarray(c, dtype=float) for c in bounding_box(knot))
    lo, hi = core_lo - margin, core_hi + margin
    while True:
        normal = int(rng.integers(0, 3))
        u, v = [ax for ax in range(3) if ax != normal]
        # Centering inside the knot's own box makes linked loops common.
        c = rng.uniform(core_lo[normal], core_hi[normal])
        cu, cv = rng.uniform(core_lo[u], core_hi[u]), rng.uniform(core_lo[v], core_hi[v])
        hu = rng.uniform(0.8, 0.5 * (hi[u] - lo[u]))
        hv = rng.uniform(0.8, 0.5 * (hi[v] - lo[v]))
        corners = []
        for du, dv in ((-hu, -hv), (hu, -hv), (hu, hv), (-hu, hv)):
            p = [0.0, 0.0, 0.0]
            p[normal], p[u], p[v] = c, cu + du, cv + dv
            corners.append(tuple(p))
        loop = Loop(vertices=tuple(corners), name=name)
        if loop_clearance(knot, loop)[0] >= clearance:
            return loop


class _Raws:
    """``default_rng(seed)``'s draws replayed from PCG64's raw outputs, as numpy
    2 makes them.  ``integers(lo, hi)`` is lo + (m >> 32) for m = u * (hi - lo)
    and the first 32-bit half u with m % 2**32 >= 2**32 % (hi - lo) (Lemire, ACM
    TOMACS 29(1), 2019), low halves first and the high one kept in ``half`` while
    ``has`` is 1.  A double is a raw's top 53 bits and leaves that buffer alone."""

    def __init__(self, seed, n):
        self.bits, self.pos, self.has, self.half = np.random.PCG64(seed), 0, 0, 0
        self.raws = memoryview(self.bits.random_raw(n))

    def raw(self):
        if self.pos == len(self.raws):
            self.raws = memoryview(np.append(self.raws, self.bits.random_raw(len(self.raws) + 1)))
        self.pos += 1
        return self.raws[self.pos - 1]

    def integer(self, lo, hi):
        """``integers(lo, hi)``, for 1 < hi - lo <= 2**32."""
        while True:
            self.has ^= 1
            self.half, u = divmod(self.raw(), 2 ** 32) if self.has else (self.half, self.half)
            if (m := u * (hi - lo)) % 2 ** 32 >= 2 ** 32 % (hi - lo):
                return lo + (m >> 32)

    def random(self):
        return (self.raw() >> 11) * 2.0 ** -53


def _axis_stick(draws, lo=-8, hi=8):
    """A random axis-aligned stick with integer endpoints, as (start, end) tuples."""
    while True:
        start = [draws.integer(lo, hi + 1) for _ in range(3)]
        end, axis = start.copy(), draws.integer(0, 3)
        end[axis] += draws.integer(1, hi - lo + 1) * (1 if draws.random() < 0.5 else -1)
        if lo <= end[axis] <= hi:
            return tuple(start), tuple(end)


def suite_segment_kernel(seed: int = 0, n_pairs: int = 1000):
    """Closed form vs. quadrature oracle on (stick, point) pairs drawn in turn
    from ``default_rng(seed)``, each point 0.5 or more from its stick in its box
    inflated by 4.  Draws are replayed from raws as if each first point were
    clear, and judged in one paired kernel call; the first that is not is drawn
    again, and the stream after it soon reaches states already decoded."""
    draws, decoded, tail = _Raws(seed, 12 * n_pairs), {}, []
    starts, ends, points, closed = [], [], [np.empty((0, 3))], [np.empty((0, 3))]
    def point(stick):       # a stick, and the state after its point's three raws
        draws.raw(), draws.raw(), draws.raw()
        return *stick, (draws.pos, draws.has, draws.half)
    while len(starts) < n_pairs:
        for _ in range(n_pairs - len(starts) - len(tail)):
            if (state := (draws.pos, draws.has, draws.half)) not in decoded:
                decoded[state] = point(_axis_stick(draws))
            tail.append(decoded[state])
            draws.pos, draws.has, draws.half = tail[-1][2]
        s, e, after = zip(*tail)
        u = np.asarray(draws.raws)[np.array([a[0] for a in after])[:, None] - (3, 2, 1)]
        lo, hi = np.minimum(s, e) - 4.0, np.maximum(s, e) + 4.0
        p = lo + (hi - lo) * ((u >> 11) * 2.0 ** -53)
        b, dist = _paired_field(PackedSticks.pack(s, e), p)
        take = np.append(np.flatnonzero(dist < 0.5), len(tail))[0]
        starts, ends = starts + list(s[:take]), ends + list(e[:take])
        points, closed = points + [p[:take]], closed + [b[:take]]
        if take < len(tail):
            draws.pos, draws.has, draws.half = after[take]
            tail = [point((s[take], e[take]))]
    quad = _quadrature(np.reshape(starts, (-1, 3)), np.reshape(ends, (-1, 3)),
                       np.concatenate(points), 1.0, 1e-10, 40)
    worst = float(np.max(np.abs(np.concatenate(closed) - quad), initial=0.0))
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


def suite_flatness(knot: LatticeKnot, seed: int = 0, n_points: int = 200):
    """Central-difference curl and divergence vanish off the conductor."""
    rng = np.random.default_rng(seed)
    p = random_clear_points(rng, *stick_ends(knot), n_points, margin=3.0, clearance=1.0)
    # Each point, then its neighbours +h and -h along x, y and z.
    step = 1e-3 * np.eye(3)
    stencil = np.concatenate([p[:, None], p[:, None] + step, p[:, None] - step], axis=1)
    b = clear_field(knot, stencil.reshape(-1, 3)).reshape(-1, 7, 3)
    d = np.swapaxes((b[:, 1:4] - b[:, 4:7]) / (2 * 1e-3), 1, 2)    # d[:, i, j] = dB_i/dx_j
    curl = (d - np.swapaxes(d, 1, 2))[:, [2, 0, 1], [1, 2, 0]]
    div = d[:, 0, 0] + d[:, 1, 1] + d[:, 2, 2]
    # Each row's own np.linalg.norm: its dot product may round unlike a sum of squares.
    scale = np.array([np.linalg.norm(r) for r in b[:, 0]])
    worst_curl = float(np.max([np.linalg.norm(c) for c in curl] / scale, initial=0.0))
    worst_div = float(np.max(np.abs(div) / scale, initial=0.0))
    return ("flatness-and-divergence", worst_curl <= 1e-4 and worst_div <= 1e-4,
            {"points": n_points, "h": 1e-3, "worst_rel_curl": worst_curl,
             "worst_rel_div": worst_div, "bound": 1e-4})


def suite_scaling(knot: LatticeKnot, seed: int = 0, n_points: int = 100):
    """B(lambda x; lambda K) = B(x; K) / lambda, at lambda = 2."""
    rng = np.random.default_rng(seed)
    p = random_clear_points(rng, *stick_ends(knot), n_points, margin=3.0, clearance=0.5)
    b = clear_field(knot, p)
    b_scaled = clear_field(refine(knot, 2), 2 * p)
    ref = np.array([np.linalg.norm(r) for r in b])
    worst = float(np.max(np.max(np.abs(b_scaled - b / 2), axis=1) / ref, initial=0.0))
    return ("scaling-law", worst <= 1e-9,
            {"points": n_points, "factor": 2, "worst_rel_err": worst, "tol": 1e-9})


def suite_holonomy_linking(knot: LatticeKnot, seed: int = 0, n_loops: int = 20):
    """holonomy = 4*pi*k*Lk on random rectangular loops in the complement,
    compared in units of k; the holonomies are refined together."""
    rng = np.random.default_rng(seed)
    loops = [random_rect_loop(rng, knot, clearance=0.5, name=f"loop{i}") for i in range(n_loops)]
    worst, linked = 0.0, 0
    for loop, h in zip(loops, _holonomy_results(knot, loops, tol=1e-6)):
        per_k = h.value / knot.k
        lk = linking_number(knot, loop)
        linked += lk != 0
        worst = max(worst, abs(per_k - 4.0 * math.pi * lk) / max(1.0, abs(per_k)))
    return ("holonomy-vs-linking", worst < 1e-5,
            {"loops": n_loops, "nonzero_linking": int(linked),
             "worst_rel_err": float(worst), "tol": 1e-5})


def suite_refined_holonomy(knot: LatticeKnot, seed: int = 0, n_loops: int = 20):
    """Refining knot and loop together by 2 leaves every holonomy unchanged,
    compared in units of k; each knot's holonomies are refined together."""
    rng = np.random.default_rng(seed)
    loops = [random_rect_loop(rng, knot, clearance=0.5, name=f"loop{i}") for i in range(n_loops)]
    pairs = zip(_holonomy_results(knot, loops, tol=1e-6),
                _holonomy_results(refine(knot, 2), [loop.scaled(2) for loop in loops], tol=1e-6))
    worst = max([0.0] + [abs(h1.value - h2.value) / abs(knot.k) for h1, h2 in pairs])
    return ("refined-holonomy-invariance", worst < 2e-5,
            {"loops": n_loops, "factor": 2, "worst_abs_err": float(worst), "tol": 2e-5})


def run_verification(knot: LatticeKnot, seed: int = 0, loops: int = 20,
                     points: int = 200, kernel_pairs: int = 1000) -> list[SuiteResult]:
    """The full battery, sized by the caller (CLI exposes the knobs).  Each
    suite returns (name, passed, details), and is timed here on its own."""
    suites = (
        (suite_segment_kernel, (seed, kernel_pairs)),
        (suite_infinite_wire, ()),
        (suite_flatness, (knot, seed, points)),
        (suite_scaling, (knot, seed, max(1, points // 2))),
        (suite_holonomy_linking, (knot, seed, loops)),
        (suite_refined_holonomy, (knot, seed, max(1, loops // 2))),
    )
    results = []
    for suite, args in suites:
        t0 = time.perf_counter()
        name, passed, details = suite(*args)
        results.append(SuiteResult(name, bool(passed), details, time.perf_counter() - t0))
    return results
