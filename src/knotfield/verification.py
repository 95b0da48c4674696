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

from .geometry import LatticeKnot, PackedSticks, Segment, bounding_box, refine, segments
from .biot_savart import _stick_field, segment_field, segment_field_quadrature, total_field
from .topology import Loop, holonomy, linking_number, loop_clearance


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    details: dict
    duration: float

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.duration:.2f}s): {self.details}"


def random_axis_segment(rng, lo: int = -8, hi: int = 8) -> Segment:
    """A random axis-aligned stick with integer endpoints."""
    while True:
        start = rng.integers(lo, hi + 1, size=3)
        end = start.copy()
        axis = int(rng.integers(0, 3))
        step = int(rng.integers(1, hi - lo + 1)) * (1 if rng.random() < 0.5 else -1)
        end[axis] += step
        if lo <= end[axis] <= hi:
            return Segment(tuple(int(c) for c in start), tuple(int(c) for c in end))


def random_clear_point(rng, sticks, margin: float, clearance: float):
    """Uniform point in the sticks' inflated bounding box, at least
    ``clearance`` from them by the field kernel's own distance."""
    ends = np.array([(s.start, s.end) for s in sticks], dtype=float)    # (N, 2, 3)
    packed = PackedSticks.pack(ends[:, 0], ends[:, 1])
    lo, hi = ends.min(axis=(0, 1)) - margin, ends.max(axis=(0, 1)) + margin
    while True:
        p = rng.uniform(lo, hi)
        if _stick_field(packed, p.reshape(1, 3))[1][0] >= clearance:
            return p


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


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def suite_segment_kernel(seed: int = 0, n_pairs: int = 1000, clearance: float = 0.5,
                         quad_tol: float = 1e-10, agree_tol: float = 1e-8) -> SuiteResult:
    """Closed form vs. quadrature oracle on random (stick, point) pairs."""
    rng = np.random.default_rng(seed)

    def run():
        worst = 0.0
        for _ in range(n_pairs):
            seg = random_axis_segment(rng)
            p = random_clear_point(rng, [seg], margin=4.0, clearance=clearance)
            closed = segment_field(seg, p)
            quad = segment_field_quadrature(seg, p, tol=quad_tol)
            worst = max(worst, float(np.max(np.abs(closed - quad))))
        return worst

    worst, dt = _timed(run)
    return SuiteResult(
        name="segment-kernel-vs-quadrature",
        passed=bool(worst <= agree_tol),
        details={"pairs": n_pairs, "worst_abs_err": float(worst), "tol": agree_tol},
        duration=dt,
    )


def suite_infinite_wire(half_length: int = 10 ** 6, rel_tol: float = 1e-9) -> SuiteResult:
    """|B| -> 2k/r for a long stick, the Gaussian-units sanity anchor."""
    def run():
        seg = Segment((0, 0, -half_length), (0, 0, half_length))
        b = segment_field(seg, (1.0, 0.0, 0.0))
        return abs(float(np.linalg.norm(b)) - 2.0) / 2.0

    rel_err, dt = _timed(run)
    return SuiteResult(
        name="infinite-wire-limit",
        passed=bool(rel_err <= rel_tol),
        details={"half_length": half_length, "rel_err": float(rel_err), "tol": rel_tol},
        duration=dt,
    )


def _central_difference_derivatives(knot, p, h):
    """d B_i / d x_j matrix by central differences."""
    d = np.empty((3, 3))
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        d[:, j] = (total_field(knot, p + step) - total_field(knot, p - step)) / (2 * h)
    return d


def suite_flatness(knot: LatticeKnot, seed: int = 0, n_points: int = 200,
                   clearance: float = 1.0, h: float = 1e-3,
                   bound: float = 1e-4) -> SuiteResult:
    """Central-difference curl and divergence vanish off the conductor."""
    rng = np.random.default_rng(seed)
    segs = segments(knot)

    def run():
        worst_curl = worst_div = 0.0
        for _ in range(n_points):
            p = random_clear_point(rng, segs, margin=3.0, clearance=clearance)
            scale = float(np.linalg.norm(total_field(knot, p)))
            d = _central_difference_derivatives(knot, p, h)
            curl = np.array([d[2, 1] - d[1, 2], d[0, 2] - d[2, 0], d[1, 0] - d[0, 1]])
            div = d[0, 0] + d[1, 1] + d[2, 2]
            worst_curl = max(worst_curl, float(np.linalg.norm(curl)) / scale)
            worst_div = max(worst_div, abs(div) / scale)
        return worst_curl, worst_div

    (worst_curl, worst_div), dt = _timed(run)
    return SuiteResult(
        name="flatness-and-divergence",
        passed=bool(worst_curl <= bound and worst_div <= bound),
        details={"points": n_points, "h": h, "worst_rel_curl": float(worst_curl),
                 "worst_rel_div": float(worst_div), "bound": bound},
        duration=dt,
    )


def suite_scaling(knot: LatticeKnot, seed: int = 0, n_points: int = 100,
                  factor: int = 2, rel_tol: float = 1e-9) -> SuiteResult:
    """B(lambda x; lambda K) = B(x; K) / lambda."""
    rng = np.random.default_rng(seed)
    segs = segments(knot)
    big = refine(knot, factor)

    def run():
        worst = 0.0
        for _ in range(n_points):
            p = random_clear_point(rng, segs, margin=3.0, clearance=0.5)
            b = total_field(knot, p)
            b_scaled = total_field(big, factor * p)
            ref = float(np.linalg.norm(b))
            worst = max(worst, float(np.max(np.abs(b_scaled - b / factor))) / ref)
        return worst

    worst, dt = _timed(run)
    return SuiteResult(
        name="scaling-law",
        passed=bool(worst <= rel_tol),
        details={"points": n_points, "factor": factor, "worst_rel_err": float(worst),
                 "tol": rel_tol},
        duration=dt,
    )


def suite_holonomy_linking(knot: LatticeKnot, seed: int = 0, n_loops: int = 20,
                           clearance: float = 0.5, tol: float = 1e-5) -> SuiteResult:
    """holonomy = 4*pi*k*Lk on random rectangular loops in the complement."""
    rng = np.random.default_rng(seed)

    def run():
        worst = 0.0
        linked = 0
        for i in range(n_loops):
            loop = random_rect_loop(rng, knot, clearance=clearance, name=f"loop{i}")
            res = holonomy(knot, loop, tol=1e-6)
            lk = linking_number(knot, loop)
            linked += lk != 0
            err = abs(res.value - 4.0 * math.pi * knot.k * lk)
            worst = max(worst, err / max(1.0, abs(res.value)))
        return worst, linked

    (worst, linked), dt = _timed(run)
    return SuiteResult(
        name="holonomy-vs-linking",
        passed=bool(worst < tol),
        details={"loops": n_loops, "nonzero_linking": int(linked),
                 "worst_rel_err": float(worst), "tol": tol},
        duration=dt,
    )


def suite_refined_holonomy(knot: LatticeKnot, seed: int = 0, n_loops: int = 20,
                           factor: int = 2, tol: float = 2e-5) -> SuiteResult:
    """Refining knot and loop together leaves every holonomy unchanged."""
    rng = np.random.default_rng(seed)
    big = refine(knot, factor)

    def run():
        worst = 0.0
        for i in range(n_loops):
            loop = random_rect_loop(rng, knot, clearance=0.5, name=f"loop{i}")
            h1 = holonomy(knot, loop, tol=1e-6).value
            h2 = holonomy(big, loop.scaled(factor), tol=1e-6).value
            worst = max(worst, abs(h1 - h2))
        return worst

    worst, dt = _timed(run)
    return SuiteResult(
        name="refined-holonomy-invariance",
        passed=bool(worst < tol),
        details={"loops": n_loops, "factor": factor, "worst_abs_err": float(worst),
                 "tol": tol},
        duration=dt,
    )


def run_verification(knot: LatticeKnot, seed: int = 0, loops: int = 20,
                     points: int = 200, kernel_pairs: int = 1000) -> list[SuiteResult]:
    """The full battery, sized by the caller (CLI exposes the knobs)."""
    return [
        suite_segment_kernel(seed=seed, n_pairs=kernel_pairs),
        suite_infinite_wire(),
        suite_flatness(knot, seed=seed, n_points=points),
        suite_scaling(knot, seed=seed, n_points=max(1, points // 2)),
        suite_holonomy_linking(knot, seed=seed, n_loops=loops),
        suite_refined_holonomy(knot, seed=seed, n_loops=max(1, loops // 2)),
    ]
