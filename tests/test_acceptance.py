"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Shared expensive artifacts (braid closures, the random-loop
holonomy sweeps) are built once in module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from knotfield.cli import main
from knotfield.geometry import (
    canonical_figure_eight,
    canonical_trefoil,
    read_knot_file,
    refine,
    segments,
    stick_ends,
    validate,
)
from knotfield.biot_savart import segment_field, segment_field_quadrature, total_field
from knotfield.braids import (
    close_braid_on_lattice,
    parse_braid,
    projection_crossings,
)
from knotfield.sampling import GridSpec, sample_field, write_csv
from knotfield.topology import Loop, holonomy, linking_number
from knotfield.transcription import discrepancy_ledger
from knotfield.verification import random_clear_point, random_clear_points, random_rect_loop
from scan_oracle import random_axis_segment

FOUR_PI = 4.0 * math.pi


def report(n, description, passed, detail):
    print(f"\nACCEPTANCE {n} {'PASS' if passed else 'FAIL'} - {description} ({detail})")
    assert passed, f"criterion {n}: {description}: {detail}"


@pytest.fixture(scope="module")
def knots():
    return {"3_1": canonical_trefoil(), "4_1": canonical_figure_eight()}


@pytest.fixture(scope="module")
def braid_knots():
    return {
        "s1 s1 s1": close_braid_on_lattice(parse_braid("s1 s1 s1")),
        "s1 s2^-1 s1 s2^-1": close_braid_on_lattice(parse_braid("s1 s2^-1 s1 s2^-1")),
    }


def _holonomy_linking_sweep(knot, seed=0, n_loops=20, tol=1e-5):
    """Criterion-4 sweep; returns (worst_rel_err, rows) for reuse."""
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for i in range(n_loops):
        loop = random_rect_loop(rng, knot, clearance=0.5, name=f"loop{i}")
        res = holonomy(knot, loop, tol=1e-6)
        lk = linking_number(knot, loop)       # asserts rounding residual < 0.25
        err = abs(res.value - FOUR_PI * knot.k * lk) / max(1.0, abs(res.value))
        worst = max(worst, err)
        rows.append((loop, res.value, lk))
    return worst, rows


@pytest.fixture(scope="module")
def sweep_canonical(knots):
    return {name: _holonomy_linking_sweep(knot) for name, knot in knots.items()}


def test_criterion_1_segment_kernel_vs_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        seg = random_axis_segment(rng)
        p = random_clear_point(rng, [seg], margin=4.0, clearance=0.5)
        diff = segment_field(seg, p) - segment_field_quadrature(seg, p, tol=1e-10)
        worst = max(worst, float(np.max(np.abs(diff))))
    dt = time.perf_counter() - t0
    report(1, "closed-form kernel matches quadrature oracle to 1e-8",
           worst <= 1e-8 and dt < 10.0,
           f"worst component error {worst:.3e}, {dt:.2f}s over 1000 pairs")


def test_criterion_2_infinite_wire_limit():
    from knotfield.geometry import Segment
    seg = Segment((0, 0, -10 ** 6), (0, 0, 10 ** 6))
    b = segment_field(seg, (1.0, 0.0, 0.0), k=1.0)
    rel = abs(float(np.linalg.norm(b)) - 2.0) / 2.0
    report(2, "half-length 1e6 stick gives |B| = 2k at distance 1 (rel 1e-9)",
           rel < 1e-9, f"relative error {rel:.3e}")


def test_criterion_3_paper_holonomy(knots):
    t0 = time.perf_counter()
    loop = Loop(vertices=((5, 3, 2), (7, 3, 2), (7, 5, 2), (5, 5, 2)), name="paper")
    res = holonomy(knots["3_1"], loop, tol=1e-6)
    dt = time.perf_counter() - t0
    rel = abs(abs(res.value) - FOUR_PI) / FOUR_PI
    ok = rel < 1e-6 and abs(res.inferred_linking) == 1 and dt < 5.0
    report(3, "trefoil holonomy around (5,3,2)-(7,3,2)-(7,5,2)-(5,5,2) is 4*pi",
           ok, f"|value| - 4pi rel {rel:.3e}, linking {res.inferred_linking}, {dt:.2f}s")


def test_criterion_4_holonomy_equals_linking(sweep_canonical):
    t0 = time.perf_counter()
    worst = max(w for w, _rows in sweep_canonical.values())
    dt = time.perf_counter() - t0     # fixture cost excluded; measure fresh below
    t0 = time.perf_counter()
    fresh = {name: _holonomy_linking_sweep(knot)
             for name, knot in (("3_1", canonical_trefoil()),
                                ("4_1", canonical_figure_eight()))}
    dt = time.perf_counter() - t0
    worst = max(worst, *(w for w, _rows in fresh.values()))
    linked = sum(1 for _w, rows in fresh.values() for _l, _h, lk in rows if lk != 0)
    report(4, "holonomy = 4*pi*k*Lk on 20 random loops per canonical knot",
           worst < 1e-5 and dt < 120.0,
           f"worst rel err {worst:.3e}, {linked} linked loops, {dt:.1f}s")


def test_criterion_5_flatness_and_divergence(knots):
    h = 1e-3
    worst_curl = worst_div = 0.0
    for knot in knots.values():
        rng = np.random.default_rng(0)
        segs = segments(knot)
        for _ in range(200):
            p = random_clear_point(rng, segs, margin=3.0, clearance=1.0)
            scale = float(np.linalg.norm(total_field(knot, p)))
            d = np.empty((3, 3))
            for j in range(3):
                step = np.zeros(3)
                step[j] = h
                d[:, j] = (total_field(knot, p + step) - total_field(knot, p - step)) / (2 * h)
            curl = np.array([d[2, 1] - d[1, 2], d[0, 2] - d[2, 0], d[1, 0] - d[0, 1]])
            worst_curl = max(worst_curl, float(np.linalg.norm(curl)) / scale)
            worst_div = max(worst_div, abs(d[0, 0] + d[1, 1] + d[2, 2]) / scale)
    report(5, "central-difference curl and divergence below 1e-4 of field scale",
           worst_curl < 1e-4 and worst_div < 1e-4,
           f"worst relative curl {worst_curl:.3e}, divergence {worst_div:.3e}")


def test_criterion_6_scale_invariance(knots, sweep_canonical):
    """Refining by 3, not 2: doubling scales every node and field value by a
    power of two, which is exact in binary, so both errors would read 0."""
    worst_hol = 0.0
    for name, knot in knots.items():
        big = refine(knot, 3)
        for loop, value, _lk in sweep_canonical[name][1]:
            # Each loop scaled by 3, each edge split a third of the way along.
            v = np.array(loop.vertices)
            thirds = Loop(np.stack([3 * v, 2 * v + np.roll(v, -1, 0)], 1).reshape(-1, 3))
            worst_hol = max(worst_hol, abs(holonomy(big, thirds, tol=1e-6).value - value))

    worst_field = 0.0
    knot = knots["3_1"]
    big = refine(knot, 3)
    rng = np.random.default_rng(0)
    for p in random_clear_points(rng, *stick_ends(knot), 100, margin=3.0, clearance=0.5):
        b = total_field(knot, p)
        err = float(np.max(np.abs(total_field(big, 3 * p) - b / 3)))
        worst_field = max(worst_field, err / float(np.linalg.norm(b)))
    report(6, "refine(3) leaves holonomies unchanged and scales fields by 1/3",
           worst_hol < 2e-5 and worst_field < 1e-9,
           f"worst holonomy shift {worst_hol:.3e}, worst field rel err {worst_field:.3e}")


def test_criterion_7_braid_pipeline(tmp_path, braid_knots):
    ok = True
    details = []

    for word, expect_crossings, expect_writhe in (
        ("s1 s1 s1", 3, 3),
        ("s1 s2^-1 s1 s2^-1", 4, 0),
    ):
        out = tmp_path / f"{expect_crossings}.txt"
        rc = main(["braid", "build", "--word", word, "--out", str(out)])
        knot = read_knot_file(out)
        valid = validate(knot).ok
        crossings = projection_crossings(knot)
        signs = sum(c.sign for c in crossings)
        ok &= rc == 0 and valid and len(crossings) == expect_crossings \
            and signs == expect_writhe
        details.append(f"{word!r}: rc={rc} valid={valid} "
                       f"crossings={len(crossings)} writhe={signs}")

    rc_link = main(["braid", "build", "--word", "s1 s1"])
    ok &= rc_link == 2
    details.append(f"'s1 s1': rc={rc_link}")

    worst = 0.0
    for word, knot in braid_knots.items():
        w, _rows = _holonomy_linking_sweep(knot, seed=0, n_loops=20)
        worst = max(worst, w)
    ok &= worst < 1e-5
    details.append(f"braid-knot holonomy/linking worst rel err {worst:.3e}")
    report(7, "braid CLI builds valid knots, rejects links, passes holonomy suite",
           ok, "; ".join(details))


def test_criterion_8_transcription_ledger():
    details = []
    ok = True
    for label, total in (("3_1", 24), ("4_1", 28)):
        ledger = discrepancy_ledger(label)
        c = ledger.counts
        ok &= c["total"] == total and c["unmatched"] == 0
        ok &= c["exact"] + c["sign_flipped"] + c["mismatch"] == total
        flagged = [f"{e.component}#{e.index}:{e.status}" for e in ledger.flagged]
        details.append(f"{label}: {c['exact']}/{total} exact, flagged [{', '.join(flagged)}]")
    report(8, "every printed term matches an engine stick by denominator",
           ok, "; ".join(details))


def test_criterion_9_field_sample_determinism(tmp_path, knots):
    grid = GridSpec(origin=(-2.0, -2.0, -2.0), spacing=0.5, counts=(21, 21, 21))

    def emit(threads, path):
        sample = sample_field(knots["3_1"], grid)
        with open(path, "w", newline="\n") as fh:
            write_csv(sample, fh, threads=threads)
        return path.read_bytes()

    one = emit(1, tmp_path / "t1.csv")
    four = emit(4, tmp_path / "t4.csv")
    again = emit(4, tmp_path / "t4b.csv")
    rows = len(one.splitlines())
    ok = one == four == again and rows == 1 + 21 ** 3
    report(9, "21^3 field sample byte-identical across thread counts and reruns",
           ok, f"{rows - 1} rows, identical={one == four == again}")
