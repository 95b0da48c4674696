"""Fast self-test of the benchmark at reduced sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hostspeed import REFERENCE_PROBE_S, HostSpeed, probe_once  # noqa: E402
from tracing import Tracer                                  # noqa: E402
from workloads import (                                     # noqa: E402
    OK, REFUSED, WRONG, BraidField, Loops, TrefoilGrid, Verify, classify_loop, job_count,
    masked_rows, tight_loop,
)
from knotfield import canonical_trefoil, segments           # noqa: E402


def _flip_byte(path: Path, offset: int = 40) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("make", [
    lambda seed, d: TrefoilGrid(seed, d, counts=(17, 17, 9)),   # reaches the vertex (2, 2, 0)
    lambda seed, d: BraidField(seed, d, letters=4, exponent_letters=(2, 4, 8)),
])
def test_grid_checks_accept_good_and_reject_flipped_byte(tmp_path, make):
    w = make(3, tmp_path)
    w.setup()
    w.reference()
    assert masked_rows("csv", (tmp_path / "ref.csv").read_text()) > 0
    assert w.run(0)[1] == OK
    tracer = Tracer()
    assert w.replay(1, tracer)[1] == OK
    metrics = {**w.counts(), **w.layer_metrics(tracer, [1.0]), **w.probes()}
    assert metrics["sampling.sample_s"] > 0 and metrics["biot_savart.ns_per_pair"] > 0
    _flip_byte(tmp_path / "job.csv")
    assert w.check_outputs() == WRONG


def test_verify_checks(tmp_path):
    w = Verify(5, tmp_path, extra_argv=["--loops", "2", "--points", "4", "--kernel-pairs", "4"])
    w.setup()
    w.speed = HostSpeed()
    seconds, outcome = w.run(0)
    assert outcome == OK
    assert len(w.speed.probes) >= 1 and len(w.invocations) == 2
    assert seconds == pytest.approx(sum(t for t, _, _ in w.invocations))
    assert w.replay(1, Tracer())[1] == OK
    good = json.dumps({"passed": True, "suites": [{"passed": True}]})
    bad = json.dumps({"passed": True, "suites": [{"passed": False}]})
    assert Verify.judge(0, good) == OK
    assert Verify.judge(0, bad) == WRONG
    assert Verify.judge(0, "not json") == WRONG
    assert Verify.judge(4, good) == REFUSED


@pytest.mark.parametrize("expected, hol, lk, outcome", [
    (1, 1, 1, (OK, OK, OK)),
    (-1, -1, 0, (WRONG, OK, WRONG)),          # a wrong linking integer
    (1, 1, None, (REFUSED, OK, REFUSED)),
    (1, None, 0, (WRONG, REFUSED, WRONG)),    # wrong outranks refused
    (None, 2, 2, (OK, OK, OK)),
    (None, 1, 0, (WRONG, WRONG, WRONG)),      # wide loop: the routes disagree
    (None, None, 1, (REFUSED, REFUSED, OK)),
    (None, None, None, (REFUSED, REFUSED, REFUSED)),
])
def test_classify_loop_on_synthetic_outcomes(expected, hol, lk, outcome):
    assert classify_loop(expected, hol, lk) == outcome


def test_tight_loop_circles_its_stick_with_the_stated_sign():
    knot = canonical_trefoil()
    rng = np.random.default_rng(0)
    for _ in range(50):
        loop, lk = tight_loop(rng, knot)
        v = np.asarray(loop.vertices)
        centre = v.mean(axis=0)
        area = sum(np.cross(v[i] - centre, v[(i + 1) % 4] - centre) for i in range(4))
        stick = [s for s in segments(knot)
                 if np.allclose(centre, (np.add(s.start, s.end)) / 2)]
        assert len(stick) == 1
        direction = np.subtract(stick[0].end, stick[0].start)
        assert np.sign(area @ direction) == lk


def test_loops_workload_replays_and_reports_per_kind(tmp_path):
    w = Loops(2, tmp_path, pass_size=8)
    w.setup()
    tracer = Tracer()
    for job in range(12):                     # crosses into a lazily drawn pass
        assert w.run(job)[1] in (OK, REFUSED, WRONG)
        assert w.replay(job, tracer)[1] in (OK, REFUSED, WRONG)
    metrics = w.layer_metrics(tracer, [0.01])
    assert metrics["topology.holonomy_ms.p50.wide"] > 0
    assert len(w.passes) == 2


def test_tracer_self_time_subtracts_covered_children():
    tr = Tracer()
    with tr.span("job", 0):
        with tr.span("a", 0):
            pass
        with tr.span("b", 0):
            pass
    job, a, b = tr.spans
    assert a.parent == b.parent == 0
    assert tr.self_times()[0] == pytest.approx(job.duration - a.duration - b.duration)


def test_host_speed_scales_each_job_by_the_probes_around_it():
    hs = HostSpeed()
    hs.times = [0.0, 10.0, 20.0]
    hs.probes = [REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S]
    assert hs.scale(3.0, 1.0, 9.0) == pytest.approx(2.0)      # probes 1x and 2x: mean 1.5x
    assert hs.scale(4.0, 11.0, 19.0) == pytest.approx(2.0)
    assert hs.scale(1.0, 21.0, 22.0) == pytest.approx(0.5)    # no later probe: the last one
    hs.probe()
    assert len(hs.probes) == 4 and hs.probes[-1] > 0
    assert probe_once() > 0


def test_job_count_is_fixed_by_workload_and_seconds(tmp_path):
    loops = Loops(1, tmp_path)
    assert job_count(loops, 1, False) == 34
    assert job_count(loops, 1, True) == 17
    assert job_count(Verify(1, tmp_path), 1, False) == 3
    assert job_count(Verify(1, tmp_path), 21, False) == 10


def test_run_fails_without_sources(tmp_path):
    """Holding only BENCHMARK.json and perfbench/, the benchmark refuses to run."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "loops",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
