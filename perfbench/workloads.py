"""The knotfield benchmark workloads: seeded inputs, jobs, traced replays, checks.

Every workload turns a seed into its inputs (``setup``), builds whatever the
checks compare against outside the timed region (``reference``), and then
runs jobs.  ``run`` is the job as a user runs it, with tracing off: through
``knotfield.cli.main`` for the CLI workloads, through the library for
``loops``.  ``replay`` performs the same job as its sequence of public layer
calls, each inside a span, and checks its output the same way.  ``probes``
times single layers on the workload's own inputs, after the measured window.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

from knotfield import cli
from knotfield import (
    FieldError,
    GridSpec,
    LatticeKnot,
    Loop,
    canonical_figure_eight,
    canonical_trefoil,
    close_braid_on_lattice,
    crossing_count,
    holonomy,
    linking_number,
    loop_clearance,
    parse_braid,
    permutation_cycles,
    plan_embedding,
    projection_crossings,
    run_verification,
    sample_field,
    segment_field_quadrature,
    segments,
    total_field,
    total_field_many,
    validate,
    writhe,
)
from knotfield.sampling import WRITERS
from knotfield.verification import random_clear_point, random_rect_loop

from hostspeed import PROBE_EVERY_INVOCATION_S, HostSpeed
from tracing import Tracer, traced

OK, REFUSED, WRONG, ERROR = "ok", "refused", "wrong", "error"

CANONICAL = {"3_1": canonical_trefoil, "4_1": canonical_figure_eight}

# Seeded grid rows compared with the quadrature oracle, and its tolerances.
QUAD_ROWS = 4
QUAD_TOL = 1e-11
ROW_ABS_TOL = 1e-8

# The tolerance `knotfield holonomy` uses by default; a residual above it
# makes the CLI exit non-zero, so the benchmark counts it as a refusal.
HOLONOMY_TOL = 1e-6


class CheckError(Exception):
    """A reference output disagrees with its independent oracle."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(argv) -> tuple[int, str]:
    """knotfield.cli.main in-process, with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def median_time(fn, budget: float = 0.5, max_reps: int = 5) -> float:
    """Median wall time of fn over repeats until ``budget`` seconds are spent."""
    times: list[float] = []
    while len(times) < max_reps and sum(times) < budget:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Workload:
    """One workload: ``setup`` -> ``reference`` -> jobs -> ``layer_metrics``."""

    name = ""
    # Refused or wrong jobs are what this workload measures, not a broken run.
    measures_failures = False
    # One job's wall time on the reference host; sets the job count.
    nominal_job_s = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        # Set by ``measure``; then every CLI invocation is preceded by a
        # host-speed probe, not only every job.
        self.speed: HostSpeed | None = None
        # (seconds, start, end) of every CLI invocation a job has made.
        self.invocations: list[tuple[float, float, float]] = []

    def invoke(self, argvs) -> tuple[float, list[tuple[int, str]]]:
        """Each argv through the CLI in turn: total wall time, (exit code, stdout)s."""
        first, results = len(self.invocations), []
        for argv in argvs:
            if self.speed is not None:
                self.speed.maybe_probe(PROBE_EVERY_INVOCATION_S)
            t0 = time.perf_counter()
            results.append(_cli(argv))
            t1 = time.perf_counter()
            self.invocations.append((t1 - t0, t0, t1))
        return sum(t for t, _, _ in self.invocations[first:]), results

    def write_spec(self, spec: dict) -> None:
        (self.workdir / "spec.json").write_text(json.dumps(spec), encoding="ascii")

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        """Untimed; raises CheckError when an oracle disagrees."""

    def run(self, job: int) -> tuple[float, str]:
        raise NotImplementedError

    def replay(self, job: int, tracer: Tracer) -> tuple[float, str]:
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer, run_times: list[float]) -> dict:
        return {}

    def probes(self) -> dict:
        return {}

    def counts(self) -> dict:
        """Per-job counts computed from input sizes, not measured."""
        return {}

    def _cli_self_s(self, tracer: Tracer, run_times: list[float]) -> float:
        """Untraced job time minus the time the replay spent in layer calls."""
        kids = tracer.children()
        per_job = [sum(k.duration for k in kids.get(i, ()))
                   for i, s in enumerate(tracer.spans) if s.name == "job"]
        return _median(run_times) - _median(per_job)


# --- grid workloads --------------------------------------------------------


def points_on_circuit(knot: LatticeKnot, pts: np.ndarray) -> np.ndarray:
    """Grid points lying exactly on a stick, by integer-lattice comparison."""
    on = np.zeros(len(pts), dtype=bool)
    for s in segments(knot):
        lo, hi = sorted(s.span)
        m = (pts[:, s.axis] >= lo) & (pts[:, s.axis] <= hi)
        for ax, c in s.transverse:
            m &= pts[:, ax] == c
        on |= m
    return on


def read_rows(fmt: str, text: str, counts, rows) -> dict[int, tuple[float, float, float]]:
    """B at the given z-fastest row indices, parsed from a writer's output."""
    lines = text.split("\n")
    nx, ny, nz = counts
    out = {}
    for r in rows:
        if fmt == "csv":
            out[r] = tuple(float(c) for c in lines[r + 1].split(",")[3:6])
        elif fmt == "jsonl":
            d = json.loads(lines[r])
            out[r] = (d["Bx"], d["By"], d["Bz"])
        else:   # legacy VTK: 9 header lines, then x-fastest rows
            ix, iy, iz = r // (ny * nz), (r // nz) % ny, r % nz
            out[r] = tuple(float(c) for c in lines[9 + (iz * ny + iy) * nx + ix].split())
    return out


def masked_rows(fmt: str, text: str) -> int:
    """Rows a writer marked as on the conductor (NaN rows for VTK)."""
    lines = [ln for ln in text.split("\n") if ln]
    if fmt == "csv":
        return sum(ln.endswith(",1") for ln in lines[1:])
    if fmt == "jsonl":
        return sum(ln.endswith('"on_conductor": true}') for ln in lines)
    return sum("nan" in ln for ln in lines[9:])


class GridWorkload(Workload):
    """``field sample`` jobs: one CLI invocation per output format."""

    formats: tuple[str, ...] = ()
    threads = 1

    def source_argv(self) -> list[str]:
        raise NotImplementedError

    def grid_spec(self) -> GridSpec:
        raise NotImplementedError

    def build_knot(self, tracer, job, k) -> LatticeKnot:
        raise NotImplementedError

    def setup(self) -> None:
        self.grid = self.grid_spec()
        g = self.grid
        common = self.source_argv() + [
            "--origin=" + ",".join(repr(c) for c in g.origin),
            "--spacing", repr(g.spacing),
            "--counts", ",".join(str(c) for c in g.counts),
        ]
        self.argv = {f: ["field", "sample"] + common + [
            "--threads", str(self.threads), "--format", f,
            "--out", str(self.workdir / f"job.{f}")] for f in self.formats}
        self.args = {f: cli.build_parser().parse_args(a) for f, a in self.argv.items()}
        self.write_spec({"argv": self.argv})

    def reference(self) -> None:
        """Threads=1 outputs, checked against the quadrature oracle."""
        self.knot = self.build_knot(None, -1, self.args[self.formats[0]].k)
        pts = self.grid.points()
        on = points_on_circuit(self.knot, pts)
        rng = np.random.default_rng([self.seed, 1])
        rows = sorted(int(r) for r in rng.choice(np.flatnonzero(~on), QUAD_ROWS, replace=False))
        segs = segments(self.knot)
        expect = {r: sum(segment_field_quadrature(s, pts[r], k=self.knot.k, tol=QUAD_TOL)
                         for s in segs) for r in rows}
        self.ref_sha, self.bytes_per_job = {}, 0
        for f in self.formats:
            path = self.workdir / f"ref.{f}"
            argv = list(self.argv[f])
            argv[argv.index("--threads") + 1] = "1"
            argv[-1] = str(path)
            rc, _ = _cli(argv)
            if rc != 0:
                raise CheckError(f"reference {f} run exited {rc}")
            text = path.read_text(encoding="ascii")
            if masked_rows(f, text) != int(on.sum()):
                raise CheckError(f"{f}: {masked_rows(f, text)} masked rows, "
                                 f"{int(on.sum())} grid points lie on the circuit")
            for r, b in read_rows(f, text, self.grid.counts, rows).items():
                err = float(np.max(np.abs(np.asarray(b) - expect[r])))
                if not err <= ROW_ABS_TOL:
                    raise CheckError(f"{f} row {r}: |B - quadrature| = {err:.3g}")
            self.ref_sha[f] = _sha256(path)
            self.bytes_per_job += path.stat().st_size

    def check_outputs(self) -> str:
        for f in self.formats:
            path = self.workdir / f"job.{f}"
            if not path.is_file() or _sha256(path) != self.ref_sha[f]:
                return WRONG
        return OK

    def run(self, job: int) -> tuple[float, str]:
        for f in self.formats:
            (self.workdir / f"job.{f}").unlink(missing_ok=True)
        seconds, results = self.invoke([self.argv[f] for f in self.formats])
        return seconds, REFUSED if any(rc for rc, _ in results) else self.check_outputs()

    def replay(self, job: int, tracer: Tracer) -> tuple[float, str]:
        for f in self.formats:
            (self.workdir / f"job.{f}").unlink(missing_ok=True)
        with tracer.span("job", job) as root:
            for f in self.formats:
                a = self.args[f]
                knot = self.build_knot(tracer, job, a.k)
                grid = GridSpec(self.grid.origin, a.spacing, self.grid.counts)
                sample = traced(tracer, "sampling.sample_field", job, sample_field,
                                knot, grid, exclusion_radius=a.exclusion, threads=a.threads)
                with open(a.out, "w", encoding="ascii", newline="\n") as fh:
                    traced(tracer, f"sampling.write_{f}", job, WRITERS[f], sample, fh)
        return root.duration, self.check_outputs()

    def counts(self) -> dict:
        n, sticks = self.grid.n_points, len(self.knot.vertices)
        return {
            "biot_savart.pairs": n * sticks * len(self.formats),
            "sampling.rows": n * len(self.formats),
            "sampling.bytes_written": self.bytes_per_job,
        }

    def layer_metrics(self, tracer: Tracer, run_times: list[float]) -> dict:
        out = {"sampling.sample_s": _median(tracer.durations("sampling.sample_field")),
               "cli.self_s": self._cli_self_s(tracer, run_times)}
        for f in self.formats:
            t = _median(tracer.durations(f"sampling.write_{f}"))
            out[f"sampling.{f}_rows_per_s"] = self.grid.n_points / t
        return out

    def probes(self) -> dict:
        """Kernel cost per pair, one chunk's allocation peak, thread speed-up."""
        knot, grid = self.knot, self.grid
        exclusion = self.args[self.formats[0]].exclusion
        pts = grid.points()
        chunk = inspect.signature(sample_field).parameters["chunk"].default
        t0 = time.perf_counter()
        for lo in range(0, len(pts), chunk):
            total_field_many(knot, pts[lo:lo + chunk], exclusion)
        kernel_s = time.perf_counter() - t0
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            total_field_many(knot, pts[:chunk], exclusion)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        t1, t2 = (median_time(lambda n=n: sample_field(knot, grid, exclusion, threads=n))
                  for n in (1, 2))
        return {
            "biot_savart.ns_per_pair": kernel_s / (len(pts) * len(knot.vertices)) * 1e9,
            "biot_savart.peak_alloc_mb": peak / 2 ** 20,
            "sampling.thread_speedup": t1 / t2,
        }


class TrefoilGrid(GridWorkload):
    name = "trefoil-grid"
    nominal_job_s = 1.6
    formats = ("csv", "jsonl", "vtk")
    threads = 2

    def __init__(self, seed, workdir, counts=(41, 41, 41)):
        super().__init__(seed, workdir)
        self.grid_counts = counts

    def source_argv(self):
        return ["--knot", "3_1"]

    def grid_spec(self):
        return GridSpec(origin=(-2.0, -2.0, -2.0), spacing=0.25, counts=self.grid_counts)

    def build_knot(self, tracer, job, k):
        return traced(tracer, "geometry.canonical_trefoil", job, canonical_trefoil, k=k)


def random_knot_word(rng, letters: int, strands: int = 3):
    """Random braid word whose closure is a knot, resampled until it is."""
    while True:
        text = " ".join(f"s{int(rng.integers(1, strands))}" + ("" if rng.random() < 0.5 else "^-1")
                        for _ in range(letters))
        word = parse_braid(text, strands=strands)
        if len(permutation_cycles(word)) == 1:
            return text, word


class BraidField(GridWorkload):
    name = "braid-field"
    nominal_job_s = 2.5
    formats = ("csv",)
    threads = 1

    def __init__(self, seed, workdir, letters=40, exponent_letters=(10, 20, 40, 80)):
        super().__init__(seed, workdir)
        self.letters = letters
        self.exponent_letters = exponent_letters

    def setup(self):
        self.text, self.word = random_knot_word(np.random.default_rng(self.seed), self.letters)
        super().setup()

    def source_argv(self):
        return ["--braid", self.text]

    def grid_spec(self):
        lo, hi = plan_embedding(self.word).bounding_box
        return GridSpec(origin=tuple(c - 2 for c in lo), spacing=1.0,
                        counts=tuple(h - l + 5 for l, h in zip(lo, hi)))

    def build_knot(self, tracer, job, k):
        word = traced(tracer, "braids.parse_braid", job, parse_braid, self.text)
        closed = traced(tracer, "braids.close_braid_on_lattice", job, close_braid_on_lattice, word)
        return LatticeKnot(vertices=closed.vertices, name=closed.name, k=k)

    def reference(self):
        super().reference()
        if not validate(self.knot).ok:
            raise CheckError("braid closure fails validate")
        crossings = projection_crossings(self.knot)
        if (len(crossings), sum(c.sign for c in crossings)) != (crossing_count(self.word), writhe(self.word)):
            raise CheckError("projected crossings do not match the word's letters and writhe")

    def replay(self, job, tracer):
        result = super().replay(job, tracer)
        # The closure validates and counts crossings inside one call; time
        # those two public calls again, outside the job, to split it.
        with tracer.span("attribution", job):
            traced(tracer, "geometry.validate", job, validate, self.knot)
            traced(tracer, "braids.projection_crossings", job, projection_crossings, self.knot)
        return result

    def layer_metrics(self, tracer, run_times):
        out = super().layer_metrics(tracer, run_times)
        close = _median(tracer.durations("braids.close_braid_on_lattice"))
        val = _median(tracer.durations("geometry.validate"))
        cross = _median(tracer.durations("braids.projection_crossings"))
        out.update({"braids.close_s": close, "geometry.validate_s": val,
                    "braids.crossings_s": cross, "braids.layout_s": close - val - cross})
        return out

    def probes(self):
        out = super().probes()
        rng = np.random.default_rng([self.seed, 2])
        sticks, seconds = [], []
        for letters in self.exponent_letters:
            knot = close_braid_on_lattice(random_knot_word(rng, letters)[1])
            sticks.append(len(knot.vertices))
            seconds.append(median_time(lambda: validate(knot)))
        out["geometry.validate_exponent"] = float(np.polyfit(np.log(sticks), np.log(seconds), 1)[0])
        return out


# --- verify ----------------------------------------------------------------


def suite_metric(name: str) -> str:
    return "verification." + name.replace("-", "_") + "_s"


class Verify(Workload):
    """``knotfield verify --knot K --seed S --format json`` for 3_1 and 4_1."""

    name = "verify"
    nominal_job_s = 2.1
    knots = ("3_1", "4_1")

    def __init__(self, seed, workdir, extra_argv=()):
        super().__init__(seed, workdir)
        self.extra_argv = list(extra_argv)

    def setup(self):
        self.argv = [["verify", "--knot", kn, "--seed", str(self.seed), "--format", "json"]
                     + self.extra_argv for kn in self.knots]
        self.args = [cli.build_parser().parse_args(a) for a in self.argv]
        self.suite_seconds: list[dict] = []
        self.write_spec({"argv": self.argv})

    @staticmethod
    def judge(code: int, stdout: str) -> str:
        """Exit 0 with every suite passed; a passing exit with a failing report is wrong."""
        if code != 0:
            return REFUSED
        try:
            report = json.loads(stdout)
        except ValueError:
            return WRONG
        passed = report.get("passed") is True and all(s["passed"] for s in report["suites"])
        return OK if passed else WRONG

    def run(self, job):
        seconds, results = self.invoke(self.argv)
        outcomes = [self.judge(rc, out) for rc, out in results]
        return seconds, next((o for o in outcomes if o != OK), OK)

    def replay(self, job, tracer):
        outcomes, suites = [], {}
        with tracer.span("job", job) as root:
            for a in self.args:
                knot = traced(tracer, f"geometry.{CANONICAL[a.knot].__name__}", job,
                              CANONICAL[a.knot], k=a.k)
                results = traced(tracer, "verification.run_verification", job, run_verification,
                                 knot, seed=a.seed, loops=a.loops, points=a.points,
                                 kernel_pairs=a.kernel_pairs)
                passed = all(r.passed for r in results)
                stdout = json.dumps({"knot": knot.name, "seed": a.seed, "passed": passed,
                                     "suites": [dataclasses.asdict(r) for r in results]})
                outcomes.append(self.judge(0 if passed else cli.EXIT_VERIFY_FAILED, stdout))
                for r in results:
                    suites[r.name] = suites.get(r.name, 0.0) + r.duration
        self.suite_seconds.append(suites)
        return root.duration, next((o for o in outcomes if o != OK), OK)

    def layer_metrics(self, tracer, run_times):
        names = {n for s in self.suite_seconds for n in s}
        out = {suite_metric(n): _median([s[n] for s in self.suite_seconds]) for n in names}
        out["cli.self_s"] = self._cli_self_s(tracer, run_times)
        return out

    def probes(self, calls: int = 1000):
        """Cost of one single-point total_field call, the path the suites take."""
        rng = np.random.default_rng([self.seed, 3])
        elapsed = 0.0
        for kn in self.knots:
            knot = CANONICAL[kn]()
            pts = [random_clear_point(rng, segments(knot), margin=3.0, clearance=1.0)
                   for _ in range(calls)]
            t0 = time.perf_counter()
            for p in pts:
                total_field(knot, p)
            elapsed += time.perf_counter() - t0
        return {"biot_savart.total_field_us": elapsed / (calls * len(self.knots)) * 1e6}


# --- loops -----------------------------------------------------------------


def tight_loop(rng, knot: LatticeKnot, stick: int | None = None,
               width: float | None = None) -> tuple[Loop, int]:
    """Small square around a stick's midpoint, perpendicular to it.

    The stick (by index) and ``width`` in [0, 1), which sets the half-width
    10^(-5 + 4 width), are drawn from ``rng`` unless given.  The linking number
    with the knot is +-1 by construction: the square circles one stick
    only, counterclockwise about the stick's current before the random
    reversal.
    """
    segs = segments(knot)
    s = segs[int(rng.integers(len(segs))) if stick is None else stick]
    h = 10.0 ** (-5.0 + 4.0 * (rng.random() if width is None else width))
    a = int(s.axis)
    u, v = (a + 1) % 3, (a + 2) % 3          # e_u x e_v = e_a
    mid = [(p + q) / 2 for p, q in zip(s.start, s.end)]
    corners = []
    for du, dv in ((-h, -h), (h, -h), (h, h), (-h, h)):
        p = list(mid)
        p[u] += du
        p[v] += dv
        corners.append(tuple(p))
    lk = s.direction_sign
    if rng.random() < 0.5:
        corners.reverse()
        lk = -lk
    return Loop(vertices=tuple(corners), name=f"tight{h:.3g}"), lk


def stratified(rng, n: int) -> np.ndarray:
    """n draws of U(0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def make_pass(seed: int, index: int, size: int = 200):
    """One pass of loops, alternating 3_1 and 4_1: (knot, loop, kind, expected).

    Two loops in every eight are tight, one on each knot, so any prefix of
    a pass holds close to a quarter of tight loops.  A pass's tight loops
    on one knot take their half-widths from equal strata of the log-uniform
    range and cycle through the knot's sticks in a shuffled order, so that
    their cost, which grows with both, varies little from seed to seed.
    """
    rng = np.random.default_rng([seed, 100 + index])
    knots = [canonical_trefoil(), canonical_figure_eight()]
    tight = [sum(i % 8 in (3, 4) and i % 2 == k for i in range(size)) for k in (0, 1)]
    widths = [list(stratified(rng, n)) for n in tight]
    sticks = [list(np.concatenate([rng.permutation(len(knot.vertices))
                                   for _ in range(-(-n // len(knot.vertices)))]))
              for knot, n in zip(knots, tight)]
    out = []
    for i in range(size):
        knot = knots[i % 2]
        if i % 8 in (3, 4):
            loop, lk = tight_loop(rng, knot, int(sticks[i % 2].pop()), float(widths[i % 2].pop()))
            out.append((knot, loop, "tight", lk))
        else:
            out.append((knot, random_rect_loop(rng, knot, clearance=0.5), "wide", None))
    return out


def classify_loop(expected, holonomy_answer, linking_answer) -> tuple[str, str, str]:
    """Outcome of one loop check: (loop, holonomy route, linking route).

    ``expected`` is the known linking number (tight loops) or None (wide
    loops, where the two routes must agree).  An answer is an int, or None
    when the route refused.  When one route refuses on a wide loop the other
    has nothing to be compared with and is not counted wrong.
    """
    def judge(answer, other):
        if answer is None:
            return REFUSED
        reference = expected if expected is not None else other
        return OK if reference is None or answer == reference else WRONG

    h = judge(holonomy_answer, linking_answer)
    lk = judge(linking_answer, holonomy_answer)
    loop = WRONG if WRONG in (h, lk) else REFUSED if REFUSED in (h, lk) else OK
    return loop, h, lk


class Loops(Workload):
    """One job = loop_clearance + holonomy + linking_number on one loop."""

    name = "loops"
    measures_failures = True
    nominal_job_s = 0.03

    def __init__(self, seed, workdir, pass_size=200):
        super().__init__(seed, workdir)
        self.pass_size = pass_size

    def setup(self):
        self.passes = [make_pass(self.seed, 0, self.pass_size)]
        self.routes: dict[int, tuple[str, str]] = {}
        self.write_spec({"pass0": [{"knot": k.name, "kind": kind, "expected": lk,
                                    "vertices": loop.vertices}
                                   for k, loop, kind, lk in self.passes[0]]})

    def loop(self, job: int):
        p, i = divmod(job, self.pass_size)
        while len(self.passes) <= p:          # later passes are drawn lazily, untimed
            self.passes.append(make_pass(self.seed, len(self.passes), self.pass_size))
        return self.passes[p][i]

    def _check(self, job, tracer):
        knot, loop, _kind, expected = self.loop(job)
        t0 = time.perf_counter()
        with tracer.span("job", job) if tracer is not None else contextlib.nullcontext():
            traced(tracer, "topology.loop_clearance", job, loop_clearance, knot, loop)
            try:
                res = traced(tracer, "topology.holonomy", job, holonomy, knot, loop, tol=HOLONOMY_TOL)
                hol = res.inferred_linking if abs(res.residual) < HOLONOMY_TOL else None
            except FieldError:
                hol = None
            try:
                lk = traced(tracer, "topology.linking_number", job, linking_number, knot, loop)
            except FieldError:
                lk = None
        seconds = time.perf_counter() - t0
        outcome, h, l = classify_loop(expected, hol, lk)
        if tracer is not None:
            self.routes[job] = (h, l)
        return seconds, outcome

    def run(self, job):
        return self._check(job, None)

    def replay(self, job, tracer):
        return self._check(job, tracer)

    def counts(self):
        pairs = [len(loop.vertices) * len(k.vertices) for k, loop, _, _ in self.passes[0]]
        return {"topology.edge_stick_pairs": statistics.mean(pairs)}

    def layer_metrics(self, tracer, run_times):
        kind = {j: self.loop(j)[2] for j in self.routes}
        out = {"cli.self_s": self._cli_self_s(tracer, run_times)}
        for k in ("wide", "tight"):
            def ms(name):
                return [s.duration * 1e3 for s in tracer.spans
                        if s.name == name and kind.get(s.job) == k]
            out[f"topology.clearance_ms.{k}"] = _median(ms("topology.loop_clearance"))
            for route in ("holonomy", "linking"):
                span = "topology.holonomy" if route == "holonomy" else "topology.linking_number"
                t = ms(span)
                out[f"topology.{route}_ms.p50.{k}"] = percentile(t, 50)
                out[f"topology.{route}_ms.p95.{k}"] = percentile(t, 95)
                col = 0 if route == "holonomy" else 1
                got = [r[col] for j, r in self.routes.items() if kind[j] == k]
                for o in (REFUSED, WRONG):
                    out[f"topology.{route}_{o}.{k}"] = got.count(o) / len(got) if got else 0.0
        return out


WORKLOADS = {w.name: w for w in (TrefoilGrid, BraidField, Loops, Verify)}


def run_job(fn, *args) -> tuple[float, str]:
    """One job; a job that raises is counted as failed and the run goes on."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return float("nan"), ERROR


def job_count(workload: Workload, seconds: float, trace: bool) -> int:
    """Jobs in a run (pairs when traced): fixed by the workload and ``seconds``.

    The count never depends on how fast the host runs, so two runs of the
    same seed attempt, and fail, exactly the same jobs.  ``nominal_job_s``
    is a job's time on the reference host, so an untraced run lasts about
    ``seconds`` there; a traced run, whose pairs take two jobs' time, too.
    """
    jobs = max(3, math.ceil(seconds / workload.nominal_job_s))
    return max(2, math.ceil(jobs / 2)) if trace else jobs


def measure(workload: Workload, jobs: int, trace: bool, speed: HostSpeed):
    """``jobs`` jobs, with host-speed probes between them; with trace, each
    job is paired with its replay.  Returns the job results, the replays,
    the tracer and each job's timed parts, (seconds, start, end): its CLI
    invocations, or the whole job when it makes none."""
    tracer = Tracer() if trace else None
    runs, replays, parts = [], [], []
    workload.speed = speed
    for job in range(jobs):
        speed.maybe_probe()
        start, first = time.perf_counter(), len(workload.invocations)
        if trace and job % 2:       # alternate which side of a pair runs first
            replays.append(run_job(workload.replay, job, tracer))
            runs.append(run_job(workload.run, job))
        else:
            runs.append(run_job(workload.run, job))
            if trace:
                replays.append(run_job(workload.replay, job, tracer))
        parts.append(workload.invocations[first:] or [(runs[-1][0], start, time.perf_counter())])
    speed.probe()
    return runs, replays, tracer, parts
