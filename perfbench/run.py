"""Run one knotfield benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload trefoil-grid --seed 1 --seconds 20 --trace 0

Run from the repository root.  The knotfield sources are imported from
``src/`` beside this directory, never from an installed copy.  With
``--trace 0`` jobs run as users run them and the end-to-end metrics are
reported; with ``--trace 1`` each job is followed by a traced replay of the
same job, and the per-layer metrics are reported.  The last line of stdout
is one JSON object; a fuller record (environment, counts, job times, spans)
goes to ``perfbench/out/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Setup is repeated this many times per run and its median reported.
SETUP_REPEATS = 7

_IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                 "import knotfield; print(time.perf_counter() - t)")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_knotfield() -> float:
    """Import knotfield from this checkout's src/, or stop the run; returns the import time."""
    if not (SRC / "knotfield" / "__init__.py").is_file():
        fail(f"no knotfield sources under {SRC}")
    # Keep numpy's own thread pools out of the measurement: the only
    # threads are the ones a workload asks knotfield for.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import knotfield
    seconds = time.perf_counter() - t0
    if Path(knotfield.__file__).resolve().parent != (SRC / "knotfield").resolve():
        fail(f"imported knotfield from {knotfield.__file__}, not from {SRC}")
    return seconds


def import_seconds() -> float:
    """Time a fresh interpreter takes to import knotfield."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    inprocess_import_s = load_knotfield()
    import workloads as wl
    from hostspeed import HostSpeed, REFERENCE_PROBE_S
    from workloads import WORKLOADS, OK, WRONG, ERROR, CheckError
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    speed = HostSpeed()
    try:
        # One set-up: a fresh interpreter's import, then the seeded inputs
        # and their spec file.  Each repeat is scaled by the probes around it.
        import_times, setup_times, setup_windows = [], [], []
        for _ in range(SETUP_REPEATS):
            speed.probe()
            start = time.perf_counter()
            import_times.append(import_seconds())
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, workdir)
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            setup_windows.append((start, time.perf_counter()))
        speed.probe()

        reference_error = None
        try:
            workload.reference()
        except CheckError as exc:
            reference_error = str(exc)
            print(f"perfbench: reference check failed: {exc}", file=sys.stderr)

        jobs = wl.job_count(workload, args.seconds, bool(args.trace))
        runs, replays, tracer, parts = wl.measure(workload, jobs, bool(args.trace), speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = runs + replays
    outcomes = [o for _, o in jobs]
    attempted = len(jobs)
    failed = sum(o != OK for o in outcomes)
    wrong = outcomes.count(WRONG)
    correct = reference_error is None and ERROR not in outcomes and (
        workload.measures_failures or failed == 0)
    times = [t for t, o in runs if o != ERROR]
    # End-to-end times are scaled to the reference host speed (hostspeed.py);
    # the per-layer metrics of a traced run are wall times as measured.
    scaled = [sum(speed.scale(*part) for part in job_parts)
              for (_, o), job_parts in zip(runs, parts) if o != ERROR]
    setup_wall = [i + g for i, g in zip(import_times, setup_times)]
    setup_scaled = [speed.scale(t, *w) for t, w in zip(setup_wall, setup_windows)]

    if args.trace:
        metrics = dict(workload.counts())
        metrics.update(workload.layer_metrics(tracer, times))
        metrics.update(workload.probes())
        overheads = [tr - tu for (tu, ou), (tr, orp) in zip(runs, replays)
                     if ERROR not in (ou, orp)]
        metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    else:
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "job_p50_s": wl.percentile(scaled, 50),
            "job_p95_s": wl.percentile(scaled, 95),
            "ok_share": (attempted - failed) / attempted,
            "safe_share": (attempted - wrong) / attempted,
        }
    unknown = set(metrics) - set(units)
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    # A layer this workload never calls did no work: it reads 0.
    reported = {name: {"value": metrics.get(name, 0.0), "unit": unit}
                for name, unit in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "correct": correct, "reference_error": reference_error,
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "fail_share": failed / attempted, "wrong_share": wrong / attempted,
        "outcomes": {o: outcomes.count(o) for o in sorted(set(outcomes))},
        "setup": {"import_s": import_times, "inprocess_import_s": inprocess_import_s,
                  "generate_s": setup_times, "wall_s": statistics.median(setup_wall),
                  "scaled_s": setup_scaled},
        "host_speed": {"reference_probe_s": REFERENCE_PROBE_S, "probe_s": speed.probes,
                       "probe_at": speed.times},
        "computed_counts": workload.counts(),
        "job_seconds": [t for t, _ in runs],
        "job_parts": parts,
        "scaled_job_seconds": scaled,
        "wall_job_p50_s": wl.percentile(times, 50),
        "wall_job_p95_s": wl.percentile(times, 95),
        "replay_seconds": [t for t, _ in replays],
        "metrics": reported,
    }
    if tracer is not None:
        record["spans"] = tracer.to_json()
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(runs)} replays={len(replays)} outcomes={record['outcomes']} "
          f"fail_share={record['fail_share']:.4f} wrong_share={record['wrong_share']:.4f}")
    print(f"perfbench: job_p50_s and job_p95_s over n={len(times)} untraced jobs, scaled by "
          f"median probe {speed.median_probe():.4f} s vs reference {REFERENCE_PROBE_S} s "
          f"(wall p50 {record['wall_job_p50_s']:.4f} s); record in {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
