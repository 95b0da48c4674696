"""Command-line surface for building knots, sampling fields, and verifying.

Exit codes: 0 ok, 1 usage or input error, 2 multi-component braid closure,
3 field/holonomy evaluation on the conductor, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .geometry import (
    Axis,
    LatticeKnot,
    bounding_box,
    canonical_figure_eight,
    canonical_trefoil,
    format_knot,
    read_knot_file,
    segments,
    validate,
)
from .biot_savart import OnConductorError, total_field
from .braids import (
    BraidParseError,
    MultiComponentError,
    close_braid_on_lattice,
    crossing_count,
    format_braid,
    parse_braid,
    plan_embedding,
    writhe,
)
from .sampling import GridSpec, WRITERS, sample_field
from .topology import (
    LinkingPrecisionError,
    LoopOnConductorError,
    holonomy,
    linking_number,
    read_loop_file,
)
from .transcription import discrepancy_ledger, eval_transcribed
from .verification import random_clear_point, run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MULTI_COMPONENT = 2
EXIT_ON_CONDUCTOR = 3
EXIT_VERIFY_FAILED = 4

_CANONICAL = {"3_1": canonical_trefoil, "4_1": canonical_figure_eight}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: exactly one knot source plus the knobs."""

    knot_name: str | None
    braid_word: str | None
    knot_file: str | None
    k: float
    tol: float
    exclusion: float
    out_format: str
    threads: int
    seed: int

    def __post_init__(self):
        n_sources = sum(s is not None for s in
                        (self.knot_name, self.braid_word, self.knot_file))
        if n_sources != 1:
            raise ValueError(f"exactly one knot source required, got {n_sources}")

    def build_knot(self) -> LatticeKnot:
        if self.knot_name is not None:
            return _CANONICAL[self.knot_name](k=self.k)
        if self.braid_word is not None:
            word = parse_braid(self.braid_word)
            knot = close_braid_on_lattice(word)
            return LatticeKnot(vertices=knot.vertices, name=knot.name, k=self.k)
        knot = read_knot_file(self.knot_file, k=self.k)
        report = validate(knot)
        if not report.ok:
            raise ValueError(
                f"{self.knot_file} is not a valid lattice knot:\n  "
                + "\n  ".join(report.violations)
            )
        return knot


def _add_source_options(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--knot", choices=sorted(_CANONICAL), help="built-in knot")
    g.add_argument("--braid", metavar="WORD", help="braid word to close, e.g. 's1 s1 s1'")
    g.add_argument("--knot-file", metavar="PATH", help="knot file (x y z per line)")


def _add_common_options(p: argparse.ArgumentParser):
    p.add_argument("--k", type=float, default=1.0, help="current prefactor I/c (default 1)")
    p.add_argument("--tol", type=float, default=1e-6, help="quadrature tolerance")
    p.add_argument("--exclusion", type=float, default=1e-6,
                   help="on-conductor exclusion radius")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="seed for random suites")
    p.add_argument("--format", dest="out_format", default="csv",
                   choices=["csv", "jsonl", "vtk", "text", "json"])


def _config(args) -> RunConfig:
    return RunConfig(
        knot_name=getattr(args, "knot", None),
        braid_word=getattr(args, "braid", None),
        knot_file=getattr(args, "knot_file", None),
        k=getattr(args, "k", 1.0),
        tol=getattr(args, "tol", 1e-6),
        exclusion=getattr(args, "exclusion", 1e-6),
        out_format=getattr(args, "out_format", "csv"),
        threads=getattr(args, "threads", 1),
        seed=getattr(args, "seed", 0),
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="knotfield", description=__doc__)
    parser.add_argument("--version", action="version", version=f"knotfield {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_knot = sub.add_parser("knot", help="inspect or emit a knot")
    knot_sub = p_knot.add_subparsers(dest="knot_command", required=True)
    for name, help_ in (("info", "print knot structure"), ("emit", "write knot file")):
        kp = knot_sub.add_parser(name, help=help_)
        _add_source_options(kp)
        _add_common_options(kp)
        kp.add_argument("--out", metavar="PATH", help="output path (default stdout)")

    p_braid = sub.add_parser("braid", help="braid-word operations")
    braid_sub = p_braid.add_subparsers(dest="braid_command", required=True)
    bp = braid_sub.add_parser("build", help="close a braid word into a lattice knot")
    bp.add_argument("--word", required=True, metavar="TEXT")
    bp.add_argument("--strands", type=int, default=None)
    bp.add_argument("--out", metavar="PATH", help="output knot file (default stdout)")

    fp = sub.add_parser("field", help="field evaluation")
    field_sub = fp.add_subparsers(dest="field_command", required=True)
    fsp = field_sub.add_parser("sample", help="sample the field on a grid")
    _add_source_options(fsp)
    _add_common_options(fsp)
    fsp.add_argument("--origin", required=True, metavar="X,Y,Z")
    fsp.add_argument("--spacing", required=True, type=float)
    fsp.add_argument("--counts", required=True, metavar="NX,NY,NZ")
    fsp.add_argument("--out", metavar="PATH", help="output path (default stdout)")

    hp = sub.add_parser("holonomy", help="line integral of the field around a loop")
    _add_source_options(hp)
    _add_common_options(hp)
    hp.add_argument("--loop", required=True, metavar="PATH", help="loop file")

    lp = sub.add_parser("linking", help="Gauss-integral linking number")
    _add_source_options(lp)
    _add_common_options(lp)
    lp.add_argument("--loop", required=True, metavar="PATH", help="loop file")

    vp = sub.add_parser("verify", help="run the self-check suites")
    vp.add_argument("what", nargs="?", choices=["transcription"],
                    help="'transcription' checks the printed formulas instead")
    _add_source_options(vp)
    _add_common_options(vp)
    vp.add_argument("--loops", type=int, default=20, help="loops per holonomy suite")
    vp.add_argument("--points", type=int, default=200, help="points per field suite")
    vp.add_argument("--kernel-pairs", type=int, default=1000,
                    help="pairs for the kernel-vs-quadrature suite")
    return parser


def _open_out(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="ascii", newline="\n"), True


def _cmd_knot(args) -> int:
    cfg = _config(args)
    knot = cfg.build_knot()
    if args.knot_command == "info":
        segs = segments(knot)
        per_axis = {ax.name.lower(): sum(1 for s in segs if s.axis == ax) for ax in Axis}
        lo, hi = bounding_box(knot)
        report = validate(knot)
        lines = [
            f"name: {knot.name}",
            f"vertices: {len(knot.vertices)}",
            f"segments: {len(segs)} (x: {per_axis['x']}, y: {per_axis['y']}, z: {per_axis['z']})",
            f"bounding box: {lo} .. {hi}",
            f"k: {knot.k}",
            f"valid: {report.ok}",
        ]
        lines += [f"violation: {v}" for v in report.violations]
        out, close = _open_out(args.out)
        out.write("\n".join(lines) + "\n")
        if close:
            out.close()
        return EXIT_OK
    # emit
    text = format_knot(knot, header_comments=(f"knot: {knot.name}",))
    out, close = _open_out(args.out)
    out.write(text)
    if close:
        out.close()
    return EXIT_OK


def _cmd_braid_build(args) -> int:
    word = parse_braid(args.word, strands=args.strands)
    knot = close_braid_on_lattice(word)
    # The builder refuses a layout whose projection disagrees with the word.
    levels = sorted(plan_embedding(word).closure_levels)
    header = (
        f"closure of braid word: {format_braid(word) or '(empty)'}",
        f"strands: {word.strands}, letters: {crossing_count(word)}, writhe: {writhe(word)}",
        "layout: strands on front face y=0, migrations to back face y=2,",
        "crossing tiles 4 wide in x, closure arcs on y=0 above the braid at",
        f"z-levels {', '.join(map(str, levels))}",
        f"projected crossings: {crossing_count(word)}, signs sum: {writhe(word)}",
    )
    text = format_knot(knot, header_comments=header)
    out, close = _open_out(args.out)
    out.write(text)
    if close:
        out.close()
    return EXIT_OK


def _parse_triple(text, cast, what):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{what} needs 3 comma-separated values, got {text!r}")
    return tuple(cast(p) for p in parts)


def _cmd_field_sample(args) -> int:
    cfg = _config(args)
    knot = cfg.build_knot()
    grid = GridSpec(
        origin=_parse_triple(args.origin, float, "--origin"),
        spacing=args.spacing,
        counts=_parse_triple(args.counts, int, "--counts"),
    )
    if cfg.out_format not in WRITERS:
        raise _UsageError(f"field sample formats are {sorted(WRITERS)}")
    fmt = cfg.out_format
    sample = sample_field(knot, grid, exclusion_radius=cfg.exclusion,
                          threads=cfg.threads)
    out, close = _open_out(args.out)
    WRITERS[fmt](sample, out)
    if close:
        out.close()
    return EXIT_OK


def _cmd_holonomy(args) -> int:
    cfg = _config(args)
    knot = cfg.build_knot()
    loop = read_loop_file(args.loop)
    res = holonomy(knot, loop, tol=cfg.tol, exclusion_radius=cfg.exclusion)
    payload = {
        "loop": loop.name,
        "value": res.value,
        "estimated_error": res.estimated_error,
        "edges_evaluated": res.edges_evaluated,
        "inferred_linking": res.inferred_linking,
        "residual": res.residual,
        "k": res.k,
        "value_over_4pik": res.value / (4.0 * math.pi * res.k),
    }
    if cfg.out_format == "json":
        print(json.dumps(payload))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")
    return EXIT_OK if abs(res.residual) < cfg.tol else EXIT_VERIFY_FAILED


def _cmd_linking(args) -> int:
    cfg = _config(args)
    knot = cfg.build_knot()
    loop = read_loop_file(args.loop)
    print(linking_number(knot, loop))
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _config(args)
    if args.what == "transcription":
        return _cmd_verify_transcription(args, cfg)
    knot = cfg.build_knot()
    results = run_verification(knot, seed=cfg.seed, loops=args.loops,
                               points=args.points, kernel_pairs=args.kernel_pairs)
    passed = all(r.passed for r in results)
    if cfg.out_format == "json":
        print(json.dumps({
            "knot": knot.name,
            "seed": cfg.seed,
            "passed": passed,
            "suites": [dataclasses.asdict(r) for r in results],
        }))
    else:
        for r in results:
            print(r.summary())
        print("overall:", "PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _cmd_verify_transcription(args, cfg: RunConfig) -> int:
    label = cfg.knot_name
    if label is None:
        raise _UsageError("verify transcription needs --knot 3_1 or --knot 4_1")
    ledger = discrepancy_ledger(label)
    rng = np.random.default_rng(cfg.seed)
    knot = _CANONICAL[label]()
    n_points = args.points
    worst = 0.0
    for _ in range(n_points):
        p = random_clear_point(rng, segments(knot), margin=3.0, clearance=1.0)
        diff = eval_transcribed(label, p) - total_field(knot, p)
        worst = max(worst, float(np.max(np.abs(diff))))
    payload = {
        "knot": label,
        "counts": ledger.counts,
        "flagged": [dataclasses.asdict(e) for e in ledger.flagged],
        "max_abs_deviation_from_engine": worst,
        "points": n_points,
    }
    if cfg.out_format == "json":
        print(json.dumps(payload))
    else:
        c = ledger.counts
        print(f"knot {label}: {c['total']} printed terms, {c['exact']} exact, "
              f"{c['sign_flipped']} sign-flipped, {c['mismatch']} mismatched, "
              f"{c['unmatched']} unmatched")
        for e in ledger.flagged:
            notes = "; ".join(e.notes)
            print(f"  {e.component} term {e.index} (segment {e.segment_index}): "
                  f"{e.status}" + (f" -- {notes}" if notes else ""))
        print(f"max |transcribed - engine| over {n_points} points: {worst:.3e}")
    return EXIT_OK if ledger.counts["unmatched"] == 0 else EXIT_VERIFY_FAILED


_HANDLERS = {
    "knot": _cmd_knot,
    "field": _cmd_field_sample,
    "holonomy": _cmd_holonomy,
    "linking": _cmd_linking,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:          # --help / --version
        return int(exc.code or 0)

    try:
        if args.command == "braid":
            return _cmd_braid_build(args)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MultiComponentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MULTI_COMPONENT
    except (OnConductorError, LoopOnConductorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ON_CONDUCTOR
    except LinkingPrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (BraidParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
