"""Command-line surface for building knots, sampling fields, and verifying.

Each subcommand accepts only the options it reads; any other flag is a
usage error.  SOURCE is exactly one of --knot, --braid, --knot-file.

  knot info      SOURCE --k --out
  knot emit      SOURCE --out
  braid build    --word --strands --out
  field sample   SOURCE --k --exclusion --threads --format {csv,jsonl,vtk}
                 --origin --spacing --counts --out
  holonomy       SOURCE --k --tol --exclusion --format {text,json} --loop
  linking        SOURCE --loop
  verify         SOURCE --k --seed --format {text,json} --loops --points
                 --kernel-pairs
  verify transcription
                 --knot --seed --format {text,json} --points

Exit codes: 0 ok, 1 usage, input or memory error, 2 multi-component braid closure,
3 field/holonomy evaluation on the conductor, 4 verification failure,
a loop the linking sum cannot represent, or a quadrature that does not converge.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from . import __version__
from .geometry import (
    CANONICAL,
    LatticeKnot,
    bounding_box,
    format_knot,
    read_knot_file,
    stick_ends,
    validate,
)
from .biot_savart import DEFAULT_EXCLUSION_RADIUS, OnConductorError, QuadratureError, _times_k
from .braids import (
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
from .verification import clear_field, random_clear_points, run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MULTI_COMPONENT = 2
EXIT_ON_CONDUCTOR = 3
EXIT_VERIFY_FAILED = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    words: dict = {}    # leading words with their own option set: `verify transcription`

    def parse_known_args(self, args=None, namespace=None):
        if args and args[0] in self.words:
            return self.words[args[0]].parse_known_args(args[1:], namespace)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise _UsageError(message)


def _checked(cast, what, ok):
    """argparse type: a value of type cast for which ok holds, else a usage
    error naming the flag and what its value must be."""
    def parse(text):
        if not ok(value := cast(text)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = cast.__name__      # argparse's "invalid float value: 'x'"
    return parse


def _finite(what, ok):
    return _checked(float, f"finite and {what}", lambda v: math.isfinite(v) and ok(v))


_positive_int = _checked(int, "a positive integer", lambda v: v >= 1)


def build_parser() -> _Parser:
    parser = _Parser(prog="knotfield", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"knotfield {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    knot_sub = sub.add_parser("knot", help="inspect or emit a knot").add_subparsers(
        dest="knot_command", required=True)
    info = knot_sub.add_parser("info", help="print knot structure")
    info.set_defaults(func=_cmd_knot_info)
    emit = knot_sub.add_parser("emit", help="write knot file")
    emit.set_defaults(func=_cmd_knot_emit)

    braid_sub = sub.add_parser("braid", help="braid-word operations").add_subparsers(
        dest="braid_command", required=True)
    build = braid_sub.add_parser("build", help="close a braid word into a lattice knot")
    build.set_defaults(func=_cmd_braid_build)
    build.add_argument("--word", required=True, metavar="TEXT")
    build.add_argument("--strands", type=int, default=None)

    field_sub = sub.add_parser("field", help="field evaluation").add_subparsers(
        dest="field_command", required=True)
    sample = field_sub.add_parser("sample", help="sample the field on a grid")
    sample.set_defaults(func=_cmd_field_sample)
    sample.add_argument("--threads", type=_positive_int, default=1)
    sample.add_argument("--format", default="csv", choices=sorted(WRITERS))
    sample.add_argument("--origin", required=True, metavar="X,Y,Z")
    sample.add_argument("--spacing", required=True, type=float)
    sample.add_argument("--counts", required=True, metavar="NX,NY,NZ")

    hol = sub.add_parser("holonomy", help="line integral of the field around a loop")
    hol.set_defaults(func=_cmd_holonomy)
    hol.add_argument("--tol", type=_finite("> 0", lambda v: v > 0.0), default=1e-6,
                     help="quadrature tolerance")

    link = sub.add_parser("linking", help="Gauss-integral linking number")
    link.set_defaults(func=_cmd_linking)

    ver = sub.add_parser("verify", help="run the self-check suites, or the printed formulas' "
                         "with 'verify transcription'")
    ver.set_defaults(func=_cmd_verify)
    ver.add_argument("--loops", type=_positive_int, default=20, help="loops per holonomy suite")
    ver.add_argument("--kernel-pairs", type=_positive_int, default=1000,
                     help="pairs for the kernel-vs-quadrature suite")
    trans = _Parser(prog="knotfield verify transcription", allow_abbrev=False)
    trans.set_defaults(func=_cmd_verify_transcription)
    trans.add_argument("--knot", required=True, choices=sorted(CANONICAL))
    ver.words = {"transcription": trans}
    for p in (ver, trans):
        p.add_argument("--seed", type=_checked(int, "a non-negative integer", lambda v: v >= 0),
                       default=0, help="seed for random suites")
        p.add_argument("--points", type=_positive_int, default=200, help="points per field suite")

    for p in (info, emit, sample, hol, link, ver):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--knot", choices=sorted(CANONICAL), help="built-in knot")
        g.add_argument("--braid", metavar="WORD", help="braid word to close, e.g. 's1 s1 s1'")
        g.add_argument("--knot-file", metavar="PATH", help="knot file (x y z per line)")
    for p in (info, sample, hol, ver):
        p.add_argument("--k", type=_finite("nonzero", lambda v: v != 0.0), default=1.0,
                       help="current prefactor I/c (default 1)")
    for p in (sample, hol):
        p.add_argument("--exclusion", type=_finite("> 0", lambda v: v > 0.0),
                       default=DEFAULT_EXCLUSION_RADIUS, help="on-conductor exclusion radius")
    for p in (hol, ver, trans):
        p.add_argument("--format", default="text", choices=["text", "json"])
    for p in (hol, link):
        p.add_argument("--loop", required=True, metavar="PATH", help="loop file")
    for p in (info, emit, build, sample):
        p.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    return parser


# main's parser, built once a process: a build costs about 30 parses.
_parser = functools.cache(build_parser)


def _build_knot(args, k: float = 1.0) -> LatticeKnot:
    """The knot named by the source options, with current prefactor k."""
    if args.knot is not None:
        return CANONICAL[args.knot](k=k)
    if args.braid is not None:      # the copy at k keeps the closure's checked vertices
        closure = close_braid_on_lattice(parse_braid(args.braid))
        vars(knot := dataclasses.replace(closure, k=k))["_lattice"] = closure._lattice
        return knot
    knot = read_knot_file(args.knot_file, k=k)
    violations = validate(knot).violations
    if violations:
        raise ValueError(f"{args.knot_file} is not a valid lattice knot:\n  "
                         + "\n  ".join(violations))
    return knot


def _output(path):
    """stdout, or a new ASCII file at path."""
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="ascii", newline="\n")


def _cmd_knot_info(args) -> int:
    knot = _build_knot(args, args.k)
    counts = np.bincount(knot.sticks.roles[0], minlength=3).tolist()
    per_axis = ", ".join(f"{ax}: {n}" for ax, n in zip("xyz", counts))
    lo, hi = bounding_box(knot)
    with _output(args.out) as out:
        # Every source is validated by _build_knot, so a knot that gets
        # here is valid.
        out.write(f"name: {knot.name}\n"
                  f"vertices: {len(knot.vertices)}\n"
                  f"segments: {len(knot.vertices)} ({per_axis})\n"
                  f"bounding box: {lo} .. {hi}\n"
                  f"k: {knot.k}\n"
                  "valid: True\n")
    return EXIT_OK


def _cmd_knot_emit(args) -> int:
    knot = _build_knot(args)
    with _output(args.out) as out:
        out.write(format_knot(knot, header_comments=(f"knot: {knot.name}",)))
    return EXIT_OK


def _cmd_braid_build(args) -> int:
    word = parse_braid(args.word, strands=args.strands)
    knot = close_braid_on_lattice(word)
    # The builder refuses a layout whose projection disagrees with the word.
    plan = plan_embedding(word)
    header = (
        f"closure of braid word: {format_braid(word) or '(empty)'}",
        f"strands: {word.strands}, letters: {crossing_count(word)}, writhe: {writhe(word)}",
        f"layout: strands on front face y={plan.front_y}, migrations to back face "
        f"y={plan.back_y},",
        f"crossing tiles {plan.tile} wide in x, closure arcs on y={plan.front_y} above the braid at",
        f"z-levels {', '.join(map(str, sorted(plan.closure_levels)))}",
        f"projected crossings: {crossing_count(word)}, signs sum: {writhe(word)}",
    )
    with _output(args.out) as out:
        out.write(format_knot(knot, header_comments=header))
    return EXIT_OK


def _parse_triple(text, cast, what):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{what} needs 3 comma-separated values, got {text!r}")
    return tuple(cast(p) for p in parts)


def _cmd_field_sample(args) -> int:
    knot = _build_knot(args, args.k)
    grid = GridSpec(
        origin=_parse_triple(args.origin, float, "--origin"),
        spacing=args.spacing,
        counts=_parse_triple(args.counts, int, "--counts"),
    )
    sample = sample_field(knot, grid, exclusion_radius=args.exclusion)
    with _output(args.out) as out:
        WRITERS[args.format](sample, out, threads=args.threads)
    return EXIT_OK


def _cmd_holonomy(args) -> int:
    # At k = 1, so no subnormal k underflows the ratio or verdict; k is applied last.
    knot, loop = _build_knot(args), read_loop_file(args.loop)
    res = holonomy(knot, loop, tol=args.tol, exclusion_radius=args.exclusion)
    value, error, residual = _times_k(np.array([res.value, res.estimated_error, res.residual]),
                                      args.k).tolist()
    payload = {
        "loop": loop.name,
        "value": value,
        "estimated_error": abs(error),
        "edges_evaluated": res.edges_evaluated,
        "inferred_linking": res.inferred_linking,
        "residual": residual,
        "k": args.k,
        "value_over_4pik": res.value / (4.0 * math.pi),
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")
    return EXIT_OK if abs(res.residual) < args.tol else EXIT_VERIFY_FAILED


def _cmd_linking(args) -> int:
    print(linking_number(_build_knot(args), read_loop_file(args.loop)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    knot = _build_knot(args, args.k)
    results = run_verification(knot, seed=args.seed, loops=args.loops,
                               points=args.points, kernel_pairs=args.kernel_pairs)
    passed = all(r.passed for r in results)
    if args.format == "json":
        print(json.dumps({
            "knot": knot.name,
            "seed": args.seed,
            "passed": passed,
            "suites": [dataclasses.asdict(r) for r in results],
        }))
    else:
        for r in results:
            print(r.summary())
        print("overall:", "PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _cmd_verify_transcription(args) -> int:
    label = args.knot
    ledger = discrepancy_ledger(label)
    rng = np.random.default_rng(args.seed)
    knot = CANONICAL[label]()
    pts = random_clear_points(rng, *stick_ends(knot), args.points, margin=3.0, clearance=1.0)
    worst = float(np.max(np.abs(eval_transcribed(label, pts) - clear_field(knot, pts))))
    payload = {
        "knot": label,
        "counts": ledger.counts,
        "flagged": [dataclasses.asdict(e) for e in ledger.flagged],
        "max_abs_deviation_from_engine": worst,
        "points": args.points,
    }
    if args.format == "json":
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
        print(f"max |transcribed - engine| over {args.points} points: {worst:.3e}")
    return EXIT_OK if ledger.counts["unmatched"] == 0 else EXIT_VERIFY_FAILED


def _fail(exc, code) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:          # --help / --version
        return int(exc.code or 0)
    except MultiComponentError as exc:
        return _fail(exc, EXIT_MULTI_COMPONENT)
    except (OnConductorError, LoopOnConductorError) as exc:
        return _fail(exc, EXIT_ON_CONDUCTOR)
    except (LinkingPrecisionError, QuadratureError) as exc:
        return _fail(exc, EXIT_VERIFY_FAILED)
    except (_UsageError, ValueError, OSError) as exc:   # BraidParseError is a ValueError
        return _fail(exc, EXIT_USAGE)
    except MemoryError as exc:
        return _fail(str(exc) or "out of memory", EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
