"""The CLI surface the benchmark in ``perfbench/`` drives.

``perfbench/workloads.py`` calls ``knotfield.cli.main`` with the argv shapes
below and reads attributes of ``build_parser().parse_args`` of the same
argv to replay each job through the library; its kernel probe reads
``sample_field``'s default ``chunk``, the rows in one of the sampler's
blocks of whole x-planes, and times ``total_field_many`` on runs of that
many grid rows.  These tests pin all three, so a change that would break
the benchmark fails here first.
"""

import inspect

import pytest

from knotfield.biot_savart import DEFAULT_EXCLUSION_RADIUS
from knotfield.cli import build_parser
from knotfield.sampling import sample_field

GRID = ["--origin=-2.0,-2.0,-2.0", "--spacing", "0.25", "--counts", "41,41,41"]


@pytest.mark.parametrize("source", [["--knot", "3_1"], ["--braid", "s1 s2^-1 s1 s2^-1"]],
                         ids=["knot", "braid"])
@pytest.mark.parametrize("fmt", ["csv", "jsonl", "vtk"])
@pytest.mark.parametrize("threads", [1, 2])
def test_field_sample_argv(tmp_path, source, fmt, threads):
    out = str(tmp_path / f"job.{fmt}")
    args = build_parser().parse_args(["field", "sample"] + source + GRID + [
        "--threads", str(threads), "--format", fmt, "--out", out])
    assert args.k == 1.0
    assert args.exclusion == DEFAULT_EXCLUSION_RADIUS
    assert args.threads == threads
    assert args.spacing == 0.25
    assert args.out == out


@pytest.mark.parametrize("extra, loops, points, kernel_pairs", [
    ([], 20, 200, 1000),
    (["--loops", "2", "--points", "4", "--kernel-pairs", "4"], 2, 4, 4),
], ids=["defaults", "small"])
@pytest.mark.parametrize("knot", ["3_1", "4_1"])
def test_verify_argv(knot, extra, loops, points, kernel_pairs):
    args = build_parser().parse_args(
        ["verify", "--knot", knot, "--seed", "7", "--format", "json"] + extra)
    assert args.knot == knot
    assert args.k == 1.0
    assert args.seed == 7
    assert (args.loops, args.points, args.kernel_pairs) == (loops, points, kernel_pairs)


def test_sample_field_chunk_default():
    # The benchmark's kernel probe reads the sampler's rows per block from here.
    chunk = inspect.signature(sample_field).parameters["chunk"]
    assert type(chunk.default) is int and chunk.default > 0
