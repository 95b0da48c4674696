import csv
import functools
import hashlib
import io
import json
import math
import os
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from knotfield import biot_savart, cli, geometry, sampling, transcription, verification
from knotfield.braids import close_braid_on_lattice, parse_braid
from knotfield.cli import build_parser, main
from knotfield.geometry import (
    PackedSticks,
    bounding_box,
    canonical_figure_eight,
    canonical_trefoil,
    read_knot_file,
    stick_ends,
    validate,
)
from knotfield.biot_savart import (
    QuadratureError,
    _grid_field,
    _stick_field,
    total_field,
    total_field_many,
)
from knotfield.sampling import (
    FieldSample,
    CSV_HEADER,
    GridSpec,
    sample_field,
    write_csv,
    write_jsonl,
    write_vtk,
)
from knotfield.sampling import _blocks

from scan_oracle import dumps_write_jsonl
from test_biot_savart import BRAID_20, BRAID_40
from test_transcription import lattice_knots

# The paper's loop around the trefoil, in the loop-file format.
PAPER_LOOP = "5 3 2\n7 3 2\n7 5 2\n5 5 2\n"


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(origin=(0, 0, 0), spacing=0.0, counts=(2, 2, 2))
        with pytest.raises(ValueError):
            GridSpec(origin=(0, 0, 0), spacing=0.5, counts=(2, 0, 2))
        with pytest.raises(ValueError, match=r"counts .*\(2\.5, 1, 1\)"):
            GridSpec(origin=(0, 0, 0), spacing=1.0, counts=(2.5, 1, 1))
        for bad in ((math.inf, 1, 1), (1, math.nan, 1), (True, 1, 1), (2.0, 1, 1),
                    (1, 1, np.float64(3.0))):
            with pytest.raises(ValueError, match=r"^grid counts must be integers >= 1, got "):
                GridSpec(origin=(0, 0, 0), spacing=1.0, counts=bad)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="spacing"):
                GridSpec(origin=(0, 0, 0), spacing=bad, counts=(2, 2, 2))
            with pytest.raises(ValueError, match="origin"):
                GridSpec(origin=(0, bad, 0), spacing=0.5, counts=(2, 2, 2))
        # Each coordinate is finite, but the computed last one overflows.
        with pytest.raises(ValueError, match="grid x axis must end at a finite coordinate, got inf"):
            GridSpec(origin=(1e308, 0, 0), spacing=1e308, counts=(3, 1, 1))
        with pytest.raises(ValueError, match="grid z axis must end at a finite coordinate, got inf"):
            GridSpec(origin=(0, 0, 0), spacing=2.0, counts=(1, 1, 10 ** 400))

    def test_points_are_z_fastest(self):
        grid = GridSpec(origin=(0, 0, 0), spacing=1.0, counts=(2, 2, 2))
        expect = [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        ]
        assert [tuple(p) for p in grid.points()] == expect

    def test_n_points(self):
        assert GridSpec(origin=(0, 0, 0), spacing=0.5, counts=(3, 4, 5)).n_points == 60


class TestSampling:
    def test_single_point_equals_total_field(self):
        knot = canonical_trefoil()
        grid = GridSpec(origin=(5, 3, 2), spacing=1.0, counts=(1, 1, 1))
        sample = sample_field(knot, grid)
        assert np.array_equal(sample.b[0], total_field(knot, (5.0, 3.0, 2.0)))
        assert not sample.on_conductor[0]

    def test_on_conductor_row_masked_not_dropped(self):
        knot = canonical_trefoil()
        grid = GridSpec(origin=(2, 2, 0), spacing=1.0, counts=(1, 1, 3))
        sample = sample_field(knot, grid)
        assert sample.on_conductor.all()        # the (2,2,z) line is stick 1
        assert np.isnan(sample.b).all()
        assert len(sample.b) == 3

    def test_thread_count_does_not_change_bits(self):
        knot = canonical_trefoil()
        grid = GridSpec(origin=(-2, -2, -2), spacing=1.1, counts=(6, 6, 6))
        s1 = sample_field(knot, grid, threads=1)
        s4 = sample_field(knot, grid, threads=4)
        assert np.array_equal(s1.b, s4.b, equal_nan=True)
        assert np.array_equal(s1.on_conductor, s4.on_conductor)

    def test_sampling_starts_no_thread(self, tmp_path, monkeypatch):
        # The sampler evaluates its blocks in the calling thread whatever
        # ``threads`` says; ``--threads`` sizes only the forked writer workers.
        def refuse(thread):
            raise AssertionError(f"{thread.name} started")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        knot, grid = canonical_trefoil(), GridSpec((-2, -2, -2), 0.5, (9, 9, 9))
        sample_field(knot, grid, threads=4, chunk=81)             # 9 blocks
        for threads in ("1", "2"):
            assert run_cli(*BLOCKS, "--threads", threads, "--out", str(tmp_path / "f.csv")) == 0

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_refused(self, threads):
        knot, grid = canonical_trefoil(), GridSpec(origin=(5, 3, 2), spacing=1.0, counts=(1, 1, 2))
        with pytest.raises(ValueError, match=rf"^threads .*, got {threads}$"):
            sample_field(knot, grid, threads=threads)
        sample = sample_field(knot, grid)
        for writer in (write_csv, write_jsonl, write_vtk):
            fh = io.StringIO()
            with pytest.raises(ValueError, match=rf"^threads .*, got {threads}$"):
                writer(sample, fh, threads=threads)
            assert fh.getvalue() == ""

    @pytest.mark.parametrize("count", [2.5, 2.0, True])
    def test_non_integer_counts_refused(self, count):
        # Refused before anything is written: 25^3 rows make four writer
        # blocks, so a fractional count would reach the block slicing after
        # the header.
        knot, grid = canonical_trefoil(), GridSpec((-1, -1, -1), 0.5, (25, 25, 25))
        for name in ("threads", "chunk"):
            with pytest.raises(ValueError, match=rf"^{name} .*, got {count}$"):
                sample_field(knot, grid, **{name: count})
        sample = sample_field(knot, grid)
        for writer in (write_csv, write_jsonl, write_vtk):
            fh = io.StringIO()
            with pytest.raises(ValueError, match=rf"^threads .*, got {count}$"):
                writer(sample, fh, threads=count)
            assert fh.getvalue() == ""

    @pytest.mark.parametrize("counts, chunk, sizes", [
        ((41, 41, 41), 1 << 15, [13 * 1681, 14 * 1681, 14 * 1681]),
        ((41, 41, 41), 20000, [10 * 1681, 10 * 1681, 10 * 1681, 11 * 1681]),
        ((177, 7, 15), 1 << 15, [177 * 105]),
        ((3, 4, 5), 20, [20, 20, 20]),                # a plane at chunk: one block a plane
        ((2, 5, 3), 7, [3, 6, 6] * 2),                # planes over chunk: runs of z-lines
        ((2, 2, 9), 4, [9] * 4),                      # a z-line over chunk: one line a block
    ])
    def test_blocks_are_contiguous_row_ranges(self, counts, chunk, sizes):
        blocks = _blocks(counts, chunk)
        assert [r.stop - r.start for r, _, _ in blocks] == sizes
        assert blocks[0][0].start == 0 and blocks[-1][0].stop == math.prod(counts)
        assert all(a.stop == b.start for (a, _, _), (b, _, _) in zip(blocks, blocks[1:]))
        nz = counts[2]
        for rows, xs, ys in blocks:
            assert rows.stop - rows.start == (xs.stop - xs.start) * (ys.stop - ys.start) * nz
            assert rows.start == (xs.start * counts[1] + ys.start) * nz

    def test_csv_shape_and_header(self, tmp_path):
        knot = canonical_trefoil()
        grid = GridSpec(origin=(-2, -2, -2), spacing=0.5, counts=(5, 4, 3))
        sample = sample_field(knot, grid)
        path = tmp_path / "f.csv"
        with open(path, "w") as fh:
            write_csv(sample, fh)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 5 * 4 * 3

    def test_jsonl_rows_parse(self, tmp_path):
        knot = canonical_trefoil()
        grid = GridSpec(origin=(5, 3, 2), spacing=0.25, counts=(2, 1, 2))
        sample = sample_field(knot, grid)
        path = tmp_path / "f.jsonl"
        with open(path, "w") as fh:
            write_jsonl(sample, fh)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 4
        assert rows[0]["x"] == 5.0 and rows[0]["on_conductor"] is False
        assert rows[0]["Bz"] == pytest.approx(total_field(knot, (5, 3, 2))[2])

    def test_jsonl_bytes_match_json_dumps(self):
        # Two blocks of rows, with the trefoil's masked rows, signed zeros,
        # infinite fields and non-finite coordinates, in a block of finite
        # fields and in one with infinite fields.
        sample = sample_field(canonical_trefoil(),
                              GridSpec(origin=(-1, -1, -1), spacing=0.5, counts=(17, 17, 17)))
        assert sample.on_conductor.any()
        b = sample.b.copy()
        b[5], b[4500] = (-0.0, 0.0, -0.0), (math.inf, -math.inf, 1e-320)
        points = sample.points.copy()
        points[7] = (-0.0, 1e-300, -2.5e17)
        points[9], points[4501] = (math.inf, -math.inf, math.nan), (-math.inf, 0.5, math.inf)
        for s in (sample, FieldSample(sample.grid, points, b, sample.on_conductor)):
            got, want = io.StringIO(), io.StringIO()
            write_jsonl(s, got)
            dumps_write_jsonl(s, want)
            assert got.getvalue() == want.getvalue()

    def test_vtk_structure_and_x_fastest_order(self, tmp_path):
        knot = canonical_trefoil()
        grid = GridSpec(origin=(5, 3, 2), spacing=0.5, counts=(2, 1, 2))
        sample = sample_field(knot, grid)
        path = tmp_path / "f.vtk"
        with open(path, "w") as fh:
            write_vtk(sample, fh)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "DATASET STRUCTURED_POINTS" in lines
        assert "DIMENSIONS 2 1 2" in lines
        start = lines.index("VECTORS B double") + 1
        data = [tuple(float(v) for v in ln.split()) for ln in lines[start:start + 4]]
        # VTK order is x-fastest: rows are (ix,iz) = (0,0),(1,0),(0,1),(1,1);
        # our own layout is z-fastest, so row 1 here is our row 2.
        assert data[1] == pytest.approx(tuple(sample.b[2]))
        assert data[2] == pytest.approx(tuple(sample.b[1]))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("writer", [write_csv, write_jsonl, write_vtk])
def test_writer_workers_are_reaped(writer, monkeypatch):
    # Three one-block runs of the 21^3 grid, each over a pipe's 64 KiB, so
    # the workers are still blocked writing when the parent fails.
    sample = sample_field(canonical_trefoil(),
                          GridSpec(origin=(-1, -1, -1), spacing=0.5, counts=(21, 21, 21)))
    want, got = io.StringIO(), io.StringIO()
    writer(sample, want)
    writer(sample, got, threads=3)
    assert got.getvalue() == want.getvalue()
    assert_no_child_left()

    parent, formatted = os.getpid(), sampling._formatted

    def failing_in(where):
        def fail(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise ArithmeticError(where)
            return formatted(*args)
        return fail

    with monkeypatch.context() as patch:
        patch.setattr(sampling, "_formatted", failing_in("worker"))
        with pytest.raises(ChildProcessError, match="exited with 1$"):
            writer(sample, io.StringIO(), threads=3)
    assert_no_child_left()
    with monkeypatch.context() as patch:
        patch.setattr(sampling, "_formatted", failing_in("parent"))
        with pytest.raises(ArithmeticError, match="parent"):
            writer(sample, io.StringIO(), threads=3)
    assert_no_child_left()

    def interrupt(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(sampling, "shutil", SimpleNamespace(copyfileobj=interrupt))
        with pytest.raises(KeyboardInterrupt):
            writer(sample, io.StringIO(), threads=3)
    assert_no_child_left()


def run_cli(*argv):
    return main(list(argv))


@st.composite
def knot_grids(draw, placings=("random", "lattice", "vertex", "far", "box")):
    """A closure of up to 20 letters, a refined or a built-in knot, and a
    grid placed in one of five ways, the first four 1-7 points a side:
    - at a random origin in the knot's bounding box inflated by two lattice
      steps, with a spacing of 0.3, 0.25, 1 or 1.7 steps;
    - the same with the origin on the lattice, so that rows fall on sticks;
    - with a vertex on the grid and a spacing of 0.25, 0.5 or 1 step, so
      that rows fall exactly on the ends of the sticks that meet there;
    - with some axes moved beyond 1e154, where the squared offsets overflow;
    - covering the bounding box inflated by a step, from a lattice or a
      half-step origin, at a spacing of 1, 1/2, 1/4 or 3/4 of a step, so
      that sticks which are translates of one another share templates; at
      most 65,536 points."""
    if draw(st.booleans()):
        knot, step = draw(lattice_knots())
    else:
        knot, step = draw(st.sampled_from((canonical_trefoil(), canonical_figure_eight()))), 1
    starts, _ = stick_ends(knot)
    counts = draw(st.tuples(*[st.integers(1, 7)] * 3))
    placing = draw(st.sampled_from(placings))
    if placing == "box":
        spacing = step * draw(st.sampled_from([1.0, 0.5, 0.25, 0.75]))
        lo, hi = starts.min(axis=0) - step, starts.max(axis=0) + step
        origin = lo + step * draw(st.sampled_from([0.0, 0.5]))
        counts = tuple(int(c) + 1 for c in np.ceil((hi - origin) / spacing))
        assume(math.prod(counts) <= 1 << 16)        # keeps the tile driver's oracle quick
    elif placing == "vertex":
        spacing = step * draw(st.sampled_from([0.25, 0.5, 1.0]))
        offsets = np.array(draw(st.tuples(*[st.integers(0, n - 1) for n in counts])))
        origin = starts[draw(st.integers(0, len(starts) - 1))] - spacing * offsets
    else:
        spacing = step * draw(st.sampled_from([0.3, 0.25, 1.0, 1.7]))
        lo, hi = starts.min(axis=0) - 2 * step, starts.max(axis=0) + 2 * step
        origin = lo + np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * 3))) * (hi - lo)
        if placing == "lattice":
            origin = np.round(origin / step) * step
        elif placing == "far":
            far = st.one_of(st.just(0.0), st.floats(1.5e154, 1e308), st.floats(-1e308, -1.5e154))
            origin = origin + np.array(draw(st.tuples(*[far] * 3)))
    return knot, GridSpec(tuple(origin.tolist()), spacing, counts)


class TestGridDriver:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(case=knot_grids(), run=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_grid_driver_is_the_tile_driver_bit_for_bit(self, case, run):
        # B and near, on the knot, on a run of its sticks (an open chain) and
        # on the knot reversed, so that every stick flows the other way.  The
        # grid driver keeps no stick index; the tile driver's is checked by
        # test_near_and_nearest_match_clamp_oracle.
        knot, grid = case
        starts, ends = stick_ends(knot)
        lo, hi = sorted(int(f * (len(starts) - 1)) for f in run)
        for sticks in (knot.sticks, PackedSticks.pack(starts[lo:hi + 1], ends[lo:hi + 1]),
                       PackedSticks.pack(ends[::-1], starts[::-1])):
            got = _grid_field(sticks, grid._axes(), grid.spacing)
            want = _stick_field(sticks, grid.points())
            for name, g, w in zip(("B", "near"), got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name

    @staticmethod
    def kernel_runs(monkeypatch, sticks, axes, step):
        """How many times ``_grid_field`` runs the kernel on the grid of
        ``axes``, after checking its bytes against the tile driver's."""
        items, pair_terms = [], biot_savart._pair_terms

        def counted(operands):
            for item in pair_terms(operands):
                items.append(len(item))
                yield item

        with monkeypatch.context() as patch:
            patch.setattr(biot_savart, "_pair_terms", counted)
            got = _grid_field(sticks, axes, step)
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        for g, w in zip(got, _stick_field(sticks, points)):
            assert g.tobytes() == w.tobytes()
        return len(items)

    @pytest.mark.parametrize("spacing, shift, shared", [
        (1.0, 0.0, True), (0.75, 0.5, True), (1.0, 0.1, False), (1.0, 2.0 ** 60, False),
        (1.0, None, False)],
        ids=["lattice", "three-quarter-step", "not-dyadic", "beyond-2**52", "not-a-progression"])
    def test_translates_share_templates(self, monkeypatch, spacing, shift, shared):
        # Sticks that are translates of one another by whole grid steps are
        # evaluated once per group, and the sum keeps the tile driver's
        # bits.  Where the offsets would not be exact every stick is
        # evaluated alone: an origin off the dyadic lattice, coordinates
        # beyond 2**52, or an axis that is not its progression of the step.
        knot = close_braid_on_lattice(parse_braid(BRAID_20))
        lo, hi = bounding_box(knot)
        axes = [np.arange(l - 2.0, h + 2.0 + spacing / 2, spacing) + (shift or 0.0)
                for l, h in zip(lo, hi)]
        if shift is None:
            axes[0][-1] += spacing / 2
        runs = self.kernel_runs(monkeypatch, knot.sticks, axes, spacing)
        assert len(knot) == 212
        assert 0 < runs < len(knot) if shared else runs == len(knot)

    def test_translate_joins_while_the_window_grows_less_than_the_grid(self, monkeypatch):
        # Two +z sticks 3 or 4 steps apart over a grid of 4 points along x:
        # a window of 7 x-planes serves both, but not one of 8.
        axes = [np.arange(4.0), np.array([0.5]), np.array([0.5])]
        for apart, runs in ((3, 1), (4, 2)):
            sticks = PackedSticks.pack([(0, 0, 0), (apart, 0, 0)], [(0, 0, 1), (apart, 0, 1)])
            assert self.kernel_runs(monkeypatch, sticks, axes, 1.0) == runs

    def test_templates_memory(self):
        # A template lives from its first to its last stick and keeps only
        # its offsets and factor.  On the 412-stick closure's 177 x 7 x 15
        # box grid the peak was 5.87 MB when this bound was set; evaluating
        # each stick alone over the grid, it was 2.36 MB.
        knot = close_braid_on_lattice(parse_braid(BRAID_40))
        lo, hi = bounding_box(knot)
        grid = GridSpec(tuple(c - 2 for c in lo), 1.0, tuple(h - l + 5 for l, h in zip(lo, hi)))
        _grid_field(knot.sticks, grid._axes(), grid.spacing)       # pack the circuit first
        tracemalloc.start()
        try:
            _grid_field(knot.sticks, grid._axes(), grid.spacing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 2 ** 20

    def test_grid_driver_sums_onto_zero(self):
        # In the plane z = 0 a -y stick's x terms are all -0.0; the tile
        # driver's sum starts from +0.0, so its Bx is +0.0.
        sticks = PackedSticks.pack([(0, 1, 0)], [(0, 0, 0)])
        grid = GridSpec((-1, -1, 0), 1.0, (3, 3, 1))
        got, want = _grid_field(sticks, grid._axes(), grid.spacing)[0], _stick_field(sticks, grid.points())[0]
        assert got.tobytes() == want.tobytes()
        assert np.all(want[:, 0] == 0.0) and not np.signbit(want[:, 0]).any()

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(case=knot_grids(placings=("random", "lattice", "vertex", "far")))
    # 4 * 9 one-line blocks of the 4_1 grid at chunk = nz.
    @example(case=(canonical_figure_eight(), GridSpec((-1.5, -1.5, -1.5), 0.5, (4, 9, 19))))
    def test_sample_bytes_do_not_depend_on_blocks_or_threads(self, case):
        knot, grid = case
        _, ny, nz = grid.counts
        want_b, want_mask = total_field_many(knot, grid.points())
        for chunk in (1, nz, max(1, ny * nz - 1), None):
            sample = sample_field(knot, grid, **({} if chunk is None else {"chunk": chunk}))
            assert sample.b.tobytes() == want_b.tobytes(), chunk
            assert sample.on_conductor.tobytes() == want_mask.tobytes(), chunk


def test_cli_requires_exactly_one_source(tmp_path, capsys):
    out = tmp_path / "never.csv"
    grid = ("field", "sample", "--origin", "5,3,2", "--spacing", "1", "--counts", "1,1,1",
            "--out", str(out))
    verify = ("verify", "--loops", "1", "--points", "1", "--kernel-pairs", "1")
    for command in (grid, verify):
        for sources, message in (
            ((), "one of the arguments --knot --braid --knot-file is required"),
            (("--knot", "3_1", "--braid", "s1 s1 s1"), "not allowed with argument --knot"),
        ):
            assert run_cli(*command, *sources) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err
    assert not out.exists()


ARG_VALUES = {"--k": "2", "--tol": "1e-3", "--exclusion": "1e-3", "--threads": "2",
              "--seed": "3", "--format": "json", "--loops": "1", "--kernel-pairs": "1"}

# One valid invocation per subcommand; LOOP stands for a loop file's path.
BASE_ARGV = {
    "knot info": ("knot", "info", "--knot", "3_1"),
    "knot emit": ("knot", "emit", "--knot", "3_1"),
    "field sample": ("field", "sample", "--knot", "3_1", "--origin", "5,3,2",
                     "--spacing", "1", "--counts", "1,1,1"),
    "holonomy": ("holonomy", "--knot", "3_1", "--loop", "LOOP"),
    "linking": ("linking", "--knot", "3_1", "--loop", "LOOP"),
    "verify": ("verify", "--knot", "3_1", "--loops", "1", "--points", "1",
               "--kernel-pairs", "1"),
    "verify transcription": ("verify", "transcription", "--knot", "3_1", "--points", "1"),
}

# The options each subcommand does not read, and so refuses.
DROPPED = {
    "knot info": ("--tol", "--exclusion", "--threads", "--seed", "--format"),
    "knot emit": ("--k", "--tol", "--exclusion", "--threads", "--seed", "--format"),
    "field sample": ("--tol", "--seed"),
    "holonomy": ("--threads", "--seed"),
    "linking": ("--k", "--tol", "--exclusion", "--threads", "--seed", "--format"),
    "verify": ("--tol", "--exclusion", "--threads"),
    "verify transcription": ("--k", "--loops", "--kernel-pairs", "--tol", "--exclusion",
                             "--threads"),
}

REFUSED = [(cmd, (opt, ARG_VALUES[opt])) for cmd, opts in DROPPED.items() for opt in opts]
REFUSED += [("holonomy", ("--format", "csv")), ("field sample", ("--format", "json"))]


@pytest.mark.parametrize("command, extra", REFUSED,
                         ids=[f"{c}-{' '.join(e)}".replace(" ", "_") for c, e in REFUSED])
def test_inapplicable_option_is_a_usage_error(tmp_path, capsys, command, extra):
    loop_file = tmp_path / "loop.txt"
    loop_file.write_text(PAPER_LOOP)
    base = [str(loop_file) if a == "LOOP" else a for a in BASE_ARGV[command]]
    build_parser().parse_args(base)             # the invocation is valid without it
    assert run_cli(*base, *extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert any(m in captured.err for m in
               ("unrecognized arguments", "ambiguous option", "invalid choice"))
    assert extra[0] in captured.err             # the refused flag is named, not its value


def test_main_calls_in_one_process_read_as_on_a_fresh_parser(capsys):
    # main builds its parser once a process.  The usage errors (two sources,
    # no --word), --help and --version each end a parse part way; every call
    # must read as on a fresh parser, `verify transcription`'s word parser too.
    series = [("knot", "info", "--knot", "3_1", "--braid", "s1 s1 s1"), ("--help",),
              ("braid", "build", "--help"), ("--version",), ("knot", "info", "--braid", "s1 s1 s1"),
              ("verify", "transcription", "--knot", "3_1", "--points", "5"), ("braid", "build")]

    def run(argv, fresh):
        if fresh:
            cli._parser.cache_clear()
        code = run_cli(*argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._parser.cache_clear()
    shared = [run(argv, fresh=False) for argv in series]
    assert cli._parser.cache_info().misses == 1
    assert [r[0] for r in shared] == [1, 0, 0, 0, 0, 0, 1]
    assert shared == [run(argv, fresh=True) for argv in series]


class TestCli:
    def test_knot_info(self, capsys):
        assert run_cli("knot", "info", "--knot", "3_1") == 0
        out = capsys.readouterr().out
        assert "segments: 12" in out and "valid: True" in out

    def test_knot_emit_round_trips(self, tmp_path):
        out = tmp_path / "k.txt"
        assert run_cli("knot", "emit", "--knot", "4_1", "--out", str(out)) == 0
        knot = read_knot_file(out)
        assert len(knot.vertices) == 14
        assert validate(knot).ok

    def test_braid_build_writes_valid_knot(self, tmp_path):
        out = tmp_path / "b.txt"
        assert run_cli("braid", "build", "--word", "s1 s1 s1", "--out", str(out)) == 0
        knot = read_knot_file(out)
        assert validate(knot).ok
        header = out.read_text().splitlines()[0]
        assert header.startswith("#")

    def test_braid_multi_component_exit_2(self, capsys):
        assert run_cli("braid", "build", "--word", "s1 s1") == 2
        assert "2 components" in capsys.readouterr().err

    def test_braid_parse_error_exit_1(self, capsys):
        assert run_cli("braid", "build", "--word", "s1 junk") == 1
        assert "offset" in capsys.readouterr().err

    def test_usage_errors_exit_1(self, capsys):
        assert run_cli("holonomy", "--loop", "nope.txt") == 1          # no source
        assert run_cli("knot", "info", "--knot", "3_1", "--braid", "s1") == 1
        assert run_cli("frobnicate") == 1

    def test_missing_file_exit_1(self):
        assert run_cli("holonomy", "--knot", "3_1", "--loop", "/nonexistent.txt") == 1

    def test_holonomy_paper_loop(self, tmp_path, capsys):
        loop_file = tmp_path / "loop.txt"
        loop_file.write_text(PAPER_LOOP)
        rc = run_cli("holonomy", "--knot", "3_1", "--loop", str(loop_file),
                     "--format", "json")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["inferred_linking"] == -1
        assert abs(payload["value"] + 4 * math.pi) < 1e-5

    def test_holonomy_residual_judged_in_units_of_k(self, tmp_path, capsys):
        # At k = 1e6 the residual is about 1e-6 in absolute terms, 1e-12 in
        # units of k: the answer is right and the exit code says so.
        loop_file = tmp_path / "loop.txt"
        loop_file.write_text(PAPER_LOOP)
        rc = run_cli("holonomy", "--knot", "3_1", "--k", "1e6", "--loop", str(loop_file),
                     "--format", "json")
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value_over_4pik"] + 1.0) < 1e-9
        assert rc == 0

    @pytest.mark.parametrize("k", ["1e-320", "-1e-320", "5e-324"])
    def test_holonomy_at_subnormal_k(self, tmp_path, capsys, k):
        # Lk, the residual and value / 4*pi*k are formed at k = 1 and k is
        # applied last: at a subnormal k, where tol * |k| underflows to 0,
        # the square that links 3_1 twice passes, with the residual at k = 1
        # times k and the ratio at k = 1 bit for bit.
        loop_file = tmp_path / "square.txt"
        loop_file.write_text("-1 -1 3\n5 -1 3\n5 5 3\n-1 5 3\n")

        def run(*extra):
            rc = run_cli("holonomy", "--knot", "3_1", "--loop", str(loop_file),
                         "--format", "json", *extra)
            return rc, json.loads(capsys.readouterr().out)

        (rc, payload), (rc_1, at_1) = run(f"--k={k}"), run()
        assert rc == rc_1 == 0
        assert payload["inferred_linking"] == at_1["inferred_linking"] == 2
        assert payload["residual"] == at_1["residual"] * float(k)
        assert payload["value_over_4pik"].hex() == at_1["value_over_4pik"].hex()

    def test_verify_holonomy_suites_judged_in_units_of_k(self, capsys):
        rc = run_cli("verify", "--knot", "3_1", "--k", "1e6", "--loops", "6", "--points", "10",
                     "--kernel-pairs", "10", "--format", "json")
        suites = {s["name"]: s for s in json.loads(capsys.readouterr().out)["suites"]}
        assert suites["holonomy-vs-linking"]["details"]["worst_rel_err"] < 1e-9
        assert rc == 0

    @pytest.mark.parametrize("k", ["1e200", "1e-200", "-1", "1e-320", "5e-324", "1e308"])
    def test_verify_details_in_units_of_k(self, capsys, k):
        # Every suite compares in units of k, at k = 1, so no field norm or
        # holonomy overflows or underflows (a RuntimeWarning is an error
        # here), a subnormal or huge k passes, and the details with each
        # suite's duration dropped are those at k = 1.
        def masked(*extra):
            rc = run_cli("verify", "--knot", "3_1", "--kernel-pairs", "10", "--format", "json",
                         *extra)
            payload = json.loads(capsys.readouterr().out)
            for suite in payload["suites"]:
                del suite["duration"]
            return rc, payload

        assert masked(f"--k={k}") == masked()

    @pytest.mark.parametrize("command", [
        ("holonomy", "--loop", "LOOP"),
        ("field", "sample", "--origin=2.5,2.1,1", "--spacing", "1", "--counts", "2,1,1"),
        ("field", "sample", "--origin=2.5,2.1,1", "--spacing", "1", "--counts", "2,1,1",
         "--out", "OUT"),
    ], ids=["holonomy", "field-sample", "field-sample-out"])
    def test_overflowing_k_exit_1(self, tmp_path, capsys, command):
        loop_file, out = tmp_path / "loop.txt", tmp_path / "never.csv"
        loop_file.write_text(PAPER_LOOP)
        argv = [{"LOOP": str(loop_file), "OUT": str(out)}.get(a, a) for a in command]
        assert run_cli(*argv, "--knot", "3_1", "--k", "1e308") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k = 1e+308 is too large: the result overflows\n"
        assert not out.exists()

    def test_holonomy_loop_on_conductor_exit_3(self, tmp_path):
        loop_file = tmp_path / "bad.txt"
        loop_file.write_text("2 2 3\n7 3 2\n7 5 2\n5 5 2\n")
        assert run_cli("holonomy", "--knot", "3_1", "--loop", str(loop_file)) == 3

    def test_linking_output(self, tmp_path, capsys):
        loop_file = tmp_path / "loop.txt"
        loop_file.write_text(PAPER_LOOP)
        assert run_cli("linking", "--knot", "3_1", "--loop", str(loop_file)) == 0
        assert capsys.readouterr().out.strip() == "-1"

    @pytest.mark.parametrize("vertices, rc, out, err", [
        # Square of half-width 3e-4 around trefoil stick 1, (2,2,0)->(2,2,6).
        (((1.9997, 1.9997, 3), (2.0003, 1.9997, 3), (2.0003, 2.0003, 3),
          (1.9997, 2.0003, 3)), 0, "1", ""),
        # A vertex so far out that its distances overflow: a typed refusal.
        (((1e200, 3, 3), (7, 3, 2), (7, 5, 2), (5, 5, 2)), 4, "",
         "error: loop edge 0 is not representable: its distance to circuit segment 1 "
         "evaluates to nan\n"),
        # Through stick 1, with vertices whose cross products square past
        # the float range: refused on the conductor, as holonomy refuses it,
        # before any Gauss sum is formed.
        (((2, 2, 3), (7, 3, 2), (1e80, 5, 2), (5, 1e80, 2)), 3, "",
         "error: loop edge 0 passes 0 from circuit segment 1\n"),
    ], ids=["tight-square", "overflow", "touching-far"])
    def test_linking_exit_codes(self, tmp_path, capsys, vertices, rc, out, err):
        loop_file = tmp_path / "loop.txt"
        loop_file.write_text("".join("%r %r %r\n" % v for v in vertices))
        assert run_cli("linking", "--knot", "3_1", "--loop", str(loop_file)) == rc
        assert capsys.readouterr() == (out + "\n" * bool(out), err)

    @pytest.mark.parametrize("argv, flag", [
        (("holonomy", "--knot", "3_1", "--loop", "LOOP", "--k", "0"), "--k"),
        (("verify", "--knot", "3_1", "--k", "0"), "--k"),
        (("holonomy", "--knot", "3_1", "--loop", "LOOP", "--k", "nan"), "--k"),
        (("knot", "info", "--knot", "3_1", "--k=-inf"), "--k"),
        (("field", "sample", "--knot", "3_1", "--origin=0,0,0", "--spacing", "1",
          "--counts", "1,1,1", "--k", "inf"), "--k"),
        (("holonomy", "--knot", "3_1", "--loop", "LOOP", "--tol", "-1"), "--tol"),
        (("holonomy", "--knot", "3_1", "--loop", "LOOP", "--tol", "0"), "--tol"),
        (("holonomy", "--knot", "3_1", "--loop", "LOOP", "--tol", "nan"), "--tol"),
        (("holonomy", "--knot", "3_1", "--loop", "LOOP", "--exclusion", "inf"), "--exclusion"),
        (("field", "sample", "--knot", "3_1", "--origin=0,0,0", "--spacing", "1",
          "--counts", "1,1,1", "--exclusion=-1e-3"), "--exclusion"),
        (("field", "sample", "--knot", "3_1", "--origin=0,0,0", "--spacing", "1",
          "--counts", "1,1,1", "--exclusion", "nan"), "--exclusion"),
        # Points on the wire, which a radius of 0 would evaluate: the vertex
        # (2, 2, 0), (2, 2, 1) and (2, 2, 2) on stick 1, and the loop's (2, 2, 3).
        (("field", "sample", "--knot", "3_1", "--origin", "2,2,0", "--spacing", "1",
          "--counts", "1,1,3", "--exclusion", "0"), "--exclusion"),
        (("holonomy", "--knot", "3_1", "--loop", "ON_WIRE", "--exclusion", "0"), "--exclusion"),
    ])
    def test_bad_number_exit_1(self, tmp_path, capsys, argv, flag):
        loops = {"LOOP": PAPER_LOOP, "ON_WIRE": "2 2 3\n3 2 3\n3 3 3\n2 3 3\n"}
        for name, text in loops.items():
            (tmp_path / name).write_text(text)
        assert run_cli(*[str(tmp_path / a) if a in loops else a for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: argument {flag}: must be finite")

    @pytest.mark.parametrize("argv, flag, value", [
        (("field", "sample", "--knot", "3_1", "--origin=0,0,0", "--spacing", "1",
          "--counts", "1,1,1"), "--threads", "0"),
        (("verify", "--knot", "3_1"), "--loops", "-2"),
        (("verify", "--knot", "3_1"), "--points", "-5"),
        (("verify", "transcription", "--knot", "3_1"), "--points", "0"),
        (("verify", "--knot", "3_1"), "--kernel-pairs", "-7"),
    ], ids=["threads", "loops", "points", "transcription-points", "kernel-pairs"])
    def test_count_below_one_exit_1(self, capsys, argv, flag, value):
        assert run_cli(*argv, flag, value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: argument {flag}: must be a positive integer, got '{value}'\n"

    @pytest.mark.parametrize("argv", [("verify", "--knot", "3_1"),
                                      ("verify", "transcription", "--knot", "3_1")],
                             ids=["verify", "transcription"])
    def test_negative_seed_exit_1(self, capsys, argv):
        # Refused by the parser, naming the flag, before numpy sees the seed.
        assert run_cli(*argv, "--seed", "-1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: argument --seed: must be a non-negative integer, got '-1'\n"

    def test_holonomy_quadrature_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise QuadratureError("holonomy edge failed to converge")
        monkeypatch.setattr(cli, "holonomy", no_convergence)
        loop_file = tmp_path / "loop.txt"
        loop_file.write_text(PAPER_LOOP)
        assert run_cli("holonomy", "--knot", "3_1", "--loop", str(loop_file)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: holonomy edge failed to converge\n"

    def test_field_sample_far_grid_is_exact_zero(self, capsys):
        # The true field there underflows; overflowing intermediates must
        # give exact zeros without a RuntimeWarning on stderr.
        assert run_cli("field", "sample", "--knot", "3_1", "--origin=1e200,0,0",
                       "--spacing", "1", "--counts", "2,1,1") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert len(rows) == 2
        assert all(float(r[c]) == 0.0 and r["on_conductor"] == "0"
                   for r in rows for c in ("Bx", "By", "Bz"))

    def test_holonomy_unrepresentable_loop_exit_4(self, tmp_path, capsys):
        # Edge 0 runs through trefoil stick 1 at (2,2,3), but its length
        # squared overflows: a typed refusal, not a traceback or a number.
        loop_file = tmp_path / "huge.txt"
        loop_file.write_text("1e200 2 3\n-5 2 3\n-5 -5 3\n1e200 -5 3\n")
        assert run_cli("holonomy", "--knot", "3_1", "--loop", str(loop_file)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: loop edge 0 is not representable")
        assert "Traceback" not in captured.err

    def test_field_sample_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = run_cli("field", "sample", "--knot", "3_1", "--origin=-1,-1,-1",
                     "--spacing", "0.75", "--counts", "4,4,4", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 64

    def test_field_sample_deterministic_across_threads(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        common = ["field", "sample", "--knot", "3_1", "--origin=-2,-2,-2",
                  "--spacing", "0.9", "--counts", "7,6,5"]
        assert run_cli(*common, "--threads", "1", "--out", str(a)) == 0
        assert run_cli(*common, "--threads", "4", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_field_sample_from_braid_source(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = run_cli("field", "sample", "--braid", "s1 s1 s1", "--origin", "0,4,0",
                     "--spacing", "1.0", "--counts", "2,1,2", "--out", str(out))
        assert rc == 0

    @pytest.mark.parametrize("argv", [
        ("knot", "info", "--k", "2.5"),
        ("field", "sample", "--k", "-1.5", "--origin", "0,4,0", "--spacing", "1.0",
         "--counts", "2,1,2")], ids=["knot-info", "field-sample"])
    def test_braid_source_checks_its_vertices_once(self, argv, tmp_path, monkeypatch):
        """A ``--braid`` source at any k runs ``LatticeKnot._lattice``'s vertex
        check once, in the builder: the copy at k keeps the closure's."""
        calls, check = [], geometry.LatticeKnot._lattice.func

        def counted(knot):
            calls.append(knot.name)
            return check(knot)

        prop = functools.cached_property(counted)
        prop.__set_name__(geometry.LatticeKnot, "_lattice")
        monkeypatch.setattr(geometry.LatticeKnot, "_lattice", prop)
        assert run_cli(*argv, "--braid", BRAID_40, "--out", str(tmp_path / "out")) == 0
        assert len(calls) == 1

    def test_verify_small(self, capsys):
        rc = run_cli("verify", "--knot", "3_1", "--loops", "3", "--points", "10",
                     "--kernel-pairs", "25", "--format", "json")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["suites"]) == 6

    def test_verify_transcription_json(self, capsys):
        rc = run_cli("verify", "transcription", "--knot", "3_1", "--points", "5",
                     "--format", "json")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["total"] == 24
        assert payload["counts"]["unmatched"] == 0
        assert len(payload["flagged"]) == 3

    def test_knot_file_source(self, tmp_path, capsys):
        path = tmp_path / "sq.txt"
        path.write_text("0 0 0\n2 0 0\n2 2 0\n0 2 0\n")
        assert run_cli("knot", "info", "--knot-file", str(path)) == 0
        assert "segments: 4" in capsys.readouterr().out

    @pytest.mark.parametrize("origin, spacing", [
        ("0,0,0", "nan"), ("0,0,0", "inf"), ("0,nan,0", "1"), ("-inf,0,0", "1"),
    ])
    def test_field_sample_non_finite_grid_exit_1(self, tmp_path, capsys, origin, spacing):
        out = tmp_path / "never.csv"
        rc = run_cli("field", "sample", "--knot", "3_1", f"--origin={origin}",
                     "--spacing", spacing, "--counts", "2,1,1", "--out", str(out))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: grid ")
        assert not out.exists()

    def test_field_sample_overflowing_grid_exit_1(self, tmp_path, capsys):
        # Each number given is finite, but the last x coordinate overflows:
        # one typed error line, with no overflow warning before it.
        out = tmp_path / "never.csv"
        rc = run_cli("field", "sample", "--knot", "3_1", "--origin=1e308,0,0",
                     "--spacing", "1e308", "--counts", "3,1,1", "--out", str(out))
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: grid x axis must end at a finite coordinate, got inf\n"
        assert not out.exists()

    def test_field_sample_grid_beyond_memory_exit_1(self, tmp_path, capsys):
        # 576 PiB of field rows: above any 64-bit host's address space, so
        # the allocation fails at once, and below numpy's "too big" ValueError.
        out = tmp_path / "never.csv"
        rc = run_cli("field", "sample", "--knot", "3_1", "--origin=0,0,0", "--spacing", "1",
                     "--counts", "300000,300000,300000", "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_engine_paths_build_no_segments(self, monkeypatch, capsys):
        # ``knot info``, the derived term table and the clear-point draws read
        # the vertex list and its arrays, never the per-stick ``Segment`` view.
        def refuse(knot):
            raise AssertionError("segments() called")
        for module in (geometry, cli, transcription, verification):
            monkeypatch.setattr(module, "segments", refuse, raising=False)
        assert run_cli("knot", "info", "--knot", "3_1") == 0
        assert run_cli("verify", "transcription", "--knot", "3_1", "--points", "5") == 0
        assert run_cli("verify", "--knot", "3_1", "--loops", "2", "--points", "4",
                       "--kernel-pairs", "4") == 0

    def test_knot_file_beyond_int64_exit_1(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text(f"0 0 0\n{2**63} 0 0\n{2**63} 2 0\n0 2 0\n")
        assert run_cli("knot", "info", "--knot-file", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"vertex 1 ({2**63}, 0, 0) has a coordinate outside the int64 range" \
            in captured.err

    def test_invalid_knot_file_rejected_before_output(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0\n1 1 0\n2 0 0\n0 0 1\n")   # diagonal edges
        out = tmp_path / "never.csv"
        rc = run_cli("field", "sample", "--knot-file", str(path), "--origin", "0,0,0",
                     "--spacing", "1", "--counts", "2,2,2", "--out", str(out))
        assert rc == 1
        assert not out.exists()


GRID = ("field", "sample", "--knot", "3_1", "--origin=-1,-1,-1", "--spacing", "0.75",
        "--counts", "9,9,9")
# 9,261 rows, more than two of the writers' blocks, 96 of them on the conductor.
BLOCKS = ("field", "sample", "--knot", "3_1", "--origin=-1,-1,-1", "--spacing", "0.5",
          "--counts", "21,21,21")
# A 160-letter 3-strand word whose closure is a knot, in signed-integer
# shorthand: the first such draw of default_rng(160).
BRAID_160 = ("1 1 -1 1 1 -2 -1 -1 -2 -2 -2 -2 -2 2 -2 -2 2 -1 -2 -1 1 2 -1 1 2 -1 -2 2 -1 -1 -1 2 "
             "2 2 1 2 1 1 -1 2 -2 1 -2 -2 1 -2 -2 -1 1 -2 -1 1 1 1 1 2 -1 -2 2 1 2 -1 2 1 -2 -2 2 "
             "2 -2 -1 1 -2 -2 1 -1 -2 -2 2 1 1 -2 -2 -1 2 -1 2 -1 -1 1 -2 2 -1 1 1 1 -2 -2 1 -1 -2 "
             "1 -2 1 2 -1 1 -1 1 1 -1 -1 2 2 -2 2 1 1 -1 2 -1 -1 -2 -2 1 -1 -2 1 1 -2 1 1 -2 2 2 "
             "-2 1 2 1 1 -1 1 1 -1 -2 -1 2 2 2 1 -1 -2 -1 -2 1 -2 -2 -2 -1 -2 1")


# SHA-256 of stdout.  These pin the engine's arithmetic, the writers'
# formatting, the braid layout and every fixed-format report byte for byte.
# LOOP stands for the paper's loop, written to a file named loop.txt.
@pytest.mark.parametrize("argv, digest", [
    (GRID + ("--format", "csv"),
     "094a84ac1c4c40bd1208aa40c92bc7927962a19d0681b287f73bb3814e34e5f9"),
    (GRID + ("--format", "jsonl"),
     "16defb887fe4ba1ae2cc6f1e721f1eca009f37f2689600ef9e5d29d502d2ee4e"),
    (GRID + ("--format", "vtk"),
     "d0ec1806b9d5c94d91f027bde2306bc2f59c90c3283e468490ccc19f9c327c17"),
    (BLOCKS + ("--format", "csv"),
     "c9ae516a8a62bf9a49115874d64c8455e72b59fd9b6a166b94444a2dc983f7a1"),
    (BLOCKS + ("--format", "jsonl"),
     "720539e6184d5f32eb15329a9f1aebe20f0655ddfd2b3d2e1c1cec0c0f0e3cee"),
    (BLOCKS + ("--format", "vtk"),
     "a91ad860e8cc51853f5c8ff3bee810d71047b59ffabe0724da56d18735e3a046"),
    (BLOCKS + ("--format", "csv", "--threads", "2"),
     "c9ae516a8a62bf9a49115874d64c8455e72b59fd9b6a166b94444a2dc983f7a1"),
    (BLOCKS + ("--format", "jsonl", "--threads", "2"),
     "720539e6184d5f32eb15329a9f1aebe20f0655ddfd2b3d2e1c1cec0c0f0e3cee"),
    (BLOCKS + ("--format", "vtk", "--threads", "2"),
     "a91ad860e8cc51853f5c8ff3bee810d71047b59ffabe0724da56d18735e3a046"),
    (BLOCKS + ("--format", "csv", "--threads", "4"),
     "c9ae516a8a62bf9a49115874d64c8455e72b59fd9b6a166b94444a2dc983f7a1"),
    (BLOCKS + ("--format", "jsonl", "--threads", "4"),
     "720539e6184d5f32eb15329a9f1aebe20f0655ddfd2b3d2e1c1cec0c0f0e3cee"),
    (BLOCKS + ("--format", "vtk", "--threads", "4"),
     "a91ad860e8cc51853f5c8ff3bee810d71047b59ffabe0724da56d18735e3a046"),
    (("braid", "build", "--word", "s1 s2^-1 s1 s2^-1"),
     "7bf0f704cfc7456f4a974529a4c3e4ea0635b0e666e1c4917cec8a903eeafba8"),
    (("braid", "build", "--word", "s1 s2 s1^-1 s2 s2 s1^-1 s2^-1 s1 s2 s1 s2^-1 s1"),
     "05d3b51f840281fc43ea85e5ae28fcc77db950a0d406f7f1dcfd5e56769bfba1"),
    (("braid", "build", "--word", BRAID_160),
     "c2b1746f470aa945cfa107090d79a79eae32b42b0628371e7c815ec5ee366ceb"),
    (("knot", "info", "--knot", "3_1"),
     "8d68667e61acceac005b01f79299f23b06f44a5a74be093a997f150a345032f7"),
    (("knot", "info", "--knot", "4_1"),                      # x 4, y 6, z 4
     "1dff904efff95e8533e9fc0864d4178b552e425b6e9ddcfa093cb2817f259032"),
    (("knot", "info", "--braid", "s1 s2 s1^-1 s2 s2 s1^-1 s2^-1 s1 s2 s1 s2^-1 s1"),
     "6368dbf06ce55dab4372ac3ac28cd866704d5e16df89aea596a750784a528be7"),   # x 66, y 24, z 42
    (("knot", "emit", "--knot", "4_1"),
     "9cf902d29e8590ca53e6a6cacbb7f33d2153921ba8faf63182e21c2fa0b3962a"),
    (("holonomy", "--knot", "3_1", "--loop", "LOOP"),
     "d41a22592bfd2525caf144aab870b6ca7a6b85a29307e18ee1f2cd841fe3c328"),
    (("holonomy", "--knot", "3_1", "--loop", "LOOP", "--format", "json"),
     "1e7978900291a266acacb9e44006468b7d8e5a3b41182d1aa8fc0e773edf7e50"),
    (("linking", "--knot", "3_1", "--loop", "LOOP"),
     "ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28"),
    (("verify", "transcription", "--knot", "3_1", "--points", "5"),
     "52382ba420b3b3d65c3d333f1b2c7bf53ea8cb9556d7c7d6a5fdf892c439b5b8"),
    (("verify", "transcription", "--knot", "4_1", "--seed", "3", "--points", "200",
      "--format", "json"),
     "2137a8c4ca99b110d2f7a74c5016afdd1412207d40621e41b65655664a596d9a"),
    # A 20-letter 3-strand word whose closure is a knot, sampled over its
    # bounding box at spacing 1: many sticks, several kernel tiles, and
    # on-conductor rows on the lattice points of the circuit.
    (("field", "sample", "--braid", "s2 s1 s1 s2 s1^-1 s1^-1 s2^-1 s1 s2 s1 s2^-1 s2 s2 s1 "
      "s1^-1 s2 s1^-1 s2 s2^-1 s1", "--origin=-6,0,2", "--spacing", "1", "--counts", "93,3,11"),
     "76f42f73d86ae528ea7c627e19ca1fa7e63099da19f1a2092401f01f7bae2030"),
], ids=["csv", "jsonl", "vtk", "csv-blocks", "jsonl-blocks", "vtk-blocks",
        "csv-blocks-threads-2", "jsonl-blocks-threads-2", "vtk-blocks-threads-2",
        "csv-blocks-threads-4", "jsonl-blocks-threads-4", "vtk-blocks-threads-4", "braid-4_1",
        "braid-12-letters", "braid-160-letters", "knot-info", "knot-info-4_1",
        "knot-info-braid-12-letters", "knot-emit", "holonomy-text", "holonomy-json", "linking",
        "verify-transcription", "verify-transcription-4_1-json", "braid-field-csv"])
def test_golden_stdout(tmp_path, capsys, argv, digest):
    loop_file = tmp_path / "loop.txt"
    loop_file.write_text(PAPER_LOOP)
    assert run_cli(*[str(loop_file) if a == "LOOP" else a for a in argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest


# SHA-256 of `verify --format json` at CLI defaults with every suite's
# `duration` dropped: pins the random pairs, points and loops each suite
# draws and every detail it reports, bit for bit.
@pytest.mark.parametrize("knot, seed, digest", [
    ("3_1", 0, "8f271a64d0a07bba5ca9a0b568ae7b3068cca956e88053bb2ff5ff4e5e0ead38"),
    ("3_1", 3, "59ad639645e7e3cd37ad5e3a04d0fc7c99c248814c9ff348c90e2e05d761b336"),
    ("4_1", 0, "589fd39b4d6e5897333e96155a48c2156380fbe33e18a8bc78b3211ea2180d15"),
    ("4_1", 3, "54f35b66385596a1bde13965047be32ae52229f1d6810e802e0005e35a1a2213"),
], ids=["3_1-0", "3_1-3", "4_1-0", "4_1-3"])
def test_golden_verify_json(capsys, knot, seed, digest):
    assert run_cli("verify", "--knot", knot, "--seed", str(seed), "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    for suite in payload["suites"]:
        del suite["duration"]
    assert hashlib.sha256(json.dumps(payload).encode("ascii")).hexdigest() == digest
