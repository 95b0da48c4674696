import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

from knotfield import cli
from knotfield.cli import build_parser, main
from knotfield.geometry import canonical_trefoil, read_knot_file, validate
from knotfield.biot_savart import QuadratureError, total_field
from knotfield.sampling import (
    FieldSample,
    CSV_HEADER,
    GridSpec,
    sample_field,
    write_csv,
    write_jsonl,
    write_vtk,
)
from knotfield.topology import Loop, write_loop_file


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(origin=(0, 0, 0), spacing=0.0, counts=(2, 2, 2))
        with pytest.raises(ValueError):
            GridSpec(origin=(0, 0, 0), spacing=0.5, counts=(2, 0, 2))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="spacing"):
                GridSpec(origin=(0, 0, 0), spacing=bad, counts=(2, 2, 2))
            with pytest.raises(ValueError, match="origin"):
                GridSpec(origin=(0, bad, 0), spacing=0.5, counts=(2, 2, 2))

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

    @staticmethod
    def json_dumps_writer(sample, fh):
        """The row-at-a-time writer that write_jsonl replaced: the reference."""
        for p, b, m in zip(sample.points, sample.b, sample.on_conductor):
            fh.write(json.dumps({
                "x": float(p[0]), "y": float(p[1]), "z": float(p[2]),
                "Bx": float(b[0]), "By": float(b[1]), "Bz": float(b[2]),
                "on_conductor": bool(m),
            }) + "\n")

    def test_jsonl_bytes_match_json_dumps(self):
        # Two blocks of rows, with the trefoil's masked rows, signed zeros
        # and infinite fields.
        sample = sample_field(canonical_trefoil(),
                              GridSpec(origin=(-1, -1, -1), spacing=0.5, counts=(17, 17, 17)))
        assert sample.on_conductor.any()
        b = sample.b.copy()
        b[5], b[4500] = (-0.0, 0.0, -0.0), (math.inf, -math.inf, 1e-320)
        points = sample.points.copy()
        points[7] = (-0.0, 1e-300, -2.5e17)
        for s in (sample, FieldSample(sample.grid, points, b, sample.on_conductor)):
            got, want = io.StringIO(), io.StringIO()
            write_jsonl(s, got)
            self.json_dumps_writer(s, want)
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


def run_cli(*argv):
    return main(list(argv))


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
    write_loop_file(Loop(vertices=((5, 3, 2), (7, 3, 2), (7, 5, 2), (5, 5, 2))), loop_file)
    base = [str(loop_file) if a == "LOOP" else a for a in BASE_ARGV[command]]
    build_parser().parse_args(base)             # the invocation is valid without it
    assert run_cli(*base, *extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert any(m in captured.err for m in
               ("unrecognized arguments", "ambiguous option", "invalid choice"))
    assert extra[0] in captured.err             # the refused flag is named, not its value


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
        write_loop_file(
            Loop(vertices=((5, 3, 2), (7, 3, 2), (7, 5, 2), (5, 5, 2)), name="paper"),
            loop_file,
        )
        rc = run_cli("holonomy", "--knot", "3_1", "--loop", str(loop_file),
                     "--format", "json")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["inferred_linking"] == -1
        assert abs(payload["value"] + 4 * math.pi) < 1e-5

    def test_holonomy_loop_on_conductor_exit_3(self, tmp_path):
        loop_file = tmp_path / "bad.txt"
        write_loop_file(Loop(vertices=((2, 2, 3), (7, 3, 2), (7, 5, 2), (5, 5, 2))),
                        loop_file)
        assert run_cli("holonomy", "--knot", "3_1", "--loop", str(loop_file)) == 3

    def test_linking_output(self, tmp_path, capsys):
        loop_file = tmp_path / "loop.txt"
        write_loop_file(
            Loop(vertices=((5, 3, 2), (7, 3, 2), (7, 5, 2), (5, 5, 2))), loop_file
        )
        assert run_cli("linking", "--knot", "3_1", "--loop", str(loop_file)) == 0
        assert capsys.readouterr().out.strip() == "-1"

    @pytest.mark.parametrize("vertices, rc, out", [
        # Square of half-width 3e-4 around trefoil stick 1, (2,2,0)->(2,2,6).
        (((1.9997, 1.9997, 3), (2.0003, 1.9997, 3), (2.0003, 2.0003, 3),
          (1.9997, 2.0003, 3)), 0, "1"),
        # A vertex so far out that the Gauss sum overflows: a typed refusal.
        (((1e200, 3, 3), (7, 3, 2), (7, 5, 2), (5, 5, 2)), 4, ""),
    ], ids=["tight-square", "overflow"])
    def test_linking_exit_codes(self, tmp_path, capsys, vertices, rc, out):
        loop_file = tmp_path / "loop.txt"
        write_loop_file(Loop(vertices=vertices), loop_file)
        assert run_cli("linking", "--knot", "3_1", "--loop", str(loop_file)) == rc
        assert capsys.readouterr().out.strip() == out

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
    ])
    def test_bad_number_exit_1(self, tmp_path, capsys, argv, flag):
        loop_file = tmp_path / "loop.txt"
        write_loop_file(Loop(vertices=((5, 3, 2), (7, 3, 2), (7, 5, 2), (5, 5, 2))), loop_file)
        assert run_cli(*[str(loop_file) if a == "LOOP" else a for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: argument {flag}: must be finite")

    def test_holonomy_quadrature_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise QuadratureError("holonomy edge failed to converge")
        monkeypatch.setattr(cli, "holonomy", no_convergence)
        loop_file = tmp_path / "loop.txt"
        write_loop_file(Loop(vertices=((5, 3, 2), (7, 3, 2), (7, 5, 2), (5, 5, 2))), loop_file)
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
        write_loop_file(Loop(vertices=((1e200, 2, 3), (-5, 2, 3), (-5, -5, 3),
                                       (1e200, -5, 3))), loop_file)
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
    (("braid", "build", "--word", "s1 s2^-1 s1 s2^-1"),
     "7bf0f704cfc7456f4a974529a4c3e4ea0635b0e666e1c4917cec8a903eeafba8"),
    (("braid", "build", "--word", "s1 s2 s1^-1 s2 s2 s1^-1 s2^-1 s1 s2 s1 s2^-1 s1"),
     "05d3b51f840281fc43ea85e5ae28fcc77db950a0d406f7f1dcfd5e56769bfba1"),
    (("knot", "info", "--knot", "3_1"),
     "8d68667e61acceac005b01f79299f23b06f44a5a74be093a997f150a345032f7"),
    (("knot", "emit", "--knot", "4_1"),
     "9cf902d29e8590ca53e6a6cacbb7f33d2153921ba8faf63182e21c2fa0b3962a"),
    (("holonomy", "--knot", "3_1", "--loop", "LOOP"),
     "e98148a5c463a1aedd4b9669c6ccea6dd24ab852e1e6d5fc29ba6e3f87fa4735"),
    (("holonomy", "--knot", "3_1", "--loop", "LOOP", "--format", "json"),
     "834c4dd56a7d1f294d850e0c76709a6cb78a0399c33451113ba56a4378bc0261"),
    (("linking", "--knot", "3_1", "--loop", "LOOP"),
     "ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28"),
    (("verify", "transcription", "--knot", "3_1", "--points", "5"),
     "52382ba420b3b3d65c3d333f1b2c7bf53ea8cb9556d7c7d6a5fdf892c439b5b8"),
    # A 20-letter 3-strand word whose closure is a knot, sampled over its
    # bounding box at spacing 1: many sticks, several kernel tiles, and
    # on-conductor rows on the lattice points of the circuit.
    (("field", "sample", "--braid", "s2 s1 s1 s2 s1^-1 s1^-1 s2^-1 s1 s2 s1 s2^-1 s2 s2 s1 "
      "s1^-1 s2 s1^-1 s2 s2^-1 s1", "--origin=-6,0,2", "--spacing", "1", "--counts", "93,3,11"),
     "76f42f73d86ae528ea7c627e19ca1fa7e63099da19f1a2092401f01f7bae2030"),
], ids=["csv", "jsonl", "vtk", "braid-4_1", "braid-12-letters", "knot-info", "knot-emit",
        "holonomy-text", "holonomy-json", "linking", "verify-transcription", "braid-field-csv"])
def test_golden_stdout(tmp_path, capsys, argv, digest):
    loop_file = tmp_path / "loop.txt"
    write_loop_file(Loop(vertices=((5, 3, 2), (7, 3, 2), (7, 5, 2), (5, 5, 2))), loop_file)
    assert run_cli(*[str(loop_file) if a == "LOOP" else a for a in argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest
