import hashlib
import json
import math

import numpy as np
import pytest

from knotfield.cli import main
from knotfield.geometry import canonical_trefoil, read_knot_file, validate
from knotfield.biot_savart import total_field
from knotfield.sampling import (
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


def test_run_config_requires_exactly_one_source():
    from knotfield.cli import RunConfig

    kwargs = dict(k=1.0, tol=1e-6, exclusion=1e-6, out_format="csv", threads=1, seed=0)
    RunConfig(knot_name="3_1", braid_word=None, knot_file=None, **kwargs)
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig(knot_name="3_1", braid_word="s1 s1 s1", knot_file=None, **kwargs)
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig(knot_name=None, braid_word=None, knot_file=None, **kwargs)


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
# formatting and the braid layout byte for byte.
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
], ids=["csv", "jsonl", "vtk", "braid-4_1", "braid-12-letters"])
def test_golden_stdout(capsys, argv, digest):
    assert run_cli(*argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest
