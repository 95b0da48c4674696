"""Field sampling over rectangular grids and the interchange writers.

Rows are ordered z-fastest (x outer, y middle, z inner) and the output is
byte-for-byte deterministic: the sampler evaluates blocks of whole x-planes
or z-lines one after another, and the stick summation order is fixed, so
the blocks do not reassociate a single row's sum.
Points on the conductor are kept as NaN rows with a flag rather than
dropped, so downstream reshaping to (nx, ny, nz) stays trivial.

Formats: CSV (default), JSON lines, and legacy ASCII VTK structured points
for visualization tools.  Note VTK's own convention is x-fastest, so the
VTK writer permutes rows to match its format; the CSV/JSONL row order is
authoritative for everything else.  The writers format a block of rows per ``%``.
With ``threads`` > 1 a writer forks up to ``threads`` - 1 worker processes,
each formatting a contiguous run of blocks, and writes their text after its
own run in file order, so the bytes do not depend on the worker count.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
from dataclasses import dataclass

import numpy as np

from .geometry import LatticeKnot, _int_at_least
from .biot_savart import DEFAULT_EXCLUSION_RADIUS, _check_positive, _exclude, _grid_field


@dataclass(frozen=True)
class GridSpec:
    origin: tuple[float, float, float]
    spacing: float
    counts: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))
        if not all(np.isfinite(self.origin)):
            raise ValueError(f"grid origin must be finite, got {self.origin}")
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"grid spacing must be positive and finite, got {self.spacing}")
        if not all(_int_at_least(c, 1) for c in self.counts):
            raise ValueError(f"grid counts must be integers >= 1, got {self.counts}")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        for axis, o, n in zip("xyz", self.origin, self.counts):     # past 2**1023, n has no float
            if not np.isfinite(last := o + float(self.spacing) * min(n - 1, 2 ** 1023)):
                raise ValueError(f"grid {axis} axis must end at a finite coordinate, got {last}")

    @property
    def n_points(self) -> int:
        nx, ny, nz = self.counts
        return nx * ny * nz

    def _axes(self) -> list[np.ndarray]:
        """The grid's coordinates along x, y and z: origin + spacing * index."""
        return [o + self.spacing * np.arange(n) for o, n in zip(self.origin, self.counts)]

    def points(self) -> np.ndarray:
        """All grid points, z-fastest."""
        return np.stack(np.meshgrid(*self._axes(), indexing="ij"), axis=-1).reshape(-1, 3)


@dataclass(frozen=True)
class FieldSample:
    grid: GridSpec
    points: np.ndarray          # (M, 3)
    b: np.ndarray               # (M, 3), NaN on masked rows
    on_conductor: np.ndarray    # (M,) bool


def _check_count(name, value, unit):
    if not _int_at_least(value, 1):
        raise ValueError(f"{name} must be a positive number of {unit}, got {value!r}")


def _blocks(counts, chunk):
    """The sampler's blocks as (rows, xs, ys) slices: ceil(rows / chunk)
    runs of whole x-planes, at most one a plane, or, where one plane
    exceeds ``chunk``, ceil(plane / chunk) runs of whole z-lines in each
    plane, so that rows stay contiguous."""
    nx, ny, nz = counts
    px, py = min(nx, -(-nx * ny * nz // chunk)), min(ny, -(-ny * nz // chunk))
    xe, ye = ([i * n // p for i in range(p + 1)] for n, p in ((nx, px), (ny, py)))
    return [(slice((x0 * ny + y0) * nz, ((x1 - 1) * ny + y1) * nz), slice(x0, x1), slice(y0, y1))
            for x0, x1 in zip(xe, xe[1:]) for y0, y1 in zip(ye, ye[1:])]


def sample_field(knot: LatticeKnot, grid: GridSpec,
                 exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
                 threads: int = 1, chunk: int = 1 << 15) -> FieldSample:
    """Evaluate the knot's field on every grid point.

    The blocks of ``_blocks`` are evaluated in order in the calling thread,
    each one pass of the kernel's grid driver over its slice of the grid's
    axes, so results are identical for any ``chunk``.  ``threads`` is
    checked to be at least 1 and otherwise unused: the benchmark's replay
    still passes it.  An exclusion radius not finite and > 0 is refused.
    """
    _check_positive("exclusion_radius", exclusion_radius)
    _check_count("chunk", chunk, "rows")
    _check_count("threads", threads, "workers")
    axes = grid._axes()
    b, mask = np.empty((grid.n_points, 3)), np.empty(grid.n_points, dtype=bool)
    for rows, xs, ys in _blocks(grid.counts, chunk):
        b[rows], near = _grid_field(knot.sticks, (axes[0][xs], axes[1][ys], axes[2]), grid.spacing)
        mask[rows] = _exclude(b[rows], near, exclusion_radius, knot.k)[1]
        del near                    # freed before the next block's kernel run
    return FieldSample(grid=grid, points=grid.points(), b=b, on_conductor=mask)


CSV_HEADER = "x,y,z,Bx,By,Bz,on_conductor"

# Rows formatted per %: bounds the text a one-process writer holds at once.
# A writer worker holds its whole run's text, so that is not bounded by it.
_BLOCK_ROWS = 4096


def _spelled(values, spell, rows):
    """``values[rows]`` spelled by ``spell`` once per bit pattern, so -0.0 apart from 0.0."""
    values = values[rows]
    bits, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    spelled = np.array([spell(v) for v in bits.view(values.dtype).tolist()], dtype=object)
    return spelled[inverse].tolist()


def _formatted(row, columns, order, final=str):
    """The rows ``order`` of ``columns`` in the %-template ``row``, a str per
    ``_BLOCK_ROWS`` rows, each one ``%`` of ``row`` repeated once per row
    over the block's values, interleaved row by row, then passed through
    ``final``.  A column given as (values, spell) is ``_spelled`` a block at
    a time."""
    for lo in range(0, len(order), _BLOCK_ROWS):
        rows = order[lo:lo + _BLOCK_ROWS]
        cells = [None] * (len(columns) * len(rows))
        for i, c in enumerate(columns):
            cells[i::len(columns)] = _spelled(*c, rows) if type(c) is tuple else c[rows].tolist()
        yield final(row * len(rows) % tuple(cells))


def _write(fh, head, threads, row, columns, order, final=str):
    """``head``, then ``_formatted``'s blocks, in up to ``threads`` processes.

    The blocks are split into min(threads, blocks) contiguous runs in file
    order.  A forked child formats each run after the first in full, then
    writes it to its pipe; the parent writes run 0, then copies each pipe to
    ``fh`` in order.  A child ends in ``os._exit``, so it never flushes a
    buffer it inherited.  Every child is reaped, killed first if the parent
    fails; a failed child raises ChildProcessError.
    """
    _check_count("threads", threads, "workers")
    fh.write(head)
    blocks = -(-len(order) // _BLOCK_ROWS)
    runs = min(threads, blocks) or 1
    edges = [i * blocks // runs * _BLOCK_ROWS for i in range(runs)] + [len(order)]
    pids, pipes = [], []
    try:
        for lo, hi in zip(edges[1:], edges[2:]):
            r, w = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        text = list(_formatted(row, columns, order[lo:hi], final))
                        with open(w, "w", encoding="ascii", newline="") as pipe:
                            pipe.writelines(text)
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(w)
            pids.append(pid)
        fh.writelines(_formatted(row, columns, order[:edges[1]], final))
        for r in pipes:
            with open(r, encoding="ascii", newline="", closefd=False) as pipe:
                shutil.copyfileobj(pipe, fh, 1 << 16)
            pid, status = os.waitpid(pids[0], 0)
            del pids[0]
            if status:
                raise ChildProcessError(f"writer worker {pid} exited with "
                                        f"{os.waitstatus_to_exitcode(status)}")
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for r in pipes:
            os.close(r)


def write_csv(sample: FieldSample, fh, threads: int = 1) -> None:
    columns = [*((p, repr) for p in sample.points.T), *sample.b.T, sample.on_conductor]
    _write(fh, CSV_HEADER + "\n", threads, "%s,%s,%s,%r,%r,%r,%d\n", columns,
           np.arange(len(sample.b)))


def write_jsonl(sample: FieldSample, fh, threads: int = 1) -> None:
    """One JSON object per row, byte for byte what ``json.dumps`` writes."""
    columns = [*((p, json.dumps) for p in sample.points.T), *sample.b.T,
               (sample.on_conductor, json.dumps)]
    # As json.dumps spells non-finite floats; no key or other spelling holds nan
    # or inf.  Each block is respelled whole, before a worker's pipe can split it.
    _write(fh, "", threads, '{"x": %s, "y": %s, "z": %s, "Bx": %r, "By": %r, "Bz": %r, '
           '"on_conductor": %s}\n', columns, np.arange(len(sample.b)),
           lambda text: text.replace("nan", "NaN").replace("inf", "Infinity"))


def write_vtk(sample: FieldSample, fh, threads: int = 1) -> None:
    """Legacy ASCII structured-points dataset with one vector field."""
    nx, ny, nz = sample.grid.counts
    ox, oy, oz = sample.grid.origin
    s = float(sample.grid.spacing)
    head = ("# vtk DataFile Version 3.0\n"
            "knotfield sample\n"
            "ASCII\n"
            "DATASET STRUCTURED_POINTS\n"
            f"DIMENSIONS {nx} {ny} {nz}\n"
            f"ORIGIN {ox!r} {oy!r} {oz!r}\n"
            f"SPACING {s!r} {s!r} {s!r}\n"
            f"POINT_DATA {sample.grid.n_points}\n"
            "VECTORS B double\n")
    # Our rows are z-fastest; VTK wants x-fastest.
    order = np.arange(sample.grid.n_points).reshape(nx, ny, nz).transpose(2, 1, 0).ravel()
    _write(fh, head, threads, "%r %r %r\n", sample.b.T, order)


WRITERS = {"csv": write_csv, "jsonl": write_jsonl, "vtk": write_vtk}
