"""Field sampling over rectangular grids and the interchange writers.

Rows are ordered z-fastest (x outer, y middle, z inner) and the output is
byte-for-byte deterministic: threads take blocks of whole x-planes or
z-lines, and the stick summation order is fixed, so neither the blocks nor
the threads reassociate a single row's sum.
Points on the conductor are kept as NaN rows with a flag rather than
dropped, so downstream reshaping to (nx, ny, nz) stays trivial.

Formats: CSV (default), JSON lines, and legacy ASCII VTK structured points
for visualization tools.  Note VTK's own convention is x-fastest, so the
VTK writer permutes rows to match its format; the CSV/JSONL row order is
authoritative for everything else.  The writers format a block of rows per ``%``.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import LatticeKnot
from .biot_savart import DEFAULT_EXCLUSION_RADIUS, _exclude, _finite, _grid_field


@dataclass(frozen=True)
class GridSpec:
    origin: tuple[float, float, float]
    spacing: float
    counts: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if not all(np.isfinite(self.origin)):
            raise ValueError(f"grid origin must be finite, got {self.origin}")
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"grid spacing must be positive and finite, got {self.spacing}")
        if any(c < 1 for c in self.counts):
            raise ValueError(f"grid counts must be >= 1, got {self.counts}")

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


def _blocks(counts, threads, chunk):
    """The sampler's blocks as (rows, xs, ys) slices: threads times
    ceil(rows / (threads * chunk)) runs of whole x-planes, at most one a
    plane, or, where one plane exceeds ``chunk``, ceil(plane / chunk) runs
    of whole z-lines in each plane, so that rows stay contiguous."""
    nx, ny, nz = counts
    px, py = min(nx, threads * -(-nx * ny * nz // (threads * chunk))), min(ny, -(-ny * nz // chunk))
    xe, ye = ([i * n // p for i in range(p + 1)] for n, p in ((nx, px), (ny, py)))
    return [(slice((x0 * ny + y0) * nz, ((x1 - 1) * ny + y1) * nz), slice(x0, x1), slice(y0, y1))
            for x0, x1 in zip(xe, xe[1:]) for y0, y1 in zip(ye, ye[1:])]


def sample_field(knot: LatticeKnot, grid: GridSpec,
                 exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
                 threads: int = 1, chunk: int = 1 << 15) -> FieldSample:
    """Evaluate the knot's field on every grid point.

    ``threads`` workers take the blocks of ``_blocks``, each one pass of the
    kernel's grid driver over its slice of the grid's axes, so results are
    identical for any thread count and ``chunk``.  Raises ValueError naming
    the first grid point that is not finite.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be a positive number of rows, got {chunk!r}")
    pts, axes = grid.points(), grid._axes()
    _finite(pts)
    b = np.empty_like(pts)
    mask = np.empty(len(pts), dtype=bool)

    def work(block):
        rows, xs, ys = block
        b[rows], near = _grid_field(knot.sticks, (axes[0][xs], axes[1][ys], axes[2]))
        mask[rows] = _exclude(b[rows], near, exclusion_radius, knot.k)[1]

    blocks = _blocks(grid.counts, max(threads, 1), chunk)
    if threads <= 1:
        list(map(work, blocks))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))
    return FieldSample(grid=grid, points=pts, b=b, on_conductor=mask)


CSV_HEADER = "x,y,z,Bx,By,Bz,on_conductor"

# Rows formatted per write: bounds the formatted text held at once.
_BLOCK_ROWS = 4096


def _spelled(values, spell, rows):
    """``values[rows]`` spelled by ``spell`` once per bit pattern, so -0.0 apart from 0.0."""
    values = values[rows]
    bits, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    spelled = np.array([spell(v) for v in bits.view(values.dtype).tolist()], dtype=object)
    return spelled[inverse].tolist()


def _formatted(row, columns, order):
    """The rows ``order`` of ``columns`` in the %-template ``row``, a str per
    ``_BLOCK_ROWS`` rows, each one ``%`` of ``row`` repeated once per row
    over the block's values, interleaved row by row.  A column given as
    (values, spell) is ``_spelled`` a block at a time."""
    for lo in range(0, len(order), _BLOCK_ROWS):
        rows = order[lo:lo + _BLOCK_ROWS]
        cells = [None] * (len(columns) * len(rows))
        for i, c in enumerate(columns):
            cells[i::len(columns)] = _spelled(*c, rows) if type(c) is tuple else c[rows].tolist()
        yield row * len(rows) % tuple(cells)


def write_csv(sample: FieldSample, fh) -> None:
    fh.write(CSV_HEADER + "\n")
    columns = [*((p, repr) for p in sample.points.T), *sample.b.T, sample.on_conductor]
    fh.writelines(_formatted("%s,%s,%s,%r,%r,%r,%d\n", columns, np.arange(len(sample.b))))


def write_jsonl(sample: FieldSample, fh) -> None:
    """One JSON object per row, byte for byte what ``json.dumps`` writes."""
    columns = [*((p, json.dumps) for p in sample.points.T), *sample.b.T,
               (sample.on_conductor, json.dumps)]
    text = _formatted('{"x": %s, "y": %s, "z": %s, "Bx": %r, "By": %r, "Bz": %r, '
                      '"on_conductor": %s}\n', columns, np.arange(len(sample.b)))
    # As json.dumps spells non-finite floats; no key or other spelling holds nan or inf.
    fh.writelines(t.replace("nan", "NaN").replace("inf", "Infinity") for t in text)


def write_vtk(sample: FieldSample, fh) -> None:
    """Legacy ASCII structured-points dataset with one vector field."""
    nx, ny, nz = sample.grid.counts
    ox, oy, oz = sample.grid.origin
    s = float(sample.grid.spacing)
    fh.write("# vtk DataFile Version 3.0\n")
    fh.write("knotfield sample\n")
    fh.write("ASCII\n")
    fh.write("DATASET STRUCTURED_POINTS\n")
    fh.write(f"DIMENSIONS {nx} {ny} {nz}\n")
    fh.write(f"ORIGIN {ox!r} {oy!r} {oz!r}\n")
    fh.write(f"SPACING {s!r} {s!r} {s!r}\n")
    fh.write(f"POINT_DATA {sample.grid.n_points}\n")
    fh.write("VECTORS B double\n")
    # Our rows are z-fastest; VTK wants x-fastest.
    order = np.arange(sample.grid.n_points).reshape(nx, ny, nz).transpose(2, 1, 0).ravel()
    fh.writelines(_formatted("%r %r %r\n", sample.b.T, order))


WRITERS = {"csv": write_csv, "jsonl": write_jsonl, "vtk": write_vtk}
