"""Field sampling over rectangular grids and the interchange writers.

Rows are ordered z-fastest (x outer, y middle, z inner) and the output is
byte-for-byte deterministic: the segment summation order is fixed and the
thread pool only partitions rows, never reassociates a single row's sum.
Points on the conductor are kept as NaN rows with a flag rather than
dropped, so downstream reshaping to (nx, ny, nz) stays trivial.

Formats: CSV (default), JSON lines, and legacy ASCII VTK structured points
for visualization tools.  Note VTK's own convention is x-fastest, so the
VTK writer permutes rows to match its format; the CSV/JSONL row order is
authoritative for everything else.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import LatticeKnot
from .biot_savart import DEFAULT_EXCLUSION_RADIUS, total_field_many


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

    def points(self) -> np.ndarray:
        """All grid points, z-fastest."""
        nx, ny, nz = self.counts
        ix, iy, iz = np.meshgrid(
            np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
        )
        idx = np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1)
        return np.asarray(self.origin) + self.spacing * idx


@dataclass(frozen=True)
class FieldSample:
    grid: GridSpec
    points: np.ndarray          # (M, 3)
    b: np.ndarray               # (M, 3), NaN on masked rows
    on_conductor: np.ndarray    # (M,) bool


def sample_field(knot: LatticeKnot, grid: GridSpec,
                 exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
                 threads: int = 1, chunk: int = 4096) -> FieldSample:
    """Evaluate the knot's field on every grid point.

    ``threads`` partitions the fixed chunk decomposition; every chunk is an
    independent vectorized evaluation, so results are identical for any
    thread count.
    """
    pts = grid.points()
    b = np.empty_like(pts)
    mask = np.empty(len(pts), dtype=bool)
    ranges = [(lo, min(lo + chunk, len(pts))) for lo in range(0, len(pts), chunk)]

    def work(bounds):
        lo, hi = bounds
        b[lo:hi], mask[lo:hi] = total_field_many(knot, pts[lo:hi], exclusion_radius)

    if threads <= 1:
        for r in ranges:
            work(r)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, ranges))
    return FieldSample(grid=grid, points=pts, b=b, on_conductor=mask)


CSV_HEADER = "x,y,z,Bx,By,Bz,on_conductor"

# Rows formatted per write: bounds the formatted text held at once.
_BLOCK_ROWS = 4096


def write_csv(sample: FieldSample, fh) -> None:
    fh.write(CSV_HEADER + "\n")
    for lo in range(0, len(sample.points), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        rows = zip(sample.points[block].tolist(), sample.b[block].tolist(),
                   sample.on_conductor[block].tolist())
        fh.write("".join(f"{x!r},{y!r},{z!r},{bx!r},{by!r},{bz!r},{m:d}\n"
                         for (x, y, z), (bx, by, bz), m in rows))


def write_jsonl(sample: FieldSample, fh) -> None:
    """One JSON object per row, byte for byte what ``json.dumps`` writes."""
    for lo in range(0, len(sample.points), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        rows = zip(sample.points[block].tolist(), sample.b[block].tolist(),
                   sample.on_conductor[block].tolist())
        text = "".join(f'{{"x": {x!r}, "y": {y!r}, "z": {z!r}, "Bx": {bx!r}, "By": {by!r}, '
                       f'"Bz": {bz!r}, "on_conductor": {"true" if m else "false"}}}\n'
                       for (x, y, z), (bx, by, bz), m in rows)
        # json.dumps spells non-finite floats NaN, Infinity and -Infinity;
        # points are finite, and no key or finite float holds "nan" or "inf".
        if not np.isfinite(sample.b[block]).all():
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        fh.write(text)


def write_vtk(sample: FieldSample, fh, title: str = "knotfield sample") -> None:
    """Legacy ASCII structured-points dataset with one vector field."""
    nx, ny, nz = sample.grid.counts
    ox, oy, oz = sample.grid.origin
    s = float(sample.grid.spacing)
    fh.write("# vtk DataFile Version 3.0\n")
    fh.write(title + "\n")
    fh.write("ASCII\n")
    fh.write("DATASET STRUCTURED_POINTS\n")
    fh.write(f"DIMENSIONS {nx} {ny} {nz}\n")
    fh.write(f"ORIGIN {ox!r} {oy!r} {oz!r}\n")
    fh.write(f"SPACING {s!r} {s!r} {s!r}\n")
    fh.write(f"POINT_DATA {sample.grid.n_points}\n")
    fh.write("VECTORS B double\n")
    # Our rows are z-fastest; VTK wants x-fastest.
    order = np.arange(sample.grid.n_points).reshape(nx, ny, nz).transpose(2, 1, 0).ravel()
    for lo in range(0, len(order), _BLOCK_ROWS):
        rows = sample.b[order[lo:lo + _BLOCK_ROWS]].tolist()
        fh.write("".join(f"{bx!r} {by!r} {bz!r}\n" for bx, by, bz in rows))


WRITERS = {"csv": write_csv, "jsonl": write_jsonl, "vtk": write_vtk}
