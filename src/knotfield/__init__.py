"""Exact magnetic fields of knotted lattice circuits.

Build closed axis-aligned current circuits on the cubic lattice (by hand,
from the built-in minimal trefoil / figure-eight, or by closing a braid
word), evaluate their fields by closed-form superposition of finite-stick
contributions, and verify the topology of the result: the field is a flat
connection on the knot complement whose holonomy around any loop is
4*pi*k times the loop's linking number with the circuit.
"""

__version__ = "0.1.0"

from .geometry import (
    Axis,
    LatticeKnot,
    LatticePoint,
    Segment,
    ValidationReport,
    bounding_box,
    canonical_figure_eight,
    canonical_trefoil,
    parse_knot_text,
    read_knot_file,
    refine,
    segments,
    validate,
)
from .biot_savart import (
    FieldError,
    FieldVector,
    OnConductorError,
    QuadratureError,
    segment_field,
    segment_field_quadrature,
    total_field,
    total_field_many,
)
from .topology import (
    HolonomyResult,
    LinkingPrecisionError,
    Loop,
    LoopOnConductorError,
    holonomy,
    linking_number,
    loop_clearance,
    read_loop_file,
    write_loop_file,
)
from .braids import (
    BraidParseError,
    BraidWord,
    EmbeddingPlan,
    MultiComponentError,
    PlacementError,
    close_braid_on_lattice,
    crossing_count,
    format_braid,
    parse_braid,
    permutation_cycles,
    plan_embedding,
    projection_crossings,
    writhe,
)
from .transcription import (
    TranscriptionLedger,
    discrepancy_ledger,
    eval_transcribed,
)
from .sampling import FieldSample, GridSpec, sample_field
from .verification import run_verification

__all__ = [name for name in dir() if not name.startswith("_")]
