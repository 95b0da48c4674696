import dataclasses
import math

import numpy as np
import pytest

from knotfield.geometry import canonical_figure_eight, canonical_trefoil, segments
from knotfield.biot_savart import OnConductorError, segment_field, total_field
from knotfield.transcription import (
    TERM_TABLES,
    discrepancy_ledger,
    eval_transcribed,
    term_values,
)
from knotfield.verification import random_clear_point


def test_term_counts():
    assert {c: len(t) for c, t in TERM_TABLES["3_1"].items()} == \
        {"Bx": 8, "By": 8, "Bz": 8}
    assert {c: len(t) for c, t in TERM_TABLES["4_1"].items()} == \
        {"Bx": 10, "By": 8, "Bz": 10}


def test_trefoil_bx_term1_frozen_value():
    # First printed Bx term at (0, 0, 1): -(1/37) * (4/sqrt(53) - 2/sqrt(41)).
    vals = term_values("3_1", [(0.0, 0.0, 1.0)])
    expect = -(1.0 / 37.0) * (4.0 / math.sqrt(53.0) - 2.0 / math.sqrt(41.0))
    assert vals["Bx"][0, 0] == pytest.approx(expect, rel=1e-14)


def test_trefoil_bx_term1_vanishes_at_z0():
    vals = term_values("3_1", [(1.0, 2.5, 0.0)])
    assert vals["Bx"][0, 0] == 0.0


def test_singular_denominator_raises():
    # (6, 3, 0) sits on the axis line of the y-stick at (x, z) = (6, 0).
    with pytest.raises(OnConductorError):
        eval_transcribed("3_1", (6.0, 3.0, 0.0))


@pytest.mark.parametrize("point, distance", [
    ((2.0001, 2.0, 3.0), 1e-4),     # beside trefoil stick 1, (2,2,0)->(2,2,6)
    ((2.0, 2.0, 10.0), 4.0),        # on stick 1's axis extension, 4 beyond its end
])
def test_singular_point_reports_true_distance_and_stick(point, distance):
    with pytest.raises(OnConductorError) as err:
        eval_transcribed("3_1", point)
    assert err.value.segment_index == 1
    assert err.value.distance == pytest.approx(distance, rel=1e-9)
    assert f"is {distance:.3g} from the conductor (segment 1)" in str(err.value)


EXPECTED_FLAGS = {
    "3_1": {
        ("By", 3): "sign_flipped",
        ("Bz", 2): "mismatch",
        ("Bz", 3): "sign_flipped",
    },
    "4_1": {
        ("Bx", 6): "sign_flipped",
        ("Bx", 7): "mismatch",      # bracket endpoint printed 8, stick ends at 10
        ("Bx", 9): "sign_flipped",
        ("By", 1): "sign_flipped",
        ("By", 8): "mismatch",      # wrong bracket endpoint and sign
        ("Bz", 2): "mismatch",      # radicand printed with (6-x)^2 for (4-x)^2
        ("Bz", 9): "mismatch",      # bracket endpoint printed 8, stick ends at 10
    },
}

EXPECTED_COUNTS = {
    "3_1": {"total": 24, "exact": 21, "sign_flipped": 2, "mismatch": 1, "unmatched": 0},
    "4_1": {"total": 28, "exact": 21, "sign_flipped": 3, "mismatch": 4, "unmatched": 0},
}


@pytest.mark.parametrize("label", ["3_1", "4_1"])
def test_ledger_counts(label):
    ledger = discrepancy_ledger(label)
    assert ledger.counts == EXPECTED_COUNTS[label]


@pytest.mark.parametrize("label", ["3_1", "4_1"])
def test_ledger_flagged_terms(label):
    ledger = discrepancy_ledger(label)
    flags = {(e.component, e.index): e.status for e in ledger.flagged}
    assert flags == EXPECTED_FLAGS[label]


@pytest.mark.parametrize("label", ["3_1", "4_1"])
def test_every_term_matched_to_unique_segment(label):
    ledger = discrepancy_ledger(label)
    assert all(e.segment_index is not None for e in ledger.entries)
    # Each stick contributes to exactly two components, so its index must
    # appear exactly twice across the ledger.
    per_segment = {}
    for e in ledger.entries:
        per_segment[e.segment_index] = per_segment.get(e.segment_index, 0) + 1
    n_sticks = {"3_1": 12, "4_1": 14}[label]
    assert per_segment == {i: 2 for i in range(1, n_sticks + 1)}


@pytest.mark.parametrize("label,builder", [("3_1", canonical_trefoil),
                                           ("4_1", canonical_figure_eight)])
def test_exact_terms_equal_engine_contributions(label, builder):
    knot = builder()
    segs = segments(knot)
    ledger = discrepancy_ledger(label)
    status = {(e.component, e.index): e for e in ledger.entries if e.index}
    rng = np.random.default_rng(5)
    pts = np.array([random_clear_point(rng, segs, margin=3.0, clearance=1.0)
                    for _ in range(20)])
    vals = term_values(label, pts)
    checked = 0
    for comp_i, comp in enumerate(("Bx", "By", "Bz")):
        for t_idx in range(len(TERM_TABLES[label][comp])):
            entry = status[(comp, t_idx + 1)]
            if entry.status != "exact":
                continue
            seg = segs[entry.segment_index - 1]
            for p_i, p in enumerate(pts):
                engine = segment_field(seg, p)[comp_i]
                assert vals[comp][t_idx, p_i] == pytest.approx(engine, rel=1e-11, abs=1e-15)
                checked += 1
    assert checked >= 300


@pytest.mark.parametrize("label,builder", [("3_1", canonical_trefoil),
                                           ("4_1", canonical_figure_eight)])
def test_total_deviation_is_exactly_the_flagged_terms(label, builder):
    knot = builder()
    segs = segments(knot)
    ledger = discrepancy_ledger(label)
    rng = np.random.default_rng(9)
    p = random_clear_point(rng, segs, margin=3.0, clearance=1.0)
    diff = eval_transcribed(label, p) - total_field(knot, p)
    vals = term_values(label, p.reshape(1, 3))
    delta = np.zeros(3)
    for e in ledger.flagged:
        comp_i = ("Bx", "By", "Bz").index(e.component)
        seg = segs[e.segment_index - 1]
        delta[comp_i] += vals[e.component][e.index - 1, 0] - segment_field(seg, p)[comp_i]
    assert np.allclose(diff, delta, rtol=1e-9, atol=1e-14)


def test_corrupted_transcription_is_flagged():
    # Fault injection: flip the leading sign of a term known to be exact and
    # the ledger must flag exactly that one extra term.
    tables = {c: list(terms) for c, terms in TERM_TABLES["3_1"].items()}
    victim = tables["Bx"][0]
    assert discrepancy_ledger("3_1").entries[0].status == "exact"
    tables["Bx"][0] = dataclasses.replace(victim, sign=-victim.sign)
    tables = {c: tuple(t) for c, t in tables.items()}

    before = {(e.component, e.index): e.status for e in discrepancy_ledger("3_1").entries}
    after = {(e.component, e.index): e.status
             for e in discrepancy_ledger("3_1", tables=tables).entries}
    changed = {key for key in after if after[key] != before.get(key)}
    assert changed == {("Bx", 1)}
    assert after[("Bx", 1)] == "sign_flipped"


def test_eval_transcribed_is_pure():
    p = (1.25, -0.5, 7.0)
    assert np.array_equal(eval_transcribed("4_1", p), eval_transcribed("4_1", p))
