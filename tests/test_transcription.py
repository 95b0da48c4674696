import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from knotfield.geometry import (
    canonical_figure_eight,
    canonical_trefoil,
    refine,
    segments,
    stick_ends,
)
from knotfield.biot_savart import OnConductorError, segment_field, total_field, total_field_many
from knotfield.transcription import (
    TERM_TABLES,
    _derived_terms,
    _printed_terms,
    discrepancy_ledger,
    eval_transcribed,
)
from knotfield.verification import random_clear_point
from test_scan_oracle import braid_closures


def test_term_counts():
    assert {c: len(t) for c, t in TERM_TABLES["3_1"].items()} == \
        {"Bx": 8, "By": 8, "Bz": 8}
    assert {c: len(t) for c, t in TERM_TABLES["4_1"].items()} == \
        {"Bx": 10, "By": 8, "Bz": 10}


def test_trefoil_bx_term1_frozen_value():
    # First printed Bx term at (0, 0, 1): -(1/37) * (4/sqrt(53) - 2/sqrt(41)).
    vals, _ = _printed_terms(TERM_TABLES["3_1"], np.array([(0.0, 0.0, 1.0)]))
    expect = -(1.0 / 37.0) * (4.0 / math.sqrt(53.0) - 2.0 / math.sqrt(41.0))
    assert vals["Bx"][0, 0] == pytest.approx(expect, rel=1e-14)


def test_trefoil_bx_term1_vanishes_at_z0():
    vals, _ = _printed_terms(TERM_TABLES["3_1"], np.array([(1.0, 2.5, 0.0)]))
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
    vals, _ = _printed_terms(TERM_TABLES[label], pts)
    checked = 0
    for comp_i, comp in enumerate(("Bx", "By", "Bz")):
        for t_idx in range(len(TERM_TABLES[label][comp])):
            entry = status[(comp, t_idx + 1)]
            if entry.status != "exact":
                continue
            seg = segs[entry.segment_index - 1]
            for p_i, p in enumerate(pts):
                engine = segment_field(seg, p)[comp_i]
                assert vals[comp][p_i, t_idx] == pytest.approx(engine, rel=1e-11, abs=1e-15)
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
    vals, _ = _printed_terms(TERM_TABLES[label], p.reshape(1, 3))
    delta = np.zeros(3)
    for e in ledger.flagged:
        comp_i = ("Bx", "By", "Bz").index(e.component)
        seg = segs[e.segment_index - 1]
        delta[comp_i] += vals[e.component][0, e.index - 1] - segment_field(seg, p)[comp_i]
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


@pytest.mark.parametrize("label", ["3_1", "4_1"])
def test_batch_matches_one_point_calls_bit_for_bit(label):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3.0, 13.0, size=(300, 3))
    pts[::3, 2] = np.round(pts[::3, 2])         # zero numerators: signed zeros
    batch = eval_transcribed(label, pts)
    assert batch.shape == (300, 3)
    assert batch.tobytes() == np.array([eval_transcribed(label, p) for p in pts]).tobytes()


SINGULAR = [(2.0, 2.0, 10.0), (2.0001, 2.0, 3.0), (6.0, 3.0, 0.0)]


@pytest.mark.parametrize("first", range(len(SINGULAR)))
def test_batch_refuses_with_its_first_singular_points_error(first):
    clear = [(1.25, -0.5, 7.0), (9.5, 8.25, -1.5)]
    batch = clear[:1] + SINGULAR[first:] + SINGULAR[:first] + clear[1:]
    with pytest.raises(OnConductorError) as want:
        eval_transcribed("3_1", SINGULAR[first])
    with pytest.raises(OnConductorError) as got:
        eval_transcribed("3_1", batch)
    assert (got.value.point, got.value.distance, got.value.segment_index, str(got.value)) == \
        (want.value.point, want.value.distance, want.value.segment_index, str(want.value))


@st.composite
def lattice_knots(draw):
    """A braid closure of up to 20 letters, or a built-in knot refined by a
    factor of up to 1000, with its lattice spacing."""
    if draw(st.booleans()):
        return draw(braid_closures(max_letters=20)), 1
    knot, factor = draw(st.sampled_from((canonical_trefoil(), canonical_figure_eight()))), \
        draw(st.integers(1, 1000))
    return refine(knot, factor), factor


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(lattice_knots(), st.integers(0, 2**32 - 1))
def test_derived_terms_sum_to_the_engine_field(case, seed):
    """The paper's method holds for every lattice knot: one printed-shape term
    per stick per transverse component sums to the superposed field, at
    points in the inflated bounding box at least 0.05 lattice spacings from
    every stick's axis line, half of them within 0.5 of one such line."""
    knot, spacing = case
    starts, ends = stick_ends(knot)
    axis = np.argmax(ends != starts, axis=1)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(starts.min(0) - 3.0, starts.max(0) + 3.0, size=(50, 3))
    stick = rng.integers(0, len(starts), size=25)
    across = (axis[stick, None] + [1, 2]) % 3                   # each stick's transverse axes
    radius, angle = spacing * rng.uniform(0.05, 0.5, size=25), rng.uniform(0.0, 2 * np.pi, size=25)
    pts[np.arange(25)[:, None], across] = starts[stick[:, None], across] + \
        radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    offsets = pts[:, None, :] - starts[None]
    offsets[:, np.arange(len(starts)), axis] = 0.0
    pts = pts[np.sqrt((offsets ** 2).sum(axis=2)).min(axis=1) >= 0.05 * spacing]
    vals, near = _printed_terms(_derived_terms(knot), pts)
    assert not near.any()
    derived = np.stack([vals[c].sum(axis=1) for c in ("Bx", "By", "Bz")], axis=1)
    engine, _ = total_field_many(knot, pts)
    assert np.all(np.abs(derived - engine)
                  <= 1e-12 * np.linalg.norm(engine, axis=1, keepdims=True))
