import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knotfield.geometry import bounding_box, validate
from knotfield.braids import (
    BraidParseError,
    BraidWord,
    MultiComponentError,
    braid_permutation,
    close_braid_on_lattice,
    crossing_count,
    format_braid,
    parse_braid,
    permutation_cycles,
    plan_embedding,
    projection_crossings,
    writhe,
)
from knotfield.topology import holonomy, linking_number
from knotfield.verification import random_rect_loop


class TestParser:
    def test_trefoil_word(self):
        w = parse_braid("s1 s1 s1")
        assert w.strands == 2
        assert w.letters == ((1, 1), (1, 1), (1, 1))

    def test_figure_eight_word(self):
        w = parse_braid("s1 s2^-1 s1 s2^-1")
        assert w.strands == 3
        assert w.letters == ((1, 1), (2, -1), (1, 1), (2, -1))

    def test_empty_word_is_identity_on_two_strands(self):
        w = parse_braid("")
        assert w.strands == 2
        assert w.letters == ()

    def test_signed_integer_shorthand(self):
        assert parse_braid("1 -2 1 -2") == parse_braid("s1 s2^-1 s1 s2^-1")

    def test_prime_marks_inverse(self):
        assert parse_braid("s2'") == parse_braid("s2^-1")

    def test_explicit_strand_count(self):
        assert parse_braid("s1", strands=4).strands == 4

    def test_strand_count_too_small_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_braid("s3", strands=3)

    def test_index_zero_rejected(self):
        with pytest.raises(BraidParseError) as err:
            parse_braid("s1 s0")
        assert err.value.offset == 3

    def test_unknown_token_offset(self):
        with pytest.raises(BraidParseError) as err:
            parse_braid("s1  q2")
        assert err.value.offset == 4

    def test_malformed_exponent(self):
        with pytest.raises(BraidParseError, match="exponent") as err:
            parse_braid("s1^2")
        assert err.value.offset == 2

    def test_format_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            letters = tuple(
                (int(rng.integers(1, n)), 1 if rng.random() < 0.5 else -1)
                for _ in range(int(rng.integers(0, 12)))
            )
            word = BraidWord(strands=n, letters=letters)
            assert parse_braid(format_braid(word), strands=n) == word


class TestDiagnostics:
    def test_counts_and_writhe(self):
        w = parse_braid("s1 s1 s1")
        assert crossing_count(w) == 3 and writhe(w) == 3
        w8 = parse_braid("s1 s2^-1 s1 s2^-1")
        assert crossing_count(w8) == 4 and writhe(w8) == 0
        e = parse_braid("")
        assert crossing_count(e) == 0 and writhe(e) == 0
        neg = parse_braid("s1^-1 s1^-1 s1^-1")
        assert writhe(neg) == -3

    def test_permutation(self):
        assert braid_permutation(parse_braid("s1 s1 s1")) == (1, 0)
        assert braid_permutation(parse_braid("s1 s1")) == (0, 1)

    def test_cycles(self):
        assert len(permutation_cycles(parse_braid("s1 s1 s1"))) == 1
        assert len(permutation_cycles(parse_braid("s1 s1"))) == 2
        assert len(permutation_cycles(parse_braid("s1", strands=3))) == 2


class TestClosure:
    def test_trefoil_braid_closes_to_valid_knot(self):
        knot = close_braid_on_lattice(parse_braid("s1 s1 s1"))
        assert validate(knot).ok
        crossings = projection_crossings(knot)
        assert len(crossings) == 3
        assert sum(c.sign for c in crossings) == 3

    def test_figure_eight_braid_closes_to_valid_knot(self):
        knot = close_braid_on_lattice(parse_braid("s1 s2^-1 s1 s2^-1"))
        assert validate(knot).ok
        crossings = projection_crossings(knot)
        assert len(crossings) == 4
        assert sum(c.sign for c in crossings) == 0

    def test_mirror_trefoil_writhe(self):
        knot = close_braid_on_lattice(parse_braid("s1^-1 s1^-1 s1^-1"))
        crossings = projection_crossings(knot)
        assert sum(c.sign for c in crossings) == -3

    def test_hopf_link_rejected(self):
        with pytest.raises(MultiComponentError) as err:
            close_braid_on_lattice(parse_braid("s1 s1"))
        assert len(err.value.cycles) == 2

    def test_identity_braid_rejected(self):
        with pytest.raises(MultiComponentError):
            close_braid_on_lattice(parse_braid(""))

    def test_larger_words_close_and_scan(self):
        rng = np.random.default_rng(2)
        built = 0
        for _ in range(60):
            n = int(rng.integers(2, 5))
            letters = tuple(
                (int(rng.integers(1, n)), 1 if rng.random() < 0.5 else -1)
                for _ in range(int(rng.integers(1, 9)))
            )
            word = BraidWord(strands=n, letters=letters)
            if len(permutation_cycles(word)) != 1:
                continue
            knot = close_braid_on_lattice(word)   # self-validates the layout
            crossings = projection_crossings(knot)
            assert len(crossings) == crossing_count(word)
            assert sum(c.sign for c in crossings) == writhe(word)
            built += 1
        assert built >= 12

    def test_crossings_are_over_under_consistent(self):
        knot = close_braid_on_lattice(parse_braid("s1 s1 s1"))
        v = knot.vertices
        for c in projection_crossings(knot):
            y_over = v[c.over_edge][1]
            y_under = v[c.under_edge][1]
            assert y_over < y_under     # viewer sits at y = -infinity


def _components_by_union_find(word):
    """Component count of the closure via union-find over strand-arc nodes.

    Nodes are (boundary, slot) positions between letters; each letter fuses
    the two swapping arcs across its boundary, everything else passes
    straight through, and the closure fuses each right end to the left end
    at the same height.  Independent of the permutation-composition route.
    """
    n, m = word.strands, len(word.letters)
    parent = {(t, s): (t, s) for t in range(m + 1) for s in range(n)}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for t, (gi, _sign) in enumerate(word.letters):
        i = gi - 1
        union((t, i), (t + 1, i + 1))
        union((t, i + 1), (t + 1, i))
        for s in range(n):
            if s not in (i, i + 1):
                union((t, s), (t + 1, s))
    for s in range(n):
        union((m, s), (0, s))
    return len({find((0, s)) for s in range(n)})


def test_permutation_cycles_agree_with_union_find():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        letters = tuple(
            (int(rng.integers(1, n)), 1 if rng.random() < 0.5 else -1)
            for _ in range(int(rng.integers(0, 10)))
        )
        word = BraidWord(strands=n, letters=letters)
        assert len(permutation_cycles(word)) == _components_by_union_find(word)


@st.composite
def knotted_words(draw):
    """Braid words on 2-4 strands whose closure is a knot by construction.

    Every generator once, in any order, permutes the strands in one cycle;
    inserted pairs s_i^a s_i^b permute nothing, so the closure stays a knot.
    """
    strands = draw(st.integers(2, 4))
    sign = st.sampled_from((-1, 1))
    letters = [(gi, draw(sign)) for gi in draw(st.permutations(range(1, strands)))]
    for _ in range(draw(st.integers(0, 3))):
        gi, at = draw(st.integers(1, strands - 1)), draw(st.integers(0, len(letters)))
        letters[at:at] = [(gi, draw(sign)), (gi, draw(sign))]
    return BraidWord(strands, tuple(letters))


class TestEmbeddingPlan:
    @settings(max_examples=30, deadline=None)
    @given(word=knotted_words())
    def test_plan_bounds_the_built_knot(self, word):
        assert bounding_box(close_braid_on_lattice(word)) == plan_embedding(word).bounding_box

    def test_placements_disjoint_and_faces_separated(self):
        plan = plan_embedding(parse_braid("s1 s2^-1 s1 s2^-1"))
        assert plan.back_y - plan.front_y >= 2
        intervals = [p.x_interval for p in plan.placements]
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 <= a2
        assert len(plan.closure_levels) == plan.strands
        assert len(set(plan.closure_levels)) == plan.strands

    def test_positive_letter_migrates_lower_strand(self):
        plan = plan_embedding(parse_braid("s1 s1^-1"))
        assert plan.placements[0].migrates_lower
        assert not plan.placements[1].migrates_lower


class TestBuiltKnotTopology:
    def test_braid_trefoil_holonomy_matches_linking(self):
        knot = close_braid_on_lattice(parse_braid("s1 s1 s1"))
        rng = np.random.default_rng(4)
        import math
        for i in range(5):
            loop = random_rect_loop(rng, knot, clearance=0.5, name=f"l{i}")
            res = holonomy(knot, loop, tol=1e-6)
            lk = linking_number(knot, loop)
            assert abs(res.value - 4.0 * math.pi * lk) < 1e-5 * max(1.0, abs(res.value))
