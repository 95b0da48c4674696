import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knotfield.geometry import Axis, LatticeKnot, bounding_box, refine, validate
from knotfield.braids import (
    BraidParseError,
    BraidWord,
    MultiComponentError,
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
        assert permutation_cycles(parse_braid("s1 s1 s1")) == ((0, 1),)
        assert permutation_cycles(parse_braid("s1 s1")) == ((0,), (1,))

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


class TestLongWords:
    """Closures large enough that a pairwise self-check would take seconds."""

    def test_torus_knots_t2n(self):
        for n in range(1, 200, 2):
            word = parse_braid(" ".join(["s1"] * n))
            knot = close_braid_on_lattice(word)
            assert validate(knot).ok
            crossings = projection_crossings(knot)
            assert len(crossings) == n
            assert sum(c.sign for c in crossings) == n

    def test_300_letter_word(self):
        rng = np.random.default_rng(300)
        while True:
            word = BraidWord(3, tuple((int(rng.integers(1, 3)), int(rng.choice((-1, 1))))
                                      for _ in range(300)))
            if len(permutation_cycles(word)) == 1:
                break
        knot = close_braid_on_lattice(word)
        assert validate(knot).ok
        crossings = projection_crossings(knot)
        assert len(crossings) == crossing_count(word) == 300
        assert sum(c.sign for c in crossings) == writhe(word)

    def test_projection_refuses_coordinates_beyond_int64(self):
        # As float64, x = 2**63 and 2**63 + 1 would merge into a false overlap.
        big = 2**63
        knot = LatticeKnot(vertices=((big, 0, 0), (big + 1, 0, 0), (big + 1, 0, 2), (big, 0, 2)))
        with pytest.raises(ValueError, match=re.escape(
                f"vertex 0 ({big}, 0, 0) has a coordinate outside the int64 range")):
            projection_crossings(knot)

    @pytest.mark.parametrize("c", [True, 1.0], ids=["True-bool", "1.0-float64"])
    def test_projection_refuses_non_integer_coordinates(self, c):
        # np.array of these vertices is int64 when c is True: only the
        # coordinate's own type shows that it is not an int.
        knot = LatticeKnot(vertices=((0, 0, 0), (c, 0, 0), (1, 1, 0), (0, 1, 0)))
        with pytest.raises(ValueError, match=re.escape(f"vertex 1 ({c}, 0, 0) has non-integer "
                                                       "coordinates") + "$"):
            projection_crossings(knot, Axis.Z)

    def test_refined_40_letter_closure_validates(self):
        rng = np.random.default_rng(40)
        while True:
            word = BraidWord(3, tuple((int(rng.integers(1, 3)), int(rng.choice((-1, 1))))
                                      for _ in range(40)))
            if len(permutation_cycles(word)) == 1:
                break
        knot = close_braid_on_lattice(word)
        assert validate(refine(knot, 1000)).ok
        assert len(projection_crossings(refine(knot, 1000))) == 40


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

    @settings(max_examples=30, deadline=None)
    @given(word=knotted_words())
    def test_letter_sign_picks_the_strand_behind(self, word):
        # Letter j's tile starts at x = 4j; its first back-face vertex in flow
        # order is where the strand behind leaves its height: 2 gi for a
        # positive letter, whose lower strand goes behind, 2 gi + 2 otherwise.
        plan, knot = plan_embedding(word), close_braid_on_lattice(word)
        back = [v for v in knot.vertices if v[1] == plan.back_y]
        for j, (gi, sign) in enumerate(word.letters):
            first = next(v for v in back if 4 * j < v[0] < 4 * j + 4)
            assert first == (4 * j + 1, plan.back_y, 2 * gi if sign > 0 else 2 * gi + 2)

    @settings(max_examples=30, deadline=None)
    @given(word=knotted_words())
    def test_back_face_visits_stay_in_their_letters_tiles(self, word):
        # Each letter sends one strand behind for one run of 4 vertices, all
        # strictly inside the letter's tile x = 4j .. 4j + 4.
        plan, knot = plan_embedding(word), close_braid_on_lattice(word)
        assert plan.back_y - plan.front_y >= 2
        v, m = knot.vertices, len(knot.vertices)
        on_back = [p[1] == plan.back_y for p in v]
        assert set(p[1] for p in v) == {plan.front_y, plan.back_y}
        tiles = []
        for k in (k for k in range(m) if on_back[k] and not on_back[k - 1]):
            assert [on_back[(k + d) % m] for d in range(5)] == [True] * 4 + [False]
            j = v[k][0] // 4
            assert all(4 * j < v[(k + d) % m][0] < 4 * j + 4 for d in range(4))
            tiles.append(j)
        assert sorted(tiles) == list(range(len(word.letters)))

    @settings(max_examples=30, deadline=None)
    @given(word=knotted_words())
    def test_closure_arcs_return_at_the_plan_levels(self, word):
        # The flow runs toward -x only along the tops of the closure arcs,
        # on the front face, one arc per strand; each top a -> b descends to
        # c at the height 2 (s + 1) of the slot s it returns the strand to.
        plan, knot = plan_embedding(word), close_braid_on_lattice(word)
        v, m = knot.vertices, len(knot.vertices)
        arcs = [(v[k], v[(k + 1) % m], v[(k + 2) % m]) for k in range(m)
                if v[(k + 1) % m][0] < v[k][0]]
        assert len(arcs) == plan.strands == len(set(plan.closure_levels))
        for a, b, c in arcs:
            assert a[1] == b[1] == c[1] == plan.front_y and a[2] == b[2]
            assert plan.closure_levels[c[2] // 2 - 1] == a[2]


def _seeded_words(seed, count):
    """count words of 2-5 strands and 0-30 letters from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        yield BraidWord(n, tuple((int(rng.integers(1, n)), int(rng.choice((-1, 1))))
                                 for _ in range(int(rng.integers(0, 31)))))


def test_closures_and_refusals_pinned():
    # SHA-256 of each closure's name and vertices, and of each link's
    # MultiComponentError message, over 500 seeded words (151 are knots):
    # the layout, its corner order and its refusals, bit for bit.
    closures, refusals = hashlib.sha256(), hashlib.sha256()
    for word in _seeded_words(500, 500):
        try:
            knot = close_braid_on_lattice(word)
        except MultiComponentError as exc:
            refusals.update(f"{exc}\n".encode())
        else:
            closures.update(f"{knot.name} {knot.vertices}\n".encode())
    assert (closures.hexdigest(), refusals.hexdigest()) == (
        "e74430b5c364aa020dbcbee1990285771bf781140886690b71fc191dfd116717",
        "e5d739d87d0fdc362487466941959614af461ed8f968350de03cc52fc0f9e114")


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
