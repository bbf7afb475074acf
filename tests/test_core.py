import copy
import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belieffusion import core
from belieffusion import (
    FocalSet,
    FrameMismatchError,
    MassFunction,
    conflict,
    conjunctive,
    disjunctive,
    make_frame,
    vacuous,
    validate,
)

from conftest import (
    EX1,
    EX3,
    FRAME_AB,
    ZADEH,
    assert_masses_close,
    bba,
    conjunctive_oracle,
    disjunctive_oracle,
    labelled,
    random_bba,
)


class TestFrame:
    def test_construction(self):
        assert make_frame(["A", "B"]).size == 2
        assert make_frame(["A", "B", "C"]).size == 3

    def test_duplicate_label(self):
        with pytest.raises(ValueError, match="'A'"):
            make_frame(["A", "A"])

    def test_empty_label(self):
        with pytest.raises(ValueError):
            make_frame(["A", ""])

    def test_no_labels(self):
        with pytest.raises(ValueError):
            make_frame([])

    def test_stable_indexing(self):
        f = make_frame(["B", "A"])
        assert f.index("B") == 0
        assert f.index("A") == 1


class TestFocalSet:
    def test_set_algebra(self):
        f = make_frame(["A", "B", "C"])
        ab = f.subset(["A", "B"])
        bc = f.subset(["B", "C"])
        assert (ab & bc) == f.subset(["B"])
        assert (ab | bc) == f.full_set()
        assert ab.cardinality == 2
        assert f.empty_set().is_empty
        assert f.full_set().is_full()

    def test_wide_frame(self):
        # Bit vectors are plain ints, so widths beyond a machine word work.
        f = make_frame([f"t{i}" for i in range(135)])
        s = f.subset_of_indices([0, 64, 134])
        assert s.cardinality == 3
        assert s.contains(134)
        assert (s & f.singleton(64)) == f.singleton(64)

    def test_indices_of_top_bit_only(self):
        assert list(FocalSet(1 << 134, 135).indices()) == [134]

    @pytest.mark.parametrize("width", [1, 8, 64, 65, 135])
    def test_indices_ascending(self, width):
        rng = random.Random(width)
        for bits in [(1 << width) - 1, rng.getrandbits(width), rng.getrandbits(width)]:
            expected = [i for i in range(width) if bits >> i & 1]
            assert list(FocalSet(bits, width).indices()) == expected

    def test_width_mismatch(self):
        with pytest.raises(FrameMismatchError):
            FocalSet(1, 2) & FocalSet(1, 3)

    def test_needs_a_positive_width(self):
        with pytest.raises(ValueError, match="positive frame width"):
            FocalSet(0, 0)

    @pytest.mark.parametrize("bits", [8, -1])
    def test_bits_outside_the_frame(self, bits):
        with pytest.raises(ValueError, match="outside its frame"):
            FocalSet(bits, 3)

    def test_index_outside_the_frame(self):
        with pytest.raises(IndexError):
            make_frame("ABC").subset_of_indices([3])

    def test_members_of_another_frame(self):
        with pytest.raises(FrameMismatchError):
            FocalSet(1, 2).members(make_frame("ABC"))

    def test_labelling(self):
        f = make_frame(["A", "B"])
        assert f.subset(["A", "B"]).label(f) == "A∪B"
        assert f.empty_set().label(f) == "∅"


class TestValidate:
    def test_ok(self):
        assert validate(EX1[0]).ok

    def test_mass_deficit(self):
        m = bba(FRAME_AB, {"A": 0.5})
        report = validate(m)
        assert not report.ok
        assert any("0.5" in v for v in report.violations)

    def test_open_world_conjunctive_output(self):
        m = bba(FRAME_AB, {"": 0.18, "A": 0.42, "B": 0.12, "AB": 0.28}, open_world=True)
        assert validate(m).ok

    def test_closed_world_rejects_empty_mass(self):
        m = bba(FRAME_AB, {"": 0.18, "A": 0.82}, open_world=True)
        closed = MassFunction(FRAME_AB, m.entries, open_world=False)
        assert not validate(closed).ok

    def test_negative_mass(self):
        m = MassFunction(FRAME_AB, {FRAME_AB.subset(["A"]): 1.2, FRAME_AB.subset(["B"]): -0.2})
        report = validate(m)
        assert not report.ok

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mass(self, bad):
        m = MassFunction(FRAME_AB, {FRAME_AB.subset(["A"]): bad})
        report = validate(m)
        assert not report.ok
        assert any("non-finite" in v for v in report.violations)

    def test_scans_masses_without_building_entries(self):
        width = 135
        frame = make_frame([f"h{i}" for i in range(width)])
        rng = random.Random(11)
        entries = {FocalSet(rng.getrandbits(width) | 1 << 40, width): 1e-4 for _ in range(2000)}
        entries[frame.subset(["h0", "h3"])] = math.nan
        entries[frame.subset(["h7"])] = -0.25
        entries[frame.subset(["h1", "h2", "h134"])] = math.inf
        m = MassFunction(frame, entries)
        report = validate(m)
        assert "entries" not in m.__dict__
        assert report.violations == (
            "non-finite mass nan on h0∪h3",
            "negative mass -0.25 on h7",
            "non-finite mass inf on h1∪h2∪h134",
        )

    def test_zero_masses_never_stored(self):
        m = MassFunction(FRAME_AB, {FRAME_AB.subset(["A"]): 1.0, FRAME_AB.subset(["B"]): 0.0})
        assert FRAME_AB.subset(["B"]) not in m.entries


class TestMassFunctionStorage:
    def test_entries_view_is_focal_set_keyed_in_insertion_order_and_built_once(self):
        a, b, ab = FRAME_AB.subset(["A"]), FRAME_AB.subset(["B"]), FRAME_AB.full_set()
        m = MassFunction(FRAME_AB, {ab: 0.25, a: 0.5, b: 0.25})
        assert list(m.entries.items()) == [(ab, 0.25), (a, 0.5), (b, 0.25)]
        assert m.entries is m.entries
        # Read-only, so it cannot disagree with the table the rules read.
        with pytest.raises(TypeError):
            m.entries[b] = 0.5
        assert m.mass(b) == 0.25 and validate(m).ok
        # The cached view is left out of the state, so a read one still copies.
        for again in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert again._table == m._table and again.entries == m.entries

    def test_zero_masses_dropped_from_int_tables(self):
        m = core._mass(FRAME_AB, {0b11: 0.0, 0b01: 1.0, 0b10: -0.0})
        assert m._table == {0b01: 1.0}
        assert list(m.entries) == [FRAME_AB.subset(["A"])]

    def test_width_mismatch_raises(self):
        wide = make_frame(["A", "B", "C"]).subset(["A"])
        with pytest.raises(FrameMismatchError):
            MassFunction(FRAME_AB, {wide: 1.0})

    def test_equality_compares_frame_masses_and_open_world(self):
        a, ab = FRAME_AB.subset(["A"]), FRAME_AB.full_set()
        m = MassFunction(FRAME_AB, {a: 0.5, ab: 0.5})
        assert m == MassFunction(FRAME_AB, {ab: 0.5, a: 0.5, FRAME_AB.subset(["B"]): 0.0})
        assert m == core._mass(FRAME_AB, {0b11: 0.5, 0b01: 0.5})
        assert m != MassFunction(FRAME_AB, {a: 0.5, ab: 0.5}, open_world=True)
        assert m != MassFunction(FRAME_AB, {a: 0.25, ab: 0.75})
        other = make_frame(["X", "Y"])
        assert m != MassFunction(other, {other.subset(["X"]): 0.5, other.full_set(): 0.5})

    def test_not_close_across_frames(self):
        other = make_frame(["X", "Y"])
        assert not vacuous(FRAME_AB).is_close_to(vacuous(other))

    def test_items_in_ascending_bit_order(self):
        f = make_frame(["A", "B", "C"])
        m = core._mass(f, {0b111: 0.25, 0b001: 0.25, 0b110: 0.25, 0b010: 0.25})
        assert [fs.bits for fs, _ in m.items()] == [0b001, 0b010, 0b110, 0b111]
        assert [v for _, v in m.items()] == [0.25] * 4


class TestVacuous:
    def test_all_mass_on_theta(self):
        for labels in (["A", "B"], ["A", "B", "C"]):
            f = make_frame(labels)
            v = vacuous(f)
            assert v.mass(f.full_set()) == 1.0
            assert len(v.entries) == 1
            assert validate(v).ok


class TestConjunctive:
    def test_worked_example(self):
        out = conjunctive(*EX1)
        assert labelled(out) == pytest.approx(
            {"": 0.18, "A": 0.42, "B": 0.12, "AB": 0.28}, abs=1e-12
        )
        assert out.open_world
        assert math.isclose(out.total(), 1.0, abs_tol=1e-9)

    def test_third_example(self):
        out = conjunctive(*EX3)
        assert labelled(out) == pytest.approx(
            {"": 0.24, "A": 0.44, "B": 0.27, "AB": 0.05}, abs=1e-12
        )

    def test_vacuous_neutral(self):
        m = EX1[0]
        out = conjunctive(m, vacuous(FRAME_AB))
        assert out.mass(FRAME_AB.empty_set()) == 0.0
        assert out.is_close_to(m, tol=1e-12) or labelled(out) == labelled(m)

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            conjunctive(EX1[0], ZADEH[0])

    def test_rejects_open_world_input(self):
        with pytest.raises(ValueError):
            conjunctive(conjunctive(*EX1), EX1[0])


class TestDisjunctive:
    def test_second_example(self):
        # Frozen from the all-pairs enumeration oracle.
        from conftest import EX2

        out = disjunctive(*EX2)
        assert labelled(out) == pytest.approx({"A": 0.12, "AB": 0.88}, abs=1e-12)

    def test_vacuous_absorbs(self):
        out = disjunctive(EX1[0], vacuous(FRAME_AB))
        assert labelled(out) == pytest.approx({"AB": 1.0}, abs=1e-12)

    def test_high_conflict_inputs(self):
        out = disjunctive(*ZADEH)
        assert labelled(out) == pytest.approx(
            {"C": 0.01, "AB": 0.81, "AC": 0.09, "BC": 0.09}, abs=1e-12
        )
        assert not out.open_world
        assert validate(out).ok


class TestConflict:
    def test_worked_example(self):
        d = conflict(*EX1)
        assert d.total == pytest.approx(0.18, abs=1e-12)
        assert len(d.pairs) == 1
        x, y, product = d.pairs[0]
        assert x.label(FRAME_AB) == "A" and y.label(FRAME_AB) == "B"
        assert product == pytest.approx(0.18, abs=1e-12)

    def test_high_conflict(self):
        d = conflict(*ZADEH)
        assert d.total == pytest.approx(0.99, abs=1e-12)
        assert len(d.pairs) == 3

    def test_vacuous_no_conflict(self):
        d = conflict(EX1[0], vacuous(FRAME_AB))
        assert d.total == 0.0
        assert d.pairs == ()

    def test_total_matches_conjunctive_empty_mass(self):
        assert conflict(*EX3).total == pytest.approx(
            conjunctive(*EX3).mass(FRAME_AB.empty_set()), abs=1e-12
        )

    def test_pair_products_sum_to_total(self):
        d = conflict(*ZADEH)
        assert sum(p for _, _, p in d.pairs) == pytest.approx(d.total, abs=1e-9)

    def test_frozen(self):
        d = conflict(*EX1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.total = 0.0


# ---------------------------------------------------------------------------
# Randomized algebraic properties
# ---------------------------------------------------------------------------

_LABELS = ("A", "B", "C", "D")


@st.composite
def frame_and_bbas(draw, count=2):
    n = draw(st.integers(min_value=1, max_value=4))
    frame = make_frame(_LABELS[:n])
    bbas = []
    for _ in range(count):
        k = draw(st.integers(1, min(5, 2**n - 1)))
        bits = draw(
            st.lists(st.integers(1, 2**n - 1), min_size=k, max_size=k, unique=True)
        )
        weights = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0),
                min_size=len(bits),
                max_size=len(bits),
            )
        )
        total = sum(weights)
        entries = {
            FocalSet(b, n): w / total for b, w in zip(bits, weights)
        }
        bbas.append(MassFunction(frame, entries))
    return frame, bbas


@settings(max_examples=200, deadline=None)
@given(frame_and_bbas())
def test_commutativity(data):
    _, (m1, m2) = data
    assert conjunctive(m1, m2).is_close_to(conjunctive(m2, m1), tol=1e-12)
    assert disjunctive(m1, m2).is_close_to(disjunctive(m2, m1), tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(frame_and_bbas(count=3))
def test_associativity(data):
    frame, (m1, m2, m3) = data

    def strip_empty(m):
        return MassFunction(
            frame, {fs: v for fs, v in m.entries.items() if not fs.is_empty}
        )

    # Conflict absorbed to ∅ at different stages is dropped before chaining,
    # so associativity is asserted on the non-empty masses.
    left = conjunctive(strip_empty(conjunctive(m1, m2)), m3)
    right = conjunctive(m1, strip_empty(conjunctive(m2, m3)))
    keys = {fs for fs in set(left.entries) | set(right.entries) if not fs.is_empty}
    for fs in keys:
        assert abs(left.mass(fs) - right.mass(fs)) <= 1e-9
    assert disjunctive(disjunctive(m1, m2), m3).is_close_to(
        disjunctive(m1, disjunctive(m2, m3)), tol=1e-9
    )


@settings(max_examples=150, deadline=None)
@given(frame_and_bbas())
def test_base_operators_match_brute_force(data):
    _, (m1, m2) = data
    conj = conjunctive(m1, m2)
    assert_masses_close(conj, conjunctive_oracle(m1, m2), tol=1e-12)
    assert math.isclose(conj.total(), 1.0, abs_tol=1e-9)
    disj = disjunctive(m1, m2)
    assert_masses_close(disj, disjunctive_oracle(m1, m2), tol=1e-12)
    assert validate(disj).ok


@settings(max_examples=100, deadline=None)
@given(frame_and_bbas())
def test_conflict_equals_conjunctive_empty_mass(data):
    frame, (m1, m2) = data
    assert conflict(m1, m2).total == pytest.approx(
        conjunctive(m1, m2).mass(frame.empty_set()), abs=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(frame_and_bbas())
def test_conflict_total_is_the_ordered_sum_of_its_pairs(data):
    # total is summed over the disjoint pairs in (x, y) order, the order
    # pairs reports them in, so the two agree to the last bit.
    _, (m1, m2) = data
    d = conflict(m1, m2)
    keys = [(x.bits, y.bits) for x, y, _ in d.pairs]
    assert keys == sorted(keys)
    total = 0.0
    for _, _, product in d.pairs:
        total += product
    assert d.total == total


def test_random_dense_oracle_equivalence(rng):
    frame = make_frame(_LABELS)
    for _ in range(50):
        m1 = random_bba(rng, frame, dense=True)
        m2 = random_bba(rng, frame, dense=True)
        assert_masses_close(conjunctive(m1, m2), conjunctive_oracle(m1, m2), tol=1e-12)
        assert_masses_close(disjunctive(m1, m2), disjunctive_oracle(m1, m2), tol=1e-12)
