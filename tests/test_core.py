import copy
import itertools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belieffusion import core
from belieffusion import (
    FocalSet,
    Frame,
    FrameMismatchError,
    MassFunction,
    PignisticDistribution,
    betp,
    conflict,
    conjunctive,
    decide,
    disjunctive,
    inagaki_generic,
    make_frame,
    pcr,
    vacuous,
    validate,
)

from conftest import (
    EX1,
    EX3,
    FRAME_AB,
    SKEWED,
    ZADEH,
    assert_masses_close,
    bba,
    conjunctive_oracle,
    disjunctive_oracle,
    labelled,
    random_bba,
    random_coarsening,
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

    def test_built_from_a_list_is_the_frame_make_frame_builds(self):
        # A list must be stored as a tuple: a frame holding the list is unhashable
        # and unequal to make_frame's, so fusing bbas on the two would raise
        # FrameMismatchError.
        direct, made = Frame(["A", "B"]), make_frame(["A", "B"])
        assert direct.labels == ("A", "B")
        assert direct == made and hash(direct) == hash(made)
        fused = pcr(bba(direct, {"A": 0.6, "B": 0.4}), bba(made, {"A": 0.3, "B": 0.7}))
        assert validate(fused).ok

    def test_stable_indexing(self):
        f = make_frame(["B", "A"])
        assert f.index("B") == 0
        assert f.index("A") == 1

    @pytest.mark.parametrize("mask", [-2, 0b100])
    def test_mask_outside_the_labels_rejected(self, mask):
        with pytest.raises(ValueError, match="not a set of the frame's labels"):
            Frame("ab", [mask])


class TestFocalSet:
    def test_set_algebra(self):
        f = make_frame(["A", "B", "C"])
        ab = f.subset(["A", "B"])
        bc = f.subset(["B", "C"])
        assert ab.bits & bc.bits == f.subset(["B"]).bits
        assert ab.bits | bc.bits == f.full_set().bits
        assert ab.cardinality == 2
        assert f.empty_set().is_empty
        assert f.full_set().bits == 0b111

    def test_wide_frame(self):
        # Bit vectors are plain ints, so widths beyond a machine word work.
        f = make_frame([f"t{i}" for i in range(135)])
        s = f.subset_of_indices([0, 64, 134])
        assert s.cardinality == 3
        assert s.bits >> 134 & 1
        assert list(s.indices()) == [0, 64, 134]

    def test_indices_of_top_bit_only(self):
        assert list(FocalSet(1 << 134, 135).indices()) == [134]

    @pytest.mark.parametrize("width", [1, 8, 64, 65, 135])
    def test_indices_ascending(self, width):
        rng = random.Random(width)
        for bits in [(1 << width) - 1, rng.getrandbits(width), rng.getrandbits(width)]:
            expected = [i for i in range(width) if bits >> i & 1]
            assert list(FocalSet(bits, width).indices()) == expected

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

    @pytest.mark.parametrize("bad", ["1", True, False, None], ids=["str", "true", "false", "none"])
    def test_mass_that_is_not_a_number(self, bad):
        with pytest.raises(TypeError, match=f"mass on A must be a number, not {bad!r}"):
            MassFunction(FRAME_AB, {FRAME_AB.subset(["A"]): bad})

    @pytest.mark.parametrize("value", [1, np.float64(1.0), np.float32(1.0)])
    def test_mass_of_another_numeric_type(self, value):
        m = MassFunction(FRAME_AB, {FRAME_AB.subset(["A"]): value})
        assert m._table == {1: 1.0} and type(m._table[1]) is float

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

    def test_set_from_another_frame_raises_whatever_its_mass(self):
        for foreign in (0.0, -0.0):
            weights = {FocalSet(1, 3): foreign, FRAME_AB.full_set(): 1.0}
            with pytest.raises(FrameMismatchError):
                MassFunction(FRAME_AB, weights)
            with pytest.raises(FrameMismatchError):
                inagaki_generic(*EX1, weights)

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


class TestRecords:
    """The records are plain classes, so what a frozen dataclass gave them for
    free is pinned here: the reprs below were recorded from the dataclasses."""

    A, AB = FRAME_AB.subset(["A"]), FRAME_AB.full_set()

    def records(self):
        m = MassFunction(FRAME_AB, {self.A: 0.5, self.AB: 0.5})
        assert len(m.entries) == 2  # read first: the cached view must not break copying
        d = conflict(m, bba(FRAME_AB, {"B": 1.0}))
        return [FRAME_AB, self.A, m, validate(m), d]

    def test_reprs(self):
        assert [repr(r) for r in self.records()] == [
            "Frame(labels=('A', 'B'))",
            "FocalSet(bits=1, width=2)",
            "MassFunction(frame=Frame(labels=('A', 'B')), _table={1: 0.5, 3: 0.5}, "
            "open_world=False)",
            "ValidationReport(ok=True, violations=())",
            "ConflictDecomposition(total=0.5, pairs=((FocalSet(bits=1, width=2), "
            "FocalSet(bits=2, width=2), 0.5),))",
        ]

    def test_pickle_and_deepcopy_round_trip(self):
        for record in self.records():
            for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
                assert type(again) is type(record) and again == record
                assert repr(again) == repr(record)

    def test_fields_cannot_be_set_or_deleted(self):
        frame, fs, m, report, d = self.records()
        fields = [(frame, "labels"), (frame, "size"), (fs, "bits"), (fs, "extra"),
                  (m, "frame"), (m, "entries"), (report, "ok"), (d, "total")]
        for record, field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)

    def test_equality_and_hashing(self):
        assert FocalSet(1, 2) == self.A and hash(FocalSet(1, 2)) == hash(self.A)
        assert make_frame("AB") == FRAME_AB and hash(make_frame("AB")) == hash(FRAME_AB)
        assert FocalSet(1, 2) != FocalSet(1, 3)
        assert FocalSet(1, 2) != (1, 2) and FRAME_AB != (("A", "B"),)
        with pytest.raises(TypeError, match="unhashable"):
            hash(self.records()[2])

    def test_focal_sets_sort_by_bits_then_width(self):
        sets = [FocalSet(3, 2), FocalSet(1, 3), FocalSet(1, 2), FocalSet(2, 2)]
        assert sorted(sets) == [FocalSet(1, 2), FocalSet(1, 3), FocalSet(2, 2), FocalSet(3, 2)]
        with pytest.raises(TypeError):
            sorted([FocalSet(1, 2), (1, 2)])

    def test_frame_size_is_stored(self):
        assert "size" in type(FRAME_AB).__slots__ and FRAME_AB.size == 2


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
        for m1, m2 in (EX3, SKEWED):
            assert conflict(m1, m2).total == conjunctive(m1, m2).mass(m1.frame.empty_set())

    def test_pair_products_sum_to_total(self):
        d = conflict(*ZADEH)
        assert sum(p for _, _, p in d.pairs) == pytest.approx(d.total, abs=1e-9)

    def test_frozen(self):
        d = conflict(*EX1)
        with pytest.raises(AttributeError):
            d.total = 0.0


class TestPairs:
    """The disjoint pairs of a pass, in the pass's order, which no read changes.
    SKEWED's pass order is not ``(x, y)`` order, and its sums in the two orders differ."""

    def pairs(self):
        return core._pair_pass(*SKEWED)[1]

    def test_reading_k12_leaves_the_pass_order(self):
        pairs = self.pairs()
        before = list(pairs)
        assert before != sorted(before)
        pairs.k12
        assert list(pairs) == before

    def test_k12_and_conflict_read_them_in_xy_order(self):
        def left_to_right(pairs):
            total = 0.0
            for _, _, a, b in pairs:
                total += a * b
            return total

        pairs = self.pairs()
        assert left_to_right(pairs) != left_to_right(sorted(pairs))
        assert pairs.k12.hex() == left_to_right(sorted(pairs)).hex()
        d = conflict(*SKEWED)
        assert d.total.hex() == pairs.k12.hex()
        assert [(x.bits, y.bits) for x, y, _ in d.pairs] == sorted((x, y) for x, y, _, _ in pairs)


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
    assert conflict(m1, m2).total == conjunctive(m1, m2).mass(frame.empty_set())


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


def union_of(atoms, x):
    """The mask on the fine frame of the atom mask ``x``: the union of its atoms."""
    return sum(a for j, a in enumerate(atoms) if x >> j & 1)


def assert_coarsening(fine, sets):
    c = Frame(fine.labels, sets)
    full = (1 << fine.size) - 1
    assert all(c.atoms) and sum(c.atoms) == full  # disjoint, non-empty and covering
    assert list(c.atoms) == sorted(c.atoms, key=int.bit_length)  # by highest label
    assert (c.size, c.labels) == (len(c.atoms), fine.labels)
    for s in set(sets):
        assert union_of(c.atoms, c.coarsen(s)) == s  # every set is a union of atoms
    # Every union when there are few atoms, else ∅, Θ and 24 random ones.
    if c.size <= 6:
        masks = range(2**c.size)
    else:
        rng = random.Random(c.size)
        masks = [0, 2**c.size - 1, *(rng.getrandbits(c.size) for _ in range(24))]
    assert (union_of(c.atoms, 0), union_of(c.atoms, 2**c.size - 1)) == (0, full)  # ∅ and Θ
    for x in masks:
        fx = union_of(c.atoms, x)
        assert c.refine({x: 1.0}) == {fx: 1.0} and c.card(x) == fx.bit_count()
        assert x == 0 or c.coarsen(fx) == x
        for y in masks:
            fy = union_of(c.atoms, y)
            assert union_of(c.atoms, x & y) == fx & fy and union_of(c.atoms, x | y) == fx | fy
            assert (x < y) == (fx < fy)
    return c


class TestCoarsening:
    @pytest.mark.parametrize("n, family_size", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_every_small_family(self, n, family_size):
        # The atoms partition Θ, every set is a union of them, and the map from
        # unions to atom masks keeps ∩, ∪, ∅, Θ and integer <, on every family.
        fine = make_frame("ABCD"[:n])
        subsets = range(1, 2**n)
        for family in itertools.combinations(subsets, family_size):
            c = assert_coarsening(fine, family)
            # the coarsest such partition: no two atoms lie in exactly the same sets
            keys = [tuple(a & s != 0 for s in family) for a in c.atoms]
            assert len(set(keys)) == len(keys)

    def test_atoms_ordered_by_lowest_label_would_reorder_unions(self):
        # {B, C} and {A, D}: by highest label {B, C} comes first, and so do
        # its unions; by lowest label the atom masks would sort the other way.
        fine = make_frame("ABCD")
        c = assert_coarsening(fine, [0b0110])
        assert c.atoms == (0b0110, 0b1001)
        assert [FocalSet(1 << j, 2).label(c) for j in range(2)] == ["B∪C", "A∪D"]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, 2**n - 1), max_size=6))))
    def test_random_families(self, data):
        n, sets = data
        assert_coarsening(make_frame([f"h{i}" for i in range(n)]), sets)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 24), st.integers(0, 2**32), st.integers(1, 3000))
    def test_refine_keeps_every_mask_and_the_order(self, n_atoms, seed, count):
        # Tables large enough to need several chunks, each up to 16 atoms wide.
        rng = random.Random(seed)
        c = random_coarsening(rng, 2 * n_atoms + 5, n_atoms)
        assert c.size == n_atoms
        table = {}
        while len(table) < min(count, 2**n_atoms - 1):
            table[rng.getrandbits(n_atoms) or 1] = rng.random()
        refined = c.refine(table)
        assert list(refined.values()) == list(table.values())
        assert list(refined) == [union_of(c.atoms, x) for x in table]

    def test_set_that_is_not_a_union_rejected(self):
        c = Frame("ABCD", [0b0011])
        with pytest.raises(ValueError, match="not a union"):
            c.coarsen(0b0001)

    def test_record_behaviour(self):
        fine = make_frame("ABCD")
        singletons = Frame(fine.labels, [0b0011, 0b0110])  # its atoms are the labels
        assert singletons == fine == Frame(fine.labels, [0b0110, 0b0011, 0b0110])
        assert hash(singletons) == hash(fine)
        assert repr(singletons) == repr(fine) == "Frame(labels=('A', 'B', 'C', 'D'))"
        c = Frame(fine.labels, [0b0110])
        assert c != fine and hash(c) == hash(Frame(fine.labels, c.atoms))
        assert repr(c) == "Frame(labels=('A', 'B', 'C', 'D'), atoms=(6, 9))"
        for frame in (singletons, c):
            again = pickle.loads(pickle.dumps(frame))
            assert again == frame and again.card(0b11) == frame.card(0b11)
        m = core._mass(c, {0b01: 0.5, 0b11: 0.5})
        assert validate(m).ok and pickle.loads(pickle.dumps(m)) == m
        assert FocalSet(0b01, 2).label(c) == "B∪C"

    def test_plain_frame_is_its_own_finest_coarsening(self):
        fine = make_frame("ABCD")
        assert fine.atoms == Frame(fine.labels, [1, 2, 4]).atoms == (1, 2, 4, 8)
        assert fine.card(0b1011) == 3
        assert Frame(fine.labels, ()).atoms == (0b1111,)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 12), st.data())
    def test_labels_agree_with_the_plain_frame(self, seed, n_labels, data):
        # index, subset, members and prob take and give the frame's labels on
        # a coarse frame as on the plain frame of the same labels; labels
        # that split an atom are not a set of the coarse frame.
        rng = random.Random(seed)
        c = random_coarsening(rng, n_labels, data.draw(st.integers(1, n_labels)))
        plain = make_frame([f"h{i}" for i in range(n_labels)])
        table = {rng.getrandbits(c.size) or 1: rng.random() for _ in range(3)}
        table = {z: v / sum(table.values()) for z, v in table.items()}
        p, q = betp(core._mass(c, table)), betp(core._mass(plain, c.refine(table)))
        for label in plain.labels:
            j = c.index(label)
            atom = FocalSet(c.atoms[j], n_labels).members(plain)
            assert label in atom and FocalSet(1 << j, c.size).members(c) == atom
            assert c.subset(atom) == FocalSet(1 << j, c.size)
            assert c.refine({c.subset(atom).bits: 1.0}) == {plain.subset(atom).bits: 1.0}
            assert p.prob(label) == q.prob(label) == p.probs[j]
            if len(atom) > 1:
                with pytest.raises(ValueError, match="not a union"):
                    c.subset([label])
                with pytest.raises(KeyError, match="label not in frame"):
                    c.index("∪".join(atom))
        assert c.labels == plain.labels

    def test_labels_in_frame_order(self):
        # A set on the atoms {B, C} and {A, D} lists its labels in frame order,
        # and so do the messages that name it.
        c = Frame("ABCD", [0b0110])
        assert FocalSet(0b11, 2).label(c) == "A∪B∪C∪D"
        assert FocalSet(0b10, 2).members(c) == ("A", "D")
        m = core._mass(c, {0b10: 1.5, 0b11: -0.5})
        assert validate(m).violations == ("negative mass -0.5 on A∪B∪C∪D",)
        with pytest.raises(TypeError, match="mass on A∪B∪C∪D must be a number"):
            core.MassFunction(c, {c.full_set(): "1"})
        with pytest.raises(ValueError, match=r"no decision: BetP\(A∪D\) is nan"):
            decide(PignisticDistribution(c, (0.5, math.nan)))
