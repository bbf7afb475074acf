import functools
import math
import random
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belieffusion import (
    FocalSet,
    Frame,
    MassFunction,
    PignisticDistribution,
    ScenarioConfig,
    betp,
    conjunctive,
    decide,
    dempster,
    make_frame,
    pcr,
    run_scenario,
    vacuous,
)
from belieffusion import decision

from conftest import EX1, FRAME_AB, ZADEH, bba, random_coarsening
from test_core import frame_and_bbas

# betp's member budget that puts every bba on each path: above any bba's
# Σ|A| for the plain loop, and 0 for numpy.
PATH_BUDGETS = {"loop": sys.maxsize, "numpy": 0}


class TestBetp:
    def test_equal_split(self):
        m = bba(FRAME_AB, {"A": 0.5, "AB": 0.5})
        p = betp(m)
        assert p.prob("A") == pytest.approx(0.75, abs=1e-12)
        assert p.prob("B") == pytest.approx(0.25, abs=1e-12)

    def test_vacuous_is_uniform(self):
        for n in (1, 2, 3, 7):
            f = make_frame([f"h{i}" for i in range(n)])
            p = betp(vacuous(f))
            assert all(v == pytest.approx(1.0 / n, abs=1e-12) for v in p.probs)

    def test_categorical(self):
        p = betp(dempster(*ZADEH))
        assert p.prob("C") == pytest.approx(1.0, abs=1e-12)

    def test_open_world_rejected(self, monkeypatch):
        for budget in PATH_BUDGETS.values():
            monkeypatch.setattr(decision, "_BETP_LOOP_MEMBERS", budget)
            with pytest.raises(ValueError, match="closed-world"):
                betp(conjunctive(*EX1))

    def test_mass_on_empty_set_named(self, monkeypatch):
        m = MassFunction(FRAME_AB, {FRAME_AB.empty_set(): 0.5, FRAME_AB.full_set(): 0.5})
        for budget in PATH_BUDGETS.values():
            monkeypatch.setattr(decision, "_BETP_LOOP_MEMBERS", budget)
            with pytest.raises(ValueError, match="mass on ∅"):
                betp(m)

    def test_mass_conservation(self):
        p = betp(pcr(*ZADEH))
        assert sum(p.probs) == pytest.approx(1.0, abs=1e-9)


def reference_betp(m):
    """The pignistic loop the vectorised ``betp`` must reproduce bit for bit:
    each share added to its members in ``entries`` order."""
    probs = [0.0] * m.frame.size
    for fs, v in m.entries.items():
        card = fs.cardinality
        for i in range(fs.width):
            if fs.bits >> i & 1:
                probs[i] += v / card
    return tuple(probs)


def random_wide_bba(width, count, seed):
    """``count`` distinct focal sets (capped at the 2**width - 1 non-empty
    ones), half dense and half sparse, with masses spread over six decades."""
    rng = random.Random(seed)
    count = min(count, 2**width - 1)
    masks = {}
    while len(masks) < count:
        bits = rng.getrandbits(width)
        if rng.random() < 0.5:
            bits &= rng.getrandbits(width) & rng.getrandbits(width)
        if bits:
            masks[bits] = rng.random() * 10 ** rng.uniform(-6, 0)
    total = sum(masks.values())
    frame = make_frame([f"h{i}" for i in range(width)])
    return MassFunction(frame, {FocalSet(b, width): v / total for b, v in masks.items()})


class TestBetpExact:
    """Every case on the numpy path; ``TestBetpExactLoop`` runs them on the loop."""

    PATH = "numpy"

    @pytest.fixture(autouse=True)
    def _path(self, monkeypatch):
        monkeypatch.setattr(decision, "_BETP_LOOP_MEMBERS", PATH_BUDGETS[self.PATH])

    @pytest.mark.parametrize("count", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65, 135, 200])
    def test_matches_reference_loop(self, width, count):
        m = random_wide_bba(width, count, seed=width * 1000 + count)
        assert betp(m).probs == reference_betp(m)

    def test_inf_mass_reaches_only_its_members(self):
        m = random_wide_bba(135, 300, seed=7)
        entries = dict(m.entries)
        poisoned = list(entries)[260]
        entries[poisoned] = math.inf
        m = MassFunction(m.frame, entries)
        probs = betp(m).probs
        assert probs == reference_betp(m)
        members = set(poisoned.indices())
        assert members
        for i, v in enumerate(probs):
            assert math.isinf(v) == (i in members)

    def test_nan_mass_reaches_only_its_members(self):
        m = random_wide_bba(135, 300, seed=7)
        entries = dict(m.entries)
        poisoned = list(entries)[260]
        entries[poisoned] = math.nan
        m = MassFunction(m.frame, entries)
        members = set(poisoned.indices())
        assert members
        for i, (v, ref) in enumerate(zip(betp(m).probs, reference_betp(m))):
            assert math.isnan(v) == (i in members)
            assert math.isnan(v) or v == ref

    def test_sums_each_label_in_storage_order_not_pairwise(self):
        # One block of 256 sets holding h0: a unit mass first, then 255 shares
        # each below half an ulp of 1.0. Added in order they vanish; summed
        # pairwise they add up to more than half an ulp and move the result.
        width = 9
        frame = make_frame([f"h{i}" for i in range(width)])
        entries = {FocalSet(1, width): 1.0}
        entries.update((FocalSet(1 | k << 1, width), 1e-17) for k in range(1, 256))
        m = MassFunction(frame, entries)
        assert betp(m).probs == reference_betp(m)
        assert betp(m).probs[0] == 1.0
        label0 = np.array([v / fs.cardinality for fs, v in m.entries.items()])
        assert np.add.reduce(label0) != 1.0


class TestBetpExactLoop(TestBetpExact):
    PATH = "loop"


def bba_of_members(total, width, seed):
    """A bba on ``width`` labels whose focal sets hold ``total`` members in all."""
    rng = random.Random(seed)
    masks = {}
    while total:
        bits = sum(1 << i for i in rng.sample(range(width), min(total, rng.randint(1, width))))
        if bits not in masks:
            masks[bits] = rng.random()
            total -= bits.bit_count()
    frame = make_frame([f"h{i}" for i in range(width)])
    norm = sum(masks.values())
    return MassFunction(frame, {FocalSet(b, width): v / norm for b, v in masks.items()})


@pytest.mark.parametrize("width", [20, 135])
def test_betp_paths_meet_at_the_member_budget(monkeypatch, width):
    """At Σ|A| equal to the budget betp runs the loop, one member more runs
    numpy, and both give the reference loop's bits."""
    numpy_calls = []
    numpy_path = decision._betp_numpy
    monkeypatch.setattr(decision, "_betp_numpy",
                        lambda *a: numpy_calls.append(1) or numpy_path(*a))
    budget = decision._BETP_LOOP_MEMBERS
    for total, calls in ((budget, 0), (budget + 1, 1)):
        m = bba_of_members(total, width, seed=total)
        assert sum(fs.cardinality for fs in m.entries) == total
        assert betp(m).probs == reference_betp(m)
        assert len(numpy_calls) == calls


MEMBERS_MAX = decision._members.cache_info().maxsize


class TestMemberMemo:
    """The loop's member cache changes no bit, cold or warm, and stays bounded."""

    @pytest.fixture(autouse=True)
    def _loop(self, monkeypatch):
        monkeypatch.setattr(decision, "_BETP_LOOP_MEMBERS", sys.maxsize)

    @pytest.mark.parametrize("width", [20, 135])
    def test_cold_and_warm_give_reference_bits(self, width):
        m = random_wide_bba(width, 40, seed=width)
        decision._members.cache_clear()
        cold = betp(m).probs
        info = decision._members.cache_info()
        assert (info.hits, info.misses) == (0, len(m._table))
        warm = betp(m).probs
        assert decision._members.cache_info().hits == len(m._table)
        assert cold == warm == reference_betp(m)

    def test_more_sets_than_the_memo_holds(self):
        m = random_wide_bba(135, 3 * MEMBERS_MAX // 2, seed=3)
        assert len(m._table) > MEMBERS_MAX
        assert betp(m).probs == reference_betp(m)
        assert betp(m).probs == reference_betp(m)
        assert decision._members.cache_info().currsize <= MEMBERS_MAX

    @pytest.mark.parametrize("bound", [8, MEMBERS_MAX])
    def test_bounded_after_a_wide_sweep(self, monkeypatch, bound):
        members = functools.lru_cache(maxsize=bound)(decision._members.__wrapped__)
        monkeypatch.setattr(decision, "_members", members)
        for seed in range(3):
            for rule in ("dubois-prade", "sacr"):
                config = ScenarioConfig(n_targets=135, n_emitters=200, emitters_per_target=(5, 9),
                                        truth_index=4, similar_target=5, n_reports=12,
                                        rule=rule, seed=seed)
                result = run_scenario(config)
                assert 0 < members.cache_info().currsize <= bound
                assert betp(result.final_state).probs == reference_betp(result.final_state)


@settings(max_examples=100, deadline=None)
@given(frame_and_bbas(count=1))
def test_betp_exact_small_frames(data):
    _, (m,) = data
    assert betp(m).probs == reference_betp(m)


class TestDecide:
    def test_uniform_tie(self):
        d = decide(betp(vacuous(FRAME_AB)))
        assert d.index == 0
        assert d.tie

    def test_strict_max(self):
        m = bba(FRAME_AB, {"A": 0.5, "AB": 0.5})
        d = decide(betp(m))
        assert (d.index, d.tie) == (0, False)
        assert d.probability == pytest.approx(0.75, abs=1e-12)

    def test_symmetric_high_conflict_ties(self):
        # The proportional rule hands the two equally-supported singletons
        # identical shares, so the decision is a flagged tie on the first.
        d = decide(betp(pcr(*ZADEH)))
        assert d.index == 0
        assert d.tie

    @pytest.mark.parametrize("probs, label", [
        ((math.inf, 1.0), "A"),
        ((1.0, math.inf), "B"),
        ((math.nan, 1.0), "A"),
        ((math.nan, math.nan), "A"),
        ((math.inf, -math.inf), "A"),
    ])
    def test_non_finite_maximum_named(self, probs, label):
        p = PignisticDistribution(make_frame("AB"), probs)
        with pytest.raises(ValueError, match=rf"BetP\({label}\) is (inf|nan)"):
            decide(p)

    @pytest.mark.parametrize("probs, label", [
        ((1.0, math.nan), "B"),
        ((math.nan, 1.0), "A"),
        ((1.0, math.nan, math.inf, math.nan), "B"),
    ])
    def test_first_nan_named(self, probs, label):
        # A nan anywhere is named, not only a nan that max() returns.
        p = PignisticDistribution(make_frame("ABCD"[:len(probs)]), probs)
        with pytest.raises(ValueError, match=rf"BetP\({label}\) is nan$"):
            decide(p)

    def test_near_tie_below_tolerance_is_strict(self):
        f = make_frame(["A", "B"])
        m = bba(f, {"A": 0.5 + 1e-6, "B": 0.5 - 1e-6})
        d = decide(betp(m))
        assert not d.tie


@settings(max_examples=100, deadline=None)
@given(frame_and_bbas(count=2), st.floats(min_value=0.0, max_value=1.0))
def test_betp_linearity(data, lam):
    frame, (m1, m2) = data
    mixed_entries = {}
    for fs in set(m1.entries) | set(m2.entries):
        mixed_entries[fs] = lam * m1.mass(fs) + (1.0 - lam) * m2.mass(fs)
    mixture = MassFunction(frame, mixed_entries)
    p = betp(mixture)
    p1, p2 = betp(m1), betp(m2)
    for i in range(frame.size):
        assert p.probs[i] == pytest.approx(
            lam * p1.probs[i] + (1.0 - lam) * p2.probs[i], abs=1e-12
        )


@settings(max_examples=100, deadline=None)
@given(frame_and_bbas(count=1))
def test_betp_sums_to_one(data):
    _, (m,) = data
    assert sum(betp(m).probs) == pytest.approx(1.0, abs=1e-9)


# A bba on a coarse frame against the same bba on the plain frame of its labels.


def coarse_and_fine(seed, n_labels, n_atoms, n_sets, poison=None):
    """A bba on a random frame of ``n_labels`` labels in ``n_atoms`` atoms,
    and the same bba on the plain frame of its labels (``refine`` of its table). With
    ``poison``, one mass in the middle of storage order is that value."""
    rng = random.Random(seed)
    c = random_coarsening(rng, n_labels, n_atoms)
    table = {}
    while len(table) < min(n_sets, 2**n_atoms - 1):
        table[rng.getrandbits(n_atoms) or 1] = rng.random() * 10 ** rng.uniform(-6, 0)
    total = sum(table.values())
    table = {z: v / total for z, v in table.items()}
    if poison is not None:
        table[list(table)[len(table) // 2]] = poison
    coarse = MassFunction(c, {FocalSet(z, c.size): v for z, v in table.items()})
    return coarse, MassFunction(Frame(c.labels), {FocalSet(z, n_labels): v
                                                  for z, v in c.refine(table).items()})


def per_label(p):
    """A coarse distribution's probabilities spread back over its labels."""
    n = len(p.frame.labels)
    probs = [None] * n
    for atom, v in zip(p.frame.atoms, p.probs):
        for i in FocalSet(atom, n).indices():
            probs[i] = v
    return tuple(probs)


def same_bits(a, b):
    return [struct.pack("<d", v) for v in a] == [struct.pack("<d", v) for v in b]


class TestPerAtom:
    """``betp`` and ``decide`` on a coarsening give, label for label, the bits
    they give on the fine frame, on both of ``betp``'s paths."""

    @pytest.fixture(autouse=True, params=sorted(PATH_BUDGETS))
    def _path(self, request, monkeypatch):
        monkeypatch.setattr(decision, "_BETP_LOOP_MEMBERS", PATH_BUDGETS[request.param])

    @pytest.mark.parametrize("n_labels, n_atoms, n_sets", [
        (1, 1, 1), (5, 2, 3), (20, 4, 15), (20, 20, 300), (135, 12, 400), (135, 27, 600),
    ])
    @pytest.mark.parametrize("poison", [None, math.inf, math.nan])
    def test_betp_and_decide_match_the_fine_frame(self, n_labels, n_atoms, n_sets, poison):
        coarse, fine = coarse_and_fine(n_labels * n_sets, n_labels, n_atoms, n_sets, poison)
        p, q = betp(coarse), betp(fine)
        assert same_bits(per_label(p), q.probs)
        assert same_bits(per_label(p), reference_betp(fine))
        if poison is None:
            assert decide(p) == decide(q)
        else:
            for dist in (p, q):
                with pytest.raises(ValueError, match="no decision"):
                    decide(dist)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 12), st.data())
    def test_random_coarsenings(self, seed, n_labels, data):
        n_atoms = data.draw(st.integers(1, n_labels))
        n_sets = data.draw(st.integers(1, 2**n_atoms - 1))
        coarse, fine = coarse_and_fine(seed, n_labels, n_atoms, n_sets)
        p, q = betp(coarse), betp(fine)
        assert same_bits(per_label(p), q.probs)
        assert decide(p) == decide(q)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 12), st.data())
    def test_prob_reads_every_fine_label(self, seed, n_labels, data):
        n_atoms = data.draw(st.integers(1, n_labels))
        n_sets = data.draw(st.integers(1, 2**n_atoms - 1))
        coarse, fine = coarse_and_fine(seed, n_labels, n_atoms, n_sets)
        p, q = betp(coarse), betp(fine)
        labels = fine.frame.labels
        assert same_bits([p.prob(label) for label in labels], [q.prob(label) for label in labels])

    def test_prob_takes_fine_labels_not_atom_labels(self):
        p = betp(vacuous(Frame("abc", [0b011])))
        assert p.frame.atoms == (0b011, 0b100) and p.probs == (1 / 3, 1 / 3)
        assert [p.prob(label) for label in "abc"] == [1 / 3] * 3
        with pytest.raises(KeyError, match="a∪b"):
            p.prob("a∪b")


class TestDecidePerAtom:
    """``decide`` on a coarse distribution: its index is the lowest label of
    the tied atoms, and ``tie`` is whether more than one label tied."""

    # Atoms by highest label: {h1, h2}, {h0, h3}, {h4}.
    FINE = make_frame(["h0", "h1", "h2", "h3", "h4"])
    COARSE = Frame(FINE.labels, [0b00110, 0b10000])

    @pytest.mark.parametrize("probs, index, tie", [
        ((0.1, 0.1, 0.6), 4, False),  # one atom of one label
        ((0.3, 0.1, 0.2), 1, True),  # one atom, two labels tie inside it
        ((0.2, 0.2, 0.2), 0, True),  # across atoms: the lowest label, h0, is in the second
        ((0.1, 0.4, 0.4 - 1e-13), 0, True),  # within TIE_TOL
        ((0.1, 0.1, 0.1 + 1e-13), 0, True),
        ((0.3, 0.1, 0.3 - 1e-13), 1, True),  # h1 and h4 tie: h1
        ((0.1, 0.1, 0.1 + 1e-9), 4, False),  # beyond TIE_TOL
    ])
    def test_ties(self, probs, index, tie):
        assert self.COARSE.atoms == (0b00110, 0b01001, 0b10000)
        p = PignisticDistribution(self.COARSE, probs)
        fine = PignisticDistribution(self.FINE, per_label(p))
        d = decide(p)
        assert (d.index, d.tie) == (index, tie)
        assert d == decide(fine)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.25, 0.25 + 1e-13, 0.5, 0.5 - 1e-13, 1.0]),
                    min_size=3, max_size=3))
    def test_matches_the_fine_frame(self, probs):
        p = PignisticDistribution(self.COARSE, tuple(probs))
        assert decide(p) == decide(PignisticDistribution(self.FINE, per_label(p)))
