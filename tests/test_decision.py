import functools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belieffusion import (
    FocalSet,
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

from conftest import EX1, FRAME_AB, ZADEH, bba
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
