import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belieffusion import (
    FocalSet,
    MassFunction,
    betp,
    conjunctive,
    decide,
    dempster,
    make_frame,
    pcr,
    vacuous,
)

from conftest import EX1, FRAME_AB, ZADEH, bba
from test_core import frame_and_bbas


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

    def test_open_world_rejected(self):
        with pytest.raises(ValueError, match="closed-world"):
            betp(conjunctive(*EX1))

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
    @pytest.mark.parametrize("count", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 64, 65, 135, 200])
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
