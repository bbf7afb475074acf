import inspect
import math
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belieffusion import (
    DegenerateError,
    FocalSet,
    FrameMismatchError,
    InvalidBetaError,
    MassFunction,
    TotalConflictError,
    acr_generic,
    acr_inagaki_weights,
    alpha0,
    beta0,
    conflict,
    conjunctive,
    dempster,
    disjunctive,
    dsmh,
    dubois_prade,
    inagaki_extreme,
    inagaki_generic,
    make_frame,
    pcr,
    pcr_shares,
    sacr,
    smets,
    vacuous,
    validate,
    yager,
)
from belieffusion import core, rules
from belieffusion.rules import _POLICIES, RULES, _step

from conftest import (EX1, EX2, EX3, FRAME_AB, FRAME_ABC, SKEWED, ZADEH, assert_masses_close, bba,
                      conjunctive_oracle, disjunctive_oracle, labelled, pcr_oracle, random_bba,
                      random_coarsening)
from test_core import frame_and_bbas


class TestDempster:
    def test_example1(self):
        out = dempster(*EX1)
        assert labelled(out) == pytest.approx(
            {"A": 0.42 / 0.82, "B": 0.12 / 0.82, "AB": 0.28 / 0.82}, abs=1e-12
        )

    def test_zadeh_minority_opinion(self):
        out = dempster(*ZADEH)
        assert labelled(out) == pytest.approx({"C": 1.0}, abs=1e-12)

    def test_vacuous_neutral(self):
        out = dempster(EX1[0], vacuous(FRAME_AB))
        assert out.is_close_to(EX1[0], tol=1e-12)

    def test_total_conflict(self):
        m1 = bba(FRAME_AB, {"A": 1.0})
        m2 = bba(FRAME_AB, {"B": 1.0})
        with pytest.raises(TotalConflictError, match="cannot be used"):
            dempster(m1, m2)


class TestSmets:
    def test_example1(self):
        out = smets(*EX1)
        assert out.open_world
        assert labelled(out) == pytest.approx(
            {"": 0.18, "A": 0.42, "B": 0.12, "AB": 0.28}, abs=1e-12
        )

    def test_zadeh(self):
        out = smets(*ZADEH)
        assert labelled(out) == pytest.approx({"": 0.99, "C": 0.01}, abs=1e-12)

    def test_vacuous(self):
        out = smets(EX1[0], vacuous(FRAME_AB))
        assert out.mass(FRAME_AB.empty_set()) == 0.0

    def test_is_the_conjunctive_operator(self):
        assert smets is conjunctive


class TestYager:
    def test_example1(self):
        assert labelled(yager(*EX1)) == pytest.approx(
            {"A": 0.42, "B": 0.12, "AB": 0.46}, abs=1e-12
        )

    def test_zadeh(self):
        assert labelled(yager(*ZADEH)) == pytest.approx(
            {"C": 0.01, "ABC": 0.99}, abs=1e-12
        )

    def test_vacuous_neutral(self):
        assert yager(EX1[0], vacuous(FRAME_AB)).is_close_to(EX1[0], tol=1e-12)


class TestDuboisPrade:
    def test_example1(self):
        assert labelled(dubois_prade(*EX1)) == pytest.approx(
            {"A": 0.42, "B": 0.12, "AB": 0.46}, abs=1e-12
        )

    def test_zadeh(self):
        assert labelled(dubois_prade(*ZADEH)) == pytest.approx(
            {"C": 0.01, "AB": 0.81, "AC": 0.09, "BC": 0.09}, abs=1e-12
        )

    def test_vacuous_neutral(self):
        assert dubois_prade(EX1[0], vacuous(FRAME_AB)).is_close_to(EX1[0], tol=1e-12)

    def test_dsmh_is_an_exact_alias(self):
        assert dsmh is dubois_prade
        for pair in (EX1, EX2, EX3, ZADEH):
            assert labelled(dsmh(*pair)) == labelled(dubois_prade(*pair))


class TestInagaki:
    def test_generic_with_dempster_weights_is_dempster(self):
        conj = conjunctive(*EX3)
        k12 = conj.mass(FRAME_AB.empty_set())
        weights = {
            fs: v / (1.0 - k12) for fs, v in conj.entries.items() if not fs.is_empty
        }
        out = inagaki_generic(*EX3, weights)
        assert out.is_close_to(dempster(*EX3), tol=1e-12)

    def test_generic_with_theta_weight_is_yager(self):
        out = inagaki_generic(*EX3, {FRAME_AB.full_set(): 1.0})
        assert out.is_close_to(yager(*EX3), tol=1e-12)

    @pytest.mark.parametrize(
        "weights,match",
        [
            ({"AB": 0.5}, "sum"),
            ({"A": 1.0, "B": math.nan}, "non-finite"),
            ({"A": 1.5, "B": -0.5}, "negative mass"),
            ({"A": math.inf}, "sum"),
            ({"": 1.0}, "on ∅"),
        ],
        ids=["half", "nan", "negative", "inf", "empty-set"],
    )
    def test_generic_rejects_bad_weight_sum(self, weights, match):
        with pytest.raises(ValueError, match=match):
            inagaki_generic(*EX1, {FRAME_AB.subset(tuple(k)): w for k, w in weights.items()})

    @pytest.mark.parametrize("weight", ["1", True])
    def test_generic_rejects_a_weight_that_is_not_a_number(self, weight):
        with pytest.raises(TypeError, match="mass on A∪B must be a number"):
            inagaki_generic(*EX1, {FRAME_AB.full_set(): weight})

    def test_generic_rejects_weight_from_another_frame(self):
        wide = make_frame(["A", "B", "C"]).subset(["A"])
        with pytest.raises(FrameMismatchError):
            inagaki_generic(*EX1, {wide: 1.0})

    def test_extreme_example1(self):
        assert labelled(inagaki_extreme(*EX1)) == pytest.approx(
            {"A": 0.56, "B": 0.16, "AB": 0.28}, abs=1e-12
        )

    def test_extreme_example3(self):
        # 0.44·(1 + 0.24/0.71), 0.27·(1 + 0.24/0.71), 0.05
        factor = 1.0 + 0.24 / 0.71
        assert labelled(inagaki_extreme(*EX3)) == pytest.approx(
            {"A": 0.44 * factor, "B": 0.27 * factor, "AB": 0.05}, abs=1e-9
        )

    def test_extreme_preserves_ratios(self):
        out = inagaki_extreme(*EX3)
        conj = conjunctive(*EX3)
        a, b = FRAME_AB.subset(["A"]), FRAME_AB.subset(["B"])
        assert out.mass(a) / out.mass(b) == pytest.approx(
            conj.mass(a) / conj.mass(b), abs=1e-12
        )

    def test_extreme_zero_conflict_is_conjunctive(self):
        m = bba(FRAME_AB, {"A": 0.5, "AB": 0.5})
        out = inagaki_extreme(m, m)
        assert labelled(out) == pytest.approx({"A": 0.75, "AB": 0.25}, abs=1e-12)

    def test_extreme_degenerate(self):
        m1 = bba(FRAME_AB, {"A": 1.0})
        m2 = bba(FRAME_AB, {"B": 1.0})
        with pytest.raises(DegenerateError):
            inagaki_extreme(m1, m2)


class TestAcr:
    def test_coefficients(self):
        alpha, beta = alpha0(0.18), beta0(0.18)
        assert alpha == pytest.approx(0.18 / 0.8524, abs=1e-12)
        assert beta == pytest.approx(0.82 / 0.8524, abs=1e-12)
        # normalization constraint
        assert alpha == pytest.approx(1.0 - (1.0 - 0.18) * beta, abs=1e-12)

    def test_boundary_coefficients(self):
        assert alpha0(0.0) == 0.0 and beta0(0.0) == 1.0
        assert alpha0(1.0) == 1.0 and beta0(1.0) == 0.0

    def test_zero_conflict_is_conjunctive(self):
        m = bba(FRAME_AB, {"A": 0.5, "AB": 0.5})
        out = acr_generic(m, m, beta0)
        assert labelled(out) == pytest.approx(labelled(yager(m, m)), abs=1e-12)

    def test_total_conflict_is_disjunctive(self):
        m1 = bba(FRAME_AB, {"A": 1.0})
        m2 = bba(FRAME_AB, {"B": 1.0})
        out = acr_generic(m1, m2, beta0)
        assert out.is_close_to(disjunctive(m1, m2), tol=1e-12)

    def test_generic_with_sacr_weighting_matches_sacr(self):
        for pair in (EX1, EX2, EX3, ZADEH):
            assert acr_generic(*pair, beta0).is_close_to(sacr(*pair), tol=1e-12)

    @pytest.mark.parametrize(
        "beta,match",
        [(lambda k: 0.5, r"beta\(0\)=1"),
         (lambda k: math.nan if k == 0.0 else 1.0 - k, r"beta\(0\)=1"),
         (lambda k: math.nan if k == 1.0 else 1.0 - k, r"beta\(0\)=1"),
         # Admissible endpoints, but 1.4104 at EX1's k12 = 0.18.
         (lambda k: 1.0 - k + 4.0 * k * (1.0 - k), r"outside \[0, 1\]")],
        ids=["constant", "nan-at-0", "nan-at-1", "above-1-between"],
    )
    def test_invalid_beta_endpoints(self, beta, match):
        with pytest.raises(InvalidBetaError, match=match):
            acr_generic(*EX1, beta)

    def test_sacr_example1(self):
        a0, b0 = alpha0(0.18), beta0(0.18)
        assert labelled(sacr(*EX1)) == pytest.approx(
            {"A": b0 * 0.42, "B": b0 * 0.12, "AB": a0 * 1.0 + b0 * 0.28}, abs=1e-12
        )

    def test_sacr_example3(self):
        a0, b0 = alpha0(0.24), beta0(0.24)
        assert labelled(sacr(*EX3)) == pytest.approx(
            {"A": a0 * 0.12 + b0 * 0.44, "B": a0 * 0.09 + b0 * 0.27, "AB": a0 * 0.79 + b0 * 0.05},
            abs=1e-9,
        )

    def test_sacr_zadeh(self):
        out = labelled(sacr(*ZADEH))
        assert out["C"] == pytest.approx(0.0101, abs=5e-5)
        assert out["AB"] == pytest.approx(0.8099, abs=5e-5)
        assert out["AC"] == pytest.approx(0.0900, abs=5e-5)
        assert out["BC"] == pytest.approx(0.0900, abs=5e-5)

    def test_weight_reconstruction(self):
        for pair in (EX1, EX2, EX3, ZADEH):
            k12 = conflict(*pair).total
            weights = acr_inagaki_weights(*pair, beta0)
            conj = conjunctive(*pair)
            expected = acr_generic(*pair, beta0)
            for fs, w in weights.items():
                assert conj.mass(fs) + w * k12 == pytest.approx(
                    expected.mass(fs), abs=1e-9
                )
            assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)

    def test_sacr_zero_conflict_keeps_only_conjunctive_sets(self):
        # At k12 = 0 the disjunctive part enters with weight α0(0) = 0; its
        # 0.0 × m∨ entries must not be stored.
        # Here A∪B∪C is a ∪-set that no ∩ produces.
        frame = make_frame(["A", "B", "C"])
        m1 = bba(frame, {"AB": 0.6, "B": 0.4})
        m2 = bba(frame, {"BC": 0.7, "B": 0.3})
        assert conflict(m1, m2).total == 0.0
        out = sacr(m1, m2)
        assert set(out.entries) == set(conjunctive(m1, m2).entries)
        assert frame.full_set() not in out.entries
        assert 0.0 not in out.entries.values()

    def test_weights_can_be_negative(self):
        # A focal element whose conjunctive mass exceeds its disjunctive mass
        # draws a negative weight.
        m1 = bba(FRAME_AB, {"A": 0.7, "AB": 0.3})
        m2 = bba(FRAME_AB, {"B": 0.7, "AB": 0.3})
        weights = acr_inagaki_weights(m1, m2, beta0)
        assert min(weights.values()) < 0.0

    def test_weights_degenerate_at_zero_conflict(self):
        m = bba(FRAME_AB, {"A": 0.5, "AB": 0.5})
        with pytest.raises(DegenerateError):
            acr_inagaki_weights(m, m, beta0)


class TestPcr:
    def test_example1(self):
        assert labelled(pcr(*EX1)) == pytest.approx(
            {"A": 0.54, "B": 0.18, "AB": 0.28}, abs=1e-12
        )

    def test_example3(self):
        assert labelled(pcr(*EX3)) == pytest.approx(
            {"A": 0.584, "B": 0.366, "AB": 0.05}, abs=1e-12
        )

    def test_example3_shares(self):
        shares = {
            (s.x.label(FRAME_AB), s.y.label(FRAME_AB)): s for s in pcr_shares(*EX3)
        }
        ab = shares[("A", "B")]
        assert ab.to_x == pytest.approx(0.12, abs=1e-12)
        assert ab.to_y == pytest.approx(0.06, abs=1e-12)
        ba = shares[("B", "A")]
        assert ba.to_y == pytest.approx(0.024, abs=1e-12)
        assert ba.to_x == pytest.approx(0.036, abs=1e-12)

    def test_zadeh(self):
        assert labelled(pcr(*ZADEH)) == pytest.approx(
            {"A": 0.486, "B": 0.486, "C": 0.028}, abs=1e-12
        )

    def test_vacuous_neutral(self):
        assert pcr(EX1[0], vacuous(FRAME_AB)).is_close_to(EX1[0], tol=1e-12)

    def test_share_conservation(self, rng):
        frame = make_frame(["A", "B", "C"])
        for _ in range(100):
            m1 = random_bba(rng, frame)
            m2 = random_bba(rng, frame)
            k12 = conflict(m1, m2).total
            redistributed = sum(s.to_x + s.to_y for s in pcr_shares(m1, m2))
            assert redistributed == pytest.approx(k12, abs=1e-9)
            assert pcr(m1, m2).total() == pytest.approx(1.0, abs=1e-9)

    def test_matches_brute_force(self, rng):
        frame = make_frame(["A", "B", "C", "D"])
        for _ in range(100):
            m1 = random_bba(rng, frame)
            m2 = random_bba(rng, frame)
            out = pcr(m1, m2)
            oracle = pcr_oracle(m1, m2)
            keys = {fs.bits for fs in out.entries} | set(oracle)
            for bits in keys:
                from belieffusion import FocalSet

                assert out.mass(FocalSet(bits, 4)) == pytest.approx(
                    oracle.get(bits, 0.0), abs=1e-12
                )

    def test_continuity(self, rng):
        frame = make_frame(["A", "B", "C"])
        eps = 1e-6
        for _ in range(50):
            m1 = random_bba(rng, frame, dense=True, min_mass=0.01)
            m2 = random_bba(rng, frame, dense=True, min_mass=0.01)
            base = pcr(m1, m2)

            def perturb(m):
                noise = rng.uniform(-1.0, 1.0, size=len(m.entries))
                values = {
                    fs: v + eps * d
                    for (fs, v), d in zip(m.entries.items(), noise)
                }
                total = sum(values.values())
                return MassFunction(m.frame, {fs: v / total for fs, v in values.items()})

            moved = pcr(perturb(m1), perturb(m2))
            keys = set(base.entries) | set(moved.entries)
            delta = max(abs(base.mass(k) - moved.mass(k)) for k in keys)
            assert delta < 1e-3


# ---------------------------------------------------------------------------
# Cross-rule properties
# ---------------------------------------------------------------------------

CLOSED_WORLD_RULES = {k: v for k, v in RULES.items() if k != "smets"}


def test_rule_registry_names():
    assert set(RULES) == {
        "dempster",
        "smets",
        "yager",
        "dubois-prade",
        "dsmh",
        "inagaki",
        "sacr",
        "pcr",
    }


# Every function over a pair of bbas, by name: each rule of RULES, and the rest.
PAIR_FUNCTIONS = {
    **RULES,
    "conflict": conflict,
    "conjunctive": conjunctive,
    "disjunctive": disjunctive,
    "pcr_shares": pcr_shares,
    "acr_inagaki_weights": lambda m1, m2: acr_inagaki_weights(m1, m2, beta0),
    "acr_generic": lambda m1, m2: acr_generic(m1, m2, beta0),
    "inagaki_generic": lambda m1, m2: inagaki_generic(m1, m2, {FRAME_AB.full_set(): 1.0}),
}


@pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
@pytest.mark.parametrize("name", PAIR_FUNCTIONS)
def test_closed_world_mass_on_empty_set_is_rejected(name, side, monkeypatch):
    # A closed-world bba with mass on ∅ is invalid input: no rule may fuse it.
    empty = MassFunction(FRAME_AB, {FRAME_AB.empty_set(): 0.5, FRAME_AB.full_set(): 0.5})
    pair = [bba(FRAME_AB, {"A": 0.6, "AB": 0.4})] * 2
    pair[side] = empty
    for array_pairs in (0, math.inf):  # the adaptive mixture's array form, then its dict pass
        monkeypatch.setattr(rules, "_ACR_ARRAY_PAIRS", array_pairs)
        with pytest.raises(ValueError, match="closed-world bba carries mass on ∅: 0.5"):
            PAIR_FUNCTIONS[name](*pair)


def test_rule_signatures_return_a_mass_function():
    pair = "m1: 'MassFunction', m2: 'MassFunction'"
    assert str(inspect.signature(pcr)) == f"({pair}) -> 'MassFunction'"
    assert str(inspect.signature(inagaki_generic)) == (
        f"({pair}, weights: 'Mapping[FocalSet, float]') -> 'MassFunction'"
    )


def test_rules_pickle_by_name():
    for rule in RULES.values():
        assert pickle.loads(pickle.dumps(rule)) is rule


def test_importing_rules_leaves_out_inspect():
    """The rules' signatures are built on request, so a fresh interpreter that
    imports the module (and the CLI, which needs no signature) has no ``inspect``."""
    code = "import sys, belieffusion.rules, belieffusion.cli; print('inspect' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.stdout == "False\n", result.stderr


def test_normalizing_sums_run_left_to_right():
    """Ten masses of 0.1 sum to 0.9999999999999999 left to right but to 1.0
    compensated, as builtin sum() does since Python 3.12. MassFunction.total,
    Dempster and Inagaki's extreme rule give the left-to-right bits on every
    Python."""
    frame = make_frame(list("ABCDEFGHIJK"))
    tenths = bba(frame, {c: 0.1 for c in "ABCDEFGHIJ"})
    norm = 0.0
    for _ in range(10):
        norm += 0.1
    assert norm != math.fsum([0.1] * 10)
    assert tenths.total() == norm
    out = dempster(tenths, vacuous(frame))
    assert list(out.items()) == [(fs, 0.1 / norm) for fs, _ in tenths.items()]
    # Each tenth keeps 0.07 and puts 0.03 on ∅. Summed left to right, the kept
    # mass is 0.6999999999999998 and each tenth comes back as 0.1; a
    # compensated 0.7 would give 0.09999999999999999.
    out = inagaki_extreme(tenths, bba(frame, {"K": 0.3, "ABCDEFGHIJK": 0.7}))
    assert list(out.items()) == list(tenths.items())


def test_example1_every_rule_prefers_the_strong_hypothesis():
    a, b = FRAME_AB.subset(["A"]), FRAME_AB.subset(["B"])
    for name, rule in CLOSED_WORLD_RULES.items():
        out = rule(*EX1)
        assert out.mass(a) > out.mass(b), name


@settings(max_examples=100, deadline=None)
@given(frame_and_bbas())
def test_rules_commute_and_stay_valid(data):
    _, (m1, m2) = data
    for name, rule in RULES.items():
        try:
            out = rule(m1, m2)
            flipped = rule(m2, m1)
        except (TotalConflictError, DegenerateError):
            continue
        assert out.is_close_to(flipped, tol=1e-12), name
        assert validate(out).ok, (name, validate(out).violations)


@settings(max_examples=100, deadline=None)
@given(frame_and_bbas(count=1))
def test_vacuous_neutrality(data):
    frame, (m,) = data
    v = vacuous(frame)
    for name, rule in CLOSED_WORLD_RULES.items():
        try:
            out = rule(m, v)
        except DegenerateError:
            # inagaki has no non-Θ receiver when m is itself vacuous
            assert m.mass(frame.full_set()) == pytest.approx(1.0)
            continue
        assert out.is_close_to(m, tol=1e-12), name


@settings(max_examples=50, deadline=None)
@given(frame_and_bbas(count=3))
def test_dempster_associativity(data):
    _, (m1, m2, m3) = data
    try:
        left = dempster(dempster(m1, m2), m3)
        right = dempster(m1, dempster(m2, m3))
    except TotalConflictError:
        return
    assert left.is_close_to(right, tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(frame_and_bbas())
def test_inagaki_weights_match_three_pass_definition(data):
    # The weights come from one pair pass; they must equal, exactly, the
    # definition read off conflict, the conjunctive and the disjunctive rule.
    _, (m1, m2) = data
    k12 = conflict(m1, m2).total
    if k12 == 0.0:
        with pytest.raises(DegenerateError):
            acr_inagaki_weights(m1, m2, beta0)
        return
    b = beta0(k12)
    conj, disj = conjunctive(m1, m2), disjunctive(m1, m2)
    expected = {
        fs: (1.0 - b) / k12 * (disj.mass(fs) - conj.mass(fs)) + b * disj.mass(fs)
        for fs in set(conj.entries) | set(disj.entries)
        if not fs.is_empty
    }
    assert acr_inagaki_weights(m1, m2, beta0) == expected


@settings(max_examples=200, deadline=None)
@given(frame_and_bbas())
def test_step_k12_is_conflict_total(data):
    # Every step's k12 is its pairs' Pairs.k12, summed in conflict's sorted
    # order: same bits.
    _, (m1, m2) = data
    total = conflict(m1, m2).total
    for rule in _POLICIES:
        try:
            _, k12 = _step(rule, m1, m2)
        except DegenerateError:
            continue
        assert k12.hex() == total.hex(), rule


_SIX = make_frame("ABCDEF")


@st.composite
def bbas_without_theta(draw):
    """Two bbas on a 6-label frame, neither with Θ as a focal set."""
    bbas = []
    for _ in range(2):
        bits = draw(st.lists(st.integers(1, 2**6 - 2), min_size=1, max_size=8, unique=True))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(bits), max_size=len(bits)))
        total = sum(weights)
        bbas.append(MassFunction(_SIX, {FocalSet(z, 6): w / total for z, w in zip(bits, weights)}))
    return bbas


@settings(max_examples=300, deadline=None)
@given(bbas_without_theta())
def test_conflict_moved_to_theta_is_conflict_total(pair):
    # No intersection is Θ, so Θ's mass under a rule that moves all of k12 there
    # is k12 itself, and it must have the bits conflict reports.
    m1, m2 = pair
    theta = _SIX.full_set()
    total = conflict(m1, m2).total
    assert yager(m1, m2).mass(theta) == total
    assert inagaki_generic(m1, m2, {theta: 1.0}).mass(theta) == total


@pytest.mark.parametrize("rule", sorted(_POLICIES))
def test_step_sums_k12_at_most_once(rule, monkeypatch):
    # Pairs.k12 is read by the policies that need k12 (sacr) and by _step,
    # and summed once between them: pcr's shares no longer sum it on the side.
    sums = []
    original = core.Pairs.k12.fget

    def counting(pairs):
        sums.append(pairs._k12 is None)
        return original(pairs)

    monkeypatch.setattr(core.Pairs, "k12", property(counting))
    _step(rule, *EX3)
    assert sums.count(True) == 1


def test_shares_in_xy_order_leave_the_pairs_in_pass_order():
    # SKEWED's pass order is not (x, y) order.
    pairs = core._pair_pass(*SKEWED)[1]
    before = list(pairs)
    in_order = [(x, y) for x, y, _, _ in sorted(before)]
    assert before != sorted(before)
    assert [(x, y) for x, y, *_ in rules._shares(pairs)] == in_order
    assert list(pairs) == before
    assert [(s.x.bits, s.y.bits) for s in pcr_shares(*SKEWED)] == in_order


def test_dubois_prade_does_not_depend_on_reading_k12_first(monkeypatch):
    # Dubois-Prade visits the pairs in the pass's order; on SKEWED, (x, y) order
    # would add X∪Y = AC before Θ and sum Θ's products in another order.
    plain = list(dubois_prade(*SKEWED)._table.items())
    assert [z for z, _ in plain][-2:] == [0b111, 0b101]
    pair_pass = rules._pair_pass

    def reading_k12(*args, **kwargs):
        passed = pair_pass(*args, **kwargs)
        passed[1].k12
        return passed

    monkeypatch.setattr(rules, "_pair_pass", reading_k12)
    assert list(dubois_prade(*SKEWED)._table.items()) == plain


@settings(max_examples=200, deadline=None)
@given(frame_and_bbas(), st.floats(min_value=1e-11, max_value=1e-4), st.booleans())
def test_acr_step_does_not_amplify_drift(data, eps, up):
    # The mixture scales its inputs' drift by α + β ≥ 1, which compounded
    # over a long stream; a drifted input must come out no further from 1.
    frame, (m1, m2) = data
    scale = 1.0 + eps if up else 1.0 - eps
    drifted = MassFunction(frame, {fs: v * scale for fs, v in m1.entries.items()})
    residual = abs(math.fsum(drifted._table.values()) - 1.0)
    for out in (sacr(drifted, m2), acr_generic(drifted, m2, lambda k: (1.0 - k) ** 2)):
        assert abs(math.fsum(out._table.values()) - 1.0) <= residual


def policy_bits(policy_output):
    """A policy's table items in order and its pairs, every float as ``float.hex``, and its k12."""
    table, pairs = policy_output
    return (type(pairs), [(z, v.hex()) for z, v in table.items()],
            [(x, y, a.hex(), b.hex()) for x, y, a, b in pairs], pairs.k12.hex())


def assert_forms_agree(policy, m1, m2, *args, taken=(True,)):
    """Run ``policy(m1, m2, *args)`` with ``_acr_combine`` handing every step on a frame of
    at most 64 atoms to the array form (budget 0), then with the budget off, so that the
    dict form alone runs; check that they agree bit for bit and, per step of the first
    run, whether the array form took it. Returns the first run's result."""
    seen = []
    arrays = rules._acr_arrays

    def spying(*a):
        out = arrays(*a)
        seen.append(out is not None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rules, "_acr_arrays", spying)
        mp.setattr(rules, "_ACR_ARRAY_PAIRS", 0)
        on = policy(m1, m2, *args)
        mp.setattr(rules, "_ACR_ARRAY_PAIRS", math.inf)
        off = policy(m1, m2, *args)
    assert seen == list(taken)
    assert policy_bits(on) == policy_bits(off)
    return on


def spread_bba(frame, masks, rng, scale=1.0):
    """A bba on ``frame`` with random masses on the distinct ``masks``, summing to ``scale``."""
    weights = [rng.uniform(0.01, 1.0) for _ in masks]
    total = sum(weights)
    return MassFunction(frame, {FocalSet(z, frame.size): scale * w / total
                                for z, w in zip(masks, weights)})


def random_pair(seed, low=0, scale=1.0):
    """Two bbas of up to 25 random sets on 12 labels, each set holding the bits of ``low``;
    the first sums to ``scale``."""
    rng = random.Random(seed)
    frame = make_frame([f"h{i}" for i in range(12)])
    return [spread_bba(frame, {rng.getrandbits(12) | low or 1 for _ in range(25)}, rng, total)
            for total in (scale, 1.0)]


@st.composite
def coarse_bba_pairs(draw):
    """Two bbas of 2-24 focal sets each on a frame of 2-10 coarse atoms."""
    n_atoms = draw(st.integers(2, 10))
    frame = random_coarsening(random.Random(draw(st.integers(0, 2**32))),
                              draw(st.integers(n_atoms, 2 * n_atoms + 3)), n_atoms)
    bbas = []
    for _ in range(2):
        masks = draw(st.lists(st.integers(1, 2**n_atoms - 1), min_size=2,
                              max_size=min(24, 2**n_atoms - 1), unique=True))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(masks),
                                max_size=len(masks)))
        total = sum(weights)
        bbas.append(MassFunction(frame, {FocalSet(z, n_atoms): w / total
                                         for z, w in zip(masks, weights)}))
    return bbas


class TestAcrArrayForm:
    """``_acr_combine``'s array form and its dict form give the same table items in
    order, the same pairs and the same k12, bit for bit."""

    WIDE_UNION = dict(n_targets=135, n_emitters=200, emitters_per_target=(5, 9),
                      truth_index=4, similar_target=5, pfa=0.3, report_mass=0.8, n_reports=25)

    def test_every_wide_union_step_above_the_budget(self, monkeypatch):
        from belieffusion import ScenarioConfig, run_scenario

        combine, pairs = rules._acr_combine, []

        def checking(m1, m2, mix):
            n = len(m1._table) * len(m2._table)
            if m1.frame.size <= 64 and n >= rules._ACR_ARRAY_PAIRS:
                pairs.append(n)
                assert_forms_agree(combine, m1, m2, mix)
            return combine(m1, m2, mix)

        monkeypatch.setattr(rules, "_acr_combine", checking)
        for seed in range(30):
            run_scenario(ScenarioConfig(rule="sacr", seed=seed, **self.WIDE_UNION))
        assert len(pairs) == 137 and max(pairs) == 31304

    @settings(max_examples=150, deadline=None)
    @given(coarse_bba_pairs())
    def test_coarse_bbas(self, pair):
        m1, m2 = pair
        assert_forms_agree(sacr.__wrapped__, m1, m2)
        assert_forms_agree(acr_generic.__wrapped__, m1, m2, lambda k: (1.0 - k) ** 2)

    def test_64_atoms_with_bit_63_set(self):
        rng = random.Random(63)
        frame = make_frame([f"h{i}" for i in range(64)])
        m1, m2 = (spread_bba(frame, {1 << rng.randrange(63) | (i % 2) << 63 for i in range(24)},
                             rng) for _ in range(2))
        assert len(m1._table) * len(m2._table) >= rules._ACR_ARRAY_PAIRS
        assert max(m1._table) >> 63 and max(m2._table) >> 63
        table, pairs = assert_forms_agree(sacr.__wrapped__, m1, m2)
        assert max(table) >> 63 and pairs

    def test_65_atoms_stay_on_the_dict_path(self):
        rng = random.Random(65)
        frame = make_frame([f"h{i}" for i in range(65)])
        m1, m2 = (spread_bba(frame, {rng.getrandbits(65) for _ in range(20)}, rng)
                  for _ in range(2))
        assert len(m1._table) * len(m2._table) >= rules._ACR_ARRAY_PAIRS
        assert_forms_agree(sacr.__wrapped__, m1, m2, taken=())

    def test_zero_conflict(self):
        m1, m2 = random_pair(0, low=1)
        _, pairs = assert_forms_agree(sacr.__wrapped__, m1, m2)
        assert pairs == [] and pairs.k12 == 0.0

    def test_renormalizing_step(self):
        drifted, m2 = random_pair(1, scale=1.0 + 1e-6)
        table, _ = assert_forms_agree(sacr.__wrapped__, drifted, m2)
        assert abs(math.fsum(drifted._table.values()) - 1.0) > 1e-7
        assert abs(math.fsum(table.values()) - 1.0) <= 1e-12

    def test_zero_meet_sum_stays_in_both_forms_until_the_mass_function(self):
        # A ∩ AB = A only from a product that underflows to 0.0: both forms keep A's
        # 0.0 at its first-meet place, and only the mass function drops it.
        m1 = bba(FRAME_ABC, {"A": 1e-200, "BC": 1.0})
        m2 = bba(FRAME_ABC, {"AB": 1e-200, "C": 1.0})
        table, _ = assert_forms_agree(sacr.__wrapped__, m1, m2, taken=(True,))
        assert list(table.items())[0] == (0b001, 0.0)
        assert 0b001 not in sacr(m1, m2)._table

    def test_nan_mass(self):
        m1, m2 = random_pair(2)
        m1 = MassFunction(m1.frame, {**m1.entries, m1.frame.subset_of_indices([3]): math.nan})
        table, pairs = assert_forms_agree(sacr.__wrapped__, m1, m2)
        assert any(math.isnan(v) for v in table.values()) and math.isnan(pairs.k12)
        # β(nan) = 0.5 passes, so α is nan but β is not: a set that only meets
        # keeps β·m∧, a finite mass, and one that only joins gets α·m∨.
        table, _ = assert_forms_agree(acr_generic.__wrapped__, m1, m2,
                                      lambda k: 0.5 if k != k else 1.0 - k)
        assert not all(math.isnan(v) for v in table.values())

    def test_acr_generic_with_a_caller_beta(self):
        m1, m2 = random_pair(3)
        for beta in (lambda k: (1.0 - k) ** 2, lambda k: 1.0 - k, beta0):
            assert_forms_agree(acr_generic.__wrapped__, m1, m2, beta)

    def test_invalid_beta_raises_at_the_same_point(self, monkeypatch):
        m1, m2 = random_pair(4)
        raised = []
        for budget in (0, math.inf):
            calls = []

            def beta(k):
                calls.append(k.hex())
                return 1.0 - k if k in (0.0, 1.0) else 1.5

            monkeypatch.setattr(rules, "_ACR_ARRAY_PAIRS", budget)
            with pytest.raises(InvalidBetaError) as error:
                acr_generic(m1, m2, beta)
            raised.append((str(error.value), calls))
        assert raised[0] == raised[1] and len(raised[0][1]) == 3


def assert_keeps_its_arrays(table):
    """``table`` is a ``_Packed`` table whose arrays hold its keys and values, in order."""
    masks, masses = table.arrays
    assert type(table) is core._Packed and masks.dtype.str == "<u8" and masses.dtype.str == "<f8"
    assert masks.tolist() == list(table)
    assert [v.hex() for v in masses.tolist()] == [v.hex() for v in table.values()]


def sacr_mix(k):
    return alpha0(k), beta0(k)


class TestPackedTable:
    """A table the array form returns keeps its arrays, which the next step and ``betp``
    read, and otherwise behaves as the plain dict of its items."""

    def test_every_wide_union_step_above_the_budget(self, monkeypatch):
        from belieffusion import ScenarioConfig, run_scenario

        arrays, tables = rules._acr_arrays, []

        def keeping(*args):
            out = arrays(*args)
            tables.append(out[0])
            return out

        monkeypatch.setattr(rules, "_acr_arrays", keeping)
        for seed in range(30):
            run_scenario(ScenarioConfig(rule="sacr", seed=seed, **TestAcrArrayForm.WIDE_UNION))
        assert len(tables) == 137
        for table in tables:
            assert_keeps_its_arrays(table)

    @settings(max_examples=150, deadline=None)
    @given(coarse_bba_pairs())
    def test_coarse_bbas(self, pair):
        out = rules._acr_arrays(*pair, sacr_mix)
        if out is not None:
            assert_keeps_its_arrays(out[0])

    def test_a_wide_fold_packs_no_state_the_array_form_made(self, monkeypatch):
        # Only states the dict pass made are packed: once by ``betp``, and the one the
        # first array step reads once more, by that step.
        from belieffusion import ScenarioConfig, decision, run_scenario, scenario

        arrays, betp, packed, states = core._arrays, scenario.betp, [], []

        def packing(table):
            if type(table) is not core._Packed:
                packed.append(table)
            return arrays(table)

        def reading(m):
            states.append(m._table)
            return betp(m)

        monkeypatch.setattr(rules, "_arrays", packing)
        monkeypatch.setattr(decision, "_arrays", packing)
        monkeypatch.setattr(scenario, "betp", reading)
        result = run_scenario(ScenarioConfig(rule="sacr", seed=14, **TestAcrArrayForm.WIDE_UNION))
        counts = [sum(t is s for t in packed) for s in states]
        plain = [c for s, c in zip(states, counts) if type(s) is dict]
        assert [type(s) for s in states].count(core._Packed) == 15
        assert len(plain) + 15 == len(states) == 25
        assert max(plain[:-1]) == 1 and plain[-1] == 2
        assert type(result._state._table) is core._Packed
        assert type(result.final_state._table) is dict

    def test_behaves_as_the_plain_dict_of_its_items(self):
        import copy

        m1, m2 = random_pair(5)
        table, _ = rules._acr_arrays(m1, m2, sacr_mix)
        packed, plain = core._mass(m1.frame, table), core._mass(m1.frame, dict(table))
        assert type(packed._table) is core._Packed and type(plain._table) is dict
        assert repr(packed) == repr(plain) and packed == plain and plain == packed
        data = pickle.dumps(packed)
        assert b"numpy" not in data
        for m in (pickle.loads(data), copy.deepcopy(packed)):
            assert type(m._table) is dict and m == plain
            assert list(m._table.items()) == list(plain._table.items())

    def test_a_zero_mass_at_total_conflict_leaves_a_plain_dict(self, monkeypatch):
        # k12 rounds to 1.0, so β = 0 and B, which only meets (AB ∩ BC), gets 0.0.
        from belieffusion import betp

        m1 = bba(FRAME_ABC, {"A": 1.0, "AB": 1e-100})
        m2 = bba(FRAME_ABC, {"C": 1.0, "BC": 1e-100})
        table, pairs = assert_forms_agree(sacr.__wrapped__, m1, m2)
        assert pairs.k12 == 1.0 and type(table) is core._Packed and table[0b010] == 0.0
        probs = []
        for budget in (0, math.inf):
            monkeypatch.setattr(rules, "_ACR_ARRAY_PAIRS", budget)
            out = sacr(m1, m2)
            assert type(out._table) is dict and 0b010 not in out._table
            probs.append([p.hex() for p in betp(out).probs])
        assert probs[0] == probs[1]


# Masses whose products with each other round to 0.0, which happens below about 2.5e-324.
TINY = (1e-200, 1e-250, 1e-300, 5e-324)


def underflowing_pairs():
    """Pairs on three labels where a ∩-sum, a ∪-sum or a PCR share rounds to 0.0: two by
    hand, then random ones that put ``TINY`` masses on up to three sets of each bba."""
    pairs = [
        (bba(FRAME_ABC, {"A": 1e-200, "BC": 1.0}), bba(FRAME_ABC, {"AB": 1e-200, "C": 1.0})),
        (bba(FRAME_ABC, {"A": 1e-200, "B": 0.5, "ABC": 0.5}), bba(FRAME_ABC, {"C": 1.0})),
    ]
    rng = random.Random(324)
    for _ in range(40):
        pair = []
        for _ in range(2):
            # Θ and one other set share the mass; each further set gets a tiny one.
            masks = [0b111, *rng.sample(range(1, 7), rng.randint(1, 4))]
            theta = rng.uniform(0.1, 1.0)
            masses = [theta, 1.0 - theta] + [rng.choice(TINY) for _ in masks[2:]]
            pair.append(core._mass(FRAME_ABC, dict(zip(masks, masses))))
        pairs.append(tuple(pair))
    return pairs


@pytest.mark.parametrize("m1, m2", [pytest.param(*pair, id=f"pair{i}")
                                    for i, pair in enumerate(underflowing_pairs())])
def test_products_that_underflow_leave_no_zero_mass(m1, m2):
    for name, rule in RULES.items():
        out = rule(m1, m2)
        assert 0.0 not in out._table.values(), name
        assert out.open_world or validate(out).ok, name
    for operator, oracle in ((conjunctive, conjunctive_oracle),
                             (disjunctive, disjunctive_oracle), (pcr, pcr_oracle)):
        out = operator(m1, m2)
        assert 0.0 not in out._table.values()
        assert_masses_close(out, oracle(m1, m2), 1e-12)
    k12 = conflict(m1, m2).total
    assert k12 == conjunctive(m1, m2)._table.get(0, 0.0)
    assert math.fsum(s.to_x + s.to_y for s in pcr_shares(m1, m2)) == pytest.approx(k12, abs=1e-12)
    if k12:
        # Its keys are the sets that the two operators store.
        keys = set(disjunctive(m1, m2).entries) | set(conjunctive(m1, m2).entries)
        keys.discard(FRAME_ABC.empty_set())
        assert set(acr_inagaki_weights(m1, m2, beta0)) == keys
    assert_forms_agree(sacr.__wrapped__, m1, m2)
