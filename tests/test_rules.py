import math

import pytest
from hypothesis import given, settings

from belieffusion import (
    DegenerateError,
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
from belieffusion.rules import RULES

from conftest import EX1, EX2, EX3, FRAME_AB, ZADEH, bba, labelled, pcr_oracle, random_bba
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
