import dataclasses
import math

import numpy as np
import pytest

from belieffusion import (
    ScenarioConfig,
    ScenarioError,
    betp,
    build_pdb,
    conflict,
    gen_report,
    report_bba,
    run_scenario,
    vacuous,
    validate,
)
from belieffusion import core, rules
from belieffusion.core import SUM_TOL
from belieffusion.rules import RULES
from belieffusion.scenario import write_trajectory_csv


def make_config(**overrides) -> ScenarioConfig:
    base = dict(
        n_targets=10,
        n_emitters=24,
        emitters_per_target=(2, 4),
        truth_index=3,
        pfa=0.3,
        n_reports=12,
        report_mass=0.8,
        rule="pcr",
        seed=11,
        similar_target=6,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def fresh_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def owned(pdb, target) -> frozenset[int]:
    """The emitters a target owns, read off the emitter → owners index."""
    return frozenset(e for e, owners in pdb.emitter_index.items() if target in owners)


def pools(pdb, truth) -> tuple[frozenset[int], frozenset[int]]:
    """Reference pools: X is the truth's set; Y is every emitter of a target
    that shares hardware with the truth, minus X."""
    x = owned(pdb, truth)
    y: set[int] = set()
    for t in range(pdb.frame.size):
        s = owned(pdb, t)
        if t != truth and s & x:
            y |= s - x
    return x, frozenset(y)


class TestBuildPdb:
    def test_deterministic(self):
        cfg = make_config()
        pdb1 = build_pdb(cfg, fresh_rng(cfg.seed))
        pdb2 = build_pdb(cfg, fresh_rng(cfg.seed))
        assert pdb1.frame == pdb2.frame
        assert pdb1.emitter_index == pdb2.emitter_index
        assert pools(pdb1, cfg.truth_index) == pools(pdb2, cfg.truth_index)

    def test_inverse_index(self):
        cfg = make_config()
        pdb = build_pdb(cfg, fresh_rng())
        assert set(pdb.emitter_index) == set(range(cfg.n_emitters))
        for e, owners in pdb.emitter_index.items():
            assert isinstance(owners, frozenset)
            assert owners <= set(range(cfg.n_targets))
        for t in range(cfg.n_targets):
            assert owned(pdb, t)

    def test_similar_target_symmetric_difference(self):
        cfg = make_config()
        for seed in range(20):
            pdb = build_pdb(cfg, fresh_rng(seed))
            truth = owned(pdb, cfg.truth_index)
            similar = owned(pdb, cfg.similar_target)
            assert len(truth ^ similar) == 1
            assert similar < truth  # the truth keeps one discriminating emitter

    def test_pools_disjoint_and_nonempty(self):
        cfg = make_config()
        for seed in range(20):
            x, y = pools(build_pdb(cfg, fresh_rng(seed)), cfg.truth_index)
            assert x
            assert y
            assert not x & y

    def test_pool_too_small(self):
        # Pool no bigger than the truth's own set leaves nothing for Y.
        with pytest.raises(ScenarioError, match="pool"):
            make_config(n_emitters=2)

    def test_smets_rejected_by_check(self):
        with pytest.raises(ScenarioError, match="smets"):
            make_config(rule="smets")

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_targets=1, truth_index=0, similar_target=None),
            dict(n_targets=2, truth_index=0, similar_target=1),
        ],
    )
    def test_no_false_alarm_target(self, overrides):
        # No target besides the truth and the similar one can own Y.
        with pytest.raises(ScenarioError, match="pool"):
            make_config(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            dict(n_targets=2, n_emitters=2, emitters_per_target=(1, 1), truth_index=1,
                 similar_target=None),
            dict(n_targets=3, n_emitters=3, emitters_per_target=(2, 2), truth_index=2,
                 similar_target=0),
            dict(n_targets=20, n_emitters=35, emitters_per_target=(5, 9), truth_index=4,
                 similar_target=5),
            dict(n_targets=40, n_emitters=60, emitters_per_target=(3, 40), truth_index=0,
                 similar_target=None),
        ],
    )
    def test_pools_match_definition(self, overrides):
        # gen_report draws from ranges of the config; the reference pools,
        # derived from the ownership, must be those ranges.
        cfg = make_config(**overrides)
        lo = cfg.emitters_per_target[0]
        for seed in range(50):
            pdb = build_pdb(cfg, fresh_rng(seed))
            x, y = pools(pdb, cfg.truth_index)
            assert tuple(sorted(x)) == tuple(range(lo))
            assert tuple(sorted(y)) == tuple(range(lo, cfg.n_emitters))
            assert all(owned(pdb, t) for t in range(cfg.n_targets))

    def test_similar_needs_two_emitters(self):
        with pytest.raises(ScenarioError, match="2 emitters"):
            make_config(emitters_per_target=(1, 4))

    def test_similar_equals_truth(self):
        with pytest.raises(ScenarioError):
            make_config(similar_target=3)

    def test_negative_seed(self):
        with pytest.raises(ScenarioError, match="seed"):
            make_config(seed=-1)

    @pytest.mark.parametrize(
        "change,match",
        [
            (dict(seed=-1), "seed"),
            (dict(rule="smets"), "smets"),
            pytest.param(dict(n_targets=0), "n_targets must be positive", id="n-targets-0"),
            pytest.param(dict(emitters_per_target=(0, 3)), r"positive \(lo, hi\) range",
                         id="lo-0"),
            pytest.param(dict(emitters_per_target=(4, 3)), r"positive \(lo, hi\) range",
                         id="lo-above-hi"),
            pytest.param(dict(truth_index=99), "truth_index outside", id="truth-outside"),
            pytest.param(dict(similar_target=99), "similar_target outside", id="similar-outside"),
            pytest.param(dict(pfa=1.5), "pfa must lie", id="pfa-above-1"),
            pytest.param(dict(pfa=math.nan), "pfa must lie", id="pfa-nan"),
            pytest.param(dict(n_reports=-1), "n_reports must be non-negative",
                         id="n-reports-negative"),
            pytest.param(dict(report_mass=0.0), "report_mass must lie", id="report-mass-0"),
            pytest.param(dict(rule="nope"), "unknown rule 'nope'", id="rule-unknown"),
            # The constructor checks types too, for library callers as for config files.
            pytest.param(dict(seed=True), "key 'seed' must be int, not True", id="seed-bool"),
            pytest.param(dict(n_targets=20.0), "key 'n_targets' must be int, not 20.0",
                         id="n-targets-float"),
            pytest.param(dict(similar_target=5.0), r"key 'similar_target' must be Optional\[int\]",
                         id="similar-float"),
            pytest.param(dict(pfa="0.3"), "key 'pfa' must be float, not '0.3'", id="pfa-str"),
            pytest.param(dict(emitters_per_target=(5,)),
                         r"key 'emitters_per_target' must be tuple\[int, int\], not \(5,\)",
                         id="ept-one-bound"),
            pytest.param(dict(pfa=10**400), "key 'pfa' is too large for a float",
                         id="pfa-overflow"),
        ],
    )
    def test_replace_checks_again(self, change, match):
        # The CLI's --seed and --rules overrides rely on replace re-running the check.
        with pytest.raises(ScenarioError, match=match):
            dataclasses.replace(make_config(), **change)

    def test_constructor_stores_field_types(self):
        cfg = make_config(emitters_per_target=[5, 9], pfa=0)
        assert cfg.emitters_per_target == (5, 9) and type(cfg.emitters_per_target) is tuple
        assert hash(cfg) == hash(make_config(emitters_per_target=(5, 9), pfa=0.0))
        assert cfg.pfa == 0.0 and type(cfg.pfa) is float


class TestGenReport:
    def test_x_reports_contain_truth(self):
        cfg = make_config(pfa=0.0)
        rng = fresh_rng(cfg.seed)
        pdb = build_pdb(cfg, rng)
        for _ in range(50):
            emitter, report_set = gen_report(pdb, cfg, rng)
            assert emitter in owned(pdb, cfg.truth_index)
            assert report_set.contains(cfg.truth_index)

    def test_pure_false_alarms_miss_truth_emitters(self):
        cfg = make_config(pfa=1.0)
        rng = fresh_rng(cfg.seed)
        pdb = build_pdb(cfg, rng)
        y = pools(pdb, cfg.truth_index)[1]
        for _ in range(50):
            emitter, report_set = gen_report(pdb, cfg, rng)
            assert emitter in y
            assert not report_set.is_empty

    def test_false_alarm_rate(self):
        cfg = make_config(pfa=0.3)
        rng = fresh_rng(1)
        pdb = build_pdb(cfg, rng)
        draws = 10_000
        y = pools(pdb, cfg.truth_index)[1]
        y_draws = sum(gen_report(pdb, cfg, rng)[0] in y for _ in range(draws))
        # binomial 3σ ≈ 0.014 around 0.3
        assert 0.29 <= y_draws / draws <= 0.31

    def test_report_set_is_emitter_owners(self):
        cfg = make_config()
        rng = fresh_rng(cfg.seed)
        pdb = build_pdb(cfg, rng)
        emitter, report_set = gen_report(pdb, cfg, rng)
        assert set(report_set.indices()) == set(pdb.emitter_index[emitter])


class TestReportBba:
    def test_simple_support(self):
        cfg = make_config()
        pdb = build_pdb(cfg, fresh_rng())
        rs = pdb.frame.subset_of_indices([0, 1])
        m = report_bba(rs, pdb.frame, 0.8)
        assert m.mass(rs) == 0.8
        assert m.mass(pdb.frame.full_set()) == pytest.approx(0.2)
        assert validate(m).ok

    def test_categorical_boundary(self):
        cfg = make_config()
        pdb = build_pdb(cfg, fresh_rng())
        rs = pdb.frame.subset_of_indices([0])
        m = report_bba(rs, pdb.frame, 1.0)
        assert m.entries == {rs: 1.0}

    def test_empty_report_rejected(self):
        cfg = make_config()
        pdb = build_pdb(cfg, fresh_rng())
        with pytest.raises(ValueError):
            report_bba(pdb.frame.empty_set(), pdb.frame, 0.8)

    def test_pignistic_spread(self):
        cfg = make_config()
        pdb = build_pdb(cfg, fresh_rng())
        rs = pdb.frame.subset_of_indices([0, 1])
        p = betp(report_bba(rs, pdb.frame, 0.8))
        n = pdb.frame.size
        assert p.probs[0] == pytest.approx(0.8 / 2 + 0.2 / n, abs=1e-12)
        assert p.probs[5] == pytest.approx(0.2 / n, abs=1e-12)


class TestRunScenario:
    def test_empty_fold(self):
        result = run_scenario(make_config(n_reports=0))
        assert result.records == ()
        assert result.failed_at is None
        assert result.final_state.entries == vacuous(result.pdb.frame).entries

    def test_trajectory_shape(self):
        cfg = make_config()
        result = run_scenario(cfg)
        assert len(result.records) == cfg.n_reports
        for i, r in enumerate(result.records, start=1):
            assert r.step == i
            assert 0.0 <= r.conflict_k12 <= 1.0
            assert 0.0 <= r.betp_truth <= 1.0
            assert 0.0 <= r.betp_similar <= 1.0

    def test_perfect_sensor_identifies_truth(self):
        for seed in range(25):
            cfg = make_config(pfa=0.0, rule="pcr", seed=seed, n_reports=15)
            result = run_scenario(cfg)
            assert result.records[-1].decided_index == cfg.truth_index

    def test_report_stream_independent_of_rule(self):
        streams = {
            rule: run_scenario(make_config(rule=rule)).reports
            for rule in ("dempster", "dubois-prade", "sacr", "pcr")
        }
        baseline = streams["dempster"]
        assert all(s == baseline for s in streams.values())

    def test_intermediate_states_valid(self):
        for rule in ("dempster", "dubois-prade", "sacr", "pcr", "yager", "inagaki"):
            cfg = make_config(rule=rule)
            result = run_scenario(cfg)
            state = vacuous(result.pdb.frame)
            for emitter, report_set in result.reports:
                rb = report_bba(report_set, result.pdb.frame, cfg.report_mass)
                state = RULES[rule](state, rb)
                report = validate(state)
                assert report.ok, (rule, report.violations)

    def test_recorded_conflict_matches_refold(self):
        cfg = make_config()
        result = run_scenario(cfg)
        state = vacuous(result.pdb.frame)
        for record, (emitter, report_set) in zip(result.records, result.reports):
            rb = report_bba(report_set, result.pdb.frame, cfg.report_mass)
            assert record.conflict_k12 == conflict(state, rb).total
            state = RULES[cfg.rule](state, rb)

    @pytest.mark.parametrize(
        "rule", ["dempster", "yager", "dubois-prade", "inagaki", "sacr", "pcr"]
    )
    def test_recorded_conflict_matches_refold_wide(self, rule):
        # On 135 targets k12 sums many disjoint pairs, so a fold that summed
        # them in another order (or read k12 from the ∩-table) would show in
        # the last bits.
        cfg = make_config(n_targets=135, n_emitters=200, emitters_per_target=(5, 9),
                          truth_index=4, similar_target=5, rule=rule, seed=4)
        result = run_scenario(cfg)
        assert len(result.records) >= 10
        state = vacuous(result.pdb.frame)
        for record, (emitter, report_set) in zip(result.records, result.reports):
            rb = report_bba(report_set, result.pdb.frame, cfg.report_mass)
            assert record.conflict_k12 == conflict(state, rb).total
            state = RULES[rule](state, rb)
        assert result.final_state == state

    @pytest.mark.parametrize(
        "rule", ["dempster", "yager", "dubois-prade", "inagaki", "sacr", "pcr"]
    )
    def test_one_pair_pass_per_step(self, rule, monkeypatch):
        # Every pass goes through the kernel, either under the name the rules
        # call or under core's own (conflict and the other views): count both.
        calls = []
        original = core._pair_pass

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(rules, "_pair_pass", counting)
        monkeypatch.setattr(core, "_pair_pass", counting)
        result = run_scenario(make_config(rule=rule))
        assert result.failed_at is None
        assert len(calls) == len(result.records) == 12

    def test_smets_rejected(self):
        with pytest.raises(ScenarioError, match="smets"):
            run_scenario(make_config(rule="smets"))

    def test_negative_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed"):
            run_scenario(make_config(seed=-1))

    def test_dempster_total_conflict_truncates(self):
        # Categorical reports make the first contradictory report fatal.
        cfg = make_config(rule="dempster", report_mass=1.0, n_reports=25, seed=3)
        result = run_scenario(cfg)
        assert result.failed_at == 3
        assert len(result.records) == result.failed_at - 1

    @pytest.mark.parametrize("seed", range(20))
    def test_long_dempster_stream_stays_normalized(self, seed):
        # Dividing by 1 - k12 let the mass sum drift on 100-report streams
        # (BetP above 1, spurious total conflict); dividing by the sum of the
        # non-empty conjunctive masses keeps every state normalized.
        cfg = make_config(n_targets=20, n_emitters=35, emitters_per_target=(5, 9),
                          truth_index=4, similar_target=5, rule="dempster",
                          n_reports=100, seed=seed)
        result = run_scenario(cfg)
        assert result.failed_at is None
        for r in result.records:
            assert 0.0 <= r.betp_truth <= 1.0 and 0.0 <= r.betp_similar <= 1.0
        assert all(0.0 <= p <= 1.0 for p in betp(result.final_state).probs)
        assert abs(result.final_state.total() - 1.0) <= SUM_TOL

    def test_csv_deterministic(self, tmp_path):
        cfg = make_config()
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            write_trajectory_csv(str(path), run_scenario(cfg))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
