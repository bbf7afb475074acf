import copy
import dataclasses
import functools
import itertools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belieffusion import (
    DegenerateError,
    FocalSet,
    Frame,
    FrameMismatchError,
    PignisticDistribution,
    ScenarioConfig,
    ScenarioError,
    betp,
    build_pdb,
    conflict,
    decide,
    draw,
    fold,
    gen_report,
    make_frame,
    report_bba,
    run_scenario,
    vacuous,
    validate,
)
from belieffusion import core, rules, scenario
from belieffusion.core import SUM_TOL
from belieffusion.rules import RULES
from belieffusion.scenario import TrajectoryRecord, write_trajectory_csv

from conftest import random_coarsening


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

    @pytest.mark.parametrize(
        "n,head,tail",
        [
            (2, ("t0", "t1"), ("t0", "t1")),
            (10, ("t0", "t1"), ("t8", "t9")),
            (11, ("t00", "t01"), ("t09", "t10")),
            (101, ("t000", "t001"), ("t099", "t100")),
        ],
    )
    def test_labels_zero_padded_to_the_widest_index(self, n, head, tail):
        cfg = make_config(n_targets=n, truth_index=0, similar_target=None)
        labels = build_pdb(cfg, fresh_rng()).frame.labels
        assert len(labels) == n and labels[:2] == head and labels[-2:] == tail

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
            assert report_set.bits >> cfg.truth_index & 1

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


class TestDrawReportSets:
    def test_one_report_set_per_distinct_emitter(self):
        cfg = make_config(n_reports=40)
        scenario._report_set.cache_clear()
        pdb, reports, _, _ = draw(cfg)
        emitters = [e for e, _ in reports]
        owners = {pdb.emitter_index[e] for e in emitters}
        info = scenario._report_set.cache_info()
        assert info.misses == len(owners) <= len(set(emitters)) < len(emitters)
        # Cold: element for element the sets built per report, and the same stream.
        built = tuple((e, pdb.frame.subset_of_indices(pdb.emitter_index[e])) for e in emitters)
        assert reports == built
        rng = fresh_rng(cfg.seed)
        ref_pdb = build_pdb(cfg, rng)
        assert [gen_report(ref_pdb, cfg, rng)[0] for _ in range(cfg.n_reports)] == emitters
        # Warm: a second draw of the same config builds no set and draws the same.
        misses = scenario._report_set.cache_info().misses
        assert draw(cfg)[1] == built
        assert scenario._report_set.cache_info().misses == misses

    def test_more_sets_than_the_cache_holds(self, monkeypatch):
        report_set = functools.lru_cache(maxsize=2)(scenario._report_set.__wrapped__)
        monkeypatch.setattr(scenario, "_report_set", report_set)
        cfg = make_config(n_reports=40)
        pdb, reports, _, _ = draw(cfg)
        assert report_set.cache_info().misses > 2
        assert reports == tuple((e, pdb.frame.subset_of_indices(pdb.emitter_index[e]))
                                for e, _ in reports)

    def test_report_bbas_sit_on_the_draws_coarsening(self):
        # Every bba is on the draw's own coarse frame object, one per report set,
        # and refines to the report bba of that set on the frame, in its order.
        cfg = make_config(n_reports=40)
        pdb, reports, frame, bbas = draw(cfg)
        assert frame.labels == pdb.frame.labels and frame.size < pdb.frame.size
        assert all(m.frame is frame for m in bbas.values())
        by_set = {}
        for emitter, report_set in reports:
            assert by_set.setdefault(report_set.bits, bbas[emitter]) is bbas[emitter]
            fine = report_bba(report_set, pdb.frame, cfg.report_mass)
            assert list(frame.refine(bbas[emitter]._table).items()) == list(fine._table.items())
        assert len({id(m) for m in bbas.values()}) == len(by_set) < len(set(bbas))

    def test_draw_without_reports_has_one_atom(self):
        pdb, reports, frame, bbas = draw(make_config(n_reports=0))
        assert (reports, bbas, frame.atoms) == ((), {}, ((1 << pdb.frame.size) - 1,))

    def test_each_database_gets_its_own_sets(self):
        # Two draws on frames of different widths, interleaved report by report.
        narrow, wide = make_config(), make_config(n_targets=135, n_emitters=200, seed=5)
        rngs = [fresh_rng(c.seed) for c in (narrow, wide)]
        pdbs = [build_pdb(c, r) for c, r in zip((narrow, wide), rngs)]
        for _ in range(30):
            for cfg, rng, pdb in zip((narrow, wide), rngs, pdbs):
                emitter, report_set = gen_report(pdb, cfg, rng)
                assert report_set == pdb.frame.subset_of_indices(pdb.emitter_index[emitter])


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

    def test_set_of_another_frame_width_rejected(self):
        pdb = build_pdb(make_config(), fresh_rng())
        other = make_frame([f"x{i}" for i in range(pdb.frame.size + 1)])
        with pytest.raises(FrameMismatchError):
            report_bba(other.subset_of_indices([0]), pdb.frame, 0.8)

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
        # One draw folded under each rule gives each rule's own run.
        drawn = draw(make_config(rule="dempster"))
        for rule in ("dempster", "yager", "inagaki", "dubois-prade", "sacr", "pcr"):
            folded, own = fold(make_config(rule=rule), drawn), run_scenario(make_config(rule=rule))
            assert folded.records == own.records and folded.failed_at == own.failed_at
            assert folded.final_state == own.final_state

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

    # inagaki_extreme raises DegenerateError, not TotalConflictError, at the same k12 = 1.
    @pytest.mark.parametrize("rule", ["dempster", "inagaki"])
    def test_total_conflict_truncates(self, rule):
        # Categorical reports make the first contradictory report fatal.
        cfg = make_config(rule=rule, report_mass=1.0, n_reports=25, seed=3)
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

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "rule", ["dempster", "yager", "dubois-prade", "inagaki", "sacr", "pcr"]
    )
    def test_long_stream_stays_normalized(self, rule, seed):
        # sacr's mixture scaled its inputs' rounding drift by up to 4/3 a
        # step, so at this size its sum crossed SUM_TOL after 180-263 reports.
        cfg = make_config(n_targets=20, n_emitters=35, emitters_per_target=(5, 9),
                          truth_index=4, similar_target=5, rule=rule,
                          n_reports=300, seed=seed)
        result = run_scenario(cfg)
        assert result.failed_at is None
        assert abs(result.final_state.total() - 1.0) <= SUM_TOL

    def test_csv_deterministic(self, tmp_path):
        cfg = make_config()
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            write_trajectory_csv(str(path), run_scenario(cfg))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestRecords:
    """What ``PlatformDatabase``, ``TrajectoryRecord`` and ``ScenarioResult``
    promise their callers; the reprs were recorded from the frozen dataclasses
    they once were."""

    def result(self):
        return run_scenario(
            ScenarioConfig(n_targets=3, n_emitters=4, emitters_per_target=(2, 2), truth_index=0,
                           similar_target=1, n_reports=2, seed=1)
        )

    def records(self):
        result = self.result()
        return [result.pdb, result.records[1], result]

    def test_reprs(self):
        pdb = ("PlatformDatabase(frame=Frame(labels=('t0', 't1', 't2')), emitter_index={0: "
               "frozenset({0, 2}), 1: frozenset({0, 1}), 2: frozenset({2}), 3: frozenset({2})})")
        first = ("TrajectoryRecord(step=1, reported_emitter=1, report_set_size=2, "
                 "conflict_k12=0.0, betp_truth=0.4666666666666667, "
                 "betp_similar=0.4666666666666667, decided_index=0, tie=True)")
        second = ("TrajectoryRecord(step=2, reported_emitter=3, report_set_size=1, "
                  "conflict_k12=0.6400000000000001, betp_truth=0.25333333333333335, "
                  "betp_similar=0.25333333333333335, decided_index=2, tie=False)")
        result = (
            "ScenarioResult(config=ScenarioConfig(n_targets=3, n_emitters=4, "
            "emitters_per_target=(2, 2), truth_index=0, pfa=0.3, n_reports=2, report_mass=0.8, "
            f"rule='pcr', seed=1, similar_target=1), pdb={pdb}, "
            "reports=((1, FocalSet(bits=3, width=3)), (3, FocalSet(bits=4, width=3))), "
            f"records=({first}, {second}), failed_at=None, "
            "final_state=MassFunction(frame=Frame(labels=('t0', 't1', 't2')), "
            "_table={3: 0.48000000000000004, 4: 0.48000000000000004, 7: 0.03999999999999998}, "
            "open_world=False))"
        )
        assert [repr(r) for r in self.records()] == [pdb, second, result]

    def test_pickle_and_deepcopy_round_trip(self):
        for record in self.records():
            for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
                assert type(again) is type(record) and again == record
                assert repr(again) == repr(record)

    def test_fields_cannot_be_set_or_deleted(self):
        pdb, record, result = self.records()
        fields = [(pdb, "frame"), (pdb, "emitter_index"), (record, "step"), (record, "tie"),
                  (record, "extra"), (result, "records"), (result, "failed_at")]
        for obj, field in fields:
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                delattr(obj, field)

    def test_equal_trajectory_records_hash_equal(self):
        a, b = self.result().records, self.result().records
        assert a[0] is not b[0] and a[0] == b[0] and hash(a[0]) == hash(b[0])
        assert a[0] != a[1]


SIX_RULES = ("dempster", "yager", "dubois-prade", "inagaki", "sacr", "pcr")


def reference_fold(config):
    """The fold step by step on the frame itself, through the public rule,
    ``conflict``, ``betp`` and ``decide``: (records, failed_at, final state)."""
    pdb, reports, _, _ = draw(config)
    state, records = vacuous(pdb.frame), []
    for step, (emitter, report_set) in enumerate(reports, start=1):
        rb = report_bba(report_set, pdb.frame, config.report_mass)
        k12 = conflict(state, rb).total
        try:
            state = RULES[config.rule](state, rb)
        except DegenerateError:
            return tuple(records), step, state
        p = betp(state)
        d = decide(p)
        similar = None if config.similar_target is None else p.probs[config.similar_target]
        records.append(TrajectoryRecord(step, emitter, report_set.cardinality, k12,
                                        p.probs[config.truth_index], similar, d.index, d.tie))
    return tuple(records), None, state


def assert_fold_matches_reference(config):
    records, failed_at, state = reference_fold(config)
    result = run_scenario(config)
    assert result.records == records and result.failed_at == failed_at
    # The same bits, and the final state's sets and masses in the same order.
    assert [tuple(map(repr, r)) for r in result.records] == [tuple(map(repr, r)) for r in records]
    assert result.final_state.frame is result.pdb.frame
    assert list(result.final_state._table.items()) == list(state._table.items())
    return result


@st.composite
def small_configs(draw):
    n_targets = draw(st.integers(3, 12))
    truth = draw(st.integers(0, n_targets - 1))
    similar = draw(st.none() | st.integers(0, n_targets - 1).filter(lambda t: t != truth))
    lo = draw(st.integers(1 if similar is None else 2, 3))  # a similar target needs 2
    return ScenarioConfig(
        n_targets=n_targets, n_emitters=draw(st.integers(lo + 1, 3 * n_targets)),
        emitters_per_target=(lo, draw(st.integers(lo, 5))),
        truth_index=truth, similar_target=similar, pfa=draw(st.floats(0.0, 1.0)),
        n_reports=draw(st.integers(0, 15)), report_mass=draw(st.sampled_from([0.3, 0.8, 1.0])),
        rule=draw(st.sampled_from(SIX_RULES)), seed=draw(st.integers(0, 2**64 - 1)))


class TestFoldOnTheCoarsening:
    """The fold runs on the atoms of its report sets; its records and final
    state are those of a fold on the frame itself, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(small_configs())
    def test_random_configs(self, config):
        assert_fold_matches_reference(config)

    @pytest.mark.parametrize("rule", SIX_RULES)
    @pytest.mark.parametrize("overrides", [
        dict(n_reports=0),
        dict(similar_target=None, emitters_per_target=(1, 3)),
        dict(n_targets=135, n_emitters=200, emitters_per_target=(5, 9), truth_index=4,
             similar_target=5, seed=4),
    ], ids=["no-reports", "no-similar-lo-1", "wide"])
    def test_edge_configs(self, rule, overrides):
        assert_fold_matches_reference(make_config(rule=rule, **overrides))

    @pytest.mark.parametrize("rule", ["dempster", "inagaki"])
    def test_run_that_stops_at_failed_at(self, rule):
        result = assert_fold_matches_reference(
            make_config(rule=rule, report_mass=1.0, n_reports=25, seed=3))
        assert result.failed_at == 3


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
