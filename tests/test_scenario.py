import copy
import dataclasses
import functools
import math
import pickle
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belieffusion import (
    DegenerateError,
    FrameMismatchError,
    MassFunction,
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

    @pytest.mark.parametrize(
        "rule", ["dempster", "yager", "dubois-prade", "inagaki", "sacr", "pcr", "sacr-wide"]
    )
    def test_one_pair_pass_per_step(self, rule, monkeypatch):
        # Every pass goes through the kernel, either under the name the rules
        # call or under core's own (conflict and the other views): count both.
        # The mixture's large steps pass through its array form instead, which
        # counts as the step's one pass when it takes the step.
        calls = []
        original, arrays = core._pair_pass, rules._acr_arrays

        def counting(*args, **kwargs):
            calls.append("dict")
            return original(*args, **kwargs)

        def counting_arrays(*args):
            out = arrays(*args)
            calls.append("arrays" if out is not None else "declined")
            return out

        monkeypatch.setattr(rules, "_pair_pass", counting)
        monkeypatch.setattr(core, "_pair_pass", counting)
        monkeypatch.setattr(rules, "_acr_arrays", counting_arrays)
        if rule == "sacr-wide":
            config = make_config(rule="sacr", n_targets=135, n_emitters=200,
                                 emitters_per_target=(5, 9), n_reports=25, seed=14)
        else:
            config = make_config(rule=rule)
        result = run_scenario(config)
        assert result.failed_at is None
        assert len(calls) == len(result.records) == config.n_reports
        assert calls.count("arrays") == (15 if rule == "sacr-wide" else 0)

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
                  (record, "extra"), (result, "records"), (result, "failed_at"),
                  (result, "final_state")]
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


def observe_fold(monkeypatch):
    """Read every pass's conflict record and every step's new state, as a
    per-step statistic or a trace would: the pairs' ``k12`` and the pairs
    themselves, then the state's ``entries``, ``validate`` and ``betp``."""
    pair_pass, step = rules._pair_pass, scenario._step

    def observed_pass(*args, **kwargs):
        passed = pair_pass(*args, **kwargs)
        disjoint = passed[1]
        disjoint.k12
        list(disjoint)
        return passed

    def observed_step(*args):
        state, k12 = step(*args)
        state.entries
        validate(state)
        betp(state)
        return state, k12

    monkeypatch.setattr(rules, "_pair_pass", observed_pass)
    monkeypatch.setattr(scenario, "_step", observed_step)


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
        dict(),
        dict(seed=16),
        dict(n_reports=0),
        dict(similar_target=None, emitters_per_target=(1, 3)),
        dict(n_targets=135, n_emitters=200, emitters_per_target=(5, 9), truth_index=4,
             similar_target=5, seed=4),
    ], ids=["plain", "seed-16", "no-reports", "no-similar-lo-1", "wide"])
    def test_edge_configs(self, rule, overrides, monkeypatch):
        config = make_config(rule=rule, **overrides)
        result = assert_fold_matches_reference(config)
        # Observing the fold changes nothing. The observer reaches the reference's
        # rule calls too, so the observed run is compared with the unobserved one.
        observe_fold(monkeypatch)
        observed = run_scenario(config)
        assert [repr(r) for r in observed.records] == [repr(r) for r in result.records]
        assert observed.failed_at == result.failed_at
        assert (list(observed.final_state._table.items())
                == list(result.final_state._table.items()))

    @pytest.mark.parametrize("rule", ["dempster", "inagaki"])
    def test_run_that_stops_at_failed_at(self, rule):
        result = assert_fold_matches_reference(
            make_config(rule=rule, report_mass=1.0, n_reports=25, seed=3))
        assert result.failed_at == 3


class TestFinalStateRefinedOnRead:
    """``fold`` hands ``ScenarioResult`` its state on the draw's coarsening, and the
    first read of ``final_state`` refines it, as refining at the end of the fold would."""

    CONFIG = dict(n_targets=135, n_emitters=200, emitters_per_target=(5, 9), truth_index=4,
                  similar_target=5, seed=4)

    def eager_and_lazy(self):
        """The refinement made by hand, and a fresh result whose state is still coarse."""
        config = make_config(rule="dubois-prade", **self.CONFIG)
        drawn = draw(config)
        result = fold(config, drawn)
        coarse = result._state
        assert coarse.frame is drawn[2] and coarse.frame != drawn[0].frame
        return core._mass(drawn[0].frame, drawn[2].refine(coarse._table)), result

    def test_a_run_refines_nothing_until_read(self, monkeypatch):
        calls = []
        refine = core.Frame.refine
        monkeypatch.setattr(core.Frame, "refine",
                            lambda frame, table: calls.append(1) or refine(frame, table))
        config = make_config(rule="sacr", **self.CONFIG)
        results = [run_scenario(config), fold(config, draw(config))]
        assert calls == []
        for n, result in enumerate(results, start=1):
            result.final_state._table
            result.final_state._table
            assert len(calls) == n

    # What the first read gives, seen each way. ``test_edge_configs[wide]``
    # checks the table of every rule against a fold on the frame itself.
    @pytest.mark.parametrize("read", ["table", "repr", "eq", "pickle", "deepcopy", "entries",
                                      "betp"])
    def test_every_read_refines(self, read):
        eager, result = self.eager_and_lazy()
        lazy = result.final_state
        assert result.final_state is lazy and result._state is lazy
        assert type(lazy) is MassFunction and "_table" in vars(lazy)
        assert lazy.frame is eager.frame is result.pdb.frame
        assert lazy.open_world is eager.open_world is False
        if read == "table":
            assert list(lazy._table.items()) == list(eager._table.items())
        elif read == "repr":
            assert repr(lazy) == repr(eager)
        elif read == "eq":
            assert lazy == eager
        elif read in ("pickle", "deepcopy"):
            again = pickle.loads(pickle.dumps(lazy)) if read == "pickle" else copy.deepcopy(lazy)
            assert type(again) is MassFunction and again == eager and repr(again) == repr(eager)
            assert pickle.dumps(lazy) == pickle.dumps(eager)
        elif read == "entries":
            assert list(lazy.entries.items()) == list(eager.entries.items())
        else:
            assert betp(lazy) == betp(eager)

    @pytest.mark.parametrize("read", ["repr", "eq", "pickle", "deepcopy"])
    def test_an_unread_result_is_a_read_one(self, read):
        (_, unread), (_, read_one) = self.eager_and_lazy(), self.eager_and_lazy()
        read_one.final_state
        assert unread._state.frame is not unread.pdb.frame
        if read == "repr":
            assert repr(unread) == repr(read_one)
        elif read == "eq":
            assert unread == read_one
        elif read == "pickle":
            assert pickle.dumps(unread) == pickle.dumps(read_one)
            assert pickle.loads(pickle.dumps(unread)) == read_one
        else:
            again = copy.deepcopy(unread)
            # Not the whole repr: a deep-copied frozenset may list its members in another order.
            assert type(again) is scenario.ScenarioResult and again == read_one
            assert repr(again.final_state) == repr(read_one.final_state)
        assert unread._state.frame is unread.pdb.frame

    def test_first_read_releases_the_coarse_state(self):
        result = run_scenario(make_config(rule="sacr", **self.CONFIG))
        coarse = weakref.ref(result._state)
        assert coarse().frame is not result.pdb.frame
        state = result.final_state
        assert coarse() is None and result._state is state

    def test_a_state_on_the_frame_or_none_is_returned_as_given(self):
        result = run_scenario(make_config())
        state = result.final_state
        fields = (result.config, result.pdb, result.reports, result.records, result.failed_at)
        given = scenario.ScenarioResult(*fields, state)
        assert given.final_state is state and given == result
        assert scenario.ScenarioResult(*fields).final_state is None
        assert scenario.ScenarioResult(*fields, None).final_state is None
        # A frame equal to the database's but another object is refined onto it.
        plain = make_frame(result.pdb.frame.labels)
        refined = scenario.ScenarioResult(*fields, core._mass(plain, state._table)).final_state
        assert refined.frame is result.pdb.frame and refined == state

    def test_concurrent_first_reads(self, monkeypatch):
        # The barrier holds each refinement until both threads are in one, so both read
        # the coarse state before either stores its refinement.
        eager, result = self.eager_and_lazy()
        barrier = threading.Barrier(2, timeout=10)
        refine = core.Frame.refine
        states, errors = [], []

        def refine_together(frame, table):
            barrier.wait()
            return refine(frame, table)

        monkeypatch.setattr(core.Frame, "refine", refine_together)

        def read():
            try:
                states.append(result.final_state)
            except BaseException as exc:  # noqa: BLE001 (reported below)
                errors.append(exc)

        threads = [threading.Thread(target=read) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == [] and len(states) == 2
        assert states[0] == states[1] == eager and result.final_state in states

    def test_other_missing_attributes_still_raise(self):
        result = run_scenario(make_config())
        state = result.final_state
        for m in (state, vacuous(state.frame)):
            with pytest.raises(AttributeError, match="'MassFunction' object has no attribute 'x'"):
                m.x
        assert "_table" in vars(state) and "_table" not in vars(MassFunction)
        with pytest.raises(AttributeError, match="'_table'"):
            MassFunction.__new__(MassFunction)._table
        with pytest.raises(AttributeError):
            result.x
