import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from belieffusion import (
    DegenerateError,
    Frame,
    MassFunction,
    ScenarioConfig,
    TotalConflictError,
    conjunctive,
    make_frame,
    validate,
)
from belieffusion import cli, core, rules
from belieffusion.cli import main
from belieffusion.decision import _BETP_LOOP_MEMBERS
from belieffusion.massio import (
    MassFormatError,
    mass_from_dict,
    mass_to_dict,
    read_mass,
    write_mass,
)

from conftest import EX1, FRAME_AB, SKEWED, ZADEH, bba, labelled, random_bba, random_coarsening

FRAME_CBA = make_frame(["C", "B", "A"])  # not in sorted order, so frame order shows


class TestMassFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        write_mass(str(path), EX1[0])
        again = read_mass(str(path))
        assert again.frame == EX1[0].frame
        assert again.entries == EX1[0].entries

    def test_round_trip_random(self, tmp_path, rng):
        frame = make_frame(["A", "B", "C", "D", "E"])
        for i in range(25):
            m = random_bba(rng, frame)
            path = tmp_path / f"m{i}.json"
            write_mass(str(path), m)
            assert read_mass(str(path)).entries == m.entries

    def test_round_trip_from_a_coarse_frame(self, tmp_path):
        # The file holds the frame's labels; reading it gives the bba on the
        # plain frame of those labels, with the table ``refine`` gives.
        rng = random.Random(5)
        for i in range(25):
            n = rng.randint(1, 12)
            c = random_coarsening(rng, n, rng.randint(1, n))
            table = {rng.getrandbits(c.size) or 1: rng.random() for _ in range(4)}
            m = core._mass(c, {z: v / sum(table.values()) for z, v in table.items()})
            path = tmp_path / f"m{i}.json"
            write_mass(str(path), m)
            again = read_mass(str(path))
            assert again.frame == Frame(c.labels) and again._table == c.refine(m._table)

    def test_open_world_round_trip(self):
        m = conjunctive(*EX1)
        again = mass_from_dict(mass_to_dict(m))
        assert again.open_world
        assert again.entries == m.entries

    def test_empty_set_requires_open_world(self):
        doc = {"frame": ["A"], "masses": [{"set": [], "mass": 0.5}, {"set": ["A"], "mass": 0.5}]}
        with pytest.raises(MassFormatError, match="open_world"):
            mass_from_dict(doc)

    def test_unknown_label(self):
        doc = {"frame": ["A"], "masses": [{"set": ["Z"], "mass": 1.0}]}
        with pytest.raises(MassFormatError, match="Z"):
            mass_from_dict(doc)

    def test_duplicate_set(self):
        doc = {
            "frame": ["A"],
            "masses": [{"set": ["A"], "mass": 0.5}, {"set": ["A"], "mass": 0.5}],
        }
        with pytest.raises(MassFormatError, match="duplicate"):
            mass_from_dict(doc)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"frame": ["A"],\n  "masses": oops}', encoding="utf-8")
        with pytest.raises(MassFormatError, match="line 2"):
            read_mass(str(path))


SMALL_CONFIG = {
    "n_targets": 8,
    "n_emitters": 16,
    "emitters_per_target": [2, 4],
    "truth_index": 2,
    "similar_target": 3,
    "n_reports": 3,
}


def run_cli(*args, **env):
    """The CLI in a fresh interpreter, with ``env`` added to this process's environment."""
    return subprocess.run(
        [sys.executable, "-m", "belieffusion", *args],
        capture_output=True,
        text=True,
        env={**os.environ, **env} if env else None,
    )


@pytest.fixture
def example_files(tmp_path):
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_mass(str(p1), EX1[0])
    write_mass(str(p2), EX1[1])
    return str(p1), str(p2)


class TestCli:
    def test_rules_lists_all(self):
        result = run_cli("rules")
        assert result.returncode == 0
        assert set(result.stdout.split()) == {
            "dempster", "smets", "yager", "dubois-prade", "dsmh", "inagaki", "sacr", "pcr",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["combine", "--rule", "nope", "a.json", "b.json"],
            ["scenario", "--config", "c.json", "--out", "o", "--seed", "x"],
            [],
            ["combine", "--rule", "pcr", "a.json"],
            ["rules", "--bogus"],
        ],
        ids=["bad-choice", "bad-seed", "no-subcommand", "no-positional", "unknown-option"],
    )
    def test_bad_command_line_exit_2_one_line(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("belieffusion: ") and err.count("\n") == 1

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["combine", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: belieffusion combine")

    def test_combine_pcr(self, example_files, tmp_path):
        out = tmp_path / "out.json"
        result = run_cli("combine", "--rule", "pcr", *example_files, "-o", str(out))
        assert result.returncode == 0, result.stderr
        fused = read_mass(str(out))
        assert labelled(fused) == pytest.approx(
            {"A": 0.54, "B": 0.18, "AB": 0.28}, abs=1e-12
        )
        assert validate(fused).ok

    def test_combine_dempster_to_stdout(self, example_files):
        result = run_cli("combine", "--rule", "dempster", *example_files)
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        masses = {tuple(e["set"]): e["mass"] for e in doc["masses"]}
        assert masses[("A",)] == pytest.approx(0.512, abs=5e-4)

    def test_combine_parse_failure_exit_2(self, tmp_path, example_files):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        result = run_cli("combine", "--rule", "pcr", str(bad), example_files[0])
        assert result.returncode == 2
        assert result.stderr

    @pytest.mark.parametrize(
        "doc,cause",
        [
            ({"masses": []}, "missing field: 'frame'"),
            ({"frame": ["A", "B"], "masses": [{"set": ["C"], "mass": 1.0}]},
             "masses[0]: label not in frame: 'C'"),
            ({"frame": ["A"], "masses": [{"set": ["A"], "mass": 1.0}], "open_world": "false"},
             "'open_world' must be true or false"),
            ({"frame": ["A", "B"], "masses": [{"set": ["A"], "mass": 1.0}], "open_wrold": True},
             "unknown key 'open_wrold'"),
            ({"frame": ["A", "B"], "masses": [{"set": ["A"], "mass": 1.0, "weight": 2}]},
             "masses[0]: unknown key 'weight'"),
            ([1, 2], "top level must be an object"),
            ({"frame": "AB", "masses": []}, "'frame' must be an array of labels"),
            ({"frame": ["A", 3], "masses": []}, "'frame' must be an array of labels"),
            ({"frame": [], "masses": []}, "frame needs at least one label"),
            ({"frame": ["A", "A"], "masses": []}, "duplicate label in frame: 'A'"),
            ({"frame": ["A", ""], "masses": []}, "empty label in frame"),
            ({"frame": ["A"], "masses": {}}, "'masses' must be an array"),
            ({"frame": ["A"], "masses": [3]}, "masses[0]: expected {'set': [...], 'mass': x}"),
            ({"frame": ["A"], "masses": [{"set": ["A"]}]},
             "masses[0]: expected {'set': [...], 'mass': x}"),
            ({"frame": ["A"], "masses": [{"set": "A", "mass": 1.0}]},
             "masses[0]: 'set' must be an array of labels"),
            ({"frame": ["A"], "masses": [{"set": ["A"], "mass": "1"}]},
             "masses[0]: 'mass' must be a number"),
            ({"frame": ["A"], "masses": [{"set": ["A"], "mass": True}]},
             "masses[0]: 'mass' must be a number"),
            ({"frame": ["A"], "masses": [{"set": ["A"], "mass": None}]},
             "masses[0]: 'mass' must be a number"),
            ({"frame": ["A", "B"], "masses": [{"set": ["A", "A"], "mass": 1.0}]},
             "masses[0]: label 'A' listed twice"),
        ],
    )
    def test_format_error_names_file(self, tmp_path, doc, cause):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        result = run_cli("betp", str(bad))
        assert result.returncode == 2
        assert result.stderr == f"belieffusion: {bad}: {cause}\n"

    def test_combine_invalid_bba_exit_2(self, tmp_path, example_files):
        bad = tmp_path / "deficit.json"
        bad.write_text(
            json.dumps({"frame": ["A", "B"], "masses": [{"set": ["A"], "mass": 0.5}]}),
            encoding="utf-8",
        )
        result = run_cli("combine", "--rule", "pcr", str(bad), example_files[0])
        assert result.returncode == 2

    @pytest.mark.parametrize("command", ["combine", "conflict", "betp"])
    def test_open_world_input_exit_2(self, tmp_path, example_files, command):
        path = tmp_path / "open.json"
        write_mass(str(path), conjunctive(*EX1))
        rule = ["--rule", "pcr"] if command == "combine" else []
        second = [] if command == "betp" else [example_files[0]]
        result = run_cli(command, *rule, str(path), *second)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == f"belieffusion: {path}: expected a closed-world bba\n"

    def test_combine_frame_mismatch_exit_3(self, tmp_path, example_files):
        other = tmp_path / "other.json"
        write_mass(str(other), ZADEH[0])
        result = run_cli("combine", "--rule", "pcr", example_files[0], str(other))
        assert result.returncode == 3

    def test_combine_total_conflict_exit_4(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_mass(str(p1), bba(FRAME_AB, {"A": 1.0}))
        write_mass(str(p2), bba(FRAME_AB, {"B": 1.0}))
        result = run_cli("combine", "--rule", "dempster", str(p1), str(p2))
        assert result.returncode == 4
        assert "cannot be used" in result.stderr

    def test_combine_degenerate_exit_4(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_mass(str(p1), bba(FRAME_AB, {"A": 1.0}))
        write_mass(str(p2), bba(FRAME_AB, {"B": 1.0}))
        result = run_cli("combine", "--rule", "inagaki", str(p1), str(p2))
        assert result.returncode == 4
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr

    def test_total_conflict_is_a_degenerate_combination(self):
        # One EXIT_CODES entry and one except clause in scenario.fold cover both.
        assert issubclass(TotalConflictError, DegenerateError)

    def test_missing_input_exit_5(self, tmp_path):
        result = run_cli("betp", str(tmp_path / "missing.json"))
        assert result.returncode == 5
        assert result.stderr.startswith("belieffusion: ") and "missing.json" in result.stderr

    def test_unwritable_output_exit_5(self, tmp_path, example_files):
        out = tmp_path / "no" / "such" / "dir" / "x.json"
        result = run_cli("combine", "--rule", "pcr", *example_files, "-o", str(out))
        assert result.returncode == 5
        assert "Traceback" not in result.stderr

    # conflict prints the pair (A, B∪C) of ASCII labels, after k12; betp prints the
    # label Ω after A's line, and combine after the start of its JSON document.
    @pytest.mark.parametrize("command,labels,bbas", [
        ("conflict", "ABC", [{"A": 0.6, "ABC": 0.4}, {"B": 0.5, "BC": 0.2, "ABC": 0.3}]),
        ("betp", "AΩ", [{"A": 0.6, "AΩ": 0.4}]),
        ("combine --rule pcr", "AΩ", [{"A": 0.6, "AΩ": 0.4}, {"Ω": 0.3, "AΩ": 0.7}]),
    ], ids=["conflict", "betp", "combine"])
    def test_output_stdout_cannot_encode_exit_5(self, tmp_path, command, labels, bbas):
        paths = [tmp_path / f"m{i}.json" for i in range(len(bbas))]
        for path, masses in zip(paths, bbas):
            write_mass(str(path), bba(make_frame(labels), masses))
        result = run_cli(*command.split(), *map(str, paths), PYTHONIOENCODING="ascii")
        assert result.returncode == 5 and "Traceback" not in result.stderr
        assert result.stdout == ""
        assert result.stderr.startswith("belieffusion: ") and result.stderr.count("\n") == 1
        assert "can't encode character" in result.stderr
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        for doc in (cli.__doc__, readme):
            assert "stdout's encoding cannot encode" in _exit_code_paragraph(doc)

    @pytest.mark.parametrize("label", ["A,B", "D\nE", "F∪G", "H\r", "I\u2028J"])
    @pytest.mark.parametrize("command", ["betp", "conflict", "combine --rule sacr"])
    def test_label_that_would_split_an_output_line_exit_2(self, tmp_path, capsys, command,
                                                          label):
        frame = make_frame([label, "Z"])
        path = str(tmp_path / "m.json")
        write_mass(path, MassFunction(frame, {frame.subset([label]): 0.7,
                                              frame.full_set(): 0.3}))
        assert main([*command.split(), *[path] * (1 if command == "betp" else 2)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"belieffusion: {path}: label {label!r} holds ',', '∪' or a line break\n"
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        assert "a label that holds `,`, `∪` or a line break" in " ".join(readme.split())
        assert "a label that holds ``,``, ``∪`` or a line break" in " ".join(cli.__doc__.split())

    def test_non_finite_mass_exit_2(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"frame": ["A", "B"], "masses": [{"set": ["A"], "mass": NaN}]}',
                        encoding="utf-8")
        result = run_cli("betp", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "non-finite" in result.stderr

    def test_non_utf8_input_exit_2(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\x89\xff")
        result = run_cli("betp", str(path))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "text",
        [
            # 401 digits: an integer json parses, too large for a float.
            '{"frame": ["A"], "masses": [{"set": ["A"], "mass": 1%s}]}' % ("0" * 400),
            # 5000 digits: over Python's limit for parsing an integer.
            '{"frame": ["A"], "masses": [{"set": ["A"], "mass": 1%s}]}' % ("0" * 4999),
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["float-overflow", "digit-limit", "deep-nesting"],
    )
    def test_oversized_json_exit_2(self, tmp_path, text):
        path = tmp_path / "big.json"
        path.write_text(text, encoding="utf-8")
        result = run_cli("betp", str(path))
        assert result.returncode == 2
        assert result.stderr.startswith(f"belieffusion: {path}: ")
        assert result.stderr.count("\n") == 1 and result.stdout == ""

    def test_conflict_output(self, example_files):
        result = run_cli("conflict", *example_files)
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert float(lines[0]) == pytest.approx(0.18, abs=1e-12)
        assert lines[1:] == ["A,B,0.18"]

    def test_conflict_zadeh(self, tmp_path):
        p1, p2 = tmp_path / "z1.json", tmp_path / "z2.json"
        write_mass(str(p1), ZADEH[0])
        write_mass(str(p2), ZADEH[1])
        result = run_cli("conflict", str(p1), str(p2))
        lines = result.stdout.strip().splitlines()
        assert float(lines[0]) == pytest.approx(0.99, abs=1e-12)
        assert len(lines[1:]) == 3

    def test_conflict_vacuous(self, tmp_path):
        from belieffusion import vacuous

        p = tmp_path / "v.json"
        write_mass(str(p), vacuous(FRAME_AB))
        result = run_cli("conflict", str(p), str(p))
        lines = result.stdout.strip().splitlines()
        assert float(lines[0]) == 0.0
        assert lines[1:] == []

    def test_betp_output(self, example_files, tmp_path):
        result = run_cli("betp", example_files[0])
        assert result.returncode == 0
        values = dict(line.split(",") for line in result.stdout.strip().splitlines())
        assert float(values["A"]) == pytest.approx(0.8, abs=1e-12)
        assert float(values["B"]) == pytest.approx(0.2, abs=1e-12)
        # One label,prob line per label, in frame order, each prob a float's repr.
        path = tmp_path / "three.json"
        write_mass(str(path), bba(FRAME_CBA, {"C": 0.5, "BA": 0.3, "CBA": 0.2}))
        result = run_cli("betp", str(path))
        assert result.returncode == 0
        rows = [line.split(",") for line in result.stdout.splitlines()]
        assert [label for label, _ in rows] == ["C", "B", "A"]
        assert all(prob == repr(float(prob)) for _, prob in rows)
        assert float(rows[0][1]) == pytest.approx(0.5 + 0.2 / 3, abs=1e-12)

    # As text, conflict's first line is the ∅ mass under smets and the Θ mass
    # under yager. SKEWED sums k12 to another float in pass order; ZADEH's 0.99
    # shows a fixed-point format, which SKEWED's 0.278278 hides.
    @pytest.mark.parametrize("pair", [SKEWED, ZADEH], ids=["skewed", "zadeh"])
    def test_conflict_total_is_the_empty_mass_smets_and_yager_move(self, tmp_path, capsys, pair):
        paths = []
        for i, m in enumerate(pair):
            paths.append(str(tmp_path / f"m{i}.json"))
            write_mass(paths[-1], m)

        def mass_on(rule, members):
            assert main(["combine", "--rule", rule, *paths]) == 0
            doc = json.loads(capsys.readouterr().out)
            return repr(next(e["mass"] for e in doc["masses"] if e["set"] == members))

        assert main(["conflict", *paths]) == 0
        k12 = capsys.readouterr().out.splitlines()[0]
        assert k12 == mass_on("smets", []) == mass_on("yager", ["A", "B", "C"])

    def test_scenario_runs_and_is_deterministic(self, tmp_path):
        config = {
            "n_targets": 8,
            "n_emitters": 16,
            "emitters_per_target": [2, 4],
            "truth_index": 2,
            "similar_target": 3,
            "n_reports": 10,
            "seed": 7,
            "rule": "pcr",
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            result = run_cli("scenario", "--config", str(cfg), "--out", str(out))
            assert result.returncode == 0, result.stderr
        csv1 = (out1 / "trajectory_pcr_seed7.csv").read_bytes()
        csv2 = (out2 / "trajectory_pcr_seed7.csv").read_bytes()
        assert csv1 == csv2
        assert csv1.decode().count("\n") == 11  # header + 10 steps
        meta = json.loads((out1 / "trajectory_pcr_seed7.meta.json").read_text())
        assert meta["rng_algorithm"] == "numpy.random.PCG64"
        assert meta["failed_at"] is None

    def test_scenario_zero_reports(self, tmp_path):
        config = {
            "n_targets": 8,
            "n_emitters": 16,
            "emitters_per_target": [2, 4],
            "truth_index": 2,
            "similar_target": 3,
            "n_reports": 0,
            "seed": 7,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("scenario", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 0, result.stderr
        content = (tmp_path / "o" / "trajectory_pcr_seed7.csv").read_text()
        assert content.strip() == "step,rule,emitter,set_size,k12,betp_truth,betp_similar,decided,tie"

    def test_scenario_draws_once_for_every_rule(self, tmp_path, monkeypatch):
        # One database, one coarsening and one report bba per distinct report
        # set serve all six rules; building them per rule and per step would
        # also pass the byte checks, so count the builds.
        from belieffusion import scenario

        config = {"n_targets": 8, "n_emitters": 16, "emitters_per_target": [2, 4],
                  "truth_index": 2, "similar_target": 3, "n_reports": 25, "seed": 7}
        reports = scenario.draw(scenario.ScenarioConfig(**config))[1]
        calls = {"build_pdb": 0, "report_bba": 0, "Frame": 0}
        for name in calls:
            original = getattr(scenario, name)

            def counting(*args, _name=name, _original=original):
                # Frame counts the coarse frames, built from labels and sets.
                calls[_name] += _name != "Frame" or len(args) == 2
                return _original(*args)

            monkeypatch.setattr(scenario, name, counting)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        rules = ["dempster", "yager", "inagaki", "pcr", "dubois-prade", "sacr"]
        assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path),
                     "--rules", ",".join(rules)]) == 0
        emitters = {
            rule: [line.split(",")[2] for line in
                   (tmp_path / f"trajectory_{rule}_seed7.csv").read_text().splitlines()[1:]]
            for rule in rules
        }
        assert all(column == emitters["pcr"] for column in emitters.values())
        assert emitters["pcr"] == [str(e) for e, _ in reports]
        assert calls == {"build_pdb": 1, "report_bba": len({s for _, s in reports}),
                         "Frame": 1}
        assert len({s for _, s in reports}) < len(set(emitters["pcr"])) < 25

    def test_scenario_sweep_writes_what_each_rule_writes_alone(self, tmp_path):
        # Six rules in one process write the bytes each rule writes alone with
        # the report-set memo empty, as in a fresh process.
        from belieffusion import scenario

        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(ACCEPTANCE_CONFIG), encoding="utf-8")
        rules = ["dempster", "yager", "dubois-prade", "inagaki", "sacr", "pcr"]
        sweep = tmp_path / "sweep"
        assert main(["scenario", "--config", str(cfg), "--out", str(sweep),
                     "--rules", ",".join(rules)]) == 0
        for rule in rules:
            scenario._report_set.cache_clear()
            alone = tmp_path / rule
            assert main(["scenario", "--config", str(cfg), "--out", str(alone),
                         "--rules", rule]) == 0
            for ext in ("csv", "meta.json"):
                name = f"trajectory_{rule}_seed0.{ext}"
                assert (sweep / name).read_bytes() == (alone / name).read_bytes() != b""

    def test_scenario_rule_that_cannot_fuse_ends_only_its_run(self, tmp_path):
        # Categorical reports: step 3 contradicts the earlier ones, so dempster and
        # inagaki cannot fuse it. Each run ends there; the sweep goes on to pcr.
        config = {"n_targets": 8, "n_emitters": 16, "emitters_per_target": [2, 4],
                  "truth_index": 2, "n_reports": 5, "report_mass": 1.0}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "o"
        result = run_cli("scenario", "--config", str(cfg), "--out", str(out), "--seed", "3",
                         "--rules", "dempster,inagaki,pcr")
        assert result.returncode == 0, result.stderr
        assert len(list(out.iterdir())) == 6
        assert result.stderr.splitlines() == [
            f"belieffusion: rule {rule!r} hit total conflict at step 3; trajectory truncated"
            for rule in ("dempster", "inagaki")
        ]
        failed_at = {}
        for rule in ("dempster", "inagaki", "pcr"):
            assert (out / f"trajectory_{rule}_seed3.csv").stat().st_size > 0
            meta = json.loads((out / f"trajectory_{rule}_seed3.meta.json").read_text())
            failed_at[rule] = meta["failed_at"]
        assert failed_at == {"dempster": 3, "inagaki": 3, "pcr": None}

    @pytest.mark.parametrize(
        "overrides,extra,cause",
        [
            ({"n_emitters": 2}, (), "cannot supply"),
            ({}, ("--rules", "pcr,smets"), "smets produces open-world states"),
            ({"rule": "smets"}, (), "smets produces open-world states"),
            ({"n_targets": 1, "truth_index": 0, "similar_target": None}, (), "pool is empty"),
            ({"n_targets": 2, "truth_index": 0, "similar_target": 1}, (), "pool is empty"),
            ({}, ("--rules", "pcr,pcr"), "more than once: 'pcr,pcr'"),
            ({"seed": 2**64}, (), "unsigned 64-bit"),
            # A 401-digit seed used to run, then fail writing a file named after it.
            ({"seed": 10**400}, (), "unsigned 64-bit"),
            # An empty --rules, as an unset shell variable gives, used to run the config's rule.
            ({}, ("--rules", ""), "unknown rule ''"),
            ({}, ("--rules", ","), "unknown rule ''"),
        ],
        ids=["pool-too-small", "rules-smets", "config-smets", "one-target", "no-other-target",
             "rules-duplicate", "seed-past-u64", "seed-401-digits", "rules-empty",
             "rules-empty-entries"],
    )
    def test_scenario_infeasible_config_exit_2(self, tmp_path, overrides, extra, cause):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(SMALL_CONFIG, **overrides)), encoding="utf-8")
        out = tmp_path / "o"
        result = run_cli("scenario", "--config", str(cfg), "--out", str(out), *extra)
        assert result.returncode == 2
        # A cause read from the file names the file; one from a flag does not.
        prefix = "belieffusion: " if extra else f"belieffusion: {cfg}: "
        assert result.stderr.startswith(prefix)
        assert cause in result.stderr
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    def test_scenario_config_not_an_object_exit_2(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps([SMALL_CONFIG]), encoding="utf-8")
        out = tmp_path / "o"
        result = run_cli("scenario", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 2
        assert result.stderr == f"belieffusion: {cfg}: top level must be an object\n"
        assert not out.exists()

    def test_scenario_missing_config_exit_5(self, tmp_path):
        result = run_cli("scenario", "--config", str(tmp_path / "nocfg.json"),
                         "--out", str(tmp_path / "o"))
        assert result.returncode == 5
        assert "nocfg.json" in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_scenario_negative_seed_exit_2(self, tmp_path, where):
        config = dict(SMALL_CONFIG, seed=-1 if where == "config" else 0)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        extra = ("--seed", "-1") if where == "flag" else ()
        result = run_cli("scenario", "--config", str(cfg), "--out", str(tmp_path / "o"), *extra)
        assert result.returncode == 2
        assert "seed" in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "key,value",
        [("n_targets", 20.7), ("seed", True), ("pfa", "0.3"), ("emitters_per_target", [2]),
         ("similar_target", 3.0)],
    )
    def test_scenario_wrong_typed_value_exit_2(self, tmp_path, key, value):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(SMALL_CONFIG, **{key: value})), encoding="utf-8")
        result = run_cli("scenario", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert repr(key) in result.stderr

    @pytest.mark.parametrize("digits", [401, 5000], ids=["float-overflow", "digit-limit"])
    def test_scenario_oversized_number_exit_2(self, tmp_path, digits):
        doc = json.dumps({k: v for k, v in SMALL_CONFIG.items() if k != "pfa"})
        cfg = tmp_path / "config.json"
        cfg.write_text(doc[:-1] + ', "pfa": 1' + "0" * (digits - 1) + "}", encoding="utf-8")
        out = tmp_path / "o"
        result = run_cli("scenario", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 2
        assert result.stderr.startswith(f"belieffusion: {cfg}: ")
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    def test_scenario_missing_key_exit_2(self, tmp_path):
        config = {k: v for k, v in SMALL_CONFIG.items() if k != "truth_index"}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("scenario", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "truth_index" in result.stderr

    def test_scenario_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(SMALL_CONFIG, n_reprots=5)), encoding="utf-8")
        out = tmp_path / "o"
        result = run_cli("scenario", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 2
        assert result.stderr.startswith(f"belieffusion: {cfg}: ")
        assert "'n_reprots'" in result.stderr
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    def test_scenario_integer_for_float_field(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(SMALL_CONFIG, pfa=0, report_mass=1)), encoding="utf-8")
        result = run_cli("scenario", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 0, result.stderr
        meta = json.loads((tmp_path / "o" / "trajectory_pcr_seed0.meta.json").read_text())
        assert meta["pfa"] == 0.0 and isinstance(meta["pfa"], float)
        assert meta["report_mass"] == 1.0 and isinstance(meta["report_mass"], float)


# The acceptance sweep's desk shape (tests/test_acceptance.py), seed 0.
ACCEPTANCE_CONFIG = {
    "n_targets": 20,
    "n_emitters": 35,
    "emitters_per_target": [5, 9],
    "truth_index": 4,
    "similar_target": 5,
    "pfa": 0.3,
    "n_reports": 25,
    "report_mass": 0.8,
}


# A 135-label bba of 340 member visits (Σ|A|), above betp's loop budget.
WIDE_FRAME = make_frame([f"t{i:03d}" for i in range(135)])
WIDE_BBA = MassFunction(WIDE_FRAME, {
    WIDE_FRAME.full_set(): 0.4,
    WIDE_FRAME.subset_of_indices(range(100)): 0.35,
    WIDE_FRAME.subset_of_indices(range(30, 135)): 0.25,
})

# Two bbas of 20 focal sets on 20 labels, {i, i + 1} and {i, i + 3} (mod 20):
# 400 focal pairs, above the pair budget from which sacr groups its sums in numpy.
SACR_FRAME = make_frame([f"s{i:02d}" for i in range(20)])
SACR_PAIR = [MassFunction(SACR_FRAME, {SACR_FRAME.subset_of_indices({i, (i + d) % 20}): 0.05
                                       for i in range(20)}) for d in (1, 3)]


@pytest.mark.parametrize(
    "argv,loads_numpy,modules,no_stdlib",
    [
        (None, False, [], ["dataclasses", "inspect"]),
        (["combine", "--rule", "pcr", "{m1}", "{m2}"], False, [], ["dataclasses", "inspect"]),
        (["combine", "--rule", "sacr", "{m1}", "{m2}"], False, [], ["dataclasses", "inspect"]),
        (["combine", "--rule", "sacr", "{s1}", "{s2}"], True, [], ["dataclasses"]),
        (["conflict", "{m1}", "{m2}"], False, [], ["dataclasses", "inspect"]),
        (["rules"], False, [], ["dataclasses", "inspect"]),
        (["betp", "{m1}"], False, ["decision"], ["dataclasses", "inspect"]),
        (["betp", "{wide}"], True, ["decision"], ["dataclasses"]),
        (["scenario", "--config", "{config}", "--out", "{out}"], True, ["decision", "scenario"],
         []),
    ],
    ids=["import", "combine", "combine-sacr", "combine-sacr-wide", "conflict", "rules", "betp",
         "betp-wide", "scenario"],
)
def test_numpy_loaded_only_by_betp_and_scenario(
    tmp_path, capsys, example_files, argv, loads_numpy, modules, no_stdlib
):
    """In a fresh interpreter (this one imported numpy through conftest),
    importing the package and the CLI loads no numpy and neither ``decision``
    nor ``scenario``, nor do the commands that never call them; ``betp`` loads
    ``decision``, and numpy only for a bba above its loop's member budget,
    ``combine --rule sacr`` numpy only for a pair of at most 64 atoms at or
    above its pair budget, ``scenario`` all three, and each produces the same
    output as an in-process run. None but ``scenario`` loads ``dataclasses``,
    and none that skips numpy loads ``inspect``."""
    assert sum(fs.cardinality for fs in WIDE_BBA.entries) > _BETP_LOOP_MEMBERS
    assert len(SACR_PAIR[0]._table) * len(SACR_PAIR[1]._table) >= rules._ACR_ARRAY_PAIRS
    config = tmp_path / "config.json"
    config.write_text(json.dumps(ACCEPTANCE_CONFIG), encoding="utf-8")
    wide = tmp_path / "wide.json"
    write_mass(str(wide), WIDE_BBA)
    sacr_paths = {}
    for name, m in zip(("s1", "s2"), SACR_PAIR):
        sacr_paths[name] = str(tmp_path / f"{name}.json")
        write_mass(sacr_paths[name], m)
    paths = dict(m1=example_files[0], m2=example_files[1], config=str(config), wide=str(wide),
                 **sacr_paths)
    code = (
        "import sys\n"
        "import belieffusion, belieffusion.cli\n"
        "if len(sys.argv) > 1:\n"
        "    assert belieffusion.cli.main(sys.argv[1:]) == 0\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
        "print([m for m in ('decision', 'scenario') if 'belieffusion.' + m in sys.modules],\n"
        "      file=sys.stderr)\n"
        "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules], file=sys.stderr)\n"
    )
    args = [a.format(out=str(tmp_path / "fresh"), **paths) for a in argv or []]
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    *lines, stdlib = result.stderr.splitlines()
    assert lines == [str(loads_numpy), str(modules)]
    assert not set(stdlib.split()) & set(no_stdlib)
    if argv is None:
        return
    assert main([a.format(out=str(tmp_path / "here"), **paths) for a in argv]) == 0
    assert result.stdout == capsys.readouterr().out
    if "{out}" in argv:
        fresh, here = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                       for d in ("fresh", "here"))
        assert fresh and fresh == here


# Every name the package exports, by defining module: the names of core and
# rules, which it re-exports by their __all__, and the lazy names of decision
# and scenario.
PACKAGE_NAMES = {
    "core": ["ConflictDecomposition", "FocalSet", "Frame", "FrameMismatchError",
             "MassFunction", "SUM_TOL", "ValidationReport", "conflict", "conjunctive",
             "disjunctive", "make_frame", "vacuous", "validate"],
    "decision": ["Decision", "PignisticDistribution", "betp", "decide"],
    "rules": ["RULES", "ConflictShare", "DegenerateError", "InvalidBetaError",
              "TotalConflictError", "acr_generic", "acr_inagaki_weights", "alpha0", "beta0",
              "dempster", "dsmh", "dubois_prade", "inagaki_extreme", "inagaki_generic", "pcr",
              "pcr_shares", "sacr", "smets", "yager"],
    "scenario": ["PlatformDatabase", "ScenarioConfig", "ScenarioError", "ScenarioResult",
                 "TrajectoryRecord", "build_pdb", "gen_report", "report_bba", "draw", "fold",
                 "run_scenario"],
}


def test_package_names_resolve_on_first_access():
    """In a fresh interpreter, a bare ``import belieffusion`` loads neither
    ``decision`` nor ``scenario``; a name of either, or either module as an
    attribute, loads it on first access, and every exported name is the object
    its defining module holds."""
    code = (
        "import json, sys\n"
        "import belieffusion as bf\n"
        "lazy = ['belieffusion.decision', 'belieffusion.scenario']\n"
        "assert not any(m in sys.modules for m in lazy)\n"
        "assert bf.betp is sys.modules['belieffusion.decision'].betp\n"
        "assert bf.decision is sys.modules['belieffusion.decision']\n"
        "assert 'belieffusion.scenario' not in sys.modules\n"
        "assert bf.scenario.ScenarioError is bf.ScenarioError is bf.core.ScenarioError\n"
        "for module, names in json.loads(sys.argv[1]).items():\n"
        "    for name in names:\n"
        "        assert getattr(bf, name) is getattr(getattr(bf, module), name), name\n"
        "star = {}\n"
        "exec('from belieffusion import *', star)\n"
        "assert set(json.loads(sys.argv[2])) <= set(star)\n"
        "try:\n"
        "    bf.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    exported = [*PACKAGE_NAMES, *(n for names in PACKAGE_NAMES.values() for n in names)]
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(PACKAGE_NAMES), json.dumps(exported)],
        capture_output=True, text=True,
    )
    assert result.stderr == ""
    assert result.stdout == "module 'belieffusion' has no attribute 'no_such_name'\n"


def _exit_code_paragraph(text: str) -> str:
    """The paragraph that starts at ``Exit codes:``, on one line."""
    start = text.index("Exit codes:")
    return " ".join(text[start:].split("\n\n", 1)[0].split())


def test_documented_exit_codes_are_the_cli_codes():
    # README and the cli docstring list each code the CLI can return, and no other.
    codes = {cli.EXIT_OK, *cli.EXIT_CODES.values()}
    docstring = _exit_code_paragraph(cli.__doc__)
    assert {int(c) for c in re.findall(r"(?:codes:|,) (\d+) ", docstring)} == codes
    readme = _exit_code_paragraph((Path(__file__).parents[1] / "README.md").read_text("utf-8"))
    assert {int(c) for c in re.findall(r"`(\d+)`", readme)} == codes


def test_documented_config_fields_are_the_scenario_config_fields():
    # README names each ScenarioConfig field once: required, or taking its default.
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text("utf-8").split())
    required, defaulted = re.search(
        r"fields of `ScenarioConfig`: (.*?) are required; (.*?) take the dataclass defaults",
        readme,
    ).groups()
    missing = dataclasses.MISSING
    fields = dataclasses.fields(ScenarioConfig)
    assert set(re.findall(r"`(\w+)`", required)) == {
        f.name for f in fields if f.default is missing and f.default_factory is missing
    }
    assert set(re.findall(r"`(\w+)`", defaulted)) == {
        f.name for f in fields if f.default is not missing or f.default_factory is not missing
    }
