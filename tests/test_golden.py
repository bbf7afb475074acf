"""Golden outputs: SHA-256 digests of trajectory files and of the stdout of
each demo README lists. The trajectory digests were recorded before the
combination rules were rebuilt on the single pair pass; the Dempster digest
was re-recorded when the rule began to normalize by Σ_{A≠∅} m∧(A) instead of
1 - k12 (a deliberate change of its trajectory).

Any change to a rule's arithmetic, to the order in which it sums k12 or
redistributes conflicting mass, or to the insertion order of its output
(which ``betp`` and the next fold step sum in) changes these bytes. A change
that is meant to alter the trajectories must say so and re-record them.

The acceptance-gate shape covers every closed-world rule. The two 135-target
runs are the ones among seeds 0-9 whose bytes depend on the summation
order: sacr seed 4 changes if k12 is summed over the disjoint pairs in the
pair pass's order instead of sorted, and dubois-prade seed 9 changes if the
disjoint pairs are visited sorted instead of in storage order. Yager seed 2
and inagaki seed 8 on the acceptance-gate shape pin the k12 that the two
redistributing rules move: each changes if its rule sums k12 in pass order
instead of reading the sorted pairs' sum, which conflict reports.

The last two runs pin the platform database on shapes the others miss: one
without a similar target, so the truth alone owns its non-common emitters,
and one whose truth owns a single emitter, the common one.

Each demo runs as README shows it, in a fresh interpreter with every warning
an error. Like the trajectory digests, a demo's digest changes only with a
deliberate change of its output, which must say so and re-record it.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from belieffusion import ScenarioConfig, run_scenario
from belieffusion.scenario import write_metadata, write_trajectory_csv

DESK = dict(n_targets=20, n_emitters=35, emitters_per_target=(5, 9), truth_index=4,
            similar_target=5, pfa=0.3, n_reports=25, report_mass=0.8, seed=0)
WIDE = dict(DESK, n_targets=135, n_emitters=200, n_reports=10)

TRAJECTORIES = [
    ("dempster", DESK, "4820774ee048aad706bbb8095eb2d21d1a75b2f2be2e75ee1e9095847bf9a1c6"),
    ("yager", DESK, "9523a46b0c3c789be699fcaedf78f6d3f9491e04427fdb8a0a6306c8ec8f3bbf"),
    ("dubois-prade", DESK, "409f843cd153f50ebe95f849c3f5793f6e322afc8641ad9f60896e7ccfafad17"),
    ("inagaki", DESK, "c026a84889b2d6a250c80649f26144b7912e9983886c028db96c82cd940d10ff"),
    ("sacr", DESK, "4e5af8c5343ff1062886f1cc1dc338d8744846a64fb00cad6b76765bd8b19f7b"),
    ("pcr", DESK, "c6e74bda9eff754ddb07c60034f7961eb858a5f91414e3a118c68959a6b9b619"),
    ("sacr", dict(WIDE, seed=4),
     "55930e6ec0f05b851de9f47dbb557f1f17e8e2e3f5ecd719116acab58c649968"),
    ("dubois-prade", dict(WIDE, seed=9),
     "82a0bbd44ac26a9dcdda470d6794a3795224cb43db31b3021147f4c97de97299"),
    ("pcr", dict(DESK, similar_target=None, seed=1),
     "97b1e6ca0e5c50983f1d16a1c07330582e8fa61945e11799eeaf1c5adafe9b6d"),
    ("yager", dict(DESK, similar_target=None, emitters_per_target=(1, 9), seed=2),
     "26a3bba7018bf5d334c6a123c92c1e7700cf3803abdaedc8c9f58148194e1d6b"),
    ("yager", dict(DESK, seed=2),
     "d17a143ce1bed48e75d441339f572bdd8946fa2aa4b80d40ffbd19124611e9b5"),
    ("inagaki", dict(DESK, seed=8),
     "9f1454dfc08af948f2690eb2366db482a1d4a16793aff44721accdfdebea930e"),
]

METADATA_SHA256 = "57e63079bdd55c56f3608c36408e0640221e910aac7ead307fdf6d65e233d986"


def _ids(runs) -> list[str]:
    """``rule-targets-seedN`` per run, and ``-desk`` after it for a run on the
    acceptance-gate shape whose id a run on another shape took first: pytest
    would rename both."""
    ids: list[str] = []
    for rule, shape, _ in runs:
        name = f"{rule}-{shape['n_targets']}-seed{shape['seed']}"
        ids.append(f"{name}-desk" if name in ids else name)
    return ids


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "rule,shape,digest",
    TRAJECTORIES,
    ids=_ids(TRAJECTORIES),
)
def test_trajectory_bytes(tmp_path, rule, shape, digest):
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), run_scenario(ScenarioConfig(rule=rule, **shape)))
    assert _sha256(path) == digest


def test_metadata_bytes(tmp_path):
    path = tmp_path / "trajectory.meta.json"
    write_metadata(str(path), run_scenario(ScenarioConfig(rule="dempster", **DESK)))
    assert _sha256(path) == METADATA_SHA256


@pytest.mark.parametrize("writer", ["write_trajectory_csv", "write_metadata", "write_mass"])
def test_written_bytes_do_not_depend_on_the_platform_newline(tmp_path, monkeypatch, writer):
    # A text file opened without newline="" turns each "\n" into os.linesep,
    # "\r\n" on Windows; an open that does so here stands in for that platform.
    from belieffusion import massio, scenario

    def crlf_open(file, mode="r", *args, newline=None, **kwargs):
        return open(file, mode, *args, newline="\r\n" if newline is None else newline, **kwargs)

    module = massio if writer == "write_mass" else scenario
    monkeypatch.setattr(module, "open", crlf_open, raising=False)
    result = run_scenario(ScenarioConfig(rule="dempster", **DESK))
    path = tmp_path / "out"
    getattr(module, writer)(str(path), result.final_state if writer == "write_mass" else result)
    data = path.read_bytes()
    assert b"\n" in data and b"\r" not in data
    if writer == "write_metadata":
        assert _sha256(path) == METADATA_SHA256


ROOT = Path(__file__).parents[1]

DEMO_STDOUT = [
    ("worked_examples", "5b77b638f299cb5571c5fa08710ee44708768a45d2f1c8908538ca0b0fd0e77c"),
    ("high_conflict", "1eb9617033c946d859b2ce01e8ebf16a7a429540444119f2abfb045e2fd853a1"),
    ("identification", "261c5de8c47c2ef3eb9c1c3f3d97a92b8dd4eec12a3543b429d6ae5a14b2474d"),
]


def test_demo_digests_are_the_readme_demos():
    readme = (ROOT / "README.md").read_text("utf-8")
    assert re.findall(r"^python demos/(\w+)\.py", readme, re.M) == [d for d, _ in DEMO_STDOUT]


@pytest.mark.parametrize("demo,digest", DEMO_STDOUT, ids=[d for d, _ in DEMO_STDOUT])
def test_demo_stdout(demo, digest):
    # Two demos print ∪: UTF-8 whatever the locale, so the digest is of one encoding.
    result = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / f"{demo}.py")],
                            capture_output=True, env=dict(os.environ, PYTHONIOENCODING="utf-8"))
    assert result.returncode == 0 and result.stderr == b"", result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == digest
