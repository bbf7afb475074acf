#!/usr/bin/env python3
"""
Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` with ``--smoke``, untraced and
traced, each in its own process, and checks that:

- the last line has exactly the contract keys and every metric, by name and
  with its unit, as a finite number;
- ``correct`` is true and ``failed`` lies between 0 and ``attempted``;
- within each traced operation the self times of its spans sum to no more
  than the operation's duration;
- two invocations print the same output digests, and the sweep digests equal
  those of ``belieffusion scenario`` run in a separate process;
- in a directory holding only ``BENCHMARK.json`` and the benchmark, the run
  fails without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0
SMOKE_SECONDS = "0.5"
CONTRACT_KEYS = {"correct", "attempted", "failed", "metrics"}


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int) -> tuple[dict, dict[str, str]]:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", SMOKE_SECONDS,
                 "--trace", str(trace), "--smoke")
    if proc.returncode != 0:
        raise SelfTestError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digests = {}
    for line in lines[:-1]:
        if line.startswith("sha256 "):
            _, digest, name = line.split(None, 2)
            digests[name] = digest
    return json.loads(lines[-1]), digests


def check_contract(workload: str, trace: int, line: dict, spec: dict) -> None:
    where = f"{workload} trace={trace}"
    expect(set(line) == CONTRACT_KEYS, f"{where}: keys {sorted(line)}")
    expect(line["correct"] is True, f"{where}: correct is {line['correct']!r}")
    expect(line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"], f"{where}: counts")
    wanted = spec["per_layer" if trace else "end_to_end"]
    expect(list(line["metrics"]) == [m["name"] for m in wanted], f"{where}: metric names differ")
    for m in wanted:
        got = line["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']!r}")
        value = got["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {m['name']} = {value!r}")
        if not trace:
            expect(value > 0, f"{where}: {m['name']} = {value!r}")


def check_self_times(workload: str) -> None:
    """Sum of self times per operation, recomputed from the spans file."""
    spans = [json.loads(line) for line in open(ROOT / ".perfbench" / f"{workload}-seed{SEED}-spans.jsonl")]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    per_op: dict[int, list[float]] = {}
    for i, (_, start, end, parent, op) in enumerate(spans):
        entry = per_op.setdefault(op, [0.0, 0.0])
        if parent < 0:
            entry[0] += end - start
        entry[1] += (end - start) - child[i]
    expect(per_op, f"{workload}: no spans")
    for op, (duration, total_self) in per_op.items():
        expect(total_self <= duration + 1e-9, f"{workload} op {op}: self {total_self} > {duration}")


def check_cli_scenario(digests: dict[str, str]) -> None:
    """The sweep-desk digests equal those of ``belieffusion scenario``."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import DESK, RULES6

    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        cfg = dict(DESK, emitters_per_target=list(DESK["emitters_per_target"]), rule="pcr")
        (work / "config.json").write_text(json.dumps(cfg))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for seed in range(2):  # the smoke block of sweep-desk
            subprocess.run([sys.executable, "-m", "belieffusion", "scenario", "--config",
                            str(work / "config.json"), "--out", str(work), "--rules", ",".join(RULES6),
                            "--seed", str(seed)], cwd=ROOT, env=env, check=True,
                           capture_output=True, timeout=170)
        produced = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in work.glob("trajectory_*")}
        expect(produced == digests, "sweep-desk digests differ from belieffusion scenario")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "sweep-desk", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
        expect(proc.returncode != 0, "run succeeded without the package source")
        expect('"metrics"' not in proc.stdout, "run printed a result without the package source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    for w in (w["name"] for w in spec["workloads"]):
        line, digests = smoke(w, 0)
        check_contract(w, 0, line, spec)
        again, digests_again = smoke(w, 0)
        expect(digests and digests == digests_again, f"{w}: digests differ between two invocations")
        if w == "sweep-desk":
            check_cli_scenario(digests)
        line, _ = smoke(w, 1)
        check_contract(w, 1, line, spec)
        check_self_times(w)
        print(f"ok {w}: {len(digests)} digests, untraced and traced runs")
    check_bare_directory()
    print("ok bare directory: run fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
