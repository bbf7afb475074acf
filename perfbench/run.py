#!/usr/bin/env python3
"""
Benchmark for belieffusion.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; the package is imported from ``src/``.
The workload's inputs come from ``--seed``. Operations run one at a time
(a closed loop with one caller) in full passes over the workload's block of
inputs, until ``--seconds`` have passed; the last pass is always finished.
Every output goes through the correctness gate.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` untraced and
traced passes alternate and the metrics are the per-layer metrics, including
the tracing overhead. The lines before it give the metrics under the names
of the workload (``scenario_ms_p50`` and so on), the run's provenance, and
the SHA-256 of every output. A full report, and the spans of the first
traced pass, are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

# Span name -> per-layer metric charged with its self time.
SELF_TIME_METRICS = {
    "core.conjunctive": "core.conjunctive.self_s",
    "core.disjunctive": "core.disjunctive.self_s",
    "core.conflict": "core.conflict.self_s",
    "rules.dempster": "rules.dempster.self_s",
    "rules.yager": "rules.yager.self_s",
    "rules.dubois-prade": "rules.dubois-prade.self_s",
    "rules.inagaki": "rules.inagaki.self_s",
    "rules.sacr": "rules.sacr.self_s",
    "rules.pcr": "rules.pcr.self_s",
    "rules.pcr_shares": "rules.pcr.self_s",
    "decision.betp": "decision.betp.self_s",
    "decision.decide": "decision.decide.self_s",
    "scenario.build_pdb": "scenario.build_pdb.self_s",
    "scenario.gen_report": "scenario.gen_report.self_s",
    "scenario.report_bba": "scenario.report_bba.self_s",
    "scenario.fold": "scenario.fold.self_s",
    "scenario.csv": "scenario.csv.self_s",
    "massio.read_mass": "massio.read_mass.self_s",
    "massio.write_mass": "massio.write_mass.self_s",
    "cli.main": "cli.main.self_s",
}
PAIR_PASS_SPANS = ("core.conjunctive", "core.disjunctive", "core.conflict")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv, spec) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- statistics ------------------------------------------------------------


def tail_percentile(block: int) -> float:
    """The highest ladder percentile with at least 10 samples beyond it in a
    single pass, so every run of a workload reports the same percentile."""
    for p in TAIL_LADDER:
        if block * (100.0 - p) / 100.0 >= 10:
            return p
    return TAIL_LADDER[-1]


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


# -- provenance ------------------------------------------------------------


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance() -> dict:
    import numpy

    src = ROOT / "src" / "belieffusion"
    tree = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        tree.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# -- the run ---------------------------------------------------------------


class Ledger:
    """Correctness gate over every attempt: the first attempt of each
    operation is checked in full and hashed; every later attempt must hash
    the same. ``attempted`` and ``failed`` count distinct operations, not
    attempts, so they depend on the inputs alone and not on how many passes
    fit in the run."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.first: dict[int, tuple[list[str], dict[str, str] | None]] = {}
        self.focals: dict[int, int] = {}
        self.outcomes: dict[int, object] = {}
        self.mismatches = 0

    def record(self, i: int, op, result, exc: BaseException | None) -> None:
        wl = self.wl
        if i not in self.first:
            if exc is not None:
                problems, digests = [f"raised {type(exc).__name__}: {exc}"], None
            else:
                problems, digests = wl.check(op, result), wl.digests(op, result)
                self.focals[i] = wl.focals(result)
                self.outcomes[i] = wl.outcome(op, result)
            self.first[i] = (problems, digests)
            return
        problems, digests = self.first[i]
        if exc is not None or wl.digests(op, result) != digests:
            self.mismatches += 1
            note = "output differs from the first attempt"
            if note not in problems:
                self.first[i] = (problems + [note], digests)

    @property
    def attempted(self) -> int:
        return len(self.first)

    @property
    def failed(self) -> int:
        return sum(1 for problems, _ in self.first.values() if problems)

    def failed_by_group(self) -> Counter:
        return Counter(self.wl.group(self.wl.ops[i]) for i, (p, _) in self.first.items() if p)

    def digests(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for _, d in self.first.values():
            out.update(d or {})
        return dict(sorted(out.items()))

    def failures(self) -> list[dict]:
        return [{"op": str(self.wl.ops[i]), "problems": p} for i, (p, _) in sorted(self.first.items()) if p]


def child_import_seconds(wl) -> float:
    """Time of ``import belieffusion.cli`` in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import belieffusion.cli; "
             "print(repr(time.perf_counter() - t))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=wl.env,
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return float(out)


def measure_setup(wl) -> tuple[float, float]:
    """Package import in a fresh interpreter, then input generation and
    warm-up in this one: (raw seconds, seconds scaled to reference speed).
    The import is scaled by a bare interpreter's start, the rest by the
    workload's reference task."""
    import workloads

    start_before = workloads.interpreter_start(str(ROOT), wl.env)
    imported = child_import_seconds(wl)
    start_after = workloads.interpreter_start(str(ROOT), wl.env)
    before = wl.reference()
    t0 = time.perf_counter()
    wl.generate()
    wl.warm_up()
    local = time.perf_counter() - t0
    after = wl.reference()
    scaled = (imported * 2 * workloads.INTERPRETER_START_SECONDS / (start_before + start_after)
              + local * 2 * wl.REFERENCE_SECONDS / (before + after))
    return imported + local, scaled


class Timings:
    """Per-operation wall times, raw and scaled to reference speed: each
    operation is bracketed by runs of the workload's reference task, and its
    time is multiplied by the task's nominal time over their mean. Other
    tenants of a shared machine slow the reference and the operation alike,
    so the scaled time follows the program, not the machine's load."""

    def __init__(self, n_ops: int) -> None:
        self.scaled: list[list[float]] = [[] for _ in range(n_ops)]
        self.raw: list[list[float]] = [[] for _ in range(n_ops)]
        self.busy = 0.0
        self.fusions = 0

    def samples(self, raw: bool = False) -> list[float]:
        return sorted(t for ts in (self.raw if raw else self.scaled) for t in ts)


def timed_pass(wl, execute, reference, ledger: Ledger, timings: Timings,
               tracer=None) -> tuple[float, float]:
    """One pass over the block: (scaled busy seconds, median scale).
    ``reference`` is the pair (reference task, its nominal seconds)."""
    gc.collect()
    reference, nominal = reference
    busy, scales = 0.0, []
    ref_before = reference()
    for i, op in enumerate(wl.ops):
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = tracer.operation("op", execute, op) if tracer else execute(op)
        except Exception as e:  # an operation that raises is a counted failure
            exc = e
        dt = time.perf_counter() - t0
        ref_after = reference()
        scale = 2 * nominal / (ref_before + ref_after)
        ref_before = ref_after
        scales.append(scale)
        timings.raw[i].append(dt)
        timings.scaled[i].append(dt * scale)
        busy += dt * scale
        if exc is None:
            timings.fusions += wl.fusions(result)
        ledger.record(i, op, result, exc)
    timings.busy += busy
    return busy, statistics.median(scales)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    import belieffusion

    if Path(belieffusion.__file__).resolve().parent != ROOT / "src" / "belieffusion":
        raise RuntimeError(f"belieffusion imported from {belieffusion.__file__}, not from src/")
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[workload](seed, workdir, str(ROOT), smoke)
        setups = [measure_setup(wl) for _ in range(SETUP_REPEATS)]
        ledger = Ledger(wl)
        timings = Timings(len(wl.ops))
        start = time.perf_counter()
        if trace:
            layer, trace_info = traced_passes(wl, ledger, timings, seconds, start, spans, workloads)
        else:
            while time.perf_counter() - start < seconds:
                timed_pass(wl, wl.execute, (wl.reference, wl.REFERENCE_SECONDS), ledger, timings)
        wall = time.perf_counter() - start
        cross = wl.cross_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    samples = timings.samples()
    raw_ms = [t * 1e3 for t in timings.samples(raw=True)]
    tail_p = tail_percentile(len(wl.ops))
    correct = not ledger.mismatches and not cross and not wl.reference_failures
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "provenance": provenance(),
        "ops_per_pass": len(wl.ops), "samples": len(samples), "wall_s": wall,
        "setup_s_each": [scaled for _, scaled in setups],
        "setup_s_raw": [raw for raw, _ in setups],
        "attempted": ledger.attempted, "failed": ledger.failed, "correct": correct,
        "failed_by_group": dict(ledger.failed_by_group()),
        "failures": ledger.failures(), "cross_check": cross, "mismatches": ledger.mismatches,
        "digests": ledger.digests(),
        "groups": group_table(wl, ledger, timings),
    }
    if trace:
        result["per_layer"] = layer
        result.update(trace_info)
        return result
    ms = [t * 1e3 for t in samples]
    result["tail_percentile"] = tail_p
    work = timings.fusions if wl.unit_name == "fusions" else len(samples)
    result["end_to_end"] = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": percentile(ms, tail_p),
        "throughput_per_s": work / timings.busy,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    result["raw"] = {"op_ms_p50": statistics.median(raw_ms), "op_ms_tail": percentile(raw_ms, tail_p),
                     "setup_s": statistics.median(raw for raw, _ in setups)}
    result["fusions"] = timings.fusions
    result["workload_metrics"] = workload_metrics(wl, ledger, result)
    return result


def traced_passes(wl, ledger, timings, seconds, start, spans, workloads):
    """Alternate untraced and traced passes; per-layer figures are per pass
    over the block, averaged over the traced passes, with self times scaled
    to reference speed by the pass's median scale. Both kinds of pass run in
    this process, so both are scaled by the reference loop."""
    loop = (workloads.reference_loop, workloads.REFERENCE_LOOP_SECONDS)
    untraced, traced = [], []
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    focals: list[int] = []
    op_excess = 0.0
    traced_timings = Timings(len(wl.ops))
    first_tracer = None
    while time.perf_counter() - start < seconds:
        untraced.append(timed_pass(wl, wl.traced_execute, loop, ledger, timings)[0])
        tracer = spans.Tracer()
        workloads.install_tracing(tracer)
        try:
            busy, scale = timed_pass(wl, wl.traced_execute, loop, ledger, traced_timings, tracer)
        finally:
            tracer.uninstall()
        traced.append(busy)
        for name, s in tracer.self_times().items():
            self_s[name] += s * scale
        for name, c in tracer.counts.items():
            counts[name] += c
        focals += tracer.samples["focals"]
        for duration, total_self in tracer.per_operation():
            op_excess = max(op_excess, total_self - duration)
        if first_tracer is None:
            first_tracer = tracer
    n = len(traced)
    layer: dict[str, float] = defaultdict(float)
    for span, metric in SELF_TIME_METRICS.items():
        layer[metric] += self_s.get(span, 0.0) / n
    pairs = counts["core.pairs"] / n
    pair_self = sum(self_s.get(s, 0.0) for s in PAIR_PASS_SPANS) / n
    members = counts["betp_members"] / n
    focals.sort()
    layer.update({
        "core.pairs": pairs,
        "core.ns_per_pair": pair_self / pairs * 1e9 if pairs else 0.0,
        "core.state_focals_p50": float(focals[len(focals) // 2]) if focals else 0.0,
        "core.state_focals_max": float(focals[-1]) if focals else 0.0,
        "rules.pair_passes_per_fusion": (counts["pair_passes"] / counts["fusions"]
                                         if counts["fusions"] else 0.0),
        "rules.invalid_outputs": counts["invalid_outputs"] / n,
        "decision.betp_members": members,
        "decision.ns_per_member": layer["decision.betp.self_s"] / members * 1e9 if members else 0.0,
        "scenario.csv_bytes": counts["csv_bytes"] / n,
        "scenario.truncated": counts["truncated"] / n,
        "cli.interp_ms": 0.0, "cli.import_ms": 0.0, "cli.import_numpy_ms": 0.0,
    })
    layer.update(wl.layer_extras())
    layer["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    span_path = OUT / f"{wl.name}-seed{wl.seed}-spans.jsonl"
    first_tracer.write(str(span_path))
    info = {
        "traced_passes": n, "untraced_pass_s": untraced, "traced_pass_s": traced,
        "trace_self_s": dict(self_s), "op_self_excess_s": op_excess,
        "spans_file": str(span_path.relative_to(ROOT)),
    }
    return dict(layer), info


def group_table(wl, ledger: Ledger, timings: Timings) -> dict[str, dict]:
    """Median op time beside the focal-set count of the op's output, per
    group (rule or command)."""
    rows: dict[str, dict[str, list]] = defaultdict(lambda: {"ms": [], "focals": []})
    for i, op in enumerate(wl.ops):
        row = rows[wl.group(op)]
        if timings.scaled[i]:
            row["ms"].append(statistics.median(timings.scaled[i]) * 1e3)
        if i in ledger.focals:
            row["focals"].append(ledger.focals[i])
    table = {}
    for g, row in sorted(rows.items()):
        ms, fc = sorted(row["ms"]), sorted(row["focals"])
        table[g] = {
            "ops": len(ms),
            "ms_p50": ms[len(ms) // 2] if ms else None,
            "ms_max": ms[-1] if ms else None,
            "focals_p50": fc[len(fc) // 2] if fc else None,
            "focals_max": fc[-1] if fc else None,
        }
    return table


def workload_metrics(wl, ledger: Ledger, result: dict) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics under the names the workload gives them."""
    e2e = result["end_to_end"]
    out = {
        "setup_s": (e2e["setup_s"], "s"),
        f"{wl.op_metric}_p50": (e2e["op_ms_p50"], "ms"),
        f"{wl.op_metric}_tail": (e2e["op_ms_tail"], "ms"),
        f"{wl.unit_name}_per_s": (e2e["throughput_per_s"], "1/s"),
    }
    out.update(wl.extra_metrics(ledger.outcomes))
    out["failed_share"] = (ledger.failed / ledger.attempted, "ratio")
    out["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
    return out


def report_lines(result: dict) -> list[str]:
    lines = [f"# perfbench {result['workload']} seed={result['seed']} trace={int(result['trace'])}",
             "# provenance " + json.dumps(result["provenance"], sort_keys=True)]
    if result["trace"]:
        for name, value in result["per_layer"].items():
            lines.append(f"{name} {value!r}")
        lines.append(f"# traced passes {result['traced_passes']}, spans in {result['spans_file']}")
    else:
        for name, (value, unit) in result["workload_metrics"].items():
            note = ""
            if name.endswith("ms_tail"):
                note = f"  (p{result['tail_percentile']:g}, n={result['samples']})"
            elif name.endswith("ms_p50"):
                note = f"  (n={result['samples']})"
            lines.append(f"{name} {value!r} {unit}{note}")
        lines.append("# unscaled wall time " + json.dumps(result["raw"]))
    lines.append(f"# attempted {result['attempted']}, failed {result['failed']}, "
                 f"failed by group {json.dumps(result['failed_by_group'], sort_keys=True)}")
    for g, row in result["groups"].items():
        lines.append(f"# group {g or '-'}: {json.dumps(row)}")
    for problem in result["cross_check"]:
        lines.append(f"# cross-check: {problem}")
    for name, digest in result["digests"].items():
        lines.append(f"sha256 {digest}  {name}")
    return lines


def contract_line(result: dict, spec: dict) -> dict:
    section = "per_layer" if result["trace"] else "end_to_end"
    values = result[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    package = ROOT / "src" / "belieffusion" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: {package.relative_to(ROOT)} not found; run from a belieffusion checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    line = contract_line(result, spec)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    for text in report_lines(result):
        print(text)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
