"""One sequential target-identification run, step by step.

A platform database maps 20 candidate targets to the emitters they carry.
Each of 25 reports is either a true detection of one of the truth's emitters
or (with probability 0.3) a false alarm from the rest of the pool; the report
becomes a simple-support mass function over every target carrying that
emitter. Reports are folded in one at a time, and after each step the
pignistic probabilities of the true target (index 4) and its near twin
(index 5, differing by exactly one emitter) are printed, together with the
running decision.

Run:  python demos/identification.py [rule]   (default: pcr)
"""

from __future__ import annotations

import sys

from belieffusion.scenario import ScenarioConfig, run_scenario


def main() -> None:
    rule = sys.argv[1] if len(sys.argv) > 1 else "pcr"
    config = ScenarioConfig(
        n_targets=20,
        n_emitters=35,
        emitters_per_target=(5, 9),
        truth_index=4,
        similar_target=5,
        pfa=0.3,
        n_reports=25,
        report_mass=0.8,
        rule=rule,
        seed=7,
    )
    result = run_scenario(config)

    truth_emitters = range(config.emitters_per_target[0])
    print(f"rule = {rule}, seed = {config.seed}, truth = target 4, "
          f"near twin = target 5  (FA = false alarm)\n")
    print(f"{'step':>4} {'emitter':>7} {'FA':>3} {'owners':>6} {'k12':>7} "
          f"{'BetP(truth)':>12} {'BetP(twin)':>11} {'decision':>9}")
    for r in result.records:
        fa = "*" if r.reported_emitter not in truth_emitters else ""
        print(
            f"{r.step:>4} {r.reported_emitter:>7} {fa:>3} "
            f"{r.report_set_size:>6} {r.conflict_k12:>7.4f} "
            f"{r.betp_truth:>12.4f} {r.betp_similar:>11.4f} "
            f"{r.decided_index:>9}"
        )

    if result.failed_at is not None:
        print(f"\nrun truncated: total conflict at report {result.failed_at}")
    else:
        final = result.records[-1]
        verdict = "correct" if final.decided_index == 4 else "wrong"
        print(f"\nfinal decision: target {final.decided_index} ({verdict})")


if __name__ == "__main__":
    main()
