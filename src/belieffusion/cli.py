"""
Command-line front door.

Subcommands::

    belieffusion combine --rule <id> <bba1> <bba2> [-o <out>]
    belieffusion conflict <bba1> <bba2>
    belieffusion betp <bba>
    belieffusion scenario --config <file> --out <dir> [--rules <csv>] [--seed <u64>]
    belieffusion rules

Exit codes: 0 success, 2 bad command line (unknown option or choice, missing
argument) or parse/validation/config failure (an open-world bba and an unknown
key included; a config is checked when built, so ``scenario`` checks every
run, ``smets`` and an empty or repeated ``--rules`` entry included, before it
writes anything), 3 frame mismatch, 4 a ``combine`` rule that cannot fuse
(total conflict or degenerate combination), 5 I/O error (an output that
cannot be written, or a label stdout's encoding cannot encode). Each failure
prints one ``belieffusion: <cause>`` line; diagnostics go to stderr, data to stdout.

``scenario`` draws the database, the reports, their coarsening and its report
bbas once, and folds that draw under each ``--rules`` entry, so every rule fuses
the same bbas. A rule that cannot fuse a report (k12 = 1 under ``dempster`` or
``inagaki``) ends its trajectory there: ``failed_at`` records the step, one
line names the rule and the step, and the sweep goes on with exit 0.

README's Install section states which modules each command loads, numpy included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from . import core  # looked up per call, so wrappers installed on it apply
from .core import FrameMismatchError, MassFunction, ScenarioError, validate
from .massio import MassFormatError, mass_to_dict, read_json, read_mass, write_mass
from .rules import RULES, DegenerateError

# decision and scenario are imported by the commands that use them, so the others skip them.
TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from typing import NoReturn

    from .scenario import ScenarioConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FRAME_MISMATCH = 3
EXIT_TOTAL_CONFLICT = 4
EXIT_IO = 5

# The exit code of each failure a command reports; the first matching class wins.
EXIT_CODES: dict[type[Exception], int] = {
    argparse.ArgumentError: EXIT_INPUT,
    MassFormatError: EXIT_INPUT,
    ScenarioError: EXIT_INPUT,
    FrameMismatchError: EXIT_FRAME_MISMATCH,
    DegenerateError: EXIT_TOTAL_CONFLICT,
    OSError: EXIT_IO,
    UnicodeEncodeError: EXIT_IO,  # stdout cannot encode a label
}


def _load_closed_world(path: str) -> MassFunction:
    m = read_mass(path)
    report = validate(m)
    if not report.ok:
        raise MassFormatError(f"{path}: " + "; ".join(report.violations))
    if m.open_world:
        raise MassFormatError(f"{path}: expected a closed-world bba")
    return m


def _cmd_combine(args: argparse.Namespace) -> int:
    m1 = _load_closed_world(args.bba1)
    m2 = _load_closed_world(args.bba2)
    fused = RULES[args.rule](m1, m2)
    if args.output:
        write_mass(args.output, fused)
    else:
        json.dump(mass_to_dict(fused), sys.stdout, ensure_ascii=False, indent=2)
        print()
    return EXIT_OK


def _cmd_conflict(args: argparse.Namespace) -> int:
    m1 = _load_closed_world(args.bba1)
    m2 = _load_closed_world(args.bba2)
    decomposition = core.conflict(m1, m2)
    print(repr(decomposition.total))
    for x, y, product in decomposition.pairs:
        print(f"{x.label(m1.frame)},{y.label(m1.frame)},{product!r}")
    return EXIT_OK


def _cmd_betp(args: argparse.Namespace) -> int:
    from . import decision  # decision.betp is looked up per call, so a wrapper on it applies

    m = _load_closed_world(args.bba)
    p = decision.betp(m)
    for label, prob in zip(m.frame.labels, p.probs):
        print(f"{label},{prob!r}")
    return EXIT_OK


def _parse_scenario_config(path: str) -> ScenarioConfig:
    """A config file holds any ``ScenarioConfig`` fields by name; the fields
    without a default are required. The constructor checks every value."""
    from .scenario import ScenarioConfig

    doc = read_json(path, ScenarioError)
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    try:
        return ScenarioConfig(**doc)
    except (TypeError, ScenarioError) as exc:  # TypeError: an unknown or missing key
        raise ScenarioError(f"{path}: {exc}") from None


def _cmd_scenario(args: argparse.Namespace) -> int:
    import dataclasses

    from .scenario import draw, fold, write_metadata, write_trajectory_csv

    config = _parse_scenario_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    # None, not falsiness: an empty --rules is an empty rule name, not "use the config's rule".
    rules = [config.rule] if args.rules is None else [r.strip() for r in args.rules.split(",")]
    runs = [dataclasses.replace(config, rule=rule) for rule in rules]
    if len(set(rules)) < len(rules):
        raise ScenarioError(f"--rules lists a rule more than once: {args.rules!r}")

    drawn = draw(config)  # the runs differ only in rule, so one draw serves them all
    os.makedirs(args.out, exist_ok=True)
    for run in runs:
        result = fold(run, drawn)
        stem = os.path.join(args.out, f"trajectory_{run.rule}_seed{run.seed}")
        write_trajectory_csv(stem + ".csv", result)
        write_metadata(stem + ".meta.json", result)
        if result.failed_at is not None:
            print(f"belieffusion: rule {run.rule!r} hit total conflict at step "
                  f"{result.failed_at}; trajectory truncated", file=sys.stderr)
    return EXIT_OK


def _cmd_rules(_args: argparse.Namespace) -> int:
    for name in RULES:
        print(name)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Raise a bad command line for ``main`` to report, not print usage and exit."""
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="belieffusion",
        description="Combine belief mass functions, inspect conflict, compute "
        "pignistic probabilities, and run identification scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("combine", help="fuse two bba files under a rule")
    p.add_argument("--rule", required=True, choices=sorted(RULES))
    p.add_argument("bba1")
    p.add_argument("bba2")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("conflict", help="print k12 and its disjoint-pair decomposition")
    p.add_argument("bba1")
    p.add_argument("bba2")
    p.set_defaults(func=_cmd_conflict)

    p = sub.add_parser("betp", help="print the pignistic distribution of a bba")
    p.add_argument("bba")
    p.set_defaults(func=_cmd_betp)

    p = sub.add_parser("scenario", help="run a target-identification scenario sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rules", help="comma-separated rule list overriding the config")
    p.add_argument("--seed", type=int, help="seed overriding the config")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("rules", help="list available combination rules")
    p.set_defaults(func=_cmd_rules)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code = next(c for cls, c in EXIT_CODES.items() if isinstance(exc, cls))
        print(f"belieffusion: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
