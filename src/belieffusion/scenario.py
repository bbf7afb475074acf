"""
Seeded synthetic reproduction of a sequential target-identification
experiment: a platform database maps candidate targets to the emitters they
carry, a passive sensor reports one emitter per step (with a configurable
false-alarm probability), each report becomes a simple bba, and the stream
is fused pairwise under a chosen combination rule while the pignistic
trajectory is recorded.

Randomness comes from a single seeded PCG64 generator consumed only by
database construction and report generation, so the report stream is
identical no matter which rule is under test, and trajectories are
bit-reproducible across processes. ``draw`` builds the database, the stream,
its coarsening and the report bbas on it once; ``fold`` runs one rule over them.
"""

from __future__ import annotations

import itertools
import json
import typing
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional

import numpy as np

# conflict is unused here but stays bound: tracing tools patch it by name.
from .core import FocalSet, Frame, MassFunction, conflict, vacuous  # noqa: F401
from .core import FrameMismatchError, _mass, _number, _Record
from .core import ScenarioError  # lives in core so the CLI can map it without this module
from .decision import betp, decide
from .rules import RULES, DegenerateError, _step

__all__ = [
    "ScenarioError",
    "ScenarioConfig",
    "PlatformDatabase",
    "TrajectoryRecord",
    "ScenarioResult",
    "build_pdb",
    "gen_report",
    "report_bba",
    "draw",
    "fold",
    "run_scenario",
    "write_trajectory_csv",
    "write_metadata",
    "TRAJECTORY_HEADER",
    "RNG_ALGORITHM",
]

RNG_ALGORITHM = "numpy.random.PCG64"
TRAJECTORY_HEADER = [
    "step",
    "rule",
    "emitter",
    "set_size",
    "k12",
    "betp_truth",
    "betp_similar",
    "decided",
    "tie",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """One identification run. The constructor checks each field's type,
    then the ranges, and raises ``ScenarioError``; it stores a list as a
    tuple and an integer in a float field as a float."""

    n_targets: int
    n_emitters: int
    emitters_per_target: tuple[int, int]
    truth_index: int
    pfa: float = 0.3
    n_reports: int = 25
    report_mass: float = 0.8
    rule: str = "pcr"
    seed: int = 0
    similar_target: Optional[int] = None

    def __post_init__(self) -> None:
        for name, hint in _HINTS.items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, _typed(value, hint))
            except TypeError:
                raise ScenarioError(
                    f"config key {name!r} must be {self.__annotations__[name]}, not {value!r}"
                ) from None
            except OverflowError:
                raise ScenarioError(f"config key {name!r} is too large for a float") from None
        lo, hi = self.emitters_per_target
        if self.n_targets < 1:
            raise ScenarioError("n_targets must be positive")
        if not 1 <= lo <= hi:
            raise ScenarioError("emitters_per_target must be a positive (lo, hi) range")
        if self.n_emitters <= lo:
            raise ScenarioError(
                f"emitter pool of {self.n_emitters} cannot supply the truth's "
                f"{lo} emitters plus a non-empty false-alarm pool"
            )
        if not 0 <= self.truth_index < self.n_targets:
            raise ScenarioError("truth_index outside the target list")
        if self.similar_target is not None:
            if not 0 <= self.similar_target < self.n_targets:
                raise ScenarioError("similar_target outside the target list")
            if self.similar_target == self.truth_index:
                raise ScenarioError("similar_target must differ from truth_index")
            if lo < 2:
                raise ScenarioError(
                    "similar_target needs the truth to own at least 2 emitters; "
                    "raise emitters_per_target's lower bound to 2"
                )
        if self.n_targets < 2 + (self.similar_target is not None):
            raise ScenarioError(
                "false-alarm pool is empty: no target besides the truth and the similar one"
            )
        if not 0.0 <= self.pfa <= 1.0:
            raise ScenarioError("pfa must lie in [0, 1]")
        if self.n_reports < 0:
            raise ScenarioError("n_reports must be non-negative")
        if not 0.0 < self.report_mass <= 1.0:
            raise ScenarioError("report_mass must lie in (0, 1]")
        if self.rule not in RULES:
            raise ScenarioError(f"unknown rule {self.rule!r}")
        if self.rule == "smets":
            raise ScenarioError(
                "smets produces open-world states that cannot be re-fused or pignistified"
            )
        if not 0 <= self.seed < 2**64:
            raise ScenarioError("seed must be an unsigned 64-bit integer")


def _typed(value: Any, hint: Any) -> Any:
    """``value`` as the field type ``hint`` (int, float, str, a tuple from a
    list or tuple, or Optional); raises TypeError on any other value. A bool
    is not a number, and a float field also takes an integer. The plain
    types are tested first: the ``typing`` calls cost more than the check."""
    if type(value) is hint:
        return value
    if hint is float and type(value) is int:
        return float(value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return None if value is None else _typed(value, args[0])
    if origin is tuple and type(value) in (list, tuple) and len(value) == len(args):
        return tuple(_typed(v, a) for v, a in zip(value, args))
    raise TypeError


_HINTS = typing.get_type_hints(ScenarioConfig)


PlatformDatabase = namedtuple("PlatformDatabase", "frame emitter_index")
PlatformDatabase.__doc__ = """The targets as a ``Frame``, and each emitter's owners as a
``dict[int, frozenset[int]]``. The sampling pools are ranges of the config (see ``build_pdb``)."""


def _target_labels(n: int) -> list[str]:
    width = len(str(n - 1))
    return ["t" + str(i).zfill(width) for i in range(n)]


def build_pdb(config: ScenarioConfig, rng: np.random.Generator) -> PlatformDatabase:
    """Generate a structured platform database honoring the configuration,
    building each emitter's owner set in one pass.

    With ``(lo, hi) = emitters_per_target`` the ownership layout is:

    - the truth target carries ``lo`` emitters (the X pool);
    - one rng-chosen X emitter is a *common* emitter, also carried by every
      other target except the similar one, so a report of it narrows nothing
      but the similar target down;
    - when ``similar_target`` is set, it carries exactly the other ``lo - 1``
      X emitters, i.e. the truth's set minus the common emitter (symmetric
      difference of size 1): the common emitter is the only discriminator;
    - the remaining emitters form the false-alarm pool; each is carried by
      up to ``hi`` non-truth, non-similar targets, assigned round-robin in an
      rng-shuffled order so shared ownership spreads evenly across targets
      and no single competitor accumulates outsized support.

    Because every other target carries the common emitter, every target
    shares hardware with the truth and the false-alarm pool Y is exactly the
    non-X pool: X is ``range(lo)`` and Y is ``range(lo, n_emitters)``.
    The config's constructor guarantees a non-truth, non-similar target, so Y
    is non-empty and every target owns an emitter.
    """
    lo, hi = config.emitters_per_target
    truth, similar = config.truth_index, config.similar_target
    common = int(rng.integers(lo))
    others = [t for t in range(config.n_targets) if t not in (truth, similar)]
    x_owners = frozenset({truth} if similar is None else {truth, similar})
    index = {e: x_owners for e in range(lo)}
    index[common] = frozenset([truth, *others])
    breadth = min(hi, len(others))
    order = itertools.cycle(rng.permutation(others).tolist())
    for e in range(lo, config.n_emitters):
        index[e] = frozenset(itertools.islice(order, breadth))
    return PlatformDatabase(Frame(_target_labels(config.n_targets)), index)


# Keyed by the frame's width, not the frame: every draw builds a new Frame,
# which would hash and compare all its labels.
@lru_cache(maxsize=1024)
def _report_set(owners: frozenset[int], width: int) -> FocalSet:
    """The set of the targets ``owners`` on a frame of ``width`` targets."""
    return FocalSet(sum(1 << i for i in owners), width)


def gen_report(
    pdb: PlatformDatabase, config: ScenarioConfig, rng: np.random.Generator
) -> tuple[int, FocalSet]:
    """Draw one sensor report: with probability 1 - pfa an emitter uniform
    over X = ``range(lo)``, otherwise uniform over Y = ``range(lo,
    n_emitters)``; the reported set is every target owning that emitter."""
    lo = config.emitters_per_target[0]
    pool = range(lo, config.n_emitters) if rng.random() < config.pfa else range(lo)
    emitter = pool[int(rng.integers(len(pool)))]
    return emitter, _report_set(pdb.emitter_index[emitter], pdb.frame.size)


def report_bba(report_set: FocalSet, frame: Frame, report_mass: float) -> MassFunction:
    """Turn a reported target set into a simple bba: mass on the set, the
    remainder on total ignorance, which ``_mass`` drops when it is 0.0. The
    mass function's checks are made here, on the two entries, and its int
    table is built directly."""
    if report_set.is_empty:
        raise ValueError("a report must name at least one target")
    if report_set.width != frame.size:
        raise FrameMismatchError("focal set width does not match frame")
    mass = _number(frame, report_set, report_mass)
    full = (1 << frame.size) - 1
    table = {report_set.bits: mass}
    table[full] = table.get(full, 0.0) + (1.0 - mass)
    return _mass(frame, table)


TrajectoryRecord = namedtuple("TrajectoryRecord", "step reported_emitter report_set_size "
                              "conflict_k12 betp_truth betp_similar decided_index tie")
TrajectoryRecord.__doc__ = """One fused step: ``conflict_k12``, ``betp_truth`` and ``betp_similar``
are floats (``betp_similar`` is None without a similar target), ``tie`` a bool, the rest ints."""


class ScenarioResult(_Record):
    """A ``ScenarioConfig`` with its ``PlatformDatabase``, its ``(emitter, FocalSet)``
    reports, a ``TrajectoryRecord`` per completed step, the step of a total conflict
    (``failed_at``, an int or None) and the last fused ``MassFunction``
    (``final_state``), on ``pdb.frame``.

    ``fold`` hands over its last state on the draw's coarsening. The first read of
    ``final_state`` refines it onto ``pdb.frame`` and keeps the result in its place,
    which frees the coarse state, and later reads return that object. A state on
    ``pdb.frame`` itself, or None, is returned as given. Concurrent first reads
    each refine, to equal states."""

    __slots__ = ("config", "pdb", "reports", "records", "failed_at", "_state")
    _fields = ("config", "pdb", "reports", "records", "failed_at", "final_state")

    def __init__(self, config: ScenarioConfig, pdb: PlatformDatabase, reports: tuple,
                 records: tuple, failed_at: Optional[int] = None,
                 final_state: Optional[MassFunction] = None) -> None:
        for name, value in zip(self.__slots__, (config, pdb, reports, records, failed_at,
                                                final_state)):
            object.__setattr__(self, name, value)

    @property
    def final_state(self) -> Optional[MassFunction]:
        state, frame = self._state, self.pdb.frame
        if state is not None and state.frame is not frame:  # not !=: a coarsening may equal it
            state = _mass(frame, state.frame.refine(state._table), state.open_world)
            object.__setattr__(self, "_state", state)
        return state


def draw(config: ScenarioConfig) -> tuple[PlatformDatabase, tuple, Frame, dict]:
    """The config's database, its ``(emitter, FocalSet)`` reports, the
    coarsening of the database's frame that the distinct report sets induce
    (a ``Frame`` of the same labels, with the coarsest atoms of which every
    report set is a union), and each reported emitter's report bba on it, one
    per distinct report set, shared by the emitters with those owners.
    Nothing here reads ``config.rule``, so every rule can fold the same draw.
    Every set a fold makes is a union of the atoms: 3-4 on 20 targets and
    6-27 on 135, over the seeds of perfbench's two sweeps; a stream without
    reports has one atom."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    pdb = build_pdb(config, rng)
    reports = tuple(gen_report(pdb, config, rng) for _ in range(config.n_reports))
    sets = {s.bits for _, s in reports}
    frame = Frame(pdb.frame.labels, sets)
    made = {z: report_bba(FocalSet(frame.coarsen(z), frame.size), frame, config.report_mass)
            for z in sets}
    return pdb, reports, frame, {e: made[s.bits] for e, s in reports}


def fold(config: ScenarioConfig, drawn: tuple) -> ScenarioResult:
    """Fold a drawn report stream through the configured rule, starting from
    the vacuous bba, recording conflict, pignistic values, and the max-BetP
    decision after every step. Each step makes one pair pass, which yields
    both the fused state and its k12. ``drawn`` must be ``draw`` of a config
    that differs from ``config`` at most in ``rule``.

    The steps, ``betp`` and ``decide`` run on the draw's coarsening, and
    the result takes the last state as it is: ``ScenarioResult`` refines it
    onto ``pdb.frame`` on the first read of ``final_state``, so a caller
    that never reads it (``belieffusion scenario``) never pays for it. The
    atoms' order keeps every insertion, sort and sum of a step, so the
    records and the final state have the bits of a fold on ``pdb.frame``
    itself.

    A rule that cannot fuse (``DegenerateError``, ``TotalConflictError``
    included) ends the trajectory at that step, reported through ``failed_at``
    rather than raised: a rule's limit of applicability is a measurement.
    """
    pdb, reports, frame, bbas = drawn
    # The atoms of the truth and of the similar target, whose BetP the records hold.
    truth, similar = (None if t is None else frame.index(pdb.frame.labels[t])
                      for t in (config.truth_index, config.similar_target))
    state = vacuous(frame)
    records: list[TrajectoryRecord] = []
    failed_at: Optional[int] = None
    for step, (emitter, report_set) in enumerate(reports, start=1):
        try:
            state, k12 = _step(config.rule, state, bbas[emitter])
        except DegenerateError:
            failed_at = step
            break
        p = betp(state)
        d = decide(p)
        records.append(TrajectoryRecord(step, emitter, report_set.cardinality, k12, p.probs[truth],
                                        None if similar is None else p.probs[similar],
                                        d.index, d.tie))
    return ScenarioResult(config, pdb, reports, tuple(records), failed_at, state)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """``fold`` the config's own ``draw``."""
    return fold(config, draw(config))


def write_trajectory_csv(path: str, result: ScenarioResult) -> None:
    """One row per completed step, written at once; floats use shortest
    round-trip decimals so identical runs produce byte-identical files. No
    field needs quoting: the rule is a ``RULES`` name and the rest numbers."""
    rule = result.config.rule
    lines = [",".join(TRAJECTORY_HEADER)]
    for r in result.records:
        similar = "" if r.betp_similar is None else repr(r.betp_similar)
        tie = "true" if r.tie else "false"
        lines.append(f"{r.step},{rule},{r.reported_emitter},{r.report_set_size},"
                     f"{r.conflict_k12!r},{r.betp_truth!r},{similar},{r.decided_index},{tie}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metadata(path: str, result: ScenarioResult) -> None:
    """The config, field by field, plus the RNG algorithm and ``failed_at``."""
    doc = dict(vars(result.config), rng_algorithm=RNG_ALGORITHM, failed_at=result.failed_at)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
