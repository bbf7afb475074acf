"""
Frames of discernment, focal sets, mass functions, and the pair pass that
every combination rule builds on, with its three public views: the two base
combination operators (conjunctive / disjunctive) and the degree of conflict.

All values are immutable after construction and all operations are pure
functions, so everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

__all__ = [
    "Frame",
    "FocalSet",
    "MassFunction",
    "ConflictDecomposition",
    "ValidationReport",
    "FrameMismatchError",
    "ScenarioError",
    "make_frame",
    "validate",
    "vacuous",
    "conjunctive",
    "disjunctive",
    "conflict",
    "SUM_TOL",
]

# Absolute tolerance for mass-sum checks; algebraic identities in the test
# suite use 1e-12, but accumulation over focal pairs warrants the looser 1e-9.
SUM_TOL = 1e-9


# A table maps an int bit mask to its summed mass.
Table = dict[int, float]
Pairs = list[tuple[int, int, float, float]]


class FrameMismatchError(ValueError):
    """Two mass functions defined on different frames were combined."""


class ScenarioError(ValueError):
    """The scenario configuration is infeasible or inconsistent; raised when one is built."""


@dataclass(frozen=True)
class Frame:
    """An ordered set of exclusive, exhaustive hypothesis labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("frame needs at least one label")
        seen: set[str] = set()
        for label in self.labels:
            if not label:
                raise ValueError("empty label in frame")
            if label in seen:
                raise ValueError(f"duplicate label in frame: {label!r}")
            seen.add(label)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"label not in frame: {label!r}") from None

    def empty_set(self) -> FocalSet:
        return FocalSet(0, self.size)

    def full_set(self) -> FocalSet:
        return FocalSet((1 << self.size) - 1, self.size)

    def singleton(self, index: int) -> FocalSet:
        return self.subset_of_indices([index])

    def subset(self, labels: Iterable[str]) -> FocalSet:
        return self.subset_of_indices(self.index(label) for label in labels)

    def subset_of_indices(self, indices: Iterable[int]) -> FocalSet:
        bits = 0
        for i in indices:
            if not 0 <= i < self.size:
                raise IndexError(i)
            bits |= 1 << i
        return FocalSet(bits, self.size)


def make_frame(labels: Iterable[str]) -> Frame:
    """Build a frame from an ordered sequence of distinct non-empty labels."""
    return Frame(tuple(labels))


@dataclass(frozen=True, order=True)
class FocalSet:
    """A subset of a frame, stored as an arbitrary-width bit vector.

    ``bits`` is a plain Python int, so frames wider than a machine word
    (e.g. 135 hypotheses) need no special handling.
    """

    bits: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("focal set needs a positive frame width")
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError("bit vector outside its frame")

    def __and__(self, other: FocalSet) -> FocalSet:
        self._check(other)
        return FocalSet(self.bits & other.bits, self.width)

    def __or__(self, other: FocalSet) -> FocalSet:
        self._check(other)
        return FocalSet(self.bits | other.bits, self.width)

    def _check(self, other: FocalSet) -> None:
        if self.width != other.width:
            raise FrameMismatchError("focal sets from different frames")

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def is_full(self) -> bool:
        return self.bits == (1 << self.width) - 1

    def contains(self, index: int) -> bool:
        return bool(self.bits >> index & 1)

    def indices(self) -> Iterator[int]:
        """Member indices in ascending order, visiting set bits only."""
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def members(self, frame: Frame) -> tuple[str, ...]:
        if frame.size != self.width:
            raise FrameMismatchError("focal set does not belong to this frame")
        return tuple(frame.labels[i] for i in self.indices())

    def label(self, frame: Frame) -> str:
        """Human-readable form, e.g. ``A∪B`` or ``∅``."""
        names = self.members(frame)
        return "∪".join(names) if names else "∅"


@dataclass(frozen=True, init=False)
class MassFunction:
    """A sparse basic belief assignment over subsets of a frame.

    Only strictly positive masses are stored; reading an absent set yields 0.
    ``open_world`` marks results that legitimately carry mass on the empty
    set (the conjunctive operator, Smets' rule); closed-world inputs to any
    combination rule must have ``open_world=False``. The masses are stored
    in ``_table``, keyed by ``int`` bit mask in insertion order; ``entries``
    is a read-only view of it keyed by ``FocalSet``, built on first read.
    """

    frame: Frame
    _table: Table
    open_world: bool = False

    def __init__(
        self, frame: Frame, entries: Mapping[FocalSet, float], open_world: bool = False
    ) -> None:
        table = {fs.bits: float(v) for fs, v in entries.items() if v != 0.0}
        if any(fs.width != frame.size for fs, v in entries.items() if v != 0.0):
            raise FrameMismatchError("focal set width does not match frame")
        self.__dict__.update(frame=frame, _table=table, open_world=open_world)

    @cached_property
    def entries(self) -> Mapping[FocalSet, float]:
        width = self.frame.size
        return MappingProxyType({FocalSet(z, width): v for z, v in self._table.items()})

    def __getstate__(self) -> dict:
        # The cached view is rebuilt on demand, and a mappingproxy does not pickle.
        return {k: v for k, v in self.__dict__.items() if k != "entries"}

    def mass(self, fs: FocalSet) -> float:
        return self._table.get(fs.bits, 0.0) if fs.width == self.frame.size else 0.0

    def items(self) -> Iterator[tuple[FocalSet, float]]:
        """The stored entries in ascending bit order."""
        for z in sorted(self._table):
            yield FocalSet(z, self.frame.size), self._table[z]

    def total(self) -> float:
        return _sum_in_order(self._table.values())

    def is_close_to(self, other: MassFunction, tol: float = SUM_TOL) -> bool:
        """Entrywise comparison over the union of stored focal sets."""
        if self.frame != other.frame:
            return False
        a, b = self._table, other._table
        return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in a.keys() | b.keys())


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConflictDecomposition:
    """Total conflict k12 and the disjoint focal pairs producing it, in ``(x, y)`` order."""

    total: float
    pairs: tuple[tuple[FocalSet, FocalSet, float], ...]


def validate(m: MassFunction) -> ValidationReport:
    """Check the mass-function invariants, returning a report (never raising)."""
    violations: list[str] = []
    # The int table, not `entries`: boxing every key costs more than the scan.
    for z, v in m._table.items():
        if not math.isfinite(v):
            kind = "non-finite"
        elif v < 0.0:
            kind = "negative"
        else:
            continue
        violations.append(f"{kind} mass {v!r} on {FocalSet(z, m.frame.size).label(m.frame)}")
    total = m.total()
    if abs(total - 1.0) > SUM_TOL:
        violations.append(f"masses sum to {total!r}, not 1")
    if not m.open_world and 0 in m._table:
        violations.append(f"closed-world bba carries mass {m._table[0]!r} on ∅")
    return ValidationReport(not violations, tuple(violations))


def vacuous(frame: Frame) -> MassFunction:
    """The totally ignorant bba: all mass on the full frame."""
    return MassFunction(frame, {frame.full_set(): 1.0})


def _pair_pass(
    m1: MassFunction, m2: MassFunction, union: bool = False
) -> tuple[Table, Pairs, Optional[Table]]:
    """The one pass over m1 × m2 that every combination rule builds on.

    Works on raw ``int`` bit masks in storage order and returns the ∩-table
    (k12 under key 0), the disjoint pairs ``(x, y, m1(x), m2(y))`` and, when
    ``union`` is set, the ∪-table (otherwise ``None``).
    """
    if m1.frame != m2.frame:
        raise FrameMismatchError("mass functions defined on different frames")
    if m1.open_world or m2.open_world:
        raise ValueError("combination inputs must be closed-world bbas")
    right = list(m2._table.items())
    meet: Table = {}
    disjoint: Pairs = []
    join: Optional[Table] = {} if union else None
    for x, a in m1._table.items():
        for y, b in right:
            product = a * b
            z = x & y
            meet[z] = meet.get(z, 0.0) + product
            if not z:
                disjoint.append((x, y, a, b))
            if join is not None:
                u = x | y
                join[u] = join.get(u, 0.0) + product
    return meet, disjoint, join


def _sum_in_order(values: Iterable[float]) -> float:
    """The values added left to right: not ``sum()``, which compensates since
    Python 3.12, so the bits would depend on the Python version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _sorted_k12(disjoint: Pairs) -> float:
    """Sort the disjoint pairs by ``(x, y)`` in place and sum k12 in that
    order, which is the order ``conflict`` reports them in."""
    disjoint.sort()
    k12 = 0.0
    for _, _, a, b in disjoint:
        k12 += a * b
    return k12


def _nonzero(table: Table) -> Table:
    """``table`` without its zero masses; ``table`` itself when it has none."""
    return {z: v for z, v in table.items() if v != 0.0} if 0.0 in table.values() else table


def _mass(frame: Frame, table: Table, open_world: bool = False) -> MassFunction:
    """A mass function that takes over an ``int``-keyed table of float
    masses, keeping its order and dropping its zero masses."""
    m = MassFunction.__new__(MassFunction)
    m.__dict__.update(frame=frame, _table=_nonzero(table), open_world=open_world)
    return m


def conjunctive(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Conjunctive combination; the output may carry mass on ∅ (open world)."""
    return _mass(m1.frame, _pair_pass(m1, m2)[0], open_world=True)


def disjunctive(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Disjunctive combination; ∪ of non-empty sets is non-empty, so the
    output is a closed-world bba."""
    return _mass(m1.frame, _pair_pass(m1, m2, union=True)[2])


def conflict(m1: MassFunction, m2: MassFunction) -> ConflictDecomposition:
    """The degree of conflict k12: total conjunctive mass on ∅, decomposed
    into the disjoint focal pairs that produce it."""
    disjoint = _pair_pass(m1, m2)[1]
    total = _sorted_k12(disjoint)
    width = m1.frame.size
    pairs = tuple((FocalSet(x, width), FocalSet(y, width), a * b) for x, y, a, b in disjoint)
    return ConflictDecomposition(total, pairs)
