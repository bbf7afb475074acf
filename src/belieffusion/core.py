"""
Frames of discernment, focal sets, mass functions, and the pair pass that
every combination rule builds on, with its three public views: the two base
combination operators (conjunctive / disjunctive) and the degree of conflict.

All values are immutable after construction and all operations are pure
functions, so everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType

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


class Pairs(list):
    """The disjoint pairs ``(x, y, m1(x), m2(y))`` of a pair pass, in its order, which no read
    changes: the one record of the conflict. ``k12`` adds their products left to right in
    ``(x, y)`` order, once, on first read: the one k12 sum, so every k12 has the same bits."""

    _k12 = None  # the sum, from the first read on

    @property
    def k12(self) -> float:
        # Not a cached_property, whose lock (Python 3.11) cost 3% of a 20-target fold.
        if self._k12 is None:
            k12 = 0.0
            for _, _, a, b in sorted(self):
                k12 += a * b
            self._k12 = k12
        return self._k12


class FrameMismatchError(ValueError):
    """Two mass functions defined on different frames were combined."""


class ScenarioError(ValueError):
    """The scenario configuration is infeasible or inconsistent; raised when one is built."""


class _Record:
    """An immutable record of the ``_fields`` its subclass's ``__init__`` sets with
    ``object.__setattr__``, or reads through a property. Equality, hashing, ``repr``
    and pickling go by the fields, and only records of one class compare equal."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)  # an attrgetter does not bind: call self._key(self)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{self.__class__.__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


class Frame(_Record):
    """An ordered tuple of exclusive, exhaustive hypothesis labels, partitioned
    into ``size`` atoms: one per label, or with ``sets`` the coarsest partition
    of which every mask in ``sets`` is a union (Shafer 1976, ch. 6). A focal
    set is a set of atoms, but every method takes and returns labels.
    ``atoms`` holds each atom's mask on the labels, ordered by highest label,
    and ``card`` of a set of atoms is its size in labels, kept in ``_memo``.

    With that order the map from the unions of atoms to atom masks (``coarsen``,
    inverted by ``refine``) keeps ∩, ∪, ∅, Θ and integer ``<``: the highest
    label where two unions differ lies in the highest atom where they differ.
    So a pair pass, a sort or a left-to-right sum over atom masks visits its
    entries in the order it would over the unions themselves.
    """

    __slots__ = ("labels", "size", "atoms", "_memo")
    _fields = ("labels", "atoms")

    def __init__(self, labels: Iterable[str], sets: Iterable[int] | None = None) -> None:
        labels = tuple(labels)
        if not labels:
            raise ValueError("frame needs at least one label")
        seen: set[str] = set()
        for label in labels:
            if not label:
                raise ValueError("empty label in frame")
            if label in seen:
                raise ValueError(f"duplicate label in frame: {label!r}")
            seen.add(label)
        if sets is None:
            atoms = [1 << i for i in range(len(labels))]
        else:
            atoms = [(1 << len(labels)) - 1]
            for s in set(sets):
                if not 0 <= s < 1 << len(labels):
                    raise ValueError(f"mask {s!r} is not a set of the frame's labels")
                atoms = [part for a in atoms for part in (a & s, a & ~s) if part]
            atoms.sort()  # disjoint masks sort by their highest label
        for name, value in (("labels", labels), ("size", len(atoms)), ("atoms", tuple(atoms)),
                            ("_memo", _Memo(a.bit_count() for a in atoms))):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        atoms = "" if self.size == len(self.labels) else f", atoms={self.atoms!r}"
        return f"Frame(labels={self.labels!r}{atoms})"

    def __reduce__(self) -> tuple:  # a plain frame skips the partition, quadratic in labels
        return Frame, (self.labels,) if self.size == len(self.labels) else self._key(self)

    def _mask(self, labels: Iterable[str]) -> int:
        """The mask of ``labels`` on the labels, not on the atoms."""
        bits = 0
        for label in labels:
            try:
                bits |= 1 << self.labels.index(label)
            except ValueError:
                raise KeyError(f"label not in frame: {label!r}") from None
        return bits

    def card(self, z: int) -> int:
        return self._memo[z][0]

    def index(self, label: str) -> int:
        """The index of the atom that holds ``label``."""
        bit = self._mask((label,))
        return next(j for j, a in enumerate(self.atoms) if a & bit)

    def empty_set(self) -> FocalSet:
        return FocalSet(0, self.size)

    def full_set(self) -> FocalSet:
        return FocalSet((1 << self.size) - 1, self.size)

    def subset(self, labels: Iterable[str]) -> FocalSet:
        """The set of ``labels``; raises ValueError when they split an atom."""
        return FocalSet(self.coarsen(self._mask(labels)), self.size)

    def subset_of_indices(self, indices: Iterable[int]) -> FocalSet:
        """The set of the atoms at ``indices``."""
        bits = 0
        for i in indices:
            if not 0 <= i < self.size:
                raise IndexError(i)
            bits |= 1 << i
        return FocalSet(bits, self.size)

    def coarsen(self, z: int) -> int:
        """The atom mask of ``z``, a union of atoms on the labels."""
        out = covered = 0
        for j, a in enumerate(self.atoms):
            if a & z:
                out |= 1 << j
                covered |= a
        if covered != z:
            raise ValueError("set is not a union of the frame's atoms")
        return out

    def refine(self, table: Table) -> Table:
        """``table`` keyed by the masks on the labels, in its own order.

        Each atom mask is cut into chunks of equal width, and each chunk is
        looked up in a table of the unions of its atoms. A table has
        2**width entries, so the width grows with the number of masks, from
        6 up to 16.
        """
        chunks = -(-self.size // min(16, max(6, len(table).bit_length())))
        width = -(-self.size // chunks)
        chunk = (1 << width) - 1
        for shift in range(0, self.size, width):
            unions = [0]
            for a in self.atoms[shift:shift + width]:
                unions += [u | a for u in unions]
            if not shift:
                fine = [unions[z & chunk] for z in table]
            else:
                fine = [f | unions[z >> shift & chunk] for f, z in zip(fine, table)]
        return dict(zip(fine, table.values()))


# The most sets a frame's memo holds; it is emptied when full. A fold reads a
# few thousand at most, and a frame that lives long stays bounded.
_MEMO_SETS = 2**14


class _Memo(dict):
    """The size in labels and the atom indices of each atom mask, computed on first read."""

    __slots__ = ("sizes",)

    def __init__(self, sizes: Iterable[int]) -> None:
        self.sizes = tuple(sizes)

    def __missing__(self, z: int) -> tuple[int, tuple[int, ...]]:
        if len(self) >= _MEMO_SETS:
            self.clear()
        members = tuple(_indices(z))
        return self.setdefault(z, (sum(self.sizes[i] for i in members), members))


make_frame = Frame  # the constructor under its function-style name, which the demos use


def _indices(bits: int) -> Iterator[int]:
    """The indices of the set bits of ``bits``, in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class FocalSet(_Record):
    """A set of a frame's atoms, stored as an arbitrary-width bit vector.

    ``bits`` is a plain Python int, so frames wider than a machine word
    (e.g. 135 hypotheses) need no special handling. ``cardinality`` counts
    atoms, and ``frame.card(bits)`` labels.
    """

    __slots__ = _fields = ("bits", "width")

    def __init__(self, bits: int, width: int) -> None:
        if width < 1:
            raise ValueError("focal set needs a positive frame width")
        if not 0 <= bits < (1 << width):
            raise ValueError("bit vector outside its frame")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "width", width)

    def __lt__(self, other: FocalSet) -> bool:  # sorts by (bits, width)
        return self._key(self) < other._key(other) if type(other) is FocalSet else NotImplemented

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def indices(self) -> Iterator[int]:
        """Member indices in ascending order, visiting set bits only."""
        return _indices(self.bits)

    def members(self, frame: Frame) -> tuple[str, ...]:
        """The labels of the set's atoms, in frame order."""
        if frame.size != self.width:
            raise FrameMismatchError("focal set does not belong to this frame")
        return tuple(frame.labels[i] for i in _indices(sum(frame.atoms[j] for j in self.indices())))

    def label(self, frame: Frame) -> str:
        """Human-readable form, e.g. ``A∪B`` or ``∅``."""
        names = self.members(frame)
        return "∪".join(names) if names else "∅"


class MassFunction(_Record):
    """A sparse basic belief assignment over subsets of a frame.

    Only strictly positive masses are stored; reading an absent set yields 0.
    ``open_world`` marks results that legitimately carry mass on the empty
    set (the conjunctive operator, Smets' rule); every combination rule and
    ``betp`` take only closed-world bbas: ``open_world=False``, no mass on ∅.
    Each holds its masses in ``_table``, keyed by ``int`` bit mask in insertion
    order; ``entries`` is a read-only view of it keyed by ``FocalSet``, built on
    first read. A mass must be a number other than a ``bool``.
    """

    _fields = ("frame", "_table", "open_world")

    def __init__(
        self, frame: Frame, entries: Mapping[FocalSet, float], open_world: bool = False
    ) -> None:
        table = {fs.bits: x for fs, v in entries.items() if (x := _number(frame, fs, v)) != 0.0}
        if any(fs.width != frame.size for fs, v in entries.items() if v != 0.0):
            raise FrameMismatchError("focal set width does not match frame")
        self.__dict__.update(frame=frame, _table=table, open_world=open_world)

    @cached_property
    def entries(self) -> Mapping[FocalSet, float]:
        width = self.frame.size
        return MappingProxyType({FocalSet(z, width): v for z, v in self._table.items()})

    def __reduce__(self) -> tuple:
        # The cached view is rebuilt on demand, and a mappingproxy does not pickle.
        return _mass, (self.frame, self._table, self.open_world)

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


def _number(frame: Frame, fs: FocalSet, v: object) -> float:
    """The mass ``v`` on ``fs`` as a float; a ``bool`` or a string is not a number."""
    if isinstance(v, bool) or not hasattr(v, "__float__"):
        raise TypeError(f"mass on {fs.label(frame)} must be a number, not {v!r}")
    return float(v)


# ok: bool, violations: tuple[str, ...]
ValidationReport = namedtuple("ValidationReport", "ok violations", defaults=((),))

ConflictDecomposition = namedtuple("ConflictDecomposition", "total pairs")
ConflictDecomposition.__doc__ = """Total conflict k12 (a float) and the disjoint focal
pairs ``(x, y, m1(x)·m2(y))`` producing it, in ``(x, y)`` order."""


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
) -> tuple[Table, Pairs, Table | None]:
    """The one pass over m1 × m2 that every combination rule builds on.

    Works on raw ``int`` bit masks in storage order and returns the ∩-table of the non-empty
    intersections without zero masses, the disjoint pairs ``(x, y, m1(x), m2(y))``, which
    alone record the conflict, and, when ``union`` is set, the ∪-table (otherwise ``None``).
    """
    _check_pair(m1, m2)
    right = list(m2._table.items())
    meet: Table = {}
    disjoint = Pairs()
    join: Table | None = {} if union else None
    for x, a in m1._table.items():
        for y, b in right:
            product = a * b
            z = x & y
            if not z:
                disjoint.append((x, y, a, b))
            else:
                meet[z] = meet.get(z, 0.0) + product
            if join is not None:
                u = x | y
                join[u] = join.get(u, 0.0) + product
    return _nonzero(meet), disjoint, join


def _check_pair(m1: MassFunction, m2: MassFunction) -> None:
    """Raise unless m1 and m2 are closed-world bbas on one frame, as a pass needs."""
    # A fold's frames are one object, and the identity test skips `__eq__`.
    if m1.frame is not m2.frame and m1.frame != m2.frame:
        raise FrameMismatchError("mass functions defined on different frames")
    _check_closed_world(m1)
    _check_closed_world(m2)


def _check_closed_world(m: MassFunction) -> None:
    """Raise unless m is closed-world and has no mass on ∅, as every rule and ``betp`` need."""
    if m.open_world:
        raise ValueError("expected a closed-world bba, not an open-world one")
    if 0 in m._table:
        raise ValueError(f"closed-world bba carries mass on ∅: {m._table[0]!r}")


def _sum_in_order(values: Iterable[float]) -> float:
    """The values added left to right: not ``sum()``, which compensates since
    Python 3.12, so the bits would depend on the Python version."""
    total = 0.0
    for v in values:
        total += v
    return total


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
    """Conjunctive combination; the output carries k12 on ∅ (open world)."""
    meet, disjoint, _ = _pair_pass(m1, m2)
    return _mass(m1.frame, {0: disjoint.k12, **meet}, open_world=True)


def disjunctive(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Disjunctive combination; ∪ of non-empty sets is non-empty, so the
    output is a closed-world bba."""
    return _mass(m1.frame, _pair_pass(m1, m2, union=True)[2])


def conflict(m1: MassFunction, m2: MassFunction) -> ConflictDecomposition:
    """The degree of conflict k12: total conjunctive mass on ∅, decomposed
    into the disjoint focal pairs that produce it, in ``(x, y)`` order."""
    disjoint = _pair_pass(m1, m2)[1]
    width = m1.frame.size
    pairs = tuple((FocalSet(x, width), FocalSet(y, width), a * b)
                  for x, y, a, b in sorted(disjoint))
    return ConflictDecomposition(disjoint.k12, pairs)
