"""Pignistic transform and the maximum-pignistic decision."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .core import MassFunction, _indices

__all__ = ["PignisticDistribution", "Decision", "betp", "decide", "TIE_TOL"]

TIE_TOL = 1e-12


class PignisticDistribution(namedtuple("PignisticDistribution", "frame probs")):
    """Probability vector ``probs`` over the singletons of ``frame``."""

    __slots__ = ()

    def prob(self, label: str) -> float:
        return self.probs[self.frame.index(label)]


# The chosen frame index, its probability, and whether other singletons tie with it.
Decision = namedtuple("Decision", "index probability tie")


# The most member visits, Σ|A| over the focal sets, for which ``betp`` runs
# its plain loop. Least-squares fits of both paths per call, over the states
# of desk and wide-union folds taken in fold order (so with the cache's real
# misses), cross at 338-385 members on 20 labels and 343-353 on 135: reading
# member indices from ``_members``, the loop's cost per member (52-94 ns) no
# longer grows with the frame's width, so one budget serves every width.
# 320 sits just below both crossings.
_BETP_LOOP_MEMBERS = 320

# Rows of the member matrix expanded at once; bounds the int64 select block
# to 256 × frame-size × 8 bytes however many focal sets the bba holds.
_BETP_BLOCK = 256


def betp(m: MassFunction) -> PignisticDistribution:
    """Split each focal mass equally among its members.

    Only defined for closed-world bbas; mass on ∅ has no pignistic home.

    Both paths add each share ``mass / |A|`` to its members' running sums,
    entry after entry in storage order: the additions of ``probs[i] += share``,
    so they give the same bits. Σ|A|, the loop's member visits, picks the
    path: up to ``_BETP_LOOP_MEMBERS`` a plain loop, above it numpy, which is
    imported only then, so ``betp`` on a small bba never loads numpy. The
    loop reads each set's member indices from ``_members``, a process-wide
    LRU cache of 1,024 sets keyed by the set's int mask, so a set seen before
    costs no bit scan; the additions, and so the bits, are the same either way.

    The numpy path places each share on its members by an integer select:
    the 0/1 ``uint8`` member flag times the share's int64 bits is ``+0.0``
    or the exact share, with no float multiply, so an inf or nan mass
    reaches only its own members. Each block's rows are summed by
    ``np.add.reduce`` over axis 0, the running row carried in ``rows[0]``.
    Axis 0 is the outer, strided one, so numpy adds row after row into the
    running row in storage order. Reducing the contiguous axis would sum
    pairwise, and ``@`` and ``einsum`` sum in BLAS order; both change bits.
    """
    if m.open_world:
        raise ValueError("pignistic transform requires a closed-world bba")
    table = m._table
    if 0 in table:
        raise ValueError("closed-world bba carries mass on ∅, which has no pignistic home")
    # len(table) ≤ Σ|A| ≤ len(table) × |Θ|, so either bound settles most
    # calls without counting: a small or a large bba pays no Σ|A| pass.
    n = m.frame.size
    if len(table) * n > _BETP_LOOP_MEMBERS and (
        len(table) > _BETP_LOOP_MEMBERS or sum(map(int.bit_count, table)) > _BETP_LOOP_MEMBERS
    ):
        return PignisticDistribution(m.frame, _betp_numpy(table, n))
    probs = [0.0] * n
    for z, v in table.items():
        members = _members(z)
        share = v / len(members)
        for i in members:
            probs[i] += share
    return PignisticDistribution(m.frame, tuple(probs))


# A fold meets the same sets step after step, so most calls hit.
@lru_cache(maxsize=1024)
def _members(z: int) -> tuple[int, ...]:
    """The member indices of the set ``z``, in ascending order."""
    return tuple(_indices(z))


def _betp_numpy(table: dict[int, float], n: int) -> tuple[float, ...]:
    """``betp``'s sums for a bba above the loop's member budget."""
    import numpy as np

    nbytes = (n + 7) // 8
    packed = np.frombuffer(
        b"".join(z.to_bytes(nbytes, "little") for z in table), dtype=np.uint8
    ).reshape(len(table), nbytes)
    shares = np.array([v / z.bit_count() for z, v in table.items()])
    bits = shares.view(np.int64)
    acc = np.zeros(n)
    for start in range(0, len(shares), _BETP_BLOCK):
        block = slice(start, start + _BETP_BLOCK)
        member = np.unpackbits(packed[block], axis=1, count=n, bitorder="little")
        rows = np.multiply(member, bits[block, None]).view(np.float64)
        rows[0] += acc
        acc = np.add.reduce(rows, axis=0)
    return tuple(acc.tolist())


def decide(p: PignisticDistribution) -> Decision:
    """Pick the most probable singleton; ties (within TIE_TOL of the max)
    resolve to the lowest frame index with the tie flag set. Raises
    ValueError naming the first nan label, or the label of an inf maximum,
    which no label can be within TIE_TOL of."""
    probs = p.probs
    best = max(probs)  # nan only when the first label is nan
    total = sum(probs)  # one C-level pass: nan if any label is nan
    if total != total:
        best = next((v for v in probs if v != v), best)  # ``index`` finds it by identity
    tied = [i for i, v in enumerate(probs) if best - v <= TIE_TOL]
    if not tied:
        raise ValueError(f"no decision: BetP({p.frame.labels[probs.index(best)]}) is {best!r}")
    return Decision(tied[0], probs[tied[0]], len(tied) > 1)
