"""Pignistic transform and the maximum-pignistic decision."""

from __future__ import annotations

from collections import namedtuple

from .core import MassFunction

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
# its plain loop: about where the loop's per-member cost overtakes numpy's
# fixed cost per call (about 17 µs), 128 members on a 20-label frame and 93
# on a 135-label one.
_BETP_LOOP_MEMBERS = 128

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
    imported only then, so ``betp`` on a small bba never loads numpy.

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
    # Every stored set has a member, so a table longer than the budget is
    # above it without counting: a large bba pays no Σ|A| pass.
    if len(table) > _BETP_LOOP_MEMBERS or sum(map(int.bit_count, table)) > _BETP_LOOP_MEMBERS:
        return PignisticDistribution(m.frame, _betp_numpy(table, m.frame.size))
    probs = [0.0] * m.frame.size
    for z, v in table.items():
        share = v / z.bit_count()
        while z:
            i = z.bit_length() - 1
            probs[i] += share
            z ^= 1 << i
    return PignisticDistribution(m.frame, tuple(probs))


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
    resolve to the lowest frame index with the tie flag set."""
    best = max(p.probs)
    tied = [i for i, v in enumerate(p.probs) if best - v <= TIE_TOL]
    return Decision(tied[0], p.probs[tied[0]], len(tied) > 1)
