"""Pignistic transform and the maximum-pignistic decision."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

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


# Rows of the member matrix expanded at once; bounds the int64 select block
# to 256 × frame-size × 8 bytes however many focal sets the bba holds.
_BETP_BLOCK = 256


def betp(m: MassFunction) -> PignisticDistribution:
    """Split each focal mass equally among its members.

    Only defined for closed-world bbas; mass on ∅ has no pignistic home.

    Each share ``mass / |A|`` is placed on its members by an integer
    select: the 0/1 ``uint8`` member flag times the share's int64 bits is
    ``+0.0`` or the exact share, with no float multiply, so an inf or nan
    mass reaches only its own members. Each block's rows are summed by
    ``np.add.reduce`` over axis 0, the running row carried in ``rows[0]``.
    Axis 0 is the outer, strided one, so numpy adds row after row into the
    running row in storage order: the additions of ``probs[i] += share``
    over the entries, bit for bit. Reducing the contiguous axis would sum
    pairwise, and ``@`` and ``einsum`` sum in BLAS order; both change bits.
    """
    if m.open_world:
        raise ValueError("pignistic transform requires a closed-world bba")
    n = m.frame.size
    nbytes = (n + 7) // 8
    packed = np.frombuffer(
        b"".join(z.to_bytes(nbytes, "little") for z in m._table), dtype=np.uint8
    ).reshape(len(m._table), nbytes)
    try:
        shares = np.array([v / z.bit_count() for z, v in m._table.items()])
    except ZeroDivisionError:
        raise ValueError(
            "closed-world bba carries mass on ∅, which has no pignistic home"
        ) from None
    bits = shares.view(np.int64)
    acc = np.zeros(n)
    for start in range(0, len(shares), _BETP_BLOCK):
        block = slice(start, start + _BETP_BLOCK)
        member = np.unpackbits(packed[block], axis=1, count=n, bitorder="little")
        rows = np.multiply(member, bits[block, None]).view(np.float64)
        rows[0] += acc
        acc = np.add.reduce(rows, axis=0)
    return PignisticDistribution(m.frame, tuple(acc.tolist()))


def decide(p: PignisticDistribution) -> Decision:
    """Pick the most probable singleton; ties (within TIE_TOL of the max)
    resolve to the lowest frame index with the tie flag set."""
    best = max(p.probs)
    tied = [i for i, v in enumerate(p.probs) if best - v <= TIE_TOL]
    return Decision(tied[0], p.probs[tied[0]], len(tied) > 1)
