"""Pignistic transform and the maximum-pignistic decision."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Frame, MassFunction

__all__ = ["PignisticDistribution", "Decision", "betp", "decide", "TIE_TOL"]

TIE_TOL = 1e-12


@dataclass(frozen=True)
class PignisticDistribution:
    """Probability vector over the singletons of a frame."""

    frame: Frame
    probs: tuple[float, ...]

    def prob(self, label: str) -> float:
        return self.probs[self.frame.index(label)]


@dataclass(frozen=True)
class Decision:
    index: int
    probability: float
    tie: bool


# Rows of the member matrix expanded at once; bounds the float64 block to
# 256 × frame-size × 8 bytes however many focal sets the bba holds.
_BETP_BLOCK = 256


def betp(m: MassFunction) -> PignisticDistribution:
    """Split each focal mass equally among its members.

    Only defined for closed-world bbas; mass on ∅ has no pignistic home.

    Each focal set's share ``mass / |A|`` is placed on its members with a
    select (so an inf or nan mass reaches only its own members) and the
    rows are summed with ``np.add.accumulate``, one row after another in
    ``m.entries`` order, carrying the running row across blocks. That is
    the same sequence of additions as ``probs[i] += share`` over the
    entries, so the result is bit-for-bit that loop's; ``np.sum``, ``@``
    and ``einsum`` sum pairwise or in BLAS order and change the last bits.
    """
    if m.open_world:
        raise ValueError("pignistic transform requires a closed-world bba")
    n = m.frame.size
    nbytes = (n + 7) // 8
    packed = np.frombuffer(
        b"".join(fs.bits.to_bytes(nbytes, "little") for fs in m.entries),
        dtype=np.uint8,
    ).reshape(len(m.entries), nbytes)
    shares = np.array([v / fs.bits.bit_count() for fs, v in m.entries.items()])
    acc = np.zeros(n)
    for start in range(0, len(shares), _BETP_BLOCK):
        block = slice(start, start + _BETP_BLOCK)
        member = np.unpackbits(packed[block], axis=1, count=n, bitorder="little")
        rows = np.where(member.view(bool), shares[block, None], 0.0)
        rows[0] += acc
        np.add.accumulate(rows, axis=0, out=rows)
        acc = rows[-1]
    return PignisticDistribution(m.frame, tuple(acc.tolist()))


def decide(p: PignisticDistribution) -> Decision:
    """Pick the most probable singleton; ties (within TIE_TOL of the max)
    resolve to the lowest frame index with the tie flag set."""
    best = max(p.probs)
    tied = [i for i, v in enumerate(p.probs) if best - v <= TIE_TOL]
    return Decision(tied[0], p.probs[tied[0]], len(tied) > 1)
