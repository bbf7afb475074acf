"""Pignistic transform and the maximum-pignistic decision."""

from __future__ import annotations

from collections import namedtuple

from .core import FocalSet, MassFunction, _arrays, _check_closed_world

__all__ = ["PignisticDistribution", "Decision", "betp", "decide", "TIE_TOL"]

TIE_TOL = 1e-12


class PignisticDistribution(namedtuple("PignisticDistribution", "frame probs")):
    """Probabilities ``probs`` per atom of ``frame``; ``prob`` reads a label's, its atom's."""

    __slots__ = ()

    def prob(self, label: str) -> float:
        return self.probs[self.frame.index(label)]


# The chosen frame index, its probability, and whether other singletons tie with it.
Decision = namedtuple("Decision", "index probability tie")


# The most member visits, Σ|A| over the focal sets, for which ``betp`` runs
# its plain loop. Least-squares fits of both paths per call, over the states
# of desk and wide-union folds taken in fold order, crossed at 338-385
# members on 20 labels and 343-353 on 135: with memoized member indices the
# loop's cost per member (52-94 ns) does not grow with the frame's width, so
# one budget serves every width, and 320 sat just below both crossings. On a
# coarse frame a member is an atom. Refitted with the frame's memo and the
# uint64 packing of up to 64 atoms: over the 1,500 calls of one wide-union
# pass, each from empty memos, every budget from 96 to 320 took 55-59 ms
# (fastest of 15 passes), 320 the slowest by under 5%, so 320 stays. Every
# desk state runs the loop at any of these budgets.
_BETP_LOOP_MEMBERS = 320

# Rows of the member matrix expanded at once; bounds the int64 select block
# to 256 × frame-size × 8 bytes however many focal sets the bba holds.
_BETP_BLOCK = 256


def betp(m: MassFunction) -> PignisticDistribution:
    """Split each focal mass equally among its labels.

    Only defined for closed-world bbas; mass on ∅ has no pignistic home.

    The sums are kept per atom of ``m.frame``: a label on a plain frame, and
    on a coarsening (as in ``scenario.fold``) a block of labels that every
    focal set holds whole or not at all, all of which get the atom's sum.
    Both paths add each share ``mass / |A|``, with ``|A|`` counted in labels
    (``m.frame.card``), to A's atoms in storage order: the additions of
    ``probs[i] += share``, so they give the same bits, those of each of the
    atom's labels on the plain frame of the same labels. The loop's member
    visits, Σ over the focal sets of their atoms, pick the path: up to
    ``_BETP_LOOP_MEMBERS`` a plain loop, above it numpy, which is imported
    only then, so ``betp`` on a small bba never loads numpy. Both read sizes
    from the frame's memo, the loop atom indices too; it changes no addition.

    The numpy path places each share on its members by an integer select:
    the 0/1 ``uint8`` member flag times the share's int64 bits is ``+0.0``
    or the exact share, with no float multiply, so an inf or nan mass
    reaches only its own members. Each block's rows are summed by
    ``np.add.reduce`` over axis 0, the running row carried in ``rows[0]``.
    Axis 0 is the outer, strided one, so numpy adds row after row into the
    running row in storage order. Reducing the contiguous axis would sum
    pairwise, and ``@`` and ``einsum`` sum in BLAS order; both change bits.
    Only the set sizes are summed by ``@``: sums of whole numbers, exact in
    any order.
    """
    _check_closed_world(m)
    table = m._table
    # len(table) ≤ Σ|A| ≤ len(table) × |Θ|, so either bound settles most
    # calls without counting: a small or a large bba pays no Σ|A| pass.
    n, memo = m.frame.size, m.frame._memo
    if len(table) * n > _BETP_LOOP_MEMBERS and (
        len(table) > _BETP_LOOP_MEMBERS or sum(map(int.bit_count, table)) > _BETP_LOOP_MEMBERS
    ):
        return PignisticDistribution(m.frame, _betp_numpy(table, memo.sizes))
    probs = [0.0] * n
    for z, v in table.items():
        card, members = memo[z]  # a fold meets the same sets step after step, so most reads hit
        share = v / card
        for i in members:
            probs[i] += share
    return PignisticDistribution(m.frame, tuple(probs))


def _betp_numpy(table: dict[int, float], sizes: tuple[int, ...]) -> tuple[float, ...]:
    """``betp``'s sums for a bba above the loop's member budget."""
    import numpy as np

    n = len(sizes)
    if n <= 64:  # one uint64 per mask: every fold's coarsening at 25 reports
        masks, masses = _arrays(table)
        packed = masks.view(np.uint8).reshape(len(table), 8)
    else:
        nbytes = (n + 7) // 8
        packed = np.frombuffer(
            b"".join(z.to_bytes(nbytes, "little") for z in table), dtype=np.uint8
        ).reshape(len(table), nbytes)
        masses = np.fromiter(table.values(), np.float64, len(table))
    # Labels per atom, as floats: a set's size is a sum of whole numbers, so exact.
    labels = np.array(sizes, dtype=np.float64)
    acc = np.zeros(n)
    for start in range(0, len(masses), _BETP_BLOCK):
        block = slice(start, start + _BETP_BLOCK)
        member = np.unpackbits(packed[block], axis=1, count=n, bitorder="little")
        shares = masses[block] / (member @ labels)
        rows = np.multiply(member, shares.view(np.int64)[:, None]).view(np.float64)
        rows[0] += acc
        acc = np.add.reduce(rows, axis=0)
    return tuple(acc.tolist())


def decide(p: PignisticDistribution) -> Decision:
    """Pick the most probable singleton; ties (within TIE_TOL of the max)
    resolve to the lowest frame index with the tie flag set. Raises
    ValueError naming the labels of the first nan atom, or of an inf
    maximum, which no atom can be within TIE_TOL of.

    ``probs`` holds one probability per atom of ``p.frame``, which every
    label of the atom shares. So the tied labels are those of the tied
    atoms: the index is the lowest of them, in ``p.frame.labels``, and
    ``tie`` says whether there is more than one, within one atom or across
    atoms. On a plain frame each atom is one label."""
    probs = p.probs
    best = max(probs)  # nan only when the first label is nan
    total = sum(probs)  # one C-level pass: nan if any label is nan
    if total != total:
        best = next((v for v in probs if v != v), best)  # ``index`` finds it by identity
    tied = [i for i, v in enumerate(probs) if best - v <= TIE_TOL]
    if not tied:
        atom = FocalSet(1 << probs.index(best), p.frame.size)
        raise ValueError(f"no decision: BetP({atom.label(p.frame)}) is {best!r}")
    atoms = p.frame.atoms
    # The tied atom that holds the lowest label: atoms are disjoint, so their lowest bits order them.
    first = tied[0] if len(tied) == 1 else min(tied, key=lambda i: atoms[i] & -atoms[i])
    low = atoms[first] & -atoms[first]
    return Decision(low.bit_length() - 1, probs[first], len(tied) > 1 or atoms[first] != low)
