"""Shared helpers: golden inputs, random bba generators, and independent
brute-force oracles that enumerate all subset pairs of the power set."""

from __future__ import annotations

import random

import numpy as np
import pytest

from belieffusion import FocalSet, Frame, MassFunction, make_frame


def bba(frame: Frame, masses: dict[str, float], open_world: bool = False) -> MassFunction:
    """Build a bba from a {'A': .6, 'AB': .4} style dict; '' denotes ∅."""
    entries = {frame.subset(tuple(k)): v for k, v in masses.items()}
    return MassFunction(frame, entries, open_world=open_world)


def labelled(m: MassFunction) -> dict[str, float]:
    return {"".join(fs.members(m.frame)): v for fs, v in m.items()}


# The worked two-hypothesis examples and the classic three-hypothesis
# high-conflict example used throughout the golden tests.
FRAME_AB = make_frame(["A", "B"])
FRAME_ABC = make_frame(["A", "B", "C"])

EX1 = (bba(FRAME_AB, {"A": 0.6, "AB": 0.4}), bba(FRAME_AB, {"B": 0.3, "AB": 0.7}))
EX2 = (
    bba(FRAME_AB, {"A": 0.6, "AB": 0.4}),
    bba(FRAME_AB, {"A": 0.2, "B": 0.3, "AB": 0.5}),
)
EX3 = (
    bba(FRAME_AB, {"A": 0.6, "B": 0.3, "AB": 0.1}),
    bba(FRAME_AB, {"A": 0.2, "B": 0.3, "AB": 0.5}),
)
ZADEH = (
    bba(FRAME_ABC, {"A": 0.9, "C": 0.1}),
    bba(FRAME_ABC, {"B": 0.9, "C": 0.1}),
)
# A pair whose disjoint products, summed in pass order, give another float than
# summed in the (x, y) order of the conflict record.
SKEWED = (
    bba(FRAME_ABC, {"C": 0.381, "AB": 0.229, "A": 0.095, "AC": 0.295}),
    bba(FRAME_ABC, {"C": 0.618, "BC": 0.236, "AB": 0.146}),
)


def random_bba(
    rng: np.random.Generator,
    frame: Frame,
    max_focals: int = 6,
    dense: bool = False,
    min_mass: float = 0.0,
) -> MassFunction:
    """A random closed-world bba with positive masses on distinct non-empty sets."""
    n = frame.size
    all_bits = np.arange(1, 2**n)
    if dense:
        chosen = all_bits
    else:
        k = int(rng.integers(1, min(max_focals, len(all_bits)) + 1))
        chosen = rng.choice(all_bits, size=k, replace=False)
    weights = rng.random(len(chosen)) + 1e-3
    weights = weights / weights.sum()
    if min_mass:
        weights = weights * (1.0 - min_mass * len(chosen)) + min_mass
    return MassFunction(
        frame, {FocalSet(int(b), n): float(w) for b, w in zip(chosen, weights)}
    )


def random_coarsening(rng: random.Random, n_labels: int, n_atoms: int) -> Frame:
    """A frame of labels ``h0``, ``h1``, … in ``n_atoms`` atoms: the labels
    in a shuffled order, cut at ``n_atoms - 1`` random places."""
    labels = list(range(n_labels))
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, n_labels), n_atoms - 1))
    atoms = [sum(1 << i for i in labels[a:b]) for a, b in zip([0, *cuts], [*cuts, n_labels])]
    return Frame([f"h{i}" for i in range(n_labels)], atoms)


def _mass_table(m: MassFunction) -> list[float]:
    n = m.frame.size
    return [m.mass(FocalSet(b, n)) for b in range(2**n)]


def conjunctive_oracle(m1: MassFunction, m2: MassFunction) -> dict[int, float]:
    """Double loop over every pair of the 2^n × 2^n subsets."""
    n = m1.frame.size
    v1, v2 = _mass_table(m1), _mass_table(m2)
    out: dict[int, float] = {}
    for b1 in range(2**n):
        for b2 in range(2**n):
            p = v1[b1] * v2[b2]
            if p:
                out[b1 & b2] = out.get(b1 & b2, 0.0) + p
    return out


def disjunctive_oracle(m1: MassFunction, m2: MassFunction) -> dict[int, float]:
    n = m1.frame.size
    v1, v2 = _mass_table(m1), _mass_table(m2)
    out: dict[int, float] = {}
    for b1 in range(2**n):
        for b2 in range(2**n):
            p = v1[b1] * v2[b2]
            if p:
                out[b1 | b2] = out.get(b1 | b2, 0.0) + p
    return out


def pcr_oracle(m1: MassFunction, m2: MassFunction) -> dict[int, float]:
    """Literal per-set evaluation: for every non-empty X, the conjunctive
    mass plus both proportional fractions summed over all disjoint Y ≠ X,
    discarding zero-denominator fractions."""
    n = m1.frame.size
    v1, v2 = _mass_table(m1), _mass_table(m2)
    conj = conjunctive_oracle(m1, m2)
    out: dict[int, float] = {}
    for x in range(1, 2**n):
        total = conj.get(x, 0.0)
        for y in range(2**n):
            if y == x or x & y:
                continue
            if v1[x] + v2[y] > 0.0:
                total += v1[x] ** 2 * v2[y] / (v1[x] + v2[y])
            if v2[x] + v1[y] > 0.0:
                total += v2[x] ** 2 * v1[y] / (v2[x] + v1[y])
        if total:
            out[x] = total
    return out


def assert_masses_close(m: MassFunction, expected: dict[int, float], tol: float) -> None:
    n = m.frame.size
    keys = {fs.bits for fs in m.entries} | set(expected)
    for bits in keys:
        got = m.mass(FocalSet(bits, n))
        want = expected.get(bits, 0.0)
        assert abs(got - want) <= tol, (bin(bits), got, want)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(20260826))
