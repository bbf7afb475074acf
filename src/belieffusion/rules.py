"""
Two-source combination rules: Dempster, Smets, Yager, Dubois & Prade (and
its static alias dsmh), Inagaki's weighted family with its extremal member,
the adaptive conjunctive/disjunctive mixture (generic and symmetric), and
proportional conflict redistribution.

Every rule consumes two validated closed-world mass functions on a shared
frame and is a pure function of its inputs. Each one is a short policy over
a single call of the core pair pass: it reads the ∩-table (k12 under key 0),
the disjoint pairs and, for the adaptive mixture, the ∪-table, and decides
where the conflicting mass goes. The tables are released before the output
mass function is built, which keeps the peak memory of a large fusion down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from .core import (
    FocalSet,
    FrameMismatchError,
    MassFunction,
    Pairs,
    Table,
    _mass,
    _pair_pass,
    _sorted_k12,
    conflict,
    conjunctive,
    disjunctive,
)

__all__ = [
    "TotalConflictError",
    "DegenerateError",
    "InvalidBetaError",
    "alpha0",
    "beta0",
    "dempster",
    "smets",
    "yager",
    "dubois_prade",
    "dsmh",
    "inagaki_generic",
    "inagaki_extreme",
    "acr_generic",
    "acr_inagaki_weights",
    "sacr",
    "pcr",
    "pcr_shares",
    "ConflictShare",
    "RULES",
]

TOTAL_CONFLICT_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-9


class TotalConflictError(ArithmeticError):
    """Dempster's rule was applied at k12 = 1, where it cannot be used."""


class DegenerateError(ArithmeticError):
    """The rule's redistribution target is empty or its formula is undefined."""


class InvalidBetaError(ValueError):
    """A supplied mixture weighting violates its endpoint contract."""


def _split(meet: Table) -> tuple[float, Table]:
    """k12 and the conjunctive masses of the non-empty sets, without zero
    masses (which a mass function would not have stored)."""
    return meet.get(0, 0.0), {z: v for z, v in meet.items() if z and v != 0.0}


def dempster(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Normalized conjunctive rule: divide each non-empty conjunctive mass by
    their sum (1 - k12, free of input drift). Raises TotalConflictError at k12 = 1."""
    out = _split(_pair_pass(m1, m2)[0])[1]
    norm = sum(out.values())
    if norm <= TOTAL_CONFLICT_TOL:
        raise TotalConflictError(
            "total conflict between sources (k12=1); Dempster's rule cannot be used"
        )
    return _mass(m1.frame, {z: v / norm for z, v in out.items()})


# Smets' unnormalized rule is the conjunctive operator: the conflict stays on ∅.
smets = conjunctive


def yager(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Conjunctive rule with the conflict transferred to total ignorance."""
    k12, out = _split(_pair_pass(m1, m2)[0])
    if k12:
        full = (1 << m1.frame.size) - 1
        out[full] = out.get(full, 0.0) + k12
    return _mass(m1.frame, out)


def dubois_prade(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Conjunctive masses plus each disjoint pair's product moved to X∪Y."""
    meet, disjoint, _ = _pair_pass(m1, m2)
    _, out = _split(meet)
    for x, y, a, b in disjoint:
        u = x | y
        out[u] = out.get(u, 0.0) + a * b
    del meet, disjoint
    return _mass(m1.frame, out)


# Static two-source DSmH on an exclusive frame coincides with Dubois & Prade's rule.
dsmh = dubois_prade


def _check_weights(frame, weights: Mapping[FocalSet, float]) -> None:
    total = 0.0
    for fs, w in weights.items():
        if fs.width != frame.size:
            raise FrameMismatchError("weight set width does not match frame")
        if fs.is_empty:
            raise ValueError("weights must be assigned to non-empty sets only")
        if w < 0.0:
            raise ValueError(f"negative weight {w!r} on {fs.label(frame)}")
        total += w
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")


def inagaki_generic(
    m1: MassFunction, m2: MassFunction, weights: Mapping[FocalSet, float]
) -> MassFunction:
    """Inagaki's weighted redistribution: each non-empty A receives
    m∧(A) + w(A)·k12 for a caller-chosen unit-sum weight assignment."""
    k12, out = _split(_pair_pass(m1, m2)[0])
    _check_weights(m1.frame, weights)
    for fs, w in weights.items():
        share = w * k12
        if share:
            out[fs.bits] = out.get(fs.bits, 0.0) + share
    return _mass(m1.frame, out)


def inagaki_extreme(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """The extremal member of Inagaki's family: the conflict is distributed
    so that ratios between the masses of any two sets other than the frame
    are preserved. Θ keeps its conjunctive mass."""
    k12, out = _split(_pair_pass(m1, m2)[0])
    if k12 == 0.0:
        return _mass(m1.frame, out)
    full = (1 << m1.frame.size) - 1
    theta_mass = out.pop(full, 0.0)
    s = sum(out.values())
    if s == 0.0:
        raise DegenerateError("no focal element other than Θ can receive the conflict")
    factor = 1.0 + k12 / s
    out = {z: v * factor for z, v in out.items()}
    if theta_mass:
        out[full] = theta_mass
    return _mass(m1.frame, out)


def alpha0(k: float) -> float:
    """Disjunctive weight of the symmetric adaptive rule: k / (1 - k + k²)."""
    return k / (1.0 - k + k * k)


def beta0(k: float) -> float:
    """Conjunctive weight of the symmetric adaptive rule: (1 - k) / (1 - k + k²)."""
    return (1.0 - k) / (1.0 - k + k * k)


def _acr_combine(
    m1: MassFunction, m2: MassFunction, mix: Callable[[float], tuple[float, float]]
) -> MassFunction:
    """The mixture α·m∨ + β·m∧ with (α, β) = ``mix(k12)``."""
    meet, disjoint, join = _pair_pass(m1, m2, union=True)
    alpha, beta = mix(_sorted_k12(disjoint))
    out = {z: beta * v for z, v in _split(meet)[1].items()}
    for z, v in join.items():
        out[z] = out.get(z, 0.0) + alpha * v
    del meet, disjoint, join
    return _mass(m1.frame, out)


def acr_generic(
    m1: MassFunction, m2: MassFunction, beta: Callable[[float], float]
) -> MassFunction:
    """Adaptive mixture α·m∨ + β·m∧ for a caller-supplied decreasing weight
    β with β(0)=1 and β(1)=0; α follows from the normalization constraint
    α(k) = 1 - (1-k)·β(k)."""
    if abs(beta(0.0) - 1.0) > TOTAL_CONFLICT_TOL or abs(beta(1.0)) > TOTAL_CONFLICT_TOL:
        raise InvalidBetaError("beta must satisfy beta(0)=1 and beta(1)=0")

    def mix(k12: float) -> tuple[float, float]:
        b = beta(k12)
        if not 0.0 <= b <= 1.0:
            raise InvalidBetaError(f"beta({k12!r}) = {b!r} is outside [0, 1]")
        return 1.0 - (1.0 - k12) * b, b

    return _acr_combine(m1, m2, mix)


def sacr(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Symmetric adaptive rule: the mixture with the closed-form weights
    α0, β0, which is conjunctive at zero conflict and disjunctive at total
    conflict."""
    return _acr_combine(m1, m2, lambda k: (alpha0(k), beta0(k)))


def acr_inagaki_weights(
    m1: MassFunction, m2: MassFunction, beta: Callable[[float], float]
) -> dict[FocalSet, float]:
    """The (possibly negative) Inagaki weights that reproduce the adaptive
    mixture: w(A) = (1-β)/k12 · [m∨(A) - m∧(A)] + β·m∨(A).

    Diagnostic only; undefined at k12 = 0, where the mixture is plainly
    conjunctive.
    """
    k12 = conflict(m1, m2).total
    if k12 == 0.0:
        raise DegenerateError("weights are undefined at zero conflict")
    b = beta(k12)
    conj = conjunctive(m1, m2)
    disj = disjunctive(m1, m2)
    weights: dict[FocalSet, float] = {}
    for fs in set(conj.entries) | set(disj.entries):
        if fs.is_empty:
            continue
        weights[fs] = (1.0 - b) / k12 * (disj.mass(fs) - conj.mass(fs)) + b * disj.mass(fs)
    return weights


@dataclass(frozen=True)
class ConflictShare:
    """One directional redistribution term of the proportional rule.

    The partial conflicting product m_i(x)·m_j(y) of a disjoint pair is
    returned to x and y in the ratio m_i(x) : m_j(y).
    """

    x: FocalSet
    y: FocalSet
    product: float
    to_x: float
    to_y: float


def _shares(disjoint: Pairs) -> Iterator[tuple[int, int, float, float, float]]:
    """``(x, y, product, to_x, to_y)`` per disjoint pair, in ``(x, y)``
    order; pairs whose masses sum to zero have no ratio and are skipped."""
    disjoint.sort()
    for x, y, a, b in disjoint:
        denom = a + b
        if denom != 0.0:
            yield x, y, a * b, a * a * b / denom, b * b * a / denom


def pcr_shares(m1: MassFunction, m2: MassFunction) -> list[ConflictShare]:
    """All directional redistribution terms, one per ordered disjoint focal
    pair (x from the first source, y from the second)."""
    width = m1.frame.size
    return [
        ConflictShare(FocalSet(x, width), FocalSet(y, width), product, to_x, to_y)
        for x, y, product, to_x, to_y in _shares(_pair_pass(m1, m2)[1])
    ]


def pcr(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Proportional conflict redistribution: conjunctive masses plus every
    partial conflicting product returned to the two sets that generated it,
    proportionally to their individual masses."""
    meet, disjoint, _ = _pair_pass(m1, m2)
    _, out = _split(meet)
    for x, y, _, to_x, to_y in _shares(disjoint):
        if to_x:
            out[x] = out.get(x, 0.0) + to_x
        if to_y:
            out[y] = out.get(y, 0.0) + to_y
    del meet, disjoint
    return _mass(m1.frame, out)


# Stable lowercase identifiers for the CLI and file outputs.
RULES: dict[str, Callable[[MassFunction, MassFunction], MassFunction]] = {
    "dempster": dempster,
    "smets": smets,
    "yager": yager,
    "dubois-prade": dubois_prade,
    "dsmh": dsmh,
    "inagaki": inagaki_extreme,
    "sacr": sacr,
    "pcr": pcr,
}
