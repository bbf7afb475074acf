"""
Two-source combination rules: Dempster, Smets, Yager, Dubois & Prade (and
its static alias dsmh), Inagaki's weighted family with its extremal member,
the adaptive conjunctive/disjunctive mixture (generic and symmetric), and
proportional conflict redistribution.

Every rule consumes two validated closed-world mass functions on a shared
frame and is a pure function of its inputs. Each one is a short policy over
a single call of the core pair pass: it reads the ∩-table (k12 under key 0),
the disjoint pairs and, for the adaptive mixture, the ∪-table, decides where
the conflicting mass goes, and returns the output table and the disjoint
pairs. ``_step``, the scenario fold's step, also sums k12 from those pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from inspect import signature
from typing import Callable, Iterator, Mapping

from .core import FocalSet, MassFunction, Pairs, Table, conjunctive
from .core import _mass, _nonzero, _pair_pass, _sorted_k12, _sum_in_order, validate
from .core import conflict, disjunctive  # noqa: F401 (tracing tools patch them here)

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


class TotalConflictError(ArithmeticError):
    """Dempster's rule was applied at k12 = 1, where it cannot be used."""


class DegenerateError(ArithmeticError):
    """The rule's redistribution target is empty or its formula is undefined."""


class InvalidBetaError(ValueError):
    """A supplied mixture weighting violates its endpoint contract."""


def _rule(policy: Callable[..., tuple[Table, Pairs]]) -> Callable[..., MassFunction]:
    """The public rule of a policy: its output table as a mass function."""
    rule = wraps(policy)(lambda m1, m2, *args: _mass(m1.frame, policy(m1, m2, *args)[0]))
    rule.__signature__ = signature(policy).replace(return_annotation="MassFunction")
    return rule


def _split(m1: MassFunction, m2: MassFunction) -> tuple[float, Table, Pairs]:
    """One pair pass: k12, the non-empty sets' conjunctive masses, the disjoint pairs."""
    meet, disjoint, _ = _pair_pass(m1, m2)
    return meet.pop(0, 0.0), _nonzero(meet), disjoint


@_rule
def dempster(m1: MassFunction, m2: MassFunction) -> tuple[Table, Pairs]:
    """Normalized conjunctive rule: divide each non-empty conjunctive mass by
    their sum (1 - k12, free of input drift). Raises TotalConflictError at k12 = 1."""
    _, out, disjoint = _split(m1, m2)
    norm = _sum_in_order(out.values())
    if norm <= TOTAL_CONFLICT_TOL:
        raise TotalConflictError(
            "total conflict between sources (k12=1); Dempster's rule cannot be used"
        )
    return {z: v / norm for z, v in out.items()}, disjoint


# Smets' unnormalized rule is the conjunctive operator: the conflict stays on ∅.
smets = conjunctive


@_rule
def yager(m1: MassFunction, m2: MassFunction) -> tuple[Table, Pairs]:
    """Conjunctive rule with the conflict transferred to total ignorance."""
    k12, out, disjoint = _split(m1, m2)
    if k12:
        full = (1 << m1.frame.size) - 1
        out[full] = out.get(full, 0.0) + k12
    return out, disjoint


@_rule
def dubois_prade(m1: MassFunction, m2: MassFunction) -> tuple[Table, Pairs]:
    """Conjunctive masses plus each disjoint pair's product moved to X∪Y."""
    _, out, disjoint = _split(m1, m2)
    for x, y, a, b in disjoint:
        u = x | y
        out[u] = out.get(u, 0.0) + a * b
    return out, disjoint


# Static two-source DSmH on an exclusive frame coincides with Dubois & Prade's rule.
dsmh = dubois_prade


@_rule
def inagaki_generic(
    m1: MassFunction, m2: MassFunction, weights: Mapping[FocalSet, float]
) -> tuple[Table, Pairs]:
    """Inagaki's weighted redistribution: each non-empty A receives
    m∧(A) + w(A)·k12 for a caller-chosen unit-sum weight assignment, which
    is checked as a closed-world bba on the inputs' frame."""
    w = MassFunction(m1.frame, weights)
    report = validate(w)
    if not report.ok:
        raise ValueError("weights: " + "; ".join(report.violations))
    k12, out, disjoint = _split(m1, m2)
    for z, v in w._table.items():
        share = v * k12
        if share:
            out[z] = out.get(z, 0.0) + share
    return out, disjoint


@_rule
def inagaki_extreme(m1: MassFunction, m2: MassFunction) -> tuple[Table, Pairs]:
    """The extremal member of Inagaki's family: the conflict is distributed
    so that ratios between the masses of any two sets other than the frame
    are preserved. Θ keeps its conjunctive mass."""
    k12, out, disjoint = _split(m1, m2)
    if k12 == 0.0:
        return out, disjoint
    full = (1 << m1.frame.size) - 1
    theta_mass = out.pop(full, 0.0)
    s = _sum_in_order(out.values())
    if s == 0.0:
        raise DegenerateError("no focal element other than Θ can receive the conflict")
    factor = 1.0 + k12 / s
    out = {z: v * factor for z, v in out.items()}
    if theta_mass:
        out[full] = theta_mass
    return out, disjoint


def alpha0(k: float) -> float:
    """Disjunctive weight of the symmetric adaptive rule: k / (1 - k + k²)."""
    return k / (1.0 - k + k * k)


def beta0(k: float) -> float:
    """Conjunctive weight of the symmetric adaptive rule: (1 - k) / (1 - k + k²)."""
    return (1.0 - k) / (1.0 - k + k * k)


def _acr_combine(
    m1: MassFunction, m2: MassFunction, mix: Callable[[float], tuple[float, float]]
) -> tuple[Table, Pairs]:
    """The mixture α·m∨ + β·m∧ with (α, β) = ``mix(k12)``."""
    meet, disjoint, join = _pair_pass(m1, m2, union=True)
    alpha, beta = mix(_sorted_k12(disjoint))
    out = {z: beta * v for z, v in _nonzero(meet).items() if z}
    for z, v in join.items():
        out[z] = out.get(z, 0.0) + alpha * v
    return out, disjoint


@_rule
def acr_generic(
    m1: MassFunction, m2: MassFunction, beta: Callable[[float], float]
) -> tuple[Table, Pairs]:
    """Adaptive mixture α·m∨ + β·m∧ for a caller-supplied decreasing weight
    β with β(0)=1 and β(1)=0; α follows from the normalization constraint
    α(k) = 1 - (1-k)·β(k)."""
    # Written as "within tolerance", so that a NaN endpoint fails.
    if not all(e <= TOTAL_CONFLICT_TOL for e in (abs(beta(0.0) - 1.0), abs(beta(1.0)))):
        raise InvalidBetaError("beta must satisfy beta(0)=1 and beta(1)=0")

    def mix(k12: float) -> tuple[float, float]:
        b = beta(k12)
        if not 0.0 <= b <= 1.0:
            raise InvalidBetaError(f"beta({k12!r}) = {b!r} is outside [0, 1]")
        return 1.0 - (1.0 - k12) * b, b

    return _acr_combine(m1, m2, mix)


@_rule
def sacr(m1: MassFunction, m2: MassFunction) -> tuple[Table, Pairs]:
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
    meet, disjoint, join = _pair_pass(m1, m2, union=True)
    k12 = _sorted_k12(disjoint)
    if k12 == 0.0:
        raise DegenerateError("weights are undefined at zero conflict")
    b = beta(k12)
    conj, disj, width = _nonzero(meet), _nonzero(join), m1.frame.size
    return {
        FocalSet(z, width): (1.0 - b) / k12 * (disj.get(z, 0.0) - conj.get(z, 0.0))
        + b * disj.get(z, 0.0)
        for z in conj.keys() | disj.keys() if z
    }


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


@_rule
def pcr(m1: MassFunction, m2: MassFunction) -> tuple[Table, Pairs]:
    """Proportional conflict redistribution: conjunctive masses plus every
    partial conflicting product returned to the two sets that generated it,
    proportionally to their individual masses."""
    _, out, disjoint = _split(m1, m2)
    for x, y, _, to_x, to_y in _shares(disjoint):
        if to_x:
            out[x] = out.get(x, 0.0) + to_x
        if to_y:
            out[y] = out.get(y, 0.0) + to_y
    return out, disjoint


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

# Resolved once, so the fold's steps bypass RULES (which tracing tools wrap).
_POLICIES = {name: rule.__wrapped__ for name, rule in RULES.items() if name != "smets"}


def _step(rule: str, m1: MassFunction, m2: MassFunction) -> tuple[MassFunction, float]:
    """One fusion under ``RULES[rule]`` and its k12 from the same pair pass, summed
    over the disjoint pairs sorted (as ``conflict`` sums) after the policy walked them."""
    out, disjoint = _POLICIES[rule](m1, m2)
    return _mass(m1.frame, out), _sorted_k12(disjoint)
