"""
Two-source combination rules: Dempster, Smets, Yager, Dubois & Prade (and
its static alias dsmh), Inagaki's weighted family with its extremal member,
the adaptive conjunctive/disjunctive mixture (generic and symmetric), and
proportional conflict redistribution.

Every rule consumes two validated closed-world mass functions on a shared
frame and is a pure function of its inputs. Each one is a short policy over
a single call of the core pair pass: it reads the ∩-table of the non-empty
sets, the disjoint pairs, the one record of the conflict, and, for the adaptive
mixture, the ∪-table, decides where the conflicting mass goes, and returns the
output table and the disjoint pairs. A rule that moves k12 whole, and ``_step``
(one step of ``scenario.fold``), read it from the pairs' ``k12``, which ``core``
sums once, in the order ``conflict`` reports them in. The adaptive mixture makes
a large step on a frame of at most 64 atoms as the same pass over numpy arrays
(``_acr_arrays``), with the same bits.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator, Mapping
from functools import update_wrapper

from .core import FocalSet, MassFunction, Pairs, Table, conjunctive, validate
from .core import _Packed, _arrays, _check_pair, _mass, _nonzero, _pair_pass, _sum_in_order
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


class DegenerateError(ArithmeticError):
    """The rule cannot fuse: its redistribution target is empty or its formula undefined."""


class TotalConflictError(DegenerateError):
    """Dempster's rule was applied at k12 = 1, where it cannot be used."""


class InvalidBetaError(ValueError):
    """A supplied mixture weighting violates its endpoint contract."""


Policy = tuple[Table, Pairs]


class _rule:
    """The public rule of a policy: its output table as a mass function."""

    def __init__(self, policy: Callable[..., Policy]) -> None:
        update_wrapper(self, policy)

    def __call__(self, m1: MassFunction, m2: MassFunction, *args) -> MassFunction:
        return _mass(m1.frame, self.__wrapped__(m1, m2, *args)[0])

    def __reduce__(self) -> str:
        return self.__qualname__  # pickled by name, as a function is

    @property
    def __signature__(self):  # built on request: importing inspect would cost every command
        from inspect import signature

        return signature(self.__wrapped__).replace(return_annotation="MassFunction")


@_rule
def dempster(m1: MassFunction, m2: MassFunction) -> Policy:
    """Normalized conjunctive rule: divide each non-empty conjunctive mass by
    their sum (1 - k12, free of input drift). Raises TotalConflictError at k12 = 1."""
    out, disjoint, _ = _pair_pass(m1, m2)
    norm = _sum_in_order(out.values())
    if norm <= TOTAL_CONFLICT_TOL:
        raise TotalConflictError(
            "total conflict between sources (k12=1); Dempster's rule cannot be used"
        )
    return {z: v / norm for z, v in out.items()}, disjoint


# Smets' unnormalized rule is the conjunctive operator: the conflict stays on ∅.
smets = conjunctive


@_rule
def yager(m1: MassFunction, m2: MassFunction) -> Policy:
    """Conjunctive rule with the conflict transferred to total ignorance."""
    out, disjoint, _ = _pair_pass(m1, m2)
    full = (1 << m1.frame.size) - 1
    out[full] = out.get(full, 0.0) + disjoint.k12
    return out, disjoint


@_rule
def dubois_prade(m1: MassFunction, m2: MassFunction) -> Policy:
    """Conjunctive masses plus each disjoint pair's product moved to X∪Y."""
    out, disjoint, _ = _pair_pass(m1, m2)
    for x, y, a, b in disjoint:
        u = x | y
        out[u] = out.get(u, 0.0) + a * b
    return out, disjoint


# Static two-source DSmH on an exclusive frame coincides with Dubois & Prade's rule.
dsmh = dubois_prade


@_rule
def inagaki_generic(
    m1: MassFunction, m2: MassFunction, weights: Mapping[FocalSet, float]
) -> Policy:
    """Inagaki's weighted redistribution: each non-empty A receives
    m∧(A) + w(A)·k12 for a caller-chosen unit-sum weight assignment, which
    is checked as a closed-world bba on the inputs' frame."""
    w = MassFunction(m1.frame, weights)
    report = validate(w)
    if not report.ok:
        raise ValueError("weights: " + "; ".join(report.violations))
    out, disjoint, _ = _pair_pass(m1, m2)
    k12 = disjoint.k12
    for z, v in w._table.items():
        out[z] = out.get(z, 0.0) + v * k12
    return out, disjoint


@_rule
def inagaki_extreme(m1: MassFunction, m2: MassFunction) -> Policy:
    """The extremal member of Inagaki's family: the conflict is distributed
    so that ratios between the masses of any two sets other than the frame
    are preserved. Θ keeps its conjunctive mass."""
    out, disjoint, _ = _pair_pass(m1, m2)
    k12 = disjoint.k12
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


# The |Σ−1| above which ``_acr_combine`` divides by Σ. The mixture scales its inputs'
# drift by α + β ≥ 1, so drift compounds over a stream; set below SUM_TOL, this stops
# it well short of SUM_TOL, and above a normal step's residual, so that step keeps its bits.
_ACR_DRIFT_TOL = 1e-12


# The fewest focal pairs, |m1| × |m2|, for which ``_acr_combine`` groups its sums in
# numpy, on a frame of at most 64 atoms. Both forms were timed per call (best of 5) on
# the sacr steps of wide-union seeds 0-29: the median dict/array time ratio is 0.98 at
# 200-299 pairs, 1.23 at 300-399 and 1.74 at 700-799. Every sweep-desk step is far below it.
_ACR_ARRAY_PAIRS = 300


def _acr_combine(
    m1: MassFunction, m2: MassFunction, mix: Callable[[float], tuple[float, float]]
) -> Policy:
    """The mixture α·m∨ + β·m∧ with (α, β) = ``mix(k12)``, divided by its left-to-right
    sum, as ``dempster`` does, when that sum is over ``_ACR_DRIFT_TOL`` from 1.

    From ``_ACR_ARRAY_PAIRS`` pairs on, on a frame of at most 64 atoms, the step is
    ``_acr_arrays``, which gives the same table, in the same order, and the same pairs,
    with the same bits; otherwise one dict pass makes it. Either way the step makes one
    pass, and its k12 is the pairs' ``k12``."""
    if m1.frame.size <= 64 and len(m1._table) * len(m2._table) >= _ACR_ARRAY_PAIRS:
        return _acr_arrays(m1, m2, mix)
    meet, disjoint, join = _pair_pass(m1, m2, union=True)
    alpha, beta = mix(disjoint.k12)
    out = {z: beta * v for z, v in meet.items()}
    for z, v in join.items():
        out[z] = out.get(z, 0.0) + alpha * v
    norm = _sum_in_order(out.values())
    if abs(norm - 1.0) > _ACR_DRIFT_TOL:
        out = {z: v / norm for z, v in out.items()}
    return out, disjoint


def _acr_arrays(
    m1: MassFunction, m2: MassFunction, mix: Callable[[float], tuple[float, float]]
) -> Policy:
    """``_acr_combine``'s step from the inputs' ``_arrays``, one ``uint64`` mask per set, as a
    ``_Packed`` table, which keeps a 0.0 where the dict pass's table does.

    The |m1| × |m2| products, ∩ and ∪ masks lie in the pass's visit order (row x of m1,
    column y of m2). One ``argsort`` (``perm``) of the non-empty ∩ masks followed by the
    ∪ masks groups both. The default sort is not stable, so a group's indices in ``perm``
    come in no set order, but the masks lie in visit order, so the least of them is the
    group's first visit. It orders the keys as the dict pass inserts them: the ∩-table's
    keys by first meeting, then the ∪-only keys by first joining. ``np.bincount`` adds
    each key's products in visit order, from 0.0, as the dict pass does. Each key takes
    β·∩ and then adds α·∪ only where the pass has a ∪ term, so a nan α reaches no set
    that only meets, and ``np.cumsum`` adds the output left to right, as
    ``_sum_in_order`` does. Each grouping array is deleted once it is spent, so that the
    step holds little beyond its result while ``_Packed`` builds the table."""
    import numpy as np

    _check_pair(m1, m2)
    (x, a), (y, b) = _arrays(m1._table), _arrays(m2._table)
    products = np.multiply.outer(a, b).ravel()
    meets = np.bitwise_and.outer(x, y).ravel()
    hit = meets != 0
    i, j = np.divmod(np.flatnonzero(~hit), len(y))
    disjoint = Pairs(zip(x[i].tolist(), y[j].tolist(), a[i].tolist(), b[j].tolist()))
    n = int(hit.sum())
    masks = np.concatenate([meets[hit], np.bitwise_or.outer(x, y).ravel()])
    del i, j, x, y, a, b, meets
    perm = np.argsort(masks)
    masks = masks[perm]
    start = np.empty(len(masks), bool)
    start[0] = True
    np.not_equal(masks[1:], masks[:-1], out=start[1:])
    starts = np.flatnonzero(start)
    keys, first = masks[starts], np.minimum.reduceat(perm, starts)
    inverse = np.empty_like(perm)
    inverse[perm] = np.cumsum(start) - 1
    del masks, perm, start, starts
    size = len(keys)
    meet = np.bincount(inverse[:n], products[hit], size)
    join = np.bincount(inverse[n:], products, size)
    in_join = np.zeros(size, bool)
    in_join[inverse[n:]] = True
    del products, hit, inverse
    alpha, beta = mix(disjoint.k12)
    # A set that only joins gets β·0.0 = 0.0 first, as from ``out.get``: β ≥ 0 on
    # closed-world inputs, and a nan β comes with a nan α.
    out = beta * meet
    out[in_join] += alpha * join[in_join]
    order = np.argsort(first)
    keys, out = keys[order].astype("<u8", copy=False), out[order]
    del meet, join, in_join, first, order
    norm = float(np.cumsum(out)[-1])
    if abs(norm - 1.0) > _ACR_DRIFT_TOL:
        out /= norm
    return _Packed(keys, out), disjoint


@_rule
def acr_generic(
    m1: MassFunction, m2: MassFunction, beta: Callable[[float], float]
) -> Policy:
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
def sacr(m1: MassFunction, m2: MassFunction) -> Policy:
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
    k12 = disjoint.k12
    if k12 == 0.0:
        raise DegenerateError("weights are undefined at zero conflict")
    b = beta(k12)
    meet, disj, width = _nonzero(meet), _nonzero(join), m1.frame.size
    return {
        FocalSet(z, width): (1.0 - b) / k12 * (disj.get(z, 0.0) - meet.get(z, 0.0))
        + b * disj.get(z, 0.0)
        for z in meet.keys() | disj.keys()
    }


ConflictShare = namedtuple("ConflictShare", "x y product to_x to_y")
ConflictShare.__doc__ = """One directional redistribution term of the proportional rule.

The partial conflicting product m_i(x)·m_j(y) of the disjoint focal sets x and
y is returned to x and y in the ratio m_i(x) : m_j(y).
"""


def _shares(disjoint: Pairs) -> Iterator[tuple[int, int, float, float, float]]:
    """``(x, y, product, to_x, to_y)`` per disjoint pair, in ``(x, y)`` order, from a
    sorted copy; pairs whose masses sum to zero have no ratio and are skipped."""
    for x, y, a, b in sorted(disjoint):
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
def pcr(m1: MassFunction, m2: MassFunction) -> Policy:
    """Proportional conflict redistribution: conjunctive masses plus every
    partial conflicting product returned to the two sets that generated it,
    proportionally to their individual masses."""
    out, disjoint, _ = _pair_pass(m1, m2)
    for x, y, _, to_x, to_y in _shares(disjoint):
        out[x] = out.get(x, 0.0) + to_x
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
    """One fusion under ``RULES[rule]`` and its k12 from the same pair pass."""
    out, disjoint = _POLICIES[rule](m1, m2)
    return _mass(m1.frame, out), disjoint.k12
