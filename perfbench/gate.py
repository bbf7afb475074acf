"""
Correctness gate and output digests.

An operation fails when it raises, when a CLI process exits non-zero, when a
scenario sets ``failed_at``, when an emitted bba has a non-finite or negative
mass or a sum off 1 by more than ``SUM_TOL``, or when a BetP value lies
outside [0, 1] or BetP does not sum to 1 within ``SUM_TOL``. Finiteness is
checked here directly because ``belieffusion.validate`` accepts NaN.

The reference pair pass is a plain double loop over ``(int bits, mass)``
pairs, independent of the library's ``FocalSet`` arithmetic.
"""

from __future__ import annotations

import hashlib
import math

from belieffusion.core import SUM_TOL

# Tolerance of the reference comparison: the library and the double loop sum
# the same products, possibly in another order.
REFERENCE_TOL = 1e-12


def bba_problems(m) -> list[str]:
    out = []
    total = 0.0
    for fs, v in m.entries.items():
        if not math.isfinite(v):
            out.append(f"non-finite mass {v!r}")
        elif v < 0.0:
            out.append(f"negative mass {v!r}")
        if fs.bits == 0 and not m.open_world:
            out.append("closed-world bba carries mass on the empty set")
        total += v
    if not math.isfinite(total) or abs(total - 1.0) > SUM_TOL:
        out.append(f"masses sum to {total!r}")
    return out


def betp_problems(probs) -> list[str]:
    out = []
    for v in probs:
        if not math.isfinite(v) or v < -SUM_TOL or v > 1.0 + SUM_TOL:
            out.append(f"BetP value {v!r} outside [0, 1]")
            break
    total = math.fsum(probs)
    if not math.isfinite(total) or abs(total - 1.0) > SUM_TOL:
        out.append(f"BetP sums to {total!r}")
    return out


def reference_pair_pass(m1, m2) -> tuple[dict[int, float], dict[int, float], float]:
    """Conjunctive table, disjunctive table and k12 by a plain double loop."""
    a = [(fs.bits, v) for fs, v in m1.entries.items()]
    b = [(fs.bits, v) for fs, v in m2.entries.items()]
    conj: dict[int, float] = {}
    disj: dict[int, float] = {}
    k12 = 0.0
    for x, u in a:
        for y, w in b:
            p = u * w
            conj[x & y] = conj.get(x & y, 0.0) + p
            disj[x | y] = disj.get(x | y, 0.0) + p
            if not x & y:
                k12 += p
    return conj, disj, k12


def table_mismatch(lib, ref: dict[int, float]) -> str | None:
    got = {fs.bits: v for fs, v in lib.entries.items()}
    want = {k: v for k, v in ref.items() if v != 0.0}
    if got.keys() != want.keys():
        return f"focal sets differ ({len(got)} vs {len(want)})"
    for k, v in want.items():
        if abs(got[k] - v) > REFERENCE_TOL:
            return f"mass {got[k]!r} vs reference {v!r}"
    return None


def canonical_bba(m) -> bytes:
    """Sorted bits with ``repr`` masses, one ``bits:mass`` per line."""
    lines = [f"{fs.bits:x}:{v!r}" for fs, v in sorted(m.entries.items(), key=lambda kv: kv[0].bits)]
    return ("\n".join(lines) + "\n").encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())
