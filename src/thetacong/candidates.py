"""Theta-congruent candidate generation from coprime pairs (p, q).

n = squarefree part of p*q*(p+q)*(2rq + p(r-s)) is always a theta-congruent
number, so its curve has a non-2-torsion rational point; the search pipeline
grids over (p, q) and keeps n with many odd prime factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arith import factorize, squarefree_part
from .curves import PointQ, ThetaParams

_YOSHIDA_RESIDUES = {
    "pi/3": frozenset({6, 10, 11, 13, 17, 18, 21, 22, 23}),
    "2pi/3": frozenset({5, 9, 10, 15, 17, 19, 21, 22, 23}),
}


@dataclass(slots=True)
class CandidateRecord:
    """A searched n with provenance and whatever diagnostics have been filled in."""

    n: int
    theta: ThetaParams
    provenance: list[tuple[int, int]] = field(default_factory=list)
    omega_odd: int = 0
    nagao_values: dict[int, float] = field(default_factory=dict)
    selmer: int | None = None
    rank_lb: int | None = None
    points: list[PointQ] = field(default_factory=list)


def kan_number(p: int, q: int, theta: ThetaParams) -> int:
    """Squarefree part of p*q*(p+q)*(2rq + p(r-s)); a theta-congruent number."""
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    if math.gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    r, s = theta.r, theta.s
    return squarefree_part(p * q * (p + q) * (2 * r * q + p * (r - s)))


def omega_odd(n: int) -> int:
    """Number of distinct odd prime factors of n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 0
    return sum(1 for pr in factorize(n).primes() if pr != 2)


def yoshida_class(n: int, theta: ThetaParams) -> bool:
    """Yoshida's conjectured mod-24 residue classes (diagnostic filter only)."""
    if theta.name not in _YOSHIDA_RESIDUES:
        raise ValueError(f"no residue classes known for theta {theta!r}")
    return n % 24 in _YOSHIDA_RESIDUES[theta.name]


def generate_candidates(
    pmax: int,
    qmax: int,
    theta: ThetaParams,
    min_omega: int = 0,
    pmin: int = 1,
    qmin: int = 1,
) -> list[CandidateRecord]:
    """One record per distinct n from the coprime (p, q) grid, sorted by n.

    Provenance pairs for equal n are merged; records with fewer than
    min_omega odd prime factors are dropped.
    """
    if pmax < 1 or qmax < 1:
        raise ValueError("grid bounds must be >= 1")
    by_n: dict[int, list[tuple[int, int]]] = {}
    for p in range(pmin, pmax + 1):
        for q in range(qmin, qmax + 1):
            if math.gcd(p, q) != 1:
                continue
            n = kan_number(p, q, theta)
            by_n.setdefault(n, []).append((p, q))
    records = []
    for n in sorted(by_n):
        w = omega_odd(n)
        if w < min_omega:
            continue
        records.append(CandidateRecord(n=n, theta=theta, provenance=by_n[n], omega_odd=w))
    return records
