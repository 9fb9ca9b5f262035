"""Mestre-Nagao sums S(N, E) and the staged threshold filter.

S(N, E) = sum over primes p < N of (2 - a_p)/N_p * log p, equal to the
(1 - (p-1)/N_p) log p form since N_p = p + 1 - a_p.  Primes dividing the
discriminant are skipped (the heuristic's signal comes from good primes),
and terms are accumulated in increasing-p order for determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import primes_below
from .curves import CurveQ, has_good_reduction
from .pointcount import count_points

DEFAULT_STAGES = ((1_000, 15.0), (10_000, 20.0), (100_000, 40.0))


@dataclass(frozen=True)
class SieveConfig:
    """Staged (prime bound, threshold) pairs, bounds strictly increasing."""

    stages: tuple[tuple[int, float], ...] = DEFAULT_STAGES

    def __post_init__(self):
        bounds = [N for N, _ in self.stages]
        if bounds != sorted(set(bounds)):
            raise ValueError("stage bounds must be strictly increasing")


def _local_counts(E: CurveQ, lo: int, N: int):
    """count_points(E, p) for the good odd primes lo <= p < N, increasing."""
    for p in primes_below(N):
        if p >= lo and p != 2 and has_good_reduction(E, p):
            yield count_points(E, p)


def _stage_sums(E: CurveQ, bounds):
    """S(N, E) for each of the increasing bounds N, lazily, from one running
    sum; S(N, E) is the same float whichever bounds lead up to N."""
    total = 0.0
    lo = 0
    for N in bounds:
        for lc in _local_counts(E, lo, N):
            total += (2 - lc.ap) / lc.Np * math.log(lc.p)
        lo = N
        yield total


def nagao_sum(E: CurveQ, N: int) -> float:
    """S(N, E) over good-reduction primes p < N."""
    if N < 2:
        raise ValueError("N must be >= 2")
    return next(_stage_sums(E, (N,)))


def passes_filter(E: CurveQ, cfg: SieveConfig = SieveConfig()) -> tuple[bool, dict[int, float]]:
    """Evaluate stages lazily in increasing N; stop at the first failure.

    Returns (passed, {N: S(N,E) for each evaluated stage}).  Each stage
    continues the previous stage's sum, so the full pass costs one sweep to
    the largest bound.
    """
    values: dict[int, float] = {}
    sums = _stage_sums(E, [N for N, _ in cfg.stages])
    for (N, threshold), total in zip(cfg.stages, sums):
        values[N] = total
        if not total > threshold:
            return False, values
    return True, values


def nagao_sum_form1(E: CurveQ, N: int) -> float:
    """The (1 - (p-1)/N_p) log p form; agrees with nagao_sum analytically."""
    total = 0.0
    for lc in _local_counts(E, 0, N):
        total += (1 - (lc.p - 1) / lc.Np) * math.log(lc.p)
    return total
