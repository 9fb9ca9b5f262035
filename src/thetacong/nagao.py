"""Mestre-Nagao sums S(N, E) and the staged threshold filter.

S(N, E) = sum over primes p < N of (2 - a_p)/N_p * log p, equal to the
(1 - (p-1)/N_p) log p form since N_p = p + 1 - a_p.  Primes dividing the
discriminant are skipped (the heuristic's signal comes from good primes),
and terms are accumulated in increasing-p order for determinism.

Every a_p comes from one table, by quadratic twist, with no point counting:

- x = X - 1 takes E_{1,pi/3}: y^2 = x^3 + 2x^2 - 3x = x(x - 1)(x + 3) to
  24a1: y^2 = X^3 - X^2 - 4X + 4 = (X - 1)(X - 2)(X + 2).
- E_{1,2pi/3}: y^2 = x^3 - 2x^2 - 3x is the twist of E_{1,pi/3} by -1
  (x -> -x), and (X, Y) = (n x, n^2 y) takes the twist n y^2 = x^3 + a2 x^2
  + a4 x of E_{1,theta} by n to E_{n,theta}.  With cos(theta) = s/2,
  s = +-1, E_{n,theta} is therefore the twist of 24a1 by s*n, and for every
  prime p not dividing 6n, a_p(E_{n,theta}) = (s n / p) a_p(24a1).
  Those are exactly the good primes: E.bad_primes = {2, 3} u supp(n).
- 24a1 is modular of conductor 24, and X_0(24) has genus 1 while every
  X_0(M) with M | 24, M < 24 has genus 0, so dim S_2(Gamma_0(24)) =
  dim S_2^new(Gamma_0(24)) = 1.  The space is spanned by the eta product
  f = eta(2t) eta(4t) eta(6t) eta(12t) = sum c(m) q^m, so a_p(24a1) = c(p).
- f = q g(q^2) with g(x) = P(x) P(x^2) P(x^3) P(x^6), where Euler's
  pentagonal series P(x) = prod_{m>=1} (1 - x^m) = sum_k (-1)^k
  x^{k(3k-1)/2} (k in Z) has at most 2 sqrt(2M/3) + 2 terms below x^M.
- No int64 overflow: a coefficient of a partial product of the four series
  is at most the number of ways to pick one term from each, below
  (2 sqrt(2M/3) + 2)^4 < 2e12 for M = MAX_BOUND/2.  At primes |c(p)| <=
  2 sqrt(p) (Hasse), and each term is then computed on Python integers.

The table is built lazily, to the largest bound asked for so far, and never
at import.  It holds only the constants c(p), so sharing it across callers
changes no result.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .arith import legendre, primes_below
from .curves import CurveQ

DEFAULT_STAGES = ((1_000, 15.0), (10_000, 20.0), (100_000, 40.0))

# The largest prime bound served: the table to 1e6 takes about 0.9 s and
# 13 MB to build (2-core Xeon VM, numpy 2.4).
MAX_BOUND = 10**6


def _check_ceiling(N: int) -> None:
    if N > MAX_BOUND:
        raise ValueError(f"prime bound {N} exceeds the ceiling {MAX_BOUND}")


@dataclass(frozen=True)
class SieveConfig:
    """Staged (prime bound, threshold) pairs, bounds strictly increasing."""

    stages: tuple[tuple[int, float], ...] = DEFAULT_STAGES

    def __post_init__(self):
        bounds = [N for N, _ in self.stages]
        if bounds != sorted(set(bounds)):
            raise ValueError("stage bounds must be strictly increasing")
        for N in bounds:
            _check_ceiling(N)
        if any(math.isnan(thr) for _, thr in self.stages):
            raise ValueError("a stage threshold is NaN, which no sum exceeds")


def _euler_product(series: np.ndarray, step: int) -> np.ndarray:
    """series * prod_{m>=1} (1 - x^{step m}), truncated to len(series)."""
    M = len(series)
    out = series.copy()
    k = 1
    while step * k * (3 * k - 1) // 2 < M:
        for e in (step * k * (3 * k - 1) // 2, step * k * (3 * k + 1) // 2):
            if e < M:
                if k % 2:
                    out[e:] -= series[: M - e]
                else:
                    out[e:] += series[: M - e]
        k += 1
    return out


# (bound, primes 5 <= p < bound, c(p) at those primes); 2 and 3 are bad
# primes of every curve of the family.
_table: tuple[int, list[int], list[int]] = (0, [], [])


def _newform_table(N: int) -> tuple[list[int], list[int]]:
    """The primes 5 <= p < N and the coefficients c(p) of f at them."""
    global _table
    if N > _table[0]:
        g = np.zeros(N // 2 + 1, dtype=np.int64)
        g[0] = 1
        for step in (6, 3, 2, 1):
            g = _euler_product(g, step)
        primes = primes_below(N)[2:]
        # c(p) is the coefficient of x^((p-1)/2) in g
        _table = (N, primes, g[(np.array(primes, dtype=np.int64) - 1) // 2].tolist())
    _, primes, coeffs = _table
    k = bisect_left(primes, N)
    return primes[:k], coeffs[:k]


def _twist(E: CurveQ) -> int:
    """s*n, the twist that takes 24a1 to E (see the module docstring)."""
    r, s = E.theta.r, E.theta.s
    if (r, s) not in ((2, 1), (2, -1)):
        raise ValueError(f"Nagao sums need theta pi/3 or 2pi/3, not theta {E.theta.name!r} "
                         f"with (r, s) = ({r}, {s})")
    return s * E.n


def _good_traces(E: CurveQ, lo: int, N: int):
    """(p, a_p) for the good primes lo <= p < N, increasing."""
    d = _twist(E)
    primes, coeffs = _newform_table(N)
    k = bisect_left(primes, lo)
    for p, c in zip(primes[k:], coeffs[k:]):
        chi = legendre(d, p)
        if chi:
            yield p, chi * c


def _stage_sums(E: CurveQ, bounds):
    """S(N, E) for each of the increasing bounds N, lazily, from one running
    sum; S(N, E) is the same float whichever bounds lead up to N."""
    total = 0.0
    lo = 0
    for N in bounds:
        for p, a in _good_traces(E, lo, N):
            total += (2 - a) / (p + 1 - a) * math.log(p)
        lo = N
        yield total


def nagao_sum(E: CurveQ, N: int) -> float:
    """S(N, E) over good-reduction primes p < N."""
    if N < 2:
        raise ValueError("N must be >= 2")
    _check_ceiling(N)
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
    _check_ceiling(N)
    total = 0.0
    for p, a in _good_traces(E, 0, N):
        total += (1 - (p - 1) / (p + 1 - a)) * math.log(p)
    return total
