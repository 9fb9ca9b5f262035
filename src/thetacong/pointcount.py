"""Point counts N_p and Frobenius traces a_p over F_p via quadratic characters.

N_p = 1 + sum_x (1 + chi_p(x^3 + a2 x^2 + a4 x)) with chi_p(0) = 0, so
a_p = -sum_x chi_p(f(x)).  The table-driven numpy path handles the sieve's
p < 1e5 range quickly; a plain-Python path backs very small p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import legendre
from .curves import CurveQ, has_good_reduction


@dataclass(frozen=True)
class LocalCount:
    p: int
    Np: int
    ap: int


def count_points(E: CurveQ, p: int) -> LocalCount:
    """Order of E(F_p) (with infinity) and a_p = p + 1 - N_p.

    Requires an odd prime of good reduction.
    """
    if p == 2 or not has_good_reduction(E, p):
        raise ValueError(f"p = {p} is not an odd good-reduction prime for {E.label()}")
    if p < 64:
        s = _char_sum_small(E.a2 % p, E.a4 % p, p)
    else:
        s = _char_sum_table(E.a2 % p, E.a4 % p, p)
    Np = p + 1 + s
    return LocalCount(p, Np, -s)


def _char_sum_small(a2: int, a4: int, p: int) -> int:
    total = 0
    for x in range(p):
        total += legendre(x * ((x * x + a2 * x + a4) % p), p)
    return total


_chi_cache: dict[int, np.ndarray] = {}


def _chi_table(p: int) -> np.ndarray:
    chi = _chi_cache.get(p)
    if chi is None:
        chi = np.full(p, -1, dtype=np.int8)
        sq = np.arange(p, dtype=np.int64)
        chi[(sq * sq) % p] = 1
        chi[0] = 0
        if len(_chi_cache) > 64:
            _chi_cache.clear()
        _chi_cache[p] = chi
    return chi


def _char_sum_table(a2: int, a4: int, p: int) -> int:
    chi = _chi_table(p)
    x = np.arange(p, dtype=np.int64)
    f = (x * ((x * x + a2 * x + a4) % p)) % p
    return int(chi[f].sum(dtype=np.int64))


def hasse_bound_ok(lc: LocalCount) -> bool:
    return lc.ap * lc.ap <= 4 * lc.p
