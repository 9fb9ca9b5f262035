"""Point counts N_p and Frobenius traces a_p over F_p via quadratic characters.

N_p = 1 + sum_x (1 + chi_p(x^3 + a2 x^2 + a4 x)) with chi_p(0) = 0, so
a_p = -sum_x chi_p(f(x)).  One numpy path computes the sum for every p
from a table of chi_p, in O(p) time.

count_points is the oracle for the Mestre-Nagao sums: `nagao` reads a_p
from the level-24 newform table by quadratic twist and counts no points,
and the tests check that table against count_points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    s = _char_sum(E.a2 % p, E.a4 % p, p)
    Np = p + 1 + s
    return LocalCount(p, Np, -s)


# x runs in blocks so that every int64 temporary stays at 64 KiB.  Arrays
# of p int64 values (p near 1e5) would be mapped afresh on every call, and
# faulting in their pages costs more than the arithmetic on them.
_BLOCK = 8192


def _char_sum(a2: int, a4: int, p: int) -> int:
    """sum over x in F_p of chi_p(x^3 + a2 x^2 + a4 x), from a table of chi_p."""
    chi = np.full(p, -1, dtype=np.int8)
    for lo in range(0, p, _BLOCK):
        x = np.arange(lo, min(lo + _BLOCK, p), dtype=np.int64)
        chi[x * x % p] = 1
    chi[0] = 0
    total = 0
    for lo in range(0, p, _BLOCK):
        x = np.arange(lo, min(lo + _BLOCK, p), dtype=np.int64)
        total += int(chi[(x * x + a2 * x + a4) % p * x % p].sum(dtype=np.int64))
    return total
