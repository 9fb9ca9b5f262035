"""F_p point counting: character-sum path vs exhaustive enumeration, Hasse
bound, and the 4 | N_p torsion constraint."""

import math

import pytest

from thetacong.arith import primes_below
from thetacong.curves import PI_3, TWO_PI_3, build_curve, has_good_reduction
from thetacong.pointcount import LocalCount, count_points, hasse_bound_ok


def count_points_bruteforce(E, p):
    """Independent O(p^2) oracle: enumerate all (x, y) in F_p^2."""
    a2, a4 = E.a2 % p, E.a4 % p
    rhs = [(x * ((x * x + a2 * x + a4) % p)) % p for x in range(p)]
    count = 1
    for y in range(p):
        y2 = y * y % p
        for v in rhs:
            if v == y2:
                count += 1
    return LocalCount(p, count, p + 1 - count)


def trace_sweep(E, primes):
    """Counts for every odd good prime in the given list, in order."""
    return [count_points(E, p) for p in primes if p != 2 and has_good_reduction(E, p)]


def test_count_points_e6_at_5():
    E = build_curve(6, PI_3)
    lc = count_points(E, 5)
    assert lc == LocalCount(5, 8, -2)
    assert count_points_bruteforce(E, 5) == lc


def test_count_points_e1_at_7():
    E = build_curve(1, PI_3)
    lc = count_points(E, 7)
    assert lc == count_points_bruteforce(E, 7)
    assert lc.Np % 4 == 0
    assert lc.Np == 7 + 1 - lc.ap


def test_rejects_bad_primes():
    E = build_curve(6, PI_3)
    with pytest.raises(ValueError):
        count_points(E, 2)
    with pytest.raises(ValueError):
        count_points(E, 3)


def test_matches_bruteforce_small_primes():
    # every embedded verification curve, all good primes below 150
    from thetacong.dataset import PUBLISHED

    curves = [build_curve(e.n, e.theta) for e in PUBLISHED]
    curves += [build_curve(n, t) for n, t in ((6, PI_3), (39, PI_3), (5, TWO_PI_3), (14, TWO_PI_3))]
    for E in curves:
        for p in primes_below(150):
            if p == 2 or not has_good_reduction(E, p):
                continue
            assert count_points(E, p) == count_points_bruteforce(E, p)


def test_matches_bruteforce_medium_primes():
    # spot checks of the one numpy character-sum path, _char_sum, at
    # primes of a few hundred
    for n, theta in ((646, PI_3), (221, TWO_PI_3)):
        E = build_curve(n, theta)
        for p in (151, 251, 397, 499):
            if has_good_reduction(E, p):
                assert count_points(E, p) == count_points_bruteforce(E, p)


def test_hasse_and_mod4_sweep():
    primes = primes_below(2000)
    for n, theta in ((1, PI_3), (6, PI_3), (221, TWO_PI_3), (12710, TWO_PI_3)):
        E = build_curve(n, theta)
        for lc in trace_sweep(E, primes):
            assert hasse_bound_ok(lc)
            assert lc.ap * lc.ap <= 4 * lc.p
            assert lc.Np % 4 == 0
            assert lc.Np == lc.p + 1 - lc.ap


def test_small_and_table_paths_agree():
    # primes around 64, where two character-sum paths once met: the one
    # path that is left must still agree with brute force on both sides
    E = build_curve(39, PI_3)
    for p in (61, 67, 71):
        if has_good_reduction(E, p):
            assert count_points(E, p) == count_points_bruteforce(E, p)
