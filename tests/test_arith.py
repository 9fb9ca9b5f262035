"""Integer utility tests: factorization, squarefree machinery, sieves,
modular square roots."""

import math
import random

import pytest

from thetacong import arith
from thetacong.arith import (
    Factorization,
    _perfect_power,
    factorize,
    is_prime,
    is_square,
    is_squarefree,
    legendre,
    primes_below,
    sqrt_mod,
    squarefree_count,
    squarefree_flags,
    squarefree_part,
    valuation,
)


def test_factorize_small():
    assert factorize(54) == Factorization(1, ((2, 1), (3, 3)))
    assert factorize(-722) == Factorization(-1, ((2, 1), (19, 2)))
    assert factorize(1) == Factorization(1, ())
    assert factorize(-1) == Factorization(-1, ())


def test_factorize_rank7_n():
    f = factorize(365803464586)
    assert f.value() == 365803464586
    assert all(is_prime(p) for p in f.primes())
    assert all(e >= 1 for _, e in f.factors)
    assert f.primes() == sorted(f.primes())


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_roundtrip_random():
    rng = random.Random(20260825)
    for _ in range(2000):
        m = rng.randrange(-10**9, 10**9)
        if m == 0:
            continue
        f = factorize(m)
        assert f.value() == m
        assert all(is_prime(p) for p in f.primes())


def test_factorize_large_semiprime():
    p, q = 1_000_003, 999_999_937
    f = factorize(p * q)
    assert f == Factorization(1, ((p, 1), (q, 1)))
    # psi_12 passes Miller-Rabin for the bases up to 37
    p, q = 399165290221, 798330580441
    assert factorize(p * q) == Factorization(1, ((p, 1), (q, 1)))


def test_squarefree_part_examples():
    assert squarefree_part(54) == 6
    assert squarefree_part(-1368) == -38
    assert squarefree_part(1) == 1
    assert squarefree_part(-1) == -1


def test_squarefree_part_square_multiples():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(-10**6, 10**6)
        if m == 0:
            continue
        d = squarefree_part(m)
        for k in range(1, 21):
            assert squarefree_part(m * k * k) == d


def test_squarefree_part_rejects_zero():
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_squarefree_flags_counts():
    flags = squarefree_flags(10)
    assert [n for n in range(1, 11) if flags[n]] == [1, 2, 3, 5, 6, 7, 10]
    assert squarefree_count(10) == 7
    assert squarefree_count(1) == 1


def test_squarefree_flags_match_factorization():
    flags = squarefree_flags(500)
    for n in range(1, 501):
        assert bool(flags[n]) == is_squarefree(n)


def test_primes_below():
    assert primes_below(10) == [2, 3, 5, 7]
    assert primes_below(3) == [2]
    assert primes_below(2) == []
    assert len(primes_below(10**5)) == 9592


def test_primes_below_cross_check():
    ps = primes_below(2000)
    assert ps == [n for n in range(2, 2000) if is_prime(n)]


def test_sqrt_mod_examples():
    assert sqrt_mod(4, 7) in (2, 5)
    assert sqrt_mod(3, 5) is None
    assert sqrt_mod(2, 7) in (3, 4)
    assert sqrt_mod(0, 13) == 0


def test_sqrt_mod_euler_criterion():
    def check(a, p):
        r = sqrt_mod(a, p)
        euler = a % p == 0 or pow(a, (p - 1) // 2, p) == 1
        assert (r is not None) == euler, (a, p)
        if r is not None:
            assert 0 <= r < p and r * r % p == a % p, (a, p)

    for p in primes_below(100):
        if p == 2:
            continue
        for a in range(p):
            check(a, p)
    # 2^12 .. 2^20 divides p - 1, so Tonelli-Shanks runs its long loop
    rng = random.Random(12289)
    for p in (12289, 40961, 65537, 114689, 7340033):
        assert is_prime(p)
        for _ in range(200):
            check(rng.randrange(-p, 2 * p), p)


def test_legendre_matches_euler():
    for p in (3, 5, 7, 11, 97, 101):
        for a in range(-p, p):
            sym = legendre(a, p)
            if a % p == 0:
                assert sym == 0
            else:
                assert sym == (1 if pow(a % p, (p - 1) // 2, p) == 1 else -1)


def test_is_square():
    squares = {k * k for k in range(100)}
    for n in range(-5, 10**4):
        assert is_square(n) == (n in squares)


def test_valuation():
    assert valuation(24, 2) == 3
    assert valuation(24, 3) == 1
    assert valuation(-9, 3) == 2
    assert valuation(7, 5) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_is_prime_edges():
    assert not is_prime(-7)
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    # Carmichael numbers and strong-pseudoprime bait
    assert not is_prime(561)
    assert not is_prime(3215031751)
    assert is_prime(2**61 - 1)
    assert is_prime(41) and is_prime(43)
    # psi_12, a strong pseudoprime to every prime base up to 37
    assert not is_prime(318665857834031151167461)


PSI_13 = 3317044064679887385961981


def test_is_prime_past_psi_13():
    # psi_13 is a strong pseudoprime to every prime base up to 41; the Lucas
    # test shows it composite, and factorize splits it
    assert not is_prime(PSI_13)
    assert factorize(PSI_13) == Factorization(1, ((1287836182261, 1), (2575672364521, 1)))
    for e in (89, 107, 127):
        assert is_prime(2**e - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))


def test_is_prime_below_psi_13_is_miller_rabin_alone(monkeypatch):
    def refuse(n):
        raise AssertionError(f"Lucas test run on {n}")

    monkeypatch.setattr(arith, "_lucas", refuse)
    found = [n for n in range(PSI_13 - 300, PSI_13) if is_prime(n)]
    assert found and all(n % 2 for n in found)
    with pytest.raises(AssertionError, match="Lucas"):
        is_prime(2**89 - 1)


def test_is_prime_raises_when_no_lucas_base_decides(monkeypatch):
    # 2 has order 89 mod 2^89 - 1, so base 2 alone decides nothing
    monkeypatch.setattr(arith, "_LUCAS_BOUND", 3)
    with pytest.raises(RuntimeError, match="no base"):
        is_prime(2**89 - 1)


def test_perfect_power_past_float_range():
    # 3^700 is far above the largest double
    assert _perfect_power(3**700) == (3**350, 2)
    assert _perfect_power(7**301) == (7**43, 7)
    assert _perfect_power(3**700 + 1) is None


def test_perfect_power_large_bases():
    # bases above 2^53 have no exact float root; every power must still be seen
    rng = random.Random(90)
    for _ in range(200):
        b = rng.getrandbits(90) | (1 << 89)
        for k in (2, 3, 5):
            r, e = _perfect_power(b**k)
            assert r**e == b**k and e <= k
        assert _perfect_power(b * b + 1) is None


def test_perfect_power_small_cases():
    for n in range(2, 3000):
        expected = next(((b, k) for k in range(2, 12) for b in range(2, 60) if b**k == n), None)
        assert _perfect_power(n) == expected


def test_factorize_square_of_large_prime():
    # the cofactor after trial division is a perfect square of a prime > 2^53
    p = 2**89 - 1
    assert factorize(p * p) == Factorization(1, ((p, 2),))
    assert factorize(-3 * p**3) == Factorization(-1, ((3, 1), (p, 3)))
