"""Exact integer utilities: primality, factorization, squarefree parts, sieves,
and modular square roots.

Everything here is a pure function of its inputs and safe to call from
multiple threads or processes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

# The primes up to 41: trial divisors, then Miller-Rabin witnesses.  As
# witnesses they are deterministic for all n < psi_13 = 3317044064679887385961981
# (Sorenson & Webster); the first 12 alone fail at psi_12 ~ 3.2e23, and all 13
# at psi_13 itself.  A witness must be trial-divided first, or witness 41
# would misjudge n = 41.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981
# bases a < _LUCAS_BOUND tried by the Lucas test at or above _PSI_13
_LUCAS_BOUND = 1000

_TRIAL_BOUND = 50_000
_small_primes: list[int] | None = None


def is_prime(n: int) -> bool:
    """Deterministic primality: Miller-Rabin on the primes up to 41, which
    decides every n < psi_13; at or above psi_13 a Lucas test decides the
    numbers that pass it."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _lucas(n)


def _lucas(n: int) -> bool:
    """Lucas's test for odd n > 2: n is prime iff some a has order n - 1 mod
    n, i.e. a^(n-1) = 1 and a^((n-1)/q) != 1 for each prime q | n - 1, and
    a^(n-1) != 1 shows n composite.  The primes of n - 1 come from
    factorize, whose own primality calls are decided the same way.
    RuntimeError when no a < _LUCAS_BOUND decides n."""
    m = n - 1
    cofactors = [m // q for q in factorize(m).primes()]
    for a in range(2, _LUCAS_BOUND):
        if pow(a, m, n) != 1:
            return False
        if all(pow(a, c, n) != 1 for c in cofactors):
            return True
    raise RuntimeError(f"no base a < {_LUCAS_BOUND} decides whether {n} is prime")


def primes_below(N: int) -> list[int]:
    """All primes p < N, ascending."""
    if N <= 2:
        return []
    sieve = np.ones(N, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(N - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def squarefree_flags(N: int) -> np.ndarray:
    """Boolean array of length N+1 with flags[n] true iff n is squarefree.

    Index 0 is false.  Handles N = 5e6 in well under a second.
    """
    if N < 1:
        raise ValueError("N must be positive")
    flags = np.ones(N + 1, dtype=bool)
    flags[0] = False
    for p in range(2, math.isqrt(N) + 1):
        p2 = p * p
        flags[p2::p2] = False
    return flags


def squarefree_count(N: int) -> int:
    """Number of squarefree integers in 1..N."""
    return int(squarefree_flags(N).sum())


@dataclass(frozen=True)
class Factorization:
    """Signed factorization: sign * prod(p^e) with strictly increasing primes."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]

    def squarefree_part(self) -> int:
        d = self.sign
        for p, e in self.factors:
            if e % 2:
                d *= p
        return d

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def _small_prime_list() -> list[int]:
    global _small_primes
    if _small_primes is None:
        _small_primes = primes_below(_TRIAL_BOUND)
    return _small_primes


def _brent_rho(n: int, rng: random.Random) -> int:
    """Find a nontrivial factor of composite odd n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int] | None:
    """Return (b, k) with n = b^k and k >= 2 least, if n > 1 is a perfect power."""
    for k in range(2, n.bit_length()):
        b = _iroot(n, k)
        if b < 2:
            break
        if b**k == n:
            return b, k
    return None


def _factor_into(n: int, out: dict[int, int], rng: random.Random) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    # Perfect powers show up naturally here: x - e_i coordinate values are
    # (class) * square, so the rho cofactor is often an exact square.
    pp = _perfect_power(n)
    if pp is not None:
        b, k = pp
        sub: dict[int, int] = {}
        _factor_into(b, sub, rng)
        for p, e in sub.items():
            out[p] = out.get(p, 0) + e * k
        return
    d = _brent_rho(n, rng)
    _factor_into(d, out, rng)
    _factor_into(n // d, out, rng)


def factorize(m: int) -> Factorization:
    """Full factorization of a nonzero integer.

    Trial division below 5e4, then is_prime and Brent-rho splitting (with
    perfect-power detection) for the cofactor.
    """
    if m == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if m > 0 else -1
    n = abs(m)
    fac: dict[int, int] = {}
    for p in _small_prime_list():
        if p * p > n:
            break
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    if n > 1:
        if n < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(n):
            fac[n] = fac.get(n, 0) + 1
        else:
            _factor_into(n, fac, random.Random(m & 0xFFFFFFFF))
    return Factorization(sign, tuple(sorted(fac.items())))


def squarefree_part(m: int) -> int:
    """The squarefree d with m = d*k^2, sign(d) = sign(m)."""
    if m == 0:
        raise ValueError("0 has no squarefree part")
    if m in (1, -1):
        return m
    return factorize(m).squarefree_part()


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return factorize(n).is_squarefree()


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo odd prime p, or None for a non-residue.

    Tonelli-Shanks; returns the root in [0, p).
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def valuation(n: int, p: int) -> int:
    """Largest e with p^e | n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of 0")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e
