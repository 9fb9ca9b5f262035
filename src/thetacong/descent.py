"""Descent via 2-isogeny for curves y^2 = x(x^2 + ax + b).

Provides square classes in Q*/(Q*)^2 (canonical signed squarefree ints),
homogeneous spaces w^2 = d u^4 + a u^2 v^2 + (b/d) v^4 with local
solvability tests, phi-Selmer sets and the Selmer rank
log2(|S^phi| |S^phi-hat|) - 2, the complete 2-descent image map (the family
has full rational 2-torsion), rank lower bounds from rational points, and a
bounded point search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import factorize, is_square, legendre, sqrt_mod, valuation
from .curves import CurveQ, PointQ, is_on_curve, is_torsion

# ---------------------------------------------------------------------------
# square classes

def square_class_int(m: int, hint_primes=()) -> int:
    """Canonical representative of m in Q*/(Q*)^2: the signed squarefree part.

    hint_primes are stripped first; if the remaining cofactor is a perfect
    square no further factoring is needed (true for coordinates of rational
    points, whose class support lies in the bad primes).
    """
    if m == 0:
        raise ValueError("0 has no square class")
    sign = 1 if m > 0 else -1
    n = abs(m)
    d = 1
    for p in hint_primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e & 1:
            d *= p
    if n == 1 or is_square(n):
        return sign * d
    return sign * d * factorize(n).squarefree_part()


def square_class(q: Fraction | int, hint_primes=()) -> int:
    """Square class of a nonzero rational (class of numerator * denominator)."""
    if isinstance(q, Fraction):
        return square_class_int(q.numerator * q.denominator, hint_primes)
    return square_class_int(q, hint_primes)


def class_mul(d1: int, d2: int) -> int:
    """Group law in Q*/(Q*)^2 on canonical representatives."""
    g = math.gcd(d1, d2)
    return (d1 // g) * (d2 // g)


# ---------------------------------------------------------------------------
# isogeny data and torsors

@dataclass(frozen=True)
class IsogenyPair:
    """E: y^2 = x(x^2 + ax + b) and its 2-isogenous partner (-2a, a^2 - 4b),
    with their bad places, ascending: 2 and every prime of b and of a^2 - 4b.
    The descent reads its primes from places and never factors b or a^2 - 4b."""

    a: int
    b: int
    places: tuple[int, ...] = ()

    def __post_init__(self):
        if self.b == 0 or self.a * self.a - 4 * self.b == 0:
            raise ValueError("degenerate curve")
        _support(2 * self.b * self.b_dual, self.places)

    @property
    def a_dual(self) -> int:
        return -2 * self.a

    @property
    def b_dual(self) -> int:
        return self.a * self.a - 4 * self.b

    def side(self, dual: bool) -> tuple[int, int]:
        """(a, b) of E, or of its isogenous partner when dual."""
        return (self.a_dual, self.b_dual) if dual else (self.a, self.b)

    @staticmethod
    def from_curve(E: CurveQ) -> "IsogenyPair":
        return IsogenyPair(E.a2, E.a4, tuple(sorted(E.bad_primes)))


def _support(m: int, places) -> list[int]:
    """The places that divide m; raises ValueError unless they are all of
    its primes (dividing them out leaves +-1)."""
    primes = []
    for p in places:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
    if abs(m) != 1:
        raise ValueError(f"the places {tuple(places)} miss a prime factor of {m}")
    return primes


@dataclass(frozen=True)
class Torsor:
    """Homogeneous space w^2 = d u^4 + a u^2 v^2 + c v^4 with c = b/d."""

    d: int
    a: int
    c: int

    @staticmethod
    def build(d: int, a: int, b: int) -> "Torsor":
        if d == 0 or b % d != 0:
            raise ValueError("d must be a nonzero divisor of b")
        return Torsor(d, a, b // d)

    def value(self, u: int, v: int) -> int:
        u2, v2 = u * u, v * v
        return self.d * u2 * u2 + self.a * u2 * v2 + self.c * v2 * v2

    @property
    def quartic_disc(self) -> int:
        # disc(d t^4 + a t^2 + c) = 16 d c (a^2 - 4 d c)^2
        s = self.a * self.a - 4 * self.d * self.c
        return 16 * self.d * self.c * s * s


REAL_PLACE = "real"

# Odd p below this bound find roots and unit square values mod p by scanning
# the residues; at or above it by polynomial algebra over F_p and the Weil
# bound (which needs p large enough).
_SYMBOLIC_MIN_P = 101


def locally_solvable(T: Torsor, place) -> bool:
    """Local solvability of w^2 = q_d(u, v) at the real place or a prime."""
    if place == REAL_PLACE:
        return _real_solvable(T.d, T.a, T.c)
    return _qp_solvable(T, int(place))


def _real_solvable(d: int, a: int, c: int) -> bool:
    # q takes a positive value at (1,0) or (0,1) when d or c is positive;
    # otherwise maximize d z^2 + a z + c over z >= 0 with d < 0.
    if d > 0 or c > 0:
        return True
    return a > 0 and a * a >= 4 * d * c


def _qp_solvable(T: Torsor, p: int) -> bool:
    d, a, c = T.d, T.a, T.c
    depth = 2 * valuation(T.quartic_disc, p) + 3
    f1 = [c, 0, a, 0, d]  # chart t = u/v
    f2 = [d, 0, a, 0, c]  # chart t = v/u
    if p == 2:
        return _zp_bfs(f1, p, depth + 2) or _zp_bfs(f2, p, depth + 2)
    return _zp_odd(f1, p, depth) or _zp_odd(f2, p, depth)


def _horner(g: list[int], t: int) -> int:
    """g(t) exactly, for coefficients g listed constant term first."""
    acc = 0
    for coef in reversed(g):
        acc = acc * t + coef
    return acc


def _is_padic_square(c: int, p: int) -> bool:
    """Exact test: is the nonzero integer c a square in Qp."""
    e = 0
    while c % p == 0:
        c //= p
        e += 1
    if e & 1:
        return False
    if p == 2:
        return c % 8 == 1
    return legendre(c, p) == 1


def _zp_bfs(g: list[int], p: int, maxj: int) -> bool:
    """Does w^2 = g(t) have t in Zp, w in Qp?  Residue-tree search.

    Nodes are classes t = r (mod p^j); values are exact integers so squares
    are recognized exactly, and a class is pruned once its valuation and unit
    part (mod p for odd p, mod 8 for p = 2) are pinned down.  The class
    around a simple root in Zp is never pinned down, so reaching j = maxj is
    routine when the answer is yes (a neighbouring class finds the square);
    a search that reached it and found nothing raises RuntimeError instead
    of answering no.
    """
    capped = False
    stack = [(i, 1) for i in range(p)]
    while stack:
        r, j = stack.pop()
        c = _horner(g, r)
        if c == 0:
            return True
        if _is_padic_square(c, p):
            return True
        e = valuation(c, p)
        if p == 2:
            determined = e < j if e & 1 else j - e >= 3
        else:
            determined = e < j
        if not determined:
            if j >= maxj:
                capped = True
                continue
            pj = p**j
            stack.extend((r + i * pj, j + 1) for i in range(p))
    if capped:
        raise RuntimeError(f"depth cap reached deciding w^2 = {g} (constant term first) over Z_{p}")
    return False


_qr_cache: dict[int, frozenset[int]] = {}


def _qr_set(p: int) -> frozenset[int]:
    qr = _qr_cache.get(p)
    if qr is None:
        qr = frozenset(x * x % p for x in range(1, p))
        _qr_cache[p] = qr
    return qr


def _zp_odd(g: list[int], p: int, depth: int) -> bool:
    """Does w^2 = g(t) have t in Zp, w in Qp, for odd p?

    After the p^2 content is stripped, a unit square value of g mod p lifts
    by Hensel, and so does a simple root of g (or of g/p when p divides every
    coefficient; then unit values have odd valuation and never help).  Only
    multiple roots mod p need refinement, at most depth levels deep; running
    out of depth raises RuntimeError.
    """
    if depth < 0:
        raise RuntimeError(f"depth cap reached deciding w^2 = {g} (constant term first) over Z_{p}")
    e = valuation(math.gcd(*g), p)
    if e > 1:
        q = p ** (e & ~1)
        g = [c // q for c in g]
    content = e & 1
    g0 = [(c // p) % p if content else c % p for c in g]
    if p < _SYMBOLIC_MIN_P:
        # one residue scan finds the roots and any unit square value
        squares = () if content else _qr_set(p)
        roots = []
        for r in range(p):
            v = _horner(g0, r) % p
            if v == 0:
                roots.append(r)
            elif v in squares:
                return True
    else:
        if not content:
            # Weil: unless g0 = const * square, g0 takes unit square values
            cs = _const_times_square(_ptrim(g0[:]), p)
            if cs is None or legendre(cs[0], p) == 1:
                return True
        roots = _roots_mod_p(g0, p)
    dg0 = [i * c for i, c in enumerate(g0)][1:]
    for r in roots:
        if _horner(dg0, r) % p:
            return True
        if _zp_odd(_shift_scale(g, r, p), p, depth - 1):
            return True
    return False


# ---------------------------------------------------------------------------
# polynomial algebra over F_p for large odd p (no O(p) loops)

def _ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out)


def _pdivmod(f, g, p):
    # g monic; returns (quotient, remainder)
    f = _ptrim([c % p for c in f])
    dg = len(g) - 1
    if dg == 0:
        return f, []
    q = [0] * max(0, len(f) - dg)
    while len(f) > dg:
        coef = f[-1]
        k = len(f) - 1 - dg
        q[k] = coef
        for i in range(dg + 1):
            f[k + i] = (f[k + i] - coef * g[i]) % p
        _ptrim(f)
    return _ptrim(q), f


def _pmonic(f, p):
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def _pgcd(f, g, p):
    f, g = [c % p for c in f], [c % p for c in g]
    f, g = _ptrim(f), _ptrim(g)
    while g:
        g = _pmonic(g, p)
        _, f = _pdivmod(f, g, p)
        f, g = g, f
    return _pmonic(f, p) if f else []


def _ppowmod(base, exp, mod, p):
    # mod monic
    result = [1]
    base = _pdivmod(base, mod, p)[1]
    while exp:
        if exp & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        exp >>= 1
    return result


def _roots_mod_p(f: list[int], p: int) -> list[int]:
    """Distinct roots in F_p of a nonzero poly of degree <= 4 (odd p)."""
    f = _ptrim([c % p for c in f])
    if not f:
        raise ValueError("zero polynomial")
    # 0 is a root iff t | f; the roots of f / t^k are then all nonzero
    k = next(i for i, c in enumerate(f) if c)
    zero, f = [0] * (k > 0), _pmonic(f[k:], p)
    if len(f) == 1:
        return zero
    if len(f) == 2:
        return zero + [(-f[0]) % p]
    # split poly: gcd(x^p - x, f)
    xp = _ppowmod([0, 1], p, f, p)
    xp_minus_x = xp[:]
    while len(xp_minus_x) < 2:
        xp_minus_x.append(0)
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    g = _pgcd(xp_minus_x, f, p)
    return zero + sorted(_split_linear(g, p))


def _split_linear(g: list[int], p: int) -> list[int]:
    # g is monic and a product of distinct linear factors
    if len(g) <= 1:
        return []
    if len(g) == 2:
        return [(-g[0]) % p]
    if len(g) == 3:
        b, c = g[1], g[0]
        disc = (b * b - 4 * c) % p
        rt = sqrt_mod(disc, p)
        inv2 = pow(2, p - 2, p)
        return [((-b + rt) * inv2) % p, ((-b - rt) * inv2) % p]
    shift = 0
    while True:
        h = _ppowmod([shift, 1], (p - 1) // 2, g, p)
        h = h[:]
        if h:
            h[0] = (h[0] - 1) % p
        else:
            h = [p - 1]
        w = _pgcd(h, g, p)
        if 0 < len(w) - 1 < len(g) - 1:
            rest, rem = _pdivmod(g, w, p)
            assert not rem
            return _split_linear(w, p) + _split_linear(rest, p)
        shift += 1


def _const_times_square(g0: list[int], p: int):
    """If g0 = c * s(t)^2 in F_p[t] return (c, s); else None (odd p > deg)."""
    deg = len(g0) - 1
    if deg == 0:
        return g0[0], [1]
    if deg % 2:
        return None
    lc = g0[-1]
    inv_lc = pow(lc, p - 2, p)
    h = [c * inv_lc % p for c in g0]
    inv2 = pow(2, p - 2, p)
    if deg == 2:
        alpha = h[1] * inv2 % p
        if alpha * alpha % p == h[0]:
            return lc, [alpha, 1]
        return None
    # deg == 4
    alpha = h[3] * inv2 % p
    beta = (h[2] - alpha * alpha) * inv2 % p
    if (2 * alpha * beta) % p == h[1] and beta * beta % p == h[0]:
        return lc, [beta, alpha, 1]
    return None


def _shift_scale(g: list[int], r: int, p: int) -> list[int]:
    """Coefficients of g(r + p*s) as a polynomial in s."""
    n = len(g)
    out = [0] * n
    for i, ci in enumerate(g):
        if ci == 0:
            continue
        rpow = 1
        for k in range(i, -1, -1):
            # term ci * C(i,k) r^(i-k) p^k added to out[k]; iterate k descending
            out[k] += ci * math.comb(i, k) * rpow * p**k
            rpow *= r
    return out


# ---------------------------------------------------------------------------
# Selmer sets

def _signed_squarefree_divisors(b: int, places) -> list[int]:
    divs = [1]
    for p in _support(b, places):
        divs += [d * p for d in divs]
    return sorted((s * d for d in divs for s in (1, -1)), key=lambda d: (abs(d), d < 0))


def _local_verdicts(T: Torsor, places: tuple[int, ...]) -> list[tuple[str | int, bool]]:
    """(place, solvable) at R and then at each place in turn, up to the first
    failure; T is everywhere locally solvable iff the last verdict is."""
    verdicts = []
    for place in (REAL_PLACE, *places):
        ok = locally_solvable(T, place)
        verdicts.append((place, ok))
        if not ok:
            break
    return verdicts


def torsor_verdicts(pair: IsogenyPair, dual: bool = False) -> list[tuple[int, list[tuple[str | int, bool]]]]:
    """Every torsor of one isogeny direction, as (d, local verdicts) for each
    signed squarefree d | b, decided as selmer_set decides them."""
    a, b = pair.side(dual)
    return [(d, _local_verdicts(Torsor.build(d, a, b), pair.places))
            for d in _signed_squarefree_divisors(b, pair.places)]


def selmer_set(a: int, b: int, places: tuple[int, ...]) -> frozenset[int]:
    """All squarefree d | b whose torsor is solvable at R and at every place.

    places must hold 2 and every prime of b and of a^2 - 4b (as
    IsogenyPair.places does).  Uses the subgroup structure of the answer to
    skip cosets that are already decided.
    """
    members = {1}
    nonmembers: set[int] = set()
    for d in _signed_squarefree_divisors(b, places):
        if d in members or d in nonmembers:
            continue
        if any(class_mul(d, s) in nonmembers for s in members):
            nonmembers.add(d)
            continue
        if _local_verdicts(Torsor.build(d, a, b), places)[-1][1]:
            members |= {class_mul(d, s) for s in members}
        else:
            nonmembers.update(class_mul(d, s) for s in members)
    return frozenset(members)


def phi_selmer(pair: IsogenyPair, dual: bool = False) -> frozenset[int]:
    """S^phi (dual=False: torsors of (a, b), bounding E(Q)/phi-hat E'(Q));
    dual=True uses (a_dual, b_dual)."""
    return selmer_set(*pair.side(dual), pair.places)


def _rank_from_sets(s1: frozenset[int], s2: frozenset[int]) -> int:
    prod = len(s1) * len(s2)
    k = prod.bit_length() - 1
    if 1 << k != prod or k < 2:
        raise AssertionError(f"Selmer sizes not a valid power of two: {len(s1)}x{len(s2)}")
    return k - 2


def selmer_rank(E: CurveQ) -> int:
    """log2(|S^phi| * |S^phi-hat|) - 2; an upper bound for the rank."""
    pair = IsogenyPair.from_curve(E)
    return _rank_from_sets(phi_selmer(pair), phi_selmer(pair, dual=True))


# ---------------------------------------------------------------------------
# complete 2-descent image and rank lower bounds

def descent_image(P: PointQ, E: CurveQ) -> tuple[int, int, int]:
    """Classes of (x - e1, x - e2, x - e3) for the 2-torsion roots e_i.

    At x = e_i the vanishing slot is replaced by the product of the other two
    classes, the standard completion making the map a homomorphism.  The
    product of the triple is always trivial.
    """
    if P.is_infinity:
        raise ValueError("descent image of the point at infinity is trivial; pass affine points")
    roots = E.two_torsion_x
    hint = sorted(E.bad_primes)
    classes: list[int | None] = []
    for e in roots:
        t = P.x - e
        classes.append(None if t == 0 else square_class(t, hint))
    for i, cl in enumerate(classes):
        if cl is None:
            prod = 1
            for j, e in enumerate(roots):
                if j != i:
                    prod *= roots[i] - e
            classes[i] = square_class_int(prod, hint)
    t1, t2, t3 = classes
    assert class_mul(class_mul(t1, t2), t3) == 1
    return (t1, t2, t3)


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


def _triples_to_rows(triples: list[tuple[int, int, int]], primes: list[int]) -> list[int]:
    """F2 rows of the class triples: a sign bit and one bit per prime, for
    each of the three classes; raises ValueError on a class with a prime
    outside primes."""
    width = len(primes) + 1  # bit 0 is the sign

    def class_bits(cl: int) -> int:
        bits = 1 if cl < 0 else 0
        for p in _support(cl, primes):
            bits |= 1 << (primes.index(p) + 1)
        return bits

    rows = []
    for t in triples:
        row = 0
        for k, cl in enumerate(t):
            row |= class_bits(cl) << (k * width)
        rows.append(row)
    return rows


def rank_lower_bound(points: list[PointQ], E: CurveQ) -> int:
    """F2-dimension of the descent images of the points modulo the 2-torsion
    image subspace; a lower bound for the Mordell-Weil rank."""
    for P in points:
        if not is_on_curve(P, E):
            raise ValueError(f"point {P} is not on {E.label()}")
    finite = [P for P in points if not P.is_infinity]
    torsion_pts = [PointQ.affine(e, 0) for e in E.two_torsion_x]
    torsion_imgs = [descent_image(T, E) for T in torsion_pts]
    point_imgs = [descent_image(P, E) for P in finite]
    # a point of E has its classes supported on the bad primes
    rows = _triples_to_rows(torsion_imgs + point_imgs, sorted(E.bad_primes))
    full_rank = _gf2_rank(rows)
    # The torsion subgroup T always contributes exactly 2 dimensions to
    # E(Q)/2E(Q): T contains the full 2-torsion, so T/2T = T[2] = (Z/2)^2,
    # and T meets 2E(Q) in 2T.  Subtracting 2 (rather than the span of the
    # 2-torsion rows alone) stays correct for the few tiny n whose extra
    # 4-torsion pushes a 2-torsion image into the doubled subgroup.
    return max(full_rank - 2, 0)


# ---------------------------------------------------------------------------
# point search

_SQ_MASK_64 = np.zeros(64, dtype=bool)
_SQ_MASK_64[(np.arange(32) ** 2) % 64] = True
_SQ_MOD_ODD = 45045  # 3^2 * 5 * 7 * 11 * 13
_SQ_MASK_ODD = np.zeros(_SQ_MOD_ODD, dtype=bool)
_SQ_MASK_ODD[(np.arange(_SQ_MOD_ODD, dtype=np.int64) ** 2) % _SQ_MOD_ODD] = True
# The sweeps evaluate their values mod M = _SIEVE_MOD = 2,882,880 in int64.
# Every operand entering numpy is a residue below M (the coefficients, up to
# ~1e24 for the record curves, are reduced as Python ints first), so each
# product is below M^2 ~ 8.3e12 and each sum of three is below 2.5e13, far
# under 2^63.
_SIEVE_MOD = 64 * _SQ_MOD_ODD


def _maybe_square(vmod: np.ndarray) -> np.ndarray:
    """True at each residue mod _SIEVE_MOD that can be a square."""
    return _SQ_MASK_64[vmod & 63] & _SQ_MASK_ODD[vmod % _SQ_MOD_ODD]


def _x_sweep(E: CurveQ, mmax: int, emax: int):
    """Points (m/e^2, w/e^3) with 0 < |m| <= mmax, 1 <= e <= emax,
    gcd(m, e) = 1 and w^2 = m(m^2 + a2 e^2 m + a4 e^4) > 0."""
    M = _SIEVE_MOD
    ms = np.arange(-mmax, mmax + 1, dtype=np.int64)  # m = 0 gives v = 0
    m1 = ms % M
    m2 = m1 * m1 % M
    m3 = m2 * m1 % M
    for e in range(1, emax + 1):
        e2 = e * e
        A, B = E.a2 * e2, E.a4 * e2 * e2
        cand = _maybe_square((m3 + A % M * m2 + B % M * m1) % M) & (np.gcd(ms, e) == 1)
        for m in ms[cand].tolist():
            v = m * (m * m + A * m + B)
            if v > 0 and is_square(v):
                yield PointQ(Fraction(m, e2), Fraction(math.isqrt(v), e2 * e))


def _torsor_sweep(E: CurveQ, bound: int):
    """Points w^2 = d u^4 + a u^2 v^2 + c v^4, coprime 1 <= u, v <= bound, on
    the Selmer torsors of both directions (dual hits are pulled back)."""
    M = _SIEVE_MOD
    pair = IsogenyPair.from_curve(E)
    us = np.arange(1, bound + 1, dtype=np.int64)
    U, V = np.repeat(us, bound), np.tile(us, bound)
    coprime = np.gcd(U, V) == 1
    U, V = U[coprime], V[coprime]
    u2, v2 = U * U % M, V * V % M
    u4, uv, v4 = u2 * u2 % M, u2 * v2 % M, v2 * v2 % M
    for dual in (False, True):
        a, b = pair.side(dual)
        for d in phi_selmer(pair, dual):
            c = b // d
            cand = _maybe_square((d % M * u4 + a % M * uv + c % M * v4) % M)
            for i in np.flatnonzero(cand).tolist():
                u, v = int(U[i]), int(V[i])
                val = d * u**4 + a * u * u * v * v + c * v**4
                if val <= 0 or not is_square(val):
                    continue
                X = Fraction(d * u * u, v * v)
                Y = Fraction(d * u * math.isqrt(val), v**3)
                if not dual:
                    yield PointQ(X, Y)
                elif X != 0 and Y != 0:
                    # pull back through the dual isogeny E' -> E
                    x = Y * Y / (4 * X * X)
                    y = Y * (X * X - pair.b_dual) / (8 * X * X)
                    yield PointQ(x, y)


def search_points(E: CurveQ, height_bound: int, torsor_bound: int | None = None) -> list[PointQ]:
    """Non-torsion points found by (i) the x = m/e^2 sweep, |m|, e <= height_bound,
    and (ii) u, v <= torsor_bound sweeps over the everywhere-locally-solvable
    torsors (torsor_bound defaults to height_bound; 0 skips them)."""
    if height_bound < 1:
        raise ValueError("height_bound must be >= 1")
    if torsor_bound is None:
        torsor_bound = height_bound
    candidates = _x_sweep(E, height_bound, height_bound)
    if torsor_bound > 0:
        candidates = itertools.chain(candidates, _torsor_sweep(E, torsor_bound))
    seen: dict[tuple, PointQ] = {}
    for P in candidates:
        if P.y != 0 and is_on_curve(P, E) and not is_torsion(P, E):
            seen.setdefault((P.x, P.y), P)
    def height(P: PointQ) -> int:
        return max(abs(P.x.numerator), P.x.denominator)
    return sorted(seen.values(), key=lambda P: (height(P), P.x, P.y))


def has_small_nontorsion_point(E: CurveQ, xheight: int) -> bool:
    """Any non-torsion point with x = m/e^2, |m|, e^2 <= xheight?"""
    return any(not is_torsion(P, E) for P in _x_sweep(E, xheight, math.isqrt(xheight)))


# ---------------------------------------------------------------------------
# reports

@dataclass
class DescentReport:
    selmer_phi: frozenset[int]
    selmer_phi_dual: frozenset[int]
    selmer_rank: int
    rank_lb: int
    points_found: list[PointQ] = field(default_factory=list)


def full_descent(E: CurveQ, height_bound: int = 1000, torsor_bound: int | None = None) -> DescentReport:
    """Selmer sets, Selmer rank, bounded point search, and the rank lower
    bound certified by the found points."""
    pair = IsogenyPair.from_curve(E)
    s1, s2 = phi_selmer(pair), phi_selmer(pair, dual=True)
    pts = search_points(E, height_bound, torsor_bound)
    lb = rank_lower_bound(pts, E) if pts else 0
    return DescentReport(s1, s2, _rank_from_sets(s1, s2), lb, pts)
