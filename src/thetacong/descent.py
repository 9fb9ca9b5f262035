"""Descent via 2-isogeny for curves y^2 = x(x^2 + ax + b).

Provides square classes in Q*/(Q*)^2 (canonical signed squarefree ints),
homogeneous spaces w^2 = d u^4 + a u^2 v^2 + (b/d) v^4 with local
solvability tests (a sign test at R, and at every prime, 2 included, one
Hensel recursion over the residues, which at p >= 101 finds its roots by the
quadratic formula in t or t^2), phi-Selmer sets and the Selmer rank
log2(|S^phi| |S^phi-hat|) - 2, the complete 2-descent image map (the family
has full rational 2-torsion), rank lower bounds from rational points, and a
bounded point search.
"""

from __future__ import annotations

import functools
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
# the residues; at or above it by the quadratic formula in t or t^2 and the
# Weil bound, which needs p large enough (see _zp).
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
    depth = 2 * valuation(T.quartic_disc, p) + 3
    f1 = [T.c, 0, T.a, 0, T.d]  # chart t = u/v
    f2 = [T.d, 0, T.a, 0, T.c]  # chart t = v/u
    return _zp(f1, p, depth) or _zp(f2, p, depth)


def _horner(g: list[int], t: int) -> int:
    """g(t) exactly, for coefficients g listed constant term first."""
    acc = 0
    for coef in reversed(g):
        acc = acc * t + coef
    return acc


@functools.cache
def _unit_squares(m: int) -> frozenset[int]:
    """The squares of the units mod m; {1} for m = 8."""
    return frozenset(x * x % m for x in range(1, m) if math.gcd(x, m) == 1)


def _zp(g: list[int], p: int, depth: int) -> bool:
    """Does w^2 = g(t) have t in Zp, w in Qp?  g lists 5 coefficients,
    constant term first.

    A unit is a square in Qp iff it is one mod m (m = p for odd p; m = 8 for
    p = 2, where the unit squares are 1 mod 8), and g(t) mod m depends on t
    mod m only.  After the p^2 content is stripped, a unit square value mod m
    answers yes, and so does a simple root of g (or of g/p when p divides
    every coefficient; unit values then have odd valuation) mod p, by Hensel.
    A multiple root r mod p recurses on g(r + p s).  At level j it holds two
    roots of g closer than p^-j, so 2j < v(disc g): a class around a simple
    root has a unit derivative at most one level after its content is
    stripped, and squarefree g needs at most v(disc)/2 + 1 of the
    2 v(disc) + 3 levels that _qp_solvable allows, at p = 2 as at odd p.
    A branch out of depth raises RuntimeError once no other root has found
    a point.

    Below _SYMBOLIC_MIN_P one scan of the residues finds the roots and the
    unit square values.  At larger p the reduction g0 of g is read as a
    quadratic q: g0 = q(t) when deg g0 <= 2, else g0 = q(t^2), and any other
    g0 raises ValueError.  That covers every g the recursion meets from a
    torsor chart c + a t^2 + d t^4, which is even.  Stripping content and the
    shift t = p s at the root 0 keep g even.  A nonzero root r of an even g0
    comes with the root -r != r, so its multiplicity m is at most 2.  In
    g(r + p s) the coefficient of s^k carries p^k, and for k = m exactly p^m
    times the content of g (r is an m-fold root and m < p), so once the
    content is divided out the g0 one level down has degree <= m.  The roots
    come from the quadratic formula, and by the Weil bound g0 takes a unit
    square value unless it is a constant times a square, which holds iff q
    is constant or has zero discriminant.
    """
    if g[0] == 0:
        return True  # t = 0 is a root
    if depth < 0:
        raise RuntimeError(f"depth cap reached deciding w^2 = {g} (constant term first) over Z_{p}")
    e = valuation(math.gcd(*g), p)
    if e > 1:
        q = p ** (e & ~1)
        g = [c // q for c in g]
    content = e & 1
    m = 8 if p == 2 and not content else p  # odd content: only roots count
    g0 = [(c // p) % m if content else c % m for c in g]
    if p < _SYMBOLIC_MIN_P:
        # one residue scan finds the roots and any unit square value
        squares = () if content else _unit_squares(m)
        roots = []
        for t in range(m):
            v = _horner(g0, t) % m
            if v in squares:
                return True
            if t < p and v % p == 0:
                roots.append(t)
    else:
        c0, c1, c2, c3, c4 = g0
        even = bool(c4)  # deg g0 > 2, so g0 must be q(t^2)
        if c3 or even and c1:
            raise ValueError(f"w^2 = {g} (constant term first) reduces mod {p} to neither q(t) nor q(t^2) with q quadratic")
        q0, q1, q2 = (c0, c2, c4) if even else (c0, c1, c2)
        # Weil: g0 takes a unit square value unless q = q0 or q = q2 (x - x0)^2,
        # the q with q1^2 - 4 q0 q2 = 0, and then iff that constant is a square
        if not content and ((q1 * q1 - 4 * q0 * q2) % p or legendre(q2 or q0, p) == 1):
            return True
        roots = _quadratic_roots(q0, q1, q2, p, even)
    dg0 = [i * c for i, c in enumerate(g0)][1:]
    capped = None
    for r in roots:
        if _horner(dg0, r) % p:
            return True
        try:
            if _zp(_shift_scale(g, r, p), p, depth - 1):
                return True
        except RuntimeError as err:
            capped = err
    if capped:
        raise capped
    return False


# ---------------------------------------------------------------------------
# roots over F_p by the quadratic formula, and the Hensel shift

def _quadratic_roots(q0: int, q1: int, q2: int, p: int, even: bool) -> list[int]:
    """The roots in F_p of q(t), or of q(t^2) when even, for a nonzero
    q = q0 + q1 x + q2 x^2 over F_p (odd p)."""
    if q2:
        rt = sqrt_mod(q1 * q1 - 4 * q0 * q2, p)
        inv = pow(2 * q2, -1, p)
        xs = [] if rt is None else list({(rt - q1) * inv % p, (-rt - q1) * inv % p})
    else:
        xs = [-q0 * pow(q1, -1, p) % p] if q1 else []
    if not even:
        return xs
    return [t for x in xs if (r := sqrt_mod(x, p)) is not None for t in {r, -r % p}]


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
    if torsor_bound < 0:
        raise ValueError("torsor_bound must be >= 0")
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
    lb = rank_lower_bound(pts, E)
    return DescentReport(s1, s2, _rank_from_sets(s1, s2), lb, pts)
