"""Descent via 2-isogeny on the curve E: y^2 = x(x^2 + ax + b) itself, and
on its 2-isogenous curve E.side(dual=True).

Nothing here factors: every place and every square class in Q*/(Q*)^2 (a
canonical signed squarefree int) is read off E.bad_primes.  Provides
homogeneous spaces w^2 = d u^4 + a u^2 v^2 + (b/d) v^4 with local
solvability tests (a sign test at R, and at every prime, 2 included, one
Hensel recursion over the residues, which at p >= 101 finds its roots by the
quadratic formula in t or t^2; below 101 the recursion decides one torsor per
Q_p-isomorphism class and a table keyed on that class answers the rest),
phi-Selmer sets and the Selmer rank
log2(|S^phi| |S^phi-hat|) - 2, the complete 2-descent image map (the family
has full rational 2-torsion), rank lower bounds from rational points, and a
bounded point search: one sieved sweep of coprime (u, v) on torsors.  An x =
m/e^2 in lowest terms is d u^2/v^2 with d | b, so the search over |m|, e <= H
runs on the forward torsors with |d| <= H and yields y > 0; the Selmer
torsors of both directions yield y = d u w / v^3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# factorize is re-exported, not called: perfbench/selftest.py checks that the
# tracer wraps it under every module that holds it, descent included.
from .arith import factorize, is_square, legendre, sqrt_mod, valuation
from .curves import CurveQ, PointQ, is_on_curve, is_torsion

# ---------------------------------------------------------------------------
# square classes

def _square_class(q: Fraction | int, places) -> int:
    """Signed squarefree representative of the rational q != 0 in Q*/(Q*)^2,
    read off places; ValueError unless they hold every prime of odd exponent,
    as E.bad_primes does for x - e_i at a point of E (Silverman, AEC X.1.4)."""
    m = q.numerator * q.denominator
    if m == 0:
        raise ValueError("0 has no square class")
    d = -1 if m < 0 else 1
    for p in places:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e & 1:
            d *= p
    if not is_square(abs(m)):
        raise ValueError(f"the places {tuple(places)} miss a prime of odd exponent in {q}")
    return d


def class_mul(d1: int, d2: int) -> int:
    """Group law in Q*/(Q*)^2 on canonical representatives."""
    g = math.gcd(d1, d2)
    return (d1 // g) * (d2 // g)


# ---------------------------------------------------------------------------
# torsors

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


# Verdicts at p = 2 and odd p < _SYMBOLIC_MIN_P by Q_p-isomorphism class of
# the torsor, filled on demand by _qp_solvable.  Each entry is a fact about
# its key alone, so every caller in the process can share the table.
_QP_VERDICTS: dict[tuple, bool] = {}


def _qp_class(x: int, p: int) -> tuple[int, int]:
    """Class of x != 0 in Q_p*/(Q_p*)^2: v_p(x) mod 2, then the unit part
    mod 8 at p = 2, or its Legendre symbol at odd p."""
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e & 1, x % 8 if p == 2 else legendre(x, p)


def _qp_solvable(T: Torsor, p: int) -> bool:
    """Is w^2 = d u^4 + a u^2 v^2 + c v^4 solvable in Q_p?

    For mu, tau in Q_p*, (u, v, w) -> (u, v / tau, mu w) maps the points of
    (d, a, c) onto those of (mu^2 d, mu^2 tau^2 a, mu^2 tau^4 c).  With a != 0
    the key ([d]_p, [a]_p, kappa), kappa = c d / a^2, is a complete invariant
    of that action: if (d', a', c') has the same key, mu^2 = d'/d and tau^2 =
    a' d / (a d') are squares in Q_p and c' = mu^2 tau^4 c.  So the verdict
    depends on p and the key only, and _QP_VERDICTS keeps it for p = 2 and
    every odd p < _SYMBOLIC_MIN_P; the first torsor of each key is decided by
    _zp.  In the family kappa is -3/4 forward and 1 dual, so the table holds
    at most 2 (8 * 8 + 24 * 4 * 4) = 896 entries: 8 square classes at p = 2,
    4 at each of the 24 odd p < 101.  a = 0 and p >= _SYMBOLIC_MIN_P, where
    _zp finds its roots by the quadratic formula, are decided directly.
    """
    key = None
    if T.a and p < _SYMBOLIC_MIN_P:
        num, den = T.c * T.d, T.a * T.a
        g = math.gcd(num, den)
        key = (p, _qp_class(T.d, p), _qp_class(T.a, p), (num // g, den // g))
        verdict = _QP_VERDICTS.get(key)
        if verdict is not None:
            return verdict
    depth = 2 * valuation(T.quartic_disc, p) + 3
    f1 = [T.c, 0, T.a, 0, T.d]  # chart t = u/v
    f2 = [T.d, 0, T.a, 0, T.c]  # chart t = v/u
    verdict = _zp(f1, p, depth) or _zp(f2, p, depth)
    if key is not None:
        _QP_VERDICTS[key] = verdict
    return verdict


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

def _torsor_classes(E: CurveQ, dual: bool) -> list[int]:
    """Each signed squarefree d | b of E.side(dual), ordered by |d| and then
    sign; E.bad_primes holds every prime of b, as CurveQ checks."""
    b = E.side(dual)[1]
    divs = [1]
    for p in E.bad_primes:
        if b % p == 0:
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


def torsor_verdicts(E: CurveQ, dual: bool = False) -> list[tuple[int, list[tuple[str | int, bool]]]]:
    """Every torsor of one isogeny direction, as (d, local verdicts) for each
    signed squarefree d | b, decided as selmer_set decides them."""
    a, b = E.side(dual)
    return [(d, _local_verdicts(Torsor.build(d, a, b), E.bad_primes)) for d in _torsor_classes(E, dual)]


def selmer_set(E: CurveQ, dual: bool = False) -> frozenset[int]:
    """S^phi: each squarefree d | b whose torsor of (a, b) = E.side(dual) is
    solvable at R and at every bad prime.  Uses the subgroup structure of the
    answer to skip cosets that are already decided."""
    a, b = E.side(dual)
    members = {1}
    nonmembers: set[int] = set()
    for d in _torsor_classes(E, dual):
        if d in members or d in nonmembers:
            continue
        if any(class_mul(d, s) in nonmembers for s in members):
            nonmembers.add(d)
            continue
        if _local_verdicts(Torsor.build(d, a, b), E.bad_primes)[-1][1]:
            members |= {class_mul(d, s) for s in members}
        else:
            nonmembers.update(class_mul(d, s) for s in members)
    return frozenset(members)


phi_selmer = selmer_set  # the older name, kept because tests/test_acceptance.py imports it


def selmer_rank(E: CurveQ) -> int:
    """log2(|S^phi| * |S^phi-hat|) - 2; an upper bound for the rank."""
    s1, s2 = selmer_set(E), selmer_set(E, dual=True)
    prod = len(s1) * len(s2)
    k = prod.bit_length() - 1
    if 1 << k != prod or k < 2:
        raise AssertionError(f"Selmer sizes not a valid power of two: {len(s1)}x{len(s2)}")
    return k - 2


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
    classes = [None if P.x == e else _square_class(P.x - e, E.bad_primes) for e in E.two_torsion_x]
    if None in classes:
        classes[classes.index(None)] = class_mul(*(cl for cl in classes if cl is not None))
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


def _triples_to_rows(triples: list[tuple[int, int, int]], primes: tuple[int, ...]) -> list[int]:
    """F2 rows of the class triples, each class squarefree over primes: a
    sign bit and one bit per prime, for each of the three classes."""
    rows = []
    for t in triples:
        row = 0
        for cl in t:
            row = row << 1 | (cl < 0)
            for p in primes:
                row = row << 1 | (cl % p == 0)
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
    rows = _triples_to_rows(torsion_imgs + point_imgs, E.bad_primes)
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
# The one sweep evaluates quartics mod M = _SIEVE_MOD = 2,882,880 in int64.
# Every operand entering numpy is a residue below M (coefficients, up to ~1e24
# on the record curves, are reduced as Python ints first), so each product is
# below M^2 ~ 8.3e12 and each sum of three below 2.5e13, far under 2^63.
_SIEVE_MOD = 64 * _SQ_MOD_ODD
_BLOCK_CELLS = 4096


def _maybe_square(vmod: np.ndarray) -> np.ndarray:
    """True at each residue mod _SIEVE_MOD that can be a square."""
    return _SQ_MASK_64[vmod & 63] & _SQ_MASK_ODD[vmod % _SQ_MOD_ODD]


def _torsor_points(T: Torsor, umax: int, vmax: int, k: int = 1):
    """(u, v, r) for 1 <= u <= umax, 1 <= v <= vmax with gcd(k u, v) = 1 and
    T.value(u, v) = r^2 > 0.  The values are sieved mod _SIEVE_MOD in blocks
    of whole u rows, at most _BLOCK_CELLS cells unless one row is longer, so
    memory stays flat at any bound; each hit is confirmed by is_square."""
    M = _SIEVE_MOD
    vs = np.arange(1, vmax + 1, dtype=np.int64)
    v2 = vs * vs % M
    av2, cv4 = T.a % M * v2 % M, T.c % M * (v2 * v2 % M) % M
    rows = max(1, _BLOCK_CELLS // vmax)
    for u0 in range(1, umax + 1, rows):
        us = np.arange(u0, min(u0 + rows, umax + 1), dtype=np.int64)[:, None]
        u2 = us * us % M
        vmod = (T.d % M * (u2 * u2 % M) + u2 * av2 + cv4) % M
        for i, j in np.argwhere(_maybe_square(vmod) & (np.gcd(k * us, vs) == 1)).tolist():
            u, v = u0 + i, j + 1
            val = T.value(u, v)
            if val > 0 and is_square(val):
                yield u, v, math.isqrt(val)


def _x_points(E: CurveQ, mmax: int, emax: int):
    """Points (m/e^2, w/e^3), w > 0, 0 < |m| <= mmax, 1 <= e <= emax, gcd(m, e)
    = 1.  The squarefree part d of m divides gcd(m, m^2 + a e^2 m + b e^4) =
    gcd(m, b), and m = d u^2 gives w^2 = d^2 u^2 (d u^4 + a u^2 e^2 + (b/d) e^4);
    every class d runs, not only the Selmer set."""
    for d in _torsor_classes(E, False):
        if abs(d) <= mmax:
            T = Torsor.build(d, E.a2, E.a4)
            for u, v, r in _torsor_points(T, math.isqrt(mmax // abs(d)), emax, d):
                yield PointQ(Fraction(d * u * u, v * v), Fraction(abs(d) * u * r, v**3))


def _selmer_points(E: CurveQ, bound: int):
    """Points (d u^2/v^2, d u r/v^3) from coprime 1 <= u, v <= bound on the
    torsors of the forward and dual Selmer sets; dual hits are pulled back
    through the dual isogeny E' -> E."""
    for dual in (False, True):
        a, b = E.side(dual)
        for d in selmer_set(E, dual):
            for u, v, r in _torsor_points(Torsor.build(d, a, b), bound, bound):
                X, Y = Fraction(d * u * u, v * v), Fraction(d * u * r, v**3)
                if dual:
                    X, Y = Y * Y / (4 * X * X), Y * (X * X - b) / (8 * X * X)
                yield PointQ(X, Y)


def search_points(E: CurveQ, height_bound: int, torsor_bound: int | None = None) -> list[PointQ]:
    """Non-torsion points, sorted by x-height, from (i) every x = m/e^2 with
    |m|, e <= height_bound, each with y > 0, and (ii) coprime u, v <=
    torsor_bound on the Selmer torsors of both directions, with y = d u w /
    v^3, so a point may come with both signs of y.  torsor_bound defaults to
    height_bound; 0 skips (ii)."""
    if height_bound < 1:
        raise ValueError("height_bound must be >= 1")
    if torsor_bound is None:
        torsor_bound = height_bound
    if torsor_bound < 0:
        raise ValueError("torsor_bound must be >= 0")
    parts = [_x_points(E, height_bound, height_bound)]
    if torsor_bound > 0:
        parts.append(_selmer_points(E, torsor_bound))
    found = {P for part in parts for P in part if P.y != 0 and is_on_curve(P, E) and not is_torsion(P, E)}
    return sorted(found, key=lambda P: (max(abs(P.x.numerator), P.x.denominator), P.x, P.y))


def has_small_nontorsion_point(E: CurveQ, xheight: int) -> bool:
    """Any non-torsion point with x = m/e^2, |m|, e^2 <= xheight?  This is
    part (i) of search_points with |m| <= xheight and e <= isqrt(xheight)."""
    return any(not is_torsion(P, E) for P in _x_points(E, xheight, math.isqrt(xheight)))
