"""Descent machinery tests: square classes, local solvability (including an
independent p-adic brute-force oracle), Selmer sets and ranks, descent images,
rank lower bounds, and the bounded point search."""

import dataclasses
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import thetacong.descent as D
from thetacong.arith import (
    factorize,
    is_square,
    is_squarefree,
    legendre,
    squarefree_flags,
    squarefree_part,
    valuation,
)
from thetacong.curves import (
    INFINITY,
    PI_3,
    TWO_PI_3,
    CurveQ,
    PointQ,
    ThetaParams,
    add,
    build_curve,
    is_on_curve,
    is_torsion,
    scalar_mul,
)
from thetacong.dataset import PUBLISHED, find_published
from thetacong.descent import (
    REAL_PLACE,
    Torsor,
    class_mul,
    descent_image,
    has_small_nontorsion_point,
    locally_solvable,
    phi_selmer,
    rank_lower_bound,
    search_points,
    selmer_rank,
    selmer_set,
    torsor_verdicts,
)

# ---------------------------------------------------------------------------
# square classes


def test_square_class_int():
    assert D._square_class(54, (2, 3)) == 6
    assert D._square_class(-722, (2, 19)) == -2
    assert D._square_class(49, ()) == 1
    assert D._square_class(-1, (2,)) == -1
    with pytest.raises(ValueError):
        D._square_class(0, (2, 3))


def test_square_class_rational():
    assert D._square_class(Fraction(4, 9), ()) == 1
    assert D._square_class(Fraction(-722, 25), (2, 19)) == -2
    assert D._square_class(Fraction(2, 3), (2, 3)) == 6


def test_square_class_matches_squarefree_part():
    # any power of each place times the square of a cofactor, whose primes
    # may lie outside the places
    rng = random.Random(5)
    places = (2, 3, 5, 19)
    for _ in range(300):
        m = rng.choice((1, -1)) * math.prod(p ** rng.randrange(6) for p in places)
        m *= rng.randrange(1, 10**4) ** 2
        assert D._square_class(m, places) == squarefree_part(m), m


def test_square_class_rejects_an_odd_power_outside_the_places():
    for q in (7, -28, 2 * 3 * 7**3, Fraction(5, 49 * 11)):
        with pytest.raises(ValueError, match="miss"):
            D._square_class(q, (2, 3, 5))


def test_class_mul_group_law():
    rng = random.Random(6)
    classes = [squarefree_part(rng.randrange(-500, 500) or 1) for _ in range(40)]
    for d1 in classes[:12]:
        assert class_mul(d1, 1) == d1
        assert class_mul(d1, d1) == 1
        for d2 in classes[:12]:
            prod = class_mul(d1, d2)
            assert prod == squarefree_part(d1 * d2)
            assert class_mul(prod, d2) == d1


# ---------------------------------------------------------------------------
# isogeny pairs and torsors


def test_curve_side_family_shape():
    E = build_curve(646, PI_3)
    assert E.side(False) == (1292, -1251948)
    assert E.side(True) == (-2584, 16 * 646 * 646)


def test_torsor_build_and_value():
    T = Torsor.build(-2, 1292, -1251948)
    assert (T.d, T.a, T.c) == (-2, 1292, 625974)
    assert T.value(1, 0) == -2
    assert T.value(0, 1) == 625974
    assert T.value(2, 3) == -2 * 16 + 1292 * 4 * 9 + 625974 * 81
    with pytest.raises(ValueError):
        Torsor.build(5, 1292, -1251948)
    with pytest.raises(ValueError):
        Torsor.build(0, 1, 6)


def test_quartic_disc_formula():
    T = Torsor.build(3, 7, -27)
    s = 7 * 7 - 4 * 3 * (-9)
    assert T.quartic_disc == 16 * 3 * (-9) * s * s


# ---------------------------------------------------------------------------
# local solvability: real place


def test_real_place_sign_analysis():
    assert locally_solvable(Torsor(5, -100, -3), REAL_PLACE)   # d > 0
    assert locally_solvable(Torsor(-5, -100, 3), REAL_PLACE)   # c > 0
    assert not locally_solvable(Torsor(-5, -2, -3), REAL_PLACE)  # all terms <= 0
    assert locally_solvable(Torsor(-1, 3, -1), REAL_PLACE)     # max of -z^2+3z-1 > 0
    assert not locally_solvable(Torsor(-1, 1, -1), REAL_PLACE)  # max < 0


def test_real_place_matches_sampling():
    rng = random.Random(11)
    for _ in range(400):
        d = rng.randrange(-20, 21) or 1
        a = rng.randrange(-20, 21)
        c = rng.randrange(-20, 21) or 1
        T = Torsor(d, a, c)
        sampled = any(
            T.value(u, v) >= 0
            for u in range(0, 40)
            for v in range(0, 40)
            if (u, v) != (0, 0)
        )
        # sampling can only under-report solvability (real roots may be
        # irrational), so it must imply the sign analysis
        if sampled:
            assert locally_solvable(T, REAL_PLACE)
        disc_neg = T.a * T.a - 4 * T.d * T.c < 0
        if not locally_solvable(T, REAL_PLACE):
            assert not sampled
            assert T.d < 0 and T.c < 0 and (T.a <= 0 or disc_neg)


# ---------------------------------------------------------------------------
# local solvability: independent p-adic oracle

def _oracle_eval(g, t):
    acc = 0
    for coef in reversed(g):
        acc = acc * t + coef
    return acc


def _oracle_chart(g, p, k):
    """Scan t mod p^k with exact values.  True/False when decisive, None if
    some residue's value stayed undetermined at this precision."""
    undetermined = False
    for t in range(p**k):
        v = _oracle_eval(g, t)
        if v == 0:
            return True
        e, u = 0, abs(v)
        while u % p == 0:
            u //= p
            e += 1
        if p == 2:
            if e >= k - 2:
                undetermined = True
                continue
            if e % 2 == 0 and (v // (1 << e)) % 8 == 1:
                return True
        else:
            if e >= k:
                undetermined = True
                continue
            uu = (v // p**e) % p
            if e % 2 == 0 and pow(uu, (p - 1) // 2, p) == 1:
                return True
    return None if undetermined else False


def _oracle_solvable(T, p, budget=5 * 10**5):
    """Decide Qp-solvability of w^2 = q_d(u, v) by brute residue scans on the
    two affine charts; None when the needed precision exceeds the budget."""
    disc = T.quartic_disc
    k = 2 * valuation(disc, p) + 3 + (3 if p == 2 else 0)
    if p**k > budget:
        return None
    r1 = _oracle_chart([T.c, 0, T.a, 0, T.d], p, k)
    r2 = _oracle_chart([T.d, 0, T.a, 0, T.c], p, k)
    if r1 is True or r2 is True:
        return True
    if r1 is False and r2 is False:
        return False
    return None


def test_local_solvability_vs_bruteforce_oracle():
    rng = random.Random(20250825)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    conclusive = 0
    skipped = 0
    for p in primes:
        for trial in range(12):
            d = squarefree_part(rng.randrange(-30, 31) or 1)
            a = rng.randrange(-30, 31)
            c = rng.randrange(-30, 31) or 1
            if trial % 3 == 0 and p <= 11:
                # force p | disc so deeper lifting paths are hit; for larger p
                # the needed oracle precision would blow past the budget
                c *= p
            T = Torsor(d, a, c)
            expected = _oracle_solvable(T, p)
            if expected is None:
                skipped += 1
                continue
            assert locally_solvable(T, p) == expected, (T, p)
            conclusive += 1
    assert conclusive >= 130
    assert skipped <= 50


def test_local_solvability_oracle_on_family_torsors():
    # real torsors of E_{6,pi/3} and E_{646,pi/3} at their bad primes
    for n in (6, 646):
        E = build_curve(n, PI_3)
        for d in D._torsor_classes(E, False):
            T = Torsor.build(d, E.a2, E.a4)
            for p in E.bad_primes:
                expected = _oracle_solvable(T, p)
                if expected is not None:
                    assert locally_solvable(T, p) == expected, (n, d, p)


def _is_padic_square(c, p):
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


def _zp_bfs(g, p, maxj):
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
        c = _oracle_eval(g, r)
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


def test_small_odd_route_matches_residue_tree():
    rng = random.Random(4242)
    for p in (3, 5, 7, 13, 31, 97):
        for _ in range(60):
            g = [rng.randrange(-50, 51) for _ in range(5)]
            if all(x == 0 for x in g):
                continue
            # depth 12 exceeds what any of these quartics need, so both
            # routes are complete decision procedures and must agree
            assert D._zp(g, p, 12) == _zp_bfs(g, p, 12), (g, p)


SYMBOLIC_PRIMES = (101, 103, 149, 181, 197)


def _torsor_chart(c, a, d):
    """c + a t^2 + d t^4, or None unless cd(a^2 - 4cd) != 0 as on a torsor."""
    return [c, 0, a, 0, d] if c * d * (a * a - 4 * c * d) else None


def test_symbolic_route_matches_residue_tree(monkeypatch):
    shifts = []
    shift_scale = D._shift_scale

    def spy(g, r, p):
        shifts.append(r)
        return shift_scale(g, r, p)

    monkeypatch.setattr(D, "_shift_scale", spy)
    rng = random.Random(777)
    contents = []
    for p in SYMBOLIC_PRIMES:
        for _ in range(300):
            if rng.random() < 0.6:
                # random coefficients times p^k exercise the content stripping
                # and the shifts at the root 0; the residue tree visits all
                # p^k classes of a chart with p^k content, so k stays small
                g = _torsor_chart(*(rng.randrange(-60, 61) * p ** rng.choice((0, 0, 0, 1, 2)) for _ in range(3)))
            else:
                # d (t^2 - x^2)^2 + p h has the nonzero double roots +-x mod p;
                # the Weil step leaves them to the recursion when d is a non-residue
                x, d = rng.randrange(1, p), rng.randrange(1, p)
                h0, h2, h4 = (rng.randrange(-60, 61) * p ** rng.choice((0, 1, 2)) for _ in range(3))
                g = _torsor_chart(d * x**4 + p * h0, -2 * d * x * x + p * h2, d + p * h4)
            if g is None:
                continue
            contents.append(valuation(math.gcd(*g), p))
            assert D._zp(g, p, 12) == _zp_bfs(g, p, 12), (g, p)
    assert len(contents) >= 1400
    assert sum(e >= 1 for e in contents) >= 30 and 2 in contents
    assert sum(r != 0 for r in shifts) >= 300  # recursions below a nonzero root
    assert 0 in shifts


def test_quadratic_roots_match_residue_scan():
    rng = random.Random(31)
    for p in SYMBOLIC_PRIMES:
        for kind in ("random", "double", "linear", "constant") * 25:
            x0, lc, b = rng.randrange(p), rng.randrange(1, p), rng.randrange(p)
            q = {
                "random": [rng.randrange(p), rng.randrange(p), lc],
                "double": [lc * x0 * x0 % p, -2 * lc * x0 % p, lc],  # lc (x - x0)^2
                "linear": [b, lc, 0],
                "constant": [lc, 0, 0],
            }[kind]
            for even in (False, True):
                g0 = [q[0], 0, q[1], 0, q[2]] if even else q + [0, 0]
                scan = [t for t in range(p) if _oracle_eval(g0, t) % p == 0]
                assert sorted(D._quadratic_roots(*q, p, even)) == scan, (q, p, even)


def _agrees_or_refuses(g, p):
    """_zp may refuse g with ValueError but must not give a wrong verdict."""
    try:
        verdict = D._zp(g, p, 12)
    except ValueError:
        return False
    assert verdict == _zp_bfs(g, p, 12), (g, p)
    return True


def test_symbolic_route_refuses_other_quartics():
    # At p >= 101 _zp decides the g whose reduction is q(t) or q(t^2), which
    # is every g met from a torsor chart, and raises ValueError on the rest.
    rng = random.Random(777)
    decided = refused = 0
    for p in (101, 103, 149):
        for _ in range(40):
            g = [rng.randrange(-60, 61) for _ in range(5)]
            if all(x == 0 for x in g):
                continue
            if rng.random() < 0.3:
                g = [c * p for c in g]
            if _agrees_or_refuses(g, p):
                decided += 1
            else:
                refused += 1
    assert decided and refused
    # t^k times a polynomial, monomials included: the root t = 0 answers yes
    for g in ([0, 0, 0, 0, 7], [0, 0, -1, 0, 1], [0, 5, 0, 0, 0], [0, 0, 0, 2, 5]):
        assert _agrees_or_refuses(g, 103), g
    with pytest.raises(ValueError, match="neither"):
        D._zp([1, 0, 0, 2, 5], 103, 12)


def test_p2_route_matches_residue_tree():
    rng = random.Random(2024)
    for _ in range(400):
        g = [rng.randrange(-60, 61) for _ in range(5)]
        if all(x == 0 for x in g):
            continue
        # 2, 4 and 8 times a quartic run the odd and the stripped content
        g = [c * rng.choice((1, 1, 2, 4, 8)) for c in g]
        # the residue tree pins a unit class down three levels later than
        # _zp's mod 8 scan, so it gets a deeper cap
        assert D._zp(g, 2, 12) == _zp_bfs(g, 2, 15), g
    # zero discriminant: t^2 (-114 + 2t - 58t^2) takes no nonzero square
    # value over Q_2, and its double root at t = 0 never separates, so only
    # the exact root answers yes
    g = [0, 0, -114, 2, -58]
    assert _zp_bfs(g, 2, 12) and D._zp(g, 2, 12)


def test_exhausted_depth_cap_raises():
    # w^2 = 2t^2 + 18 at p = 3: no unit square value mod 3 and a double root
    # at t = 0, decided one level down (t = 3 gives 36).  Without that level
    # the routes must raise, not answer "not solvable".
    g = [18, 0, 2, 0, 0]
    assert D._zp(g, 3, 1) and _zp_bfs(g, 3, 2)
    with pytest.raises(RuntimeError, match="depth cap"):
        D._zp(g, 3, 0)
    with pytest.raises(RuntimeError, match="depth cap"):
        _zp_bfs(g, 3, 1)
    # w^2 = (t^2 - 9)(t^2 + 1) at p = 2: no value is 1 mod 8 and t = 1 is a
    # fourfold root mod 2, decided one level down by the simple root t = 3
    g = [-9, 0, -8, 0, 1]
    assert D._zp(g, 2, 1) and _zp_bfs(g, 2, 2)
    with pytest.raises(RuntimeError, match="depth cap"):
        D._zp(g, 2, 0)
    with pytest.raises(RuntimeError, match="depth cap"):
        _zp_bfs(g, 2, 1)


@pytest.mark.parametrize("g, p", [
    ([18, -15, -7, 3, 1], 3),  # (t + 3)^2 (t - 1)(t - 2)
    ([20, -4, -15, -2, 1], 2),  # (t + 2)^2 (t - 1)(t - 5)
])
def test_capped_branch_does_not_hide_a_point(g, p):
    # The class of 0 holds the double root -p, takes no nonzero square value
    # and runs into the cap at any depth.  It is tried first; the roots in
    # the class of 1 are points, so the answer is still yes.
    with pytest.raises(RuntimeError, match="depth cap"):
        D._zp(D._shift_scale(g, 0, p), p, 12)
    assert D._zp(g, p, 12) and _zp_bfs(g, p, 12)


def _direct_verdict(T, p):
    """_zp on both charts of T, as _qp_solvable decides a torsor its verdict
    table does not hold."""
    depth = 2 * valuation(T.quartic_disc, p) + 3
    return D._zp([T.c, 0, T.a, 0, T.d], p, depth) or D._zp([T.d, 0, T.a, 0, T.c], p, depth)


def _table_key(T, p):
    kappa = Fraction(T.c * T.d, T.a * T.a)
    return (p, D._qp_class(T.d, p), D._qp_class(T.a, p), (kappa.numerator, kappa.denominator))


def test_scaled_torsors_share_the_direct_verdict():
    # (u, v, w) -> (u, v / tau, mu w) takes (d, a, c) to (mu^2 d, mu^2 tau^2 a,
    # mu^2 tau^4 c) over Q_p, so both get one verdict and one table key
    rng = random.Random(1010)
    for p in (2, 3, 5, 7, 97):
        verdicts = set()
        for _ in range(150):
            d, a, c = (rng.choice((1, -1)) * rng.randrange(1, 200) for _ in range(3))
            if a * a == 4 * d * c:
                continue
            mu, tau = (rng.choice((1, -1)) * rng.randrange(1, 30) * p ** rng.choice((0, 0, 1, 2)) for _ in range(2))
            T, S = Torsor(d, a, c), Torsor(mu * mu * d, mu * mu * tau * tau * a, mu * mu * tau**4 * c)
            assert _table_key(S, p) == _table_key(T, p), (T, S, p)
            verdict = _direct_verdict(T, p)
            assert _direct_verdict(S, p) == verdict, (T, S, p)
            verdicts.add(verdict)
        assert verdicts == {True, False}, p


@pytest.mark.slow
def test_verdict_table_matches_direct_route_on_desk_torsors(monkeypatch):
    # every torsor of squarefree n <= 3000, both angles and directions, at
    # every bad p < 101, starting from an empty table
    table = {}
    monkeypatch.setattr(D, "_QP_VERDICTS", table)
    flags = squarefree_flags(3000)
    checked = 0
    for theta in (PI_3, TWO_PI_3):
        for n in range(1, 3001):
            if not flags[n]:
                continue
            E = build_curve(n, theta)
            for dual in (False, True):
                a, b = E.side(dual)
                for d in D._torsor_classes(E, dual):
                    T = Torsor.build(d, a, b)
                    for p in E.bad_primes:
                        if p < D._SYMBOLIC_MIN_P:
                            assert locally_solvable(T, p) == _direct_verdict(T, p), (n, theta, dual, d, p)
                            checked += 1
    assert checked > 300_000
    assert 0 < len(table) <= 896
    assert {key[3] for key in table} == {(-3, 4), (1, 1)}


def test_fresh_import_builds_no_verdict_table():
    code = ("import thetacong, thetacong.pipeline, thetacong.descent as D\n"
            "assert D._QP_VERDICTS == {}, len(D._QP_VERDICTS)")
    src = pathlib.Path(D.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_global_point_certifies_torsor():
    # P1 = (-722, 34656) on E_{646,pi/3} has first descent class -2, so the
    # d = -2 torsor must be solvable everywhere
    E = build_curve(646, PI_3)
    T = Torsor.build(-2, E.a2, E.a4)
    assert locally_solvable(T, REAL_PLACE)
    for p in E.bad_primes:
        assert locally_solvable(T, p)


# ---------------------------------------------------------------------------
# Selmer sets and ranks


def test_selmer_set_contains_identity_and_b_class():
    for n, theta in ((6, PI_3), (646, PI_3), (221, TWO_PI_3), (14, TWO_PI_3)):
        E = build_curve(n, theta)
        for dual in (False, True):
            b = E.side(dual)[1]
            S = phi_selmer(E, dual=dual)
            assert 1 in S
            assert squarefree_part(b) in S


def test_selmer_set_subgroup_closure():
    for n, theta in ((6, PI_3), (39, PI_3), (646, PI_3), (221, TWO_PI_3), (12710, TWO_PI_3)):
        E = build_curve(n, theta)
        for dual in (False, True):
            S = phi_selmer(E, dual=dual)
            for d1 in S:
                for d2 in S:
                    assert class_mul(d1, d2) in S


def test_selmer_rank_small_values():
    assert selmer_rank(build_curve(1, PI_3)) == 0
    assert selmer_rank(build_curve(6, PI_3)) == 1
    assert selmer_rank(build_curve(39, PI_3)) == 2
    assert selmer_rank(build_curve(5, TWO_PI_3)) == 1
    assert selmer_rank(build_curve(14, TWO_PI_3)) == 2


def test_selmer_rank_published_small():
    assert selmer_rank(build_curve(407, PI_3)) == 3
    assert selmer_rank(build_curve(221, TWO_PI_3)) == 3
    assert selmer_rank(build_curve(4718, TWO_PI_3)) == 4
    assert selmer_rank(build_curve(6398, TWO_PI_3)) == 4


def test_selmer_order_product_e646():
    E = build_curve(646, PI_3)
    s1 = phi_selmer(E, dual=False)
    s2 = phi_selmer(E, dual=True)
    assert len(s1) * len(s2) == 2 ** (3 + 2)


def test_selmer_order_product_e221():
    E = build_curve(221, TWO_PI_3)
    s1 = phi_selmer(E, dual=False)
    s2 = phi_selmer(E, dual=True)
    assert len(s1) * len(s2) == 2**5


def test_twist_image_matches_engine_on_desk_torsors():
    # the closed form against the p-adic engine on every family torsor at
    # every bad p >= 5, squarefree n <= 3000, both angles and directions
    flags, pairs = squarefree_flags(3000), 0
    for theta in (PI_3, TWO_PI_3):
        for n in range(1, 3001):
            if not flags[n]:
                continue
            E = build_curve(n, theta)
            for dual in (False, True):
                a, b = E.side(dual)
                for p in (p for p in E.bad_primes if p >= 5):
                    image = D._twist_image(E, dual, p)
                    for d in D._torsor_classes(E, dual):
                        assert (D._qp_class(d, p) in image) == locally_solvable(Torsor.build(d, a, b), p), \
                            (n, theta.name, dual, d, p)
                        pairs += 1
    assert pairs == 210_576


def test_selmer_set_asks_the_engine_only_at_r_2_and_3(monkeypatch):
    curves = [build_curve(n, theta) for theta in (PI_3, TWO_PI_3)
              for n in [*range(1, 400), *(e.n for e in PUBLISHED if e.theta == theta)] if is_squarefree(n)]
    expected = {(E.n, E.theta.name, dual): selmer_set(E, dual) for E in curves for dual in (False, True)}
    asked = set()

    def recorder(T, place):
        asked.add(place)
        return locally_solvable(T, place)

    monkeypatch.setattr(D, "locally_solvable", recorder)
    for E in curves:
        for dual in (False, True):
            assert selmer_set(E, dual) == expected[E.n, E.theta.name, dual]
    assert asked == {REAL_PLACE, 2, 3}


def test_selmer_set_matches_engine_off_the_two_angles():
    # the closed form covers any angle, and a p with p^2 | n goes to the engine
    curves = [build_curve(n, theta) for theta in (ThetaParams(5, 3), ThetaParams(7, 2), ThetaParams(9, -4))
              for n in range(1, 200) if is_squarefree(n)]
    curves += [CurveQ(n, theta, tuple(sorted({2, 3, *factorize(n).primes()})))
               for n in (12, 50, 75, 98, 363, 1250, 3185) for theta in (PI_3, TWO_PI_3)]
    for E in curves:
        for dual in (False, True):
            engine = {d for d, verdicts in torsor_verdicts(E, dual) if verdicts[-1][1]}
            assert set(selmer_set(E, dual)) == engine, (E.n, E.theta, dual)


def test_selmer_set_brute_reference():
    # re-derive one small Selmer set without the coset pruning
    E = build_curve(39, PI_3)
    places = E.bad_primes
    brute = set()
    for d in D._torsor_classes(E, False):
        T = Torsor.build(d, E.a2, E.a4)
        if locally_solvable(T, REAL_PLACE) and all(locally_solvable(T, p) for p in places):
            brute.add(d)
    assert brute == set(selmer_set(E))


# ---------------------------------------------------------------------------
# descent images and rank bounds


def test_descent_image_published_example():
    E = build_curve(646, PI_3)
    P = PointQ.affine(-722, 34656)
    assert descent_image(P, E) == (-2, -38, 19)


def _oracle_descent_image(P, E):
    # each class x - e_i by factoring, the vanishing slot completed by the
    # product of the other two
    classes = [squarefree_part((P.x - e).numerator * (P.x - e).denominator) for e in E.two_torsion_x if P.x != e]
    if len(classes) == 2:
        i = E.two_torsion_x.index(P.x)
        classes.insert(i, squarefree_part(classes[0] * classes[1]))
    return tuple(classes)


def test_descent_image_matches_factoring_oracle():
    for entry in PUBLISHED:
        E = build_curve(entry.n, entry.theta)
        for P in entry.generator_points() + [PointQ.affine(e, 0) for e in E.two_torsion_x]:
            assert descent_image(P, E) == _oracle_descent_image(P, E), (entry.n, P)


def test_descent_image_at_torsion():
    E = build_curve(6, PI_3)
    assert descent_image(PointQ.affine(0, 0), E) == (-3, -6, 2)
    with pytest.raises(ValueError):
        descent_image(INFINITY, E)


def test_descent_image_of_doubles_is_trivial():
    E = build_curve(646, PI_3)
    for G in (PointQ.affine(-722, 34656), PointQ.affine(6137, 521645)):
        Q = scalar_mul(2, G, E)
        assert descent_image(Q, E) == (1, 1, 1)


def test_descent_image_product_trivial():
    E = build_curve(646, PI_3)
    rng = random.Random(3)
    gens = [PointQ.affine(-722, 34656), PointQ.affine(6137, 521645), PointQ.affine(-1216, 40432)]
    for _ in range(20):
        P = INFINITY
        for G in gens:
            P = add(P, scalar_mul(rng.randrange(-2, 3), G, E), E)
        if P.is_infinity:
            continue
        t1, t2, t3 = descent_image(P, E)
        assert class_mul(class_mul(t1, t2), t3) == 1


def test_descent_image_homomorphism():
    E = build_curve(646, PI_3)
    rng = random.Random(12)
    gens = [PointQ.affine(-722, 34656), PointQ.affine(6137, 521645), PointQ.affine(0, 0)]
    pts = []
    for _ in range(16):
        P = INFINITY
        for G in gens:
            P = add(P, scalar_mul(rng.randrange(-2, 3), G, E), E)
        if not P.is_infinity:
            pts.append(P)
    for _ in range(60):
        P, Q = rng.choice(pts), rng.choice(pts)
        R = add(P, Q, E)
        if R.is_infinity:
            continue
        ip, iq, ir = descent_image(P, E), descent_image(Q, E), descent_image(R, E)
        assert ir == tuple(class_mul(x, y) for x, y in zip(ip, iq))


def test_rank_lower_bound_examples():
    E = build_curve(646, PI_3)
    gens = [PointQ.affine(-722, 34656), PointQ.affine(6137, 521645), PointQ.affine(-1216, 40432)]
    assert rank_lower_bound(gens, E) == 3
    assert rank_lower_bound([], E) == 0
    E6 = build_curve(6, PI_3)
    assert rank_lower_bound([PointQ.affine(-2, 16)], E6) == 1
    # torsion alone contributes nothing
    assert rank_lower_bound([PointQ.affine(0, 0)], E6) == 0


def test_rank_lower_bound_rejects_off_curve():
    E = build_curve(6, PI_3)
    with pytest.raises(ValueError):
        rank_lower_bound([PointQ.affine(1, 1)], E)


def test_rank_lower_bound_is_stable_under_torsion_translates():
    E = build_curve(646, PI_3)
    gens = [PointQ.affine(-722, 34656), PointQ.affine(6137, 521645)]
    shifted = [add(P, PointQ.affine(0, 0), E) for P in gens]
    assert rank_lower_bound(gens, E) == rank_lower_bound(shifted, E) == 2


# ---------------------------------------------------------------------------
# point search


def test_search_points_finds_small_generator():
    E = build_curve(6, PI_3)
    pts = search_points(E, 50)
    assert PointQ.affine(-2, 16) in pts
    for P in pts:
        assert is_on_curve(P, E)
        assert P.y != 0


def test_search_points_rank_zero_curve():
    E = build_curve(1, PI_3)
    assert search_points(E, 100) == []


def test_search_points_rejects_bad_bounds():
    E = build_curve(6, PI_3)
    with pytest.raises(ValueError, match="height_bound"):
        search_points(E, 0)
    with pytest.raises(ValueError, match="torsor_bound"):
        search_points(E, 50, torsor_bound=-3)


def test_search_points_finds_published_x():
    E = build_curve(646, PI_3)
    pts = search_points(E, 1000, torsor_bound=0)
    assert any(P.x == -722 for P in pts)


def test_found_point_classes_lie_in_selmer_set():
    for n, theta in ((6, PI_3), (39, PI_3), (646, PI_3), (14, TWO_PI_3)):
        E = build_curve(n, theta)
        S = phi_selmer(E, dual=False)
        for P in search_points(E, 200, torsor_bound=40):
            if P.x != 0:
                assert D._square_class(P.x, E.bad_primes) in S


def _oracle_x_points(E, mmax, emax):
    # every x = m/e^2 tried exactly, no residue filter
    for e in range(1, emax + 1):
        for m in range(-mmax, mmax + 1):
            v = m * (m * m + E.a2 * e * e * m + E.a4 * e**4)
            if m and math.gcd(m, e) == 1 and v > 0 and is_square(v):
                yield PointQ(Fraction(m, e * e), Fraction(math.isqrt(v), e**3))


def _oracle_torsor_points(E, bound):
    # every coprime (u, v) on every Selmer torsor tried exactly
    for dual in (False, True):
        a, b = E.side(dual)
        for d in phi_selmer(E, dual):
            for u in range(1, bound + 1):
                for v in range(1, bound + 1):
                    val = d * u**4 + a * u * u * v * v + b // d * v**4
                    if math.gcd(u, v) > 1 or val <= 0 or not is_square(val):
                        continue
                    X, Y = Fraction(d * u * u, v * v), Fraction(d * u * math.isqrt(val), v**3)
                    if not dual:
                        yield PointQ(X, Y)
                    elif X and Y:
                        yield PointQ(Y * Y / (4 * X * X), Y * (X * X - b) / (8 * X * X))


def _oracle_search(E, height_bound, torsor_bound):
    pts = {(P.x, P.y): P for P in [*_oracle_x_points(E, height_bound, height_bound),
                                   *_oracle_torsor_points(E, torsor_bound)]
           if P.y != 0 and is_on_curve(P, E) and not is_torsion(P, E)}
    height = lambda P: max(abs(P.x.numerator), P.x.denominator)  # noqa: E731
    return sorted(pts.values(), key=lambda P: (height(P), P.x, P.y))


def test_search_points_matches_unsieved_oracle():
    flags = squarefree_flags(200)
    cases = [(n, theta, 80, 20) for theta in (PI_3, TWO_PI_3) for n in range(1, 201) if flags[n]]
    # x searches that reach negative classes d | b (x = -2, -19, -51 on
    # E_{646,pi/3}; -1, -13, -51 on E_{221,2pi/3})
    cases += [(646, PI_3, 300, 0), (221, TWO_PI_3, 300, 0)]
    for n, theta, height_bound, torsor_bound in cases:
        E = build_curve(n, theta)
        expected = _oracle_search(E, height_bound, torsor_bound)
        assert search_points(E, height_bound, torsor_bound) == expected, (n, theta.name)
        assert torsor_bound or any(P.x < 0 for P in expected)


def test_search_points_matches_oracle_on_records():
    # coefficients near 1e23 must be reduced before they enter int64
    # arithmetic; each bound pair reaches one torsor point of the record
    for n, torsor_bound in ((11229594411, 100), (365803464586, 80)):
        E = build_curve(n, PI_3)
        pts = search_points(E, 40, torsor_bound)
        assert len(pts) == 1 and pts == _oracle_search(E, 40, torsor_bound), n


def test_has_small_nontorsion_point_matches_oracle():
    flags = squarefree_flags(150)
    cases = [(n, theta, 400) for theta in (PI_3, TWO_PI_3) for n in range(1, 151) if flags[n]]
    # the ten largest n <= 1e5 whose curve has Selmer rank 0 and b three
    # odd primes or more, so many classes d | b with |d| <= 1000
    cases += [(n, theta, 1000) for n, theta in (
        (99995, TWO_PI_3), (99974, PI_3), (99883, PI_3), (99869, PI_3), (99827, TWO_PI_3),
        (99731, TWO_PI_3), (99674, TWO_PI_3), (99554, PI_3), (99491, TWO_PI_3), (99435, TWO_PI_3))]
    for n, theta, xheight in cases:
        E = build_curve(n, theta)
        expected = any(not is_torsion(P, E) for P in _oracle_x_points(E, xheight, math.isqrt(xheight)))
        assert has_small_nontorsion_point(E, xheight) == expected, (n, theta.name)
        if xheight == 1000:
            assert selmer_rank(E) == 0 and not expected


def test_has_small_nontorsion_point_consistency():
    for n, theta, expected in ((6, PI_3, True), (5, TWO_PI_3, True), (1, PI_3, False), (2, PI_3, False)):
        E = build_curve(n, theta)
        assert has_small_nontorsion_point(E, 1000) == expected


def test_descent_reads_places_without_factoring(monkeypatch):
    # Selmer sets, torsor verdicts, the torsor sweep and the rank bound take
    # their primes from the curve; only build_curve factors
    curves = [build_curve(n, theta) for n, theta in ((6, PI_3), (646, PI_3), (221, TWO_PI_3), (365803464586, PI_3))]

    def refuse(m):
        raise AssertionError(f"descent factored {m}")

    monkeypatch.setattr(D, "factorize", refuse)
    for E in curves:
        assert selmer_rank(E) >= 0
        for dual in (False, True):
            assert phi_selmer(E, dual)
            assert torsor_verdicts(E, dual)
        pts = search_points(E, 200, 40)
        entry = find_published(E.n, E.theta)
        gens = entry.generator_points() if entry else []
        assert rank_lower_bound(pts + gens, E) >= len(gens)
        # a curve whose bad_primes miss a prime of b or of a^2 - 4b is never built
        with pytest.raises(ValueError, match="miss a prime"):
            dataclasses.replace(E, bad_primes=E.bad_primes[:-1])


def test_selmer_sets_rank_and_points_agree():
    for n, theta in ((6, PI_3), (39, PI_3), (1, PI_3), (14, TWO_PI_3)):
        E = build_curve(n, theta)
        s = selmer_rank(E)
        assert len(phi_selmer(E)) * len(phi_selmer(E, dual=True)) == 2 ** (s + 2)
        pts = search_points(E, 200, torsor_bound=40)
        assert 0 <= rank_lower_bound(pts, E) <= s
        for P in pts:
            assert is_on_curve(P, E)


def test_small_anchor_ranks_pinned():
    for n, theta, rank in ((6, PI_3, 1), (39, PI_3, 2), (5, TWO_PI_3, 1), (14, TWO_PI_3, 2)):
        E = build_curve(n, theta)
        assert rank_lower_bound(search_points(E, 400, torsor_bound=60), E) == selmer_rank(E) == rank
