"""Curve family construction and exact group-law tests."""

import random
from fractions import Fraction

import pytest

from thetacong.arith import factorize, primes_below
from thetacong.curves import (
    INFINITY,
    PI_3,
    TWO_PI_3,
    CurveQ,
    PointQ,
    ThetaParams,
    add,
    build_curve,
    has_good_reduction,
    is_on_curve,
    negate,
    point_from_strings,
    point_to_strings,
    scalar_mul,
    theta_from_name,
    two_torsion,
)
from thetacong.dataset import PUBLISHED


def test_theta_params_validation():
    assert PI_3.r == 2 and PI_3.s == 1
    assert TWO_PI_3.r == 2 and TWO_PI_3.s == -1
    assert PI_3.alpha_sq == 3 and TWO_PI_3.alpha_sq == 3
    with pytest.raises(ValueError):
        ThetaParams(2, 2)
    with pytest.raises(ValueError):
        ThetaParams(4, 2)
    with pytest.raises(ValueError):
        ThetaParams(0, 0)


def test_theta_from_name():
    assert theta_from_name("pi/3") is PI_3
    assert theta_from_name("2pi/3") is TWO_PI_3
    assert theta_from_name(" 2 Pi/3 ") is TWO_PI_3
    with pytest.raises(ValueError):
        theta_from_name("pi/4")


def test_build_curve_coefficients():
    E = build_curve(646, PI_3)
    assert (E.a2, E.a4) == (1292, -1251948)
    E = build_curve(221, TWO_PI_3)
    assert (E.a2, E.a4) == (-442, -146523)
    E = build_curve(1, PI_3)
    assert (E.a2, E.a4) == (2, -3)


def test_build_curve_rejects_bad_n():
    with pytest.raises(ValueError):
        build_curve(4, PI_3)
    with pytest.raises(ValueError):
        build_curve(12, TWO_PI_3)
    with pytest.raises(ValueError):
        build_curve(0, PI_3)
    with pytest.raises(ValueError):
        build_curve(-5, PI_3)


def test_disc_canonical_formula():
    for n in (1, 2, 6, 39, 646, 221):
        for theta in (PI_3, TWO_PI_3):
            E = build_curve(n, theta)
            assert E.disc == 2304 * n**6
            assert set(E.bad_primes) <= {2, 3} | set(factorize(n).primes())
            assert list(E.bad_primes) == sorted(set(E.bad_primes))


def test_cubic_factors_through_torsion_roots():
    for n in (1, 5, 646):
        for theta in (PI_3, TWO_PI_3):
            E = build_curve(n, theta)
            e1, e2, e3 = E.two_torsion_x
            assert len({e1, e2, e3}) == 3
            for e in (e1, e2, e3):
                assert E.rhs(e) == 0
            # Vieta: e1+e2+e3 = -a2, pairwise sum product = a4
            assert e1 + e2 + e3 == -E.a2
            assert e1 * e2 + e1 * e3 + e2 * e3 == E.a4


def test_is_on_curve_examples():
    E = build_curve(646, PI_3)
    assert is_on_curve(PointQ.affine(-722, 34656), E)
    assert is_on_curve(INFINITY, E)
    assert not is_on_curve(PointQ.affine(1, 1), build_curve(1, PI_3))


def test_two_torsion_examples():
    E = build_curve(6, PI_3)
    assert set(E.two_torsion_x) == {0, 6, -18}
    E = build_curve(221, TWO_PI_3)
    assert set(E.two_torsion_x) == {0, 663, -221}
    pts = two_torsion(E)
    assert len(pts) == 4
    for T in pts:
        assert T.is_infinity or T.y == 0
        assert is_on_curve(T, E)
        assert add(T, T, E) == INFINITY


def test_add_identity_and_two_torsion():
    E = build_curve(6, PI_3)
    P = PointQ.affine(-2, 16)
    assert add(P, INFINITY, E) == P
    assert add(INFINITY, P, E) == P
    O2 = PointQ.affine(0, 0)
    assert add(O2, O2, E) == INFINITY
    assert add(P, negate(P), E) == INFINITY


def _third_intersection_oracle(P, Q, E):
    """Independent chord oracle: the line through P and Q (P.x != Q.x) meets
    the curve at a third point whose x is ν²/(a4-free Vieta product) route:
    the cubic x³ + (a2-λ²)x² + (a4-2λν)x - ν² has roots x_P, x_Q, x_3."""
    lam = (Q.y - P.y) / (Q.x - P.x)
    nu = P.y - lam * P.x
    # sum of roots = λ² - a2
    x3 = lam * lam - E.a2 - P.x - Q.x
    # cross-check with the product of roots = ν²
    if P.x != 0 and Q.x != 0:
        assert P.x * Q.x * x3 == nu * nu
    y3 = lam * x3 + nu
    return PointQ(x3, -y3)


def test_add_matches_chord_oracle():
    E = build_curve(646, PI_3)
    P = PointQ.affine(-722, 34656)
    Q = PointQ.affine(6137, 521645)
    R = add(P, Q, E)
    assert is_on_curve(R, E)
    assert R == _third_intersection_oracle(P, Q, E)


def _sample_points(E, gens, count, rng):
    pts = []
    for _ in range(count):
        P = INFINITY
        for G in gens:
            P = add(P, scalar_mul(rng.randrange(-3, 4), G, E), E)
        pts.append(P)
    return pts

def test_group_law_axioms_sampled():
    E = build_curve(646, PI_3)
    gens = [PointQ.affine(-722, 34656), PointQ.affine(6137, 521645), PointQ.affine(0, 0)]
    rng = random.Random(99)
    pts = _sample_points(E, gens, 12, rng)
    for P in pts:
        assert is_on_curve(P, E)
        assert add(P, negate(P), E) == INFINITY
        for Q in pts:
            assert add(P, Q, E) == add(Q, P, E)
    for _ in range(25):
        P, Q, R = (pts[rng.randrange(len(pts))] for _ in range(3))
        assert add(add(P, Q, E), R, E) == add(P, add(Q, R, E), E)


def test_scalar_mul_consistency():
    E = build_curve(6, PI_3)
    P = PointQ.affine(-2, 16)
    acc = INFINITY
    for k in range(8):
        assert scalar_mul(k, P, E) == acc
        assert is_on_curve(acc, E)
        acc = add(acc, P, E)
    assert scalar_mul(-3, P, E) == negate(scalar_mul(3, P, E))


def test_has_good_reduction():
    E = build_curve(6, PI_3)
    assert has_good_reduction(E, 5)
    assert not has_good_reduction(E, 3)
    for n in (1, 6, 221):
        for theta in (PI_3, TWO_PI_3):
            assert not has_good_reduction(build_curve(n, theta), 2)
    # bad_primes is the support of the discriminant
    for entry in PUBLISHED:
        E = build_curve(entry.n, entry.theta)
        for p in primes_below(1000):
            assert has_good_reduction(E, p) == (E.disc % p != 0), (entry.n, p)


def test_point_serialization_roundtrip():
    pts = [
        INFINITY,
        PointQ.affine(-722, 34656),
        PointQ(Fraction(904103532759, 25), Fraction(-992069570757491352, 125)),
    ]
    for P in pts:
        assert point_from_strings(point_to_strings(P)) == P
    assert point_to_strings(PointQ.affine(-722, 34656)) == ["-722", "34656"]
    assert point_to_strings(pts[2]) == ["904103532759/25", "-992069570757491352/125"]
