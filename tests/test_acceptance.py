"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Tolerances: criteria 1-6 are exact integer/bit-exact checks; criterion 7 uses
the strict inequalities S(10^3) > 15, S(10^4) > 20, S(10^5) > 40; criterion 8
re-runs compact versions of the property suites (the full versions live in
the other test modules and always run).

The full 5e6 tally reproduction is opt-in: set THETACONG_FULL_TABLE1=1
(hours of single-core runtime).
"""

import os
import random

import pytest

from thetacong.arith import primes_below, squarefree_count
from thetacong.curves import (
    INFINITY,
    PI_3,
    TWO_PI_3,
    PointQ,
    add,
    build_curve,
    has_good_reduction,
    is_on_curve,
    negate,
    scalar_mul,
)
from thetacong.dataset import (
    PUBLISHED,
    SMALL_RANKS,
    SQUAREFREE_TOTAL_5E6,
    TABLE1,
)
from thetacong.descent import (
    IsogenyPair,
    class_mul,
    descent_image,
    phi_selmer,
    rank_lower_bound,
    search_points,
    selmer_rank,
)
from thetacong.nagao import nagao_sum, nagao_sum_form1, passes_filter
from thetacong.pointcount import count_points
from thetacong.pipeline import (
    check_s0_has_no_small_point,
    run_sweep,
    selmer_tally,
)


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_golden_curves(capsys):
    """Every published curve matches bit-exactly and every generator lies on
    its curve (exact rational arithmetic, zero tolerance)."""
    bad = []
    n_gens = 0
    for entry in PUBLISHED:
        E = build_curve(entry.n, entry.theta)
        if (E.a2, E.a4) != (entry.a2, entry.a4):
            bad.append(f"{entry.n}: coefficients")
        for P in entry.generator_points():
            n_gens += 1
            if not is_on_curve(P, E):
                bad.append(f"{entry.n}: generator {P}")
    detail = f"{len(PUBLISHED)} curves, {n_gens} generators bit-exact" if not bad else "; ".join(bad)
    _report(capsys, 1, not bad, detail)


def test_criterion_2_rank_lower_bounds(capsys):
    """rank_lower_bound over the published generators reproduces the exact
    published ranks 3,4,5,6,7 (pi/3) and 3,4,5,6 (2pi/3)."""
    got = {}
    for entry in PUBLISHED:
        E = build_curve(entry.n, entry.theta)
        got[(entry.theta.name, entry.n)] = rank_lower_bound(entry.generator_points(), E)
    expected = {(e.theta.name, e.n): e.rank for e in PUBLISHED}
    by_theta = {
        "pi/3": sorted(v for (t, _), v in got.items() if t == "pi/3"),
        "2pi/3": sorted(v for (t, _), v in got.items() if t == "2pi/3"),
    }
    ok = got == expected and by_theta == {"pi/3": [3, 4, 5, 6, 7], "2pi/3": [3, 4, 5, 6]}
    _report(capsys, 2, ok, f"pi/3 bounds {by_theta['pi/3']}, 2pi/3 bounds {by_theta['2pi/3']}")


def test_criterion_3_selmer_ranks(capsys):
    """Exact Selmer ranks for the quoted curves."""
    targets = [
        (407, PI_3, 3),
        (646, PI_3, 3),
        (172081, PI_3, 4),
        (221746, PI_3, 5),
        (221, TWO_PI_3, 3),
        (12710, TWO_PI_3, 4),
    ]
    results = [(n, theta.name, selmer_rank(build_curve(n, theta)), want) for n, theta, want in targets]
    bad = [r for r in results if r[2] != r[3]]
    detail = ", ".join(f"s({n},{t})={s}" for n, t, s, _ in results)
    _report(capsys, 3, not bad, detail)


def test_criterion_4_small_anchors_pinned(capsys):
    """Rank certificates from found points meet the matching Selmer upper
    bounds, pinning the rank of the four small anchor curves exactly."""
    rows = []
    ok = True
    for n, theta, rank in SMALL_RANKS:
        E = build_curve(n, theta)
        s = selmer_rank(E)
        pts = search_points(E, 400, torsor_bound=60)
        lb = rank_lower_bound(pts, E) if pts else 0
        rows.append(f"n={n} ({theta.name}): {lb} <= rank <= {s}, published {rank}")
        ok = ok and lb == s == rank
    _report(capsys, 4, ok, "; ".join(rows))


def test_criterion_5_squarefree_census(capsys):
    """Exact count of squarefree n <= 5e6."""
    count = squarefree_count(5 * 10**6)
    _report(capsys, 5, count == SQUAREFREE_TOTAL_5E6,
            f"squarefree count to 5e6 = {count} (reference {SQUAREFREE_TOTAL_5E6})")


@pytest.mark.slow
def test_criterion_6_desk_scale_tally(capsys):
    """Selmer tally for squarefree n <= 1e5, both angles: cells partition the
    squarefree count, and no Selmer-0 curve has a non-torsion point of
    x-height below 1e3."""
    bound = 10**5
    sf = squarefree_count(bound)
    details = []
    ok = True
    for theta in (PI_3, TWO_PI_3):
        recs = list(run_sweep(1, bound, theta, report_selmer_min=10**9))
        tally = selmer_tally(recs)
        consistent = tally["total"] == sf and sum(tally["cells"]) == sf
        offenders = check_s0_has_no_small_point(recs, xheight=1000)
        ok = ok and consistent and not offenders
        details.append(
            f"{theta.name}: cells {tally['cells']} total {tally['total']} "
            f"(squarefree {sf}), selmer-0 offenders {offenders}"
        )
    _report(capsys, 6, ok, "; ".join(details))


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("THETACONG_FULL_TABLE1") != "1",
    reason="full 5e6 tally is opt-in (set THETACONG_FULL_TABLE1=1; hours of runtime)",
)
def test_criterion_6_full_tally_stretch(capsys):
    """Opt-in stretch: the full 5e6 tallies against the reference rows, with
    any differing cells itemized."""
    bound = 5 * 10**6
    mism = []
    details = []
    for theta in (PI_3, TWO_PI_3):
        recs = run_sweep(1, bound, theta, report_selmer_min=10**9)
        tally = selmer_tally(recs)
        ref = TABLE1[theta.name]
        details.append(f"{theta.name}: {tally['cells']} vs reference {ref}")
        if tally["cells"] != ref:
            mism.append(theta.name)
    _report(capsys, "6-stretch", not mism, "; ".join(details))


@pytest.mark.slow
def test_criterion_7_nagao_filter(capsys):
    """The record curves pass all three staged thresholds strictly; the
    literal 2pi/3 headline value 4562490669 fails stage one, consistent with
    its coefficients belonging to n = 456249066."""
    targets = [
        (365803464586, PI_3),
        (11229594411, PI_3),
        (456249066, TWO_PI_3),
    ]
    rows = []
    ok = True
    for n, theta in targets:
        passed, values = passes_filter(build_curve(n, theta))
        vals = ", ".join(f"S({N})={v:.1f}" for N, v in sorted(values.items()))
        rows.append(f"n={n} ({theta.name}): {vals}")
        ok = ok and passed and values[1000] > 15 and values[10**4] > 20 and values[10**5] > 40
    literal_passed, lit_vals = passes_filter(build_curve(4562490669, TWO_PI_3))
    rows.append(f"literal 4562490669 fails stage one (S(1000)={lit_vals[1000]:.1f})")
    ok = ok and not literal_passed
    _report(capsys, 7, ok, "; ".join(rows))


def test_criterion_8_property_suites(capsys):
    """Compact always-on property battery; the full versions run in the
    per-module test files."""
    rng = random.Random(88)
    notes = []

    # group-law axioms on sampled points
    E = build_curve(646, PI_3)
    gens = [PointQ.affine(-722, 34656), PointQ.affine(6137, 521645), PointQ.affine(0, 0)]
    pts = []
    for _ in range(8):
        P = INFINITY
        for G in gens:
            P = add(P, scalar_mul(rng.randrange(-2, 3), G, E), E)
        pts.append(P)
    for P in pts:
        assert add(P, negate(P), E) == INFINITY
        for Q in pts:
            assert add(P, Q, E) == add(Q, P, E)
    P, Q, R = pts[0], pts[3], pts[5]
    assert add(add(P, Q, E), R, E) == add(P, add(Q, R, E), E)
    notes.append("group law")

    # Hasse bound and 4 | Np
    for n, theta in ((6, PI_3), (221, TWO_PI_3)):
        En = build_curve(n, theta)
        for p in primes_below(500):
            if p == 2 or not has_good_reduction(En, p):
                continue
            lc = count_points(En, p)
            assert lc.ap * lc.ap <= 4 * p
            assert lc.Np % 4 == 0
    notes.append("Hasse + 4|Np")

    # the two sum forms agree to 1e-12 relative error
    for n, theta in ((39, PI_3), (14, TWO_PI_3), (221, TWO_PI_3)):
        En = build_curve(n, theta)
        a, b = nagao_sum(En, 300), nagao_sum_form1(En, 300)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
    notes.append("sum forms equal")

    # descent homomorphism
    for _ in range(30):
        A, B = rng.choice(pts), rng.choice(pts)
        C = add(A, B, E)
        if A.is_infinity or B.is_infinity or C.is_infinity:
            continue
        ia, ib, ic = (descent_image(X, E) for X in (A, B, C))
        assert ic == tuple(class_mul(x, y) for x, y in zip(ia, ib))
    notes.append("descent homomorphism")

    # Selmer subgroup closure
    for n, theta in ((646, PI_3), (12710, TWO_PI_3)):
        pair = IsogenyPair.from_curve(build_curve(n, theta))
        for dual in (False, True):
            S = phi_selmer(pair, dual=dual)
            assert 1 in S
            assert all(class_mul(d1, d2) in S for d1 in S for d2 in S)
    notes.append("Selmer closure")

    # Hensel vs brute-force local solvability for p < 50
    from test_descent import _oracle_solvable
    from thetacong.descent import Torsor, locally_solvable
    from thetacong.arith import squarefree_part
    conclusive = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for _ in range(4):
            T = Torsor(squarefree_part(rng.randrange(-25, 26) or 1),
                       rng.randrange(-25, 26), rng.randrange(-25, 26) or 1)
            want = _oracle_solvable(T, p)
            if want is None:
                continue
            assert locally_solvable(T, p) == want
            conclusive += 1
    assert conclusive >= 45
    notes.append(f"local solvability oracle ({conclusive} cases)")

    # rank_lb <= selmer on pipeline records
    checked = 0
    for rec in run_sweep(1, 150, PI_3, report_selmer_min=1, height_bound=100, torsor_bound=20):
        if rec.rank_lb is not None:
            assert rec.rank_lb <= rec.selmer
            checked += 1
    assert checked > 0
    notes.append(f"rank_lb <= selmer ({checked} records)")

    _report(capsys, 8, True, "; ".join(notes))
