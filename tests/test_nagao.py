"""Mestre-Nagao sum tests: closed-form small cases, equality of the two sum
forms, the staged filter's lazy evaluation, the newform table against point
counting, and the errors for angles and bounds the table does not serve."""

import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import thetacong.nagao as nagao
from thetacong.arith import is_squarefree, primes_below
from thetacong.curves import PI_3, TWO_PI_3, ThetaParams, build_curve, has_good_reduction
from thetacong.dataset import PUBLISHED
from thetacong.pointcount import count_points
from thetacong.nagao import (
    DEFAULT_STAGES,
    SieveConfig,
    nagao_sum,
    nagao_sum_form1,
    passes_filter,
)


def test_empty_sum_below_3():
    E = build_curve(6, PI_3)
    assert nagao_sum(E, 3) == 0.0
    assert passes_filter(E, SieveConfig(((1, -1.0),))) == (True, {1: 0.0})


def test_single_term_at_5():
    # E_{6,pi/3} has N_5 = 8, a_5 = -2, so S(6) = (2 - (-2))/8 * ln 5
    E = build_curve(6, PI_3)
    expected = 0.5 * math.log(5)
    assert nagao_sum(E, 6) == pytest.approx(expected, rel=1e-15)


def test_rejects_tiny_bound():
    with pytest.raises(ValueError):
        nagao_sum(build_curve(6, PI_3), 1)


def test_two_forms_agree():
    # the (2 - a_p)/N_p and (1 - (p-1)/N_p) forms are algebraically equal
    ns = [n for n in range(1, 200) if build_curve_ok(n)][:50]
    for i, n in enumerate(ns):
        theta = PI_3 if i % 2 == 0 else TWO_PI_3
        E = build_curve(n, theta)
        s2 = nagao_sum(E, 200)
        s1 = nagao_sum_form1(E, 200)
        assert s1 == pytest.approx(s2, rel=1e-12, abs=1e-12)


def build_curve_ok(n):
    from thetacong.arith import is_squarefree

    return is_squarefree(n)


def test_determinism():
    E = build_curve(221, TWO_PI_3)
    vals = {nagao_sum(E, 5000) for _ in range(3)}
    assert len(vals) == 1


def test_passes_filter_lazy_stages():
    # rank-0 curve fails the first stage and later stages are not evaluated
    E = build_curve(1, PI_3)
    ok, values = passes_filter(E)
    assert not ok
    assert set(values) == {1000}
    assert values[1000] <= 15.0


def test_passes_filter_trivial_thresholds():
    E = build_curve(1, PI_3)
    cfg = SieveConfig(((100, -math.inf), (200, -math.inf)))
    ok, values = passes_filter(E, cfg)
    assert ok
    assert set(values) == {100, 200}


def test_passes_filter_values_match_nagao_sum():
    E = build_curve(39, PI_3)
    cfg = SieveConfig(((100, -math.inf), (1000, -math.inf)))
    ok, values = passes_filter(E, cfg)
    assert ok
    for N, v in values.items():
        assert v == pytest.approx(nagao_sum(E, N), rel=1e-12)


def test_sieve_config_validation():
    with pytest.raises(ValueError):
        SieveConfig(((1000, 15.0), (1000, 20.0)))
    with pytest.raises(ValueError):
        SieveConfig(((10000, 15.0), (1000, 20.0)))
    assert SieveConfig().stages == DEFAULT_STAGES


# ---------------------------------------------------------------------------
# the level-24 newform table against point counting

def _random_squarefree(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi)
        if is_squarefree(n):
            return n


def _twist_curves():
    """The published curves, random squarefree n for each angle, and for each
    angle one n above 2^63."""
    rng = random.Random(2024)
    curves = [build_curve(e.n, e.theta) for e in PUBLISHED]
    for theta in (PI_3, TWO_PI_3):
        curves += [build_curve(_random_squarefree(rng, 1, 10**12), theta) for _ in range(9)]
    big = 1
    for p in primes_below(100)[2:]:
        if big > 2**64:
            break
        big *= p
    curves += [build_curve(big, PI_3), build_curve(big, TWO_PI_3)]
    return curves


@pytest.mark.slow
def test_newform_coefficients_match_point_counts():
    # c(p) is a_p of E_{1,pi/3}, which is 24a1
    E = build_curve(1, PI_3)
    primes, coeffs = nagao._newform_table(10**5)
    assert primes == primes_below(10**5)[2:]
    for p, c in zip(primes, coeffs):
        assert c == count_points(E, p).ap, p


def test_twisted_traces_match_point_counts():
    rng = random.Random(7)
    curves = _twist_curves()
    assert any(E.n > 2**63 for E in curves)
    for E in curves:
        traces = dict(nagao._good_traces(E, 0, 10**5))
        good = [p for p in primes_below(10**5) if p != 2 and has_good_reduction(E, p)]
        assert sorted(traces) == good
        for p in [p for p in good if p < 2000] + rng.sample([p for p in good if p >= 2000], 200):
            assert traces[p] == count_points(E, p).ap, (E.label(), p)


def test_nagao_sum_equals_point_count_sum():
    # the same terms in the same order: the same float, not merely close
    for n, theta in ((646, PI_3), (221, TWO_PI_3), (11229594411, PI_3)):
        E = build_curve(n, theta)
        total = 0.0
        for p in primes_below(10**4):
            if p != 2 and has_good_reduction(E, p):
                lc = count_points(E, p)
                total += (2 - lc.ap) / lc.Np * math.log(p)
        assert nagao_sum(E, 10**4) == total


def test_import_builds_no_table():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import thetacong, thetacong.cli, thetacong.nagao as m; "
            "assert m._table[0] == 0, m._table[0]")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# ---------------------------------------------------------------------------
# misuse raises instead of giving a wrong sum

@pytest.fixture
def no_table(monkeypatch):
    def refuse(N):
        raise AssertionError(f"table built to {N}")

    monkeypatch.setattr(nagao, "_newform_table", refuse)


def test_other_angles_raise(no_table):
    E = build_curve(5, ThetaParams(3, 1, "theta31"))
    for call in (lambda: nagao_sum(E, 100), lambda: nagao_sum_form1(E, 100), lambda: passes_filter(E)):
        with pytest.raises(ValueError, match="theta31"):
            call()


def test_bounds_past_the_ceiling_raise(no_table):
    E = build_curve(6, PI_3)
    with pytest.raises(ValueError, match="ceiling"):
        SieveConfig(((1000, 15.0), (10 * nagao.MAX_BOUND, 40.0)))
    for call in (nagao_sum, nagao_sum_form1):
        with pytest.raises(ValueError, match="ceiling"):
            call(E, nagao.MAX_BOUND + 1)
