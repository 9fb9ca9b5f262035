"""Self-tests of the benchmark (not of thetacong).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed as H  # noqa: E402
import run as R  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

tc = R.import_program()
REF = W.load_reference()


def _workload(name, seed, tmp_path):
    return W.make_workload(name, tc, seed, REF, str(tmp_path))


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    assert _workload(name, 7, tmp_path).inputs() == _workload(name, 7, tmp_path).inputs()
    assert len({repr(_workload(name, s, tmp_path).inputs()) for s in range(6)}) > 1


def test_sweep_window_is_squarefree_and_in_band(tmp_path):
    wl = _workload("sweep", 3, tmp_path)
    flags = tc.arith.squarefree_flags(W.SWEEP_BAND[1])
    assert len(wl.window) == W.SWEEP_WINDOW
    assert W.SWEEP_BAND[0] <= wl.lo and wl.hi <= W.SWEEP_BAND[1]
    assert wl.window == [n for n in range(wl.lo, wl.hi + 1) if flags[n]]


def test_hunt_windows_have_one_survivor(tmp_path):
    for w in REF["hunt"]["windows"]:
        assert w["pmax"] - w["pmin"] + 1 == W.HUNT_WINDOW == w["qmax"] - w["qmin"] + 1
        assert W.HUNT_CANDIDATE_BAND[0] <= w["candidates"] <= W.HUNT_CANDIDATE_BAND[1]
        assert len(w["survivors"]) == 1
    wl = _workload("hunt", 0, tmp_path)
    w = wl.window
    cands = tc.candidates.generate_candidates(w["pmax"], w["qmax"], wl.theta, W.HUNT_MIN_OMEGA,
                                              pmin=w["pmin"], qmin=w["qmin"])
    assert len(cands) == w["candidates"]
    assert set(wl.expected) <= {c.n for c in cands}


# ---------------------------------------------------------------------------
# correctness checks fail on corrupted outputs


def _sweep_outputs(wl, theta, tmp_path):
    pipeline = tc.pipeline
    expected = wl.expected[theta.name]
    recs = [tc.candidates.CandidateRecord(n=n, theta=theta, selmer=s) for n, s in zip(wl.window, expected)]
    path = str(tmp_path / "sweep.jsonl")
    with open(path, "w") as fh:
        fh.writelines(pipeline.record_to_json(r) + "\n" for r in recs)
    return expected, recs, pipeline.selmer_tally(recs), path


def test_sweep_check_catches_changed_tally_cell(tmp_path):
    wl = _workload("sweep", 1, tmp_path)
    theta = tc.curves.PI_3
    expected, recs, tally, path = _sweep_outputs(wl, theta, tmp_path)
    args = (theta.name, wl.window, expected)
    problems = []
    assert W.check_sweep_angle(*args, recs, tally, path, {}, problems) == 0 and not problems
    cells = list(tally["cells"])
    cells[2] += 1
    bad = dict(tally, cells=tuple(cells))
    assert W.check_sweep_angle(*args, recs, bad, path, {}, problems) == len(wl.window)
    assert problems


def test_sweep_check_catches_wrong_rank(tmp_path):
    wl = _workload("sweep", 1, tmp_path)
    theta = tc.curves.TWO_PI_3
    expected, recs, tally, path = _sweep_outputs(wl, theta, tmp_path)
    recs[5].selmer += 1
    assert W.check_sweep_angle(theta.name, wl.window, expected, recs, tally, path, {}, []) > 0


def _hunt_outputs(wl):
    recs = []
    for n, want in wl.expected.items():
        recs.append(tc.candidates.CandidateRecord(
            n=n, theta=wl.theta, selmer=want["selmer"], rank_lb=want["selmer"],
            nagao_values={int(N): v for N, v in want["nagao"].items()}))
    return recs


def test_hunt_check_catches_dropped_survivor(tmp_path):
    wl = _workload("hunt", 2, tmp_path)
    recs = _hunt_outputs(wl)
    assert W.check_hunt(wl.theta, wl.expected, recs, []) == (0, 0)
    problems = []
    assert W.check_hunt(wl.theta, wl.expected, recs[1:], problems)[0] == 1
    assert problems


def test_hunt_check_catches_nagao_drift(tmp_path):
    wl = _workload("hunt", 2, tmp_path)
    recs = _hunt_outputs(wl)
    N = max(recs[0].nagao_values)
    recs[0].nagao_values[N] *= 1 + 1e-7
    assert W.check_hunt(wl.theta, wl.expected, recs, [])[0] == 1


def _certify_rows():
    rows = []
    for e in tc.dataset.PUBLISHED:
        s = REF["certify"]["selmer"][f"{e.theta.name}:{e.n}"]
        rows.append((e, s, e.generator_points(), e.rank))
    return rows


def test_certify_check_catches_point_off_curve():
    rows = _certify_rows()
    assert W.check_certify(rows, REF["certify"]["selmer"], []) == (0, sum(s - lb for _, s, _, lb in rows))
    e, s, pts, lb = rows[3]
    moved = [tc.curves.PointQ(pts[0].x, pts[0].y + 1)] + pts[1:]
    rows[3] = (e, s, moved, lb)
    problems = []
    assert W.check_certify(rows, REF["certify"]["selmer"], problems)[0] == 1
    assert "off the curve" in problems[0]


def test_certify_check_catches_rank_bound_above_rank():
    rows = _certify_rows()
    e, s, pts, lb = rows[0]
    rows[0] = (e, s, pts, e.rank + 1)
    assert W.check_certify(rows, REF["certify"]["selmer"], [])[0] == 1


def test_own_curve_check_agrees_with_package():
    for e in tc.dataset.PUBLISHED:
        E = tc.curves.build_curve(e.n, e.theta)
        for P in e.generator_points():
            assert W.on_curve(P.x, P.y, e.n, e.theta.r, e.theta.s) == tc.curves.is_on_curve(P, E) is True
            Q = tc.curves.PointQ(P.x + Fraction(1, 3), P.y)
            assert W.on_curve(Q.x, Q.y, e.n, e.theta.r, e.theta.s) == tc.curves.is_on_curve(Q, E) is False


def test_plain_sieve_matches_package():
    flags = tc.arith.squarefree_flags(3000)
    assert W.plain_squarefree(1, 3000) == [n for n in range(1, 3001) if flags[n]]


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_on_synthetic_tree():
    S = T.Span
    spans = [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 4.0, 0),
        S("a.child", 2.0, 3.0, 1),
        S("b", 5.0, 9.0, 0),
        S("c", 8.0, 11.0, 0),  # overlaps b and runs past its parent
        S("other-root", 20.0, 21.5, -1),
    ]
    assert T.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0, 1.5])


def test_layer_metrics_on_synthetic_tree():
    S = T.Span
    ls = "descent.locally_solvable."
    spans = [
        S("descent.selmer_rank", 0.0, 10.0, -1),
        S("descent.selmer_set", 1.0, 5.0, 0),
        S(ls + "p2", 1.5, 3.5, 1, 1.0),
        S(ls + "real", 4.0, 4.5, 1, 0.0),
        S("descent.selmer_set", 6.0, 9.0, 0),
        S(ls + "odd_large", 6.5, 7.0, 4, 1.0),
        S("arith.factorize", 7.5, 8.0, 4, 40.0),
    ]
    m = T.layer_metrics(spans)
    assert m[ls + "p2.calls"] == 1 and m[ls + "p2.self_s"] == pytest.approx(2.0)
    assert m[ls + "solvable_frac"] == pytest.approx(2 / 3)
    assert m["descent.selmer_set.torsors_per_set"] == pytest.approx(1.5)
    assert m["descent.selmer_set.self_s"] == pytest.approx(1.5 + 2.0)
    assert m["descent.selmer_rank.self_s"] == pytest.approx(3.0)
    assert m["arith.factorize.max_bits"] == 40


def test_route_split_follows_the_package():
    assert T.SYMBOLIC_MIN_P == tc.descent._SYMBOLIC_MIN_P
    assert [T.solvability_route(p) for p in ("real", 2, 3, 97, 101)] == \
        ["real", "p2", "odd_small", "odd_small", "odd_large"]


# ---------------------------------------------------------------------------
# patching


def _package_attributes():
    return {(name, attr): obj for name, mod in sys.modules.items()
            if name == "thetacong" or name.startswith("thetacong.")
            for attr, obj in vars(mod).items()} | {
        ("CheckpointedWriter", attr): obj for attr, obj in vars(tc.pipeline.CheckpointedWriter).items()}


def test_tracer_restores_every_patched_function():
    before = _package_attributes()
    tr = T.Tracer(tc)
    with tr:
        assert tc.descent.factorize is not before[("thetacong.arith", "factorize")]
        assert tc.curves.factorize is tc.arith.factorize  # one wrapper, bound everywhere
        tc.descent.selmer_rank(tc.curves.build_curve(646, tc.curves.PI_3))
        patched = {(getattr(h, "__name__", h), a) for h, a, _ in tr.patched()}
    assert ("thetacong.descent", "factorize") in patched and ("thetacong.pipeline", "factorize") in patched
    assert tr.patched() == []
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {sp.name for sp in tr.spans}
    assert {"descent.selmer_rank", "descent.selmer_set", "arith.factorize", "curves.build_curve",
            "descent.locally_solvable.p2", "descent.locally_solvable.real"} <= names


def test_tracer_restores_after_an_error():
    before = tc.descent.locally_solvable
    with pytest.raises(ZeroDivisionError):
        with T.Tracer(tc):
            assert tc.descent.locally_solvable is not before
            raise ZeroDivisionError
    assert tc.descent.locally_solvable is before


# ---------------------------------------------------------------------------
# host speed adjustment


def test_adjust_scales_net_time_by_mean_speed():
    ref = (H.REF_PY_S, H.REF_NP_S)
    probe = H.SpeedProbe(interpreter_share=1.0)
    # half the slices at reference speed, half at half speed: mean speed 0.75
    probe.samples = [ref, (2 * H.REF_PY_S, H.REF_NP_S)]
    probe.spent = 0.5
    assert probe.adjust(10.5) == pytest.approx(7.5)
    # the numpy kernel carries no weight at share 1, all of it at share 0
    assert H.speed([(H.REF_PY_S, 5 * H.REF_NP_S)], 1.0) == pytest.approx(1.0)
    assert H.speed([(5 * H.REF_PY_S, 2 * H.REF_NP_S)], 0.0) == pytest.approx(0.5)
    assert H.speed([(2 * H.REF_PY_S, 2 * H.REF_NP_S)], 0.25) == pytest.approx(0.5)


def test_adjust_needs_samples():
    with pytest.raises(RuntimeError):
        H.SpeedProbe(1.0).adjust(1.0)


def test_every_workload_has_a_kernel_mix():
    assert set(W.INTERPRETER_SHARE) == set(W.WORKLOADS)
    assert all(0.0 <= w <= 1.0 for w in W.INTERPRETER_SHARE.values())


def test_speed_probe_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with H.SpeedProbe(0.5, interval=0.01) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 5
    assert 0 < probe.spent < 0.2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the metrics the command prints


def test_benchmark_json_names_every_emitted_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == R.END_TO_END_UNITS
    layer_names = list(T.layer_metrics([])) + list(R.BENCH_LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: R.unit_of(k) for k in layer_names}
