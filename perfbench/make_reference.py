"""Rebuild reference.json, the expected outputs the benchmark checks against.

    python3 perfbench/make_reference.py

It runs the program itself (about four minutes on two cores), so the data is
a regression reference for the commit it was built from:

- sweep: the Selmer rank of every squarefree n in SWEEP_BAND, both angles,
  one digit per n in the order of the benchmark's own sieve;
- hunt: the staged Nagao values of every candidate of the Kan grid
  HUNT_GRID^2 for both angles, the Selmer rank of each survivor, and the pool
  of windows a seed picks from.  A pool window is HUNT_WINDOW x HUNT_WINDOW,
  holds between HUNT_CANDIDATE_BAND candidates, and exactly one of them
  reaches the third stage, where it passes and goes on to point search, so
  every pass has the same shape: one S(1e5) evaluation and one survivor.
  Windows with a stage value within HUNT_THRESHOLD_MARGIN of its threshold
  are left out, so a change in summation order cannot flip a decision;
- certify: the Selmer rank of each published curve (the published value where
  one is stated, otherwise the computed one).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402


def sweep_digits(theta_name: str) -> str:
    from thetacong import pipeline
    from thetacong.curves import theta_from_name

    theta = theta_from_name(theta_name)
    lo, hi = W.SWEEP_BAND
    recs = list(pipeline.run_sweep(lo, hi, theta, report_selmer_min=W.SWEEP_NO_POINT_SEARCH))
    if [r.n for r in recs] != W.plain_squarefree(lo, hi) or max(r.selmer for r in recs) > 9:
        raise RuntimeError("sweep band does not match the benchmark's sieve")
    return "".join(str(r.selmer) for r in recs)


def hunt_grid(theta_name: str) -> list[dict]:
    from thetacong.candidates import generate_candidates
    from thetacong.curves import build_curve, theta_from_name
    from thetacong.descent import selmer_rank
    from thetacong.nagao import passes_filter

    theta = theta_from_name(theta_name)
    lo, hi = W.HUNT_GRID
    rows = []
    for rec in generate_candidates(hi, hi, theta, W.HUNT_MIN_OMEGA, pmin=lo, qmin=lo):
        E = build_curve(rec.n, theta)
        passed, values = passes_filter(E)
        row = {"n": rec.n, "cells": [list(c) for c in rec.provenance], "passed": passed,
               "nagao": {str(N): v for N, v in values.items()}}
        if passed:
            row["selmer"] = selmer_rank(E)
        rows.append(row)
    return rows


def _task(job):
    kind, theta_name = job
    return job, (sweep_digits if kind == "sweep" else hunt_grid)(theta_name)


def window_pool(theta_name: str, rows: list[dict]) -> list[dict]:
    from thetacong.nagao import DEFAULT_STAGES

    thresholds = {str(N): t for N, t in DEFAULT_STAGES}
    lo, hi = W.HUNT_GRID
    pool = []
    for pmin in range(lo, hi - W.HUNT_WINDOW + 2):
        for qmin in range(lo, hi - W.HUNT_WINDOW + 2):
            pmax, qmax = pmin + W.HUNT_WINDOW - 1, qmin + W.HUNT_WINDOW - 1
            inside = [r for r in rows if any(pmin <= p <= pmax and qmin <= q <= qmax for p, q in r["cells"])]
            third = [r for r in inside if len(r["nagao"]) == len(DEFAULT_STAGES)]
            if len(third) != 1 or not third[0]["passed"] or third[0]["selmer"] <= W.HUNT_SELMER_MIN:
                continue
            if not W.HUNT_CANDIDATE_BAND[0] <= len(inside) <= W.HUNT_CANDIDATE_BAND[1]:
                continue
            if any(abs(v - thresholds[N]) <= W.HUNT_THRESHOLD_MARGIN for r in inside for N, v in r["nagao"].items()):
                continue
            pool.append({"theta": theta_name, "pmin": pmin, "pmax": pmax, "qmin": qmin, "qmax": qmax,
                         "candidates": len(inside), "survivors": [third[0]["n"]]})
    return pool


def main() -> int:
    from thetacong.curves import build_curve
    from thetacong.dataset import PUBLISHED
    from thetacong.descent import selmer_rank

    angles = ("pi/3", "2pi/3")
    jobs = [("hunt", "2pi/3"), ("hunt", "pi/3"), ("sweep", "pi/3"), ("sweep", "2pi/3")]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        results = dict(pool.map(_task, jobs, chunksize=1))

    hunt = {"windows": [], "survivors": {}, "warmup_cells": {}}
    for name in angles:
        rows = results[("hunt", name)]
        hunt["windows"] += window_pool(name, rows)
        for r in rows:
            if r["passed"]:
                hunt["survivors"][f"{name}:{r['n']}"] = {"selmer": r["selmer"], "nagao": r["nagao"]}
        # first cell of a candidate the filter stops at stage one
        hunt["warmup_cells"][name] = min(c for r in rows if len(r["nagao"]) == 1 for c in r["cells"])

    certify = {"selmer": {}, "source": {}}
    for e in PUBLISHED:
        key = f"{e.theta.name}:{e.n}"
        certify["selmer"][key] = e.selmer if e.selmer is not None else selmer_rank(build_curve(e.n, e.theta))
        certify["source"][key] = "published" if e.selmer is not None else "computed"

    ref = {
        "params": W.reference_params(),
        "sweep": {"selmer": {name: results[("sweep", name)] for name in angles}},
        "hunt": hunt,
        "certify": certify,
    }
    with open(W.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {W.REFERENCE_PATH}: {len(hunt['windows'])} hunt windows, "
          f"{sum(len(d) for d in ref['sweep']['selmer'].values())} sweep ranks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
