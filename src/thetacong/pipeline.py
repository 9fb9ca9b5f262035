"""Batch orchestration: the Step I sweep, the Step II hunt, golden
verification, and single-curve analysis, with JSONL persistence and
resumable checkpoints.

Records are one JSON object per line, ordered by n; the checkpoint file
stores the config hash, the last contiguously flushed n, and the byte
offset, so an interrupted run resumes to byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import dataset
# factorize is re-exported: perfbench/selftest.py checks that the tracer
# wraps it under every module that holds it, pipeline included.
from .arith import factorize
from .candidates import CandidateRecord, generate_candidates
from .curves import (
    ThetaParams,
    build_curve,
    is_on_curve,
    point_from_strings,
    point_to_strings,
    theta_from_name,
)
from .descent import (
    REAL_PLACE,
    has_small_nontorsion_point,
    rank_lower_bound,
    search_points,
    selmer_rank,
    selmer_set,
    torsor_verdicts,
)
from .nagao import SieveConfig, nagao_sum, passes_filter

DEFAULT_SELMER_MIN = {"pi/3": 5, "2pi/3": 4}  # Step II: s > these values


# ---------------------------------------------------------------------------
# persistence

def record_to_json(rec: CandidateRecord) -> str:
    obj = {
        "n": str(rec.n),
        "theta": rec.theta.name,
        "provenance": [list(pq) for pq in rec.provenance],
        "omega": rec.omega_odd,
        "nagao": {str(N): v for N, v in (rec.nagao_values or {}).items()},
        "selmer": rec.selmer,
        "rank_lb": rec.rank_lb,
        "points": [point_to_strings(P) for P in rec.points],
    }
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def record_from_json(line: str) -> CandidateRecord:
    """The record that record_to_json wrote; empty fields come back as
    CandidateRecord's defaults."""
    obj = json.loads(line)
    return CandidateRecord(
        n=int(obj["n"]),
        theta=theta_from_name(obj["theta"]),
        provenance=[tuple(pq) for pq in obj.get("provenance", [])] or (),
        omega_odd=obj.get("omega", 0),
        nagao_values={int(N): v for N, v in obj.get("nagao", {}).items()} or None,
        selmer=obj.get("selmer"),
        rank_lb=obj.get("rank_lb"),
        points=[point_from_strings(c) for c in obj.get("points", [])] or (),
    )


_CKPT_INTERVAL = 64  # records written between two checkpoint flushes


class CheckpointedWriter:
    """Appends ordered JSONL records; resumable via a sidecar .ckpt file."""

    def __init__(self, path: str, config_key: str, resume: bool = False):
        self.path = path
        self.ckpt_path = path + ".ckpt"
        self.config_hash = hashlib.sha256(config_key.encode()).hexdigest()[:16]
        self.last_n = None
        self._since_flush = 0
        offset = 0
        if resume and os.path.exists(self.ckpt_path) and os.path.exists(path):
            # a checkpoint that cannot be read, or that points past the end of
            # the JSONL, stops the run: resuming from it would pad or skip n
            try:
                with open(self.ckpt_path) as fh:
                    ck = json.load(fh)
                config, last_n, end = ck["config"], ck["last_n"], ck["offset"]
                if not 0 <= end <= os.path.getsize(path):
                    raise ValueError(f"offset {end} lies past the end of {path}")
            except (ValueError, KeyError, TypeError) as err:
                raise ValueError(f"checkpoint {self.ckpt_path} cannot be resumed: {err!r}") from None
            if config == self.config_hash:
                offset, self.last_n = end, last_n
        self.fh = open(path, "ab" if offset else "wb")
        if offset:
            self.fh.truncate(offset)
            self.fh.seek(offset)

    def skip(self, n: int) -> bool:
        return self.last_n is not None and n <= self.last_n

    def write(self, rec: CandidateRecord) -> None:
        if self.skip(rec.n):
            raise ValueError("records must arrive in strictly increasing n order")
        self.fh.write((record_to_json(rec) + "\n").encode())
        self.last_n = rec.n
        self._since_flush += 1
        if self._since_flush >= _CKPT_INTERVAL:
            self._flush_ckpt()

    def _flush_ckpt(self) -> None:
        self.fh.flush()
        tmp = self.ckpt_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"config": self.config_hash, "last_n": self.last_n, "offset": self.fh.tell()}, fh)
        os.replace(tmp, self.ckpt_path)
        self._since_flush = 0

    def close(self) -> None:
        self._flush_ckpt()
        self.fh.close()


def _emit(records, writer: CheckpointedWriter | None):
    """Persist and yield each record in turn."""
    for rec in records:
        if writer is not None:
            writer.write(rec)
        yield rec


# ---------------------------------------------------------------------------
# Step I: sweep over squarefree n

def _sweep_one(n, theta, report_selmer_min, height_bound, torsor_bound):
    E = build_curve(n, theta)
    s = selmer_rank(E)
    omega_odd = sum(1 for p in E.bad_primes if p != 2 and n % p == 0)
    rec = CandidateRecord(n=n, theta=theta, omega_odd=omega_odd, selmer=s)
    if s >= report_selmer_min:
        rec.points = search_points(E, height_bound, torsor_bound)
        rec.rank_lb = rank_lower_bound(rec.points, E)
    return rec


_SIEVE_BLOCK = 1 << 14


def _squarefree_tasks(lo: int, hi: int):
    """Each squarefree n in [lo, hi], in increasing n.  [lo, hi] is sieved in
    blocks of _SIEVE_BLOCK, each struck at the multiples of k^2 for 2 <= k <=
    isqrt(hi), so memory stays flat on any range."""
    root = math.isqrt(hi)
    for start in range(max(lo, 1), hi + 1, _SIEVE_BLOCK):
        flags = np.ones(min(_SIEVE_BLOCK, hi + 1 - start), dtype=bool)
        for k in range(2, root + 1):
            k2 = k * k
            flags[-start % k2 :: k2] = False
        for i in np.flatnonzero(flags).tolist():
            yield start + i


def run_sweep(
    lo: int,
    hi: int,
    theta: ThetaParams,
    report_selmer_min: int = 3,
    height_bound: int = 1000,
    torsor_bound: int = 100,
    workers: int = 1,
    writer: CheckpointedWriter | None = None,
):
    """Generator of Selmer-rank records for the squarefree n in [lo, hi], in
    increasing n, each written to ``writer`` before it is yielded; n that a
    resumed writer holds are skipped. Rows
    with selmer >= report_selmer_min also get a point search and a rank
    lower bound. workers > 1 computes the curves in a process pool."""
    tasks = (n for n in _squarefree_tasks(lo, hi) if writer is None or not writer.skip(n))
    one = partial(_sweep_one, theta=theta, report_selmer_min=report_selmer_min,
                  height_bound=height_bound, torsor_bound=torsor_bound)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            yield from _emit(pool.imap(one, tasks, chunksize=64), writer)
    else:
        yield from _emit(map(one, tasks), writer)


def selmer_tally(records) -> dict:
    """Survey tally: counts for s = 0..5, s >= 6, and the total."""
    cells = [0] * 7
    for rec in records:
        cells[min(rec.selmer, 6)] += 1
    return {"cells": tuple(cells), "total": sum(cells)}


def run_table1(hi: int, theta: ThetaParams, workers: int = 1) -> dict:
    """Selmer tally for squarefree n <= hi (no point searches)."""
    recs = run_sweep(1, hi, theta, report_selmer_min=10**9, workers=workers)
    return selmer_tally(recs)


# ---------------------------------------------------------------------------
# Step II: hunt over the Kan grid

def run_hunt(
    pmax: int,
    qmax: int,
    theta: ThetaParams,
    min_omega: int = 4,
    sieve: SieveConfig = SieveConfig(),
    selmer_min: int | None = None,
    height_bound: int = 1000,
    torsor_bound: int = 100,
    pmin: int = 2,
    qmin: int = 2,
    writer: CheckpointedWriter | None = None,
):
    """Kan-grid candidates -> staged Nagao filter -> Selmer threshold ->
    point search; survivors are yielded (and persisted) in n-order."""
    if selmer_min is None:
        selmer_min = DEFAULT_SELMER_MIN.get(theta.name, 4)

    def survivors():
        for rec in generate_candidates(pmax, qmax, theta, min_omega, pmin=pmin, qmin=qmin):
            if writer is not None and writer.skip(rec.n):
                continue
            E = build_curve(rec.n, theta)
            ok, rec.nagao_values = passes_filter(E, sieve)
            if not ok:
                continue
            rec.selmer = selmer_rank(E)
            if rec.selmer > selmer_min:
                rec.points = search_points(E, height_bound, torsor_bound)
                rec.rank_lb = rank_lower_bound(rec.points, E)
                yield rec

    yield from _emit(survivors(), writer)


# ---------------------------------------------------------------------------
# golden verification

@dataclass
class CheckResult:
    entry: str
    check: str
    ok: bool
    detail: str = ""


@dataclass
class VerifyReport:
    results: list[CheckResult] = field(default_factory=list)
    anomalies: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def add(self, entry: str, check: str, ok: bool, detail: str = ""):
        self.results.append(CheckResult(entry, check, ok, detail))


def run_verify() -> VerifyReport:
    """Verify every embedded published item: coefficients, generators
    on-curve, certified rank, and stated Selmer ranks."""
    report = VerifyReport()
    for entry in dataset.PUBLISHED:
        name = f"{entry.theta.name} n={entry.n}"
        if entry.label:
            report.anomalies.append(
                f"{name}: printed with headline n={entry.label}; coefficients and "
                f"generators are internally consistent only with n={entry.n}"
            )
        E = build_curve(entry.n, entry.theta)
        coeff_ok = (E.a2, E.a4) == (entry.a2, entry.a4)
        report.add(name, "coefficients", coeff_ok, f"a2={E.a2} a4={E.a4}")
        pts = entry.generator_points()
        oncurve = [is_on_curve(P, E) for P in pts]
        report.add(name, "generators-on-curve", all(oncurve), f"{sum(oncurve)}/{len(pts)}")
        lb = rank_lower_bound(pts, E)
        report.add(name, "rank-lower-bound", lb == entry.rank, f"lb={lb} published={entry.rank}")
        if entry.selmer is not None:
            s = selmer_rank(E)
            report.add(name, "selmer-rank", s == entry.selmer, f"s={s} published={entry.selmer}")
        seen = set()
        for c in entry.companions:
            if c in seen:
                report.anomalies.append(f"{name}: companion {c} listed more than once")
            seen.add(c)
    for n, theta, rank in dataset.SMALL_RANKS:
        name = f"{theta.name} n={n}"
        E = build_curve(n, theta)
        s = selmer_rank(E)
        pts = search_points(E, 400, 60)
        lb = rank_lower_bound(pts, E)
        report.add(name, "rank-pinned", lb == rank and s == rank, f"lb={lb} selmer={s} published={rank}")
    for n, theta, selmer in dataset.EXTRA_SELMER:
        name = f"{theta.name} n={n}"
        s = selmer_rank(build_curve(n, theta))
        report.add(name, "selmer-rank", s == selmer, f"s={s} published={selmer}")
    return report


# ---------------------------------------------------------------------------
# single-curve analysis

def run_analyze(n: int, theta: ThetaParams, height_bound: int = 1000, torsor_bound: int = 100) -> str:
    """Human-readable deep dive for one curve."""
    E = build_curve(n, theta)
    lines = [f"{E.label()}: y^2 = x^3 {E.a2:+d}*x^2 {E.a4:+d}*x"]
    lines.append(f"  disc = {E.disc}")
    lines.append(f"  bad primes: {list(E.bad_primes)}")
    lines.append(f"  2-torsion x: {E.two_torsion_x}")
    for N in (1000, 10000):
        lines.append(f"  S({N}) = {nagao_sum(E, N):.4f}")
    for dual in (False, True):
        a, b = E.side(dual)
        side = "dual" if dual else "forward"
        lines.append(f"  {side} torsors (a={a}, b={b}); Selmer set {sorted(selmer_set(E, dual), key=abs)}")
        for d, verdicts in torsor_verdicts(E, dual):
            marks = (f"{'R' if place == REAL_PLACE else place}:{'ok' if ok else 'no'}" for place, ok in verdicts)
            lines.append(f"    d={d:>6}  {' '.join(marks)}")
    s = selmer_rank(E)
    pts = search_points(E, height_bound, torsor_bound)
    lb = rank_lower_bound(pts, E)
    lines.append(f"  selmer rank = {s}")
    lines.append(f"  points found (bound {height_bound}/{torsor_bound}): {len(pts)}")
    for P in pts[:10]:
        lines.append(f"    {P}")
    lines.append(f"  rank lower bound from found points = {lb}")
    lines.append(f"  certified: {lb} <= rank <= {s}")
    return "\n".join(lines)


def check_s0_has_no_small_point(records, xheight: int = 1000) -> list[int]:
    """Return the n of any selmer-0 record with a non-torsion point of
    x-height <= xheight (should be empty; selmer 0 forces rank 0)."""
    offenders = []
    for rec in records:
        if rec.selmer == 0:
            E = build_curve(rec.n, rec.theta)
            if has_small_nontorsion_point(E, xheight):
                offenders.append(rec.n)
    return offenders
