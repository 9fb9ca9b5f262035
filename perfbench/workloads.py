"""The benchmark's three workloads: inputs made from a seed, one timed pass
through thetacong's public entry points, and the checks of that pass's
outputs.

Every workload object has the same shape:

- ``warmup()`` runs the workload's first item, so lazily built tables exist
  before anything is timed (the set-up probe times import plus this call);
- ``execute()`` runs one pass and returns a ``PassOutput`` with its wall time;
- ``check(out)`` returns a ``CheckResult``; it calls only the benchmark's own
  code, so it can run outside a traced region.

The reference data in ``reference.json`` is produced by ``make_reference.py``
with the constants below; ``load_reference`` refuses a file built with other
constants.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# sweep: a window of SWEEP_WINDOW consecutive squarefree n inside SWEEP_BAND,
# both angles, Selmer ranks only (report_selmer_min above any rank)
SWEEP_BAND = (80_000, 100_000)
SWEEP_WINDOW = 1200
SWEEP_NO_POINT_SEARCH = 10**9

# hunt: HUNT_WINDOW x HUNT_WINDOW windows of the Kan grid inside
# [HUNT_GRID[0], HUNT_GRID[1]]^2, default staged Nagao filter
HUNT_GRID = (2, 40)
HUNT_WINDOW = 12
HUNT_MIN_OMEGA = 4
HUNT_SELMER_MIN = 3  # survivors need Selmer rank > 3
HUNT_CANDIDATE_BAND = (56, 58)  # candidates per pool window
HUNT_THRESHOLD_MARGIN = 1e-6  # pool windows keep every stage value this far from its threshold
NAGAO_REL_TOL = 1e-9  # stage values may differ from the reference by this share

# certify: point search bounds, as in the sizing of the published curves
CERTIFY_HEIGHT_BOUND = 1000
CERTIFY_TORSOR_BOUND = 100

WORKLOADS = ("sweep", "hunt", "certify")

# Share of each workload's time that slows down like hostspeed.py_kernel
# rather than np_kernel on a loaded host.  Fitted on 5 minutes of the kernels
# interleaved with pieces of each workload on a 2-vCPU Intel Xeon VM: the
# mix that left the least spread in the pieces' adjusted time over 10-second
# windows (1.6%, 3.0% and 2.1%, against 15%, 10% and 13% unadjusted).
INTERPRETER_SHARE = {"sweep": 1.0, "hunt": 0.25, "certify": 0.75}


def reference_params() -> dict:
    return {
        "sweep_band": list(SWEEP_BAND),
        "hunt_grid": list(HUNT_GRID),
        "hunt_window": HUNT_WINDOW,
        "hunt_min_omega": HUNT_MIN_OMEGA,
        "hunt_selmer_min": HUNT_SELMER_MIN,
        "hunt_candidate_band": list(HUNT_CANDIDATE_BAND),
        "hunt_threshold_margin": HUNT_THRESHOLD_MARGIN,
    }


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        ref = json.load(fh)
    if ref.get("params") != reference_params():
        raise ValueError(f"{path} was built with other workload constants; rerun make_reference.py")
    return ref


def plain_squarefree(lo: int, hi: int) -> list[int]:
    """Squarefree n in [lo, hi] by striking multiples of k^2 (the benchmark's
    own sieve, independent of the package's)."""
    flags = bytearray([1]) * (hi + 1)
    for k in range(2, math.isqrt(hi) + 1):
        flags[k * k :: k * k] = bytes(len(range(k * k, hi + 1, k * k)))
    return [n for n in range(max(lo, 1), hi + 1) if flags[n]]


def on_curve(x: Fraction, y: Fraction, n: int, r: int, s: int) -> bool:
    """Exact test of y^2 = x^3 + 2sn x^2 - (r^2-s^2) n^2 x."""
    return y * y == x * (x * x + 2 * s * n * x - (r * r - s * s) * n * n)


@dataclass
class PassOutput:
    wall_s: float
    items: int  # work items completed, for items_per_s
    item_ms: list[float] = field(default_factory=list)  # per-item latency where observable
    data: object = None  # what check() needs


@dataclass
class CheckResult:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    rank_gap: int = 0  # sum of Selmer rank minus rank lower bound, where both are computed


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    """run_sweep in table1 mode over one window, both angles, records written
    through CheckpointedWriter."""

    name = "sweep"

    def __init__(self, tc, seed: int, ref: dict, workdir: str):
        self.tc = tc
        self.thetas = (tc.curves.PI_3, tc.curves.TWO_PI_3)
        band = plain_squarefree(*SWEEP_BAND)
        start = random.Random(seed).randrange(len(band) - SWEEP_WINDOW + 1)
        self.window = band[start : start + SWEEP_WINDOW]
        self.lo, self.hi = self.window[0], self.window[-1]
        digits = ref["sweep"]["selmer"]
        self.expected = {name: [int(ch) for ch in digits[name][start : start + SWEEP_WINDOW]] for name in digits}
        self.workdir = workdir

    def inputs(self):
        return (self.lo, self.hi)

    def warmup(self) -> None:
        first = self.window[0]
        for theta in self.thetas:
            list(self.tc.pipeline.run_sweep(first, first, theta, report_selmer_min=SWEEP_NO_POINT_SEARCH))

    def execute(self) -> PassOutput:
        pipeline = self.tc.pipeline
        clock = time.perf_counter
        item_ms, out = [], {}
        t0 = clock()
        for theta in self.thetas:
            path = os.path.join(self.workdir, f"sweep-{theta.r}-{theta.s}.jsonl")
            writer = pipeline.CheckpointedWriter(path, f"bench sweep {theta.name} {self.lo}:{self.hi}")
            recs = []
            prev = clock()
            for rec in pipeline.run_sweep(self.lo, self.hi, theta, report_selmer_min=SWEEP_NO_POINT_SEARCH,
                                          writer=writer):
                now = clock()
                item_ms.append((now - prev) * 1e3)
                prev = now
                recs.append(rec)
            writer.close()
            out[theta.name] = (recs, path)
        wall = clock() - t0
        tallies = {name: pipeline.selmer_tally(recs) for name, (recs, _) in out.items()}
        return PassOutput(wall, sum(len(r) for r, _ in out.values()), item_ms, (out, tallies))

    def check(self, output: PassOutput) -> CheckResult:
        out, tallies = output.data
        published = published_selmer(self.tc)
        res = CheckResult(attempted=0, failed=0)
        for name, expected in self.expected.items():
            recs, path = out[name]
            res.attempted += len(self.window)
            res.failed += check_sweep_angle(name, self.window, expected, recs, tallies[name], path,
                                            published, res.problems)
        return res


def published_selmer(tc) -> dict[tuple[str, int], int]:
    """Selmer ranks stated by the embedded dataset, keyed by (theta, n)."""
    ds = tc.dataset
    out = {(e.theta.name, e.n): e.selmer for e in ds.PUBLISHED if e.selmer is not None}
    out.update(((theta.name, n), s) for n, theta, s in ds.SMALL_RANKS)
    out.update(((theta.name, n), s) for n, theta, s in ds.EXTRA_SELMER)
    return out


def tally_cells(ranks: list[int]) -> tuple[int, ...]:
    cells = [0] * 7
    for s in ranks:
        cells[min(s, 6)] += 1
    return tuple(cells)


def check_sweep_angle(theta_name, window, expected, recs, tally, path, published, problems) -> int:
    """Failed items of one angle's sweep: records out of order or with a
    Selmer rank other than the reference; every item when the tally or the
    JSONL file disagrees."""
    if [rec.n for rec in recs] != window:
        problems.append(f"sweep {theta_name}: records do not cover the window in order")
        return len(window)
    failed = 0
    got = {rec.n: rec.selmer for rec in recs}
    for n, s in zip(window, expected):
        if got.get(n) != s:
            failed += 1
            if failed <= 3:
                problems.append(f"sweep {theta_name} n={n}: selmer {got.get(n)} != reference {s}")
        pub = published.get((theta_name, n))
        if pub is not None and got.get(n) != pub:
            failed += 1
            problems.append(f"sweep {theta_name} n={n}: selmer {got.get(n)} != published {pub}")
    if tally["total"] != len(window) or tuple(tally["cells"]) != tally_cells(expected):
        problems.append(f"sweep {theta_name}: tally {tally} != reference cells {tally_cells(expected)} "
                        f"total {len(window)}")
        return len(window)
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    if [(int(o["n"]), o["selmer"]) for o in lines] != list(zip(window, expected)):
        problems.append(f"sweep {theta_name}: JSONL output differs from the records")
        return len(window)
    return failed


# ---------------------------------------------------------------------------
# hunt


class Hunt:
    """run_hunt on one Kan-grid window from the reference pool, default staged
    filter, survivors with Selmer rank above HUNT_SELMER_MIN searched for
    points."""

    name = "hunt"

    def __init__(self, tc, seed: int, ref: dict, workdir: str):
        self.tc = tc
        h = ref["hunt"]
        self.window = random.Random(seed).choice(h["windows"])
        self.theta = tc.curves.theta_from_name(self.window["theta"])
        self.expected = {n: h["survivors"][f"{self.theta.name}:{n}"] for n in self.window["survivors"]}
        self.warmup_cell = h["warmup_cells"][self.theta.name]

    def inputs(self):
        w = self.window
        return (w["theta"], w["pmin"], w["pmax"], w["qmin"], w["qmax"])

    def _hunt(self, pmin, pmax, qmin, qmax):
        return list(self.tc.pipeline.run_hunt(
            pmax, qmax, self.theta, min_omega=HUNT_MIN_OMEGA, sieve=self.tc.nagao.SieveConfig(),
            selmer_min=HUNT_SELMER_MIN, pmin=pmin, qmin=qmin))

    def warmup(self) -> None:
        p, q = self.warmup_cell
        self._hunt(p, p, q, q)

    def execute(self) -> PassOutput:
        w = self.window
        t0 = time.perf_counter()
        recs = self._hunt(w["pmin"], w["pmax"], w["qmin"], w["qmax"])
        wall = time.perf_counter() - t0
        return PassOutput(wall, w["candidates"], [], recs)

    def check(self, output: PassOutput) -> CheckResult:
        w = self.window
        res = CheckResult(attempted=w["candidates"], failed=0)
        res.failed, res.rank_gap = check_hunt(self.theta, self.expected, output.data, res.problems)
        # items_per_s counts the reference's candidates; the grid must still yield that many
        screened = len(self.tc.candidates.generate_candidates(
            w["pmax"], w["qmax"], self.theta, HUNT_MIN_OMEGA, pmin=w["pmin"], qmin=w["qmin"]))
        if screened != w["candidates"]:
            res.failed = w["candidates"]
            res.problems.append(f"hunt: the window yields {screened} candidates, reference {w['candidates']}")
        return res


def check_hunt(theta, expected: dict, recs, problems) -> tuple[int, int]:
    """Failed candidates (survivor missing, extra, or with another Selmer
    rank, other stage values, a point off the curve or rank_lb > Selmer) and
    the rank gap of the survivors."""
    failed = gap = 0
    got = {rec.n: rec for rec in recs}
    for n in sorted(set(expected) | set(got)):
        want, rec = expected.get(n), got.get(n)
        if want is None or rec is None:
            failed += 1
            problems.append(f"hunt n={n}: {'unexpected survivor' if want is None else 'survivor missing'}")
            continue
        bad = []
        if rec.selmer != want["selmer"]:
            bad.append(f"selmer {rec.selmer} != {want['selmer']}")
        values = {str(N): v for N, v in rec.nagao_values.items()}
        if values.keys() != want["nagao"].keys() or any(
            not math.isclose(values[N], v, rel_tol=NAGAO_REL_TOL, abs_tol=0.0) for N, v in want["nagao"].items()
        ):
            bad.append(f"nagao {values} != {want['nagao']}")
        if not all(on_curve(P.x, P.y, n, theta.r, theta.s) for P in rec.points):
            bad.append("point off the curve")
        if rec.rank_lb is None or rec.rank_lb > rec.selmer:
            bad.append(f"rank_lb {rec.rank_lb} > selmer {rec.selmer}")
        if bad:
            failed += 1
            problems.append(f"hunt n={n}: " + "; ".join(bad))
        else:
            gap += rec.selmer - rec.rank_lb
    return failed, gap


# ---------------------------------------------------------------------------
# certify


class Certify:
    """For each published curve: selmer_rank, search_points without the
    embedded generators, rank_lower_bound; then run_verify()."""

    name = "certify"

    def __init__(self, tc, seed: int, ref: dict, workdir: str):
        self.tc = tc
        entries = list(tc.dataset.PUBLISHED)
        random.Random(seed).shuffle(entries)
        self.entries = entries
        self.expected_selmer = ref["certify"]["selmer"]

    def inputs(self):
        return [(e.theta.name, e.n) for e in self.entries]

    def _certify(self, entry):
        d = self.tc.descent
        E = self.tc.curves.build_curve(entry.n, entry.theta)
        s = d.selmer_rank(E)
        pts = d.search_points(E, CERTIFY_HEIGHT_BOUND, CERTIFY_TORSOR_BOUND)
        lb = d.rank_lower_bound(pts, E) if pts else 0
        return s, pts, lb

    def warmup(self) -> None:
        self._certify(min(self.tc.dataset.PUBLISHED, key=lambda e: (e.n, e.theta.name)))

    def execute(self) -> PassOutput:
        clock = time.perf_counter
        item_ms, rows = [], []
        t0 = clock()
        for entry in self.entries:
            t = clock()
            rows.append((entry, *self._certify(entry)))
            item_ms.append((clock() - t) * 1e3)
        report = self.tc.pipeline.run_verify()
        wall = clock() - t0
        return PassOutput(wall, len(rows), item_ms, (rows, report.ok))

    def check(self, output: PassOutput) -> CheckResult:
        rows, verify_ok = output.data
        # one operation per curve, plus run_verify
        res = CheckResult(attempted=len(rows) + 1, failed=0)
        res.failed, res.rank_gap = check_certify(rows, self.expected_selmer, res.problems)
        if not verify_ok:
            res.failed += 1
            res.problems.append("certify: run_verify() reported a failed check")
        return res


def check_certify(rows, expected_selmer: dict, problems) -> tuple[int, int]:
    """rows are (entry, selmer, points, rank_lb).  A curve fails when its
    Selmer rank differs from the published (or, where none is published,
    the reference) value or is below the rank, when a found point is off
    the curve, or when rank_lb exceeds the Selmer rank or the rank."""
    failed = gap = 0
    for entry, s, pts, lb in rows:
        key = f"{entry.theta.name}:{entry.n}"
        bad = []
        if s != expected_selmer[key] or s < entry.rank:
            bad.append(f"selmer {s} != {expected_selmer[key]} (rank {entry.rank})")
        if not all(on_curve(P.x, P.y, entry.n, entry.theta.r, entry.theta.s) for P in pts):
            bad.append("point off the curve")
        if lb > s or lb > entry.rank:
            bad.append(f"rank_lb {lb} exceeds selmer {s} or rank {entry.rank}")
        if bad:
            failed += 1
            problems.append(f"certify {key}: " + "; ".join(bad))
        gap += s - lb
    return failed, gap


WORKLOAD_CLASSES = {"sweep": Sweep, "hunt": Hunt, "certify": Certify}


def make_workload(name: str, tc, seed: int, ref: dict, workdir: str):
    return WORKLOAD_CLASSES[name](tc, seed, ref, workdir)
