"""In-memory span tracing of thetacong's layers, done from outside the package.

The tracer wraps the public functions of each layer and rebinds the wrapper
under every thetacong module that imported the function (``descent.factorize``
as well as ``arith.factorize``), so calls made inside the package are seen
too.  ``uninstall`` puts every original object back.  Spans stay in memory
with a parent link and are written out once, at the end of a run.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

# Routes of local solvability, classified from the ``place`` argument the
# same way descent._qp_solvable dispatches (odd p below 101 use the residue
# scan, larger p the symbolic route).
SYMBOLIC_MIN_P = 101


def solvability_route(place) -> str:
    if place == "real":
        return "real"
    p = int(place)
    if p == 2:
        return "p2"
    return "odd_small" if p < SYMBOLIC_MIN_P else "odd_large"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    note: float = 0.0  # one number per span, meaning set by the target

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span's own interval."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        reach = sp.start
        for ch in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(ch.start, reach), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp.duration - covered)
    return out


@dataclass(frozen=True)
class Target:
    """One traced function: ``owner.attr`` is a module function or a method.

    ``route`` names the span from the call's arguments; ``note`` keeps the
    one number a layer metric needs from the call, given its arguments, its
    result and what ``before`` returned when the call started.
    """

    owner: object
    attr: str
    route: object = None
    note: object = None
    before: object = None


def _targets(tc) -> list[Target]:
    return [
        Target(tc.arith, "factorize", note=lambda a, r, b: abs(a[0]).bit_length()),
        Target(tc.descent, "locally_solvable",
               route=lambda a: "descent.locally_solvable." + solvability_route(a[1]),
               note=lambda a, r, b: float(bool(r))),
        Target(tc.descent, "selmer_set"),
        Target(tc.descent, "selmer_rank"),
        Target(tc.descent, "search_points", note=lambda a, r, b: len(r)),
        Target(tc.descent, "rank_lower_bound"),
        Target(tc.pointcount, "count_points"),
        # stages evaluated, negated when the candidate failed
        Target(tc.nagao, "passes_filter", note=lambda a, r, b: len(r[1]) * (1 if r[0] else -1)),
        Target(tc.curves, "is_torsion"),
        Target(tc.curves, "is_on_curve"),
        Target(tc.curves, "build_curve"),
        Target(tc.candidates, "generate_candidates", note=lambda a, r, b: len(r)),
        Target(tc.pipeline.CheckpointedWriter, "write",
               before=lambda a: a[0].fh.tell(), note=lambda a, r, b: a[0].fh.tell() - b),
        # the writer's checkpoint boundary: one span per flush
        Target(tc.pipeline.CheckpointedWriter, "_flush_ckpt"),
    ]


class Tracer:
    """Records spans for the layers of one imported thetacong package."""

    def __init__(self, package_modules):
        self.tc = package_modules
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "thetacong" or name.startswith("thetacong."))]
        try:
            for t in _targets(self.tc):
                original = t.owner.__dict__[t.attr]
                if isinstance(t.owner, type):
                    module = t.owner.__module__.rsplit(".", 1)[-1]
                    span_name = f"{module}.{t.owner.__name__}.{t.attr}"
                    holders = [t.owner]
                else:
                    span_name = f"{t.owner.__name__.rsplit('.', 1)[-1]}.{t.attr}"
                    holders = [m for m in modules if m.__dict__.get(t.attr) is original]
                wrapper = self._wrap(original, span_name, t)
                for holder in holders:
                    self._patches.append((holder, t.attr, original))
                    setattr(holder, t.attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, span_name, t: Target):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        route, note, before = t.route, t.note, t.before

        def traced(*args, **kwargs):
            start_note = before(args) if before is not None else None
            sp = Span(route(args) if route is not None else span_name, clock(), 0.0,
                      stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = clock()
                stack.pop()
            if note is not None:
                sp.note = note(args, result, start_note)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        return traced

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent index, note."""
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps([sp.name, sp.start, sp.end, sp.parent, sp.note]) + "\n")


LOCAL_ROUTES = ("real", "p2", "odd_small", "odd_large")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts, self times and ratios from one traced pass."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    notes: dict[str, list[float]] = {}
    for sp, st in zip(spans, selfs):
        calls[sp.name] = calls.get(sp.name, 0) + 1
        self_s[sp.name] = self_s.get(sp.name, 0.0) + st
        total_s[sp.name] = total_s.get(sp.name, 0.0) + sp.duration
        notes.setdefault(sp.name, []).append(sp.note)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    m: dict[str, float] = {}
    m["arith.factorize.calls"] = c("arith.factorize")
    m["arith.factorize.self_s"] = s("arith.factorize")
    m["arith.factorize.max_bits"] = max(notes.get("arith.factorize", [0]))

    ls_names = [f"descent.locally_solvable.{r}" for r in LOCAL_ROUTES]
    for name in ls_names:
        m[name + ".calls"] = c(name)
        m[name + ".self_s"] = s(name)
    ls_calls = sum(c(n) for n in ls_names)
    ls_true = sum(sum(notes.get(n, [])) for n in ls_names)
    m["descent.locally_solvable.solvable_frac"] = ls_true / ls_calls if ls_calls else 0.0

    # locally_solvable calls made under each selmer_set span
    under_set = 0
    is_set = [sp.name == "descent.selmer_set" for sp in spans]
    for sp in spans:
        if sp.name in ls_names:
            j = sp.parent
            while j >= 0 and not is_set[j]:
                j = spans[j].parent
            under_set += j >= 0
    m["descent.selmer_set.calls"] = c("descent.selmer_set")
    m["descent.selmer_set.self_s"] = s("descent.selmer_set")
    m["descent.selmer_set.torsors_per_set"] = under_set / c("descent.selmer_set") if c("descent.selmer_set") else 0.0

    m["descent.selmer_rank.calls"] = c("descent.selmer_rank")
    m["descent.selmer_rank.self_s"] = s("descent.selmer_rank")

    m["pointcount.count_points.calls"] = c("pointcount.count_points")
    m["pointcount.count_points.self_s"] = s("pointcount.count_points")
    cp = c("pointcount.count_points")
    m["pointcount.count_points.mean_us"] = total_s.get("pointcount.count_points", 0.0) / cp * 1e6 if cp else 0.0

    pf = notes.get("nagao.passes_filter", [])
    m["nagao.passes_filter.calls"] = len(pf)
    m["nagao.passes_filter.self_s"] = s("nagao.passes_filter")
    for k in (1, 2, 3):
        m[f"nagao.stage_reached.{k}"] = sum(1 for v in pf if abs(v) >= k)
    m["nagao.pass_frac"] = sum(1 for v in pf if v > 0) / len(pf) if pf else 0.0

    m["descent.search_points.calls"] = c("descent.search_points")
    m["descent.search_points.self_s"] = s("descent.search_points")
    m["descent.search_points.points"] = sum(notes.get("descent.search_points", []))
    m["curves.is_torsion.calls"] = c("curves.is_torsion")
    m["curves.is_torsion.self_s"] = s("curves.is_torsion")
    m["curves.is_on_curve.calls"] = c("curves.is_on_curve")
    m["descent.rank_lower_bound.self_s"] = s("descent.rank_lower_bound")

    m["candidates.generate_candidates.self_s"] = s("candidates.generate_candidates")
    m["candidates.generate_candidates.records"] = sum(notes.get("candidates.generate_candidates", []))

    w = "pipeline.CheckpointedWriter.write"
    m[w + ".calls"] = c(w)
    m[w + ".bytes"] = sum(notes.get(w, []))
    m[w + ".self_s"] = s(w)
    m["pipeline.CheckpointedWriter.flushes"] = c("pipeline.CheckpointedWriter._flush_ckpt")

    m["curves.build_curve.calls"] = c("curves.build_curve")
    m["curves.build_curve.self_s"] = s("curves.build_curve")
    return m
