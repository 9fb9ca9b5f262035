"""Reproduce the ROADMAP baseline figures through the benchmark's own
workloads and tracer, and write them to baseline.json with the machine
details.

    python3 perfbench/baseline.py

For each workload (seed DEFAULT_SEED) it runs an untraced pass, a traced pass
and another untraced pass; the tracing overhead is the traced wall time minus
the mean of the two untraced ones.  Each figure is set beside the value the
ROADMAP states, and flagged when they differ by more than FLAG_SHARE of the
ROADMAP value (or range); no figure is adjusted.  Then every workload runs one pass on
HELD_OUT_SEED, a seed not used while the benchmark was written, and its
checks are recorded.  Takes about four minutes.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as R  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 4242
FLAG_SHARE = 0.25
VERIFY_REPEATS = 3

# figure: (ROADMAP low, ROADMAP high, unit, what the ROADMAP measured)
ROADMAP = {
    "sweep_ms_per_curve": (7.3, 7.3, "ms", "run_sweep pi/3, n in 90001..1e5"),
    "sweep_p2_share": (0.54, 0.54, "ratio", "_zp_bfs under cProfile, n in 90001..92000"),
    "sweep_factorize_share": (0.15, 0.15, "ratio", "factorize under cProfile, n in 90001..92000"),
    "search_points_s_per_curve": (1.4, 2.6, "s", "search_points(E, 1000, 100) per published curve"),
    "run_verify_s": (1.0, 1.0, "s", "run_verify()"),
    "passes_filter_s_to_1e5": (15.7, 15.7, "s", "passes_filter on n = 365803464586, all three stages"),
}


def traced_run(wl, tc):
    """untraced, traced, untraced passes; returns (passes, checks, spans)."""
    passes, checks = [], []
    tr = T.Tracer(tc)
    for traced in (False, True, False):
        if traced:
            with tr:
                out = wl.execute()
        else:
            out = wl.execute()
        passes.append(out)
        checks.append(wl.check(out))
    return passes, checks, tr.spans


def main() -> int:
    tc = R.import_program()
    ref = W.load_reference()
    os.makedirs(R.OUT_DIR, exist_ok=True)
    figures, workloads = {}, {}
    for name in W.WORKLOADS:
        wl = W.make_workload(name, tc, DEFAULT_SEED, ref, R.OUT_DIR)
        wl.warmup()
        passes, checks, spans = traced_run(wl, tc)
        untraced = statistics.mean([passes[0].wall_s, passes[2].wall_s])
        layers = T.layer_metrics(spans)
        workloads[name] = {
            "inputs": wl.inputs(),
            "untraced_wall_s": [passes[0].wall_s, passes[2].wall_s],
            "traced_wall_s": passes[1].wall_s,
            "trace_overhead_s": passes[1].wall_s - untraced,
            "spans": len(spans),
            "failed": sum(c.failed for c in checks),
            "attempted": sum(c.attempted for c in checks),
            "layers": layers,
        }
        traced_wall = passes[1].wall_s
        if name == "sweep":
            figures["sweep_ms_per_curve"] = untraced / passes[0].items * 1e3
            figures["sweep_p2_share"] = layers["descent.locally_solvable.p2.self_s"] / traced_wall
            figures["sweep_factorize_share"] = layers["arith.factorize.self_s"] / traced_wall
        elif name == "hunt":
            full = [sp.duration for sp in spans if sp.name == "nagao.passes_filter" and abs(sp.note) == 3]
            figures["passes_filter_s_to_1e5"] = statistics.mean(full)
        else:
            # the pass certifies the published curves before run_verify searches its small anchors
            searches = [sp.duration for sp in spans if sp.name == "descent.search_points"]
            figures["search_points_s_per_curve"] = statistics.mean(searches[: len(wl.entries)])
            verify = []
            for _ in range(VERIFY_REPEATS):
                t0 = time.perf_counter()
                if not tc.pipeline.run_verify().ok:
                    raise RuntimeError("run_verify failed")
                verify.append(time.perf_counter() - t0)
            figures["run_verify_s"] = statistics.median(verify)
        print(f"{name}: untraced {untraced:.2f} s, traced {traced_wall:.2f} s, "
              f"failed {workloads[name]['failed']}/{workloads[name]['attempted']}", flush=True)

    compared = {}
    for key, (lo, hi, unit, what) in ROADMAP.items():
        v = figures[key]
        share = v / hi - 1 if v > hi else v / lo - 1 if v < lo else 0.0
        compared[key] = {"measured": v, "roadmap": [lo, hi] if lo != hi else lo, "unit": unit,
                         "roadmap_measured": what, "differs_by": share, "flagged": abs(share) > FLAG_SHARE}

    held_out = {}
    for name in W.WORKLOADS:
        wl = W.make_workload(name, tc, HELD_OUT_SEED, ref, R.OUT_DIR)
        wl.warmup()
        out = wl.execute()
        chk = wl.check(out)
        held_out[name] = {"inputs": wl.inputs(), "wall_s": out.wall_s, "attempted": chk.attempted,
                          "failed": chk.failed, "problems": chk.problems}
        print(f"held-out seed {HELD_OUT_SEED} {name}: failed {chk.failed}/{chk.attempted}", flush=True)

    result = {"machine": R.machine(), "seed": DEFAULT_SEED, "figures": compared, "workloads": workloads,
              "held_out_seed": HELD_OUT_SEED, "held_out": held_out}
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for key, c in compared.items():
        flag = "  FLAGGED" if c["flagged"] else ""
        print(f"{key}: {c['measured']:.4g} {c['unit']} (ROADMAP {c['roadmap']}){flag}")
    ok = all(w["failed"] == 0 for w in workloads.values()) and all(h["failed"] == 0 for h in held_out.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
