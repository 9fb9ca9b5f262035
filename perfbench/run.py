"""The thetacong benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and nothing else.  One process runs one workload (``workers=1``):

1. set-up: ``SETUP_PROBES`` fresh interpreters each import the package and run
   the workload's first item; ``setup_s`` is the median time from launching
   one to the end of that item (both read the system-wide monotonic clock);
2. the same first item runs in this process, untimed, so caches are warm;
3. with ``--trace 0``, whole passes of the workload run for about
   ``--seconds`` (at least one), and ``wall_s`` and ``items_per_s`` are the
   medians over passes;  with ``--trace 1``, one untraced pass and then one
   traced pass run, and the per-layer metrics come from the traced one.

The end-to-end times are put on a fixed scale of host speed by
``hostspeed``: two fixed kernels sampled during each pass and each set-up
probe measure how fast the shared host is running, and each time is scaled
to the reference speed.  The raw times are printed and recorded too.

Every pass's outputs are checked.  The script prints one ``name value unit``
line per metric and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 0 when every
check passed, 1 when one failed, and 2 when the package source is missing.
Spans and a full result record go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 7
SETUP_PROBE_INTERVAL_S = 0.02  # a set-up takes 0.2-1.5 s
SETUP_AFTER_SAMPLES = 10
PROBE_TIMEOUT_S = 150

sys.path.insert(0, HERE)

import hostspeed as H  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metrics the traced run adds to tracer.layer_metrics
BENCH_LAYER_METRICS = ("bench.trace_overhead_s", "bench.rank_gap",
                       "pipeline.run_sweep.item_p50_ms", "pipeline.run_sweep.item_p99_ms")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_frac", "ratio"),
                         (".max_bits", "bits"), (".bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


class MissingProgram(Exception):
    pass


def import_program() -> types.SimpleNamespace:
    """Import thetacong from this checkout's src/ and return its modules."""
    if not os.path.isfile(os.path.join(SRC, "thetacong", "__init__.py")):
        raise MissingProgram(f"no thetacong package under {SRC}")
    sys.path.insert(0, SRC)
    import thetacong
    from thetacong import arith, candidates, curves, dataset, descent, nagao, pipeline, pointcount

    if not os.path.abspath(thetacong.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"thetacong imported from {thetacong.__file__}, not from {SRC}")
    return types.SimpleNamespace(arith=arith, candidates=candidates, curves=curves, dataset=dataset,
                                 descent=descent, nagao=nagao, pipeline=pipeline, pointcount=pointcount)


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}


def probe_setup(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: import, first item, clock.

    Prints the end time, the time the speed probes took, and the host speed
    sampled during the set-up and right after it."""
    share = W.INTERPRETER_SHARE[workload]
    with H.SpeedProbe(share, interval=SETUP_PROBE_INTERVAL_S) as probe:
        tc = import_program()
        W.make_workload(workload, tc, seed, W.load_reference(), OUT_DIR).warmup()
        end = time.monotonic()
    samples = probe.samples + [H.time_kernels() for _ in range(SETUP_AFTER_SAMPLES)]
    print(repr(end), repr(probe.spent), repr(H.speed(samples, share)))


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and speed-adjusted set-up times of ``SETUP_PROBES`` fresh interpreters."""
    times, adjusted = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        end, spent, speed = map(float, proc.stdout.split()[-3:])
        times.append(end - t0 - spent)
        adjusted.append((end - t0 - spent) * speed)
    return times, adjusted


def latency_tail(item_ms: list[float]) -> dict[str, float]:
    """Median and p99 item latency; p99 only with at least ten samples beyond it."""
    out = {}
    if item_ms:
        out["item_p50_ms"] = statistics.median(item_ms)
    if len(item_ms) >= 1000:
        out["item_p99_ms"] = statistics.quantiles(item_ms, n=100)[98]
    return out


def run(args) -> int:
    tc = import_program()
    ref = W.load_reference()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        wl = W.make_workload(args.workload, tc, args.seed, ref, workdir)
        setup, setup_adjusted = measure_setup(args.workload, args.seed) if not args.trace else ([], [])
        wl.warmup()
        passes, checks, adjusted, probes = [], [], [], []

        def one_pass():
            if args.trace:
                out = wl.execute()
            else:
                with H.SpeedProbe(W.INTERPRETER_SHARE[args.workload]) as probe:
                    out = wl.execute()
                adjusted.append(probe.adjust(out.wall_s))
                probes.append({"spent": probe.spent, "samples": probe.samples})
            passes.append(out)
            checks.append(wl.check(out))
            return out

        if not args.trace:
            first = one_pass()
            for _ in range(max(1, round(args.seconds / first.wall_s)) - 1):
                one_pass()
        else:
            one_pass()
            tr = T.Tracer(tc)
            with tr:
                out = wl.execute()
            passes.append(out)
            checks.append(wl.check(out))
            tr.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = [p for c in checks for p in c.problems]
    untraced = passes if not args.trace else passes[:1]
    tail = latency_tail([ms for p in untraced for ms in p.item_ms])
    if not args.trace:
        values = {
            "setup_s": statistics.median(setup_adjusted),
            "wall_s": statistics.median(adjusted),
            "items_per_s": statistics.median(p.items / a for p, a in zip(passes, adjusted)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        values = T.layer_metrics(tr.spans)
        values["bench.trace_overhead_s"] = passes[1].wall_s - passes[0].wall_s
        values["bench.rank_gap"] = checks[0].rank_gap
        values["pipeline.run_sweep.item_p50_ms"] = tail.get("item_p50_ms", 0.0) if args.workload == "sweep" else 0.0
        values["pipeline.run_sweep.item_p99_ms"] = tail.get("item_p99_ms", 0.0) if args.workload == "sweep" else 0.0
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}

    extras = {"failed_frac": failed / attempted if attempted else 1.0, "rank_gap": checks[0].rank_gap,
              "passes": len(passes), "pass_wall_s": [p.wall_s for p in passes],
              "pass_adjusted_s": adjusted, "pass_probes": probes, "raw_setup_s": statistics.median(setup) if setup else None,
              "raw_wall_s": statistics.median(p.wall_s for p in passes),
              "item_samples": sum(len(p.item_ms) for p in untraced), **tail}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "inputs": wl.inputs(), "machine": machine(), "setup_probes_s": setup,
              "setup_probes_adjusted_s": setup_adjusted, "extras": extras,
              "problems": problems, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(f"# {args.workload} seed={args.seed} inputs={wl.inputs()!r} passes={len(passes)} machine={record['machine']}")
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {extras['failed_frac']:.6g} ratio")
    if not args.trace:
        print(f"raw_setup_s {extras['raw_setup_s']:.6g} s (not speed-adjusted)")
        print(f"raw_wall_s {extras['raw_wall_s']:.6g} s (not speed-adjusted)")
        for k in ("item_p50_ms", "item_p99_ms"):
            if k in tail:
                print(f"{k} {tail[k]:.6g} ms (of {extras['item_samples']} items)")
        if args.workload != "sweep":
            print(f"rank_gap {extras['rank_gap']} count")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            probe_setup(args.workload, args.seed)
            return 0
        return run(args)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
