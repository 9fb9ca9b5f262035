"""Command-line interface: sweep / hunt / verify / table1 / analyze.

A config file of key=value lines may set any long flag's default; flags on
the command line win.  Exit code is nonzero when verification fails.
"""

from __future__ import annotations

import argparse

from .curves import theta_from_name
from .nagao import SieveConfig
from .pipeline import (
    CheckpointedWriter,
    run_analyze,
    run_hunt,
    run_sweep,
    run_table1,
    run_verify,
    selmer_tally,
)


def _parse_stages(text: str) -> SieveConfig:
    stages = []
    for part in text.split(","):
        N, thr = part.split(":")
        stages.append((int(N), float(thr)))
    return SieveConfig(tuple(stages))


def _load_config(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    ap = argparse.ArgumentParser(prog="thetacong", description=__doc__)
    ap.add_argument("--config", help="key=value config file; flags override it")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--theta", default="pi/3", help="pi/3 or 2pi/3")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", help="JSONL output path")
        p.add_argument("--checkpoint", action="store_true", help="resume from an existing checkpoint")
        p.add_argument("--height-bound", type=int, default=1000)
        p.add_argument("--torsor-bound", type=int, default=100)

    p = sub.add_parser("sweep", help="Step I: Selmer sweep over squarefree n in a range")
    common(p)
    p.add_argument("--range", required=True, help="lo:hi inclusive, e.g. 1:100000")
    p.add_argument("--report-selmer-min", type=int, default=3)

    p = sub.add_parser("hunt", help="Step II: Kan grid + Nagao sieve + Selmer threshold")
    common(p)
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--min-omega", type=int, default=4)
    p.add_argument("--stages", type=_parse_stages, default=SieveConfig(),
                   help="comma list N:threshold, e.g. 1000:15,10000:20,100000:40")
    p.add_argument("--selmer-min", type=int, default=None,
                   help="keep curves with selmer rank strictly above this (default per theta)")

    p = sub.add_parser("table1", help="Selmer tally for squarefree n <= bound")
    common(p)
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("verify", help="verify all published curves and generators")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("analyze", help="deep dive on one curve")
    common(p)
    p.add_argument("n", type=int)
    return ap, sub


def _print_tally(tally: dict) -> None:
    print("s:      " + "  ".join(f"{s:>8}" for s in list(range(6)) + [">=6"]) + f"  {'total':>8}")
    print("count:  " + "  ".join(f"{c:>8}" for c in tally["cells"]) + f"  {tally['total']:>8}")


def main(argv=None) -> int:
    ap, sub = _build_parser()
    args = ap.parse_args(argv)
    if args.config:
        # Config values become the subcommand's defaults, so argparse gives
        # them each flag's own type and any flag on the command line wins.
        # One file may serve several subcommands, so a key is an error only
        # when it names no flag of any of them.
        parser = sub.choices[args.command]
        known = {a.dest for p in (ap, *sub.choices.values()) for a in p._actions}
        for raw_key, value in _load_config(args.config).items():
            key = raw_key.replace("-", "_")
            if key not in known:
                ap.error(f"config file {args.config}: {raw_key!r} names no flag")
            if key in ("command", "config") or not hasattr(args, key):
                continue
            if isinstance(parser.get_default(key), bool):
                value = value.lower() in ("1", "true", "yes")
            parser.set_defaults(**{key: value})
        args = ap.parse_args(argv)

    if args.command == "verify":
        report = run_verify()
        for r in report.results:
            status = "PASS" if r.ok else "FAIL"
            if not args.quiet or not r.ok:
                print(f"[{status}] {r.entry:28s} {r.check:22s} {r.detail}")
        for note in report.anomalies:
            print(f"[NOTE] {note}")
        print("verification", "OK" if report.ok else "FAILED")
        return 0 if report.ok else 1

    theta = theta_from_name(args.theta)

    if args.command == "analyze":
        print(run_analyze(args.n, theta, args.height_bound, args.torsor_bound))
        return 0

    writer = None
    if getattr(args, "out", None):
        key = repr(sorted((k, str(v)) for k, v in vars(args).items() if k not in ("checkpoint", "workers")))
        writer = CheckpointedWriter(args.out, key, resume=args.checkpoint)

    try:
        if args.command == "sweep":
            lo, _, hi = args.range.partition(":")
            recs = run_sweep(
                int(lo), int(hi), theta,
                report_selmer_min=args.report_selmer_min,
                height_bound=args.height_bound,
                torsor_bound=args.torsor_bound,
                workers=args.workers,
                writer=writer,
            )
            _print_tally(selmer_tally(recs))
        elif args.command == "table1":
            _print_tally(run_table1(args.bound, theta, workers=args.workers))
        elif args.command == "hunt":
            count = 0
            for rec in run_hunt(
                args.pmax, args.qmax, theta,
                min_omega=args.min_omega,
                sieve=args.stages,
                selmer_min=args.selmer_min,
                height_bound=args.height_bound,
                torsor_bound=args.torsor_bound,
                writer=writer,
            ):
                count += 1
                print(f"n={rec.n} omega={rec.omega_odd} selmer={rec.selmer} rank_lb={rec.rank_lb}")
            print(f"{count} survivors")
    finally:
        if writer is not None:
            writer.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
