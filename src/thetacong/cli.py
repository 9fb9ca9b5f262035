"""Command-line interface: sweep / hunt / verify / table1 / analyze.

A config file of key=value lines may set any long flag's default; flags on
the command line win.  Exit code is nonzero when verification fails.
"""

from __future__ import annotations

import argparse
import itertools
import os

from .arith import is_squarefree
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
    try:
        return SieveConfig(tuple(stages))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


# --range keeps its text and --theta the angle's name, from which the
# checkpoint key is built. argparse turns a ValueError from these types into
# a usage error such as "argument --range: invalid lo_hi_integers value: '5'",
# and an ArgumentTypeError into one that carries its message.
def theta_name(text: str) -> str:
    return theta_from_name(text).name


def lo_hi_integers(text: str) -> str:
    lo, _, hi = text.partition(":")
    if int(hi) < max(int(lo), 1):
        raise argparse.ArgumentTypeError(f"{text!r} holds no n >= 1; it needs lo <= hi and hi >= 1")
    return text


def _int_at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
    return value


def positive_int(text: str) -> int:
    return _int_at_least(1, text)


def nonnegative_int(text: str) -> int:
    return _int_at_least(0, text)


def squarefree_int(text: str) -> int:
    if not is_squarefree(value := positive_int(text)):
        raise argparse.ArgumentTypeError(f"{value} is not squarefree")
    return value


def _load_config(ap: argparse.ArgumentParser, path: str) -> dict[str, str]:
    try:
        fh = open(path)
    except OSError as err:
        ap.error(f"config file {path}: {err.strerror}")
    out = {}
    with fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                ap.error(f"config file {path}: line {line!r} is not key=value")
            out[key.strip()] = value.strip()
    return out


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    ap = argparse.ArgumentParser(prog="thetacong", description=__doc__)
    ap.add_argument("--config", help="key=value config file; flags override it")
    sub = ap.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="Step I: Selmer sweep over squarefree n in a range")
    sweep.add_argument("--range", type=lo_hi_integers, required=True, help="lo:hi inclusive, e.g. 1:100000")
    sweep.add_argument("--report-selmer-min", type=int, default=3)

    hunt = sub.add_parser("hunt", help="Step II: Kan grid + Nagao sieve + Selmer threshold")
    hunt.add_argument("--pmax", type=positive_int, required=True)
    hunt.add_argument("--qmax", type=positive_int, required=True)
    hunt.add_argument("--min-omega", type=int, default=4)
    hunt.add_argument("--stages", type=_parse_stages, default=SieveConfig(),
                      help="comma list N:threshold, e.g. 1000:15,10000:20,100000:40")
    hunt.add_argument("--selmer-min", type=int, default=None,
                      help="keep curves with selmer rank strictly above this (default per theta)")

    table1 = sub.add_parser("table1", help="Selmer tally for squarefree n <= bound")
    table1.add_argument("--bound", type=positive_int, required=True)

    verify = sub.add_parser("verify", help="verify all published curves and generators")
    verify.add_argument("--quiet", action="store_true")

    analyze = sub.add_parser("analyze", help="deep dive on one curve")
    analyze.add_argument("n", type=squarefree_int)

    # the shared flags, each on the subcommands that read it
    for p in (sweep, hunt, table1, analyze):
        p.add_argument("--theta", type=theta_name, default="pi/3", help="pi/3 or 2pi/3")
    for p in (sweep, table1):
        p.add_argument("--workers", type=positive_int, default=1)
    for p in (sweep, hunt):
        p.add_argument("--out", help="JSONL output path")
        p.add_argument("--checkpoint", action="store_true", help="resume from an existing checkpoint")
    for p in (sweep, hunt, analyze):
        p.add_argument("--height-bound", type=positive_int, default=1000)
        p.add_argument("--torsor-bound", type=nonnegative_int, default=100,
                       help="0 skips the torsor point sweep")
    return ap, sub


def _print_tally(tally: dict) -> None:
    print("s:      " + "  ".join(f"{s:>8}" for s in list(range(6)) + [">=6"]) + f"  {'total':>8}")
    print("count:  " + "  ".join(f"{c:>8}" for c in tally["cells"]) + f"  {tally['total']:>8}")


def main(argv=None) -> int:
    ap, sub = _build_parser()
    pre = argparse.ArgumentParser(prog=ap.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path:
        # Config values become the defaults of the flags they name in every
        # subcommand: each keeps its flag's type, a command-line flag wins,
        # and a required flag may come from the file.
        actions = [a for p in sub.choices.values() for a in p._actions
                   if a.option_strings and a.dest != "help"]
        for raw_key, value in _load_config(ap, path).items():
            named = [a for a in actions if a.dest == raw_key.replace("-", "_")]
            if not named:
                ap.error(f"config file {path}: {raw_key!r} names no flag")
            for action in named:
                action.default = value.lower() in ("1", "true", "yes") if isinstance(action.default, bool) else value
                action.required = False
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

    if args.command == "table1":
        _print_tally(run_table1(args.bound, theta, workers=args.workers))
        return 0

    writer, kept = None, ()
    if args.out:
        # two spellings of one --out path share the key, so either resumes the other
        flags = dict(vars(args), out=os.path.normpath(args.out))
        key = repr(sorted((k, str(v)) for k, v in flags.items() if k not in ("checkpoint", "workers")))
        try:
            writer = CheckpointedWriter(args.out, key, resume=args.checkpoint)
        except ValueError as err:
            ap.error(str(err))
        kept = writer.kept()  # a resumed run reports the records it keeps too

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
            _print_tally(selmer_tally(itertools.chain(kept, recs)))
        else:
            count = 0
            for rec in itertools.chain(kept, run_hunt(
                args.pmax, args.qmax, theta,
                min_omega=args.min_omega,
                sieve=args.stages,
                selmer_min=args.selmer_min,
                height_bound=args.height_bound,
                torsor_bound=args.torsor_bound,
                writer=writer,
            )):
                count += 1
                print(f"n={rec.n} omega={rec.omega_odd} selmer={rec.selmer} rank_lb={rec.rank_lb}")
            print(f"{count} survivors")
    finally:
        if writer is not None:
            writer.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
