"""Pipeline tests: JSONL round trips, checkpoint/resume byte identity, the
sweep and hunt flows, golden verification, and the CLI surface."""

import json
import math
import os
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

from thetacong import pipeline
from thetacong.arith import squarefree_count, squarefree_flags, squarefree_part
from thetacong.candidates import CandidateRecord, omega_odd
from thetacong.curves import PI_3, TWO_PI_3, PointQ, build_curve, is_on_curve
from thetacong.cli import main as cli_main
from thetacong.dataset import PUBLISHED, TABLE1, find_published
from thetacong.nagao import SieveConfig
from thetacong.pipeline import (
    CheckpointedWriter,
    check_s0_has_no_small_point,
    record_from_json,
    record_to_json,
    run_analyze,
    run_hunt,
    run_sweep,
    run_table1,
    run_verify,
    selmer_tally,
)

DATA = pathlib.Path(__file__).resolve().parent / "data"


def test_record_json_roundtrip():
    rec = CandidateRecord(
        n=646,
        theta=PI_3,
        provenance=[(1, 2), (3, 4)],
        omega_odd=2,
        nagao_values={1000: 17.25},
        selmer=3,
        rank_lb=3,
        points=[PointQ.affine(-722, 34656)],
    )
    back = record_from_json(record_to_json(rec))
    assert back == rec
    # n survives as an exact decimal string even past double precision
    big = CandidateRecord(n=365803464586**2 + 1, theta=TWO_PI_3)
    assert record_from_json(record_to_json(big)).n == big.n


def test_default_sweep_record_pickles_and_round_trips():
    # a table1-mode record keeps the shared empty defaults, which survive
    # a worker's pickle and the JSONL round trip and print as before
    rec = next(run_sweep(6, 6, PI_3, report_selmer_min=10**9))
    assert rec.provenance == () and rec.points == () and rec.nagao_values is None
    assert pickle.loads(pickle.dumps(rec)) == rec
    line = record_to_json(rec)
    assert '"nagao":{}' in line and '"points":[]' in line and '"provenance":[]' in line
    assert record_from_json(line) == rec


def test_sweep_tally_partitions_range():
    recs = list(run_sweep(1, 300, PI_3, report_selmer_min=3, height_bound=100, torsor_bound=30))
    tally = selmer_tally(recs)
    assert tally["total"] == squarefree_count(300)
    assert sum(tally["cells"]) == tally["total"]
    ns = [r.n for r in recs]
    assert ns == sorted(ns)
    flags = squarefree_flags(300)
    assert ns == [n for n in range(1, 301) if flags[n]]


def test_squarefree_tasks_match_factorization():
    # the sieve covers [lo, hi] alone, in blocks; windows straddle a block
    # boundary and reach 5e6
    block = pipeline._SIEVE_BLOCK
    for lo, hi in ((1, 300), (block - 20, block + 20), (2 * block - 1, 2 * block), (99_990, 100_010),
                   (4_999_900, 5_000_000), (7, 3)):
        want = [n for n in range(lo, hi + 1) if squarefree_part(n) == n]
        got = list(pipeline._squarefree_tasks(lo, hi))
        assert got == want and all(type(n) is int for n in got), (lo, hi)


def test_sweep_omega_counts_odd_primes_of_n():
    for theta in (PI_3, TWO_PI_3):
        for rec in run_sweep(1, 300, theta, report_selmer_min=10**9):
            assert rec.omega_odd == omega_odd(rec.n), (rec.n, theta.name)


def test_sweep_records_satisfy_bounds():
    for rec in run_sweep(1, 200, TWO_PI_3, report_selmer_min=2, height_bound=150, torsor_bound=30):
        assert rec.selmer is not None and rec.selmer >= 0
        if rec.rank_lb is not None:
            assert rec.rank_lb <= rec.selmer
            E = build_curve(rec.n, rec.theta)
            for P in rec.points:
                assert is_on_curve(P, E)


def test_table1_small_matches_sweep():
    tally = run_table1(150, PI_3)
    recs = run_sweep(1, 150, PI_3, report_selmer_min=10**9)
    assert tally == selmer_tally(recs)


def test_checkpoint_resume_byte_identical(tmp_path):
    cfg = "sweep-test-config"
    base = tmp_path / "full.jsonl"
    w = CheckpointedWriter(str(base), cfg)
    recs = list(run_sweep(1, 300, PI_3, report_selmer_min=3, writer=w))
    w.close()
    reference = base.read_bytes()

    # interrupted run: stop mid-range without closing cleanly, then resume;
    # the 92 squarefree n <= 150 cross the writer's flush after 64 records
    part = tmp_path / "part.jsonl"
    w1 = CheckpointedWriter(str(part), cfg)
    for rec in recs:
        if rec.n > 150:
            break
        w1.write(rec)
    w1.fh.close()  # simulate a kill: no final checkpoint flush
    w2 = CheckpointedWriter(str(part), cfg, resume=True)
    assert w2.last_n is not None
    resume_after = w2.last_n
    consumed = list(run_sweep(1, 300, PI_3, report_selmer_min=3, writer=w2))
    w2.close()
    assert part.read_bytes() == reference
    # the resumed sweep recomputed only n past the checkpoint
    assert consumed and consumed[0].n > resume_after


def test_checkpoint_config_mismatch_restarts(tmp_path):
    path = tmp_path / "out.jsonl"
    w = CheckpointedWriter(str(path), "config-A")
    for rec in run_sweep(1, 120, PI_3, report_selmer_min=99, writer=w):
        pass
    w.close()
    # resuming with a different config ignores the stale checkpoint
    w2 = CheckpointedWriter(str(path), "config-B", resume=True)
    assert w2.last_n is None
    w2.close()


def _bad_checkpoints(path):
    """A sweep's JSONL and .ckpt, each spoiled in turn: the JSONL cut short
    of the checkpoint's offset, a .ckpt that is not JSON, one with a key
    missing.  Yields the spoiled JSONL bytes after writing each case."""
    ckpt = pathlib.Path(str(path) + ".ckpt")
    data, good = path.read_bytes(), json.loads(ckpt.read_text())
    missing = {k: v for k, v in good.items() if k != "offset"}
    for jsonl, text in ((data[: good["offset"] // 2], json.dumps(good)), (data, "{not json"),
                        (data, json.dumps(missing))):
        path.write_bytes(jsonl)
        ckpt.write_text(text)
        yield jsonl


def test_checkpoint_resume_refuses_a_bad_checkpoint(tmp_path):
    path = tmp_path / "out.jsonl"
    w = CheckpointedWriter(str(path), "config-A")
    for rec in run_sweep(1, 120, PI_3, report_selmer_min=99, writer=w):
        pass
    w.close()
    for jsonl in _bad_checkpoints(path):
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))}.ckpt"):
            CheckpointedWriter(str(path), "config-A", resume=True)
        assert path.read_bytes() == jsonl  # neither padded nor cut


def test_cli_resume_from_a_bad_checkpoint_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "sweep.jsonl"
    argv = ["sweep", "--range", "1:100", "--out", str(path), "--checkpoint", "--torsor-bound", "10"]
    assert cli_main(argv) == 0
    capsys.readouterr()
    for jsonl in _bad_checkpoints(path):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2 and f"checkpoint {path}.ckpt" in capsys.readouterr().err
        assert path.read_bytes() == jsonl


def test_parallel_sweep_matches_serial(tmp_path):
    # two worker processes, several imap chunks of 64, and point searches
    # on the rows with selmer >= 2
    out = {}
    for workers in (1, 2):
        path = tmp_path / f"w{workers}.jsonl"
        w = CheckpointedWriter(str(path), "parallel-test")
        recs = list(run_sweep(1, 400, TWO_PI_3, report_selmer_min=2, height_bound=100,
                              torsor_bound=20, workers=workers, writer=w))
        w.close()
        out[workers] = recs, path.read_bytes()
    assert out[2][0] == out[1][0]
    assert out[2][1] == out[1][1]
    assert any(rec.points for rec in out[1][0])


def test_interleaved_sweeps_keep_their_settings():
    # each sweep carries its own settings, so two sweeps drawn in turn
    # give what each gives alone
    alone = [list(run_sweep(1, 60, theta, report_selmer_min=m, height_bound=80, torsor_bound=20))
             for theta, m in ((PI_3, 1), (TWO_PI_3, 10**9))]
    both = zip(*(run_sweep(1, 60, theta, report_selmer_min=m, height_bound=80, torsor_bound=20)
                 for theta, m in ((PI_3, 1), (TWO_PI_3, 10**9))))
    assert [list(pair) for pair in both] == [list(pair) for pair in zip(*alone)]


@pytest.mark.slow
def test_hunt_small_grid_emits_n6():
    cfg = SieveConfig(((100, -math.inf),))
    recs = list(
        run_hunt(30, 30, PI_3, min_omega=0, sieve=cfg, selmer_min=0,
                 height_bound=100, torsor_bound=20, pmin=1, qmin=1)
    )
    ns = {r.n for r in recs}
    assert 6 in ns
    for r in recs:
        assert r.selmer > 0
        assert r.rank_lb is not None and r.rank_lb <= r.selmer
        if r.n == 6:
            assert r.rank_lb >= 1
    assert [r.n for r in recs] == sorted(ns)


def test_hunt_empty_grid():
    assert list(run_hunt(1, 1, PI_3)) == []


def test_hunt_respects_nagao_filter():
    # default stages reject every tiny curve at S(10^3) > 15
    recs = list(run_hunt(8, 8, PI_3, min_omega=0, selmer_min=0, pmin=1, qmin=1))
    assert recs == []


def test_verify_report_all_green():
    report = run_verify()
    assert report.ok
    checks = {(r.entry, r.check) for r in report.results}
    assert len([c for c in checks if c[1] == "coefficients"]) == len(PUBLISHED)
    # the 2pi/3 rank-6 headline mismatch and duplicated companions are flagged
    assert any("4562490669" in a for a in report.anomalies)
    assert any("more than once" in a for a in report.anomalies)


def test_find_published():
    assert find_published(646, PI_3).rank == 3
    assert find_published(456249066, TWO_PI_3).rank == 6
    assert find_published(4562490669, TWO_PI_3) is not None  # headline alias
    assert find_published(646, TWO_PI_3) is None


def test_table1_reference_rows_shape():
    for theta_name, row in TABLE1.items():
        assert len(row) == 7
        assert sum(row) == 3039633


def test_analyze_output():
    text = run_analyze(1, PI_3, height_bound=100, torsor_bound=20)
    assert "selmer rank = 0" in text
    assert "rank lower bound from found points = 0" in text
    # the full report, torsor verdict lines included, is pinned byte for byte
    assert text == (DATA / "analyze_1_pi3.txt").read_text()
    text = run_analyze(221, TWO_PI_3, height_bound=300, torsor_bound=40)
    assert "selmer rank = 3" in text
    assert "rank lower bound from found points = 3" in text
    assert text == (DATA / "analyze_221_2pi3.txt").read_text()


def test_check_s0_has_no_small_point():
    recs = list(run_sweep(1, 60, PI_3, report_selmer_min=99))
    zeros = [r for r in recs if r.selmer == 0]
    assert zeros, "range should contain selmer-0 curves"
    assert check_s0_has_no_small_point(recs, xheight=1000) == []


def test_cli_verify_quiet():
    assert cli_main(["verify", "--quiet"]) == 0


def test_cli_analyze(capsys):
    assert cli_main(["analyze", "1", "--theta", "pi/3", "--height-bound", "50", "--torsor-bound", "10"]) == 0
    out = capsys.readouterr().out
    assert "selmer rank = 0" in out


def test_cli_sweep_with_output(tmp_path, capsys):
    out_path = tmp_path / "sweep.jsonl"
    rc = cli_main([
        "sweep", "--range", "1:100", "--theta", "2pi/3",
        "--out", str(out_path), "--height-bound", "100", "--torsor-bound", "20",
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "total" in printed
    lines = out_path.read_text().strip().splitlines()
    flags = squarefree_flags(100)
    assert len(lines) == int(flags.sum())
    first = json.loads(lines[0])
    assert first["n"] == "1" and first["selmer"] == 0
    assert os.path.exists(str(out_path) + ".ckpt")


def test_cli_theta_spellings_share_one_checkpoint(tmp_path, capsys):
    # the checkpoint key holds --out too, so every run writes the same path
    out_path, hashes = tmp_path / "s.jsonl", set()
    for spelling in ("pi/3", "PI/3", " pi / 3"):
        assert cli_main(["sweep", "--range", "1:20", "--theta", spelling, "--out", str(out_path)]) == 0
        hashes.add(json.loads(pathlib.Path(str(out_path) + ".ckpt").read_text())["config"])
    assert len(hashes) == 1


_SWEEP_ONE = pipeline._sweep_one


class _Killed(Exception):
    pass


def _counting_sweep_one(monkeypatch, stop_after=None):
    """Record each n the sweep computes; raise _Killed past stop_after, as a
    kill would stop the run."""
    computed = []

    def one(n, *args, **kwargs):
        if stop_after is not None and n > stop_after:
            raise _Killed
        computed.append(n)
        return _SWEEP_ONE(n, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_sweep_one", one)
    return computed


def test_cli_resumed_sweep_reports_the_whole_run(tmp_path, capsys, monkeypatch):
    argv = ["sweep", "--range", "1:300", "--torsor-bound", "10"]
    full, part = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
    assert cli_main(argv + ["--out", str(full)]) == 0
    reference = capsys.readouterr().out
    assert reference.split()[-1] == "183"

    _counting_sweep_one(monkeypatch, stop_after=150)
    with pytest.raises(_Killed):
        cli_main(argv + ["--out", str(part)])
    capsys.readouterr()
    computed = _counting_sweep_one(monkeypatch)
    assert cli_main(argv + ["--out", str(part), "--checkpoint"]) == 0
    assert capsys.readouterr().out == reference
    assert part.read_bytes() == full.read_bytes()
    assert computed and min(computed) > 150


def test_cli_out_spellings_resume_each_other(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--range", "1:300", "--torsor-bound", "10"]
    assert cli_main(argv + ["--out", "r.jsonl"]) == 0
    reference, data = capsys.readouterr().out, (tmp_path / "r.jsonl").read_bytes()
    computed = _counting_sweep_one(monkeypatch)
    assert cli_main(argv + ["--out", "./r.jsonl", "--checkpoint"]) == 0
    assert computed == []
    assert capsys.readouterr().out == reference
    assert (tmp_path / "r.jsonl").read_bytes() == data


def test_cli_import_leaves_hashlib_out():
    # hashlib loads OpenSSL; the checkpoint stores its config key as it is
    code = "import sys, thetacong.cli\nassert 'hashlib' not in sys.modules"
    src = pathlib.Path(pipeline.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_rejects_flags_a_subcommand_does_not_read(tmp_path, capsys):
    out_path = tmp_path / "t.jsonl"
    for argv in (
        ["table1", "--bound", "50", "--out", str(out_path)],
        ["hunt", "--pmax", "5", "--qmax", "5", "--workers", "4"],
        ["analyze", "1", "--out", str(out_path)],
    ):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out_path.exists()
    assert not os.path.exists(str(out_path) + ".ckpt")


def test_cli_rejects_bad_values(capsys):
    for argv, flag in (
        (["analyze", "1", "--theta", "pi/4"], "--theta"),
        (["sweep", "--range", "5"], "--range"),
        (["sweep", "--range", "1:x"], "--range"),
        (["sweep", "--range", "1-5"], "--range"),
        (["hunt", "--pmax", "5", "--qmax", "5", "--stages", "10000000:1"], "--stages"),
        (["sweep", "--range", "1:0"], "--range"),
        (["sweep", "--range", "5:3"], "--range"),
        (["analyze", "1", "--height-bound", "0"], "--height-bound"),
        (["analyze", "1", "--torsor-bound", "-3"], "--torsor-bound"),
        (["analyze", "0"], "n"),
        (["table1", "--bound", "0"], "--bound"),
        (["table1", "--bound", "10", "--workers", "-2"], "--workers"),
        (["sweep", "--range", "1:10", "--workers", "0"], "--workers"),
        (["hunt", "--pmax", "0", "--qmax", "5"], "--pmax"),
        (["hunt", "--pmax", "5", "--qmax", "0"], "--qmax"),
        (["analyze", "12"], "n"),
        (["hunt", "--pmax", "5", "--qmax", "5", "--stages", "1000:nan"], "--stages"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = 2pi/3\nheight-bound = 50\n# comment\n")
    assert cli_main(["--config", str(cfg), "analyze", "5"]) == 0
    out = capsys.readouterr().out
    assert "E_{5,2pi/3}" in out

    # a config value takes its flag's type: selmer_min is compared as an int
    cfg.write_text("selmer_min = 0\nstages = 100:-1000\nheight-bound = 20\ntorsor_bound = 5\n")
    assert cli_main(["--config", str(cfg), "hunt", "--pmax", "5", "--qmax", "5", "--min-omega", "0"]) == 0
    out = capsys.readouterr().out
    assert "survivors" in out and not out.startswith("0 survivors")

    # a command-line flag beats the config file in both spellings
    cfg.write_text("height_bound = 20\ntorsor_bound = 7\n")
    for flag in (["--torsor-bound=9"], ["--torsor-bound", "9"]):
        assert cli_main(["--config", str(cfg), "analyze", "1", *flag]) == 0
        assert "(bound 20/9)" in capsys.readouterr().out

    # a key of another subcommand is skipped; a key that names no flag is an error
    cfg.write_text("pmax = 5\ntorsor_bound = 7\n")
    assert cli_main(["--config", str(cfg), "analyze", "1"]) == 0
    assert "(bound 1000/7)" in capsys.readouterr().out
    cfg.write_text("torsor-bnd = 7\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(["--config", str(cfg), "analyze", "1"])
    assert exc.value.code == 2 and "'torsor-bnd'" in capsys.readouterr().err

    # a config value is checked like the flag it sets, and a line with no
    # '=' is an error that names the line
    cfg.write_text("theta = pi/4\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(["--config", str(cfg), "analyze", "1"])
    assert exc.value.code == 2 and "argument --theta:" in capsys.readouterr().err
    cfg.write_text("# comment\ntheta\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(["--config", str(cfg), "analyze", "1"])
    assert exc.value.code == 2 and "line 'theta' is not key=value" in capsys.readouterr().err

    # a key that only another subcommand reads is skipped, also where this
    # subcommand no longer takes it
    cfg.write_text("workers = 2\nout = never.jsonl\ntorsor_bound = 7\n")
    assert cli_main(["--config", str(cfg), "analyze", "1"]) == 0
    assert "(bound 1000/7)" in capsys.readouterr().out

    # a config file that cannot be read is a usage error that names it
    missing = tmp_path / "missing.cfg"
    with pytest.raises(SystemExit) as exc:
        cli_main(["--config", str(missing), "analyze", "1"])
    assert exc.value.code == 2 and f"config file {missing}:" in capsys.readouterr().err


def test_cli_required_flags_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("range = 1:20\nbound = 20\npmax = 5\nqmax = 5\n"
                   "min-omega = 0\nselmer-min = 0\nstages = 100:-1000\n")
    tallies = {20: "count:         8         5         0", 40: "count:        12        12         2"}
    for argv, bound in ((["sweep"], 20), (["table1"], 20), (["sweep", "--range", "1:40"], 40),
                        (["table1", "--bound=40"], 40)):
        assert cli_main(["--config", str(cfg), *argv]) == 0
        assert tallies[bound] in capsys.readouterr().out, argv
    # a flag on the command line still wins over the file
    for argv, survivors in ((["hunt"], 9), (["hunt", "--pmax", "2"], 2), (["hunt", "--pmax=1"], 0)):
        assert cli_main(["--config", str(cfg), *argv]) == 0
        assert capsys.readouterr().out.endswith(f"{survivors} survivors\n"), argv
    # without the file the flags stay required
    for argv in (["sweep"], ["table1"], ["hunt", "--pmax", "5"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2 and "are required" in capsys.readouterr().err
