import argparse
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import csv_line_by_cells

from classforms import cli

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schema" / "envelope.schema.json"


def validate_envelope(obj):
    """Structural validation against the shipped schema (no external deps)."""
    schema = json.loads(SCHEMA_PATH.read_text())
    assert schema["type"] == "object"
    assert isinstance(obj, dict)
    for key in schema["required"]:
        assert key in obj, f"missing envelope field {key}"
    assert set(obj) <= set(schema["properties"]), "unexpected envelope field"
    types = {"string": str, "object": dict, "array": list, "number": (int, float),
             "null": type(None)}
    for key, prop in schema["properties"].items():
        if key not in obj:
            continue
        allowed = prop["type"]
        if isinstance(allowed, str):
            allowed = [allowed]
        assert isinstance(obj[key], tuple(t for name in allowed for t in
                                          (types[name] if isinstance(types[name], tuple)
                                           else (types[name],)))), key


def run_json(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    envelope = json.loads(out)
    validate_envelope(envelope)
    return rc, envelope, out


def test_classgroup_subcommand(capsys):
    rc, env, _ = run_json(capsys, ["classgroup", "-84"])
    assert rc == 0
    assert env["results"]["representatives"] == [
        [1, 0, 21], [2, 2, 11], [3, 0, 7], [5, 4, 5]]
    assert env["results"]["elementary_divisors"] == [2, 2]
    assert env["results"]["class_number"] == 4
    assert env["results"]["two_torsion_order"] == 4


def test_classgroup_enumerates_the_reduced_forms_once(capsys, monkeypatch):
    from classforms import classgroup, quadforms

    calls = []
    enumerate_reduced = quadforms.enumerate_reduced

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_reduced(*args, **kwargs)

    for module in (quadforms, classgroup):
        monkeypatch.setattr(module, "enumerate_reduced", counted)
    rc, env, _ = run_json(capsys, ["classgroup", "-84"])
    assert rc == 0 and env["results"]["two_torsion_order"] == 4
    assert calls == [(-84,)]


def test_classgroup_neg_flag(capsys):
    rc, env, _ = run_json(capsys, ["--neg", "classgroup", "84"])
    assert rc == 0
    assert env["results"]["D"] == -84


def test_bh_classify(capsys):
    rc, env, _ = run_json(capsys, ["bh", "classify", "-20"])
    assert rc == 0
    assert env["results"]["entropy"] == pytest.approx(math.pi * math.sqrt(20), rel=1e-11)
    triples = [(c["p2"], c["pq"], c["q2"]) for c in env["results"]["classes"]]
    assert triples == [(1, 0, 5), (2, -1, 3)]


def test_bh_hilbert(capsys):
    rc, env, _ = run_json(capsys, ["bh", "hilbert", "-4"])
    assert rc == 0
    assert env["results"]["coefficients_low_to_high"] == ["-1728", "1"]


def test_series_subcommand(capsys):
    rc, env, _ = run_json(capsys, ["series", "j", "--order", "3"])
    assert rc == 0
    assert env["results"]["coefficients"]["-1"] == "1"
    assert env["results"]["coefficients"]["0"] == "744"
    assert env["results"]["coefficients"]["1"] == "196884"


def test_trace_subcommand(capsys):
    rc, env, _ = run_json(capsys, ["trace", "--weight", "12", "--n", "6"])
    assert rc == 0
    assert env["results"]["trace"] == -6048


def test_rademacher_subcommand(capsys):
    rc, env, _ = run_json(
        capsys, ["rademacher", "invdelta", "--n", "1", "--cmax", "20"])
    assert rc == 0
    assert env["results"]["exact"] == 324
    assert env["results"]["relative_error"] < 1e-3


def test_precision_default_ignores_environment(capsys, monkeypatch):
    # --precision defaults to the constant 30; no environment variable feeds it
    monkeypatch.setenv("CLASSFORMS_PRECISION", "12")
    rc, env, _ = run_json(capsys, ["rademacher", "invdelta", "--n", "2", "--cmax", "30"])
    assert rc == 0
    assert env["parameters"]["precision"] == 30


@pytest.mark.parametrize("argv, sha256", [
    (["singular-trace", "--n", "8"],
     "c55f6bc586db2b278c77942b67b6ce01e8f7818cae89c4e2dd4c93e1a4b93f7c"),
    (["bh", "hilbert", "-479"],
     "327a5ebd63998562be6632d2e97e95bcb0a9b179be1613141f445ad6d92b0365"),
    # 310 working digits: the tail tolerance 10^-310 underflows a float
    (["bh", "hilbert", "-1055"],
     "e22a4309375c4b7604320562cf274a215b6230626a6304101cb72fe7e711f865"),
    # recorded from the term-by-term sums at orders 3200 and 12800; n = 30
    # has 31 points up to |q| = 0.86
    (["singular-trace", "--n", "11"],
     "a1b09b294814e24e717a35ba5c3d3f93abdc5d9923ca29dabdc27d3c5aac0ac9"),
    (["singular-trace", "--n", "30"],
     "0b49e52a25935f001f4bcda47b5237fc346dfa32f62ff5c56084e5d65135612e"),
    # recorded from the dense q-expansion route: 558 digits for j at -20011,
    # and 59 points at n = 100
    (["bh", "hilbert", "-20011"],
     "3517bbbe7cf115db84111b5412d4640d86009d9b0c37515344687d48144f1ace"),
    (["singular-trace", "--n", "100"],
     "2c1b2849a4cb09e79094fd46e06cc83a1432fa7889128d6911bf3b96e9692350"),
])
def test_cm_point_outputs_pinned(capsys, argv, sha256):
    # full stdout recorded before the level-6 walk and the shared q-expansion sum
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv, sha256", [
    (["classgroup", "-84"], "1cc8a22a9634967d0e16b8899d71d9df3a2604d47ccc4da6e4bf89c677727c4e"),
    (["bh", "classify", "-20"], "d7e89451c804eb078b915bd4535dd5c4bb5b5614ad96a79e36287ecd4d55a0a0"),
    (["bh", "tau", "6", "1", "1"],
     "797ae59b7e6a33a35d6b0a00fecb04f8beda4f745d1b9383fcb9d809b41fd2e5"),
    (["series", "j", "--order", "20"],
     "9843ae5be91daf1473bcf65aa8a6264ca1aeaa6827ef3d8114568371e8f04754"),
    (["trace", "--weight", "12", "--n", "10"],
     "616f145d3cca319a782c79d6636e54575843520056eebbf5fd3dd615f04f245e"),
    (["rademacher", "invdelta", "--n", "2", "--cmax", "30"],
     "8f5b94dfe8ec5d38479e0c0cd884f44218057bb28420568b4bb0e857d8787cdb"),
    (["rademacher", "tau", "--n", "3", "--cmax", "50"],
     "11fe1449c80e07a125f0f87d73b34d232a4b9bcecc1add2496498082aff80e3f"),
    (["rademacher", "rd", "--d", "1", "--n", "1", "--cmax", "50"],
     "6907cd6c5e67854d3bd01871efd14655cb370b701d0b4a4d31cebe2234ca6265"),
    (["ecc", "verify", "--q", "41"],
     "f2cd229d7a2a2479d02db0b4e3a8623a75355f148aa3bb239699551adc1aed73"),
    (["ecc", "torsion", "--q", "7", "--n", "3"],
     "a50c3d975113b5234260e0d375ff79c53f462c27e041d6fe9f3f4477c9f22057"),
    (["cft", "zk", "--k", "1", "--cmax", "50"],
     "72b93b6a7f9bd6136db5cf23df747bf73f926c030f2f49a303f6102e840a7fb0"),
    (["stats", "cohen-lenstra", "--p", "3", "--N", "10000"],
     "2262d5860cd2db31d18597b2cbc743d190232dafa7801d8f0ec996db6627333b"),
    (["stats", "ng", "--g", "3", "--x", "200"],
     "a12c4044cf95040d038b9d1130105df10ecea20776b0768865fc1ef05fe15e63"),
    (["stats", "h-scan", "--N", "2000"],
     "f48dd9bcf066e4c8249f2517fad675e87b90d53ac0fe7b9e52afcdfc77ff958b"),
    (["--format", "csv", "stats", "h-scan", "--N", "2000"],
     "628a7c5aaf93c5929f42bd8de724599574a522f41bfeb4c63457223757981d01"),
])
def test_leaf_outputs_pinned(capsys, argv, sha256):
    # full stdout recorded while each handler still built and emitted its own
    # envelope, so the command names, parameters and provenance are pinned too
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_singular_trace_checks_its_identity_at_working_precision(capsys, monkeypatch):
    # at n = 300 the trace is near 6.7e19, where a double's ulp is 8192, so a
    # point off by 1000 leaves the printed double sum on the exact integer;
    # the working-precision sum still sees it and the command exits 1
    from classforms import rademacher

    inner = rademacher.eval_P_complex
    shifted = []

    def shift_first(tau, order, precision_digits):
        value = inner(tau, order, precision_digits)
        if not shifted:
            shifted.append(tau)
            value += 1000
        return value

    monkeypatch.setattr(rademacher, "eval_P_complex", shift_first)
    rc, env, _ = run_json(capsys, ["singular-trace", "--n", "300"])
    assert shifted and rc == 1
    assert env["results"]["abs_residual"] == 0


def test_singular_trace_subcommand(capsys):
    rc, env, _ = run_json(capsys, ["singular-trace", "--n", "1"])
    assert rc == 0
    assert env["results"]["expected"] == 23
    assert env["results"]["abs_residual"] < 1e-4
    assert env["results"]["points"] == [[6, 1, 1], [12, 13, 4], [18, 25, 9]]


def test_singular_trace_walks_the_level6_points_once(capsys, monkeypatch):
    # the printed points are the trace's own, not a second walk
    from classforms import rademacher

    calls = []
    enumerate_QD = rademacher.enumerate_QD

    def counted(n):
        calls.append(n)
        return enumerate_QD(n)

    monkeypatch.setattr(rademacher, "enumerate_QD", counted)
    rc, env, _ = run_json(capsys, ["singular-trace", "--n", "8"])
    assert rc == 0 and len(env["results"]["points"]) == 13
    assert calls == [8]


def test_closed_pipe_ends_the_process_by_sigpipe():
    # about 200 KB of CSV overflows the pipe buffer, so the writes after the
    # reader has gone hit the closed pipe
    import os
    import signal
    import subprocess
    import sys as _sys

    if not hasattr(signal, "SIGPIPE"):
        pytest.skip("no SIGPIPE on this platform")
    import classforms

    src = str(Path(classforms.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [_sys.executable, "-m", "classforms", "cft", "polar", "--mmax", "10000",
         "--emit", "figure-data"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.readline() == b"m,normalized_excess\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == -signal.SIGPIPE
    assert b"Traceback" not in err


def test_ecc_verify_subcommand(capsys):
    rc, env, _ = run_json(capsys, ["ecc", "verify", "--q", "13"])
    assert rc == 0
    assert all(row["status"] == "ok" for row in env["results"])


def test_ecc_torsion_subcommand(capsys):
    rc, env, _ = run_json(capsys, ["ecc", "torsion", "--q", "7", "--n", "3"])
    assert rc == 0
    rows = {row["t"]: row for row in env["results"]}
    assert rows[-1]["observed"] == 1
    assert rows[-1]["fractional"] is True


def test_ecc_torsion_fault_in_a_row_is_not_skipped(capsys, monkeypatch):
    # t = -1 is q + 1 mod 9 for q = 7: a fault there must fail the command,
    # not drop its row
    from classforms import eccensus

    inner = eccensus.torsion_class_count

    def faulty(q, t, n):
        if t == -1:
            raise ValueError("fault at t = -1")
        return inner(q, t, n)

    monkeypatch.setattr(eccensus, "torsion_class_count", faulty)
    assert cli.main(["ecc", "torsion", "--q", "7", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fault at t = -1" in captured.err


@pytest.mark.parametrize("q, n", [(7, 2), (7, 0), (11, 3), (100, 3)])
def test_ecc_torsion_invalid_modulus_exits_2(capsys, q, n):
    # even or nonpositive n, q not 1 mod n, q not prime: rejected before any t
    assert cli.main(["ecc", "torsion", "--q", str(q), "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cft_zk_subcommand(capsys):
    rc, env, _ = run_json(capsys, ["cft", "zk", "--k", "1", "--order", "4"])
    assert rc == 0
    assert env["results"]["coefficients"]["1"] == "196884"


def test_cft_polar_table(capsys):
    rc, env, _ = run_json(capsys, ["cft", "polar", "--mmax", "20", "--emit", "table"])
    assert rc == 0
    first = env["results"]["rows"][0]
    assert first["m"] == 1 and first["J"] == 1 and first["P"] == 1
    assert set(env["results"]["flagged"]) <= set(env["results"]["documented_candidates"])


def test_cft_polar_figure_csv(capsys):
    rc = cli.main(["cft", "polar", "--mmax", "12", "--emit", "figure-data"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "m,normalized_excess"
    assert len(lines) == 13
    m, val = lines[1].split(",")
    assert m == "1"
    assert float(val) == pytest.approx((1 - 1 / 12 - 5 / 8) / 1.0)


def test_cft_polar_histogram_and_cdf(capsys):
    rc = cli.main(["cft", "polar", "--mmax", "300", "--emit", "histogram"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[0].startswith("# bin_width = ")
    assert out[1] == "bin_left,bin_right,count"
    rc = cli.main(["cft", "polar", "--mmax", "300", "--emit", "cdf"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[0] == "value,cumulative_fraction"
    assert len(out) == 301


@pytest.mark.parametrize("argv, sha256", [
    (["cft", "polar", "--mmax", "2000"],
     "609ec58819db7571e6ed46e73770a89f3da3cc674c90731d6d09de02e44e5530"),
    (["cft", "polar", "--mmax", "2000", "--emit", "figure-data"],
     "c9cd65fd69906caaf57c6d3a8ef9d7c485340caf9e6e56c4aac65163d67745ad"),
    (["cft", "polar", "--mmax", "100000", "--emit", "figure-data"],
     "700752c27b16bca2849817c6e9a91efc109abd966e502ca2d9f03331abbc532a"),
    (["cft", "polar", "--mmax", "100000", "--emit", "cdf"],
     "1daf7a941122d7ef937060bf5a97c8bbafe85f32b94e84d70b8f18a8d4743444"),
    (["cft", "polar", "--mmax", "100000", "--emit", "histogram"],
     "d983feadf6f0260c0f339582f9dc9b8500889e34b141377541006f65cf5807a0"),
])
def test_polar_outputs_pinned(capsys, argv, sha256):
    # full stdout recorded while the table and the figure data had separate
    # scans (mmax 2000) and while P(m) came from a per-m divisor walk (10^5)
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_cft_polar_table_crosscheck_trips_on_bad_value(capsys, monkeypatch):
    from classforms import cftx

    real = cftx.polar_count_sieve

    def tampered(mmax):
        counts = real(mmax)
        counts[36] += 1  # P(37)
        return counts

    monkeypatch.setattr(cftx, "polar_count_sieve", tampered)
    rc = cli.main(["cft", "polar", "--mmax", "200", "--emit", "table"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "direct count 138 at m = 37" in captured.err


def test_rademacher_tau_subcommand(capsys):
    rc, env, _ = run_json(capsys, ["rademacher", "tau", "--n", "2", "--cmax", "200"])
    assert rc == 0
    assert env["results"]["exact"] == -24
    assert env["results"]["beta"] == pytest.approx(2.840, abs=5e-3)
    assert env["results"]["relative_error"] < 0.01


def test_stats_subcommands(capsys):
    rc, env, _ = run_json(capsys, ["stats", "cohen-lenstra", "--p", "3", "--N", "500"])
    assert rc == 0
    assert env["results"]["predicted"] == pytest.approx(0.560126, abs=1e-5)
    rc, env, _ = run_json(capsys, ["stats", "ng", "--g", "2", "--x", "50"])
    assert rc == 0
    assert env["results"]["cg_constant"] == pytest.approx(0.4323, abs=1e-3)


def test_stats_h_scan_json(capsys):
    rc, env, _ = run_json(capsys, ["stats", "h-scan", "--N", "30"])
    assert rc == 0
    rows = env["results"]
    assert rows[0]["D"] == -3 and rows[0]["h"] == 1
    assert all(r["siegel_curve"] > 0 for r in rows)


def test_stats_h_scan_csv(capsys):
    rc = cli.main(["--format", "csv", "stats", "h-scan", "--N", "50"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[0].startswith("# epsilon = ")
    assert out[1] == "D,h,siegel_curve"
    rows = [line.split(",") for line in out[2:]]
    assert ["-3", "1"] == rows[0][:2]
    assert all(int(r[0]) < 0 for r in rows)


def test_byte_identical_output(capsys):
    cli.main(["classgroup", "-47"])
    first = capsys.readouterr().out
    cli.main(["classgroup", "-47"])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["wall_time_ms"] is None


def test_byte_identical_across_processes():
    import os
    import subprocess
    import sys as _sys

    import classforms

    # the child imports the same classforms as this process, installed or not
    src = str(Path(classforms.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [_sys.executable, "-m", "classforms", "classgroup", "-84"],
            capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_timing_flag_fills_wall_time(capsys):
    rc, env, _ = run_json(capsys, ["--timing", "classgroup", "-47"])
    assert rc == 0
    assert isinstance(env["wall_time_ms"], (int, float))


def test_identity_failure_exits_1(capsys, monkeypatch):
    from classforms import eccensus

    def broken(q):
        raise AssertionError("census disagrees at (q=7, t=0): N=2 vs H=3")

    monkeypatch.setattr(eccensus, "verify_deuring", broken)
    rc = cli.main(["ecc", "verify", "--q", "7"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "census disagrees" in captured.err


def test_ecc_verify_mismatch_exits_1(capsys, monkeypatch):
    # a census that disagrees with the class-number count reaches main's
    # identity-failure route, with no handler of its own in between
    from classforms import eccensus

    monkeypatch.setattr(eccensus, "kronecker_class_number", lambda n: 0)
    rc = cli.main(["ecc", "verify", "--q", "7"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "identity failure" in captured.err
    assert "census disagrees" in captured.err


def test_precision_exhausted_exits_3(capsys):
    rc = cli.main(["singular-trace", "--n", "1", "--order", "5"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("precision exhausted: truncation order 5 leaves tail")


def test_usage_errors_exit_2(capsys):
    assert cli.main(["classgroup", "84"]) == 2
    capsys.readouterr()
    assert cli.main(["trace", "--weight", "5", "--n", "1"]) == 2
    capsys.readouterr()
    for argv, name in [
        (["singular-trace", "--n", "1", "--order", "0"], "order"),
        (["singular-trace", "--n", "1", "--precision", "0"], "precision"),
        (["cft", "zk", "--k", "1", "--order", "1", "--cmax", "10"], "order"),
        # no fundamental discriminant in -N < D < 0: the proportion would be 0/0
        (["stats", "cohen-lenstra", "--p", "3", "--N", "0"], "N = 0"),
        (["stats", "cohen-lenstra", "--p", "3", "--N", "3"], "N = 3"),
        # n is checked before p(n) is asked for, so the message names n, not nmax
        (["singular-trace", "--n", "-2"], "n must be positive"),
        (["stats", "h-scan", "--N", "-5"], "N = -5"),
        # eps is checked before the scan, which here has no fundamental discriminant
        (["stats", "h-scan", "--N", "2", "--epsilon", "0.7"], "eps"),
        # invdelta names its own bound, not that of the delta series it inverts
        (["series", "invdelta", "--order", "-1"], "order must be nonnegative"),
        # a sum past the double range is refused, not printed as Infinity
        (["rademacher", "rd", "--d", "1", "--n", "4000", "--cmax", "2"],
         "exceeds the double range"),
        (["rademacher", "invdelta", "--n", "3800", "--cmax", "2"], "exceeds the double range"),
    ]:
        assert cli.main(argv) == 2, argv
        assert name in capsys.readouterr().err, argv
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_emit_refuses_infinity_and_nan(capsys):
    # neither is JSON; the envelope is refused (exit 2) instead of printed
    args = argparse.Namespace(timing=False)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            cli._emit(args, "test", {}, {"value": bad}, "test", 0.0)
    assert capsys.readouterr().out == ""


def test_float_formatting_is_12_significant_digits(capsys):
    rc, env, out = run_json(capsys, ["bh", "classify", "-20"])
    entropy = env["results"]["entropy"]
    assert entropy == float(f"{math.pi * math.sqrt(20):.12g}")


def test_csv_rows_match_cell_by_cell_formatting(capsys):
    # every cell type a scan emits, and rows whose types change partway through
    # the stream, so each new type sequence must get its own template
    mixed = (1, np.int64(-7), 0.1, np.float64(2.0 / 3.0), True, np.bool_(False),
             math.inf, -math.inf, math.nan, np.float64(-0.0), 1e-300, np.float32(0.1),
             2**70, "s")
    rows = [mixed, (1, 0.5), (np.int64(2), 0.25), (3, np.float64(1e21)), (4, 5),
            [5, 6.0], (), (6, 0.5), mixed[::-1]]
    cli._emit_csv("x,y", iter(rows), comment="c = 1")
    out = capsys.readouterr().out
    assert out == "# c = 1\nx,y\n" + "".join(csv_line_by_cells(row) for row in rows)
