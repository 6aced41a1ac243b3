import argparse
import cmath
import dataclasses
import hashlib
import json
import math
import os
import resource
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest

from fracprimes import arith, cli, expsums
from fracprimes.arith import save_sieve, sieve_primes
from fracprimes.cli import ResultRecord, main, record_to_json

import oracles


def _decode(obj):
    """The JSON value with every {"__complex__": [re, im]} made a complex."""
    if isinstance(obj, dict):
        if set(obj) == {"__complex__"}:
            re_, im_ = obj["__complex__"]
            return complex(re_, im_)
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return obj


def record_from_json(text: str) -> ResultRecord:
    d = _decode(json.loads(text))
    return ResultRecord(command=d["command"], params=d["params"],
                        values=d["values"],
                        invariant_flags=d["invariant_flags"],
                        elapsed_ms=d["elapsed_ms"], version=d["version"])


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name} in the artifact")


def run_cli(capsys, argv):
    """(exit code, stdout, stderr) of one CLI call; an argparse rejection
    counts as its exit code.  A JSON stdout must be strict JSON."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    out = captured.out
    if out and (out.startswith("{") or "json" in argv):
        json.loads(out, parse_constant=_reject_constant)
    return code, out, captured.err


# ---------------------------------------------------------------------------
# golden outputs

def test_level_golden(capsys):
    code, out, _ = run_cli(capsys, ["level", "--alpha", "0.1"])
    assert code == 0
    assert out == "0.34\n"


def test_bv_golden_csv(capsys):
    code, out, _ = run_cli(capsys, ["bv", "--X", "100000", "--Q", "31",
                                    "--alpha", "0.1", "--I", "0,0.5"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "q,worst_a,deviation"
    data = [ln.split(",") for ln in lines[1:]]
    q_rows = [row for row in data if row[0] != "total"]
    assert len(q_rows) == 11  # the primes up to 31
    assert [int(r[0]) for r in q_rows] == [2, 3, 5, 7, 11, 13, 17, 19, 23,
                                           29, 31]
    total_row = data[-1]
    assert total_row[0] == "total"
    assert float(total_row[2]) == pytest.approx(110.1949494949495, abs=1e-9)
    # per-q deviations sum to the total
    assert sum(float(r[2]) for r in q_rows) == pytest.approx(
        float(total_row[2]), abs=1e-9)


def test_decompose_check_csv(capsys):
    code, out, _ = run_cli(capsys, ["decompose-check", "--nmax", "200"])
    assert code == 0
    assert out.splitlines()[:2] == ["# command=decompose-check",
                                    f"# version={cli.__version__}"]
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "n,residual"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(2, 201))
    assert max(float(r[1]) for r in rows) <= 1e-9


def test_decompose_check_single_n_json(capsys):
    code, out, _ = run_cli(capsys, ["decompose-check", "--n", "9",
                                    "--output", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "decompose-check"
    assert rec["values"]["total"] == pytest.approx(math.log(3), abs=1e-9)
    assert rec["values"]["n_terms"] > 0


def test_level_json(capsys):
    code, out, _ = run_cli(capsys, ["level", "--alpha", "0.1",
                                    "--output", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "level"
    assert rec["values"]["theta"] == pytest.approx(0.34)


def test_expsum_two_prime_example(capsys):
    code, out, _ = run_cli(capsys, ["expsum", "--X", "10", "--Y", "20",
                                    "--h", "1", "--alpha", "0.5", "--q", "3",
                                    "--a", "1", "--output", "json"])
    assert code == 0
    rec = record_from_json(out)
    want = (cmath.exp(2j * math.pi * math.sqrt(13))
            + cmath.exp(2j * math.pi * math.sqrt(19)))
    assert rec.values["count"] == 2
    assert abs(rec.values["value"] - want) < 1e-10


@pytest.mark.parametrize("t, sigma, kind, witness", [
    ("0.7,0.3", "0.15", "I", [1]), ("0.5,0.5", "0.15", "II", [[1], [2]]),
    ("0.32,0.32,0.32,0.04", "0.12", "III", [1, 2, 3])],
    ids=["I", "II", "III"])
def test_classify_cli(capsys, t, sigma, kind, witness):
    code, out, _ = run_cli(capsys, ["classify", "--t", t, "--sigma", sigma,
                                    "--output", "json"])
    assert code == 0
    rec = record_from_json(out)
    assert rec.values["kind"] == kind
    assert rec.values["witness"] == witness


@pytest.mark.parametrize("given, missing", [("--X1", "--Y1"), ("--Y1", "--X1")])
def test_classify_dyadic_needs_X1_and_Y1(capsys, given, missing):
    code, out, err = run_cli(capsys, ["classify", "--dyadic",
                                      "1000,2,2,2,2,2,2,2,2,2", given, "1000"])
    assert code == 2
    assert err.startswith("error: ") and missing in err
    assert out == ""


def test_kloosterman_cli(capsys):
    code, out, _ = run_cli(capsys, ["kloosterman", "--q", "7", "--u", "1",
                                    "--v", "1", "--output", "json"])
    assert code == 0
    rec = record_from_json(out)
    assert rec.values["weil_bound"] == pytest.approx(2 * math.sqrt(7))
    assert rec.values["margin"] > 0
    assert rec.values["imag_residual"] <= 1e-9


def test_kloosterman_table_json(capsys):
    code, out, _ = run_cli(capsys, ["kloosterman", "--q", "24", "--table",
                                    "--output", "json"])
    assert code == 0
    rec = record_from_json(out)
    assert rec.invariant_flags["weil_ok"] and rec.invariant_flags["real_ok"]
    want = float(oracles.weil_margins_fft2(24).min())
    assert abs(rec.values["min_margin"] - want) <= 1e-9 * 24


@pytest.mark.parametrize("q, digest", [
    (12, "eb929cf4478161d69b72db594c45a94e77f686d82d9697bc945bcd3e010d6921"),
    (499, "1f7ac2b0c70011042e643e90214b50f3ce9f9bb8c15e221851f5d0af408605fa")])
def test_kloosterman_table_record_unchanged(capsys, q, digest):
    # the record byte for byte as it was when the value table and the margin
    # table were each built from their own rows
    code, out, _ = run_cli(capsys, ["kloosterman", "--q", str(q), "--table",
                                    "--output", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_kloosterman_table_builds_the_rows_once(capsys, monkeypatch):
    from fracprimes import charkloost
    calls = []

    def spy(q):
        calls.append(q)
        return inverses(q)

    inverses = charkloost.unit_inverses
    monkeypatch.setattr(charkloost, "unit_inverses", spy)
    code, _, _ = run_cli(capsys, ["kloosterman", "--q", "24", "--table",
                                  "--output", "json"])
    assert code == 0 and calls == [24]


def test_gauss_cli(capsys):
    code, out, _ = run_cli(capsys, ["gauss", "--q", "7", "--chi-index", "1",
                                    "--s", "1", "--output", "json"])
    assert code == 0
    rec = record_from_json(out)
    assert rec.values["abs"] == pytest.approx(math.sqrt(7), abs=1e-9)


def test_gauss_cli_imprimitive_at_prime_power(capsys):
    # induced from mod 625, so tau is 0; its phases run to about 1400 turns,
    # where chi(n) = 1 cannot be told within 1e-12 in floating point
    code, out, _ = run_cli(capsys, ["gauss", "--q", "3125", "--chi-index", "1415",
                                    "--s", "1", "--output", "json"])
    assert code == 0
    rec = record_from_json(out)
    assert rec.invariant_flags["primitive"] is False
    assert rec.values["abs"] < 1e-6


def test_oscint_gaussian_both(capsys):
    code, out, _ = run_cli(capsys, ["oscint", "--phase", "gaussian",
                                    "--Y", "200", "--t0", "1.5",
                                    "--method", "both", "--output", "json"])
    assert code == 0
    rec = record_from_json(out)
    lead = 1.0 * cmath.exp(-1j * math.pi / 4) / math.sqrt(200.0)
    assert abs(rec.values["expansion"] - lead) < 1e-12
    assert rec.values["rel_error"] < 1e-6


@pytest.mark.parametrize("phase", ["first", "second"])
def test_oscint_default_without_stationary_point_reports_quad(capsys, phase):
    # h = 1, s = 1, X = 1e5 put t0 near 2e-6, far outside J = (0.8, 2.2)
    code, out, _ = run_cli(capsys, ["oscint", "--phase", phase,
                                    "--output", "json"])
    assert code == 0
    rec = record_from_json(out)
    assert rec.invariant_flags == {"stationary_point_in_J": False}
    assert set(rec.values) == {"quad", "quad_error_estimate", "quad_nodes"}
    code, out, err = run_cli(capsys, ["oscint", "--phase", phase,
                                      "--method", "expansion"])
    assert code == 2 and "outside window" in err and out == ""


def test_oscint_gaussian_default_record_unchanged(capsys):
    # the record `oscint --output json` prints, byte for byte; without the
    # quadrature's own fields it is the record of the Gauss-Legendre panel
    # engine (quad_nodes 13,140), before the stationary_point_in_J flag
    code, out, _ = run_cli(capsys, ["oscint", "--output", "json"])
    assert code == 0
    assert "stationary_point_in_J" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e7bcb18ee2b6ebb58b756a5b0fcf286cb9a098dbed07aed0f1cae1b747335533")
    rec = json.loads(out)
    assert rec["values"]["quad_nodes"] == 1023
    for key in ("quad", "quad_error_estimate", "quad_nodes", "rel_error"):
        del rec["values"][key]
    assert rec["values"] == {
        "expansion": {"__complex__": [0.05, -0.049999999999999996]},
        "expansion_error_estimate": 0.0, "expansion_terms": 1}
    assert hashlib.sha256(json.dumps(rec, sort_keys=True).encode()).hexdigest() \
        == "7caf1ddb08ea3c9feb6571266c12d9e68b1e36494950b3f9cce6fa7f45417a7f"


@pytest.mark.parametrize("t0", ["1.5", "1.501"])
def test_oscint_bound_refuses_a_stationary_point_in_J(capsys, t0):
    # t0 = 1.501 lies between the nodes of a 513-point grid on J
    code, out, err = run_cli(capsys, ["oscint", "--method", "bound",
                                      "--t0", t0])
    assert code == 2 and "stationary point in J" in err and out == ""


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 0


def test_selftest_json(capsys):
    code, out, _ = run_cli(capsys, ["selftest", "--output", "json"])
    assert code == 0
    rec = record_from_json(out)
    assert rec.command == "selftest"
    assert rec.values["failed"] == 0


def test_selftest_failure_json(capsys, monkeypatch):
    monkeypatch.setattr(cli, "weil_margin_table", lambda q: -np.ones((q, q)))
    code, out, err = run_cli(capsys, ["selftest", "--output", "json"])
    assert code == 3
    assert "selftest checks failed" in err
    if out:
        json.loads(out)


# ---------------------------------------------------------------------------
# record serialization

def test_record_roundtrip_with_complex():
    rec = ResultRecord(command="demo", params={"alpha": 0.1, "I": [0.0, 0.5]},
                       values={"value": 1.25 - 0.75j, "count": 3,
                               "nested": {"w": [1 + 2j, 0j]}},
                       invariant_flags={"ok": True}, elapsed_ms=12.5,
                       version="0")
    text = record_to_json(rec)
    back = record_from_json(text)
    assert back == dataclasses.replace(rec, elapsed_ms=None)


def test_canonical_json_nulls_elapsed():
    rec = ResultRecord(command="demo", params={}, values={},
                       invariant_flags={}, elapsed_ms=42.0, version="0")
    d = json.loads(record_to_json(rec))
    assert d["elapsed_ms"] is None


def test_cli_stdout_is_canonical_timing_on_stderr(capsys):
    code, out, err = run_cli(capsys, ["count", "--X", "1000", "--alpha",
                                      "0.1", "--I", "0,0.5",
                                      "--output", "json"])
    assert code == 0
    assert json.loads(out)["elapsed_ms"] is None
    assert "[count]" in err and "ms" in err


# ---------------------------------------------------------------------------
# cache

def test_cache_build_and_reuse(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FPL_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, ["cache", "--build", "2e5",
                                    "--output", "json"])
    assert code == 0
    assert (tmp_path / "primes_200000.fpl").exists()

    code, out, _ = run_cli(capsys, ["count", "--X", "150000", "--alpha",
                                    "0.1", "--I", "0,0.5", "--output",
                                    "json"])
    assert code == 0
    rec = record_from_json(out)
    assert rec.invariant_flags["cache_hit"] is True

    # same count without the cache
    monkeypatch.setenv("FPL_CACHE_DIR", str(tmp_path / "empty"))
    code, out2, _ = run_cli(capsys, ["count", "--X", "150000", "--alpha",
                                     "0.1", "--I", "0,0.5", "--output",
                                     "json"])
    rec2 = record_from_json(out2)
    assert rec2.invariant_flags["cache_hit"] is False
    assert rec2.values["count"] == rec.values["count"]


@pytest.mark.parametrize("size", [10, 100])
def test_corrupt_cache_is_skipped(tmp_path, monkeypatch, capsys, size):
    monkeypatch.setenv("FPL_CACHE_DIR", str(tmp_path))
    for n in ("100000", "200000"):
        assert run_cli(capsys, ["cache", "--build", n])[0] == 0
    small = tmp_path / "primes_100000.fpl"
    large = tmp_path / "primes_200000.fpl"
    argv = ["count", "--X", "50000", "--alpha", "0.1", "--I", "0,0.5",
            "--output", "json"]
    code, out, _ = run_cli(capsys, argv)
    want = record_from_json(out).values["count"]

    # the smallest covering file is cut: skip it, read the next one
    small.write_bytes(small.read_bytes()[:size])
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    rec = record_from_json(out)
    assert rec.invariant_flags["cache_hit"] is True
    assert rec.values["count"] == want
    warnings = [ln for ln in err.splitlines() if ln.startswith("warning:")]
    assert len(warnings) == 1 and str(small) in warnings[0]

    # no readable covering file is left: sieve instead
    large.write_bytes(large.read_bytes()[:size])
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    rec = record_from_json(out)
    assert rec.invariant_flags["cache_hit"] is False
    assert rec.values["count"] == want
    warnings = [ln for ln in err.splitlines() if ln.startswith("warning:")]
    assert len(warnings) == 2


def test_cache_header_must_cover_the_range(tmp_path, monkeypatch, capsys):
    # file names promise [2, 2e6) and [2, 1.5e6); the headers hold [2, 1000)
    # and [500, 1.5e6), so neither covers count --X 10^6
    save_sieve(sieve_primes(2, 1000), str(tmp_path / "primes_2000000.fpl"))
    save_sieve(sieve_primes(500, 1_500_000),
               str(tmp_path / "primes_1500000.fpl"))
    argv = ["count", "--X", "1000000", "--output", "json"]
    monkeypatch.setenv("FPL_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    rec = record_from_json(out)
    assert rec.invariant_flags["cache_hit"] is False
    warnings = [ln for ln in err.splitlines() if ln.startswith("warning:")]
    assert len(warnings) == 2
    assert all("header covers" in w for w in warnings)
    monkeypatch.setenv("FPL_CACHE_DIR", str(tmp_path / "empty"))
    code, out, _ = run_cli(capsys, argv)
    assert record_from_json(out).values["count"] == rec.values["count"]


def test_uncached_expsum_sieves_only_its_range(tmp_path, monkeypatch, capsys):
    asked = []

    def spy(lo, hi):
        asked.append((lo, hi))
        return sieve_primes(lo, hi)

    monkeypatch.setattr(expsums, "sieve_primes", spy)
    monkeypatch.setenv("FPL_CACHE_DIR", str(tmp_path / "empty"))
    code, out, _ = run_cli(capsys, ["expsum", "--X", "1000", "--Y", "2000",
                                    "--output", "json"])
    assert code == 0 and asked == [(1000, 2000)]
    assert record_from_json(out).invariant_flags["cache_hit"] is False
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "56eca2c75a569bf5ee3f4336c657c9726fc766cc2458dada5b61bf051de8a47f")


def test_cache_file_is_opened_once(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FPL_CACHE_DIR", str(tmp_path))
    assert run_cli(capsys, ["cache", "--build", "100000"])[0] == 0
    reads = []
    read_header = arith._read_header

    def spy(fh, path):
        reads.append(path)
        return read_header(fh, path)

    monkeypatch.setattr(arith, "_read_header", spy)
    code, out, _ = run_cli(capsys, ["count", "--X", "50000", "--output", "json"])
    assert code == 0 and record_from_json(out).invariant_flags["cache_hit"]
    assert reads == [str(tmp_path / "primes_100000.fpl")]


def test_cache_header_need_only_cover_the_range_read(tmp_path, monkeypatch,
                                                     capsys):
    # expsum reads [X, Y) = [10^4, 2 10^4): a file from 5000 serves it
    save_sieve(sieve_primes(5000, 30_000), str(tmp_path / "primes_30000.fpl"))
    argv = ["expsum", "--X", "10000", "--alpha", "0.3", "--output", "json"]
    monkeypatch.setenv("FPL_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and "warning" not in err
    rec = record_from_json(out)
    assert rec.invariant_flags["cache_hit"] is True
    monkeypatch.setenv("FPL_CACHE_DIR", str(tmp_path / "empty"))
    code, out2, _ = run_cli(capsys, argv)
    rec2 = record_from_json(out2)
    assert rec2.invariant_flags["cache_hit"] is False
    assert rec2.values == rec.values


@pytest.mark.parametrize("argv", [
    ["bv", "--X", "100000", "--Q", "31", "--alpha", "0.1"],
    ["decompose-check", "--nmax", "3000"]], ids=lambda a: a[0])
def test_json_output_builds_no_csv_body(capsys, monkeypatch, argv):
    argv = [*argv, "--output", "json"]
    code, want, _ = run_cli(capsys, argv)
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("csv body built under --output json")

    monkeypatch.setattr(cli, "emit_csv", refuse)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out == want


def test_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "sub" / "level.txt"
    code, out, _ = run_cli(capsys, ["level", "--alpha", "0.1", "--out",
                                    str(out_path)])
    assert code == 0
    assert out_path.read_text() == out


# ---------------------------------------------------------------------------
# config file + overrides

def test_config_file_and_set_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.08   # file value\nthreads = 2\n")
    code, out, _ = run_cli(capsys, ["level", "--config", str(cfg)])
    assert code == 0
    assert out == "0.352\n"  # 2/5 - 3*0.08/5
    code, out, _ = run_cli(capsys, ["level", "--config", str(cfg),
                                    "--set", "alpha=0.1"])
    assert code == 0
    assert out == "0.34\n"


def test_config_echo_in_params(capsys):
    code, out, _ = run_cli(capsys, ["kloosterman", "--q", "7", "--u", "1",
                                    "--v", "1", "--set", "seed=7",
                                    "--set", "alpha=0.1", "--output", "json"])
    rec = record_from_json(out)
    assert rec.params["alpha"] == 0.1
    assert rec.params["seed"] == 7
    assert rec.version


@pytest.mark.parametrize("key", ["A0", "B0", "D0", "F0", "vdc_constant"])
def test_unread_constants_are_unknown_keys(capsys, key):
    code, _, err = run_cli(capsys, ["level", "--set", f"{key}=1"])
    assert code == 2
    assert "unknown config key" in err


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("alpha 0.25\n")
    code, _, err = run_cli(capsys, ["level", "--config", str(cfg)])
    assert code == 2
    assert "key = value" in err


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_argument_error(capsys):
    code, _, err = run_cli(capsys, ["bv", "--X", "1000", "--alpha", "0.1",
                                    "--I", "0,0.5"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("cmd, flag, value, key", [
    ("cache", "--build", "abc", "build"), ("cache", "--build", "nan", "build"),
    ("cache", "--build", "inf", "build"), ("classify", "--t", "0.5,x", "t"),
    ("count", "--I", "a,b", "interval"), ("level", "--set", "alpha=abc", "alpha"),
    ("level", "--set", "X=1e9x", "X"), ("level", "--set", "seed=1,2", "seed")])
def test_malformed_numbers_are_argument_errors(tmp_path, monkeypatch, capsys,
                                               cmd, flag, value, key):
    monkeypatch.setenv("FPL_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, [cmd, flag, value])
    assert code == 2
    assert err.startswith(f"error: {key}: ")
    assert out == ""


@pytest.mark.parametrize("argv, key", [
    (["count", "--set", "X=1000.9"], "X"), (["count", "--set", "q=2.9"], "q"),
    (["count", "--set", "Q=7.5"], "Q"), (["count", "--set", "a=0.5"], "a"),
    (["count", "--set", "seed=1.5"], "seed"),
    (["count", "--set", "threads=2.5"], "threads"),
    (["cache", "--build", "100.5"], "build")])
def test_fractional_integers_are_argument_errors(tmp_path, monkeypatch, capsys,
                                                 argv, key):
    monkeypatch.setenv("FPL_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith(f"error: {key}: not an integer: ")
    assert out == ""
    assert not list(tmp_path.iterdir())


def test_integer_keys_accept_whole_floats(capsys):
    code, out, _ = run_cli(capsys, ["count", "--set", "X=1e4", "--set",
                                    "seed=2.0", "--X", "1e4", "--alpha", "0.1",
                                    "--I", "0,0.5", "--output", "json"])
    assert code == 0
    params = record_from_json(out).params
    assert (params["X"], params["seed"]) == (10_000, 2)
    assert isinstance(params["X"], int) and isinstance(params["seed"], int)
    # integers above 2^53 are kept exactly, as a flag and through --set
    for argv in (["--seed", "9007199254740993"],
                 ["--set", "seed=9007199254740993"]):
        code, out, _ = run_cli(capsys, ["level", *argv, "--output", "json"])
        assert code == 0
        assert record_from_json(out).params["seed"] == 2 ** 53 + 1


@pytest.mark.parametrize("argv, key, want", [
    (["expsum", "--X", "1000", "--Y", "2e3"], "Y", 2000),
    (["sieve", "--hi", "1e3"], "hi", 1000),
    (["decompose-check", "--n", "3.6e2", "--show", "2"], "n", 360),
    (["kloosterman", "--q", "7", "--u", "2e0"], "u", 2)])
def test_integer_flags_accept_whole_floats(capsys, argv, key, want):
    code, out, _ = run_cli(capsys, [*argv, "--output", "json"])
    assert code == 0
    assert record_from_json(out).params[key] == want


@pytest.mark.parametrize("argv, what", [
    (["expsum", "--X", "1000", "--Y", "2.5"], "invalid integer value: '2.5'"),
    (["sieve", "--hi", "abc"], "invalid integer value: 'abc'"),
    (["level", "--alpha", "nan"], "invalid real value: 'nan'")])
def test_flag_cast_errors_name_the_type(capsys, argv, what):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert what in err
    assert out == ""


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    cli.build_parser.cache_clear()
    assert run_cli(capsys, ["level", "--alpha", "0.1"])[:2] == (0, "0.34\n")
    first = len(built)
    assert run_cli(capsys, ["level", "--alpha", "0.05"])[:2] == (0, "0.37\n")
    assert first > 0 and len(built) == first


def test_options_do_not_carry_over_between_calls(capsys):
    # the one parser must not keep what an earlier call gave it
    argv = ["kloosterman", "--q", "7", "--output", "json"]
    cli.build_parser.cache_clear()
    fresh = run_cli(capsys, argv)
    code, _, _ = run_cli(capsys, argv[:3] + ["--u", "2", "--v", "3", "--set",
                                             "seed=7", "--set", "alpha=0.2",
                                             "--table"])
    assert code == 0
    again = run_cli(capsys, argv)
    assert again[:2] == fresh[:2]
    assert '"seed": 7' not in again[1] and '"alpha": 0.2' not in again[1]


def test_every_flag_casts_through_integer_or_real():
    # one text-to-value cast per kind, so every integer flag takes 1e3 and
    # every real flag rejects nan
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sp in subparsers.choices.items():
        for action in sp._actions:
            assert action.type not in (int, float), (name, action.dest)


def test_config_text_values_are_kept_verbatim(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cache_path = 1e3\nX = 1e4\n")
    code, out, _ = run_cli(capsys, ["level", "--config", str(cfg),
                                    "--output", "json"])
    assert code == 0
    params = record_from_json(out).params
    assert (params["cache_path"], params["X"]) == ("1e3", 10_000)


@pytest.mark.parametrize("argv", [
    ["expsum", "--X", "1000", "--h", "nan"], ["level", "--alpha", "inf"],
    ["kloosterman", "--set", "h=inf"], ["count", "--set", "C=inf"],
    ["count", "--set", "A_I=-inf"], ["count", "--I", "0,nan"],
    ["oscint", "--method", "quad", "--tol", "inf"], ["oscint", "--Y", "nan"],
    ["oscint", "--J", "1,inf"], ["oscint", "--window-y", "1e400"],
    ["classify", "--t", "nan,0.5"], ["classify", "--t", "0.5,0.5",
                                     "--sigma", "nan"]])
def test_non_finite_reals_are_argument_errors(capsys, argv):
    code, out, err = run_cli(capsys, [*argv, "--output", "json"])
    assert code == 2
    assert "error: " in err
    assert out == ""


@pytest.mark.parametrize("method", ["quad", "expansion", "both"])
def test_oscint_reversed_J_is_an_argument_error(capsys, method):
    code, out, err = run_cli(capsys, ["oscint", "--J", "2,1", "--method",
                                      method])
    assert code == 2
    assert err.startswith("error: J: ")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["oscint", "--phase", "second", "--h", "0"],
    ["oscint", "--phase", "second", "--m", "0"],
    ["oscint", "--phase", "first", "--n", "0", "--method", "quad"],
    ["oscint", "--phase", "first", "--q", "0", "--method", "bound"],
    ["oscint", "--phase", "first", "--u", "-1", "--method", "quad"],
    ["decompose-check", "--k", "0", "--nmax", "50"],
    ["decompose-check", "--k", "-1", "--nmax", "50"],
    ["decompose-check", "--k", "7"],
    ["decompose-check", "--k", "20000"],
    ["decompose-check", "--n", "12", "--show", "-2"]])
def test_degenerate_integers_are_argument_errors(capsys, argv):
    # q, u, m, n below 1 and a second-kind h of 0 have no phase to evaluate,
    # and the Heath-Brown identity is evaluated for 1 <= k <= 6 only (k =
    # 20000 overflowed); no term count is below 0
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert "error: " in err
    assert out == ""


def test_exit_code_invariant_violation(monkeypatch, capsys):
    monkeypatch.setattr(cli, "classify_exponents", lambda *a, **k: [])
    code, _, err = run_cli(capsys, ["classify", "--t", "0.5,0.5",
                                    "--sigma", "0.15"])
    assert code == 3
    assert "invariant violation" in err


def test_exit_code_resource_limit(capsys):
    code, _, err = run_cli(capsys, ["sieve", "--lo", "2", "--hi",
                                    "4000000000"])
    assert code == 4
    assert "resource limit" in err


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("argv, message", [
    (["sieve", "--hi", "1e12"], "beyond sieve length budget 2147483648"),
    (["cache", "--build", "1e12"], "beyond sieve length budget 2147483648"),
    (["count", "--X", "1e12"], "beyond sieve length budget 2147483648"),
    (["expsum", "--X", "1e12"], "beyond sieve length budget 2147483648"),
    (["bv", "--X", "1e12", "--Q", "10"],
     "beyond sieve length budget 2147483648"),
    (["bv", "--X", "1e8", "--Q", "5e7", "--alpha", "0.1"],
     "beyond residue count budget 16777216"),
    (["decompose-check", "--nmax", "1e9"],
     "beyond Heath-Brown scan nmax budget 4194304"),
    (["kloosterman", "--q", "1e10", "--u", "1", "--v", "1"],
     "beyond Kloosterman sum budget 100000"),
    (["kloosterman", "--q", "1e8", "--u", "1", "--v", "1"],
     "beyond Kloosterman sum budget 100000"),
    (["kloosterman", "--q", "100000", "--table"],
     "beyond Kloosterman table budget 4096"),
    (["gauss", "--q", "1e6"], "beyond character table budget 100000"),
    (["classify", "--t", ",".join(["0.025"] * 40)],
     "beyond exponent tuple length budget 20"),
    (["oscint", "--phase", "first", "--X", "1e15", "--method", "quad"],
     "trapezoid rule: no convergence")],
    ids=["sieve-hi", "cache-build", "count-X", "expsum-X", "bv-X", "bv-Q",
         "decompose-nmax", "kloosterman-q1e10", "kloosterman-q1e8",
         "kloosterman-table", "gauss-q", "classify-t", "oscint-X"])
def test_size_parameter_over_budget_exits_4(tmp_path, argv, message):
    # every size parameter is refused before anything is allocated: exit 4
    # within a second; a 3 GiB address-space cap on the child process turns
    # an attempt to allocate into a MemoryError (exit 1), not a host OOM
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fracprimes.cli", *argv,
                           "--cache", str(tmp_path), "--output", "json"],
                          capture_output=True, text=True,
                          preexec_fn=_cap_address_space, timeout=1,
                          env={**os.environ, "PYTHONPATH": os.path.dirname(
                              os.path.dirname(cli.__file__))})
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("resource limit: ")
    assert message in proc.stderr


def _readme_commands():
    """The argument lists of the `fracprimes ...` lines of README's
    "Command line" block."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("fracprimes ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda a: a[0])
def test_readme_command_lines_run(capsys, tmp_path, argv):
    code, _, err = run_cli(capsys, [*argv, "--output", "json",
                                    "--cache", str(tmp_path)])
    assert code == 0, err


# ---------------------------------------------------------------------------
# determinism across thread counts

def test_thread_count_byte_identity(capsys):
    outs = []
    for t in ("1", "4", "8"):
        code, out, _ = run_cli(capsys, ["expsum", "--X", "10000", "--Y",
                                        "20000", "--h", "3", "--alpha", "0.3",
                                        "--q", "5", "--a", "2", "--threads", t,
                                        "--set", f"threads={t}",
                                        "--output", "json"])
        assert code == 0
        rec = json.loads(out)
        del rec["params"]["threads"]  # the echo differs by construction
        outs.append(json.dumps(rec, sort_keys=True))
    assert outs[0] == outs[1] == outs[2]
