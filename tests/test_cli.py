import cmath
import json
import math
import os

import numpy as np
import pytest

from fracprimes import cli
from fracprimes.arith import save_sieve, sieve_primes
from fracprimes.cli import (ResultRecord, main, record_from_json,
                            record_to_json)

import oracles


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_classify_cli(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--t", "0.5,0.5",
                                    "--sigma", "0.15", "--output", "json"])
    assert code == 0
    rec = record_from_json(out)
    assert rec.values["kind"] == "II"
    assert rec.values["witness"] == [[1], [2]]


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


def test_gauss_cli(capsys):
    code, out, _ = run_cli(capsys, ["gauss", "--q", "7", "--chi-index", "1",
                                    "--s", "1", "--output", "json"])
    assert code == 0
    rec = record_from_json(out)
    assert rec.values["abs"] == pytest.approx(math.sqrt(7), abs=1e-9)


def test_oscint_gaussian_both(capsys):
    code, out, _ = run_cli(capsys, ["oscint", "--phase", "gaussian",
                                    "--Y", "200", "--t0", "1.5",
                                    "--method", "both", "--output", "json"])
    assert code == 0
    rec = record_from_json(out)
    lead = 1.0 * cmath.exp(-1j * math.pi / 4) / math.sqrt(200.0)
    assert abs(rec.values["expansion"] - lead) < 1e-12
    assert rec.values["rel_error"] < 1e-6


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
    assert back == rec


def test_canonical_json_nulls_elapsed():
    rec = ResultRecord(command="demo", params={}, values={},
                       invariant_flags={}, elapsed_ms=42.0, version="0")
    d = json.loads(record_to_json(rec, canonical=True))
    assert d["elapsed_ms"] is None
    d = json.loads(record_to_json(rec))
    assert d["elapsed_ms"] == 42.0


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


@pytest.mark.parametrize("method", ["quad", "expansion", "both"])
def test_oscint_reversed_J_is_an_argument_error(capsys, method):
    code, out, err = run_cli(capsys, ["oscint", "--J", "2,1", "--method",
                                      method])
    assert code == 2
    assert err.startswith("error: J: ")
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
