"""The benchmark's workloads: fixed rounds of checked fracprimes operations.

An operation is one `fracprimes.cli.main([...])` call or one library call,
together with the check of its output.  Each workload function computes its
reference values once (see `reference.py`) and returns the operations of
one round; a run repeats whole rounds.  The program is always called
through module attributes, so the tracer's patched names are the ones used.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fracprimes import charkloost, cli, decomp, expsums, oscillatory, smoothing

import reference

# The reference primes cover every CLI call below (expsum at X = 10^7 needs
# [10^7, 2*10^7)), as does the prime cache built at set-up (worker.py).
REF_LIMIT = 2 * 10**7


@dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None when the output is right


def run_cli(argv: list[str]) -> dict:
    """fracprimes.cli.main(argv) with --output json; the parsed record."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--output", "json"])
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def _cli_op(argv: list[str], cache: str, check) -> Operation:
    def checked(rec: dict) -> str | None:
        if rec["invariant_flags"].get("cache_hit") is not True:
            return "prime cache not used"
        return check(rec["values"])
    return Operation(" ".join(argv), lambda: run_cli([*argv, "--cache", cache]),
                     checked)


def _close(got: complex, want: complex, tol: float) -> str | None:
    diff = abs(got - want)
    return None if diff <= tol else f"off by {diff:.3e} (tolerance {tol:.3e})"


def _value(v) -> complex:
    return complex(*v["__complex__"]) if isinstance(v, dict) else complex(v)


# ---------------------------------------------------------------------------
# CLI ladder pieces shared by the two prime workloads

def _count(ps, X: int, alpha: float, cache: str) -> Operation:
    want = int(reference.window_mask(ps[ps <= X], alpha, 0.0, 0.5).sum())
    return _cli_op(["count", "--X", str(X), "--alpha", str(alpha), "--I", "0,0.5"],
                   cache, lambda v: None if v["count"] == want
                   else f"count {v['count']} != {want}")


def _bv(ps, X: int, Q: int, alpha: float, moduli: str, cache: str) -> Operation:
    sel = ps[ps <= X]
    pe = sel[reference.window_mask(sel, alpha, 0.0, 0.5)]
    qs = range(2, Q + 1) if moduli == "all" else ps[ps <= Q].tolist()
    rows = reference.discrepancy_rows(pe, qs)
    total = math.fsum(r[2] for r in rows)

    def check(v):
        if v["pi_I"] != len(pe):
            return f"pi_I {v['pi_I']} != {len(pe)}"
        got = [tuple(r) for r in v["rows"]]
        if [r[:2] for r in got] != [r[:2] for r in rows] or any(
                abs(g[2] - w[2]) > 1e-9 for g, w in zip(got, rows)):
            return "per-q rows differ from the reference"
        return _close(v["total"], total, 1e-9 * max(total, 1.0))

    return _cli_op(["bv", "--X", str(X), "--Q", str(Q), "--alpha", str(alpha),
                    "--I", "0,0.5", "--moduli", moduli], cache, check)


def _expsum(ps, X: int, Y: int, alpha: float, cache: str,
            threads: int = 1) -> Operation:
    sel = ps[(ps >= X) & (ps < Y)]
    if alpha == 0.5:
        want = reference.sqrt_phase_sum(sel)
    else:
        want = complex(np.sum(np.exp(2j * np.pi * reference.log_phase(sel, alpha))))
    # the program's float64 path covers phases up to 2^12
    tol = 2 * reference.float_phase_tolerance(
        len(sel), min(float(sel[-1]) ** alpha, reference.HIGHPREC))

    def check(v):
        if v["count"] != len(sel):
            return f"count {v['count']} != {len(sel)}"
        return _close(_value(v["value"]), want, tol)

    return _cli_op(["expsum", "--X", str(X), "--Y", str(Y), "--alpha", str(alpha),
                    "--h", "1", "--threads", str(threads)], cache, check)


# ---------------------------------------------------------------------------
# primes-highprec

def _phase_sum_cases(seed: int, count: int = 24) -> list:
    """Monomial phases shaped like the Type I / II sum phases (criterion 8),
    drawn until every phase on [R, 2R] exceeds 2^12, so that each of the
    sum(R + 1) terms takes the high-precision path whatever the seed."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        R = (500, 1000, 2000)[i % 3]
        while True:
            alpha = float(rng.uniform(0.05, 0.6))
            h = int(rng.integers(1, 20))
            u, v = int(rng.integers(1, 30)), int(rng.integers(2, 30))
            shift = float(rng.uniform(0.0, 1.0)) if i % 2 == 0 else 0.0
            coeff = h * (u * v) ** alpha
            if coeff * R ** alpha > reference.HIGHPREC:
                break
        cases.append(expsums.MonomialPhase(coeff=coeff, shift=shift,
                                           exponent=alpha, lo=R, hi=2 * R))
    return cases


def _phase_sum_op(ph) -> Operation:
    def check(out):
        res, bound = out
        if res.count != ph.hi - ph.lo + 1:
            return f"{res.count} terms, expected {ph.hi - ph.lo + 1}"
        if not abs(res.value) <= min(bound, res.count) + 1e-9:
            return f"|S| = {abs(res.value):.6e} above bound {bound:.6e}"
        return None
    return Operation(f"phase_sum R={ph.lo} alpha={ph.exponent:.4f}",
                     lambda: (expsums.phase_sum(ph),
                              expsums.vdc_bound(ph, constant=8.0)), check)


def primes_highprec(seed: int, cache: str) -> list[Operation]:
    ps = reference.primes_upto(REF_LIMIT)
    ops = [_count(ps, 10**7, 0.5, cache),
           _count(ps, 10**6, 0.9, cache),
           _expsum(ps, 10**7, 17 * 10**6, 0.5, cache),
           _bv(ps, 10**7, 100, 0.5, "prime", cache),
           _bv(ps, 2 * 10**5, 50, 0.9, "prime", cache)]
    return ops + [_phase_sum_op(ph) for ph in _phase_sum_cases(seed)]


# ---------------------------------------------------------------------------
# arith-decomp

def _weighted_sum_op(ps) -> Operation:
    X, alpha = 10**6, 0.1
    spec = expsums.ExpSumSpec(X=X, Y=2 * X, h=1, alpha=alpha)
    window = smoothing.make_bump(2.0, 0.2)
    lo = max(2, math.ceil((1.0 - window.delta) * X))
    hi = math.floor((window.y + window.delta) * X)
    lam = reference.von_mangoldt_upto(hi, ps)
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    ns = ns[lam[ns] != 0.0]
    lamv = lam[ns]
    phases = np.exp(2j * np.pi * reference.log_phase(ns, alpha))
    psi = reference.bump(ns / X, window.y, window.delta)
    want = complex(np.sum(lamv * psi * phases))
    sharp = (ns >= X) & (ns < 2 * X)
    want_sharp = complex(np.sum((lamv * phases)[sharp]))
    want_count = int(np.count_nonzero(psi * lamv))
    weight = float(np.sum(lamv))
    # the bump is recomputed here, so allow 1e-12 relative beyond the phases
    tol = 2 * reference.float_phase_tolerance(weight, hi ** alpha) + 1e-12 * weight

    def check(res):
        if res.count != want_count:
            return f"count {res.count} != {want_count}"
        return (_close(res.value, want, tol)
                or _close(res.sharp, want_sharp, tol))

    return Operation("weighted_sum_W X=1e6 alpha=0.1",
                     lambda: expsums.weighted_sum_W(spec, window), check)


def _hb_scan_op(nmax: int) -> Operation:
    def check(res):
        if len(res) != nmax + 1:
            return f"{len(res)} entries for nmax={nmax}"
        worst = float(res[2:].max())
        return None if worst <= 1e-9 else f"max residual {worst:.3e} > 1e-9"
    return Operation(f"hb_residual_scan {nmax}",
                     lambda: decomp.hb_residual_scan(nmax), check)


def _hb_terms_op(n: int) -> Operation:
    want = reference.von_mangoldt(n)
    return Operation(f"heath_brown_terms {n}",
                     lambda: decomp.heath_brown_terms(n),
                     lambda res: _close(res.total(), want, 1e-9))


def _weil_op(q: int, sample) -> Operation:
    want = [(u, v, reference.kloosterman_margin(q, u, v)) for u, v in sample]

    def check(margins):
        if margins.shape != (q, q):
            return f"table shape {margins.shape}"
        if float(margins.min()) < -1e-9:
            return f"Weil bound violated: min margin {float(margins.min()):.3e}"
        for u, v, m in want:
            if abs(margins[u, v] - m) > 1e-9 * q:
                return f"margin at (u, v) = ({u}, {v}) off the direct sum"
        return None

    return Operation(f"weil_margin_table {q}",
                     lambda: charkloost.weil_margin_table(q), check)


def arith_decomp(seed: int, cache: str) -> list[Operation]:
    ps = reference.primes_upto(REF_LIMIT)
    rng = np.random.default_rng(seed)
    ops = [_count(ps, 10**7, 0.1, cache),
           _expsum(ps, 10**7, 2 * 10**7, 0.1, cache, threads=2),
           _bv(ps, 10**7, 500, 0.1, "all", cache),
           _weighted_sum_op(ps),
           _hb_scan_op(4000)]
    ops += [_hb_terms_op(n) for n in (12, 30, 97, 210)]
    # two seeded (u, v) per modulus are summed directly
    ops += [_weil_op(q, rng.integers(0, q, size=(2, 2)).tolist())
            for q in ps[ps <= 499].tolist()]
    return ops


# ---------------------------------------------------------------------------
# poisson-grid: a fixed subset of criterion 6's grid (X = 10^4, tol 1e-5)

POISSON_X = 10_000.0
POISSON_H2 = {0.05: 5035.0, 0.1: 796.0}
POISSON_CASES = (("first", 12, 0.05, 1), ("first", 7, 0.1, 1),
                 ("first-classical", 5, 0.1, 0),
                 ("second", 12, 0.05, 1), ("second", 12, 0.1, 1))


def _poisson_op(kind: str, q: int, alpha: float, chi: int) -> Operation:
    tol = 1e-5
    window = smoothing.make_bump(2.0, 0.2)
    if kind.startswith("first"):
        # puts the stationary s-window over small integers (u=1, m=2, n=3)
        h = 0.0 if kind == "first-classical" else float(
            round(POISSON_X ** (1 - alpha) / (alpha * q)))

        def run():
            return oscillatory.poisson_verify_first(
                q=q, u=1, m=2, n=3, chi_index=chi, h=h, alpha=alpha,
                X=POISSON_X, window=window, tol=tol)
    else:
        h = POISSON_H2[alpha]
        s = max(1, round((alpha * h * q) ** 2 * 2
                         / (2 * POISSON_X ** (1 - 2 * alpha))))

        def run():
            return oscillatory.poisson_verify_second(
                q=q, u=1, m=2, s=s, chi_index=chi, h=h, alpha=alpha,
                X=POISSON_X, window=window, tol=tol)

    def check(chk):
        scale = max(1.0, abs(chk.lhs), abs(chk.rhs))
        if not chk.rel <= tol:
            return f"rel {chk.rel:.3e} > {tol}"
        if not chk.tail_bound <= tol * scale:
            return f"tail bound {chk.tail_bound:.3e} > {tol} x {scale:.3e}"
        return None

    return Operation(f"poisson {kind} q={q} alpha={alpha} chi={chi}", run, check)


def poisson_grid(seed: int, cache: str) -> list[Operation]:
    return [_poisson_op(*case) for case in POISSON_CASES]


WORKLOADS = {"primes-highprec": primes_highprec,
             "arith-decomp": arith_decomp,
             "poisson-grid": poisson_grid}
