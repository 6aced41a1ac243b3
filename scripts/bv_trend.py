#!/usr/bin/env python3
"""Discrepancy-sum trend along an X ladder.

For each X computes D(Q, X) = sum_{q <= Q} max_{(a,q)=1} |pi_I(X;q,a) -
pi_I(X)/phi(q)| with Q = floor(X^qexp), and reports the normalized ratio
D/pi(X).  A decreasing ratio is the desk-scale signature of the discrepancy
sum growing slower than the prime count.

    python3 scripts/bv_trend.py --xs 1e5,1e6,1e7 --alpha 0.1 --I 0,0.5
"""

from __future__ import annotations

import argparse
import sys

from fracprimes.arith import atomic_write, sieve_primes
from fracprimes.cli import emit_csv
from fracprimes.expsums import FracWindow, bv_discrepancy


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--xs", default="1e5,1e6,1e7",
                    help="comma-separated X ladder")
    ap.add_argument("--qexp", type=float, default=0.3,
                    help="Q = floor(X^qexp)")
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--I", default="0,0.5", help="window as c,d")
    ap.add_argument("--moduli", choices=("all", "prime"), default="all")
    ap.add_argument("--detail-dir", default=None,
                    help="also write one per-q breakdown CSV per X here")
    ap.add_argument("--out", default=None, help="trend CSV path (default stdout)")
    args = ap.parse_args(argv)

    c, d = (float(t) for t in args.I.split(","))
    win = FracWindow(alpha=args.alpha, c=c, d=d)
    xs = [int(float(t)) for t in args.xs.split(",")]

    rows = []
    for X in xs:
        Q = int(X ** args.qexp)
        table = sieve_primes(2, X + 1)
        rep = bv_discrepancy(X, Q, win, table=table, moduli=args.moduli)
        pi = table.count()
        rows.append((X, Q, rep.total, rep.pi_I, pi, rep.total / pi))
        if args.detail_dir:
            detail = emit_csv(
                "bv", {"X": X, "Q": Q, "alpha": args.alpha, "c": c, "d": d,
                       "moduli": args.moduli},
                ["q", "worst_a", "deviation"],
                [*rep.per_q, ("total", None, rep.total)])
            atomic_write(f"{args.detail_dir}/bv_X{X}.csv",
                         detail.encode("utf-8"))
    text = emit_csv("bv-trend", {"alpha": args.alpha, "I": f"[{c},{d})",
                                 "qexp": args.qexp, "moduli": args.moduli},
                    ["X", "Q", "D", "pi_I", "pi", "ratio"], rows)
    if args.out:
        atomic_write(args.out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
