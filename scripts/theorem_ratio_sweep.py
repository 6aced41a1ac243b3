#!/usr/bin/env python3
"""Cancellation in prime exponential sums across moduli.

For each modulus q <= Q computes T = sum_{X <= p < 2X, p = a (q)} e(h p^alpha)
in the progression a = 1 (a = 0 at q = 1) and reports ratio = |T| q / count,
where count is the number of primes in the sum.  The trivial bound puts the
ratio at q; values near or below 1 show square-root-type cancellation
uniform in the modulus.

    python3 scripts/theorem_ratio_sweep.py --X 1000000 --alpha 0.1 --Q 30
"""

from __future__ import annotations

import argparse
import sys

from fracprimes.arith import atomic_write, sieve_primes
from fracprimes.cli import emit_csv
from fracprimes.expsums import ExpSumSpec, exp_sum_primes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--X", type=int, default=10 ** 6)
    ap.add_argument("--h", type=int, default=1)
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--Q", type=int, default=30)
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args(argv)

    table = sieve_primes(2, 2 * args.X)
    rows = []
    for q in range(1, args.Q + 1):
        spec = ExpSumSpec(X=args.X, Y=2 * args.X, h=args.h, alpha=args.alpha,
                          q=q, a=0 if q == 1 else 1)
        res = exp_sum_primes(spec, table=table)
        ratio = abs(res.value) * q / res.count if res.count else 0.0
        rows.append((q, abs(res.value), res.count, ratio))
    text = emit_csv(
        "expsum-sweep", {"X": args.X, "h": args.h, "alpha": args.alpha,
                         "Q": args.Q, "a": "1 (0 at q=1)"},
        ["q", "abs_T", "count", "ratio"], rows)
    if args.out:
        atomic_write(args.out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
