#!/usr/bin/env python3
"""Stationary-phase error against trapezoid-rule quadrature (`quad_osc`).

Sweeps the Gaussian-phase family g(t) = -Y (t - t0)^2 over a geometric Y
ladder and reports the relative error of the --terms-term expansion versus
the quadrature value.  The one-term error should shrink like 1/Y once the
stationary point sits inside the window plateau.

    python3 scripts/expansion_error_sweep.py --ymin 25 --ymax 1600 --points 7
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from fracprimes.arith import atomic_write
from fracprimes.cli import emit_csv
from fracprimes.oscillatory import (gaussian_phase, quad_osc,
                                    stationary_expand, window_from_bump)
from fracprimes.smoothing import make_bump


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--ymin", type=float, default=25.0)
    ap.add_argument("--ymax", type=float, default=1600.0)
    ap.add_argument("--points", type=int, default=7)
    ap.add_argument("--t0", type=float, default=1.5,
                    help="stationary point (keep inside the plateau)")
    ap.add_argument("--y", type=float, default=2.0, help="plateau right edge")
    ap.add_argument("--delta", type=float, default=0.2,
                    help="transition width")
    ap.add_argument("--terms", type=int, default=1, choices=(1, 2, 3))
    ap.add_argument("--tol", type=float, default=1e-10,
                    help="quadrature tolerance")
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args(argv)

    bump = make_bump(args.y, args.delta)
    W = window_from_bump(bump)
    ys = np.geomspace(args.ymin, args.ymax, args.points)
    rows = []
    for Y in ys:
        g = gaussian_phase(float(Y), args.t0)
        ex = stationary_expand(bump, g, n_terms=args.terms)
        qd = quad_osc(W, g, tol=args.tol)
        rel = abs(ex.value - qd.value) / abs(qd.value)
        rows.append((float(Y), qd.value.real, qd.value.imag,
                     ex.value.real, ex.value.imag, rel))
    text = emit_csv(
        "oscint-sweep", {"t0": args.t0, "y": args.y, "delta": args.delta,
                         "terms": args.terms, "tol": args.tol},
        ["Y", "quad_re", "quad_im", "exp_re", "exp_im", "rel_error"], rows)
    if args.out:
        atomic_write(args.out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
