#!/usr/bin/env python3
"""sha256 digests of the acceptance criteria's canonical artifacts.

Evaluates `_criterion_N(1)` from tests/test_acceptance.py for each chosen
criterion (1-10, single-threaded), with `fracprimes` imported from the src/
of the tree the script is in, and prints one line per criterion:

    criterion N <sha256 of the artifact text, UTF-8>

Run it in two source trees and compare the outputs to check that a change
leaves every artifact byte-identical:

    python3 scripts/artifact_digests.py
    python3 scripts/artifact_digests.py --criteria 1,3
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digest(n: int) -> str:
    """sha256 hex digest of criterion n's artifact at one thread."""
    # test_acceptance imports `oracles` from tests/ and fracprimes from src/
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import test_acceptance

    artifact, _stats = test_acceptance._CRITERIA[n](1)
    return hashlib.sha256(artifact.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--criteria", default="1,2,3,4,5,6,7,8,9,10",
                    help="comma-separated criterion numbers, each in 1-10")
    args = ap.parse_args(argv)
    criteria = [int(t) for t in args.criteria.split(",")]
    if not all(1 <= n <= 10 for n in criteria):
        ap.error(f"criteria must be in 1-10, got {args.criteria}")
    for n in criteria:
        print(f"criterion {n} {digest(n)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
