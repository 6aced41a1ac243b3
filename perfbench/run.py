"""fracprimes benchmark: checked workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the program is imported from src/).
Each workload runs in a fresh interpreter (worker.py), so its peak memory is
its own.  With --trace 0 the last line of output is

    {"correct": .., "attempted": .., "failed": .., "metrics": {wall_s,
     setup_s, peak_rss_mb}}

where wall_s is the median time of one round of the workload's checked
operations and setup_s the median, over SETUP_STARTS fresh interpreters, of
the time from starting the interpreter to ready.  With --trace 1 the
workload runs with spans recorded and the metrics are the per-layer ones.
Details of each run, the spans and the per-layer table go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from worker import CACHE_BUILD   # one entry per workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_STARTS = 11     # fresh interpreters timed for setup_s, the run's own included
SETUP_TIMEOUT = 60.0  # seconds for one set-up process
RUN_GRACE = 150.0     # seconds a run may take beyond --seconds


def _child_env() -> dict:
    """The caller's environment without a prime-cache override, with
    numerical libraries held to one thread (expsum --threads 2 adds one)."""
    env = {k: v for k, v in os.environ.items() if k != "FPL_CACHE_DIR"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _spawn(args: list[str], timeout: float) -> tuple[float, dict | None]:
    """Run worker.py; (seconds from start to ready, its JSON result or None)."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-I", WORKER, *args], cwd=ROOT,
                            env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {args[:2]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:2]} exited {proc.returncode}")
    lines = out.splitlines()
    ready = float(lines[0].split()[1]) - t0
    return ready, (json.loads(lines[-1]) if len(lines) > 1 else None)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        setups = []
        if not traced:
            for i in range(SETUP_STARTS - 1):
                ready, _ = _spawn(["setup", workload, os.path.join(work, f"s{i}")],
                                  SETUP_TIMEOUT)
                setups.append(ready)
        ready, res = _spawn(["run", workload, os.path.join(work, "run"),
                             str(seed), repr(seconds), "1" if traced else "0", OUT],
                            seconds + RUN_GRACE)
        setups.append(ready)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res.update(workload=workload, seed=seed, seconds=seconds, setup_s=setups)
    return res


def _write(name: str, record: dict) -> None:
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(CACHE_BUILD))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fracprimes", "cli.py")):
        print(f"error: no fracprimes source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {m: {"value": v, "unit": "s" if m.endswith("_s") else "count"}
                   for m, v in res["layers"].items()}
        # overhead against the last untraced run of this workload, if any
        try:
            with open(os.path.join(OUT, f"{args.workload}-trace0.json"),
                      encoding="utf-8") as fh:
                res["tracing_overhead_s"] = res["wall_s"] - json.load(fh)["wall_s"]
        except (OSError, KeyError, ValueError):
            pass
        _write(f"{args.workload}-layers.json", res)
    else:
        res["setup_median_s"] = statistics.median(res["setup_s"])
        metrics = {"wall_s": {"value": res["wall_s"], "unit": "s"},
                   "setup_s": {"value": res["setup_median_s"], "unit": "s"},
                   "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}
        _write(f"{args.workload}-trace0.json", res)
    print(json.dumps({"correct": res["incorrect"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
