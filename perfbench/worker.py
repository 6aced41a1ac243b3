"""One fresh-interpreter process of the benchmark (started by run.py).

    worker.py setup WORKLOAD CACHE_DIR
    worker.py run WORKLOAD CACHE_DIR SEED SECONDS TRACE OUT_DIR

Both modes set the program up -- import fracprimes, build the workload's
prime cache with `fracprimes cache --build` into CACHE_DIR, and build the
trial-division primes that factor() makes on first use -- and then print
`ready <time.monotonic()>`.  `setup` stops there.  `run` then computes the
references, repeats whole rounds of the workload's operations until SECONDS
have passed, and prints one JSON line with the round times, the operation
counts and its own peak resident memory.  With TRACE 1 it records spans from
the set-up on, writes them to OUT_DIR and adds the per-layer metrics.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

# upper end of the prime cache each workload builds at set-up
CACHE_BUILD = {"primes-highprec": 20_000_001, "arith-decomp": 20_000_001,
               "poisson-grid": None}


def setup(workload: str, cache: str) -> None:
    import contextlib
    import io

    from fracprimes import arith, cli

    if CACHE_BUILD[workload] is not None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(["cache", "--build", str(CACHE_BUILD[workload]),
                             "--cache", cache])
        if code != 0:
            raise RuntimeError(f"cache --build failed ({code}): {out.getvalue()}")
    arith.factor(2)


def run(workload: str, cache: str, seed: int, seconds: float, tracer,
        out_dir: str) -> dict:
    import resource
    import statistics

    import workloads

    ops = workloads.WORKLOADS[workload](seed, cache)
    attempted = failed = incorrect = 0
    round_s, round_cpu_s, op_s = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_round()
        t0, c0 = time.perf_counter(), time.process_time()
        op_s.append([])
        for op in ops:
            attempted += 1
            t_op = time.perf_counter()
            try:
                problem = op.check(op.run())
            except Exception as exc:   # a failed operation, counted as such
                failed += 1
                print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            finally:
                op_s[-1].append(time.perf_counter() - t_op)
            if problem is not None:
                failed += 1
                incorrect += 1
                print(f"{op.name}: {problem}", file=sys.stderr)
        round_s.append(time.perf_counter() - t0)
        round_cpu_s.append(time.process_time() - c0)
        if time.perf_counter() - start >= seconds:
            break
    result = {"rounds": len(round_s), "round_s": round_s,
              "round_cpu_s": round_cpu_s, "op_s": op_s,
              "wall_s": statistics.median(round_s),
              "attempted": attempted, "failed": failed, "incorrect": incorrect,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(os.path.join(out_dir, f"{workload}-spans.jsonl"), start)
    return result


def main(argv: list[str]) -> int:
    mode, workload, cache = argv[:3]
    tracer = None
    if mode == "run" and argv[5] == "1":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.begin_setup()
    setup(workload, cache)
    print(f"ready {time.monotonic()!r}", flush=True)
    if mode == "run":
        import json
        seed, seconds, out_dir = int(argv[3]), float(argv[4]), argv[6]
        print(json.dumps(run(workload, cache, seed, seconds, tracer, out_dir)),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
