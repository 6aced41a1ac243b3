"""Span tracing of fracprimes' layers, patched in from the benchmark.

`install` wraps the public functions listed in TARGETS.  A function is
replaced under every name that binds it in any fracprimes module, because
`from .arith import factor` copies the name; methods are replaced on their
class.  The program's source is not touched.

Each call made from the main thread records a span: the function, the
parent span, start and end (perf_counter) and up to two work counts.  Spans
stay in memory, one list for the set-up and one per round, and are written
out when the run ends.

Per-layer metrics group the functions:
  <layer>_s       time inside the group's outermost spans (a group function
                  called from another one of the same group is not counted
                  twice);
  <layer>_self_s  those spans' duration less the time their child spans
                  (other groups) cover;
  calls           every call of a group function, nested ones included;
  work counts     summed over the group's outermost spans.
The setup.* metrics measure the sieve, cache and factor groups over the
set-up (cache build and first factor() call) instead of over a round.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

import numpy as np

from reference import HIGHPREC

MODULES = ("arith", "smoothing", "decomp", "expsums", "charkloost",
           "oscillatory", "cli")


def _phase_work(h, ns, alpha):
    """(elements, elements with |h n^alpha| > 2^12) of a reduction call.

    |h| n^alpha > 2^12 exactly when n > (2^12/|h|)^(1/alpha); comparing n
    costs far less than the powers, which would run inside the caller's span.
    """
    ns = np.asarray(ns)
    if h == 0:
        return int(ns.size), 0
    cut = (HIGHPREC / abs(h)) ** (1.0 / alpha)
    return int(ns.size), int(np.count_nonzero(np.abs(ns) > cut))


def _points(*args, **kwargs):
    """Number of evaluation points: the size of the last argument x."""
    return int(np.size(kwargs["x"] if "x" in kwargs else args[-1])), 0


# (module, attribute, group, work counted before the call from the
#  arguments, work counted after the call from the result)
TARGETS = (
    ("arith", "sieve_primes", "arith.sieve", None, None),
    ("arith", "primes_upto", "arith.sieve", None, None),
    ("arith", "save_sieve", "arith.cache_io", None, None),
    ("arith", "load_sieve", "arith.cache_io", None, None),
    ("arith", "factor", "arith.factor", None, None),
    ("arith", "smallest_factor_range", "arith.range", None, None),
    ("arith", "mobius_range", "arith.range", None, None),
    ("arith", "von_mangoldt_range", "arith.range", None, None),
    ("expsums", "reduced_phase", "expsums.reduce", _phase_work, None),
    ("expsums", "reduced_phase_array", "expsums.reduce", _phase_work, None),
    ("expsums", "unit_phases", "expsums.reduce", _phase_work, None),
    ("expsums", "phase_sum", "expsums.phase_sum", None, None),
    ("expsums", "block_sum", "expsums.block_sum", None, None),
    ("expsums", "bv_discrepancy", "expsums.bv", None, None),
    ("smoothing", "eval_member", "smoothing.eval", _points, None),
    ("smoothing", "eval_bump", "smoothing.eval", _points, None),
    ("smoothing", "master_window", "smoothing.eval", _points, None),
    ("smoothing", "partition_sum", "smoothing.eval", _points, None),
    ("decomp", "hb_signed_total_range", "decomp.hb_scan", None, None),
    ("decomp", "hb_residual_scan", "decomp.hb_scan", None, None),
    ("decomp", "heath_brown_terms", "decomp.hb_terms", None,
     lambda res: len(res.terms)),
    ("charkloost", "character_group", "charkloost.tables", None, None),
    ("charkloost", "chi_values", "charkloost.tables", None, None),
    ("charkloost", "gauss_sum", "charkloost.tables", None, None),
    ("charkloost", "kloosterman_table", "charkloost.tables", None, None),
    ("charkloost", "weil_margin_table", "charkloost.tables", None, None),
    ("oscillatory", "quad_osc", "oscillatory.quad", None,
     lambda res: res.terms_used),
    ("oscillatory", "PhaseModel.g", "oscillatory.phase_eval", None, None),
    ("oscillatory", "PhaseModel.dg", "oscillatory.phase_eval", None, None),
    ("oscillatory", "poisson_verify_first", "oscillatory.poisson", None, None),
    ("oscillatory", "poisson_verify_second", "oscillatory.poisson", None, None),
    ("cli", "main", "cli.main", None, None),
)

# metric name -> (what is measured, group); unit "s" for *_s, else "count"
METRICS = {
    "arith.sieve_s": ("time", "arith.sieve"),
    "arith.cache_io_s": ("time", "arith.cache_io"),
    "arith.factor_s": ("time", "arith.factor"),
    "arith.factor_calls": ("calls", "arith.factor"),
    "arith.range_s": ("time", "arith.range"),
    "expsums.reduce_s": ("time", "expsums.reduce"),
    "expsums.reduce_elems": ("work", "expsums.reduce"),
    "expsums.reduce_highprec_elems": ("work2", "expsums.reduce"),
    "expsums.phase_sum_s": ("time", "expsums.phase_sum"),
    "expsums.block_sum_s": ("time", "expsums.block_sum"),
    "expsums.bv_self_s": ("self", "expsums.bv"),
    "smoothing.eval_s": ("time", "smoothing.eval"),
    "smoothing.eval_calls": ("calls", "smoothing.eval"),
    "smoothing.eval_points": ("work", "smoothing.eval"),
    "decomp.hb_scan_self_s": ("self", "decomp.hb_scan"),
    "decomp.hb_terms_self_s": ("self", "decomp.hb_terms"),
    "decomp.hb_terms": ("work", "decomp.hb_terms"),
    "charkloost.tables_s": ("time", "charkloost.tables"),
    "charkloost.calls": ("calls", "charkloost.tables"),
    "oscillatory.quad_s": ("time", "oscillatory.quad"),
    "oscillatory.quad_calls": ("calls", "oscillatory.quad"),
    "oscillatory.quad_nodes": ("work", "oscillatory.quad"),
    "oscillatory.phase_eval_s": ("time", "oscillatory.phase_eval"),
    "oscillatory.poisson_self_s": ("self", "oscillatory.poisson"),
    "cli.self_s": ("self", "cli.main"),
}

# set-up metric -> the round metric it is measured like, over the set-up
SETUP_METRICS = {"setup.sieve_s": "arith.sieve_s",
                 "setup.cache_io_s": "arith.cache_io_s",
                 "setup.factor_s": "arith.factor_s"}


class Tracer:
    """Records spans of wrapped functions: one span list for the set-up and
    one per round."""

    def __init__(self):
        self.names: list[str] = []     # target index -> span name
        self.groups: list[str] = []    # target index -> group
        self.setup: list = []
        self.rounds: list[list] = []
        self._spans: list | None = None
        self._stack: list[int] = []
        self._open: dict[str, int] = {}   # group -> open spans of it
        self._thread = threading.get_ident()

    def begin_setup(self) -> None:
        self._spans = self.setup

    def begin_round(self) -> None:
        self._spans = []
        self.rounds.append(self._spans)

    def wrap(self, fn, name: str, group: str, before=None, after=None):
        tid = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        self._open[group] = 0
        stack, opened = self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans
            if spans is None or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            outer = opened[group] == 0
            # span: [target, parent, start, end, work, work2, outermost]
            rec = [tid, stack[-1] if stack else -1, 0.0, 0.0, 0, 0, outer]
            if before is not None and outer:
                rec[4], rec[5] = before(*args, **kwargs)
            stack.append(len(spans))
            spans.append(rec)
            opened[group] += 1
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                opened[group] -= 1
                stack.pop()
            if after is not None and outer:
                rec[4] = after(result)
            return result

        return traced

    def round_metrics(self, spans: list) -> dict:
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[3] - rec[2]
        acc = {g: {"time": 0.0, "self": 0.0, "calls": 0, "work": 0, "work2": 0}
               for g in self._open}
        for i, rec in enumerate(spans):
            a = acc[self.groups[rec[0]]]
            dur = rec[3] - rec[2]
            a["calls"] += 1
            a["self"] += dur - child[i]
            if rec[6]:
                a["time"] += dur
                a["work"] += rec[4]
                a["work2"] += rec[5]
        return {m: acc[g][kind] for m, (kind, g) in METRICS.items()}

    def metrics(self) -> dict:
        """Each per-layer metric as its median over the rounds, and the
        set-up's own metrics."""
        per_round = [self.round_metrics(s) for s in self.rounds]
        out = {m: float(np.median([r[m] for r in per_round])) for m in METRICS}
        setup = self.round_metrics(self.setup)
        out.update({m: setup[like] for m, like in SETUP_METRICS.items()})
        return out

    def write_spans(self, path: str, base: float) -> None:
        """One JSON line per span; round -1 is the set-up, times are seconds
        from `base`."""
        with open(path, "w", encoding="utf-8") as fh:
            for r, spans in enumerate([self.setup] + self.rounds, start=-1):
                for i, rec in enumerate(spans):
                    fh.write(json.dumps(
                        {"round": r, "span": i, "parent": rec[1],
                         "name": self.names[rec[0]],
                         "start": rec[2] - base, "end": rec[3] - base}) + "\n")


def install(tracer: Tracer) -> None:
    """Replace every TARGETS function, under all its names, by a traced one."""
    pkg = importlib.import_module("fracprimes")
    mods = [pkg] + [importlib.import_module(f"fracprimes.{m}") for m in MODULES]
    for module, attr, group, before, after in TARGETS:
        owner = importlib.import_module(f"fracprimes.{module}")
        name = f"{module}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(getattr(cls, method), name, group,
                                             before, after))
            continue
        fn = getattr(owner, attr)
        traced = tracer.wrap(fn, name, group, before, after)
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, traced)
