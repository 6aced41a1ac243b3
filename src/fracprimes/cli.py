"""Experiment runner: subcommand dispatch, flat-file config, prime-cache
persistence, and CSV/JSON artifact emission.

Design notes:

* Configuration is a flat ``key = value`` text file plus flag overrides;
  every artifact echoes the effective configuration and the package
  version, so runs are reproducible from their own output.
* Artifacts are written atomically (`arith.atomic_write`) and are
  byte-identical for a fixed (config, seed): timing is reported on stderr
  and nulled in the canonical serialization.
* Exit codes: 0 ok, 2 argument/config error, 3 invariant violation,
  4 resource/accuracy limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .arith import atomic_write, load_sieve, save_sieve, sieve_primes
from .charkloost import (character_group, gauss_sum, is_primitive,
                         kloosterman, kloosterman_rows, weil_margin_table)
from .decomp import (DyadicTuple, classify_dyadic, classify_exponents,
                     heath_brown_terms, hb_residual_scan)
from .errors import (AccuracyError, ArgumentError, InvariantViolation,
                     ResourceLimitError, StationaryPointError)
from .expsums import (ExpSumSpec, FracWindow, bv_discrepancy, count_pi_I,
                      exp_sum_primes, level_of_distribution)
from .oscillatory import (alpha_constants, gaussian_phase, make_first_phase,
                          make_second_phase, nonstationary_bound,
                          poisson_verify_first, quad_osc, stationary_expand,
                          stationary_point, window_from_bump)
from .smoothing import make_bump, make_partition, partition_sum

_DEFAULT_CONSTANTS = {"C": 5.0, "A_I": 8.0}


def _real(text: str) -> float:
    """text as a float that is finite: nan and +-inf are rejected."""
    f = float(text)
    if not math.isfinite(f):
        raise ValueError(text)
    return f


def _integer(text: str) -> int:
    """text as an int: integer text exactly, else a number without
    fractional part, so 1e9 passes."""
    try:
        return int(text)
    except ValueError:
        pass
    f = float(text)
    if not f.is_integer():
        raise ValueError(text)
    return int(f)


# argparse names the type of a rejected value by its cast's __name__
_real.__name__, _integer.__name__ = "real", "integer"


# scalar config keys: each is a --flag and a config-file/--set key of this type
_SCALAR_KEYS = {"alpha": _real, "X": _integer, "Q": _integer, "q": _integer,
                "a": _integer, "h": _real, "threads": _integer, "seed": _integer}


# ---------------------------------------------------------------------------
# configuration

@dataclass
class RunConfig:
    alpha: float = 0.1
    interval: tuple = (0.0, 0.5)
    X: int = 100_000
    Q: int | None = None
    q: int | None = None
    a: int | None = None
    h: float = 1.0
    constants: dict = field(default_factory=lambda: dict(_DEFAULT_CONSTANTS))
    threads: int = 1
    cache_path: str | None = None
    output: str = "csv"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ArgumentError(f"alpha: need 0 < alpha < 1, got {self.alpha}")
        c, d = self.interval
        if not 0.0 <= c < d <= 1.0:
            raise ArgumentError(f"interval: need 0 <= c < d <= 1, got {c},{d}")
        if self.X < 3:
            raise ArgumentError(f"X: need X >= 3, got {self.X}")
        if self.threads < 1:
            raise ArgumentError(f"threads: need >= 1, got {self.threads}")
        if self.output not in ("csv", "json"):
            raise ArgumentError(f"output: must be csv or json, got {self.output}")

    def echo(self) -> dict:
        d = dataclasses.asdict(self)
        d["interval"] = list(self.interval)
        return d


def load_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' comments; values stay stripped text
    until the cast for their key reads them."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ArgumentError(
                        f"{path}:{lineno}: expected key = value, got {raw!r}")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except OSError as e:
        raise ArgumentError(f"cannot read config {path}: {e}") from e
    return out


def config_from_args(args) -> RunConfig:
    kv: dict = {}
    if getattr(args, "config", None):
        kv.update(load_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ArgumentError(f"--set expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        kv[key.strip()] = val.strip()

    constants = dict(_DEFAULT_CONSTANTS)
    fields = {}
    for key, val in kv.items():
        if key in _DEFAULT_CONSTANTS:
            constants[key] = _number(key, val)
        elif key == "I" or key == "interval":
            fields["interval"] = _interval(val)
        elif key in _SCALAR_KEYS:
            fields[key] = _number(key, val, _SCALAR_KEYS[key])
        elif key in ("cache_path", "output"):
            fields[key] = val
        else:
            raise ArgumentError(f"unknown config key {key!r}")
    fields["constants"] = constants

    # flag overrides win over the file
    for name in _SCALAR_KEYS:
        val = getattr(args, name, None)
        if val is not None:
            fields[name] = val
    if getattr(args, "I", None) is not None:
        fields["interval"] = _interval(args.I)
    if getattr(args, "cache", None) is not None:
        fields["cache_path"] = args.cache
    if getattr(args, "output", None) is not None:
        fields["output"] = args.output
    return RunConfig(**fields)


def _number(key: str, val, cast=_real):
    """cast(val), or an ArgumentError naming the key."""
    try:
        return cast(val)
    except (TypeError, ValueError, OverflowError) as e:
        what = "an integer" if cast is _integer else "a finite number"
        raise ArgumentError(f"{key}: not {what}: {val!r}") from e


def _interval(val: str) -> tuple:
    """'c,d' text as two floats."""
    parts = val.split(",")
    if len(parts) != 2:
        raise ArgumentError(f"interval must be 'c,d', got {val!r}")
    return tuple(_number("interval", x) for x in parts)


# ---------------------------------------------------------------------------
# result records

@dataclass(frozen=True)
class ResultRecord:
    command: str
    params: dict
    values: dict
    invariant_flags: dict
    elapsed_ms: float | None
    version: str


def _json_value(obj):
    """The JSON form of a value json cannot write: a complex as
    {"__complex__": [re, im]}, a numpy scalar or array as its Python value.
    (np.float64 is a float, which json already writes by float.__repr__.)"""
    if isinstance(obj, complex):
        return {"__complex__": [obj.real, obj.imag]}
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def record_to_json(rec: ResultRecord) -> str:
    """The canonical JSON record: elapsed_ms nulled, keys sorted."""
    return json.dumps({**vars(rec), "elapsed_ms": None}, sort_keys=True,
                      indent=2, default=_json_value) + "\n"


# ---------------------------------------------------------------------------
# plot-data emission

def emit_csv(command: str, params: dict, header: list, rows) -> str:
    """Plot-ready CSV: `# key=value` comment lines for the command, the
    version and the params (sorted by key), the header, then the rows.
    Floats print as repr, None as an empty field."""
    lines = [f"# command={command}", f"# version={__version__}"]
    lines += [f"# {k}={params[k]}" for k in sorted(params)]
    lines.append(",".join(header))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(v) if isinstance(v, float) else str(v)


# ---------------------------------------------------------------------------
# prime cache

_CACHE_RE = re.compile(r"^primes_(\d+)\.fpl$")


def cache_dir(cfg: RunConfig) -> str:
    return (cfg.cache_path or os.environ.get("FPL_CACHE_DIR")
            or os.path.join(os.path.expanduser("~"), ".cache", "fracprimes"))


def find_cached_table(cfg: RunConfig, lo: int, need_hi: int):
    """The smallest readable cached sieve whose header covers [lo, need_hi),
    read only over the bitmap bytes that hold that range; or None.

    A cache file that fails to load, or whose header does not cover
    [lo, need_hi) whatever its name says, is skipped with a warning on stderr.
    """
    d = cache_dir(cfg)
    if not os.path.isdir(d):
        return None
    sizes = sorted(int(m.group(1)) for m in map(_CACHE_RE.match, os.listdir(d))
                   if m and int(m.group(1)) >= need_hi)
    for n in sizes:
        path = os.path.join(d, f"primes_{n}.fpl")
        try:
            return load_sieve(path, lo, need_hi)
        except (ArgumentError, OSError) as e:
            print(f"warning: skipping prime cache: {e}", file=sys.stderr)
    return None


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (params, values, invariant_flags) and,
# where the command has one, a zero-argument callable that builds its
# csv/text body; `main` builds the record

def _emit(rec: ResultRecord, args, cfg: RunConfig, body=None) -> None:
    """Print the body under --output csv when there is one, else the
    canonical JSON record; write the same text to --out atomically.
    The body is built only when it is printed."""
    text = (body() if body is not None and cfg.output == "csv"
            else record_to_json(rec))
    sys.stdout.write(text)
    if getattr(args, "out", None):
        atomic_write(args.out, text.encode("utf-8"))
    print(f"[{rec.command}] {rec.elapsed_ms:.1f} ms", file=sys.stderr)


def cmd_sieve(args, cfg: RunConfig):
    lo = args.lo if args.lo is not None else 2
    hi = args.hi if args.hi is not None else cfg.X + 1
    table = sieve_primes(lo, hi)
    ps = table.primes()
    return ({"lo": lo, "hi": hi},
            {"count": int(table.count()),
             "first": int(ps[0]) if len(ps) else None,
             "last": int(ps[-1]) if len(ps) else None}, {})


def cmd_cache(args, cfg: RunConfig):
    n = _number("build", args.build, _integer)
    if n < 3:
        raise ArgumentError(f"--build needs n >= 3, got {n}")
    path = os.path.join(cache_dir(cfg), f"primes_{n}.fpl")
    table = sieve_primes(2, n)
    save_sieve(table, path)
    return ({"build": n}, {"path": path, "count": int(table.count()),
                           "bytes": os.path.getsize(path)}, {})


def cmd_count(args, cfg: RunConfig):
    q = cfg.q if cfg.q is not None else 1
    a = cfg.a if cfg.a is not None else 0
    win = FracWindow(alpha=cfg.alpha, c=cfg.interval[0], d=cfg.interval[1])
    # without a cache, the library sieves the range it reads
    table = find_cached_table(cfg, 2, cfg.X + 1)
    n = count_pi_I(cfg.X, q, a, win, table=table)
    return {"q": q, "a": a}, {"count": n}, {"cache_hit": table is not None}


def cmd_expsum(args, cfg: RunConfig):
    Y = args.Y if args.Y is not None else 2 * cfg.X
    q = cfg.q if cfg.q is not None else 1
    a = cfg.a if cfg.a is not None else 0
    spec = ExpSumSpec(X=cfg.X, Y=Y, h=cfg.h, alpha=cfg.alpha, q=q, a=a)
    table = find_cached_table(cfg, cfg.X, Y)
    res = exp_sum_primes(spec, table=table)
    return ({"Y": Y, "q": q, "a": a},
            {"value": res.value, "abs": abs(res.value), "count": res.count,
             "trivial_ratio": abs(res.value) / max(res.count, 1)},
            {"in_scope": spec.in_scope(cfg.constants["C"]),
             "cache_hit": table is not None,
             "trivial_bound": abs(res.value) <= res.count + 1e-9})


def cmd_bv(args, cfg: RunConfig):
    if cfg.Q is None:
        raise ArgumentError("bv requires --Q")
    win = FracWindow(alpha=cfg.alpha, c=cfg.interval[0], d=cfg.interval[1])
    # without a cache, bv_discrepancy sieves, after its budget check
    table = find_cached_table(cfg, 2, cfg.X + 1)
    report = bv_discrepancy(cfg.X, cfg.Q, win, table=table, moduli=args.moduli)
    return ({"moduli": args.moduli},
            {"total": report.total, "pi_I": report.pi_I,
             "rows": [list(r) for r in report.per_q]},
            {"cache_hit": table is not None},
            lambda: emit_csv(
                "bv", {"X": cfg.X, "Q": cfg.Q, "alpha": cfg.alpha,
                       "I": f"{win.c},{win.d}", "moduli": args.moduli,
                       "threads": cfg.threads, "seed": cfg.seed},
                ["q", "worst_a", "deviation"],
                [*report.per_q, ("total", None, report.total)]))


def cmd_decompose_check(args, cfg: RunConfig):
    if args.show < 0:
        raise ArgumentError(f"need --show >= 0, got {args.show}")
    if args.n is not None:
        terms = heath_brown_terms(args.n, k=args.k)
        # at most show + 2 lines, so only their join waits for csv
        lines = [f"n={args.n} k={args.k} V={terms.V} "
                 f"terms={len(terms.terms)} omitted={terms.omitted_zero_weight}"]
        for t in terms.terms[:args.show]:
            lines.append(f"  sign={t.sign:+d} binom={t.binom} d={t.d} "
                         f"weight={t.weight:.6f}")
        if len(terms.terms) > args.show:
            lines.append(f"  ... ({len(terms.terms) - args.show} more)")
        lines.append(f"total={terms.total():.12f}")
        return ({"n": args.n, "k": args.k},
                {"total": terms.total(), "n_terms": len(terms.terms)}, {},
                lambda: "\n".join(lines) + "\n")
    resid = hb_residual_scan(args.nmax, k=args.k)
    worst = int(np.argmax(resid[2:]) + 2)
    return ({"nmax": args.nmax, "k": args.k},
            {"max_residual": float(resid[2:].max()), "argmax_n": worst,
             "checked": args.nmax - 1},
            {"exact_1e-9": bool(resid[2:].max() <= 1e-9)},
            lambda: emit_csv(
                "decompose-check", {"nmax": args.nmax, "k": args.k,
                                    "threads": cfg.threads, "seed": cfg.seed},
                ["n", "residual"],
                [(n, f"{resid[n]:.3e}") for n in range(2, args.nmax + 1)]))


def cmd_classify(args, cfg: RunConfig):
    if args.dyadic:
        for flag in ("X1", "Y1"):
            if getattr(args, flag) is None:
                raise ArgumentError(f"classify --dyadic needs --{flag}")
        ds = tuple(_number("dyadic", x) for x in args.dyadic.split(","))
        dt = DyadicTuple(D=ds, X1=args.X1, Y1=args.Y1, eps1=args.eps1)
        witnesses = classify_dyadic(dt)
        params = {"D": list(ds), "X1": args.X1, "Y1": args.Y1,
                  "eps1": args.eps1}
    else:
        if not args.t:
            raise ArgumentError("classify needs --t or --dyadic")
        t_vals = tuple(_number("t", x) for x in args.t.split(","))
        sigma = args.sigma if args.sigma is not None else 0.15
        witnesses = classify_exponents(t_vals, sigma)
        params = {"t": list(t_vals), "sigma": sigma}
    if not witnesses:
        raise InvariantViolation("classifier returned no admissible type")
    lead = witnesses[0]
    return (params,
            {"kind": lead.kind,
             "witness": lead.witness,
             "all_kinds": [w.kind for w in witnesses]}, {})


def cmd_kloosterman(args, cfg: RunConfig):
    q = cfg.q if cfg.q is not None else 5
    if args.table:
        rows = kloosterman_rows(q)
        margins = rows.margins()
        imag_max = float(np.max(np.abs(rows.fft.imag)))
        return ({"q": q, "table": True},
                {"min_margin": float(margins.min()),
                 "max_abs": float(np.abs(rows.fft.real).max()),  # unit rows permute K
                 "imag_residual": float(imag_max)},
                {"weil_ok": bool((margins >= -1e-9).all()),
                 "real_ok": bool(imag_max <= 1e-8)})
    kv = kloosterman(q, args.u, args.v)
    return ({"q": q, "u": args.u, "v": args.v},
            {"value": kv.value, "weil_bound": kv.weil_bound,
             "margin": kv.margin, "imag_residual": kv.imag_residual},
            {"weil_ok": kv.margin >= -1e-9,
             "real_ok": kv.imag_residual <= 1e-10})


def cmd_gauss(args, cfg: RunConfig):
    q = cfg.q if cfg.q is not None else 7
    table = character_group(q)
    idx = args.chi_index
    if not 0 <= idx < table.phi:
        raise ArgumentError(f"chi-index {idx} out of range [0, {table.phi})")
    val = gauss_sum(table, idx, args.s)
    prim = is_primitive(table, idx)
    return ({"q": q, "chi_index": idx, "s": args.s},
            {"value": val, "abs": abs(val), "sqrt_q": math.sqrt(q)},
            {"primitive": prim,
             "modulus_sqrt_q": bool(prim and args.s == 1
                                    and abs(abs(val) - math.sqrt(q)) <= 1e-9)})


def _oscint_phase(args, cfg: RunConfig):
    if args.phase == "gaussian":
        return gaussian_phase(200.0 if args.Y is None else args.Y,
                              1.5 if args.t0 is None else args.t0)
    kw = dict(h=cfg.h, X=cfg.X, alpha=cfg.alpha, u=args.u, m=args.m,
              s=args.s, q=3 if cfg.q is None else cfg.q)
    if args.phase == "first":
        return make_first_phase(n=args.n, **kw)
    return make_second_phase(sigma=1 if args.sigma is None else args.sigma, **kw)


def cmd_oscint(args, cfg: RunConfig):
    bump = make_bump(args.window_y, args.window_delta)
    w = window_from_bump(bump)
    phase = _oscint_phase(args, cfg)
    J = _interval(args.J) if args.J else (w.lo, w.hi)
    values, flags = {}, {}
    if args.method in ("quad", "both"):
        res = quad_osc(w, phase, J, tol=args.tol)
        values["quad"] = res.value
        values["quad_error_estimate"] = res.error_estimate
        values["quad_nodes"] = res.terms_used
    if args.method in ("expansion", "both"):
        try:
            res = stationary_expand(bump, phase, n_terms=args.n_terms, J=J)
        except StationaryPointError:
            if args.method == "expansion":
                raise
            flags["stationary_point_in_J"] = False   # quad values only
        else:
            values["expansion"] = res.value
            values["expansion_error_estimate"] = res.error_estimate
            values["expansion_terms"] = res.terms_used
    if args.method == "bound":
        try:
            stationary_point(phase, J)
        except StationaryPointError:
            pass   # none in J: |g'| > 0 there
        else:
            raise ArgumentError("phase has a stationary point in J; "
                                "the tail bound needs |g'| > 0")
        grid = np.linspace(J[0], J[1], 513)
        r = float(np.min(np.abs(phase.dg(grid, 1))))
        y_i = max(float(np.max(np.abs(phase.dg(grid, 2)))), 1.0)
        x_i = float(np.max(np.abs(w(grid))))
        values["bound"] = nonstationary_bound(
            X_I=max(x_i, 1e-300), V_I=bump.delta, Y_I=y_i, Q_I=1.0, R_I=r,
            A_I=cfg.constants["A_I"], J_len=J[1] - J[0])
    if args.method == "both" and "quad" in values and "expansion" in values:
        diff = abs(values["quad"] - values["expansion"])
        scale = max(abs(values["quad"]), 1e-300)
        values["rel_error"] = diff / scale
        flags["expansion_within_band"] = bool(
            diff <= 10 * values["expansion_error_estimate"]
            + 10 * values["quad_error_estimate"] + 1e-12)
    return ({"phase": args.phase, "method": args.method,
             "window_y": args.window_y, "window_delta": args.window_delta,
             "J": list(J), "n_terms": args.n_terms, "tol": args.tol,
             **{f"phase_{k}": v for k, v in phase.params.items()}},
            values, flags)


def cmd_level(args, cfg: RunConfig):
    val = level_of_distribution(cfg.alpha)
    return ({}, {"theta": val}, {"in_scope": 0 < cfg.alpha < 1 / 9},
            lambda: f"{val:g}\n")


def cmd_selftest(args, cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    checks: list[tuple[str, bool, str]] = []

    part = make_partition(1.05, 120)
    xs = np.exp(rng.uniform(0.0, math.log(part.theta ** 110), size=100))
    worst = max(abs(partition_sum(part, float(x)) - 1.0) for x in xs)
    checks.append(("partition-of-unity", worst <= 1e-12, f"max|sum-1|={worst:.3e}"))

    bad = 0.0
    for a in (0.05, 0.1, 0.3):
        c = alpha_constants(a)
        bad = max(bad, abs(c.xi - 1 / (1 - c.gamma)),
                  abs(c.omega - c.xi * (2 - c.gamma)))
    checks.append(("alpha-identities", bad <= 1e-15, f"max dev={bad:.3e}"))

    kv = kloosterman(3, 1, 1)
    checks.append(("kloosterman-3-1-1", abs(kv.value - (-1.0)) <= 1e-12,
                   f"S_3(1,1)={kv.value:.12f}"))
    margins = weil_margin_table(13)
    checks.append(("weil-13", bool((margins >= -1e-9).all()),
                   f"min margin={float(margins.min()):.3e}"))

    ok = True
    for _ in range(200):
        t = rng.dirichlet(np.ones(rng.integers(2, 6)))
        sigma = float(rng.uniform(0.1 + 1e-3, 0.5 - 1e-3))
        wits = classify_exponents(tuple(t), sigma)
        if not wits or (sigma > 1 / 6 and wits[0].kind == "III"):
            ok = False
    checks.append(("classifier", ok, "200 random tuples"))

    resid = hb_residual_scan(200)
    checks.append(("heath-brown-200", bool(resid[2:].max() <= 1e-9),
                   f"max residual={float(resid[2:].max()):.3e}"))

    tbl = character_group(7)
    prim_idx = next(i for i in range(1, tbl.phi) if is_primitive(tbl, i))
    tau = gauss_sum(tbl, prim_idx, 1)
    checks.append(("gauss-7", abs(abs(tau) - math.sqrt(7)) <= 1e-9,
                   f"|tau|={abs(tau):.12f}"))

    bump = make_bump(2.0, 0.2)
    w = window_from_bump(bump)
    ph = gaussian_phase(200.0, 1.5)
    quad = quad_osc(w, ph, (0.7, 2.3), tol=1e-11)
    expn = stationary_expand(bump, ph, n_terms=1, J=(0.7, 2.3))
    rel = abs(quad.value - expn.value) / abs(quad.value)
    checks.append(("stationary-phase", rel <= 1e-3, f"rel={rel:.3e}"))

    # identity spot check with a fixed s-range; the conservative truncation
    # gate is loosened (tol=10) because at X=500 the tail BOUND is weak even
    # though the measured agreement is ~1e-12
    chk = poisson_verify_first(q=5, u=1, m=2, n=3, chi_index=0, h=0,
                               alpha=0.5, X=500, window=bump, s_max=40,
                               tol=10.0)
    checks.append(("poisson-classical", chk.rel <= 1e-8, f"rel={chk.rel:.3e}"))

    n_fail = sum(not okflag for _, okflag, _ in checks)

    def report():
        return "".join(f"{'ok  ' if okflag else 'FAIL'} {name}: {detail}\n"
                       for name, okflag, detail in checks) + \
            f"{len(checks) - n_fail}/{len(checks)} checks passed\n"
    if n_fail:
        if cfg.output == "csv":
            sys.stdout.write(report())
        raise InvariantViolation(f"{n_fail} selftest checks failed")
    return ({}, {"passed": len(checks) - n_fail, "failed": n_fail},
            {name: okflag for name, okflag, _ in checks}, report)


# ---------------------------------------------------------------------------
# parser

def _common_options() -> argparse.ArgumentParser:
    """The options every subcommand takes, as a parent parser."""
    sp = argparse.ArgumentParser(add_help=False)
    sp.add_argument("--config", help="flat key=value config file")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a config key (repeatable)")
    for name, cast in _SCALAR_KEYS.items():
        sp.add_argument(f"--{name}", type=cast)
    sp.add_argument("--I", help="fractional-part interval 'c,d'")
    sp.add_argument("--cache", help="prime cache directory")
    sp.add_argument("--output", choices=("csv", "json"))
    sp.add_argument("--out", help="also write the artifact to this file")
    return sp


@functools.cache  # parsing leaves a parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fracprimes",
        description="Numerical experiments on fractional parts of p^alpha: "
                    "sieves, decompositions, character sums, oscillatory "
                    "integrals, and equidistribution statistics.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, parents=[_common_options()])

    sp = add_parser("sieve", help="count primes in a range")
    sp.add_argument("--lo", type=_integer)
    sp.add_argument("--hi", type=_integer)
    sp.set_defaults(func=cmd_sieve)

    sp = add_parser("cache", help="build and store a prime cache")
    sp.add_argument("--build", required=True, metavar="N",
                    help="sieve [2, N) and store it (accepts 1e6 notation)")
    sp.set_defaults(func=cmd_cache)

    sp = add_parser("count", help="count primes with frac(p^alpha) in I")
    sp.set_defaults(func=cmd_count)

    sp = add_parser("expsum", help="exponential sum over primes")
    sp.add_argument("--Y", type=_integer, help="upper end (default 2X)")
    sp.set_defaults(func=cmd_expsum)

    sp = add_parser("bv", help="discrepancy across moduli q <= Q")
    sp.add_argument("--moduli", choices=("prime", "all"), default="prime")
    sp.set_defaults(func=cmd_bv)

    sp = add_parser("decompose-check", help="von Mangoldt decomposition residuals")
    sp.add_argument("--nmax", type=_integer, default=3000)
    sp.add_argument("--k", type=_integer, default=5)
    sp.add_argument("--n", type=_integer, help="show the terms for a single n")
    sp.add_argument("--show", type=_integer, default=20)
    sp.set_defaults(func=cmd_decompose_check)

    sp = add_parser("classify", help="Type I/II/III classification")
    sp.add_argument("--t", help="normalized exponents 't1,t2,...'")
    sp.add_argument("--sigma", type=_real)
    sp.add_argument("--dyadic", help="ten block sizes 'D1,...,D10'")
    sp.add_argument("--X1", type=_real)
    sp.add_argument("--Y1", type=_real)
    sp.add_argument("--eps1", type=_real, default=0.01)
    sp.set_defaults(func=cmd_classify)

    sp = add_parser("kloosterman", help="Kloosterman sums and Weil margins")
    sp.add_argument("--u", type=_integer, default=1)
    sp.add_argument("--v", type=_integer, default=1)
    sp.add_argument("--table", action="store_true",
                    help="full (u, v) table summary for the modulus")
    sp.set_defaults(func=cmd_kloosterman)

    sp = add_parser("gauss", help="character Gauss sums")
    sp.add_argument("--chi-index", type=_integer, default=1)
    sp.add_argument("--s", type=_integer, default=1)
    sp.set_defaults(func=cmd_gauss)

    sp = add_parser("oscint", help="oscillatory integral evaluations")
    sp.add_argument("--phase", choices=("first", "second", "gaussian"),
                    default="gaussian")
    sp.add_argument("--method", choices=("quad", "bound", "expansion", "both"),
                    default="both")
    sp.add_argument("--Y", type=_real, help="gaussian curvature scale")
    sp.add_argument("--t0", type=_real, help="gaussian center")
    sp.add_argument("--u", type=_integer, default=1)
    sp.add_argument("--m", type=_integer, default=1)
    sp.add_argument("--n", type=_integer, default=1)
    sp.add_argument("--s", type=_integer, default=1)
    sp.add_argument("--sigma", type=_integer)
    sp.add_argument("--window-y", type=_real, default=2.0)
    sp.add_argument("--window-delta", type=_real, default=0.2)
    sp.add_argument("--J", help="integration range 'a,b' (default support)")
    sp.add_argument("--n-terms", type=_integer, default=1)
    sp.add_argument("--tol", type=_real, default=1e-9)
    sp.set_defaults(func=cmd_oscint)

    sp = add_parser("level", help="level of distribution for alpha")
    sp.set_defaults(func=cmd_level)

    sp = add_parser("selftest", help="fast end-to-end sanity checks")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        t0 = time.perf_counter()
        params, values, flags, *body = args.func(args, cfg)
        rec = ResultRecord(
            command=args.command, params={**cfg.echo(), **params},
            values=values, invariant_flags=flags,
            elapsed_ms=1e3 * (time.perf_counter() - t0), version=__version__)
        _emit(rec, args, cfg, *body)
        return 0
    except ArgumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 3
    except (ResourceLimitError, AccuracyError) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
