"""Exponential sums over primes, discrepancy statistics, and the
second-derivative bound for monomial phases.

Phase arguments h*n^alpha are reduced mod 1 in float64 up to 2**12 (error
~ value * 2^-52) and above that by `_anchored_frac`: exact 50-digit anchors
and a float64 expansion around them, within the bound its docstring states
(below 1e-11).  `monomial_frac` is the one place that picks the tier, for
the sums here and for `oscillatory`'s second Poisson identity alike.  The
anchors call `mpmath.libmp` as the mpf operators do, at the 50 digits of a
private context (`_MP50`), never of the global `mpmath.mp`, so they are
thread-safe.  Every float64 mod 1 is w - floor(w) (`frac_part`).

The prime sums (`exp_sum_primes`, `weighted_sum_W`) and `phase_sum`
accumulate through `block_sum`, which reduces fixed 2**16-element blocks in
index order, so results are byte-identical for a fixed input.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import mpmath
import numpy as np
from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_frac, mpf_mul, mpf_pow, to_float

from .arith import primes_upto, sieve_primes, von_mangoldt_range
from .errors import AccuracyError, ArgumentError
from .smoothing import BumpWindow, eval_bump

REDUCTION_THRESHOLD = 2.0**12
BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# phase argument reduction

# a private 50-digit context: unlike `mpmath.workdps`, it never switches the
# process-global `mpmath.mp`, so threads can share it
_MP50 = mpmath.MPContext()
_MP50.dps = 50


def frac_part(w: np.ndarray) -> np.ndarray:
    """w mod 1 as a new float64 array: `np.mod(w, 1.0)` bit for bit (each
    rounds w - floor(w) once) at a tenth of its time."""
    return np.subtract(w, f := np.floor(w), out=f)


def reduced_phase(h, n, alpha: float) -> float:
    """frac(h * n^alpha) in [0, 1): `reduced_phase_array` on one element.

    Touches no process-global mpmath state; safe to call from threads.
    """
    return float(_reduce_monomial(h, np.array([int(n)]), alpha)[0])


def _anchored_frac(c, ns: np.ndarray, e, shift=0.0) -> np.ndarray:
    """frac(c (n + shift)^e) for an integer array n in any order, c and e
    floats or mpmath values.  With f(x) = c x^e, n' = n + shift, n takes the
    centre n0 of its aligned span of D integers, D the largest power of two
    with D <= 4096, D <= n'/64 and M = |f''(n')| D^2/8 <= 2^10.  For k = n -
    n0, x = k/n0' (|x| <= 1/127), P = f(n0'): f(n') = P + (P e/n0') k +
    P sum_{t>=2} binom(e, t) x^t, so one 50-digit power per anchor gives
    frac(P) and frac(P e/n0') (error |P| 10^-49).  The series stops at its
    first term t >= e below 2^-53 (remainder < 2^-60 for e > -1); float64
    rounding adds about ((T + 4) M + D) 2^-52 over T ~ 12 terms: < 7.3e-12.
    """
    ns, ef = np.asarray(ns, dtype=np.int64), float(e)
    nf = ns + float(shift)
    with np.errstate(divide="ignore"):
        cap = np.minimum(np.minimum(nf / 64, 4096.0), np.sqrt(2.0**13 / np.abs(
            float(c) * ef * (ef - 1) * np.power(nf, ef - 2))))
    span = np.ldexp(1.0, np.frexp(np.maximum(cap, 1.0))[1] - 1).astype(np.int64)
    n0 = ns // span * span + span // 2
    anchors, inv = np.unique(n0, return_inverse=True)
    cm, em, sh = (_MP50.mpf(v)._mpf_ for v in (c, e, shift))
    prec, at = _MP50.prec, np.empty((len(anchors), 3))
    for j, a in enumerate(anchors.tolist()):
        x = mpf_add(sh, from_int(a), prec, "n")
        p = mpf_mul(cm, mpf_pow(x, em, prec, "n"), prec, "n")
        p1 = mpf_div(mpf_mul(p, em, prec, "n"), x, prec, "n")
        at[j] = (to_float(mpf_frac(p, prec, "n"), rnd="n"),
                 to_float(mpf_frac(p1, prec, "n"), rnd="n"), to_float(p, rnd="n"))
    p0, p1, amp = at[inv].T
    k = ns - n0
    x = k / (nf - k)
    term = tail = amp * x * x * (ef * (ef - 1) / 2)
    for t in range(2, 64):
        if t >= ef and np.max(np.abs(term)) <= 2.0**-53:
            break
        term = term * x * ((ef - t) / (t + 1))
        tail = tail + term
    return frac_part(p0 + (p1 * k + tail))


def monomial_frac(w: np.ndarray, c, ns: np.ndarray, e, shift=0.0) -> np.ndarray:
    """frac(c (n + shift)^e) for an integer array n, given its float64 phases
    w: w mod 1 where |w| <= REDUCTION_THRESHOLD, `_anchored_frac` above.  c
    and e may be 50-digit mpmath values; the anchors then use them exactly."""
    out = frac_part(w)
    big = np.abs(w) > REDUCTION_THRESHOLD
    if np.any(big):
        out[big] = _anchored_frac(c, ns[big], e, shift)
    return out


def _reduce_monomial(h, ns: np.ndarray, alpha: float, shift=0.0) -> np.ndarray:
    """frac(h (n + shift)^alpha) for an integer array n, on both tiers."""
    ns = np.asarray(ns)
    w = ns + float(shift) if shift else ns.astype(np.float64)  # n + 0.0 is n
    return monomial_frac(np.multiply(h, np.power(w, alpha, out=w), out=w),
                         h, ns, alpha, shift)


def reduced_phase_array(h, ns: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized reduced phases; oversized entries take `_anchored_frac`.

    Touches no process-global mpmath state; safe to call from threads.
    """
    return _reduce_monomial(h, ns, alpha)


def unit_phases(h, ns: np.ndarray, alpha: float) -> np.ndarray:
    """e(h n^alpha) for an integer array n."""
    return np.exp(2j * np.pi * reduced_phase_array(h, ns, alpha))


def block_sum(values: np.ndarray) -> complex:
    """Deterministic reduction: fixed blocks, partials combined in order."""
    n = len(values)
    if n == 0:
        return 0j
    partials = [np.sum(values[i : i + BLOCK]) for i in range(0, n, BLOCK)]
    total = partials[0]
    for p in partials[1:]:
        total = total + p
    return complex(total)


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class ExpSumSpec:
    """Parameters of the prime sum T = sum_{X <= p < Y, p = a (q)} e(h p^alpha).

    h is any integer here (h = 0 switches the oscillation off, h < 0 is the
    conjugate sum); the asymptotic scope of interest is 1 <= h <= (log X)^C,
    checked by `in_scope`.
    """

    X: int
    Y: int
    h: int
    alpha: float
    q: int = 1
    a: int = 0

    def __post_init__(self):
        if not (3 <= self.X < self.Y <= 2 * self.X):
            raise ArgumentError(f"need 3 <= X < Y <= 2X, got X={self.X} Y={self.Y}")
        if not (0.0 < self.alpha < 1.0):
            raise ArgumentError(f"need alpha in (0,1), got {self.alpha}")
        if self.q < 1:
            raise ArgumentError(f"need q >= 1, got {self.q}")
        if not 0 <= self.a < self.q:
            raise ArgumentError(f"need a in [0, q), got a={self.a} q={self.q}")
        if self.q > 1 and math.gcd(self.a, self.q) != 1:
            raise ArgumentError(f"need gcd(a, q) = 1, got a={self.a} q={self.q}")

    def in_scope(self, C: float = 5.0) -> bool:
        return (1 <= self.h <= math.log(self.X) ** C) and (0 < self.alpha < 1 / 9)


@dataclass(frozen=True)
class FracWindow:
    """Membership test: frac(n^alpha) in [c, d)."""

    alpha: float
    c: float
    d: float

    def __post_init__(self):
        if not (0.0 <= self.c < self.d <= 1.0):
            raise ArgumentError(f"need 0 <= c < d <= 1, got c={self.c} d={self.d}")
        if not (0.0 < self.alpha < 1.0):
            raise ArgumentError(f"need alpha in (0,1), got {self.alpha}")

    def mask(self, ns: np.ndarray) -> np.ndarray:
        f = reduced_phase_array(1, ns, self.alpha)
        return (f >= self.c) & (f < self.d)

    @property
    def length(self) -> float:
        return self.d - self.c


@dataclass(frozen=True)
class MonomialPhase:
    """f(x) = coeff * (x + shift)^exponent on [lo, hi]."""

    coeff: float
    shift: float
    exponent: float
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ArgumentError(f"need lo <= hi, got [{self.lo}, {self.hi}]")
        if self.shift < 0:
            raise ArgumentError(f"need shift >= 0, got {self.shift}")
        if self.lo + self.shift <= 0 and self.exponent not in (0.0, 1.0) \
                and float(self.exponent) != int(self.exponent):
            raise ArgumentError("fractional exponent needs x + shift > 0 on the range")

    def f(self, x):
        return self.coeff * np.power(np.asarray(x, dtype=float) + self.shift,
                                     self.exponent)

    def d2(self, x):
        e = self.exponent
        return self.coeff * e * (e - 1.0) * np.power(
            np.asarray(x, dtype=float) + self.shift, e - 2.0)

    @property
    def degenerate(self) -> bool:
        return self.coeff == 0.0 or self.exponent in (0.0, 1.0)


@dataclass(frozen=True)
class DiscrepancyReport:
    per_q: tuple       # ((q, worst_a, deviation), ...)
    total: float
    pi_I: int


class SumResult(NamedTuple):
    value: complex
    count: int


class WeightedSumResult(NamedTuple):
    value: complex      # smoothed: psi(n/X)-weighted
    sharp: complex      # indicator of [X, Y)
    count: int          # nonzero smoothed terms


# ---------------------------------------------------------------------------
# prime sums

def _primes_for_range(lo: int, hi: int, table=None) -> np.ndarray:
    if table is not None and table.lo <= lo and table.hi >= hi:
        ps = table.primes()
        return ps[np.searchsorted(ps, lo):np.searchsorted(ps, hi)]
    return sieve_primes(lo, hi).primes()


def exp_sum_primes(spec: ExpSumSpec, table=None) -> SumResult:
    """T = sum over primes X <= p < Y with p = a (q) of e(h p^alpha)."""
    ps = _primes_for_range(spec.X, spec.Y, table)
    if spec.q > 1:
        ps = ps[ps % spec.q == spec.a]
    if len(ps) == 0:
        return SumResult(value=0j, count=0)
    vals = unit_phases(spec.h, ps, spec.alpha)
    return SumResult(value=block_sum(vals), count=int(len(ps)))


def weighted_sum_W(spec: ExpSumSpec, window: BumpWindow) -> WeightedSumResult:
    """Lambda-weighted smoothed sum sum_n psi(n/X) Lambda(n) e(h n^alpha)
    over n = a (q), next to its sharp-cutoff counterpart for the same data.

    The window plateau must be [1, Y/X] so the smooth sum dominates the
    sharp one exactly on the transition bands.  Lambda is built on the
    window's support [lo, hi] alone, and only its prime powers are summed.
    """
    y_expected = spec.Y / spec.X
    if abs(window.y - y_expected) > 1e-9:
        raise ArgumentError(
            f"window plateau [1, {window.y}] does not match Y/X = {y_expected}")
    lo = max(2, math.ceil((1.0 - window.delta) * spec.X))
    hi = math.floor((window.y + window.delta) * spec.X)
    lam = von_mangoldt_range(hi, lo)
    ns = np.flatnonzero(lam != 0.0) + lo     # the prime powers (bools scan 3x faster)
    if spec.q > 1:
        ns = ns[ns % spec.q == spec.a]
    lamv = lam[ns - lo]
    if len(ns) == 0:
        return WeightedSumResult(value=0j, sharp=0j, count=0)
    phases = unit_phases(spec.h, ns, spec.alpha)
    smooth_w = eval_bump(window, ns / spec.X)
    value = block_sum(lamv * smooth_w * phases)
    sharp_mask = (ns >= spec.X) & (ns < spec.Y)
    sharp = block_sum((lamv * phases)[sharp_mask])
    return WeightedSumResult(value=value, sharp=sharp,
                             count=int(np.count_nonzero(smooth_w * lamv)))


def count_pi_I(X: int, q: int, a: int, win: FracWindow, table=None) -> int:
    """#{p <= X : frac(p^alpha) in [c, d), p = a (q)}."""
    if q < 1:
        raise ArgumentError(f"need q >= 1, got {q}")
    if q == 1:
        if a != 0:
            raise ArgumentError("q = 1 requires a = 0")
    elif not 0 <= a < q:
        raise ArgumentError(f"need a in [0, q), got {a}")
    ps = _primes_for_range(2, X + 1, table)
    if q > 1:
        ps = ps[ps % q == a]
    if len(ps) == 0:
        return 0
    return int(np.count_nonzero(win.mask(ps)))


def _residue_histograms(ps: np.ndarray, qs) -> dict:
    """{q: bincount(ps % q, minlength=q)}.  q folds from 2q if 2q is in qs; the
    rest fill groups of lcm L <= 2^17 greedily, largest q first, and sum L/q
    rows of a bincount of p - (p // L) L."""
    ps = ps.astype(np.int32) if len(ps) and ps.max() < 2 ** 31 else ps
    qs = sorted(qs, reverse=True)
    buf = np.empty(sum(qs), dtype=np.intp)  # one block, so no heap fragments
    hist = {q: buf[end - q : end] for q, end in zip(qs, np.cumsum(qs).tolist())}
    groups: list = []
    for q in (q for q in qs if 2 * q not in hist):
        g = next((g for g in groups if math.lcm(*g, q) <= 2 ** 17), None)
        if g is None:
            groups.append(g := [])
        g.append(q)
    for g in groups:
        L = math.lcm(*g)
        # numpy's // by a scalar uses libdivide, and its % does not
        c = np.bincount(ps - ps // L * L, minlength=L)  # 1 MB at L = 2^17
        for q in g:
            np.sum(c.reshape(L // q, q), axis=0, out=hist[q])
        del c  # before the next count
    for q in qs:
        if 2 * q in hist:
            np.add(hist[2 * q][:q], hist[2 * q][q:], out=hist[q])
    return hist


def bv_discrepancy(X: int, Q: int, win: FracWindow, table=None,
                   moduli: str = "all") -> DiscrepancyReport:
    """sum over moduli q <= Q of max_{(a,q)=1} |pi_I(X;q,a) - pi_I(X)/phi(q)|.

    One sieve pass; a histogram mod q folds from the one mod 2q or from a
    bincount mod the lcm of q's group.  moduli "all" is [2, Q], "prime" primes.
    """
    if not 2 < Q < X:
        raise ArgumentError(f"need 2 < Q < X, got Q={Q} X={X}")
    if moduli not in ("all", "prime"):
        raise ArgumentError(f"moduli must be 'all' or 'prime', got {moduli!r}")
    ps = _primes_for_range(2, X + 1, table)
    pe = ps[win.mask(ps)]
    pi_I = int(len(pe))
    qs = range(2, Q + 1) if moduli == "all" else [int(p) for p in primes_upto(Q)]
    hist = _residue_histograms(pe, qs)
    qs = sorted(hist)  # segment j of the concatenations holds a = 0..qs[j]-1
    dt = np.int32 if sum(qs) < 2 ** 31 else np.int64  # int32 halves the gcd
    q = np.array(qs, dtype=dt)
    start = np.cumsum(q, dtype=dt) - q
    a = np.arange(q.sum(), dtype=dt) - np.repeat(start, q)
    coprime = np.gcd(a, np.repeat(q, q)) == 1
    phi = np.add.reduceat(coprime, start, dtype=np.intp)
    dev = np.abs(np.concatenate([hist[m] for m in qs]) - np.repeat(pi_I / phi, q))
    dev[~coprime] = -1.0
    # each segment's first index at its maximum: the smallest worst a
    top = np.flatnonzero(dev == np.repeat(np.maximum.reduceat(dev, start), q))
    first = top[np.searchsorted(top, start)]
    rows = tuple(zip(qs, (first - start).tolist(), dev[first].tolist()))
    total = np.add.accumulate(dev[first])[-1]  # q by q in order, unlike np.sum
    return DiscrepancyReport(per_q=rows, total=float(total), pi_I=pi_I)


# ---------------------------------------------------------------------------
# van der Corput second-derivative test

class PhaseSumResult(NamedTuple):
    value: complex
    count: int
    degenerate: bool


def phase_sum(phase: MonomialPhase) -> PhaseSumResult:
    """sum of e(f(r)) over integers lo <= r <= hi, exactly."""
    r0 = math.ceil(phase.lo)
    r1 = math.floor(phase.hi)
    if r1 < r0:
        return PhaseSumResult(value=0j, count=0, degenerate=phase.degenerate)
    rs = np.arange(r0, r1 + 1, dtype=np.int64)
    if phase.coeff == 0.0:
        return PhaseSumResult(value=complex(len(rs)), count=len(rs), degenerate=True)
    frac = _reduce_monomial(phase.coeff, rs, phase.exponent, phase.shift)
    vals = np.exp(2j * np.pi * frac)
    return PhaseSumResult(value=block_sum(vals), count=len(rs),
                          degenerate=phase.degenerate)


def vdc_bound(phase: MonomialPhase, constant: float = 8.0) -> float:
    """Second-derivative bound c * ((b-a) L2max^{1/2} + L2min^{-1/2}) summed
    over subranges on which max|f''| / min|f''| <= 4.

    |f''| of a monomial phase is monotone, so each piece's extremes sit at
    its endpoints; pieces split at the geometric mean until the ratio
    condition holds, at most 64 of them.
    """
    if phase.degenerate:
        raise ArgumentError("no second-derivative bound for a degenerate phase")
    if phase.lo + phase.shift <= 0:
        raise ArgumentError("need lo + shift > 0")
    pieces = [(phase.lo, phase.hi)]
    done = []
    while pieces:
        if len(pieces) + len(done) > 64:
            raise AccuracyError(
                "|f''| ratio still above 4 after 64 pieces",
                value=None, error_estimate=None)
        a, b = pieces.pop()
        da, db = abs(float(phase.d2(a))), abs(float(phase.d2(b)))
        m1, m2 = min(da, db), max(da, db)
        if m1 <= 0.0:
            raise ArgumentError("second derivative vanishes on the range")
        if m2 / m1 <= 4.0:
            done.append((b - a, m1, m2))
        else:
            mid = math.sqrt((a + phase.shift) * (b + phase.shift)) - phase.shift
            pieces.append((a, mid))
            pieces.append((mid, b))
    total = 0.0
    for length, m1, m2 in done:
        total += constant * (length * math.sqrt(m2) + 1.0 / math.sqrt(m1))
    return total


# ---------------------------------------------------------------------------
# headline exponent

def level_of_distribution(alpha: float) -> float:
    """2/5 - 3 alpha / 5; the asymptotic modulus-range exponent."""
    if not 0 < alpha < 1 / 9:
        warnings.warn(f"alpha={alpha} outside the theorem scope (0, 1/9); "
                      "formula evaluated anyway", stacklevel=2)
    return 0.4 - 0.6 * alpha
