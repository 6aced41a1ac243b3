"""Exponential sums over primes, discrepancy statistics, and the
second-derivative bound for monomial phases.

Phase arguments h*n^alpha are reduced mod 1 in float64 while they stay below
2**12 (absolute reduction error ~ value * 2^-52, comfortably under 1e-10
there) and in 50-digit arithmetic above that, so e(.) never sees an argument
whose fractional part has been eaten by the integer part.  The extended
precision comes from private mpmath contexts (`mp_context`), never from
switching the process-global `mpmath.mp`, so the reductions are thread-safe.

All complex accumulations go through `block_sum`, which reduces fixed
2**16-element blocks in index order; thread pools only compute block
partials, so results are byte-identical across thread counts.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import mpmath
import numpy as np

from .arith import primes_upto, sieve_primes, von_mangoldt_range
from .errors import AccuracyError, ArgumentError, ResourceLimitError
from .smoothing import BumpWindow, eval_bump

REDUCTION_THRESHOLD = 2.0**12
BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# phase argument reduction

def mp_context(dps: int) -> mpmath.MPContext:
    """A private mpmath context working at `dps` decimal digits.

    `mpmath.workdps` would switch the precision of the process-global
    `mpmath.mp` for every thread at once.  A private context whose precision
    is set here and never changed again can be shared by any number of
    threads.
    """
    ctx = mpmath.MPContext()
    ctx.dps = dps
    return ctx


_MP50 = mp_context(50)


def reduced_phase(h, n, alpha: float) -> float:
    """frac(h * n^alpha) in [0, 1), switching precision on magnitude.

    Touches no process-global mpmath state; safe to call from threads.
    """
    w = h * float(n) ** alpha
    if abs(w) <= REDUCTION_THRESHOLD:
        return w % 1.0
    return float(_MP50.frac(h * _MP50.power(n, alpha)) % 1)


def _reduce_monomial(h, ns: np.ndarray, alpha: float, shift=0.0) -> np.ndarray:
    """frac(h (n + shift)^alpha) for an integer array n; only oversized
    entries pay for mpmath."""
    ns = np.asarray(ns)
    w = h * np.power(ns.astype(np.float64) + shift, alpha)
    out = np.mod(w, 1.0)
    big = np.abs(w) > REDUCTION_THRESHOLD
    if np.any(big):
        sh = _MP50.mpf(shift)
        for i in np.flatnonzero(big):
            val = h * _MP50.power(int(ns.flat[i]) + sh, alpha)
            out[i] = float(_MP50.frac(val) % 1)
    return out


def reduced_phase_array(h, ns: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized reduced phases; only oversized entries pay for mpmath.

    Touches no process-global mpmath state; safe to call from threads.
    """
    return _reduce_monomial(h, ns, alpha)


def unit_phases(h, ns: np.ndarray, alpha: float) -> np.ndarray:
    """e(h n^alpha) for an integer array n."""
    return np.exp(2j * np.pi * reduced_phase_array(h, ns, alpha))


def block_sum(values: np.ndarray, threads: int = 1) -> complex:
    """Deterministic reduction: fixed blocks, partials combined in order."""
    n = len(values)
    if n == 0:
        return 0j
    blocks = range(0, n, BLOCK)
    if threads <= 1:
        partials = [np.sum(values[i : i + BLOCK]) for i in blocks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            partials = list(ex.map(lambda i: np.sum(values[i : i + BLOCK]), blocks))
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

    def contains(self, n: int) -> bool:
        f = reduced_phase(1, n, self.alpha)
        return self.c <= f < self.d

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
    X: int
    Q: int
    alpha: float
    c: float
    d: float
    per_q: tuple       # ((q, worst_a, deviation), ...)
    total: float
    pi_I: int
    moduli: str = "all"


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
        return ps[(ps >= lo) & (ps < hi)]
    return sieve_primes(lo, hi).primes()


def exp_sum_primes(spec: ExpSumSpec, table=None, threads: int = 1) -> SumResult:
    """T = sum over primes X <= p < Y with p = a (q) of e(h p^alpha)."""
    ps = _primes_for_range(spec.X, spec.Y, table)
    if spec.q > 1:
        ps = ps[ps % spec.q == spec.a]
    if len(ps) == 0:
        return SumResult(value=0j, count=0)
    vals = unit_phases(spec.h, ps, spec.alpha)
    return SumResult(value=block_sum(vals, threads=threads), count=int(len(ps)))


def weighted_sum_W(spec: ExpSumSpec, window: BumpWindow, table=None,
                   threads: int = 1) -> WeightedSumResult:
    """Lambda-weighted smoothed sum sum_n psi(n/X) Lambda(n) e(h n^alpha)
    over n = a (q), next to its sharp-cutoff counterpart for the same data.

    The window plateau must be [1, Y/X] so the smooth sum dominates the
    sharp one exactly on the transition bands.
    """
    y_expected = spec.Y / spec.X
    if abs(window.y - y_expected) > 1e-9:
        raise ArgumentError(
            f"window plateau [1, {window.y}] does not match Y/X = {y_expected}")
    lo = max(2, math.ceil((1.0 - window.delta) * spec.X))
    hi = math.floor((window.y + window.delta) * spec.X)
    lam = von_mangoldt_range(hi)
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    if spec.q > 1:
        ns = ns[ns % spec.q == spec.a]
    lamv = lam[ns]
    nz = lamv != 0.0
    ns, lamv = ns[nz], lamv[nz]
    if len(ns) == 0:
        return WeightedSumResult(value=0j, sharp=0j, count=0)
    phases = unit_phases(spec.h, ns, spec.alpha)
    smooth_w = eval_bump(window, ns / spec.X)
    value = block_sum(lamv * smooth_w * phases, threads=threads)
    sharp_mask = (ns >= spec.X) & (ns < spec.Y)
    sharp = block_sum((lamv * phases)[sharp_mask], threads=threads)
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


def bv_discrepancy(X: int, Q: int, win: FracWindow, table=None,
                   moduli: str = "all") -> DiscrepancyReport:
    """sum over moduli q <= Q of max_{(a,q)=1} |pi_I(X;q,a) - pi_I(X)/phi(q)|.

    One sieve pass; per-q residue histograms by bincount.  moduli = "all"
    uses every q in [2, Q], "prime" restricts to prime q.
    """
    if not 2 < Q < X:
        raise ArgumentError(f"need 2 < Q < X, got Q={Q} X={X}")
    if moduli not in ("all", "prime"):
        raise ArgumentError(f"moduli must be 'all' or 'prime', got {moduli!r}")
    ps = _primes_for_range(2, X + 1, table)
    pe = ps[win.mask(ps)]
    pi_I = int(len(pe))
    qs = range(2, Q + 1) if moduli == "all" else [int(p) for p in primes_upto(Q)]
    rows = []
    total = 0.0
    for q in qs:
        counts = np.bincount(pe % q, minlength=q)
        coprime = np.gcd(np.arange(q), q) == 1
        dev = np.abs(counts - pi_I / np.count_nonzero(coprime))
        # argmax takes the smallest a attaining the maximum
        worst_a = int(np.argmax(np.where(coprime, dev, -1.0)))
        worst = float(dev[worst_a])
        rows.append((q, worst_a, worst))
        total += worst
    return DiscrepancyReport(X=X, Q=Q, alpha=win.alpha, c=win.c, d=win.d,
                             per_q=tuple(rows), total=total, pi_I=pi_I,
                             moduli=moduli)


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


def vdc_bound(phase: MonomialPhase, constant: float = 8.0,
              max_pieces: int = 64) -> float:
    """Second-derivative bound c * ((b-a) L2max^{1/2} + L2min^{-1/2}) summed
    over subranges on which max|f''| / min|f''| <= 4.

    |f''| of a monomial phase is monotone, so each piece's extremes sit at
    its endpoints; pieces split at the geometric mean until the ratio
    condition holds.
    """
    if phase.degenerate:
        raise ArgumentError("no second-derivative bound for a degenerate phase")
    if phase.lo + phase.shift <= 0:
        raise ArgumentError("need lo + shift > 0")
    pieces = [(phase.lo, phase.hi)]
    done = []
    while pieces:
        if len(pieces) + len(done) > max_pieces:
            raise AccuracyError(
                f"|f''| ratio still above 4 after {max_pieces} pieces",
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
# bilinear forms

@dataclass(frozen=True)
class BilinearResult:
    value: complex
    count: int
    cauchy_lhs: float     # |value|^2
    cauchy_rhs: float     # (sum |gamma|^2) * (sum_m |T_m|^2)
    diagonal: float       # n1 = n2 part of sum_m |T_m|^2
    offdiag: float


def _coeff_array(c, ks: np.ndarray) -> np.ndarray:
    if callable(c):
        return np.array([c(int(k)) for k in ks], dtype=np.complex128)
    arr = np.asarray(c, dtype=np.complex128)
    if arr.shape != ks.shape:
        raise ArgumentError("coefficient array length does not match range")
    return arr


def bilinear_sum(m_range, n_range, gamma, beta, q: int, a: int, h, alpha: float,
                 window: BumpWindow, X: int,
                 budget: int = 10**6) -> BilinearResult:
    """sum_{m, n} gamma(m) beta(n) psi(mn/X) e(h (mn)^alpha) over mn = a (q),
    with the Cauchy-split bookkeeping (diagonal = n1 = n2 terms).

    Ranges are half-open (lo, hi).  gamma/beta may be callables or arrays.
    """
    m_lo, m_hi = m_range
    n_lo, n_hi = n_range
    if m_lo >= m_hi or n_lo >= n_hi or m_lo < 1 or n_lo < 1:
        raise ArgumentError("ranges must be nonempty with lo >= 1")
    count = (m_hi - m_lo) * (n_hi - n_lo)
    if count > budget:
        raise ResourceLimitError(f"{count} terms exceed budget {budget}",
                                 estimate=count, budget=budget)
    ms = np.arange(m_lo, m_hi, dtype=np.int64)
    ns = np.arange(n_lo, n_hi, dtype=np.int64)
    g = _coeff_array(gamma, ms)
    b = _coeff_array(beta, ns)
    mn = ms[:, None] * ns[None, :]
    w = eval_bump(window, mn / X)
    if q > 1:
        w = w * (mn % q == a)
    phases = np.exp(2j * np.pi * reduced_phase_array(h, mn.ravel(), alpha)
                    ).reshape(mn.shape)
    inner = w * phases            # psi * e(...) with the congruence folded in
    t_m = inner @ b               # T_m = sum_n beta(n) psi e(...)
    value = complex(np.sum(g * t_m))
    sum_g2 = float(np.sum(np.abs(g) ** 2))
    sum_t2 = float(np.sum(np.abs(t_m) ** 2))
    diagonal = float(np.sum((np.abs(w) ** 2) @ (np.abs(b) ** 2)))
    return BilinearResult(value=value, count=int(count),
                          cauchy_lhs=abs(value) ** 2,
                          cauchy_rhs=sum_g2 * sum_t2,
                          diagonal=diagonal,
                          offdiag=sum_t2 - diagonal)


# ---------------------------------------------------------------------------
# headline exponent and divisor-moment helper

def level_of_distribution(alpha: float) -> float:
    """2/5 - 3 alpha / 5; the asymptotic modulus-range exponent."""
    if not 0 < alpha < 1 / 9:
        warnings.warn(f"alpha={alpha} outside the theorem scope (0, 1/9); "
                      "formula evaluated anyway", stacklevel=2)
    return 0.4 - 0.6 * alpha


def tau_moment_constant(k: int, xmax: int, xmin: int = 100) -> float:
    """Smallest c with sum_{n<=x} tau_k(n) <= c x (log x)^{k-1} on [xmin, xmax]."""
    if k < 2 or xmax < xmin + 1:
        raise ArgumentError("need k >= 2 and xmax > xmin")
    ones = np.ones(xmax + 1)
    ones[0] = 0.0
    arr = ones.copy()
    from .decomp import _dirichlet_convolve
    for _ in range(k - 1):
        arr = _dirichlet_convolve(arr, ones)
    csum = np.cumsum(arr)
    xs = np.arange(xmin, xmax + 1, dtype=np.float64)
    ratios = csum[xmin:] / (xs * np.log(xs) ** (k - 1))
    return float(np.max(ratios))
