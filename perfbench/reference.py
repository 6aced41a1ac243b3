"""Reference values that the benchmark computes apart from fracprimes.

Nothing here imports the program.  Each function computes what one program
output must equal (or bound) by a different route: a plain Eratosthenes
sieve, the preimage form of the window condition, integer square roots,
trial division and direct Kloosterman sums.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# pi(x) at three known points; the reference sieve is checked against them.
KNOWN_PI = {10**6: 78498, 10**7: 664579, 2 * 10**7: 1270607}

# fracprimes reduces phases h n^alpha above this magnitude in 50-digit
# arithmetic and below it in float64
HIGHPREC = 2.0**12

_MP = mpmath.MPContext()
_MP.dps = 40


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n by a plain (unsegmented) sieve over the odd numbers.

    Raises RuntimeError when the sieve misses any known value of pi(x) that
    lies in range.
    """
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    ps = np.flatnonzero(flags).astype(np.int64)
    for x, want in KNOWN_PI.items():
        if x <= n and int(np.searchsorted(ps, x, side="right")) != want:
            raise RuntimeError(f"reference sieve: pi({x}) != {want}")
    return ps


def window_mask(ps: np.ndarray, alpha: float, c: float, d: float) -> np.ndarray:
    """frac(p^alpha) in [c, d), by the preimage method.

    frac(p^alpha) lies in [c, d) exactly when p lies in
    [(k+c)^(1/alpha), (k+d)^(1/alpha)) for some integer k >= 0.  The
    boundaries are sorted, so p is inside when an odd number of them is
    <= p.  Primes within a relative 1e-9 of a boundary, where float64
    boundaries could misplace them, are decided in 40-digit arithmetic.
    """
    x = ps.astype(np.float64)
    ks = np.arange(int(x[-1] ** alpha) + 2, dtype=np.float64)
    bounds = np.empty(2 * len(ks))
    bounds[0::2] = (ks + c) ** (1.0 / alpha)
    bounds[1::2] = (ks + d) ** (1.0 / alpha)
    pos = np.searchsorted(bounds, x, side="right")
    inside = pos % 2 == 1
    below = bounds[np.maximum(pos - 1, 0)]
    above = bounds[np.minimum(pos, len(bounds) - 1)]
    near = np.minimum(np.abs(x - below), np.abs(above - x)) <= 1e-9 * x
    for i in np.flatnonzero(near):
        f = _MP.frac(_MP.power(int(ps[i]), alpha))
        inside[i] = c <= f < d
    return inside


def discrepancy_rows(pe: np.ndarray, moduli) -> list[tuple[int, int, float]]:
    """(q, worst a, max over units a of |#{p = a (q)} - pi_I/phi(q)|)."""
    pi_I = len(pe)
    rows = []
    for q in moduli:
        counts = np.bincount(pe % q, minlength=q).astype(np.float64)
        units = np.gcd(np.arange(q), q) == 1
        dev = np.where(units, np.abs(counts - pi_I / int(units.sum())), -1.0)
        a = int(np.argmax(dev))
        rows.append((int(q), a, float(dev[a])))
    return rows


def sqrt_phase_sum(ps: np.ndarray) -> complex:
    """sum of e(sqrt(p)) with frac(sqrt p) = (p - r^2)/(sqrt p + r), r = isqrt p."""
    r = np.floor(np.sqrt(ps.astype(np.float64))).astype(np.int64)
    r -= r * r > ps
    r += (r + 1) * (r + 1) <= ps
    frac = (ps - r * r) / (np.sqrt(ps.astype(np.float64)) + r)
    return complex(np.sum(np.exp(2j * np.pi * frac)))


def log_phase(ns: np.ndarray, alpha: float) -> np.ndarray:
    """frac(n^alpha) as frac(exp(alpha log n)); for phases far below 2^12."""
    return np.mod(np.exp(alpha * np.log(ns.astype(np.float64))), 1.0)


def float_phase_tolerance(weight: float, phase_max: float) -> float:
    """Worst-case error of a float64 sum of terms w e(phase), sum |w| = weight.

    Each phase below phase_max carries at most a few ulps, 2^-50 relative,
    so each e(.) is off by at most 2 pi phase_max 2^-50.
    """
    return 2 * math.pi * weight * max(phase_max, 1.0) * 2.0**-50


def von_mangoldt(n: int) -> float:
    """Lambda(n) by trial division."""
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return math.log(p) if n == 1 else 0.0
    return math.log(n) if n > 1 else 0.0


def von_mangoldt_upto(n: int, ps: np.ndarray) -> np.ndarray:
    """Lambda[m] for 0 <= m <= n, from the primes <= n and their powers."""
    lam = np.zeros(n + 1)
    pk, k = ps[ps <= n], 1
    while len(pk):
        lam[pk] = np.log(ps[: len(pk)].astype(np.float64))
        k += 1
        ok = ps[: len(pk)].astype(np.float64) ** k <= n
        pk = ps[: int(ok.sum())] ** k
    return lam


def bump(x: np.ndarray, y: float, delta: float) -> np.ndarray:
    """The C-infinity window: 1 on [1, y], 0 off [1 - delta, y + delta],
    smoothstep S(t) = f(t)/(f(t) + f(1-t)), f(t) = exp(-1/t), between."""

    def f(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / np.maximum(t[pos], 1e-300))
        return out

    def step(t):
        a, b = f(t), f(1.0 - t)
        s = a / np.where(a + b == 0.0, 1.0, a + b)
        return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, s))

    rise = step((x - (1.0 - delta)) / delta)
    fall = step((y + delta - x) / delta)
    return np.where(x < 1.0, rise, np.where(x > y, fall, 1.0))


def kloosterman_margin(q: int, u: int, v: int) -> float:
    """tau(q) sqrt(q) gcd(u, v, q)^(1/2) - |S_q(u, v)| for prime q, with
    S_q(u, v) summed term by term over the units l."""
    s = math.fsum(math.cos(2 * math.pi * ((u * l + v * pow(l, -1, q)) % q) / q)
                  for l in range(1, q))
    g = math.gcd(math.gcd(u, v), q)
    return 2 * math.sqrt(q) * math.sqrt(g) - abs(s)
