"""C-infinity cutoff windows and a dyadic partition of unity.

The bump is exactly 1 on [1, y], exactly 0 outside [1-delta, y+delta], with
transitions built from the standard smoothstep

    S(t) = f(t) / (f(t) + f(1-t)),   f(t) = exp(-1/t) (t > 0), 0 otherwise,

so every derivative vanishes at the plateau/support boundaries.  The dyadic
partition uses a master window Psi (== 1 on [-1, 1], supported on
[-theta, theta]) and members Psi_D(x) = Psi(x/D) - Psi(theta*x/D) on the
geometric grid D = theta^l; the members telescope to 1 for every x >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError


def soft_exp(t):
    """exp(-1/t) for t > 0, identically 0 for t <= 0 (scalar or array)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    # cap the exponent to dodge spurious overflow warnings for tiny t
    out[pos] = np.exp(-1.0 / np.maximum(t[pos], 1e-300))
    return out


def _step(t, a, b):
    """S(t) from a = f(t), b = f(1-t)."""
    denom = np.where(a + b == 0.0, 1.0, a + b)
    return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, a / denom))


def smoothstep(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    return _step(t, soft_exp(t), soft_exp(1.0 - t))


def smoothstep_pair(t):
    """(S(t), S'(t)) from one pair f(t), f(1-t): S is `smoothstep`, and
    S'(t) = f(t) f(1-t) (t^-2 + (1-t)^-2) / (f(t) + f(1-t))^2, from
    f'(t) = f(t) / t^2; 0 where f(t) or f(1-t) is 0 (or underflows)."""
    t = np.asarray(t, dtype=float)
    a, b = soft_exp(t), soft_exp(1.0 - t)
    u = np.where(a * b > 0.0, t, 0.5)   # no 1/0 where the product is 0
    return _step(t, a, b), a * b * (u ** -2 + (1.0 - u) ** -2) / (a + b) ** 2


@dataclass(frozen=True)
class BumpWindow:
    """Smooth cutoff: 1 on [1, y], 0 outside [1-delta, y+delta]."""

    y: float
    delta: float

    def __post_init__(self):
        if not self.y > 1:
            raise ArgumentError(f"need y > 1, got y={self.y}")
        if not (0 < self.delta < 0.25):
            raise ArgumentError(f"need delta in (0, 1/4), got {self.delta}")
        if not self.delta < (self.y - 1) / 2:
            raise ArgumentError(
                f"need delta < (y-1)/2 = {(self.y - 1) / 2}, got {self.delta}")

    @property
    def support(self):
        return (1.0 - self.delta, self.y + self.delta)


def make_bump(y: float, delta: float) -> BumpWindow:
    return BumpWindow(y=float(y), delta=float(delta))


def eval_bump(w: BumpWindow, x):
    """psi(x); scalar in -> float out, array in -> array out.  The
    smoothstep runs on the two edges only; NaN reads 1."""
    arr = np.asarray(x, dtype=float)
    out = np.ones_like(arr)
    rise, fall = arr < 1.0, arr > w.y
    out[rise] = smoothstep((arr[rise] - (1.0 - w.delta)) / w.delta)
    out[fall] = smoothstep((w.y + w.delta - arr[fall]) / w.delta)
    if np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class DyadicPartition:
    """Partition of unity on the geometric grid {theta^l : l = 0..max_power}."""

    theta: float
    max_power: int

    def __post_init__(self):
        if not self.theta > 1:
            raise ArgumentError(f"need theta > 1, got {self.theta}")
        if self.max_power < 1:
            raise ArgumentError(f"need max_power >= 1, got {self.max_power}")

    def index_of(self, D: float) -> int:
        """Grid index l with theta^l == D to 1e-9 relative, else ArgumentError."""
        if D <= 0:
            raise ArgumentError(f"grid values are positive, got {D}")
        l = round(math.log(D) / math.log(self.theta))
        if 0 <= l <= self.max_power and abs(self.theta ** l - D) <= 1e-9 * D:
            return l
        raise ArgumentError(f"{D} is not on the grid theta^l, theta={self.theta}")


def make_partition(theta: float, max_power: int) -> DyadicPartition:
    return DyadicPartition(theta=float(theta), max_power=int(max_power))


def master_window(theta: float, x):
    """Psi: 1 on [-1, 1], smooth decay to 0 on theta >= |x| > 1; the
    smoothstep runs off [-1, 1] only, and NaN reads 0."""
    arr = np.abs(np.asarray(x, dtype=float))
    out = np.ones_like(arr)
    decay = ~(arr <= 1.0)
    out[decay] = smoothstep((theta - arr[decay]) / (theta - 1.0))
    if np.ndim(x) == 0:
        return float(out)
    return out


def eval_member(p: DyadicPartition, D: float, x):
    """Psi_D(x) = Psi(x/D) - Psi(theta*x/D), supported on [D/theta, D*theta]."""
    p.index_of(D)  # validates D is on the grid
    arr = np.asarray(x, dtype=float)
    out = master_window(p.theta, arr / D) - master_window(p.theta, p.theta * arr / D)
    if np.ndim(x) == 0:
        return float(out)
    return out


def partition_sum(p: DyadicPartition, x: float) -> float:
    """Sum of the active members at x (direct summation, no telescoping).

    The members Psi(x/D) - Psi(theta*x/D) of the <= 5 grid values D near x
    come from one vectorized `master_window` call.
    """
    if x < 0:
        raise ArgumentError(f"need x >= 0, got {x}")
    if x <= 0:
        return 0.0
    l_star = math.log(x) / math.log(p.theta)
    lo = max(0, math.floor(l_star) - 2)
    hi = min(p.max_power, math.ceil(l_star) + 2)
    Ds = np.array([p.theta ** l for l in range(lo, hi + 1)])
    psi = master_window(p.theta, np.concatenate((x / Ds, p.theta * x / Ds)))
    total = 0.0  # left-to-right adds; sum() compensates on Python >= 3.12
    for member in (psi[: len(Ds)] - psi[len(Ds):]).tolist():
        total += member
    return total


# ---------------------------------------------------------------------------
# Taylor jets: truncated power series, coefficient lists c_0..c_n of
# f(x + h) = sum c_k h^k + O(h^{n+1})

JET_ORDER = 6


def series_mul(a, b):
    """Truncated product of two series of equal length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def series_div(a, b):
    """Truncated quotient a / b of two series of equal length, b[0] != 0."""
    q = []
    for k in range(len(a)):
        q.append((a[k] - sum(q[i] * b[k - i] for i in range(k))) / b[0])
    return q


def series_exp(a):
    """Truncated exp(a), real or complex, from (exp a)' = a' exp a:
    k e_k = sum_{j=1..k} j a_j e_{k-j}."""
    e = [np.exp(a[0])]
    for k in range(1, len(a)):
        e.append(sum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k)
    return e


def _soft_exp_series(t: float):
    """soft_exp(t + h) to order JET_ORDER in h, from
    -1/(t + h) = sum r^{k+1} h^k with r = -1/t."""
    # zero where t <= 0 or exp(-1/t) underflows; the latter also keeps
    # r^{k+1} from overflowing into inf * 0
    if t <= 0.0 or math.exp(-1.0 / t) == 0.0:
        return [0.0] * (JET_ORDER + 1)
    r = -1.0 / t
    return series_exp([r ** (k + 1) for k in range(JET_ORDER + 1)])


def bump_jet(w: BumpWindow, x: float) -> list:
    """Taylor coefficients c_0..c_6 of psi at x, so psi^(k)(x) = k! c_k.

    On an edge, psi = S(u) with u = (x - (1 - delta)) / delta rising or
    u = (y + delta - x) / delta falling, S = f(u) / (f(u) + f(1 - u)) and
    f = exp(-1/t); S's series in u picks up the chain factor (+-1/delta)^k.
    Elsewhere psi is locally constant.  c_0 is eval_bump(w, x).
    """
    jet = [eval_bump(w, x)] + [0.0] * JET_ORDER
    lo, hi = w.support
    if lo < x < 1.0:
        u, chain = (x - lo) / w.delta, 1.0 / w.delta
    elif w.y < x < hi:
        u, chain = (hi - x) / w.delta, -1.0 / w.delta
    else:
        return jet
    fu = _soft_exp_series(u)
    # f(1 - u - h) is f(s + h') at s = 1 - u, h' = -h: flip the odd terms
    fs = [c * (-1) ** k for k, c in enumerate(_soft_exp_series(1.0 - u))]
    S = series_div(fu, [a + b for a, b in zip(fu, fs)])
    jet[1:] = [float(S[k]) * chain ** k for k in range(1, JET_ORDER + 1)]
    return jet
