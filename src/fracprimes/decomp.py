"""Combinatorial decomposition of Lambda(n) and range classification.

`heath_brown_terms` expands Lambda(n) = sum over j <= k of
(-1)^(j-1) C(k,j) sum_{d_1...d_{2j} = n, d_{j+1..2j} <= V} log(d_1) *
mu(d_{j+1}) ... mu(d_{2j}), valid whenever n <= V^k.  `hb_residual_scan`
checks the identity over a whole initial segment using Dirichlet-convolution
arrays instead of per-n tuple enumeration.

`classify_exponents` and `classify_dyadic` decide which of the three range
shapes (a single large factor, a balanced bilinear split, or three medium
factors) a factorization pattern supports, and return canonical witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .arith import divisors, factor, mobius, mobius_range, tau_k, von_mangoldt_range
from .errors import ArgumentError, ResourceLimitError

SLACK = 1e-12


class HBTerm(NamedTuple):
    sign: int          # (-1)^(j-1)
    binom: int         # C(k, j)
    d: tuple           # (d_1, ..., d_{2j})
    weight: float      # log(d_1) * prod mu(d_{j+1}..d_{2j})


@dataclass(frozen=True)
class HBTermList:
    n: int
    k: int
    V: int
    terms: tuple
    omitted_zero_weight: int = 0

    def total(self) -> float:
        return float(sum(t.sign * t.binom * t.weight for t in self.terms))


def _capped_tuples(n, slots, cap, divs_cache):
    """Ordered tuples (d_1..d_slots) with product n; entries <= cap if cap."""
    if slots == 0:
        if n == 1:
            yield ()
        return
    if n not in divs_cache:
        divs_cache[n] = divisors(n)
    for d in divs_cache[n]:
        if cap is not None and d > cap:
            break
        yield from ((d,) + rest for rest in _capped_tuples(n // d, slots - 1, cap, divs_cache))


def _term_budget_estimate(n: int, k: int) -> int:
    """Upper bound on the tuple census: sum_j C(k,j) tau_{2j}(n)."""
    return sum(math.comb(k, j) * tau_k(n, 2 * j) for j in range(1, k + 1))


def heath_brown_terms(n: int, k: int = 5, V: int | None = None,
                      budget: int = 2_000_000) -> HBTermList:
    """Full signed term list of the k-fold identity for Lambda(n).

    Tuples whose weight is identically zero (d_1 = 1, or a squareful entry
    in a mu-slot) are counted but not materialized.  Raises when n > V^k
    (the identity is only asserted there) or when the census estimate
    exceeds the term budget.
    """
    if n < 1:
        raise ArgumentError(f"need n >= 1, got {n}")
    if not 1 <= k <= 6:
        raise ArgumentError(f"need 1 <= k <= 6, got k={k}")
    if V is None:
        V = math.ceil(n ** (1 / k)) + 1
    if V < 1:
        raise ArgumentError(f"need V >= 1, got V={V}")
    if n > V ** k:
        raise ArgumentError(f"identity not asserted for n={n} > V^k={V ** k}")
    est = _term_budget_estimate(n, k)
    if est > budget:
        raise ResourceLimitError(
            f"term census estimate {est} exceeds budget {budget} for n={n}",
            estimate=est, budget=budget)

    divs_cache: dict = {}
    terms = []
    omitted = 0
    for j in range(1, k + 1):
        sign = 1 if j % 2 == 1 else -1
        binom = math.comb(k, j)
        # split product n = a * b over the free block (j slots) and the
        # truncated block (j slots, entries <= V)
        for b in divisors(n):
            free_part = n // b
            for capped in _capped_tuples(b, j, V, divs_cache):
                mu_prod = 1
                for d in capped:
                    m = mobius(d)
                    if m == 0:
                        mu_prod = 0
                        break
                    mu_prod *= m
                if mu_prod == 0:
                    # every completion of the free block is a zero term
                    omitted += tau_k(free_part, j)
                    continue
                for free in _capped_tuples(free_part, j, None, divs_cache):
                    if free[0] == 1:
                        omitted += 1
                        continue
                    weight = math.log(free[0]) * mu_prod
                    terms.append(HBTerm(sign=sign, binom=binom, d=free + capped,
                                        weight=weight))
    return HBTermList(n=n, k=k, V=V, terms=tuple(terms), omitted_zero_weight=omitted)


def _dirichlet_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[n] = sum_{d | n} a[d] * b[n/d] on index range [0, N]; index 0 unused."""
    n = len(a) - 1
    c = np.zeros(n + 1, dtype=np.float64)
    for i in range(1, n + 1):
        ai = a[i]
        if ai != 0.0:
            k = n // i
            c[i::i] += ai * b[1 : k + 1]
    return c


def hb_signed_total_range(nmax: int, k: int = 5) -> np.ndarray:
    """total[n] for 2 <= n <= nmax with the per-n choice V = ceil(n^{1/k}) + 1.

    Groups n by the (few) distinct V values and evaluates each group with
    array convolutions:  total = sum_j (-1)^(j-1) C(k,j) (L_j * M_j^{*j})(n),
    where L_j(m) = log(m) tau_j(m) / j collects the free block and M_j is
    the mu-weighted indicator of [1, V].
    """
    if nmax < 2:
        raise ArgumentError(f"need nmax >= 2, got {nmax}")
    mu = mobius_range(nmax).astype(np.float64)
    ns = np.arange(nmax + 1, dtype=np.float64)
    logs = np.zeros(nmax + 1)
    logs[1:] = np.log(ns[1:])

    # tau_j arrays by repeated convolution with the all-ones sequence
    ones = np.ones(nmax + 1)
    ones[0] = 0.0
    tau_arr = {1: ones.copy()}
    for j in range(2, k + 1):
        tau_arr[j] = _dirichlet_convolve(tau_arr[j - 1], ones)

    out = np.zeros(nmax + 1)
    all_n = np.arange(2, nmax + 1)
    v_of_n = np.ceil(all_n ** (1.0 / k)).astype(np.int64) + 1
    for v in np.unique(v_of_n):
        sel = all_n[v_of_n == v]
        mu_v = mu.copy()
        mu_v[int(v) + 1 :] = 0.0
        total = np.zeros(nmax + 1)
        conv = None
        for j in range(1, k + 1):
            conv = mu_v if conv is None else _dirichlet_convolve(conv, mu_v)
            lj = logs * tau_arr[j] / j
            sj = _dirichlet_convolve(lj, conv)
            total += (1 if j % 2 == 1 else -1) * math.comb(k, j) * sj
        out[sel] = total[sel]
    return out


def hb_residual_scan(nmax: int, k: int = 5) -> np.ndarray:
    """|signed total - Lambda(n)| for n in [2, nmax] (index-aligned array)."""
    total = hb_signed_total_range(nmax, k)
    lam = von_mangoldt_range(nmax)
    res = np.abs(total - lam)
    res[:2] = 0.0
    return res


# ---------------------------------------------------------------------------
# range-shape classification

@dataclass(frozen=True)
class TypeWitness:
    kind: str        # "I", "II", or "III"
    witness: tuple   # I: (i,) ; II: (S, T) as index tuples ; III: (i, j, k)

    def __post_init__(self):
        if self.kind not in ("I", "II", "III"):
            raise ArgumentError(f"unknown kind {self.kind!r}")


def _subsets_lex(indices):
    """Nonempty proper subsets of `indices`, lexicographically by tuple."""
    subs = []
    for r in range(1, len(indices)):
        subs.extend(combinations(indices, r))
    return sorted(subs)


def classify_exponents(t, sigma: float, slack: float = SLACK) -> list[TypeWitness]:
    """All applicable range shapes for an exponent tuple summing to 1.

    Shape I:  some t_i >= 1/2 + sigma.
    Shape II: a partition (S, T) with 1/2 - sigma < sum_S <= sum_T < 1/2 + sigma.
    Shape III: three distinct indices with 2 sigma <= values <= 1/2 - sigma and
               all pairwise sums >= 1/2 + sigma.
    Indices in witnesses are 1-based.  Boundary comparisons carry `slack`.
    """
    t = [float(v) for v in t]
    if any(v < -slack for v in t):
        raise ArgumentError("exponents must be nonnegative")
    if abs(sum(t) - 1.0) > 1e-9:
        raise ArgumentError(f"exponents must sum to 1, got {sum(t)}")
    if not (0.1 < sigma < 0.5):
        raise ArgumentError(f"need sigma in (1/10, 1/2), got {sigma}")

    n = len(t)
    out: list[TypeWitness] = []

    for i in range(n):
        if t[i] >= 0.5 + sigma - slack:
            out.append(TypeWitness(kind="I", witness=(i + 1,)))
            break

    full = tuple(range(1, n + 1))
    for S in _subsets_lex(full):
        sS = sum(t[i - 1] for i in S)
        sT = 1.0 - sS
        if sS > 0.5 - sigma - slack and sS <= sT + slack and sT < 0.5 + sigma + slack:
            T = tuple(i for i in full if i not in S)
            out.append(TypeWitness(kind="II", witness=(S, T)))
            break

    best = None
    for tri in combinations(range(n), 3):
        vals = sorted((t[i], i + 1) for i in tri)
        v1, v2, v3 = (v for v, _ in vals)
        if v1 >= 2 * sigma - slack and v3 <= 0.5 - sigma + slack and \
           v1 + v2 >= 0.5 + sigma - slack:
            cand = tuple(i for _, i in vals)
            if best is None or cand < best:
                best = cand
    if best is not None:
        out.append(TypeWitness(kind="III", witness=best))
    return out


def verify_witness(t, sigma: float, w: TypeWitness, slack: float = SLACK) -> bool:
    """Independent re-check of a witness against the defining inequalities."""
    t = [float(v) for v in t]
    if w.kind == "I":
        (i,) = w.witness
        return t[i - 1] >= 0.5 + sigma - slack
    if w.kind == "II":
        S, T = w.witness
        if sorted(S + T) != list(range(1, len(t) + 1)) or set(S) & set(T):
            return False
        sS = sum(t[i - 1] for i in S)
        sT = sum(t[i - 1] for i in T)
        return (sS > 0.5 - sigma - slack and sS <= sT + slack
                and sT < 0.5 + sigma + slack)
    if w.kind == "III":
        i, j, k = w.witness
        vals = sorted(t[x - 1] for x in (i, j, k))
        return (len({i, j, k}) == 3
                and vals[0] >= 2 * sigma - slack
                and vals[2] <= 0.5 - sigma + slack
                and vals[0] + vals[1] >= 0.5 + sigma - slack)
    return False


@dataclass(frozen=True)
class DyadicTuple:
    """Ten dyadic block sizes with their admissible product window."""

    D: tuple
    X1: float
    Y1: float
    eps1: float

    def __post_init__(self):
        if len(self.D) != 10:
            raise ArgumentError(f"need 10 block sizes, got {len(self.D)}")
        if any(d <= 0 for d in self.D):
            raise ArgumentError("block sizes must be positive")
        if not (0 < self.eps1 < 0.2):
            raise ArgumentError(f"need eps1 in (0, 0.2), got {self.eps1}")
        if not (1 < self.X1 <= self.Y1):
            raise ArgumentError("need 1 < X1 <= Y1")

    def log_exponents(self):
        """log_{X1} D_i for each block."""
        lx = math.log(self.X1)
        return [math.log(d) / lx for d in self.D]

    def validate(self, slack: float = SLACK):
        le = self.log_exponents()
        total = sum(le)
        hi = math.log(self.Y1) / math.log(self.X1)
        if not (1.0 - slack <= total <= hi + slack):
            raise ArgumentError(
                f"product of blocks (X1^{total:.6f}) outside [X1, Y1=X1^{hi:.6f}]")


def classify_dyadic(dt: DyadicTuple, slack: float = SLACK) -> list[TypeWitness]:
    """Range shapes for a dyadic block tuple, thresholds in the exponent scale.

    With e_i = log_{X1} D_i:  shape I needs e_i >= 3/5 + eps1 for some
    i <= 5; shape II needs a subset S of all ten blocks with
    2/5 - eps1 < sum_S e < 3/5 + eps1; shape III needs three distinct
    blocks among the first five with 1/5 + 2 eps1 <= e <= 2/5 - eps1 and
    pairwise sums >= 3/5 + eps1.  Witness indices are 1-based.
    """
    dt.validate(slack=slack)
    e = dt.log_exponents()
    eps1 = dt.eps1
    # comparisons happen in the exponent domain; scale the slack accordingly
    s = slack * (1.0 + abs(math.log(dt.X1)))

    out: list[TypeWitness] = []

    for i in range(5):
        if e[i] >= 0.6 + eps1 - s:
            out.append(TypeWitness(kind="I", witness=(i + 1,)))
            break

    full = tuple(range(1, 11))
    fallback = None
    for S in _subsets_lex(full):
        sS = sum(e[i - 1] for i in S)
        if 0.4 - eps1 + s < sS < 0.6 + eps1 - s:
            sT = sum(e) - sS
            if sS <= sT + s:
                T = tuple(i for i in full if i not in S)
                out.append(TypeWitness(kind="II", witness=(S, T)))
                break
            if fallback is None:
                fallback = TypeWitness(
                    kind="II",
                    witness=(S, tuple(i for i in full if i not in S)))
    else:
        if fallback is not None:
            out.append(fallback)

    best = None
    for tri in combinations(range(5), 3):
        vals = sorted((e[i], i + 1) for i in tri)
        v1, v2, v3 = (v for v, _ in vals)
        if v1 >= 0.2 + 2 * eps1 - s and v3 <= 0.4 - eps1 + s and \
           v1 + v2 >= 0.6 + eps1 - s:
            cand = tuple(i for _, i in vals)
            if best is None or cand < best:
                best = cand
    if best is not None:
        out.append(TypeWitness(kind="III", witness=best))
    return out


def verify_dyadic_witness(dt: DyadicTuple, w: TypeWitness,
                          slack: float = SLACK) -> bool:
    """Inequality-only re-check of a dyadic classification witness."""
    e = dt.log_exponents()
    eps1 = dt.eps1
    s = slack * (1.0 + abs(math.log(dt.X1)))
    if w.kind == "I":
        (i,) = w.witness
        return 1 <= i <= 5 and e[i - 1] >= 0.6 + eps1 - s
    if w.kind == "II":
        S, T = w.witness
        if sorted(S + T) != list(range(1, 11)) or set(S) & set(T):
            return False
        sS = sum(e[i - 1] for i in S)
        return 0.4 - eps1 - s < sS < 0.6 + eps1 + s
    if w.kind == "III":
        idx = w.witness
        if len(set(idx)) != 3 or not all(1 <= i <= 5 for i in idx):
            return False
        vals = sorted(e[i - 1] for i in idx)
        return (vals[0] >= 0.2 + 2 * eps1 - s
                and vals[2] <= 0.4 - eps1 + s
                and vals[0] + vals[1] >= 0.6 + eps1 - s)
    return False
