"""Combinatorial decomposition of Lambda(n) and range classification.

`heath_brown_terms` expands Lambda(n) = sum over j <= k of
(-1)^(j-1) C(k,j) sum_{d_1...d_{2j} = n, d_{j+1..2j} <= V} log(d_1) *
mu(d_{j+1}) ... mu(d_{2j}), valid whenever n <= V^k.  `hb_residual_scan`
checks the identity over a whole initial segment using Dirichlet-convolution
arrays instead of per-n tuple enumeration, looping over the sparse mu-blocks.
`_tau_chain` builds tau_1..tau_k for it.

`classify_exponents` and `classify_dyadic` decide which of the three range
shapes (a single large factor, a balanced bilinear split, or three medium
factors) a factorization pattern supports, and return canonical witnesses.
Both run one search, `_shapes`: the dyadic thresholds 3/5 + eps1,
2/5 - eps1 and 1/5 + 2 eps1 of Heath-Brown's identity are the exponent
thresholds 1/2 + sigma, 1/2 - sigma and 2 sigma at sigma = 1/10 + eps1.
`verify_witness` and `verify_dyadic_witness` re-check witnesses against the
same inequalities through `_verify`, independently of the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .arith import divisors, mobius, mobius_range, primes_upto, tau_k, von_mangoldt_range
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


def _capped_tuples(m, slots, cap, divs, memo) -> list:
    """Ordered tuples (d_1..d_slots) with product m, entries <= cap if cap, in
    lexicographic order; m divides n, whose sorted divisors are divs.  Each
    (m, slots, cap) is enumerated once, into memo."""
    if slots == 0:
        return [()] if m == 1 else []
    if (m, slots, cap) not in memo:
        memo[m, slots, cap] = [
            (d,) + rest for d in divs if m % d == 0 and (cap is None or d <= cap)
            for rest in _capped_tuples(m // d, slots - 1, cap, divs, memo)]
    return memo[m, slots, cap]


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

    divs = divisors(n)
    mu = {d: mobius(d) for d in divs if d <= V}
    memo: dict = {}
    terms = []
    omitted = 0
    for j in range(1, k + 1):
        sign = 1 if j % 2 == 1 else -1
        binom = math.comb(k, j)
        # split product n = a * b over the free block (j slots) and the
        # truncated block (j slots, entries <= V)
        for b in divs:
            for capped in _capped_tuples(b, j, V, divs, memo):
                free = _capped_tuples(n // b, j, None, divs, memo)
                mu_prod = math.prod(mu[d] for d in capped)
                if mu_prod == 0:
                    # every completion of the free block is a zero term
                    omitted += len(free)
                    continue
                # lexicographic: the tuples with d_1 = 1 (zero weight) lead
                ones = len(_capped_tuples(n // b, j - 1, None, divs, memo))
                omitted += ones
                terms.extend(HBTerm(sign, binom, f + capped, math.log(f[0]) * mu_prod)
                             for f in free[ones:])
    return HBTermList(n=n, k=k, V=V, terms=tuple(terms), omitted_zero_weight=omitted)


def _dirichlet_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[n] = sum_{d | n} a[d] * b[n/d] on [0, N], index 0 unused, looping over
    the sparser side (b's in descending j, so c[n] still sums in ascending d)."""
    n = len(a) - 1
    c = np.zeros(n + 1, dtype=np.float64)
    sa = np.flatnonzero(a[1:]) + 1
    sb = np.flatnonzero(b[1:]) + 1
    if len(sb) < len(sa):
        a, b, sa = b, a, sb[::-1]
    for i in sa.tolist():
        c[i::i] += a[i] * b[1 : n // i + 1]
    return c


def _tau_chain(k: int, nmax: int) -> np.ndarray:
    """Rows tau_1..tau_k on [0, nmax], index 0 zero, by a multiplicative sieve:
    each multiple of p^e gains tau_j(p^e) / tau_j(p^(e-1)) = (e + j - 1) / e.
    float64 is exact below 2^53 and rounds, never wraps, above."""
    tau = np.ones((k, 1)) * (np.arange(nmax + 1) > 0)
    for p in primes_upto(nmax).tolist():
        pe, e = p, 1
        while pe <= nmax:  # the product is a multiple of e, so / is exact
            tau[:, pe::pe] = tau[:, pe::pe] * np.arange(e, e + k)[:, None] / e
            pe, e = pe * p, e + 1
    return tau


def hb_signed_total_range(nmax: int, k: int = 5) -> np.ndarray:
    """total[n] for 2 <= n <= nmax with the per-n choice V = ceil(n^{1/k}) + 1.

    Groups n by the (few) distinct V values and evaluates each group with
    array convolutions:  total = sum_j (-1)^(j-1) C(k,j) (L_j * M_j^{*j})(n),
    where L_j(m) = log(m) tau_j(m) / j collects the free block and M_j is
    the mu-weighted indicator of [1, V].
    """
    if nmax < 2:
        raise ArgumentError(f"need nmax >= 2, got {nmax}")
    if k < 1:
        raise ArgumentError(f"need k >= 1, got k={k}")
    mu = mobius_range(nmax).astype(np.float64)
    logs = np.zeros(nmax + 1)
    logs[1:] = np.log(np.arange(1, nmax + 1, dtype=np.float64))
    taus = _tau_chain(k, nmax)

    out = np.zeros(nmax + 1)
    all_n = np.arange(2, nmax + 1)
    v_of_n = np.ceil(all_n ** (1.0 / k)).astype(np.int64) + 1
    for v in np.unique(v_of_n):
        sel = all_n[v_of_n == v]
        mu_v = mu.copy()
        mu_v[int(v) + 1 :] = 0.0
        total = np.zeros(nmax + 1)
        conv = None
        for j, tau_j in enumerate(taus, 1):
            conv = mu_v if conv is None else _dirichlet_convolve(conv, mu_v)
            lj = logs * tau_j / j
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


def _shapes(e, total, hi, lo, lo3, s, first) -> list[TypeWitness]:
    """The range shapes of exponents e summing to `total`, one witness each.

    I:   the first i < first with e_i >= hi;
    II:  the first subset S in lexicographic order with lo < sum_S < hi and
         sum_S <= total - sum_S (T, the rest, is the other side);
    III: the least value-ordered triple among the first `first` indices with
         every value in [lo3, lo] and the two smaller ones summing to >= hi.
    Every comparison carries the slack s.  Witness indices are 1-based.
    """
    out: list[TypeWitness] = []

    for i in range(first):
        if e[i] >= hi - s:
            out.append(TypeWitness(kind="I", witness=(i + 1,)))
            break

    full = tuple(range(1, len(e) + 1))
    for S in _subsets_lex(full):
        sS = sum(e[i - 1] for i in S)
        if lo - s < sS < hi + s and sS <= total - sS + s:
            T = tuple(i for i in full if i not in S)
            out.append(TypeWitness(kind="II", witness=(S, T)))
            break

    best = None
    for tri in combinations(range(first), 3):
        vals = sorted((e[i], i + 1) for i in tri)
        v1, v2, v3 = (v for v, _ in vals)
        if v1 >= lo3 - s and v3 <= lo + s and v1 + v2 >= hi - s:
            cand = tuple(i for _, i in vals)
            if best is None or cand < best:
                best = cand
    if best is not None:
        out.append(TypeWitness(kind="III", witness=best))
    return out


def classify_exponents(t, sigma: float) -> list[TypeWitness]:
    """All applicable range shapes for an exponent tuple summing to 1.

    Shape I:  some t_i >= 1/2 + sigma.
    Shape II: a partition (S, T) with 1/2 - sigma < sum_S <= sum_T < 1/2 + sigma.
    Shape III: three distinct indices with 2 sigma <= values <= 1/2 - sigma and
               all pairwise sums >= 1/2 + sigma.
    Indices in witnesses are 1-based.  Boundary comparisons carry SLACK.
    """
    t = [float(v) for v in t]
    if any(v < -SLACK for v in t):
        raise ArgumentError("exponents must be nonnegative")
    if abs(sum(t) - 1.0) > 1e-9:
        raise ArgumentError(f"exponents must sum to 1, got {sum(t)}")
    if not (0.1 < sigma < 0.5):
        raise ArgumentError(f"need sigma in (1/10, 1/2), got {sigma}")
    return _shapes(t, 1.0, 0.5 + sigma, 0.5 - sigma, 2 * sigma, SLACK, len(t))


def _verify(e, total, hi, lo, lo3, s, first, w: TypeWitness) -> bool:
    """Re-check witness w against the inequalities `_shapes` searches, with
    the same thresholds, without running the search."""
    if w.kind == "I":
        (i,) = w.witness
        return 1 <= i <= first and e[i - 1] >= hi - s
    if w.kind == "II":
        S, T = w.witness
        if sorted(S + T) != list(range(1, len(e) + 1)):
            return False
        sS = sum(e[i - 1] for i in S)
        return lo - s < sS < hi + s and sS <= total - sS + s
    idx = w.witness
    if len(idx) != 3 or len(set(idx)) != 3 or \
       not all(1 <= i <= first for i in idx):
        return False
    v1, v2, v3 = sorted(e[i - 1] for i in idx)
    return v1 >= lo3 - s and v3 <= lo + s and v1 + v2 >= hi - s


def verify_witness(t, sigma: float, w: TypeWitness) -> bool:
    """Independent re-check of a witness against the defining inequalities."""
    t = [float(v) for v in t]
    return _verify(t, sum(t), 0.5 + sigma, 0.5 - sigma, 2 * sigma, SLACK,
                   len(t), w)


@dataclass(frozen=True)
class DyadicTuple:
    """Ten dyadic block sizes whose product lies in [X1, Y1]."""

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
        total = sum(self.log_exponents())
        hi = math.log(self.Y1) / math.log(self.X1)
        if not (1.0 - SLACK <= total <= hi + SLACK):
            raise ArgumentError(
                f"product of blocks (X1^{total:.6f}) outside [X1, Y1=X1^{hi:.6f}]")

    def log_exponents(self):
        """log_{X1} D_i for each block."""
        lx = math.log(self.X1)
        return [math.log(d) / lx for d in self.D]


def classify_dyadic(dt: DyadicTuple) -> list[TypeWitness]:
    """Range shapes for a dyadic block tuple, thresholds in the exponent scale.

    The shapes of `classify_exponents` at sigma = 1/10 + eps1, on
    e_i = log_{X1} D_i: shape I needs e_i >= 3/5 + eps1 for some i <= 5;
    shape II needs a subset S of all ten blocks with 2/5 - eps1 < sum_S e <
    3/5 + eps1 and sum_S e <= sum_T e; shape III needs three distinct blocks
    among the first five with 1/5 + 2 eps1 <= e <= 2/5 - eps1 and pairwise
    sums >= 3/5 + eps1.  Witness indices are 1-based.
    """
    e = dt.log_exponents()
    eps1 = dt.eps1
    # comparisons happen in the exponent domain; scale the SLACK accordingly
    s = SLACK * (1.0 + abs(math.log(dt.X1)))
    return _shapes(e, sum(e), 0.6 + eps1, 0.4 - eps1, 0.2 + 2 * eps1, s, 5)


def verify_dyadic_witness(dt: DyadicTuple, w: TypeWitness) -> bool:
    """Inequality-only re-check of a dyadic classification witness."""
    e = dt.log_exponents()
    return _verify(e, sum(e), 0.6 + dt.eps1, 0.4 - dt.eps1, 0.2 + 2 * dt.eps1,
                   SLACK * (1.0 + abs(math.log(dt.X1))), 5, w)
