"""Independent slow-but-obvious reference implementations.

Everything in here favors directness over speed: trial division, explicit
double loops, mpmath quadrature.  Test modules compare the library against
these; nothing in here imports from fracprimes except its error types.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np

from fracprimes.errors import (AccuracyError, ArgumentError, ResourceLimitError,
                               StationaryPointError)


# ---------------------------------------------------------------------------
# elementary arithmetic

def trial_division_primes(n: int) -> list[int]:
    out = []
    for m in range(2, n + 1):
        d = 2
        prime = True
        while d * d <= m:
            if m % d == 0:
                prime = False
                break
            d += 1
        if prime:
            out.append(m)
    return out


def trial_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius_direct(n: int) -> int:
    f = trial_factor(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def inv_mod(a: int, q: int) -> int:
    """Inverse of a modulo q by Python's pow; ValueError when gcd(a, q) != 1."""
    return pow(a % q, -1, q)


def phi_direct(q: int) -> int:
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


def von_mangoldt_direct(n: int) -> float:
    if n < 2:
        return 0.0
    f = trial_factor(n)
    if len(f) == 1:
        (p, _e), = f.items()
        return math.log(p)
    return 0.0


def tau_k_direct(n: int, k: int) -> int:
    """Number of ordered k-tuples with product n, by recursion on divisors."""
    if k == 1:
        return 1
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += tau_k_direct(n // d, k - 1)
    return total


# ---------------------------------------------------------------------------
# Heath-Brown identity, brute force

def ordered_tuples_with_product(m, slots, cap=None):
    """All ordered tuples (d_1..d_slots), product exactly m, entries <= cap."""
    if slots == 1:
        if cap is None or m <= cap:
            yield (m,)
        return
    for d in range(1, m + 1):
        if m % d == 0 and (cap is None or d <= cap):
            for rest in ordered_tuples_with_product(m // d, slots - 1, cap):
                yield (d,) + rest


def hb_terms_brute(n: int, k: int, V: int):
    """All (sign, binom, tuple, weight) with nonzero weight; no shortcuts.

    Term shape: (m_1..m_j) free with log(m_1) weight, (d_1..d_j) <= V with
    a Mobius factor each, m_1...m_j d_1...d_j = n.
    """
    terms = []
    for j in range(1, k + 1):
        sign = (-1) ** (j - 1)
        binom = math.comb(k, j)
        for m_left in range(1, n + 1):
            if n % m_left:
                continue
            rights = list(ordered_tuples_with_product(n // m_left, j, V))
            if not rights:
                continue
            for left in ordered_tuples_with_product(m_left, j):
                w_log = math.log(left[0])
                if w_log == 0.0:
                    continue
                for right in rights:
                    mu_prod = 1
                    for d in right:
                        mu = mobius_direct(d)
                        if mu == 0:
                            mu_prod = 0
                            break
                        mu_prod *= mu
                    if mu_prod == 0:
                        continue
                    terms.append((sign, binom, left + right, w_log * mu_prod))
    return terms


def hb_total_brute(n: int, k: int, V: int) -> float:
    return sum(s * b * w for (s, b, _t, w) in hb_terms_brute(n, k, V))


def hb_terms_in_order(n: int, k: int, V: int):
    """(terms, omitted) in the order of a nested enumeration: j, then the
    capped block's product b over the divisors of n, then the capped tuples,
    then the free tuples, each lexicographic.  Terms are (sign, binom, d,
    weight); a capped tuple with a zero Mobius factor omits all tau_j(n / b)
    free tuples, and a free tuple with d_1 = 1 omits one term."""
    divs = [d for d in range(1, n + 1) if n % d == 0]
    mu = {d: mobius_direct(d) for d in divs}
    listed: dict = {}

    def tuples(m, slots, cap=None):
        # ordered `slots`-tuples with product m, entries <= cap, by the first
        # entry and then recursively
        key = (m, slots, cap)
        if key in listed:
            return listed[key]
        if slots == 1:
            out = [(m,)] if cap is None or m <= cap else []
        else:
            out = [(d,) + rest for d in divs
                   if m % d == 0 and (cap is None or d <= cap)
                   for rest in tuples(m // d, slots - 1, cap)]
        listed[key] = out
        return out

    terms, omitted = [], 0
    for j in range(1, k + 1):
        sign, binom = (-1) ** (j - 1), math.comb(k, j)
        for b in divs:
            for capped in tuples(b, j, V):
                mu_prod = 1
                for d in capped:
                    mu_prod *= mu[d]
                if mu_prod == 0:
                    omitted += len(tuples(n // b, j))
                    continue
                for free in tuples(n // b, j):
                    if free[0] == 1:
                        omitted += 1
                        continue
                    terms.append((sign, binom, free + capped,
                                  math.log(free[0]) * mu_prod))
    return terms, omitted


def dirichlet_convolve_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[n] = sum_{d | n} a[d] * b[n/d]: one slice update per nonzero a[i] in
    ascending i, so each c[n] sums its terms in ascending order of d."""
    n = len(a) - 1
    c = np.zeros(n + 1, dtype=np.float64)
    for i in range(1, n + 1):
        ai = a[i]
        if ai != 0.0:
            k = n // i
            c[i::i] += ai * b[1 : k + 1]
    return c


def tau_chain_convolution(k: int, nmax: int) -> list:
    """[tau_1, ..., tau_k] on [0, nmax], index 0 zero, by repeated Dirichlet
    convolution with the all-ones sequence."""
    ones = np.ones(nmax + 1)
    ones[0] = 0.0
    chain = [ones]
    for _ in range(k - 1):
        chain.append(dirichlet_convolve_loop(chain[-1], ones))
    return chain


def flagged_primes(table) -> np.ndarray:
    """A SieveTable's primes from one flatnonzero over every flag."""
    return np.flatnonzero(table.is_prime).astype(np.int64, copy=False) + table.lo


# ---------------------------------------------------------------------------
# characters / Gauss / Kloosterman, direct definitions

def chi_table_brute(q: int) -> list[list[complex]]:
    """All Dirichlet characters mod q as explicit value lists chi[n], built
    from the multiplicative group by brute-force homomorphism enumeration."""
    units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
    phi = len(units)
    # multiplication table of the unit group
    idx = {a: i for i, a in enumerate(units)}
    chars: list[list[complex]] = []

    # brute force: a character is determined by consistent root-of-unity
    # values on the units; enumerate homomorphisms via the group generated
    # structure (works for small q: try all phi-th-root assignments on a
    # generating set found greedily).
    gens: list[int] = []
    span = {1}
    for a in units:
        if a in span:
            continue
        gens.append(a)
        new_span = set(span)
        for b in span:
            x = b
            while True:
                x = (x * a) % q
                new_span.add(x)
                if x == b:
                    break
        span = new_span
        if len(span) == phi:
            break
    orders = []
    for g in gens:
        o, x = 1, g
        while x != 1:
            x = (x * g) % q
            o += 1
        orders.append(o)

    for choice in product(*[range(o) for o in orders]):
        vals = {1: 1.0 + 0j}
        ok = True
        # generate the whole group as products of generator powers
        def build(i, elem, phase):
            if i == len(gens):
                prev = vals.get(elem)
                ph = cmath.exp(2j * math.pi * float(phase))
                if prev is None:
                    vals[elem] = ph
                elif abs(prev - ph) > 1e-9:
                    return False
                return True
            g, o, c = gens[i], orders[i], choice[i]
            x, acc = elem, phase
            for e in range(o):
                if not build(i + 1, x, acc):
                    return False
                x = (x * g) % q
                acc = (acc + Fraction(c, o)) % 1
            return True

        ok = build(0, 1, Fraction(0))
        if not ok:
            continue
        if len(vals) != phi:
            continue
        row = [0j] * q
        for a, v in vals.items():
            row[a % q] = v
        duplicate = any(
            max(abs(r - e) for r, e in zip(row, old)) < 1e-9 for old in chars)
        if duplicate:
            continue
        chars.append(row)
    return chars


def _primitive_root_direct(p: int, e: int) -> int:
    """The smallest g of multiplicative order p - 1 mod the odd prime p,
    plus p when g^(p-1) = 1 (mod p^2), so that it generates (Z/p^e)^*."""
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // r, p) != 1 for r in trial_factor(p - 1)))
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _component_dlogs_loop(p: int, e: int):
    """Generators and discrete-log table for (Z/p^e)^*.

    Returns (gens, table) with gens = [(p^e, g, order), ...] and
    table[x] a tuple of exponents for x in [0, p^e), or None for non-units.
    """
    m = p**e
    if p == 2:
        if e == 1:
            return [], [() for _ in range(m)]  # trivial group
        if e == 2:
            table = [None] * m
            table[1] = (0,)
            table[3] = (1,)
            return [(m, 3, 2)], table
        half = 2 ** (e - 2)
        table = [None] * m
        v = 1
        for b in range(half):
            table[v] = (0, b)
            table[m - v] = (1, b)
            v = v * 5 % m
        return [(m, m - 1, 2), (m, 5, half)], table
    g = _primitive_root_direct(p, e)
    order = (p - 1) * p ** (e - 1)
    table = [None] * m
    v = 1
    for k in range(order):
        table[v] = (k,)
        v = v * g % m
    return [(m, g, order)], table


def character_table_loop(q: int):
    """(exponents, dlog, orders, unit_mask) of the characters mod q, one
    residue at a time: each unit n gets the exponent tuples of n mod p^e
    from per-component tuple tables, and the exponent vectors are the mixed
    radix of the character index, last generator fastest."""
    gens: list = []
    comp_tables = []
    for p, e in sorted(trial_factor(q).items()):
        cg, ct = _component_dlogs_loop(p, e)
        comp_tables.append((p**e, len(cg), ct))
        gens.extend(cg)

    G = len(gens)
    orders = np.array([o for (_, _, o) in gens], dtype=np.int64)
    dlog = np.full((q, max(G, 1)), -1, dtype=np.int64)
    unit_mask = np.zeros(q, dtype=bool)
    for n in range(q):
        if math.gcd(n, q) != 1:
            continue
        unit_mask[n] = True
        col = 0
        for m, ng, ct in comp_tables:
            exps = ct[n % m]
            for j in range(ng):
                dlog[n, col + j] = exps[j]
            col += ng
    dlog = dlog[:, :G] if G else np.zeros((q, 0), dtype=np.int64)

    phi = phi_direct(q)
    exponents = np.zeros((phi, G), dtype=np.int64)
    if G:
        idx = np.arange(phi, dtype=np.int64)
        rem = idx.copy()
        for j in range(G - 1, -1, -1):
            exponents[:, j] = rem % orders[j]
            rem //= orders[j]
    return exponents, dlog, orders, unit_mask


def primitive_count(q: int) -> int:
    """Number of primitive characters mod q: the product over p^e || q of
    p - 2 (e = 1) and p^(e-2) (p - 1)^2 (e >= 2)."""
    out = 1
    for p, e in trial_factor(q).items():
        out *= p - 2 if e == 1 else p ** (e - 2) * (p - 1) ** 2
    return out


def value_matrix(table) -> np.ndarray:
    """Full (phi, q) table of character values; small q only."""
    if table.phi * table.q > 5 * 10**7:
        raise ResourceLimitError("value matrix too large; evaluate per character",
                                 estimate=table.phi * table.q, budget=5 * 10**7)
    if table.exponents.shape[1] == 0:
        return np.where(table.unit_mask, 1.0 + 0j, 0j)[None, :]
    w = np.where(table.dlog >= 0, table.dlog, 0).astype(np.float64) / table.orders
    phase = table.exponents.astype(np.float64) @ w.T
    vals = np.exp(2j * np.pi * phase)
    vals[:, ~table.unit_mask] = 0j
    return vals


def chi_eval(table, idx: int, n: int) -> complex:
    """chi_idx(n) from a character table's exponent vectors and discrete
    logs: the phase sum of (e_j d_j mod order_j) / order_j, each term reduced
    exactly in integers; 0 off units."""
    n %= table.q
    if not table.unit_mask[n]:
        return 0j
    e, d = table.exponents[idx], table.dlog[n]
    phase = sum(int(e[j] * d[j] % table.orders[j]) / int(table.orders[j])
                for j in range(len(e)))
    return cmath.exp(2j * math.pi * phase)


def orthogonality_project(table, a: int, m: int) -> float:
    """(1/phi) sum_chi chi(m) conj(chi(a)) from the table's exponents and
    discrete logs; ValueError when a is not a unit mod q."""
    q = table.q
    a %= q
    m %= q
    if not table.unit_mask[a]:
        raise ValueError(f"a={a} not coprime to q={q}")
    if not table.unit_mask[m]:
        return 0.0
    if table.exponents.shape[1] == 0:
        return 1.0
    w = (table.dlog[m] - table.dlog[a]).astype(np.float64) / table.orders
    phase = table.exponents.astype(np.float64) @ w
    return float(np.real(np.sum(np.exp(2j * np.pi * phase)))) / table.phi


def gauss_sum_brute(chi_row: list[complex], q: int, s: int) -> complex:
    return sum(chi_row[l % q] * cmath.exp(2j * math.pi * s * l / q)
               for l in range(q))


def kloosterman_brute(q: int, u: int, v: int) -> complex:
    total = 0j
    for l in range(1, q + 1):
        if math.gcd(l, q) != 1:
            continue
        linv = pow(l, -1, q)
        total += cmath.exp(2j * math.pi * (u * l + v * linv) / q)
    return total


def kloosterman_table_fft2(q: int) -> tuple[np.ndarray, float]:
    """All S_q(u, v) from one 2-D FFT of the q x q matrix B[l, l^{-1}] = 1.

    fft2(B)[u, v] = sum_l e(-(u l + v l^{-1})/q) = conj(S_q(u, v)).  Returns
    (real part, max |imag|).
    """
    B = np.zeros((q, q), dtype=np.float64)
    for l in range(q):
        if math.gcd(l, q) == 1:
            B[l, pow(l, -1, q)] = 1.0
    F = np.fft.fft2(B)
    return np.real(F), float(np.max(np.abs(np.imag(F))))


def kloosterman_table_unit_gather(q: int) -> tuple[np.ndarray, float]:
    """All S_q(u, v) from length-q FFTs: one row for u = 1 and one per
    non-unit u, and each unit row u gathered from the u = 1 row at
    np.outer(u, v) % q.  Returns (real part, max |imag|)."""
    inv = np.array([pow(l, -1, q) if math.gcd(l, q) == 1 else -1
                    for l in range(q)])
    ls = np.flatnonzero(inv >= 0)
    us = np.concatenate(([1], np.flatnonzero(inv < 0)))
    x = np.zeros((len(us), q), dtype=np.complex128)
    x[:, inv[ls]] = np.exp(-2j * np.pi * (np.outer(us, ls) % q) / q)
    F = np.fft.fft(x, axis=1)
    vals = np.empty((q, q), dtype=np.float64)
    vals[ls] = F[0].real[np.outer(ls, np.arange(q)) % q]
    vals[us[1:]] = F[1:].real
    return vals, float(np.max(np.abs(F.imag)))


def weil_margins_q2(q: int) -> np.ndarray:
    """tau(q) sqrt(q) gcd(u, v, q)^{1/2} - |S_q(u, v)| with the bound built
    on the whole q x q grid of gcd(u, v, q), from the unit-gather table."""
    vals, _ = kloosterman_table_unit_gather(q)
    g = np.gcd(np.arange(q), q)
    return (tau_k_direct(q, 2) * np.sqrt(q)
            * np.sqrt(np.gcd.outer(g, g).astype(float)) - np.abs(vals))


def weil_margins_fft2(q: int) -> np.ndarray:
    """tau(q) sqrt(q) gcd(u, v, q)^{1/2} - |S_q(u, v)| from the fft2 table."""
    vals, _ = kloosterman_table_fft2(q)
    g = np.array([[math.gcd(math.gcd(u, v), q) for v in range(q)]
                  for u in range(q)], dtype=np.float64)
    return tau_k_direct(q, 2) * math.sqrt(q) * np.sqrt(g) - np.abs(vals)


# ---------------------------------------------------------------------------
# prime exponential sums / counts, direct double loops

def exp_sum_primes_brute(X, Y, h, alpha, q, a, primes) -> complex:
    total = 0j
    for p in primes:
        if X <= p < Y and (q == 1 or p % q == a % q):
            with mpmath.workdps(40):
                ph = float(mpmath.frac(mpmath.mpf(h) * mpmath.power(p, alpha)))
            total += cmath.exp(2j * math.pi * ph)
    return total


def count_pi_I_brute(X, q, a, alpha, c, d, primes) -> int:
    n = 0
    for p in primes:
        if p > X:
            break
        if q > 1 and p % q != a % q:
            continue
        with mpmath.workdps(40):
            fr = float(mpmath.frac(mpmath.power(p, alpha)))
        if c <= fr < d:
            n += 1
    return n


def window_contains(win, n: int) -> bool:
    """Whether frac(n^alpha) lies in the FracWindow win, for one integer n
    through the window's own array mask."""
    return bool(win.mask(np.array([int(n)]))[0])


def bv_total_brute(X, Q, alpha, c, d, primes, moduli="all") -> float:
    """Naive per-(q,a) recount of the discrepancy total.

    The fractional-part membership of each prime is computed once in high
    precision, then bucketed per residue class in plain Python loops.
    """
    members = []
    for p in primes:
        if p > X:
            break
        with mpmath.workdps(40):
            fr = float(mpmath.frac(mpmath.power(p, alpha)))
        if c <= fr < d:
            members.append(int(p))
    pi_i = len(members)
    total = 0.0
    for q in range(2, Q + 1):
        if moduli == "prime" and any(q % r == 0 for r in range(2, q)):
            continue
        counts = [0] * q
        for p in members:
            counts[p % q] += 1
        best = 0.0
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            best = max(best, abs(counts[a % q] - pi_i / phi_direct(q)))
        total += best
    return total


def bv_rows_bincount_loop(pe: np.ndarray, qs) -> tuple[tuple, float]:
    """(rows, total) of the BV discrepancy, one bincount(pe % q) per q in
    order; each row names the smallest coprime a at the maximum."""
    pi_I = len(pe)
    rows = []
    total = 0.0
    for q in qs:
        counts = np.bincount(pe % q, minlength=q)
        coprime = np.gcd(np.arange(q), q) == 1
        dev = np.abs(counts - pi_I / np.count_nonzero(coprime))
        worst_a = int(np.argmax(np.where(coprime, dev, -1.0)))
        worst = float(dev[worst_a])
        rows.append((q, worst_a, worst))
        total += worst
    return tuple(rows), total


def bv_rows_int64_mask(pe: np.ndarray, qs) -> tuple[np.ndarray, tuple, float]:
    """(coprime mask, rows, total) of the BV discrepancy over the sorted
    moduli qs, with the mask from one int64 np.gcd over the concatenated
    residues a = 0..q-1 of each q, and the rows as in `bv_rows_bincount_loop`."""
    qs = sorted(qs)
    q = np.array(qs, dtype=np.int64)
    a = np.concatenate([np.arange(m, dtype=np.int64) for m in qs])
    coprime = np.gcd(a, np.repeat(q, q)) == 1
    rows, total = bv_rows_bincount_loop(pe, qs)
    return coprime, rows, total


def phase_sum_brute(coeff, shift, exponent, lo, hi) -> complex:
    total = 0j
    for r in range(math.ceil(lo), math.floor(hi) + 1):
        with mpmath.workdps(40):
            ph = float(mpmath.frac(coeff * mpmath.power(r + shift, exponent)))
        total += cmath.exp(2j * math.pi * ph)
    return total


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre panels: an independent float64 quadrature

_SQRT_GL = 15
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_SQRT_GL)
_BLOCK_PANELS = 1456   # 45 nodes each: ~1 MB per complex array of a block
_MAX_PANELS = 400_000
_MAX_ROUNDS = 30


def _gl_nodes(edges: np.ndarray):
    """GL-15 nodes on each [edges[i], edges[i+1]], and the half widths."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * _GL_X[None, :], half


def _stationary_candidates(phase, a: float, b: float) -> list[float]:
    """The zero of g' if it lies in (a, b)."""
    try:
        t0 = phase.closed()[0]
    except StationaryPointError:
        return []
    return [t0] if a < t0 < b else []


def subdivide(edges: np.ndarray, need: np.ndarray) -> np.ndarray:
    """Split panel i into need[i] equal pieces; point k is edges[i] +
    k * ((edges[i+1] - edges[i]) / need[i]), as np.linspace computes it."""
    step = np.repeat((edges[1:] - edges[:-1]) / need, need)
    k = np.arange(len(step)) - np.repeat(np.cumsum(need) - need, need)
    return np.append(np.repeat(edges[:-1], need) + k * step, edges[-1])


def _budget_edges(edges: np.ndarray, speed) -> np.ndarray:
    """Subdivide until width * speed <= 0.5 on every panel (half an
    oscillation when speed bounds |g'|), speed sampled at ends and middle."""
    for _ in range(64):
        mid = 0.5 * (edges[1:] + edges[:-1])
        width = edges[1:] - edges[:-1]
        speeds = np.maximum.reduce([speed(x) for x in (edges[:-1], mid, edges[1:])])
        if not np.all(np.isfinite(speeds)):
            raise ArgumentError("the phase speed |g'| is not finite on J")
        need = np.ceil(np.sqrt(np.maximum(width * speeds / 0.5, 1.0))).astype(int)
        # sqrt: split gradually; large factors converge in a few sweeps
        if np.all(need <= 1):
            break
        if len(edges) * 2 > _MAX_PANELS:
            raise AccuracyError("oscillation budget needs too many panels",
                                value=None, error_estimate=None)
        edges = subdivide(edges, need)
    return edges


def gl_quad_osc(w, g, J=None, tol: float = 1e-9) -> tuple[complex, float, int]:
    """Adaptive GL-15 panel quadrature of int w(t) e(g(t)) dt over J (the
    support of w when None, else J clipped to it); returns (value,
    error_estimate, nodes).

    Edges are seeded at the ends of J and the stationary point of g, then
    subdivided until each panel spans at most half an oscillation of g.
    Each round compares every panel's GL-15 value with the sum over its two
    halves and bisects the panels whose discrepancy exceeds tol / panels,
    until the summed discrepancy is <= tol.  Panels go in blocks of
    _BLOCK_PANELS, so memory stays bounded.
    """
    a, b = (w.lo, w.hi) if J is None else (max(J[0], w.lo), min(J[1], w.hi))
    if not b > a:
        return 0j, 0.0, 0
    edges = _budget_edges(
        np.array(sorted({a, b, *_stationary_candidates(g, a, b)}), dtype=float),
        lambda x: np.abs(np.asarray(g.dg(x, 1), dtype=float)))
    nodes = 0
    for _ in range(_MAX_ROUNDS):
        half_edges = np.empty(2 * len(edges) - 1)
        half_edges[0::2] = edges
        half_edges[1::2] = 0.5 * (edges[1:] + edges[:-1])
        val, err_sum = 0j, 0.0
        worst = np.empty(len(edges) - 1)
        for i in range(0, len(edges) - 1, _BLOCK_PANELS):
            j = min(i + _BLOCK_PANELS, len(edges) - 1)
            # each panel's 15 nodes, then 15 on each of its halves
            t, half = _gl_nodes(edges[i:j + 1])
            t_fine, h_fine = _gl_nodes(half_edges[2 * i:2 * j + 1])
            t = np.hstack((t, t_fine.reshape(j - i, 2 * _SQRT_GL)))
            part = (np.asarray(w(t), dtype=np.complex128)
                    * np.exp(2j * np.pi * np.mod(g.g(t), 1.0))
                    * np.tile(_GL_W, 3)).reshape(j - i, 3, _SQRT_GL).sum(axis=2)
            fine = part[:, 1] * h_fine[0::2] + part[:, 2] * h_fine[1::2]
            worst[i:j] = np.abs(part[:, 0] * half - fine)
            val += fine.sum()
            err_sum += worst[i:j].sum()
        nodes += 3 * _SQRT_GL * len(worst)
        if err_sum <= tol:
            return complex(val), float(err_sum), nodes
        if 2 * len(edges) > _MAX_PANELS:
            break
        keep = np.ones(len(half_edges), dtype=bool)
        keep[1::2] = worst > tol / len(worst)   # keep midpoints only where needed
        edges = half_edges[keep]
    raise AccuracyError(f"no convergence to tol={tol}", value=complex(val),
                        error_estimate=float(err_sum))


# ---------------------------------------------------------------------------
# oscillatory integrals via mpmath

def quad_oracle(w_fn, g_fn, lo, hi, dps=30, maxdegree=12) -> complex:
    """High-precision reference for int_lo^hi w(t) e(g(t)) dt."""
    with mpmath.workdps(dps):
        def f(t):
            return w_fn(t) * mpmath.e ** (2j * mpmath.pi * g_fn(t))
        val = mpmath.quad(f, [lo, hi], maxdegree=maxdegree)
        return complex(val)


_EXACT_DPS = 40
_FRAC_BITS = 160  # a phase mod 1 in fixed point, finer than 40 digits (133 bits)


def _fixed_frac(x) -> int:
    """floor(x 2^_FRAC_BITS) mod 2^_FRAC_BITS for an mpf x: frac(x) in fixed
    point."""
    return int(mpmath.floor(mpmath.ldexp(x, _FRAC_BITS))) % (1 << _FRAC_BITS)


def exact_phase_s_integrals(w, a, b, lead, slope, ss, n):
    """The n-point trapezoid sum for int_a^b w(t) e(g_s(t)) dt, one per
    integer s in ss, with g_s(t) = lead(t) - slope s t and g_s mod 1 computed in
    40-digit mpmath.  lead(t) takes and returns an mpf; slope is an mpf.
    The nodes are the float64 t_k = a + (b - a) (k / n), 0 < k < n, and w is
    evaluated there in float64.  frac(lead(t)) and frac(slope t) are taken
    once per node, in 40 digits, as integers G and L scaled by 2^160, and
    g_s mod 1 = ((G - s L) mod 2^160) / 2^160, which adds at most
    (1 + |s|) 2^-160 to the 40-digit error."""
    assert all(s == int(s) for s in ss), "the fixed-point path needs integer s"
    t = a + (b - a) * (np.arange(1, n) / n)
    wt = np.asarray(w(t), dtype=float)
    one = 1 << _FRAC_BITS
    with mpmath.workdps(_EXACT_DPS):
        tm = [mpmath.mpf(float(x)) for x in t]
        gl = [(_fixed_frac(lead(x)), _fixed_frac(slope * x)) for x in tm]
    out = []
    for s in map(int, ss):
        ph = np.array([((g - s * l) % one) / one for g, l in gl])
        out.append(complex(np.sum(wt * np.exp(2j * np.pi * ph))) * ((b - a) / n))
    return out


def stationary_scan(dg, a: float, b: float) -> list[float]:
    """Zeros of g' in (a, b) without a closed form: a 257-point sign scan of
    dg(t, 1), exact grid zeros plus a 60-step bisection per sign change,
    with points closer than 1e-12 max(b - a, 1) merged."""
    grid = np.linspace(a, b, 257)
    d = np.asarray(dg(grid, 1), dtype=float)
    sign = np.sign(d)
    out = [float(grid[i]) for i in np.flatnonzero(d[1:-1] == 0.0) + 1]
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0):
        lo_t, hi_t = grid[i], grid[i + 1]
        for _ in range(60):
            mid_t = 0.5 * (lo_t + hi_t)
            if np.sign(dg(mid_t, 1)) == sign[i]:
                lo_t = mid_t
            else:
                hi_t = mid_t
        out.append(0.5 * (lo_t + hi_t))
    merged = []
    for t in sorted(out):
        if not merged or t - merged[-1] > 1e-12 * max(abs(b - a), 1.0):
            merged.append(t)
    return merged


_MP50 = mpmath.MPContext()
_MP50.dps = 50


def anchored_frac_operators(c, ns: np.ndarray, e, shift=0.0) -> np.ndarray:
    """The anchored reduction frac(c (n + shift)^e) with its 50-digit anchors
    taken through mpf operators: each anchor a gives frac(p),
    frac(p e / (a + shift)) and p for p = c (a + shift)^e."""
    ns, ef = np.asarray(ns, dtype=np.int64), float(e)
    nf = ns + float(shift)
    with np.errstate(divide="ignore"):
        cap = np.minimum(np.minimum(nf / 64, 4096.0), np.sqrt(2.0**13 / np.abs(
            float(c) * ef * (ef - 1) * np.power(nf, ef - 2))))
    span = np.ldexp(1.0, np.frexp(np.maximum(cap, 1.0))[1] - 1).astype(np.int64)
    n0 = ns // span * span + span // 2
    anchors, inv = np.unique(n0, return_inverse=True)
    cm, em, sh = _MP50.mpf(c), _MP50.mpf(e), _MP50.mpf(shift)
    at = np.empty((len(anchors), 3))
    for j, a in enumerate(anchors.tolist()):
        p = cm * _MP50.power(a + sh, em)
        at[j] = _MP50.frac(p), _MP50.frac(p * em / (a + sh)), p
    p0, p1, amp = at[inv].T
    k = ns - n0
    x = k / (nf - k)
    term = tail = amp * x * x * (ef * (ef - 1) / 2)
    for t in range(2, 64):
        if t >= ef and np.max(np.abs(term)) <= 2.0**-53:
            break
        term = term * x * ((ef - t) / (t + 1))
        tail = tail + term
    return np.mod(p0 + (p1 * k + tail), 1.0)


def reduced_phase_oracle(h, n, alpha, shift=0.0) -> float:
    with mpmath.workdps(60):
        return float(mpmath.frac(mpmath.mpf(h) * mpmath.power(
            int(n) + mpmath.mpf(shift), alpha)))


def _soft_exp(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / np.maximum(t[pos], 1e-300))
    return out


def _smoothstep(t):
    t = np.asarray(t, dtype=float)
    a = _soft_exp(t)
    b = _soft_exp(1.0 - t)
    denom = np.where(a + b == 0.0, 1.0, a + b)
    return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, a / denom))


def smoothstep_derivative(t):
    """S'(t) = f(t) f(1-t) (t^-2 + (1-t)^-2) / (f(t) + f(1-t))^2, f(t) =
    exp(-1/t); 0 where f(t) or f(1-t) is 0."""
    t = np.asarray(t, dtype=float)
    a, b = _soft_exp(t), _soft_exp(1.0 - t)
    u = np.where(a * b > 0.0, t, 0.5)   # no 1/0 where the product is 0
    return a * b * (u ** -2 + (1.0 - u) ** -2) / (a + b) ** 2


def eval_bump_full(w, x):
    """psi(x) with the smoothstep run over the whole array, once per edge,
    and the edge picked per point afterwards; w has y and delta."""
    arr = np.asarray(x, dtype=float)
    rise = _smoothstep((arr - (1.0 - w.delta)) / w.delta)
    fall = _smoothstep((w.y + w.delta - arr) / w.delta)
    out = np.where(arr < 1.0, rise, np.where(arr > w.y, fall, 1.0))
    if np.ndim(x) == 0:
        return float(out)
    return out


def master_window_full(theta: float, x):
    """Psi(x) with the smoothstep run over the whole array, then 1 put back
    on [-1, 1]."""
    arr = np.abs(np.asarray(x, dtype=float))
    out = _smoothstep((theta - arr) / (theta - 1.0))
    out = np.where(arr <= 1.0, 1.0, out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _bump_mp(y, delta):
    """psi at the working precision: exp(-1/t) smoothstep edges, plateau
    [1, y], support (1 - delta, y + delta)."""
    def f(t):
        return mpmath.e ** (-1 / t) if t > 0 else mpmath.mpf(0)

    def S(t):
        if t <= 0:
            return mpmath.mpf(0)
        if t >= 1:
            return mpmath.mpf(1)
        return f(t) / (f(t) + f(1 - t))

    def psi(t):
        t = mpmath.mpf(t)
        if t <= 1 - delta or t >= y + delta:
            return mpmath.mpf(0)
        if t < 1:
            return S((t - (1 - delta)) / delta)
        if t <= y:
            return mpmath.mpf(1)
        return S((y + delta - t) / delta)

    return psi


def bump_oracle(y, delta, x, j=0, dps=40) -> float:
    """High-precision bump value/derivative.  mpmath.diff picks its own step
    and raises the working precision to match, so the result is good to
    about dps digits."""
    with mpmath.workdps(dps):
        psi = _bump_mp(y, delta)
        if j == 0:
            return float(psi(x))
        return float(mpmath.diff(psi, mpmath.mpf(x), j))


def stationary_expand_oracle(y, delta, g_mp, t0, g0, g2, n_terms, dps=60):
    """stationary_expand's (value, error_estimate) for the bump (y, delta),
    written out term by term with G^(2n)(t0) from mpmath.diff at dps digits:
    G = psi e(H), H = g - g0 - g2 (t - t0)^2 / 2, and g_mp(t) the phase at
    the working precision."""
    with mpmath.workdps(dps):
        psi = _bump_mp(y, delta)

        def G(t):
            H = g_mp(t) - g0 - mpmath.mpf(g2) / 2 * (t - t0) ** 2
            return psi(t) * mpmath.expjpi(2 * H)

        derivs = [complex(mpmath.diff(G, mpmath.mpf(t0), 2 * n))
                  for n in range(n_terms + 1)]
        lead = complex(mpmath.expjpi(2 * mpmath.mpf(g0) - mpmath.mpf(1) / 4))
    ag2 = abs(g2)

    def term(n):
        return derivs[n] / (math.factorial(n) * (4j * math.pi * ag2) ** n)

    value = lead / math.sqrt(ag2) * sum(term(n) for n in range(n_terms))
    return value, abs(term(n_terms)) / math.sqrt(ag2)


def tail_beyond_loop(sm: int, num, den, lead_peak, q, bound) -> float:
    """The Poisson tail sum one s at a time, with the scalar bound
    J_len X_I ((Q R / sqrt(Y))^{-A} + (R V)^{-A}) written out per term."""
    acc = 0.0
    for s_t in range(sm + 1, 64 * (sm + 1)):
        r = num * s_t / den - lead_peak
        if r <= 0:
            continue
        d1 = bound["Q_I"] * r / math.sqrt(bound["Y_I"])
        d2 = r * bound["V_I"]
        term = bound["J_len"] * bound["X_I"] * (d1 ** (-bound["A_I"])
                                                + d2 ** (-bound["A_I"]))
        acc += 2 * term * q
        if term * q < 1e-22 * max(acc, 1.0):
            break
    return acc
