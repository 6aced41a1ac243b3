"""Dirichlet characters, Gauss sums, and Kloosterman sums.

Characters mod q are built by CRT over the prime-power components of q:
odd p^e components are cyclic with a lifted primitive root, 2^e (e >= 3)
splits as <-1> x <5>.  Each character is an integer exponent vector against
the component generators; evaluation is a dot product with precomputed
discrete logs, so chi(n) costs O(#generators) inside hot loops.

Kloosterman sums are evaluated directly over units (O(q)).  The all-(u,v)
table for a fixed q gathers every unit row from the one unit row
K[w] = S_q(1, w), a single length-q FFT, since S_q(u, v) = S_q(1, uv) for
units u; only the non-unit rows (row 0 alone for prime q) get a length-q FFT
of their own.  That keeps the exhaustive Weil-bound sweeps cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import FactoredInteger, euler_phi, factor, primitive_root, tau_k, unit_inverses
from .errors import ArgumentError, ResourceLimitError

_TWO_PI = 2.0 * math.pi
_Q_BUDGET = 10**5


@dataclass(frozen=True)
class CharacterTable:
    """All phi(q) Dirichlet characters mod q.

    Generator i of (Z/qZ)^* has order orders[i]; dlog[n, i] is the
    exponent of n on generator i (-1 for non-units).  Character c has
    exponent vector exponents[c]; chi_c(n) = e(sum_i exponents[c, i] *
    dlog[n, i] / order_i) on units, 0 elsewhere.  Index 0 is principal.
    """

    q: int
    factorization: FactoredInteger
    exponents: np.ndarray      # (phi, G) int64
    dlog: np.ndarray           # (q, G) int64, -1 on non-units
    orders: np.ndarray         # (G,) int64
    unit_mask: np.ndarray      # (q,) bool

    @property
    def phi(self) -> int:
        return self.exponents.shape[0]


def _component_dlogs(p: int, e: int):
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
    g = primitive_root(p, e)
    order = (p - 1) * p ** (e - 1)
    table = [None] * m
    v = 1
    for k in range(order):
        table[v] = (k,)
        v = v * g % m
    return [(m, g, order)], table


def character_group(q: int) -> CharacterTable:
    """Build the full character table mod q (q between 3 and 10^5)."""
    if q < 3:
        raise ArgumentError(f"need q >= 3, got {q}")
    if q > _Q_BUDGET:
        raise ResourceLimitError(f"q={q} beyond table budget {_Q_BUDGET}",
                                 estimate=q, budget=_Q_BUDGET)
    fac = factor(q)
    gens: list = []
    comp_tables = []
    for p, e in fac.factors:
        cg, ct = _component_dlogs(p, e)
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

    phi = euler_phi(q)
    # mixed-radix enumeration; index 0 has all exponents 0 (principal)
    exponents = np.zeros((phi, G), dtype=np.int64)
    if G:
        idx = np.arange(phi, dtype=np.int64)
        rem = idx.copy()
        for j in range(G - 1, -1, -1):
            exponents[:, j] = rem % orders[j]
            rem //= orders[j]
    return CharacterTable(q=q, factorization=fac, exponents=exponents, dlog=dlog,
                          orders=orders if G else np.zeros(0, dtype=np.int64),
                          unit_mask=unit_mask)


def chi_eval(table: CharacterTable, idx: int, n: int) -> complex:
    """chi_idx(n): a root of unity on units, 0 off units."""
    if not 0 <= idx < table.phi:
        raise ArgumentError(f"character index {idx} out of range [0, {table.phi})")
    n %= table.q
    if not table.unit_mask[n]:
        return 0j
    e = table.exponents[idx]
    d = table.dlog[n]
    phase = 0.0
    for j in range(len(e)):
        phase += (e[j] * d[j] % table.orders[j]) / table.orders[j]
    return complex(math.cos(_TWO_PI * phase), math.sin(_TWO_PI * phase))


def chi_values(table: CharacterTable, idx: int) -> np.ndarray:
    """chi_idx(n) for n = 0..q-1 as one complex array."""
    if not 0 <= idx < table.phi:
        raise ArgumentError(f"character index {idx} out of range [0, {table.phi})")
    if table.exponents.shape[1] == 0:
        vals = np.where(table.unit_mask, 1.0 + 0j, 0j)
        return vals
    weights = table.exponents[idx].astype(np.float64) / table.orders.astype(np.float64)
    d = np.where(table.dlog >= 0, table.dlog, 0).astype(np.float64)
    phase = d @ weights
    vals = np.exp(2j * np.pi * phase)
    vals[~table.unit_mask] = 0j
    return vals


def is_primitive(table: CharacterTable, idx: int) -> bool:
    """True when no proper modulus induces chi_idx.

    chi is induced mod q/p iff chi(n) = 1 for every unit n = 1 (mod q/p);
    primitivity = that fails for every prime p | q.
    """
    q = table.q
    vals = chi_values(table, idx)
    for p, _ in table.factorization.factors:
        step = q // p
        trivial = True
        for n in range(1 + step, q, step):
            if table.unit_mask[n] and abs(vals[n] - 1.0) > 1e-12:
                trivial = False
                break
        if trivial:
            return False
    return True


def gauss_sum(table: CharacterTable, idx: int, s: int) -> complex:
    """tau(chi; s) = sum_{l=1}^{q-1} chi(l) e(s l / q), direct O(q)."""
    q = table.q
    vals = chi_values(table, idx)
    ls = np.arange(q, dtype=np.float64)
    return complex(np.sum(vals * np.exp(2j * np.pi * ((s % q) * ls / q))))


def orthogonality_project(table: CharacterTable, a: int, m: int) -> float:
    """(1/phi) sum_chi chi(m) conj(chi(a)); 1 iff m = a (q) on units, else 0."""
    q = table.q
    a %= q
    m %= q
    if not table.unit_mask[a]:
        raise ArgumentError(f"a={a} not coprime to q={q}")
    if not table.unit_mask[m]:
        return 0.0
    if table.exponents.shape[1] == 0:
        return 1.0
    w = (table.dlog[m] - table.dlog[a]).astype(np.float64) / table.orders
    phase = table.exponents.astype(np.float64) @ w
    return float(np.real(np.sum(np.exp(2j * np.pi * phase)))) / table.phi


def value_matrix(table: CharacterTable) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Kloosterman sums

@dataclass(frozen=True)
class KloostermanValue:
    q: int
    u: int
    v: int
    value: float           # real part of the defining sum
    imag_residual: float   # |imaginary part|, should be ~0
    weil_bound: float      # tau(q) sqrt(q) gcd(u,v,q)^{1/2}

    @property
    def margin(self) -> float:
        return self.weil_bound - abs(self.value)


def weil_bound(q: int, u: int, v: int) -> float:
    g = math.gcd(math.gcd(u, v), q)
    return tau_k(q, 2) * math.sqrt(q) * math.sqrt(g)


def kloosterman(q: int, u: int, v: int) -> KloostermanValue:
    """S_q(u, v) = sum over units l of e((u l + v l^{-1})/q)."""
    if q < 2:
        raise ArgumentError(f"need q >= 2, got {q}")
    inv = unit_inverses(q)
    ls = np.flatnonzero(inv >= 0)
    phases = (u * ls + v * inv[ls]) % q
    total = np.sum(np.exp(2j * np.pi * phases / q))
    return KloostermanValue(q=q, u=u % q, v=v % q,
                            value=float(np.real(total)),
                            imag_residual=float(abs(np.imag(total))),
                            weil_bound=weil_bound(q, u, v))


def weil_margin(q: int, u: int, v: int) -> float:
    """weil_bound - |S_q(u,v)|; negative values flag a bound violation."""
    return kloosterman(q, u, v).margin


def kloosterman_table(q: int) -> tuple[np.ndarray, float]:
    """All S_q(u, v) for (u, v) in [0, q)^2 from one batch of length-q FFTs.

    For a unit u, S_q(u, v) = S_q(1, uv) (substitute l -> l u^{-1}), so the
    unit rows are gathered from the unit row K[w] = S_q(1, w).  A row u is
    the FFT along v of x_u[l^{-1}] = e(-u l / q) over units l, which gives
    sum_l e(-(u l + v l^{-1})/q) = conj(S_q(u, v)); that FFT is taken for
    u = 1 and for the non-units u only (for prime q, u = 0, where the row is
    the Ramanujan sums).  The sums are real, so the real parts are the
    table.  Returns (values, max |imag| seen) so callers can check realness.
    """
    if q < 2:
        raise ArgumentError(f"need q >= 2, got {q}")
    inv = unit_inverses(q)
    ls = np.flatnonzero(inv >= 0)
    us = np.concatenate(([1], np.flatnonzero(inv < 0)))
    x = np.zeros((len(us), q), dtype=np.complex128)
    x[:, inv[ls]] = np.exp(-2j * np.pi * (np.outer(us, ls) % q) / q)
    F = np.fft.fft(x, axis=1)
    vals = np.empty((q, q), dtype=np.float64)
    vals[ls] = F[0].real[np.outer(ls, np.arange(q)) % q]
    vals[us[1:]] = F[1:].real
    return vals, float(np.max(np.abs(F.imag)))


def weil_margin_table(q: int) -> np.ndarray:
    """margin[u, v] = weil_bound(q,u,v) - |S_q(u,v)| for all u, v."""
    vals, _ = kloosterman_table(q)
    g = np.gcd(np.arange(q), q)
    g_uv = np.gcd.outer(g, g).astype(np.float64)   # gcd(u, v, q)
    bound = tau_k(q, 2) * np.sqrt(q) * np.sqrt(g_uv)
    return bound - np.abs(vals)
