"""Dirichlet characters, Gauss sums, and Kloosterman sums.

Characters mod q are built by CRT over the prime-power components of q:
odd p^e components are cyclic with a lifted primitive root, 2^e splits as
<-1> x <5> (only <-1> for e = 2, nothing for e = 1).  Each component table
comes from one enumeration of the generator powers prod g_i^k_i mod p^e,
scattered to its exponent tuple; the table mod q is a gather of those
tables at n mod p^e.  Each character is an integer exponent vector against
the component generators; evaluation is a dot product with the discrete
logs, so chi(n) costs O(#generators) inside hot loops.  Primitivity is
decided on the integer exponents alone, with no character values.

Kloosterman sums are evaluated directly over units (O(q)).  All-(u,v) tables
come from `kloosterman_rows`: length-q FFTs of the unit row K[w] = S_q(1, w)
and of each non-unit row (row 0 alone for prime q), and uv mod q in int32.
As S_q(u, v) = S_q(1, uv), unit rows are gathered from K, and their Weil
margins, whose bound B is one number, from the one margin row B - |K|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arith import FactoredInteger, factor, primitive_root, tau_k, unit_inverses
from .errors import ArgumentError, ResourceLimitError

_Q_BUDGET = 10**5
_TABLE_Q_BUDGET = 4096   # a q x q float64 table: 2^24 entries, 134 MB


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


def _mixed_radix(orders: np.ndarray) -> np.ndarray:
    """Row k holds the digits of k in the mixed radix orders, last fastest."""
    return np.column_stack(np.unravel_index(np.arange(orders.prod()), orders))


def _component_dlogs(p: int, e: int):
    """Generator orders and discrete-log table for (Z/p^e)^*, p^e > 2.

    Returns (orders, table): table[x, i] is the exponent of x on generator i
    for x in [0, p^e), -1 for non-units.  Generators are the lifted
    primitive root for odd p, and -1 (e >= 2) and 5 (e >= 3) for p = 2.
    """
    m = p**e
    if p == 2:
        gens = [(m - 1, 2), (5, m // 4)][:min(e - 1, 2)]
    else:
        gens = [(primitive_root(p, e), m - m // p)]
    # prod_i g_i^k_i mod m in the mixed radix of k; powers by doubling
    elems = np.ones(1, dtype=np.int64)
    for g, o in gens:
        pw = np.ones(1, dtype=np.int64)
        while len(pw) < o:
            pw = np.concatenate((pw, pw * pow(g, len(pw), m) % m))
        elems = (elems[:, None] * pw[:o]).ravel() % m
    orders = np.array([o for _, o in gens], dtype=np.int64)
    table = np.full((m, len(gens)), -1, dtype=np.int64)
    table[elems] = _mixed_radix(orders)
    return orders, table


def character_group(q: int) -> CharacterTable:
    """Build the full character table mod q (q between 3 and 10^5)."""
    if q < 3:
        raise ArgumentError(f"need q >= 3, got {q}")
    if q > _Q_BUDGET:
        raise ResourceLimitError(f"q={q} beyond table budget {_Q_BUDGET}",
                                 estimate=q, budget=_Q_BUDGET)
    fac = factor(q)
    # (Z/2)^* is trivial and adds no generator
    comps = [(p**e, *_component_dlogs(p, e)) for p, e in fac.factors if p**e > 2]
    orders = np.concatenate([o for _, o, _ in comps])
    n = np.arange(q)
    unit_mask = np.gcd(n, q) == 1
    dlog = np.concatenate([t[n % m] for m, _, t in comps], axis=1)
    dlog[~unit_mask] = -1
    # character c has the exponents of c in mixed radix; 0 is principal
    return CharacterTable(q=q, factorization=fac, exponents=_mixed_radix(orders),
                          dlog=dlog, orders=orders, unit_mask=unit_mask)


def chi_values(table: CharacterTable, idx: int) -> np.ndarray:
    """chi_idx(n) for n = 0..q-1 as one complex array."""
    if not 0 <= idx < table.phi:
        raise ArgumentError(f"character index {idx} out of range [0, {table.phi})")
    weights = table.exponents[idx].astype(np.float64) / table.orders.astype(np.float64)
    d = np.where(table.dlog >= 0, table.dlog, 0).astype(np.float64)
    phase = d @ weights
    vals = np.exp(2j * np.pi * phase)
    vals[~table.unit_mask] = 0j
    return vals


def is_primitive(table: CharacterTable, idx: int) -> bool:
    """True when no proper modulus induces chi_idx.

    chi is induced mod q/p iff chi(n) = 1 for every unit n = 1 (mod q/p);
    primitivity = that fails for every prime p | q.  With L = lcm(orders)
    and w = exponents[idx] * (L / orders), chi(n) = e(dlog[n] . w / L), so
    chi(n) = 1 iff dlog[n] . w = 0 (mod L): exact, in integers below 10^12.
    """
    if not 0 <= idx < table.phi:
        raise ArgumentError(f"character index {idx} out of range [0, {table.phi})")
    L = np.lcm.reduce(table.orders)
    w = table.exponents[idx] * (L // table.orders)
    for p, _ in table.factorization.factors:
        ns = np.arange(1, table.q, table.q // p)
        if not np.any(table.dlog[ns[table.unit_mask[ns]]] @ w % L):
            return False
    return True


def gauss_sum(table: CharacterTable, idx: int, s: int) -> complex:
    """tau(chi; s) = sum_{l=1}^{q-1} chi(l) e(s l / q), direct O(q)."""
    q = table.q
    vals = chi_values(table, idx)
    ls = np.arange(q, dtype=np.float64)
    return complex(np.sum(vals * np.exp(2j * np.pi * ((s % q) * ls / q))))


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


class KloostermanRows(NamedTuple):
    """The length-q FFT rows that all S_q(u, v) mod q are gathered from."""

    us: np.ndarray       # 1, then the non-units
    fft: np.ndarray      # row i is conj(S_q(us[i], v)) over v; K = fft[0].real
    uv: np.ndarray       # u v mod q (int32): unit row u is K[uv[u]]

    def margins(self) -> np.ndarray:
        """weil_bound(q, u, v) - |S_q(u, v)|, bounded on d = gcd(u, q), as
        gcd(u, v, q) = gcd(d_u, d_v).  A unit row has d_u = 1 and one bound
        B, so it is gathered from the one margin row B - |K|."""
        q, us, rows = len(self.uv), self.us[1:], self.fft.real
        d, at = np.unique(np.gcd(np.arange(q), q), return_inverse=True)
        bound = tau_k(q, 2) * np.sqrt(q) * np.sqrt(np.gcd.outer(d, d).astype(float))
        margins = (bound[0, 0] - np.abs(rows[0]))[self.uv]   # d[0] = 1
        margins[us] = bound[at[us]][:, at] - np.abs(rows[1:])
        return margins


def kloosterman_rows(q: int) -> KloostermanRows:
    """The rows of all S_q(u, v) from one batch of length-q FFTs, as
    S_q(u, v) = S_q(1, uv) for units u.  Row u is the FFT along v of
    x_u[l^{-1}] = e(-u l / q) over units l, which gives conj(S_q(u, v)); it
    is taken for u = 1 and the non-units only (for prime q, u = 0: the
    Ramanujan sums).  q above 4096 raises ResourceLimitError before anything
    is allocated."""
    if q < 2:
        raise ArgumentError(f"need q >= 2, got {q}")
    if q > _TABLE_Q_BUDGET:
        raise ResourceLimitError(f"q={q} beyond Kloosterman table budget "
                                 f"{_TABLE_Q_BUDGET}", estimate=q,
                                 budget=_TABLE_Q_BUDGET)
    inv = unit_inverses(q)
    ls = np.flatnonzero(inv >= 0)
    us = np.concatenate(([1], np.flatnonzero(inv < 0)))
    x = np.zeros((len(us), q), dtype=np.complex128)
    x[:, inv[ls]] = np.exp(-2j * np.pi * (np.outer(us, ls) % q) / q)
    uv = np.outer(n := np.arange(q, dtype=np.int32), n)  # q^2 <= 2^24
    uv -= uv // q * q                   # libdivide; numpy's % is slower
    return KloostermanRows(us, np.fft.fft(x, axis=1), uv)


def kloosterman_table(q: int) -> tuple[np.ndarray, float]:
    """All S_q(u, v) for (u, v) in [0, q)^2 (the real parts of the rows), and
    the largest |imaginary part| seen, so callers can check realness."""
    us, F, uv = kloosterman_rows(q)
    vals = F[0].real[uv]
    vals[us[1:]] = F[1:].real
    return vals, float(np.max(np.abs(F.imag)))


def weil_margin_table(q: int) -> np.ndarray:
    """margin[u, v] = weil_bound(q, u, v) - |S_q(u, v)| for all u, v."""
    return kloosterman_rows(q).margins()
