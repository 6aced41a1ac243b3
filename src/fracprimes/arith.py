"""Sieves and elementary multiplicative functions.

Everything here is exact integer arithmetic.  Range routines return numpy
arrays indexed by offset into [lo, hi); single-argument routines work on
Python ints and factor through `factor()`, which does trial division by the
primes below 10**6 and one deterministic Miller-Rabin test of the cofactor
left; a composite cofactor (two prime factors above 10**6) is refused.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, check_budget

CACHE_MAGIC = b"FPL1"
_TRIAL_LIMIT = 10**6
_SEGMENT = 1 << 20
_MAX_LEN = 1 << 31

@functools.cache
def _trial_primes() -> np.ndarray:
    """The primes below 10**6 for trial division, built on first use."""
    return primes_upto(_TRIAL_LIMIT)


@dataclass(frozen=True)
class SieveTable:
    """Primality data for [lo, hi)."""

    lo: int
    hi: int
    is_prime: np.ndarray                      # bool, length hi - lo

    def count(self) -> int:
        return int(np.count_nonzero(self.is_prime))

    def primes(self) -> np.ndarray:
        """The flagged n as int64, from the odd flags and 2's; it trusts that no
        even n > 2 is flagged, as `sieve_primes` and `save_sieve` guarantee."""
        k = (self.lo + 1) % 2                 # flag index of the first odd n
        odd = np.flatnonzero(self.is_prime[k::2])
        two = int(self.lo <= 2 < self.hi and self.is_prime[2 - self.lo])
        out = np.empty(two + len(odd), dtype=np.int64)
        out[:two] = 2
        np.add(np.multiply(odd, 2, out=out[two:]), self.lo + k, out=out[two:])
        return out


def sieve_primes(lo: int, hi: int) -> SieveTable:
    """Sieve [lo, hi), marking composites in segments of _SEGMENT integers
    from lo on, for locality.

    Requires 2 <= lo < hi <= 2**48.  Memory is one bool per integer in the
    range; ranges longer than _MAX_LEN raise ResourceLimitError before
    anything is allocated, rather than thrash.
    """
    if not (2 <= lo < hi):
        raise ArgumentError(f"need 2 <= lo < hi, got lo={lo} hi={hi}")
    if hi > 1 << 48:
        raise ArgumentError(f"hi={hi} beyond supported range 2**48")
    n = hi - lo
    check_budget("sieve length", n, _MAX_LEN)

    # the base primes come from this sieve too; the recursion ends at primes_upto(1)
    base = primes_upto(math.isqrt(hi - 1))

    is_prime = np.ones(n, dtype=bool)
    for s0 in range(lo, hi, _SEGMENT):
        s1 = min(s0 + _SEGMENT, hi)
        for p in base.tolist():
            # start >= p*p > p, so p itself stays marked
            start = max(p * p, ((s0 + p - 1) // p) * p)
            if start < s1:
                is_prime[start - lo : s1 - lo : p] = False
    return SieveTable(lo=lo, hi=hi, is_prime=is_prime)


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    return sieve_primes(2, n + 1).primes()


# ---------------------------------------------------------------------------
# cache file format: 4-byte magic, lo and hi as little-endian uint64, then
# the primality bitmap MSB-first via packbits.

def atomic_write(path: str, data: bytes) -> None:
    """Write data to path via a temp file in the same directory and a
    rename, so readers see the old file or the new one, never a part.
    Missing parent directories are created."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_sieve(table: SieveTable, path: str) -> None:
    """Write the primality part of a table atomically."""
    payload = CACHE_MAGIC + struct.pack("<QQ", table.lo, table.hi)
    atomic_write(path, payload + np.packbits(table.is_prime).tobytes())


def _read_header(fh, path: str) -> tuple[int, int]:
    """(lo, hi) from an open cache file's header, once its magic and (by
    fstat, before any bitmap byte is read) its size are checked."""
    head = fh.read(20)
    if head[:4] != CACHE_MAGIC:
        raise ArgumentError(f"{path}: bad magic {head[:4]!r}")
    if len(head) < 20:
        raise ArgumentError(f"{path}: truncated header ({len(head)} of 20 bytes)")
    lo, hi = struct.unpack("<QQ", head[4:])
    size = os.fstat(fh.fileno()).st_size - 20
    if size != (hi - lo + 7) // 8:
        raise ArgumentError(f"{path}: truncated bitmap ({size} bytes for {hi - lo} flags)")
    return lo, hi


def load_sieve(path: str, lo: int | None = None, hi: int | None = None) -> SieveTable:
    """The cached table, or with lo and hi only the bitmap bytes that hold
    [lo, hi): the result's lo and hi are then the byte edges of what was
    read, clipped to the header's range.  A bad magic, a file whose size
    disagrees with its header, or a header that does not cover [lo, hi)
    raises ArgumentError."""
    with open(path, "rb") as fh:
        t_lo, t_hi = _read_header(fh, path)
        if (lo is not None and lo < t_lo) or (hi is not None and hi > t_hi):
            raise ArgumentError(f"{path}: header covers [{t_lo}, {t_hi}), "
                                f"not [{lo}, {hi})")
        nbytes = (t_hi - t_lo + 7) // 8
        b0 = 0 if lo is None else min(max(lo - t_lo, 0) // 8, nbytes)
        b1 = nbytes if hi is None else max(b0, min((hi - t_lo + 7) // 8, nbytes))
        fh.seek(20 + b0)
        blob = fh.read(b1 - b0)
    lo, hi = min(t_lo + 8 * b0, t_hi), min(t_lo + 8 * b1, t_hi)
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8))[:hi - lo]
    return SieveTable(lo=lo, hi=hi, is_prime=bits.view(bool))


# ---------------------------------------------------------------------------
# deterministic primality + factoring

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 2**64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FactoredInteger:
    """n together with its sorted prime-power factorization."""

    n: int
    factors: tuple[tuple[int, int], ...]  # ((p, e), ...) with p ascending


def factor(n: int) -> FactoredInteger:
    """Factor n >= 1 by trial division to 10**6 and a Miller-Rabin test of
    the cofactor.  Raises ResourceLimitError when the cofactor is composite,
    i.e. when n has two or more prime factors above 10**6."""
    if n < 1:
        raise ArgumentError(f"factor() needs n >= 1, got {n}")
    m = n
    fac: dict[int, int] = {}
    limit = math.isqrt(m)
    tp = _trial_primes()
    for p in tp[:np.searchsorted(tp, limit, "right")].tolist():
        if p > limit:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fac[p] = e
            limit = math.isqrt(m)
    # m has no prime factor below 10**6: below 10**12 it is 1 or prime, and
    # a prime m exceeds every p in fac, so fac stays in ascending order
    if m >= _TRIAL_LIMIT ** 2 and not is_prime(m):
        check_budget("composite cofactor", m, _TRIAL_LIMIT ** 2)
    if m > 1:
        fac[m] = 1
    return FactoredInteger(n=n, factors=tuple(fac.items()))


# ---------------------------------------------------------------------------
# multiplicative functions (single argument)

def mobius(n: int) -> int:
    if n < 1:
        raise ArgumentError(f"mobius() needs n >= 1, got {n}")
    out = 1
    for _, e in factor(n).factors:
        if e > 1:
            return 0
        out = -out
    return out


def tau_k(n: int, k: int) -> int:
    """Number of ordered k-tuples of positive integers with product n."""
    if n < 1 or k < 1:
        raise ArgumentError(f"tau_k needs n,k >= 1, got n={n} k={k}")
    out = 1
    for _, e in factor(n).factors:
        out *= math.comb(e + k - 1, k - 1)
    return out


def divisors(n: int) -> list[int]:
    """Sorted divisor list of n."""
    divs = [1]
    for p, e in factor(n).factors:
        pk = 1
        block = list(divs)
        for _ in range(e):
            pk *= p
            divs.extend(d * pk for d in block)
    return sorted(divs)


def unit_inverses(q: int) -> np.ndarray:
    """inv[l] = l^(phi(q) - 1) mod q, so l*inv[l] == 1 mod q, for units l, -1
    elsewhere.  Products stay below q^3, in int64 for the callers' q <= 10^5."""
    if q < 1:
        raise ArgumentError(f"modulus must be >= 1, got {q}")
    out = np.full(q, -1, dtype=np.int64)
    ls = np.flatnonzero(np.gcd(np.arange(1, q), q) == 1) + 1
    r = np.ones_like(ls)
    for bit in f"{max(len(ls) - 1, 0):b}":  # high bit first
        r *= r * ls if bit == "1" else r
        r -= r // q * q  # numpy's // by a scalar uses libdivide, and its % does not
    out[ls] = r
    return out


def primitive_root(p: int, e: int = 1) -> int:
    """A generator of (Z/p^e)^* for odd prime p (e >= 1), or of (Z/2)^*, (Z/4)^*."""
    if e < 1:
        raise ArgumentError(f"exponent must be >= 1, got {e}")
    if p == 2:
        if e == 1:
            return 1
        if e == 2:
            return 3
        raise ArgumentError("(Z/2^e)^* is not cyclic for e >= 3")
    if not is_prime(p):
        raise ArgumentError(f"{p} is not prime")
    # find a root mod p first
    prime_divs = [q for q, _ in factor(p - 1).factors]
    g = next(cand for cand in range(2, p)
             if all(pow(cand, (p - 1) // q, p) != 1 for q in prime_divs))
    if e == 1:
        return g
    # lift: g works mod p^e unless g^(p-1) == 1 mod p^2
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


# ---------------------------------------------------------------------------
# range (vectorized) versions used by the decomposition fast paths

def smallest_factor_range(nmax: int) -> np.ndarray:
    """spf[n] for 0 <= n <= nmax (spf[0] = spf[1] = 0)."""
    if nmax < 1:
        raise ArgumentError(f"need nmax >= 1, got {nmax}")
    spf = np.zeros(nmax + 1, dtype=np.int64)
    for p in range(2, math.isqrt(nmax) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
            spf[p * p :: p] = sl
    idx = np.flatnonzero(spf == 0)
    spf[idx] = idx
    spf[:2] = 0
    return spf


def mobius_range(nmax: int) -> np.ndarray:
    """mu[n] for 0 <= n <= nmax as int8 (mu[0] = 0).

    Sieves by the primes p <= sqrt(nmax): each flips the sign of its
    multiples, zeroes the multiples of p^2 and multiplies into prod[n].  A
    squarefree n with prod[n] != n has exactly one prime factor above
    sqrt(nmax) left, which flips the sign once more.
    """
    if nmax < 1:
        raise ArgumentError(f"need nmax >= 1, got {nmax}")
    mu = np.ones(nmax + 1, dtype=np.int8)
    prod = np.ones(nmax + 1, dtype=np.int64)
    for p in primes_upto(math.isqrt(nmax)).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        prod[p::p] *= p
    mu[(mu != 0) & (prod != np.arange(nmax + 1))] *= -1
    mu[0] = 0
    return mu


def von_mangoldt_range(nmax: int, lo: int = 0) -> np.ndarray:
    """Lambda[n] for lo <= n <= nmax as float64, at index n - lo, sieving only
    [lo, nmax].  log p is math.log (np.log can differ in the last bit), taken
    4096 primes at a time so that no Python list of every log is built, and
    at each p <= sqrt(nmax) for its powers p^k in [lo, nmax].
    """
    if not 0 <= lo <= nmax or nmax < 1:
        raise ArgumentError(f"need nmax >= 1 and 0 <= lo <= nmax, got lo={lo} nmax={nmax}")
    lam = np.zeros(nmax - lo + 1, dtype=np.float64)
    ps = sieve_primes(max(lo, 2), nmax + 1).primes() if nmax > 1 else []
    for i in range(0, len(ps), 4096):
        chunk = ps[i : i + 4096]
        lam[chunk - lo] = np.fromiter(map(math.log, chunk.tolist()),
                                      dtype=np.float64, count=len(chunk))
    for p in primes_upto(math.isqrt(nmax)).tolist():
        pk = p * p
        while pk <= nmax:
            if pk >= lo:
                lam[pk - lo] = math.log(p)
            pk *= p
    return lam
