"""Sieves and elementary multiplicative functions.

Everything here is exact integer arithmetic.  Range routines return numpy
arrays indexed by offset into [lo, hi); single-argument routines work on
Python ints and factor through `factor()`, which does trial division by
sieved primes up to 10**6 and falls back to deterministic Miller-Rabin plus
Pollard rho for the remaining cofactor.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ResourceLimitError

CACHE_MAGIC = b"FPL1"
_TRIAL_LIMIT = 10**6
_SEGMENT = 1 << 20
_MAX_LEN = 1 << 31

# primes below 10**6 for trial division, built lazily once
_small_primes: np.ndarray | None = None


def _base_sieve(limit: int) -> np.ndarray:
    """Boolean primality table for [0, limit] by plain Eratosthenes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def _trial_primes() -> np.ndarray:
    global _small_primes
    if _small_primes is None:
        _small_primes = np.flatnonzero(_base_sieve(_TRIAL_LIMIT)).astype(np.int64)
    return _small_primes


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
    if n > _MAX_LEN:
        raise ResourceLimitError(
            f"range of length {n} exceeds budget {_MAX_LEN}", estimate=n,
            budget=_MAX_LEN)

    root = math.isqrt(hi - 1)
    base = _trial_primes() if root <= _TRIAL_LIMIT else np.flatnonzero(_base_sieve(root)).astype(np.int64)
    base = base[base <= root]

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


def sieve_header(path: str) -> tuple[int, int]:
    """[lo, hi) from a cache file's header, checked as by `load_sieve`."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_sieve(path: str, lo: int | None = None, hi: int | None = None) -> SieveTable:
    """The cached table, or with lo and hi only the bitmap bytes that hold
    [lo, hi): the result's lo and hi are then the byte edges of what was
    read, clipped to the header's range.  A bad magic or a file whose size
    disagrees with its header raises ArgumentError, whatever the range."""
    with open(path, "rb") as fh:
        t_lo, t_hi = _read_header(fh, path)
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
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        x = y = 2
        c = seed
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


@dataclass(frozen=True)
class FactoredInteger:
    """n together with its sorted prime-power factorization."""

    n: int
    factors: tuple[tuple[int, int], ...]  # ((p, e), ...) with p ascending


def factor(n: int) -> FactoredInteger:
    """Factor n >= 1: trial division to 10**6, then Miller-Rabin/rho."""
    if n < 1:
        raise ArgumentError(f"factor() needs n >= 1, got {n}")
    m = n
    fac: dict[int, int] = {}
    if m > 1:
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
    # cofactor beyond trial range: prime, prime power, or needs rho
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        # perfect power check keeps rho off p^k inputs it handles poorly
        for k in range(2, m.bit_length()):
            r = round(m ** (1.0 / k))
            for cand in (r - 1, r, r + 1):
                if cand > 1 and cand ** k == m:
                    stack.extend([cand] * k)
                    m = 1
                    break
            if m == 1:
                break
        if m == 1:
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    items = tuple(sorted(fac.items()))
    return FactoredInteger(n=n, factors=items)


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
    """Array inv[l] with l*inv[l] == 1 mod q for units, and -1 elsewhere."""
    if q < 1:
        raise ArgumentError(f"modulus must be >= 1, got {q}")
    out = np.full(q, -1, dtype=np.int64)
    for l in range(1, q):
        if math.gcd(l, q) == 1:
            out[l] = pow(l, -1, q)
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
