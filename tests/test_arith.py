import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracprimes.arith import (FactoredInteger, divisors, factor,
                              is_prime, load_sieve, mobius,
                              mobius_range, primes_upto, primitive_root,
                              save_sieve, sieve_primes, smallest_factor_range,
                              tau_k, unit_inverses, von_mangoldt_range)
from fracprimes.errors import ArgumentError, ResourceLimitError

import oracles


def test_primes_upto_matches_trial_division():
    assert list(primes_upto(200)) == oracles.trial_division_primes(200)


def test_sieve_segment_matches_direct():
    table = sieve_primes(1000, 2000)
    direct = [p for p in oracles.trial_division_primes(2000) if p >= 1000]
    assert list(table.primes()) == direct


def test_sieve_roundtrip(tmp_path):
    table = sieve_primes(2, 10_000)
    path = str(tmp_path / "primes_10000.fpl")
    save_sieve(table, path)
    back = load_sieve(path)
    assert back.lo == table.lo and back.hi == table.hi
    assert np.array_equal(back.primes(), table.primes())
    assert np.array_equal(back.is_prime, table.is_prime)


def _assert_listing_is_flagged_primes(table):
    got, want = table.primes(), oracles.flagged_primes(table)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("lo, hi", [(2, 10_000), (3, 10_000), (4, 10_001),
                                    (5, 9_999), (9, 10_000), (10, 10_001),
                                    (2, 3), (3, 4), (2, 4), (24, 29), (90, 97)])
def test_primes_listing_matches_every_flag(lo, hi):
    # (24, 29) and (90, 97) hold no prime
    _assert_listing_is_flagged_primes(sieve_primes(lo, hi))


@pytest.mark.parametrize("t_lo", [2, 501])
def test_primes_listing_of_range_reads(tmp_path, t_lo):
    # the reads start at byte edges t_lo + 8 b: even lo for an even t_lo,
    # odd lo for an odd one
    path = str(tmp_path / "primes_10003.fpl")
    save_sieve(sieve_primes(t_lo, 10_003), path)
    for lo, hi in ((t_lo, t_lo + 1), (t_lo, 90), (t_lo + 8, 800), (700, 701),
                   (t_lo + 79, 9_000), (9_990, 10_003), (None, None)):
        part = load_sieve(path, lo, hi)
        assert lo is None or (part.lo - t_lo) % 8 == 0
        _assert_listing_is_flagged_primes(part)


@pytest.mark.parametrize("lo, hi", [(1, 100), (0, 100), (100, 100),
                                    (101, 100), (2, 2 ** 48 + 1)])
def test_sieve_rejects_bad_ranges(lo, hi):
    with pytest.raises(ArgumentError):
        sieve_primes(lo, hi)


def test_sieve_length_budget_checked_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as exc:
            sieve_primes(2, 2 ** 31 + 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.estimate == 2 ** 31 + 1
    assert exc.value.budget == 2 ** 31
    assert peak < 1 << 20     # far below one byte per integer of the range


def test_sieve_across_a_segment_edge():
    # segments start at lo, so the internal edge sits at lo + 2^20
    lo, edge = 10 ** 6, 10 ** 6 + 2 ** 20
    hi = edge + 5000
    table = sieve_primes(lo, hi)
    ps = primes_upto(hi - 1)
    assert np.array_equal(table.primes(), ps[ps >= lo])
    near = range(edge - 5000, hi)
    assert ([bool(table.is_prime[n - lo]) for n in near]
            == [is_prime(n) for n in near])


@pytest.mark.parametrize("size", [10, 100])
def test_load_sieve_rejects_truncated_file(tmp_path, size):
    # 10 bytes cuts into the 20-byte header, 100 bytes into the bitmap
    path = tmp_path / "primes_10000.fpl"
    save_sieve(sieve_primes(2, 10_000), str(path))
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(ArgumentError, match="truncated"):
        load_sieve(str(path))


@pytest.mark.parametrize("t_lo", [2, 501])
@pytest.mark.parametrize("lo_off, hi_off", [
    (80, 800), (79, 801), (81, 799),       # byte edges, one off each edge
    (0, 500), (5000, None), (0, None),     # the header's lo, the header's hi
    (83, 86), (-1, None)])                 # inside one byte, the last flag
def test_load_sieve_range_matches_whole_file(tmp_path, t_lo, lo_off, hi_off):
    t_hi = 10_003          # 9_502 or 10_001 flags: the last byte is partial
    path = str(tmp_path / "primes_10003.fpl")
    save_sieve(sieve_primes(t_lo, t_hi), path)
    lo = t_lo + lo_off if lo_off >= 0 else t_hi + lo_off
    hi = t_hi if hi_off is None else t_lo + hi_off
    whole = load_sieve(path).primes()
    part = load_sieve(path, lo, hi)
    # only the bytes that hold [lo, hi) are read
    assert part.lo <= lo and (part.lo - t_lo) % 8 == 0 and lo - part.lo < 8
    assert part.hi >= hi and (part.hi == t_hi or (part.hi - t_lo) % 8 == 0)
    assert part.hi - hi < 8 and len(part.is_prime) == part.hi - part.lo
    ps = part.primes()
    assert np.array_equal(ps[(ps >= lo) & (ps < hi)],
                          whole[(whole >= lo) & (whole < hi)])


def test_range_read_detects_a_file_short_by_its_last_byte(tmp_path):
    path = tmp_path / "primes_10000.fpl"
    save_sieve(sieve_primes(2, 10_000), str(path))
    path.write_bytes(path.read_bytes()[:-1])
    for lo, hi in ((2, 10), (2, 100), (90, 200), (None, None)):
        with pytest.raises(ArgumentError, match="truncated"):
            load_sieve(str(path), lo, hi)


def test_factor_reconstructs_and_is_sorted():
    for n in (2, 60, 97, 1024, 123456):
        f = factor(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p ** e
        assert prod == n
        assert list(f.factors) == sorted(f.factors)


def test_factor_square_roots_at_the_trial_edge():
    # the trial primes are cut at isqrt(n): p^2 needs p itself, and p q
    # with q just past the trial range needs the cofactor path
    p, q = 999_983, 1_000_003   # largest prime below 10^6, smallest above
    assert factor(p * p).factors == ((p, 2),)
    assert factor(p * q).factors == ((p, 1), (q, 1))
    assert factor(4 * 999_979 * 999_983).factors == ((2, 2), (999_979, 1),
                                                     (p, 1))


@given(st.integers(min_value=2, max_value=50_000))
@settings(max_examples=200, deadline=None)
def test_factor_agrees_with_trial_division(n):
    assert dict(factor(n).factors) == oracles.trial_factor(n)


def test_mobius_and_range_agree_with_direct():
    mr = mobius_range(300)
    for n in range(1, 301):
        assert mobius(n) == oracles.mobius_direct(n) == mr[n]


def test_mobius_multiplicative_on_coprimes():
    for m in range(1, 40):
        for n in range(1, 40):
            if math.gcd(m, n) == 1:
                assert mobius(m * n) == mobius(m) * mobius(n)


def test_von_mangoldt_values():
    vr = von_mangoldt_range(200)
    for n in range(1, 201):
        lam = oracles.von_mangoldt_direct(n)
        assert abs(vr[n] - lam) < 1e-12


def test_chebyshev_sum_consistency():
    # sum of Lambda over n <= x equals sum over prime powers of log p
    vr = von_mangoldt_range(5000)
    direct = 0.0
    for p in oracles.trial_division_primes(5000):
        pk = p
        while pk <= 5000:
            direct += math.log(p)
            pk *= p
    assert abs(vr.sum() - direct) < 1e-8


def test_tau_k_small_cases():
    for n in (1, 2, 12, 60):
        for k in (1, 2, 3, 4):
            assert tau_k(n, k) == oracles.tau_k_direct(n, k)


@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=400))
@settings(max_examples=100, deadline=None)
def test_tau_2_is_divisor_count_and_multiplicative(m, n):
    assert tau_k(m, 2) == len(divisors(m))
    if math.gcd(m, n) == 1:
        assert tau_k(m * n, 3) == tau_k(m, 3) * tau_k(n, 3)


def test_divisors_sorted_complete():
    assert divisors(60) == [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]


def test_inv_mod_and_table():
    for q in (7, 10, 36, 97):
        inv = unit_inverses(q)
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                assert (a * oracles.inv_mod(a, q)) % q == 1
                assert inv[a] == oracles.inv_mod(a, q)
            else:
                assert inv[a] == -1
    with pytest.raises(ValueError):
        oracles.inv_mod(4, 8)


@pytest.mark.parametrize("qs", [range(1, 601), (65536, 99990, 99991)],
                         ids=["q<=600", "large"])
def test_unit_inverses_match_pow(qs):
    for q in qs:
        want = [pow(l, -1, q) if math.gcd(l, q) == 1 and q > 1 else -1
                for l in range(q)]
        assert unit_inverses(q).tolist() == want, q


def test_primitive_root_generates():
    for p in (3, 5, 7, 11, 13, 97):
        g = primitive_root(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        assert len(seen) == p - 1
    # prime power case: g generates (Z/p^e)^x
    g = primitive_root(3, 2)
    seen, x = set(), 1
    for _ in range(6):
        x = x * g % 9
        seen.add(x)
    assert len(seen) == 6


def test_smallest_factor_range():
    sf = smallest_factor_range(500)
    for n in range(2, 501):
        assert n % sf[n] == 0
        assert is_prime(int(sf[n]))
        assert all(n % d != 0 for d in range(2, int(sf[n])))


def _mobius_spf_loop(nmax):
    """mu by the per-n recursion over smallest prime factors."""
    spf = smallest_factor_range(nmax)
    mu = np.zeros(nmax + 1, dtype=np.int8)
    mu[1] = 1
    for n in range(2, nmax + 1):
        p = spf[n]
        m = n // p
        mu[n] = 0 if m % p == 0 else -mu[m]
    return mu


def _von_mangoldt_spf_loop(nmax):
    """Lambda by dividing out each n's smallest prime factor."""
    spf = smallest_factor_range(nmax)
    lam = np.zeros(nmax + 1, dtype=np.float64)
    for n in range(2, nmax + 1):
        p = int(spf[n])
        m = n
        while m % p == 0:
            m //= p
        if m == 1:
            lam[n] = math.log(p)
    return lam


# with numpy 2.4 on x86-64, 285343 is the smallest prime whose np.log differs
# from math.log (in the last bit), so 3 * 10^5 catches a sieve using np.log
@pytest.mark.parametrize("nmax", list(range(1, 65))
                         + [10**5, 10**5 + 1, 3 * 10**5])
def test_range_sieves_equal_spf_loops(nmax):
    for got, want in ((mobius_range(nmax), _mobius_spf_loop(nmax)),
                      (von_mangoldt_range(nmax), _von_mangoldt_spf_loop(nmax))):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_range_sieves_reject_empty_range():
    for fn in (mobius_range, von_mangoldt_range):
        with pytest.raises(ArgumentError):
            fn(0)


@pytest.mark.parametrize("lo", [0, 1, 2, 3, 4, 8, 9, 25, 26])
def test_von_mangoldt_window_is_a_slice_of_the_full_range(lo):
    # [lo, nmax] is sieved alone: prime powers at lo (4, 8, 9, 25) and a
    # window of one entry (nmax = lo) keep every bit
    for nmax in (lo, lo + 1, 4096, 5000):
        if nmax < 1:
            with pytest.raises(ArgumentError):
                von_mangoldt_range(nmax, lo)
            continue
        got, want = von_mangoldt_range(nmax, lo), von_mangoldt_range(nmax)[lo:]
        assert got.dtype == want.dtype and len(got) == nmax - lo + 1
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_von_mangoldt_window_must_lie_in_the_range():
    for nmax, lo in ((10, -1), (10, 11), (0, 0)):
        with pytest.raises(ArgumentError):
            von_mangoldt_range(nmax, lo)


def test_is_prime_large_deterministic():
    # spot checks around known strong-pseudoprime trouble spots
    assert is_prime(2_147_483_647)          # 2^31 - 1
    assert not is_prime(3_215_031_751)      # strong pseudoprime to 2,3,5,7
    assert is_prime(1_000_000_007)
    assert not is_prime(1_000_000_007 * 998_244_353)
