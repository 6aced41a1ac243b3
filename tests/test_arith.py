import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracprimes.arith import (FactoredInteger, divisors, euler_phi, factor,
                              inv_mod, is_prime, load_sieve, mobius,
                              mobius_range, primes_upto, primitive_root,
                              save_sieve, sieve_primes, smallest_factor_range,
                              tau_k, unit_inverses, von_mangoldt,
                              von_mangoldt_range)
from fracprimes.errors import ArgumentError
from fracprimes.errors import ArgumentError

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
    assert np.array_equal(back.smallest_factor, table.smallest_factor)


@pytest.mark.parametrize("size", [10, 100])
def test_load_sieve_rejects_truncated_file(tmp_path, size):
    # 10 bytes cuts into the 20-byte header, 100 bytes into the bitmap
    path = tmp_path / "primes_10000.fpl"
    save_sieve(sieve_primes(2, 10_000), str(path))
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(ArgumentError, match="truncated"):
        load_sieve(str(path))


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


def test_euler_phi_matches_unit_count():
    for q in range(1, 200):
        assert euler_phi(q) == oracles.phi_direct(q)


def test_von_mangoldt_values():
    vr = von_mangoldt_range(200)
    for n in range(1, 201):
        lam = oracles.von_mangoldt_direct(n)
        assert abs(von_mangoldt(n) - lam) < 1e-12
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
                assert (a * inv_mod(a, q)) % q == 1
                assert inv[a] == inv_mod(a, q)
            else:
                assert inv[a] == -1
    with pytest.raises(ArgumentError):
        inv_mod(4, 8)


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


def test_is_prime_large_deterministic():
    # spot checks around known strong-pseudoprime trouble spots
    assert is_prime(2_147_483_647)          # 2^31 - 1
    assert not is_prime(3_215_031_751)      # strong pseudoprime to 2,3,5,7
    assert is_prime(1_000_000_007)
    assert not is_prime(1_000_000_007 * 998_244_353)
