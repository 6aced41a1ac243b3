import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracprimes.arith import primes_upto
from fracprimes.charkloost import (character_group, chi_values, gauss_sum,
                                   is_primitive, kloosterman, kloosterman_table,
                                   weil_bound, weil_margin_table)
from fracprimes.errors import ArgumentError, ResourceLimitError

import oracles
from oracles import value_matrix


def _row_key(row):
    return tuple((round(complex(x).real, 8), round(complex(x).imag, 8))
                 for x in row)


@pytest.mark.parametrize("q", [5, 7, 8, 9, 12, 15, 16, 21, 24, 36])
def test_character_group_matches_brute_homomorphisms(q):
    tbl = character_group(q)
    assert tbl.phi == oracles.phi_direct(q)
    lib = sorted(_row_key(chi_values(tbl, i)) for i in range(tbl.phi))
    brute = sorted(_row_key(row) for row in oracles.chi_table_brute(q))
    assert lib == brute


@pytest.mark.parametrize("qs", [range(3, 401), [512, 729, 1024, 2048, 2187],
                                [3072, 3125, 9973], [65536], [99991]],
                         ids=["3..400", "2^9..3^7", "3072..9973", "2^16", "99991"])
def test_character_group_matches_loop_oracle(qs):
    for q in qs:
        tbl = character_group(q)
        want = dict(zip(("exponents", "dlog", "orders", "unit_mask"),
                        oracles.character_table_loop(q)))
        for name, arr in want.items():
            got = getattr(tbl, name)
            assert got.dtype == arr.dtype, (q, name)
            assert np.array_equal(got, arr), (q, name)


@pytest.mark.parametrize("qs", [range(3, 401), [2401, 3125, 4913]],
                         ids=["3..400", "7^4,5^5,17^3"])
def test_primitive_count_matches_product_formula(qs):
    for q in qs:
        tbl = character_group(q)
        got = sum(is_primitive(tbl, i) for i in range(tbl.phi))
        assert got == oracles.primitive_count(q), q


def test_is_primitive_index_range():
    tbl = character_group(7)
    for idx in (-1, tbl.phi):
        with pytest.raises(ArgumentError):
            is_primitive(tbl, idx)


def test_q5_order_four_character():
    tbl = character_group(5)
    assert tbl.phi == 4
    vals = {complex(chi_values(tbl, i)[2]) for i in range(4)}
    assert any(abs(v - 1j) < 1e-12 for v in vals)
    assert any(abs(v + 1j) < 1e-12 for v in vals)


def test_principal_character_on_units():
    for q in (5, 8, 12, 30):
        tbl = character_group(q)
        row = chi_values(tbl, 0)
        for n in range(q):
            expected = 1.0 if math.gcd(n, q) == 1 else 0.0
            assert abs(row[n] - expected) < 1e-12


def test_chi_zero_off_units_and_multiplicative():
    rng = np.random.default_rng(5)
    for q in (7, 12, 45):
        tbl = character_group(q)
        for _ in range(40):
            idx = int(rng.integers(0, tbl.phi))
            m = int(rng.integers(1, 300))
            n = int(rng.integers(1, 300))
            row = chi_values(tbl, idx)
            lhs = complex(row[m * n % q])
            rhs = complex(row[m % q]) * complex(row[n % q])
            assert abs(lhs - rhs) < 1e-10
            assert abs(lhs - oracles.chi_eval(tbl, idx, m * n)) < 1e-12
        for n in range(q):
            if math.gcd(n, q) > 1:
                assert chi_values(tbl, 1 % tbl.phi)[n] == 0
                assert oracles.chi_eval(tbl, 1 % tbl.phi, n) == 0


def test_gauss_sum_primitive_modulus():
    tbl = character_group(7)
    for i in range(tbl.phi):
        if is_primitive(tbl, i):
            assert abs(abs(gauss_sum(tbl, i, 1)) - math.sqrt(7)) < 1e-9


def test_gauss_sum_twist_identity():
    for q in (7, 9, 12):
        tbl = character_group(q)
        for idx in range(tbl.phi):
            if not is_primitive(tbl, idx):
                continue
            base = gauss_sum(tbl, idx, 1)
            for s in range(1, q):
                if math.gcd(s, q) != 1:
                    continue
                expect = complex(chi_values(tbl, idx)[s]).conjugate() * base
                assert abs(gauss_sum(tbl, idx, s) - expect) < 1e-9


def test_gauss_sum_principal_is_ramanujan():
    for q in (7, 13, 31):
        tbl = character_group(q)
        for s in (1, 2, q - 1):
            assert abs(gauss_sum(tbl, 0, s) - (-1.0)) < 1e-9


def test_gauss_sum_matches_brute():
    for q in (7, 12, 15):
        tbl = character_group(q)
        brute_rows = oracles.chi_table_brute(q)
        for i in range(tbl.phi):
            row = [complex(x) for x in chi_values(tbl, i)]
            # find the matching brute character, then compare gauss sums
            match = next(r for r in brute_rows
                         if max(abs(a - b) for a, b in zip(row, r)) < 1e-9)
            for s in (1, 2, 3):
                assert abs(gauss_sum(tbl, i, s)
                           - oracles.gauss_sum_brute(match, q, s)) < 1e-9


def test_orthogonality_project_examples():
    t5 = character_group(5)
    assert abs(oracles.orthogonality_project(t5, 2, 2) - 1.0) <= 1e-10
    assert abs(oracles.orthogonality_project(t5, 2, 3)) <= 1e-10
    t12 = character_group(12)
    assert abs(oracles.orthogonality_project(t12, 5, 7)) <= 1e-10
    with pytest.raises(ValueError):
        oracles.orthogonality_project(t5, 5, 2)
    # the library's value matrix gives the same projections
    for tbl in (t5, t12, character_group(36)):
        V = value_matrix(tbl)
        for a in range(1, tbl.q):
            if math.gcd(a, tbl.q) == 1:
                for m in range(tbl.q):
                    got = float(np.real(np.vdot(V[:, a], V[:, m]))) / tbl.phi
                    assert abs(got - oracles.orthogonality_project(tbl, a, m)) <= 1e-10


@pytest.mark.parametrize("q", [5, 8, 12, 36, 97])
def test_value_matrix_orthogonality(q):
    tbl = character_group(q)
    V = value_matrix(tbl)
    assert V.shape == (tbl.phi, q)
    # rows: (1/q-ish) chi chi' ... use the unit-restricted inner product
    G = V @ V.conj().T
    assert np.allclose(G, tbl.phi * np.eye(tbl.phi) * 0 + np.diag(np.diag(G)),
                       atol=1e-9)
    assert np.allclose(np.diag(G).real, oracles.phi_direct(q), atol=1e-9)
    # columns: projector onto each unit residue
    P = V.conj().T @ V / tbl.phi
    expect = np.zeros((q, q))
    for a in range(q):
        if math.gcd(a, q) == 1:
            expect[a, a] = 1.0
    assert np.max(np.abs(P - expect)) <= 1e-10


def test_kloosterman_examples():
    assert abs(kloosterman(3, 1, 1).value - (-1.0)) <= 1e-12
    assert abs(kloosterman(5, 0, 1).value - (-1.0)) <= 1e-12
    kv = kloosterman(7, 1, 1)
    assert kv.weil_bound == pytest.approx(2 * math.sqrt(7))
    assert kv.margin > 0


def test_kloosterman_matches_brute():
    rng = np.random.default_rng(3)
    for _ in range(60):
        q = int(rng.integers(2, 40))
        u = int(rng.integers(0, q))
        v = int(rng.integers(0, q))
        direct = oracles.kloosterman_brute(q, u, v)
        kv = kloosterman(q, u, v)
        assert abs(kv.value - direct.real) <= 1e-9
        assert abs(direct.imag) <= 1e-9
        assert kv.imag_residual <= 1e-9


def test_kloosterman_symmetry_and_twist():
    rng = np.random.default_rng(17)
    for _ in range(200):
        q = int(rng.integers(2, 60))
        u = int(rng.integers(0, q))
        v = int(rng.integers(0, q))
        assert abs(kloosterman(q, u, v).value
                   - kloosterman(q, v, u).value) <= 1e-9
        a = int(rng.integers(1, q)) if q > 1 else 1
        if math.gcd(a, q) == 1:
            assert abs(kloosterman(q, a * u % q, v).value
                       - kloosterman(q, u, a * v % q).value) <= 1e-9


def test_kloosterman_multiplicativity_crt():
    rng = np.random.default_rng(23)
    pairs = [(3, 5), (4, 9), (7, 8), (5, 11)]
    for q1, q2 in pairs:
        q = q1 * q2
        for _ in range(20):
            u = int(rng.integers(0, q))
            v = int(rng.integers(0, q))
            lhs = kloosterman(q, u, v).value
            # S_{q1 q2}(u, v) = S_{q1}(u q2bar, v q2bar) S_{q2}(u q1bar, v q1bar)
            q2b = oracles.inv_mod(q2 % q1, q1) if q1 > 1 else 0
            q1b = oracles.inv_mod(q1 % q2, q2) if q2 > 1 else 0
            rhs = (kloosterman(q1, u * q2b % q1, v * q2b % q1).value
                   * kloosterman(q2, u * q1b % q2, v * q1b % q2).value)
            assert abs(lhs - rhs) <= 1e-9


def test_weil_margin_never_negative_sampled():
    rng = np.random.default_rng(29)
    for _ in range(300):
        q = int(rng.integers(2, 120))
        u = int(rng.integers(0, q))
        v = int(rng.integers(0, q))
        assert kloosterman(q, u, v).margin >= -1e-9
        assert abs(weil_bound(q, u, v)
                   - oracles.tau_k_direct(q, 2) * math.sqrt(q)
                   * math.sqrt(math.gcd(u, math.gcd(v, q)))) <= 1e-9


def test_weil_table_consistent_with_scalar():
    for q in (13, 24):
        vals, imag_max = kloosterman_table(q)
        assert imag_max <= 1e-9
        margins = weil_margin_table(q)
        assert margins.shape == (q, q)
        for u in (0, 1, q - 1):
            for v in (0, 2, q - 1):
                assert abs(vals[u, v] - kloosterman(q, u, v).value) <= 1e-9
                assert abs(margins[u, v] - kloosterman(q, u, v).margin) <= 1e-9
        assert (margins >= -1e-9).all()


# prime powers and highly composite q have a large non-unit block
_FFT2_MODULI = [int(p) for p in primes_upto(499)] + [
    2, 3, 4, 8, 9, 12, 16, 24, 25, 27, 30, 32, 49, 60, 64, 210, 360]


@pytest.mark.parametrize("q", _FFT2_MODULI)
def test_kloosterman_table_matches_fft2(q):
    vals, imag_max = kloosterman_table(q)
    want, _ = oracles.kloosterman_table_fft2(q)
    assert vals.shape == (q, q)
    assert np.abs(vals - want).max() <= 1e-9 * q
    assert imag_max <= 1e-9
    margins = weil_margin_table(q)
    assert np.abs(margins - oracles.weil_margins_fft2(q)).max() <= 1e-9 * q


_BITWISE_MODULI = sorted(set(range(2, 131)) | set(primes_upto(499).tolist())
                         | {210, 256, 360, 420, 500})


@pytest.mark.parametrize("q", _BITWISE_MODULI)
def test_tables_match_unit_gather_and_q2_bound_bitwise(q):
    # the full-grid gather and the divisor-grid Weil bound change no bit
    vals, imag_max = kloosterman_table(q)
    want, want_imag = oracles.kloosterman_table_unit_gather(q)
    assert np.array_equal(vals.view(np.uint64), want.view(np.uint64))
    assert imag_max == want_imag
    margins = weil_margin_table(q)
    want = oracles.weil_margins_q2(q)
    assert np.array_equal(margins.view(np.uint64), want.view(np.uint64))


def test_degenerate_kloosterman_is_phi():
    for q in (7, 12):
        assert abs(kloosterman(q, 0, 0).value - oracles.phi_direct(q)) <= 1e-12


def test_kloosterman_table_budget():
    # q = 4099 would allocate a 4099 x 4099 table: refused before that
    for table in (kloosterman_table, weil_margin_table):
        with pytest.raises(ResourceLimitError) as exc:
            table(4099)
        assert (exc.value.estimate, exc.value.budget) == (4099, 4096)


def test_kloosterman_sum_budget():
    # the per-q budget of character_group (the CLI tests take q = 10^8,
    # which looped for minutes, and 10^10, 74.5 GiB of unit inverses)
    assert kloosterman(10 ** 5, 1, 1).margin >= -1e-9
    with pytest.raises(ResourceLimitError) as exc:
        kloosterman(10 ** 5 + 1, 1, 1)
    assert (exc.value.estimate, exc.value.budget) == (10 ** 5 + 1, 10 ** 5)


def test_character_group_budget():
    with pytest.raises((ArgumentError, ResourceLimitError)):
        character_group(2 * 10 ** 5)
