import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracprimes.arith import mobius_range
from fracprimes.decomp import (DyadicTuple, TypeWitness, _dirichlet_convolve,
                               _tau_chain, classify_dyadic,
                               classify_exponents, hb_residual_scan,
                               hb_signed_total_range, heath_brown_terms,
                               verify_dyadic_witness, verify_witness)
from fracprimes.errors import ArgumentError, ResourceLimitError

import oracles


# ---------------------------------------------------------------------------
# Heath-Brown identity

def test_hb_n4_k2_hand_enumeration():
    t = heath_brown_terms(4, k=2, V=2)
    assert abs(t.total() - math.log(2)) < 1e-12
    # j=1 contributes 2(log4 - log2), j=2 contributes -log2
    j1 = sum(x.sign * x.binom * x.weight for x in t.terms if len(x.d) == 2)
    j2 = sum(x.sign * x.binom * x.weight for x in t.terms if len(x.d) == 4)
    assert abs(j1 - 2 * math.log(2)) < 1e-12
    assert abs(j2 + math.log(2)) < 1e-12


def test_hb_n1_total_zero():
    assert heath_brown_terms(1, k=5, V=1).total() == 0.0


def test_hb_n97_matches_brute_oracle():
    t = heath_brown_terms(97, k=5, V=3)
    assert abs(t.total() - math.log(97)) < 1e-12
    brute = sorted((s, b, d, round(w, 10))
                   for s, b, d, w in oracles.hb_terms_brute(97, 5, 3))
    lib = sorted((x.sign, x.binom, tuple(x.d), round(x.weight, 10))
                 for x in t.terms)
    assert brute == lib


@pytest.mark.parametrize("n", [2, 12, 30, 64, 128, 210, 243, 360])
def test_hb_term_lists_match_brute_oracle(n):
    V = math.ceil(n ** 0.2) + 1
    t = heath_brown_terms(n, k=5, V=V)
    brute = sorted((s, b, d, round(w, 10))
                   for s, b, d, w in oracles.hb_terms_brute(n, 5, V))
    lib = sorted((x.sign, x.binom, tuple(x.d), round(x.weight, 10))
                 for x in t.terms)
    assert brute == lib
    assert abs(t.total() - oracles.von_mangoldt_direct(n)) < 1e-9


@pytest.mark.parametrize("k", range(1, 7))
def test_hb_terms_match_in_order_enumeration(k):
    # the terms in order, their weights and total() bit for bit, and the
    # omitted count, against a nested enumeration of every tuple; at k = 6
    # the census of n = 720 and 840 exceeds the default budget
    for n in [*range(1, 401), 720, 840, 1000]:
        t = heath_brown_terms(n, k=k, budget=10**7)
        V = math.ceil(n ** (1 / k)) + 1
        want, omitted = oracles.hb_terms_in_order(n, k, V)
        assert t.V == V
        assert list(t.terms) == want
        weights = np.array([[x.weight for x in t.terms],
                            [w[3] for w in want]]).reshape(2, -1)
        assert np.array_equal(*weights.view(np.uint64))
        total = float(sum(s * b * w for s, b, _, w in want))
        assert t.total().hex() == total.hex()
        assert t.omitted_zero_weight == omitted


def test_hb_term_invariants():
    t = heath_brown_terms(360, k=5, V=4)
    for x in t.terms:
        prod = 1
        for d in x.d:
            prod *= d
        assert prod == 360
        j = len(x.d) // 2
        assert x.sign == (-1) ** (j - 1)
        assert x.binom == math.comb(5, j)
        assert all(d <= 4 for d in x.d[j:])


def test_hb_residual_scan_small():
    resid = hb_residual_scan(500)
    assert resid[2:].max() <= 1e-9


def test_hb_signed_totals_equal_lambda():
    totals = hb_signed_total_range(300)
    for n in range(2, 301):
        assert abs(totals[n] - oracles.von_mangoldt_direct(n)) <= 1e-9


def test_hb_budget_guard():
    with pytest.raises(ResourceLimitError):
        heath_brown_terms(720720, k=5, V=30, budget=100)


def test_hb_argument_validation():
    with pytest.raises(ArgumentError):
        heath_brown_terms(0, k=5, V=2)
    with pytest.raises(ArgumentError):
        heath_brown_terms(10, k=7, V=2)
    with pytest.raises(ArgumentError):
        heath_brown_terms(10 ** 3, k=2, V=2)  # n > V^k validity range


def _same_bits_as_loop(a, b):
    c = _dirichlet_convolve(a, b)
    assert c.tobytes() == oracles.dirichlet_convolve_loop(a, b).tobytes()


def _random_sparse(rng, n, density):
    # magnitudes over 16 decades, so any change of summation order shows
    x = rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-8, 8, n + 1)
    x[rng.random(n + 1) >= density] = 0.0
    return x


def test_dirichlet_convolve_matches_loop_bit_for_bit():
    rng = np.random.default_rng(1914)
    for trial in range(80):
        n = int(rng.integers(0, 600))
        a = _random_sparse(rng, n, rng.random())
        b = _random_sparse(rng, n, rng.random())
        if trial % 4 == 0 and n >= 1:
            a[1] = 0.0
        _same_bits_as_loop(a, b)
        _same_bits_as_loop(b, a)
    for n in (0, 1, 500):
        zero = np.zeros(n + 1)
        dense = _random_sparse(rng, n, 1.0)
        _same_bits_as_loop(zero, zero)
        _same_bits_as_loop(zero, dense)
        _same_bits_as_loop(dense, zero)
    # one orientation each way, a sparse side of 5 against a dense one
    dense = _random_sparse(rng, 2000, 1.0)
    sparse = np.zeros(2001)
    sparse[[1, 2, 3, 7, 1999]] = [-1.0, 3e-9, -4e7, 0.5, -2.0]
    _same_bits_as_loop(dense, sparse)
    _same_bits_as_loop(sparse, dense)


def test_dirichlet_convolve_matches_loop_on_hb_scan_arguments():
    # the pairs hb_signed_total_range(4000) convolves: L_j against the
    # mu-block powers M_V^{*j} for its V = 3..7, and the powers' own chain
    nmax, k = 4000, 5
    mu = mobius_range(nmax).astype(np.float64)
    logs = np.zeros(nmax + 1)
    logs[1:] = np.log(np.arange(1, nmax + 1, dtype=np.float64))
    tau = dict(enumerate(oracles.tau_chain_convolution(k, nmax), 1))
    for v in range(3, 8):
        mu_v = mu.copy()
        mu_v[v + 1 :] = 0.0
        conv = mu_v
        for j in range(1, k + 1):
            if j > 1:
                _same_bits_as_loop(conv, mu_v)
                conv = oracles.dirichlet_convolve_loop(conv, mu_v)
            lj = logs * tau[j] / j
            assert np.count_nonzero(conv) < np.count_nonzero(lj)
            _same_bits_as_loop(lj, conv)


@pytest.mark.parametrize("nmax", [2, 3000, 20000])
def test_tau_sieve_matches_convolution_chain(nmax):
    want = oracles.tau_chain_convolution(7, nmax)
    for k in range(1, 8):
        got = _tau_chain(k, nmax)
        assert got.shape == (k, nmax + 1)
        for row, ref in zip(got, want):
            assert np.array_equal(row, ref)


def test_tau_sieve_rounds_and_does_not_wrap_past_int64():
    # tau_150(2^14) = C(163, 14) and tau_150(2^12 3) pass 2^63; float64 must
    # round them (at most one rounding per prime-power step), not wrap
    k = 150
    got = _tau_chain(k, 2 ** 14)[-1]
    for n, want in ((2 ** 14, math.comb(14 + k - 1, 14)),
                    (2 ** 12 * 3, math.comb(12 + k - 1, 12) * k)):
        assert want > 2 ** 63
        assert abs(got[n] - want) <= 1e-13 * want


# ---------------------------------------------------------------------------
# Lemma-style exponent classifier

def test_classifier_type_i_example():
    wits = classify_exponents((0.7, 0.3), 0.1 + 1e-6)
    assert any(w.kind == "I" and w.witness == (1,) for w in wits)


def test_classifier_type_ii_example():
    wits = classify_exponents((0.5, 0.5), 0.1 + 1e-6)
    assert any(w.kind == "II" and w.witness == ((1,), (2,)) for w in wits)


def test_classifier_type_iii_example():
    wits = classify_exponents((0.35, 0.35, 0.30), 0.15)
    assert any(w.kind == "III" for w in wits)


def test_classifier_no_type_iii_above_sixth():
    rng = np.random.default_rng(11)
    for _ in range(400):
        t = rng.dirichlet(np.ones(rng.integers(2, 7)))
        wits = classify_exponents(tuple(float(x) for x in t), 0.2)
        assert wits, "classifier must never come back empty"
        assert all(w.kind != "III" for w in wits)


def test_classifier_witnesses_reverify():
    rng = np.random.default_rng(13)
    for _ in range(400):
        t = tuple(float(x) for x in rng.dirichlet(np.ones(rng.integers(2, 7))))
        sigma = float(rng.uniform(0.1 + 1e-3, 0.5 - 1e-3))
        wits = classify_exponents(t, sigma)
        assert wits
        for w in wits:
            assert verify_witness(t, sigma, w)


def test_classifier_validation():
    with pytest.raises(ArgumentError):
        classify_exponents((0.7, 0.2), 0.15)          # not normalized
    with pytest.raises(ArgumentError):
        classify_exponents((0.5, 0.5), 0.05)          # sigma too small
    with pytest.raises(ArgumentError):
        classify_exponents((0.5, 0.5), 0.5)           # sigma too large
    with pytest.raises(ArgumentError):
        classify_exponents((-0.1, 1.1), 0.15)


@pytest.mark.parametrize("t, sigma, w", [
    ((0.3, 0.7), 0.15, TypeWitness("I", (0,))),
    ((0.3, 0.7), 0.15, TypeWitness("I", (3,))),
    ((0.35, 0.35, 0.30), 0.15, TypeWitness("III", (0, 1, 2))),
    ((0.35, 0.35, 0.30), 0.15, TypeWitness("III", (2, 3, 4))),
    ((0.35, 0.35, 0.30), 0.15, TypeWitness("III", (1, 2, 3, 3)))],
    ids=["I-0", "I-past-end", "III-0", "III-past-end", "III-four"])
def test_verify_witness_rejects_malformed_indices(t, sigma, w):
    # index 0 would wrap around to the last exponent, which qualifies
    assert verify_witness(t, sigma, w) is False


@given(st.integers(min_value=2, max_value=6),
       st.floats(min_value=0.101, max_value=0.499),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=150, deadline=None)
def test_classifier_never_empty_property(parts, sigma, seed):
    t = tuple(float(x) for x in
              np.random.default_rng(seed).dirichlet(np.ones(parts)))
    wits = classify_exponents(t, sigma)
    assert wits
    for w in wits:
        assert verify_witness(t, sigma, w)
    if sigma > 1 / 6:
        assert all(w.kind != "III" for w in wits)


# ---------------------------------------------------------------------------
# dyadic classifier

X1 = 1.0e6


def test_dyadic_type_i():
    dt = DyadicTuple(D=(X1 ** 0.62, X1 ** 0.38) + (1.0,) * 8,
                     X1=X1, Y1=2 * X1, eps1=0.01)
    wits = classify_dyadic(dt)
    assert wits[0].kind == "I" and wits[0].witness == (1,)
    for w in wits:
        assert verify_dyadic_witness(dt, w)


def test_dyadic_type_ii_midpoint():
    dt = DyadicTuple(D=(X1 ** 0.25,) * 4 + (1.0,) * 6,
                     X1=X1, Y1=2 * X1, eps1=0.01)
    wits = classify_dyadic(dt)
    assert any(w.kind == "II" for w in wits)
    lead = next(w for w in wits if w.kind == "II")
    s_part = lead.witness[0]
    got = math.prod(dt.D[i - 1] for i in s_part)
    lo, hi = X1 ** (0.4 - 0.01), X1 ** (0.6 + 0.01)
    assert lo <= got <= hi
    for w in wits:
        assert verify_dyadic_witness(dt, w)


def test_dyadic_type_iii():
    dt = DyadicTuple(D=(X1 ** (1 / 3),) * 3 + (1.0,) * 7,
                     X1=X1, Y1=2 * X1, eps1=0.05)
    wits = classify_dyadic(dt)
    assert any(w.kind == "III" for w in wits)
    for w in wits:
        assert verify_dyadic_witness(dt, w)


def test_dyadic_invariant_validation():
    with pytest.raises(ArgumentError):
        # product of the D_i falls below X1
        classify_dyadic(DyadicTuple(D=(X1 ** 0.3,) + (1.0,) * 9,
                                    X1=X1, Y1=2 * X1, eps1=0.01))


def test_dyadic_type_ii_window_includes_its_slack_edges():
    # sum_S e for S = {1} sits within the slack of 2/5 - eps1; the verifier
    # accepts it, so the search must find it too
    dt = DyadicTuple(D=(X1 ** 0.39, X1 ** 0.61) + (1.0,) * 8,
                     X1=X1, Y1=2 * X1, eps1=0.01)
    wits = classify_dyadic(dt)
    assert [(w.kind, w.witness) for w in wits] == [
        ("I", (2,)), ("II", ((1,), tuple(range(2, 11))))]
    for w in wits:
        assert verify_dyadic_witness(dt, w)


def test_dyadic_finds_type_ii_whenever_the_verifier_accepts_one():
    rng = np.random.default_rng(29)
    subsets = [S for r in range(1, 10)
               for S in itertools.combinations(range(1, 11), r)]
    for _ in range(60):
        e = rng.dirichlet(np.full(10, 0.5)) * rng.uniform(1.0, 1.05)
        dt = DyadicTuple(D=tuple(float(X1 ** x) for x in e),
                         X1=X1, Y1=X1 ** 1.05, eps1=float(rng.uniform(0.001, 0.19)))
        wits = classify_dyadic(dt)
        for w in wits:
            assert verify_dyadic_witness(dt, w)
        accepted = any(verify_dyadic_witness(dt, TypeWitness("II", (
            S, tuple(i for i in range(1, 11) if i not in S)))) for S in subsets)
        assert accepted == any(w.kind == "II" for w in wits)


def test_verify_dyadic_witness_needs_exactly_three_blocks():
    # (1, 2, 3) is no Type III triple (e_3 > 2/5 - eps1), but the sorted
    # values of (1, 1, 2, 3) pass every inequality in their first three
    dt = DyadicTuple(D=(X1 ** 0.31, X1 ** 0.31, X1 ** 0.45) + (1.0,) * 7,
                     X1=X1, Y1=X1 ** 1.1, eps1=0.01)
    assert not verify_dyadic_witness(dt, TypeWitness("III", (1, 2, 3)))
    assert not verify_dyadic_witness(dt, TypeWitness("III", (1, 1, 2, 3)))


def test_verify_dyadic_witness_rejects_the_heavier_side():
    # S = {1} lies in the Type II window but outweighs T: 0.55 > 0.45
    dt = DyadicTuple(D=(X1 ** 0.55, X1 ** 0.45) + (1.0,) * 8,
                     X1=X1, Y1=2 * X1, eps1=0.01)
    heavy = TypeWitness("II", ((1,), tuple(range(2, 11))))
    light = TypeWitness("II", ((2,), (1,) + tuple(range(3, 11))))
    assert not verify_dyadic_witness(dt, heavy)
    assert verify_dyadic_witness(dt, light)
    assert [w for w in classify_dyadic(dt) if w.kind == "II"] == [light]
    assert not verify_witness((0.55, 0.45), 0.11,
                              TypeWitness("II", ((1,), (2,))))
