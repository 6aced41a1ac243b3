import cmath
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracprimes.arith import euler_phi, primes_upto
from fracprimes.errors import ArgumentError, ResourceLimitError
from fracprimes.expsums import (REDUCTION_THRESHOLD, BilinearResult,
                                ExpSumSpec, FracWindow, MonomialPhase,
                                bilinear_sum, block_sum,
                                bv_discrepancy, count_pi_I, exp_sum_primes,
                                level_of_distribution, phase_sum,
                                reduced_phase, reduced_phase_array,
                                tau_moment_constant, vdc_bound,
                                weighted_sum_W)
from fracprimes.smoothing import BumpWindow, eval_bump
from fracprimes.expsums import von_mangoldt_range

import oracles


def e(x: float) -> complex:
    return cmath.exp(2j * math.pi * x)


# ---------------------------------------------------------------------------
# exp_sum_primes

def test_exp_sum_two_prime_example():
    spec = ExpSumSpec(X=10, Y=20, h=1, alpha=0.5, q=3, a=1)
    res = exp_sum_primes(spec)
    expect = e(math.sqrt(13)) + e(math.sqrt(19))
    assert res.count == 2
    assert abs(res.value - expect) < 1e-12


def test_exp_sum_empty_progression():
    # no primes ≡ 0 mod 1e? use a progression with no primes in range:
    # primes in (24, 28] ≡ 1 mod 5 — none (the only prime is none).
    spec = ExpSumSpec(X=24, Y=28, h=1, alpha=0.5, q=5, a=1)
    res = exp_sum_primes(spec)
    assert res.count == 0 and res.value == 0


def test_exp_sum_h_zero_counts_primes():
    spec = ExpSumSpec(X=10, Y=20, h=0, alpha=0.5, q=1, a=0)
    res = exp_sum_primes(spec)
    assert res.count == 4
    assert abs(res.value - 4.0) < 1e-12


def test_exp_sum_conjugation_and_trivial_bound():
    for h, alpha, q, a in [(1, 0.1, 1, 0), (3, 0.3, 4, 3), (7, 0.45, 5, 2)]:
        plus = exp_sum_primes(ExpSumSpec(X=100, Y=200, h=h, alpha=alpha, q=q, a=a))
        minus = exp_sum_primes(ExpSumSpec(X=100, Y=200, h=-h, alpha=alpha, q=q, a=a))
        assert abs(plus.value - minus.value.conjugate()) < 1e-12
        assert abs(plus.value) <= plus.count + 1e-12


def test_exp_sum_matches_brute():
    for h, alpha, q, a in [(1, 0.5, 3, 1), (2, 0.25, 1, 0), (5, 0.1, 7, 4)]:
        spec = ExpSumSpec(X=50, Y=100, h=h, alpha=alpha, q=q, a=a)
        res = exp_sum_primes(spec)
        brute = oracles.exp_sum_primes_brute(50, 100, h, alpha, q, a,
                                             primes_upto(100))
        assert abs(res.value - brute) < 1e-10


def test_exp_sum_validation():
    with pytest.raises(ArgumentError):
        ExpSumSpec(X=100, Y=300, h=1, alpha=0.5)  # Y > 2X
    with pytest.raises(ArgumentError):
        ExpSumSpec(X=100, Y=200, h=1, alpha=1.5)
    with pytest.raises(ArgumentError):
        ExpSumSpec(X=100, Y=200, h=1, alpha=0.5, q=4, a=2)  # gcd > 1


# ---------------------------------------------------------------------------
# argument reduction

def test_reduced_phase_matches_extended_precision():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 10 ** 12))
        h = int(rng.integers(1, 50))
        alpha = float(rng.uniform(0.05, 0.95))
        got = reduced_phase(h, n, alpha)
        want = oracles.reduced_phase_oracle(h, n, alpha)
        # compare as angles on the unit circle (wrap-around safe)
        diff = abs(cmath.exp(2j * math.pi * got) - cmath.exp(2j * math.pi * want))
        worst = max(worst, diff)
    assert worst < 1e-10 * 2 * math.pi


def test_reduced_phase_large_argument():
    # h * n^alpha far above 2^40 forces the double-double path
    for n, h, alpha in [(10 ** 15, 1000, 0.95), (10 ** 13, 10 ** 6, 0.9)]:
        assert h * n ** alpha > 2 ** 40
        got = reduced_phase(h, n, alpha)
        want = oracles.reduced_phase_oracle(h, n, alpha)
        assert abs(cmath.exp(2j * math.pi * got)
                   - cmath.exp(2j * math.pi * want)) < 1e-9
        assert 0.0 <= got < 1.0


def test_reduced_phase_array_agrees_with_scalar():
    ns = np.arange(10, 5000, 37, dtype=np.int64)
    arr = reduced_phase_array(3, ns, 0.3)
    for i, n in enumerate(ns[:50]):
        assert abs(arr[i] - reduced_phase(3, int(n), 0.3)) < 1e-14


def test_phase_reduction_is_thread_safe():
    # every phase here is above the float64 threshold, so all of the work is
    # extended-precision; 8 threads interleave it and must neither change a
    # bit of the results nor leave the global mpmath precision altered
    h, alpha = 5000, 0.9
    ns = np.arange(10 ** 6, 10 ** 6 + 1000, dtype=np.int64)
    assert h * float(ns[0]) ** alpha > REDUCTION_THRESHOLD
    ph = MonomialPhase(coeff=float(h), shift=0.5, exponent=alpha,
                       lo=int(ns[0]), hi=int(ns[-1]))
    jobs = [lambda: reduced_phase_array(h, ns, alpha),
            lambda: [reduced_phase(h, int(n), alpha) for n in ns[:250]],
            lambda: phase_sum(ph).value]
    prec = mpmath.mp.prec
    serial = [job() for job in jobs]
    assert mpmath.mp.prec == prec
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            futures = [ex.submit(job) for _ in range(8) for job in jobs]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(results):
        assert np.array_equal(got, serial[k % len(jobs)])
    assert mpmath.mp.prec == prec


# ---------------------------------------------------------------------------
# weighted sum W

def test_weighted_sum_matches_direct():
    w = BumpWindow(y=2.0, delta=0.2)
    spec = ExpSumSpec(X=100, Y=200, h=1, alpha=0.1, q=1, a=0)
    res = weighted_sum_W(spec, w)
    lam = von_mangoldt_range(400)
    direct = 0j
    for n in range(2, 400):
        if lam[n] == 0.0:
            continue
        psi = eval_bump(w, n / 100.0)
        if psi != 0.0:
            direct += psi * lam[n] * e(reduced_phase(1, n, 0.1))
    assert abs(res.value - direct) < 1e-10


def test_weighted_sum_residue_restriction():
    w = BumpWindow(y=2.0, delta=0.2)
    spec = ExpSumSpec(X=100, Y=200, h=1, alpha=0.1, q=5, a=2)
    res = weighted_sum_W(spec, w)
    lam = von_mangoldt_range(400)
    direct = 0j
    for n in range(2, 400):
        if lam[n] == 0.0 or n % 5 != 2:
            continue
        psi = eval_bump(w, n / 100.0)
        if psi != 0.0:
            direct += psi * lam[n] * e(reduced_phase(1, n, 0.1))
    assert abs(res.value - direct) < 1e-10


def test_weighted_sharp_smooth_difference_bounded():
    w = BumpWindow(y=2.0, delta=0.2)
    spec = ExpSumSpec(X=100, Y=200, h=1, alpha=0.1, q=1, a=0)
    res = weighted_sum_W(spec, w)
    lam = von_mangoldt_range(400)
    band = sum(lam[n] for n in range(2, 400)
               if (80 <= n < 100) or (200 <= n < 220))
    assert abs(res.value - res.sharp) <= band + 1e-9


# ---------------------------------------------------------------------------
# pi_I and the BV discrepancy

def test_count_pi_I_small_example():
    win = FracWindow(alpha=0.5, c=0.0, d=0.5)
    assert count_pi_I(10, 1, 0, win) == 2


def test_count_pi_I_full_window_is_pi():
    win = FracWindow(alpha=0.3, c=0.0, d=1.0)
    primes = primes_upto(500)
    assert count_pi_I(500, 1, 0, win) == len(primes)
    cnt_73 = count_pi_I(500, 7, 3, win)
    assert cnt_73 == sum(1 for p in primes if p % 7 == 3)


def test_count_pi_I_matches_brute():
    primes = primes_upto(2000)
    for q, a, c, d, alpha in [(1, 0, 0.0, 0.5, 0.1), (7, 3, 0.2, 0.7, 0.25),
                              (4, 1, 0.0, 0.1, 0.45)]:
        win = FracWindow(alpha=alpha, c=c, d=d)
        assert count_pi_I(2000, q, a, win) == oracles.count_pi_I_brute(
            2000, q, a, alpha, c, d, primes)


def test_count_pi_I_residue_completeness():
    win = FracWindow(alpha=0.1, c=0.0, d=0.5)
    X, q = 3000, 12
    total = count_pi_I(X, 1, 0, win)
    split = sum(count_pi_I(X, q, a, win) for a in range(q)
                if math.gcd(a, q) == 1)
    # non-coprime classes contain only the primes dividing q
    extra = sum(oracles.count_pi_I_brute(X, q, p % q, 0.1, 0.0, 0.5, [p])
                for p in (2, 3))
    assert split + extra == total


def test_bv_matches_naive_oracle():
    X, Q = 20000, 12
    win = FracWindow(alpha=0.1, c=0.0, d=0.5)
    rep = bv_discrepancy(X, Q, win)
    primes = primes_upto(X)
    brute = oracles.bv_total_brute(X, Q, 0.1, 0.0, 0.5, primes)
    assert abs(rep.total - brute) < 1e-9
    assert abs(rep.total - sum(row[2] for row in rep.per_q)) < 1e-12
    for q, worst_a, _dev in rep.per_q:
        assert math.gcd(worst_a, q) == 1


def test_bv_rows_match_gcd_loop_with_ties():
    # few primes per class, so several coprime classes tie at the maximum;
    # the row must name the smallest such a, as the per-a loop did
    X, Q = 3000, 80
    win = FracWindow(alpha=0.1, c=0.0, d=0.5)
    rep = bv_discrepancy(X, Q, win)
    pe = [p for p in primes_upto(X).tolist() if win.contains(p)]
    rows, ties = [], 0
    for q in range(2, Q + 1):
        counts = [0] * q
        for p in pe:
            counts[p % q] += 1
        expected = len(pe) / euler_phi(q)
        worst_a, worst = -1, -1.0
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                dev = abs(float(counts[a]) - expected)
                if dev > worst:
                    worst_a, worst = a, dev
        ties += sum(1 for a in range(worst_a + 1, q)
                    if math.gcd(a, q) == 1
                    and abs(float(counts[a]) - expected) == worst)
        rows.append((q, worst_a, worst))
    assert ties > 0
    assert rep.per_q == tuple(rows)


def test_bv_monotone_in_Q():
    win = FracWindow(alpha=0.1, c=0.0, d=0.5)
    t10 = bv_discrepancy(30000, 10, win).total
    t31 = bv_discrepancy(30000, 31, win).total
    assert t10 <= t31 + 1e-12


def test_bv_validation():
    win = FracWindow(alpha=0.1, c=0.0, d=0.5)
    with pytest.raises(ArgumentError):
        bv_discrepancy(100, 100, win)
    with pytest.raises(ArgumentError):
        FracWindow(alpha=0.1, c=0.7, d=0.2)


# ---------------------------------------------------------------------------
# phase sums and the van der Corput bound

def test_phase_sum_quadratic_example():
    N = 10 ** 4
    ph = MonomialPhase(coeff=1.0 / N, shift=0.0, exponent=2.0, lo=1, hi=N)
    res = phase_sum(ph)
    assert res.count == N
    # the complete quadratic Gauss sum has |S| = sqrt(2 N) = sqrt(2)*100 here
    assert abs(abs(res.value) - math.sqrt(2) * 100) < 1e-6
    bound = vdc_bound(ph, constant=8.0)
    assert abs(res.value) <= bound
    lam2 = 2.0 / N
    expect = 8.0 * ((N - 1) * math.sqrt(lam2) + 1 / math.sqrt(lam2))
    assert abs(bound - expect) < 1e-6 * expect


def test_phase_sum_degenerate_constant():
    ph = MonomialPhase(coeff=0.0, shift=0.0, exponent=2.0, lo=3, hi=17)
    res = phase_sum(ph)
    assert res.degenerate
    assert res.count == 15
    assert abs(res.value - 15.0) < 1e-12
    with pytest.raises(ArgumentError):
        vdc_bound(ph)


def test_phase_sum_matches_brute():
    ph = MonomialPhase(coeff=0.37, shift=2.5, exponent=0.6, lo=10, hi=60)
    res = phase_sum(ph)
    brute = oracles.phase_sum_brute(0.37, 2.5, 0.6, 10, 60)
    assert abs(res.value - brute) < 1e-9


def test_vdc_fractional_instance():
    # monomial phase h (u q)^alpha (x + xi)^alpha with h=1, u=10, q=7,
    # alpha=0.1, range [R1, 2 R1], R1 = 10^3
    h, u, q, alpha, R1 = 1, 10, 7, 0.1, 1000
    coeff = h * (u * q) ** alpha
    ph = MonomialPhase(coeff=coeff, shift=0.0, exponent=alpha, lo=R1, hi=2 * R1)
    res = phase_sum(ph)
    bound = vdc_bound(ph, constant=8.0)
    assert abs(res.value) <= bound


def test_vdc_sweep_dominates_phase_sum():
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(60):
        coeff = float(rng.uniform(0.01, 2.0))
        alpha = float(rng.uniform(0.05, 0.6))
        lo = int(rng.integers(5, 50))
        width = int(rng.integers(20, 400))
        ph = MonomialPhase(coeff=coeff, shift=0.0, exponent=alpha,
                           lo=lo, hi=lo + width)
        if abs(phase_sum(ph).value) > vdc_bound(ph, constant=8.0):
            violations += 1
    assert violations == 0


def test_vdc_validation():
    with pytest.raises(ArgumentError):
        vdc_bound(MonomialPhase(coeff=1.0, shift=0.0, exponent=1.0,
                                lo=1, hi=10))  # f'' = 0
    with pytest.raises(ArgumentError):
        MonomialPhase(coeff=1.0, shift=0.0, exponent=0.5, lo=10, hi=5)
    with pytest.raises(ArgumentError):
        MonomialPhase(coeff=1.0, shift=0.0, exponent=0.5, lo=-3, hi=5)


# ---------------------------------------------------------------------------
# bilinear sums

def _ones(n):
    return 1.0


def test_bilinear_no_oscillation():
    w = BumpWindow(y=2.0, delta=0.2)
    X = 100
    res = bilinear_sum((8, 13), (10, 20), _ones, _ones,
                       q=1, a=0, h=0, alpha=0.5, window=w, X=X)
    direct = sum(eval_bump(w, m * n / X)
                 for m in range(8, 13) for n in range(10, 20))
    assert abs(res.value - direct) < 1e-10
    assert res.count == 5 * 10


def test_bilinear_matches_double_loop():
    rng = np.random.default_rng(11)
    gm = {m: float(rng.standard_normal()) for m in range(5, 30)}
    bn = {n: float(rng.standard_normal()) for n in range(5, 40)}
    w = BumpWindow(y=2.0, delta=0.2)
    X, h, alpha, q, a = 300, 2, 0.3, 3, 1
    res = bilinear_sum((5, 30), (5, 40), gm.get, bn.get,
                       q=q, a=a, h=h, alpha=alpha, window=w, X=X)
    direct = 0j
    for m in range(5, 30):
        for n in range(5, 40):
            if (m * n) % q != a:
                continue
            psi = eval_bump(w, m * n / X)
            if psi != 0.0:
                direct += gm[m] * bn[n] * psi * e(reduced_phase(h, m * n, alpha))
    assert abs(res.value - direct) < 1e-10
    assert res.cauchy_lhs <= res.cauchy_rhs + 1e-9
    assert res.diagonal >= 0.0


def test_bilinear_budget():
    w = BumpWindow(y=2.0, delta=0.2)
    with pytest.raises(ResourceLimitError):
        bilinear_sum((1, 2001), (1, 2001), _ones, _ones,
                     q=1, a=0, h=1, alpha=0.3, window=w, X=10 ** 6,
                     budget=10 ** 6)


# ---------------------------------------------------------------------------
# level of distribution, block sums, moment constant

def test_level_examples():
    assert abs(level_of_distribution(0.1) - 0.34) < 1e-15
    assert abs(level_of_distribution(1e-12) - 0.4) < 1e-9
    with pytest.warns(UserWarning):  # boundary of the theorem scope
        assert abs(level_of_distribution(1.0 / 9.0) - 1.0 / 3.0) < 1e-15


def test_level_out_of_scope_still_computes():
    with pytest.warns(UserWarning):
        val = level_of_distribution(0.2)
    assert abs(val - (0.4 - 0.12)) < 1e-15


def test_block_sum_thread_invariance():
    rng = np.random.default_rng(13)
    vals = (rng.standard_normal(10_001) + 1j * rng.standard_normal(10_001))
    r1 = block_sum(vals, threads=1)
    r4 = block_sum(vals, threads=4)
    r8 = block_sum(vals, threads=8)
    assert r1 == r4 == r8


def test_exp_sum_thread_invariance():
    spec = ExpSumSpec(X=10 ** 4, Y=2 * 10 ** 4, h=3, alpha=0.3, q=5, a=2)
    outs = [exp_sum_primes(spec, threads=t).value for t in (1, 4, 8)]
    assert outs[0] == outs[1] == outs[2]


def test_tau_moment_constant():
    c2 = tau_moment_constant(2, 20000)
    # sum_{n<=x} tau(n) ~ x log x, so the fitted constant is ~1
    assert 0.5 <= c2 <= 2.0
    lam = tau_moment_constant(3, 20000)
    assert lam > 0
