import cmath
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracprimes import expsums
from fracprimes.arith import primes_upto
from fracprimes.errors import ArgumentError, ResourceLimitError
from fracprimes.expsums import (BLOCK, REDUCTION_THRESHOLD, _MP50,
                                ExpSumSpec, FracWindow, MonomialPhase,
                                block_sum,
                                bv_discrepancy, count_pi_I, exp_sum_primes,
                                frac_part, _anchored_frac,
                                _reduce_monomial, _residue_histograms,
                                level_of_distribution,
                                phase_sum,
                                reduced_phase, reduced_phase_array,
                                unit_phases, vdc_bound,
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
    # h * n^alpha far above 2^40: the integer part leaves float64 no
    # fractional digits, so only the anchored tier gets these right
    for n, h, alpha in [(10 ** 15, 1000, 0.95), (10 ** 13, 10 ** 6, 0.9)]:
        assert h * n ** alpha > 2 ** 40
        got = reduced_phase(h, n, alpha)
        want = oracles.reduced_phase_oracle(h, n, alpha)
        assert abs(cmath.exp(2j * math.pi * got)
                   - cmath.exp(2j * math.pi * want)) < 1e-9
        assert 0.0 <= got < 1.0


def test_reduced_phase_array_agrees_with_scalar():
    # scalar and array phases are the same kernel, so they agree bit for bit
    # on both tiers, and FracWindow.contains agrees with mask at the edges
    ns = np.arange(10, 5000, 37, dtype=np.int64)
    arr = reduced_phase_array(3, ns, 0.3)
    assert [reduced_phase(3, int(n), 0.3) for n in ns] == arr.tolist()
    rng = np.random.default_rng(20261018)
    hs = rng.integers(1, 2000, size=2000)
    ns = rng.integers(2, 10 ** 6, size=2000)
    alphas = rng.uniform(0.05, 0.95, size=2000)
    tiers = set()
    for h, n, alpha in zip(hs.tolist(), ns.tolist(), alphas.tolist()):
        want = reduced_phase_array(h, np.array([n]), alpha)[0]
        assert reduced_phase(h, n, alpha) == want
        tiers.add(h * n ** alpha > REDUCTION_THRESHOLD)
        # a window edge at the phase or just above it
        f = reduced_phase_array(1, np.array([n]), alpha)[0]
        for c in (f, np.nextafter(f, 1.0)):
            if c < 1.0:
                win = FracWindow(alpha=alpha, c=c, d=min(c + 0.25, 1.0))
                assert oracles.window_contains(win, n) == win.mask(np.array([n]))[0]
    assert tiers == {False, True}


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


def _circle_error(got, h, ns, alpha, shift=0.0) -> float:
    want = np.array([oracles.reduced_phase_oracle(h, n, alpha, shift)
                     for n in ns])
    return float(np.max(np.abs(np.exp(2j * np.pi * np.asarray(got))
                               - np.exp(2j * np.pi * want))))


def test_anchored_tier_meets_the_oracle():
    # n up to 2^48, alpha across (0, 1), h up to (log X)^5 = 4.1e7 at
    # X = 2^48, with and without a shift; each case mixes scattered n (one
    # anchor each) with a contiguous run (many offsets per anchor)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n_mid in (10 ** 4, 10 ** 6, 10 ** 9, 2 ** 40, 2 ** 48):
        for alpha in (0.05, 0.3, 0.5, 0.7, 0.9, 0.97):
            for h in (1.0, 3e3, 1.6e7, 4.1e7):
                for shift in (0.0, 0.37):
                    ns = np.concatenate([
                        n_mid + rng.integers(-n_mid // 8, n_mid // 8, 24),
                        np.arange(n_mid - 20, n_mid + 20)])
                    got = _reduce_monomial(h, ns, alpha, shift)
                    worst = max(worst, _circle_error(got, h, ns, alpha, shift))
    assert worst <= 1e-10


def test_anchored_tier_unsorted_with_repeats():
    # the products mn of a 40 x 40 block, raveled: unsorted and many of
    # them repeated
    ms, ns = np.arange(960, 1000), np.arange(1130, 1170)
    mn = (ms[:, None] * ns[None, :]).ravel()
    assert len(np.unique(mn)) < len(mn) and np.any(np.diff(mn) < 0)
    h, alpha = 7, 0.8
    got = reduced_phase_array(h, mn, alpha)
    assert np.all(np.abs(h * mn.astype(float) ** alpha) > REDUCTION_THRESHOLD)
    pick = np.random.default_rng(3).choice(len(mn), 300, replace=False)
    assert _circle_error(got[pick], h, mn[pick], alpha) <= 1e-10
    # each element's value depends on that element alone
    order = np.argsort(mn, kind="stable")
    assert np.array_equal(got[order], reduced_phase_array(h, mn[order], alpha))


def test_anchored_tier_negative_and_zero_h():
    ns = np.arange(10 ** 6, 10 ** 6 + 3000, 7)
    plus = reduced_phase_array(5000, ns, 0.9)
    minus = reduced_phase_array(-5000, ns, 0.9)
    assert _circle_error(minus, -5000, ns, 0.9) <= 1e-10
    assert np.max(np.abs(np.exp(2j * np.pi * (plus + minus)) - 1.0)) <= 1e-10
    assert np.array_equal(reduced_phase_array(0, ns, 0.9), np.zeros(len(ns)))


@pytest.mark.parametrize("shift", [0.0, 0.25, 0.5, 0.999])
def test_anchored_tier_shift(shift):
    ns = np.arange(4000, 4600)
    got = _reduce_monomial(2.0e4, ns, 0.45, shift)
    assert _circle_error(got, 2.0e4, ns, 0.45, shift) <= 1e-10


def test_anchored_tier_span_collapses_to_one():
    # just above the threshold at n < 128 the span cap n/64 leaves D = 1:
    # every n is its own 50-digit anchor, with no expansion at all
    h, alpha = 900.0, 0.6
    ns = np.arange(13, 128)
    assert np.all(h * ns ** alpha > REDUCTION_THRESHOLD)
    assert h * 12 ** alpha <= REDUCTION_THRESHOLD
    got = reduced_phase_array(h, ns, alpha)
    want = [oracles.reduced_phase_oracle(h, n, alpha) for n in ns]
    assert np.max(np.abs(got - want)) <= 1e-15


def _bits(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _assert_frac_part_is_np_mod(w: np.ndarray):
    with np.errstate(invalid="ignore"):
        assert np.array_equal(_bits(frac_part(w)), _bits(np.mod(w, 1.0)))


def test_frac_part_matches_np_mod_on_edge_grid():
    ints = np.array([1.0, 2.0, 3.0, 4096.0, 2.0 ** 40, 2.0 ** 52 - 1])
    ints = np.concatenate([ints, -ints])
    grid = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
         -1e-300, 1e-300, 0.5, -0.5, 2.0 ** 52 + 0.5, 2.0 ** 53 + 2.0,
         2.0 ** 60, -(2.0 ** 52) - 0.5, -(2.0 ** 70), 1.7e308, -1.7e308],
        ints, np.nextafter(ints, np.inf), np.nextafter(ints, -np.inf),
        # a signalling NaN and a negative NaN with a payload
        np.array([0x7FF0000000000001, 0xFFF8000000000123], np.uint64).view(np.float64)])
    _assert_frac_part_is_np_mod(grid)
    assert _bits(frac_part(np.array([-1e-300])))[0] == _bits(1.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=50))
def test_frac_part_matches_np_mod(values):
    _assert_frac_part_is_np_mod(np.array(values, dtype=np.float64))


def _second_kind_coefficient(alpha, h, qum, s):
    # built as oscillatory.poisson_verify_second builds its anchored phase
    a = _MP50.mpf(alpha)
    ex = a / (1 - a)
    sc = (1 - a) * (a ** alpha * h) ** (1 / (1 - a))
    return sc * _MP50.power(_MP50.mpf(qum) / s, ex), ex


@pytest.mark.parametrize("c, e, shift, ns", [
    (3.7e5, 0.37, 0.0, np.arange(1000, 3001)),
    (3.7e5, 0.37, 0.41, np.arange(1000, 3001)),
    (1.0, 0.9, 0.0, np.arange(10 ** 6, 10 ** 6 + 5000, 3)),
    (2.0e4, 0.45, 0.999, np.arange(4000, 4600)),
    (-2.3e6, 0.55, 0.0, np.arange(700, 1900)),
    (-41.5, 0.8, 0.25, np.random.default_rng(5).integers(10 ** 5, 10 ** 9, 400)),
    (*_second_kind_coefficient(0.3, 2, 105, 2), 0.0, np.arange(5000, 9000)),
    (*_second_kind_coefficient(0.05, 7, 12, 3), 0.0, np.arange(40, 2000)),
], ids=["float", "float-shift", "alpha0.9", "shift0.999", "negative-c",
        "negative-c-shift-scattered", "mpf-c-e", "mpf-c-e-small-n"])
def test_anchored_frac_matches_mpf_operators(c, e, shift, ns):
    assert np.array_equal(_bits(_anchored_frac(c, ns, e, shift)),
                          _bits(oracles.anchored_frac_operators(c, ns, e, shift)))


def test_float_tier_unchanged_in_mixed_array():
    h, alpha, shift = 40.0, 0.7, 0.3
    ns = np.random.default_rng(9).permutation(np.arange(1, 30000, 3))
    got = _reduce_monomial(h, ns, alpha, shift)
    w = h * np.power(ns + shift, alpha)
    small = np.abs(w) <= REDUCTION_THRESHOLD
    assert 0 < np.count_nonzero(small) < len(ns)
    assert np.array_equal(got[small], np.mod(w, 1.0)[small])
    assert _circle_error(got[~small][:400], h, ns[~small][:400], alpha,
                         shift) <= 1e-10


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


def _weighted_sum_dense(spec, window):
    """(value, sharp, count) of weighted_sum_W from Lambda on all of [0, hi],
    gathered at every n of the window's support in the class and then
    restricted to the nonzero entries."""
    lo = max(2, math.ceil((1.0 - window.delta) * spec.X))
    hi = math.floor((window.y + window.delta) * spec.X)
    lam = von_mangoldt_range(hi)
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    if spec.q > 1:
        ns = ns[ns % spec.q == spec.a]
    lamv = lam[ns]
    nz = lamv != 0.0
    ns, lamv = ns[nz], lamv[nz]
    phases = unit_phases(spec.h, ns, spec.alpha)
    smooth_w = eval_bump(window, ns / spec.X)
    value = block_sum(lamv * smooth_w * phases)
    sharp = block_sum((lamv * phases)[(ns >= spec.X) & (ns < spec.Y)])
    return value, sharp, int(np.count_nonzero(smooth_w * lamv))


def _complex_bits(*zs):
    return np.array([[z.real, z.imag] for z in zs]).view(np.uint64).tolist()


@pytest.mark.parametrize("q, a", [(1, 0), (7, 3), (12, 5)])
@pytest.mark.parametrize("X", [3000, 10**4, 10**5, 10**6])
def test_weighted_sum_matches_dense_lambda_bitwise(X, q, a):
    # Lambda on the window alone changes no bit of the sums or the count
    w = BumpWindow(y=2.0, delta=0.2)
    res = weighted_sum_W(ExpSumSpec(X=X, Y=2 * X, h=1, alpha=0.1, q=q, a=a), w)
    value, sharp, count = _weighted_sum_dense(
        ExpSumSpec(X=X, Y=2 * X, h=1, alpha=0.1, q=q, a=a), w)
    assert res.count == count > 0
    assert _complex_bits(res.value, res.sharp) == _complex_bits(value, sharp)


def test_weighted_sum_window_starting_at_a_prime_power():
    # lo = ceil(0.8 * 1280) = 1024 = 2^10: the window's first entry is a
    # prime power, which the window's own sieve must still weight by log 2
    w = BumpWindow(y=2.0, delta=0.2)
    spec = ExpSumSpec(X=1280, Y=2560, h=3, alpha=0.3, q=1, a=0)
    assert max(2, math.ceil((1.0 - w.delta) * spec.X)) == 1024
    res = weighted_sum_W(spec, w)
    value, sharp, count = _weighted_sum_dense(spec, w)
    assert res.count == count
    assert _complex_bits(res.value, res.sharp) == _complex_bits(value, sharp)


# ---------------------------------------------------------------------------
# pi_I and the BV discrepancy

@pytest.fixture(scope="module")
def primes_1e7():
    return primes_upto(10 ** 7)


def _window_edges(f: np.ndarray, alpha: float, ns: np.ndarray) -> list:
    """The fixed windows, then c and d at a phase above 2^12 (the last one
    where no phase is above it) and one ulp either side of it."""
    w = np.power(ns.astype(np.float64), alpha)
    i = np.flatnonzero(w > REDUCTION_THRESHOLD)
    x = f[i[len(i) // 2] if len(i) else -1]
    at = [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]
    return ([(0.0, 0.5), (0.25, 0.75), (0.1, 1.0), (0.0, 1.0)]
            + [(c, 1.0) for c in at] + [(0.0, d) for d in at])


@pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9, 0.97])
def test_window_mask_matches_anchored_phases(primes_1e7, alpha):
    # mask decides in float64 outside the band of an edge, and must give the
    # anchored tier's answer everywhere, edges at a phase included
    ps = primes_1e7
    f = reduced_phase_array(1, ps, alpha)
    for c, d in _window_edges(f, alpha, ps):
        want = (f >= c) & (f < d)
        assert np.array_equal(FracWindow(alpha, c, d).mask(ps), want), (c, d)


def test_float_power_error_within_window_band():
    # the float64 phase w = n^alpha, n up to 2^48 and alpha across (0, 1), is
    # within B(w)/64 of the 50-digit power: the band of `monomial_frac`
    # leaves the float tier 64 times the room this error takes
    rng = np.random.default_rng(4848)
    ns = np.concatenate([rng.integers(2, 2 ** 48, 1500, endpoint=True),
                         np.exp2(rng.uniform(1, 48, 1500)).astype(np.int64),
                         [2 ** 48] * 4])
    alphas = np.concatenate([rng.uniform(0.0, 1.0, 3000),
                             [1e-6, 0.5, 0.9, 1 - 1e-6]])
    w = np.power(ns.astype(np.float64), alphas)
    band = w * 2.0 ** -44 + 2.0 ** -33
    for n, alpha, wi, b in zip(ns.tolist(), alphas.tolist(), w, band):
        exact = _MP50.power(n, _MP50.mpf(alpha))
        assert abs(_MP50.mpf(float(wi)) - exact) <= b / 64, (n, alpha)


def test_window_mask_takes_no_anchors_away_from_the_edges(monkeypatch):
    # at alpha 0.9, 16,718 primes up to 2*10^5 have phases above 2^12, and
    # none of them lies within the band of 0, 1/2 or 1
    ps = primes_upto(2 * 10 ** 5)
    alpha, sent = 0.9, []
    anchored = expsums._anchored_frac
    monkeypatch.setattr(expsums, "_anchored_frac",
                        lambda c, ns, e, shift=0.0: sent.append(len(ns))
                        or anchored(c, ns, e, shift))
    got = FracWindow(alpha, 0.0, 0.5).mask(ps)
    assert sum(sent) == 0
    assert np.count_nonzero(ps ** alpha > REDUCTION_THRESHOLD) > 16_000
    f = reduced_phase_array(1, ps, alpha)
    assert sum(sent) > 16_000
    assert np.array_equal(got, f < 0.5)


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
    pe = [p for p in primes_upto(X).tolist() if oracles.window_contains(win, p)]
    rows, ties = [], 0
    for q in range(2, Q + 1):
        counts = [0] * q
        for p in pe:
            counts[p % q] += 1
        expected = len(pe) / oracles.phi_direct(q)
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


@pytest.mark.parametrize("moduli", ["all", "prime"])
@pytest.mark.parametrize("X, Q, c, d", [(300_000, 499, 0.0, 0.5),
                                        (300_000, 500, 0.0, 0.5),
                                        (1000, 60, 0.5, 0.5000001)],
                         ids=["Q499", "Q500", "empty"])
def test_bv_rows_match_bincount_loop(X, Q, c, d, moduli):
    win = FracWindow(alpha=0.1, c=c, d=d)
    rep = bv_discrepancy(X, Q, win, moduli=moduli)
    ps = primes_upto(X)
    pe = ps[win.mask(ps)]
    assert (len(pe) == 0) == (X == 1000)
    qs = range(2, Q + 1) if moduli == "all" else primes_upto(Q).tolist()
    rows, total = oracles.bv_rows_bincount_loop(pe, qs)
    assert rep.per_q == rows
    assert rep.total == total
    assert rep.pi_I == len(pe)


@pytest.mark.parametrize("moduli", ["all", "prime"])
def test_bv_coprime_mask_matches_int64_gcd(monkeypatch, moduli):
    # the coprime mask is built in int32: the mask and every row must be the
    # ones an int64 np.gcd gives
    X, Q = 300_000, 500
    win = FracWindow(alpha=0.1, c=0.0, d=0.5)
    gcd, seen = np.gcd, []

    def spy(a, b):
        seen.append((a.dtype, b.dtype, gcd(a, b)))
        return seen[-1][2]

    monkeypatch.setattr(np, "gcd", spy)
    rep = bv_discrepancy(X, Q, win, moduli=moduli)
    monkeypatch.undo()
    ps = primes_upto(X)
    qs = range(2, Q + 1) if moduli == "all" else primes_upto(Q).tolist()
    coprime, rows, total = oracles.bv_rows_int64_mask(ps[win.mask(ps)], qs)
    assert [(a, b) for a, b, _ in seen] == [(np.dtype(np.int32),) * 2]
    assert np.array_equal(seen[0][2] == 1, coprime)
    assert rep.per_q == rows
    assert rep.total == total


# moduli 61..121 lack a 2q, an odd count; 2^15 and 2^17 share a group whose
# lcm is the 2^17 cap, 3 * 2^15 cannot join it, and 2^17 + 1 is above the cap
_HIST_MODULI = (range(2, 121), range(2, 122), primes_upto(500).tolist(),
                [3, 5, 2 ** 15, 3 * 2 ** 15, 2 ** 17, 2 ** 17 + 1])


def _check_histograms(x, qs):
    hist = _residue_histograms(x, qs)
    assert sorted(hist) == sorted(qs)
    for q in qs:
        expected = np.bincount(x % q, minlength=q)
        assert hist[q].dtype == expected.dtype
        assert np.array_equal(hist[q], expected)


@pytest.mark.parametrize("base", [2 ** 31 - 10 ** 6, 2 ** 31, 2 ** 40])
def test_residue_histograms_match_bincount(base):
    # values from 2^31 on must stay on the int64 path
    rng = np.random.default_rng(base % 997)
    x = np.sort(rng.integers(base, base + 10 ** 6 - 1, 5000, dtype=np.int64))
    for qs in _HIST_MODULI:
        _check_histograms(x, qs)


def test_residue_histograms_of_no_values():
    for qs in _HIST_MODULI:
        _check_histograms(np.empty(0, dtype=np.int64), qs)


def test_bv_monotone_in_Q():
    win = FracWindow(alpha=0.1, c=0.0, d=0.5)
    t10 = bv_discrepancy(30000, 10, win).total
    t31 = bv_discrepancy(30000, 31, win).total
    assert t10 <= t31 + 1e-12


@pytest.mark.parametrize("moduli", ["all", "prime"])
def test_bv_residue_budget_checked_before_the_sieve(monkeypatch, moduli):
    # the bound is the residues of every q <= Q, 2 + ... + Q, for prime
    # moduli too; neither X nor Q is sieved before a refusal
    win = FracWindow(alpha=0.1, c=0.0, d=0.5)
    monkeypatch.setattr(expsums, "_RESIDUE_BUDGET", 104)
    bv_discrepancy(1000, 14, win, moduli=moduli)
    for Q in (15, 5 * 10 ** 7):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as exc:
                bv_discrepancy(10 ** 8, Q, win, moduli=moduli)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.estimate, exc.value.budget) == (Q * (Q + 1) // 2 - 1,
                                                          104)
        assert peak < 1 << 20


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


@pytest.mark.parametrize("n", [0, 1, BLOCK, 3 * BLOCK + 7])
def test_block_sum_is_blockwise_in_order(n):
    # artifacts are byte-identical only while the summation order is fixed:
    # np.sum over each 2^16 block, the partials added left to right
    rng = np.random.default_rng(13)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = 0j
    if n:
        partials = [np.sum(vals[i:i + BLOCK]) for i in range(0, n, BLOCK)]
        want = partials[0]
        for p in partials[1:]:
            want = want + p
    got = block_sum(vals)
    assert type(got) is complex
    assert np.complex128(got).tobytes() == np.complex128(want).tobytes()

