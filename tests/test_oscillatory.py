import cmath
import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracprimes.oscillatory as osc
from fracprimes.errors import (AccuracyError, ArgumentError,
                               StationaryPointError)
from fracprimes.oscillatory import (alpha_constants, gaussian_phase,
                                    make_first_phase, make_generic_phase,
                                    make_second_phase, nonstationary_bound,
                                    phase_jet_derivatives,
                                    poisson_verify_first,
                                    poisson_verify_second, quad_osc,
                                    second_change_of_variables_check,
                                    stationary_expand, stationary_point,
                                    stationary_values, truncation_windows,
                                    window_from_bump)
from fracprimes.smoothing import BumpWindow, eval_bump

import oracles


BUMP = BumpWindow(y=2.0, delta=0.2)
W = window_from_bump(BUMP)


# ---------------------------------------------------------------------------
# alpha constants

def test_alpha_constants_tenth():
    c = alpha_constants(0.1)
    assert abs(c.beta - 19 / 9) < 1e-15
    assert abs(c.gamma - 1 / 9) < 1e-15
    assert abs(c.delta - 10 / 9) < 1e-15
    assert abs(c.xi - 9 / 8) < 1e-15
    assert abs(c.eta - 1 / 8) < 1e-15
    assert abs(c.omega - 17 / 8) < 1e-15


def test_alpha_constants_small_limit():
    c = alpha_constants(1e-14)
    for got, want in zip((c.beta, c.gamma, c.delta, c.xi, c.eta, c.omega),
                         (2, 0, 1, 1, 0, 2)):
        assert abs(got - want) < 1e-12


@given(st.floats(min_value=0.01, max_value=0.49))
@settings(max_examples=200, deadline=None)
def test_alpha_constants_identities(alpha):
    c = alpha_constants(alpha)
    assert abs(c.xi - 1 / (1 - c.gamma)) <= 1e-13 * abs(c.xi)
    assert abs(c.omega - c.xi * (2 - c.gamma)) <= 1e-13 * abs(c.omega)
    assert abs(c.beta - (2 - alpha) / (1 - alpha)) < 1e-15 * 4


def test_alpha_constants_validation():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ArgumentError):
            alpha_constants(bad)


# ---------------------------------------------------------------------------
# stationary points and closed-form values

def test_stationary_point_first_poisson_example():
    g = make_first_phase(h=1, X=100, alpha=0.5, q=3, u=1, m=2, n=5, s=1)
    t0 = stationary_point(g)
    assert abs(t0 - 2.25) < 1e-12
    # residual of g'(t0) = 0: 0.5*(100)^0.5 * t^{-0.5} - 100/(3*10)
    assert abs(5 / math.sqrt(2.25) - 10 / 3) < 1e-12
    assert abs(float(g.dg(t0, 1))) < 1e-10 * abs(float(g.dg(t0, 2))) * t0


def test_stationary_point_inversion_to_one():
    h, alpha, q, u, m, n, X = 2, 0.3, 5, 1, 3, 7, 50
    s = alpha * h * q * u * m * n / X ** (1 - alpha)
    g = make_first_phase(h=h, X=X, alpha=alpha, q=q, u=u, m=m, n=n, s=s)
    assert abs(stationary_point(g) - 1.0) < 1e-12


def test_stationary_point_generic_quadratic():
    g = make_generic_phase(lambda t: -(t - 2.0) ** 2)
    assert abs(stationary_point(g, window=(0.0, 4.0)) - 2.0) < 1e-8


def test_stationary_point_errors():
    with pytest.raises(StationaryPointError):
        stationary_point(make_first_phase(h=0, X=100, alpha=0.5, q=3, u=1,
                                          m=2, n=5, s=1))
    with pytest.raises(StationaryPointError):
        stationary_point(make_first_phase(h=1, X=100, alpha=0.5, q=3, u=1,
                                          m=2, n=5, s=-2))
    g = make_first_phase(h=1, X=100, alpha=0.5, q=3, u=1, m=2, n=5, s=1)
    with pytest.raises(StationaryPointError):
        stationary_point(g, window=(5.0, 6.0))  # t0 = 2.25 outside


def test_stationary_values_first_closed_forms():
    h, X, alpha, q, u, m, n, s = 1, 100, 0.5, 3, 1, 2, 5, 1
    g = make_first_phase(h=h, X=X, alpha=alpha, q=q, u=u, m=m, n=n, s=s)
    t0 = stationary_point(g)
    v, curv = stationary_values(g)
    assert abs(v - float(g.g(t0))) < 1e-10 * max(1.0, abs(v))
    # closed forms (beta/gamma/delta computed directly: alpha_constants
    # refuses alpha = 1/2 because of the xi/eta/omega singularity there)
    beta = (2 - alpha) / (1 - alpha)
    gamma = alpha / (1 - alpha)
    delta = 1 / (1 - alpha)
    qumn = q * u * m * n
    want_v = (1 - alpha) * (alpha ** alpha * h) ** delta * (qumn / s) ** gamma
    want_c = alpha * (1 - alpha) * h * X ** 2 * (s / (alpha * h * qumn)) ** beta
    assert abs(v - want_v) < 1e-10 * abs(want_v)
    assert abs(abs(curv) - want_c) < 1e-10 * want_c
    # finite-difference cross-check of the curvature
    fd = (float(g.g(t0 + 1e-4)) - 2 * v + float(g.g(t0 - 1e-4))) / 1e-8
    assert abs(abs(curv) - abs(fd)) < 1e-5 * abs(fd)


def test_stationary_values_second_sign():
    for s, sigma in [(1, 1), (2, 3), (5, 2)]:
        g = make_second_phase(h=3, X=1000, alpha=0.1, q=3, u=1, m=2,
                              s=s, sigma=sigma)
        v, curv = stationary_values(g)
        assert curv < 0.0
        tau0 = stationary_point(g)
        assert abs(float(g.dg(tau0, 1))) <= 1e-8 * abs(curv) * tau0


# ---------------------------------------------------------------------------
# quadrature

def test_quad_no_oscillation_is_window_mass():
    g0 = make_generic_phase(lambda t: np.zeros_like(np.asarray(t, float)))
    res = quad_osc(W, g0, tol=1e-10)
    ref = oracles.quad_oracle(lambda t: eval_bump(BUMP, t), lambda t: 0.0,
                              0.8, 2.2)
    assert abs(res.value.imag) < 1e-10
    assert res.value.real > 0
    assert abs(res.value - ref) < 1e-8


def test_quad_riemann_lebesgue_decay():
    # the smooth window makes the linear-phase integral decay rapidly with
    # the slope; keep slopes small enough to stay above the float64 floor
    out = []
    for slope in (0.5, 4.0):
        g = make_generic_phase(lambda t, R=slope: R * np.asarray(t, float))
        out.append(abs(quad_osc(W, g, tol=1e-10).value))
    assert out[1] < out[0] / 2


def test_quad_matches_mpmath_oracle():
    g = make_first_phase(h=1, X=100, alpha=0.5, q=3, u=1, m=2, n=5, s=1)
    res = quad_osc(W, g, tol=1e-10)
    ref = oracles.quad_oracle(lambda t: eval_bump(BUMP, t),
                              lambda t: float(g.g(float(t))), 0.8, 2.2)
    assert abs(res.value - ref) < 5e-9


def test_quad_tol_halving_self_consistency():
    g = make_first_phase(h=2, X=300, alpha=0.3, q=5, u=1, m=2, n=3, s=2)
    prev = quad_osc(W, g, tol=1e-6)
    for tol in (5e-7, 2.5e-7, 1.25e-7):
        cur = quad_osc(W, g, tol=tol)
        assert abs(cur.value - prev.value) <= max(prev.error_estimate, 1e-12)
        prev = cur


def test_quad_validation_and_accuracy_error(monkeypatch):
    g = gaussian_phase(Y=200.0, t0=1.5)
    with pytest.raises(ArgumentError):
        quad_osc(W, g, tol=1e-13)
    # an amplitude cusp stalls panel refinement when rounds are capped; the
    # error must carry the best value and its error estimate
    from fracprimes.oscillatory import WindowModel
    cusp = WindowModel(fn=lambda t: np.sqrt(np.abs(np.asarray(t, float) - 1.5)),
                       lo=0.8, hi=2.2)
    lin = make_generic_phase(lambda t: 3.0 * np.asarray(t, float))
    monkeypatch.setattr(osc, "_MAX_ROUNDS", 2)
    with pytest.raises(AccuracyError) as exc:
        quad_osc(cusp, lin, tol=1e-12)
    assert isinstance(exc.value.value, complex)
    assert isinstance(exc.value.error_estimate, float)
    # with enough rounds the same integral does converge
    monkeypatch.setattr(osc, "_MAX_ROUNDS", 30)
    ok = quad_osc(cusp, lin, tol=1e-12)
    assert abs(ok.value - exc.value.value) <= exc.value.error_estimate


@pytest.mark.parametrize("J", [(2.0, 1.0), (1.5, 1.5), (float("nan"), 2.0)])
def test_reversed_or_empty_J_is_an_argument_error(J):
    g = gaussian_phase(Y=200.0, t0=1.5)
    with pytest.raises(ArgumentError, match="J"):
        quad_osc(W, g, J)
    with pytest.raises(ArgumentError, match="J"):
        stationary_expand(W, g, J=J)


def test_J_outside_the_support_integrates_to_zero():
    res = quad_osc(W, gaussian_phase(Y=200.0, t0=1.5), (3.0, 4.0))
    assert (res.value, res.error_estimate, res.terms_used) == (0j, 0.0, 0)


def test_quad_memory_is_bounded():
    # the `oscint --phase first` default: 110,160 final panels, 4,957,200
    # nodes; the engine works through them in blocks of _BLOCK_PANELS
    g = make_first_phase(h=1.0, X=100_000, alpha=0.1, q=3, u=1, m=1, n=1, s=1)
    tracemalloc.start()
    try:
        res = quad_osc(W, g, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.terms_used == 4_957_200
    assert res.error_estimate <= 1e-9
    assert peak < 32 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# stationary expansion

def test_expand_gaussian_leading_term():
    for Y in (50.0, 200.0, 800.0):
        g = gaussian_phase(Y=Y, t0=1.5)
        lead = stationary_expand(W, g, n_terms=1)
        want = eval_bump(BUMP, 1.5) * cmath.exp(-1j * math.pi / 4) / math.sqrt(Y)
        assert abs(lead.value - want) <= 1e-12
        quad = quad_osc(W, g, tol=1e-11)
        rel = abs(lead.value - quad.value) / abs(quad.value)
        if Y == 200.0:
            assert rel < 0.02


def test_expand_gaussian_scaled_error_decreasing():
    scaled = []
    for Y in (50.0, 200.0, 800.0):
        g = gaussian_phase(Y=Y, t0=1.5)
        lead = stationary_expand(W, g, n_terms=1)
        quad = quad_osc(W, g, tol=1e-11)
        scaled.append(abs(lead.value - quad.value) * math.sqrt(Y))
    assert scaled[0] < 0.05
    assert scaled[0] > scaled[1] > scaled[2]


def test_expand_correction_shrinks_with_scale():
    # pin the stationary point on the falling edge of the window (where the
    # window curvature is nonzero) and raise X: the phase curvature grows
    # like X^alpha, so the second expansion term loses relative weight
    alpha, h, q, u, m, n = 0.3, 3, 3, 1, 2, 2
    t0 = 2.05
    ratios = []
    for X in (300, 3_000_000):
        s = alpha * h * q * u * m * n / (t0 * X) ** (1 - alpha)
        g = make_first_phase(h=h, X=X, alpha=alpha, q=q, u=u, m=m, n=n, s=s)
        assert abs(stationary_point(g) - t0) < 1e-9
        one = stationary_expand(W, g, n_terms=1)
        two = stationary_expand(W, g, n_terms=2)
        ratios.append(abs(two.value - one.value) / abs(one.value))
    assert ratios[1] < 0.5 * ratios[0]


def test_expand_H_vanishes_to_second_order():
    g = make_first_phase(h=1, X=100, alpha=0.5, q=3, u=1, m=2, n=5, s=1)
    t0 = stationary_point(g)
    g_t0, curv = stationary_values(g)

    def H(t):
        return float(g.g(t)) - g_t0 - 0.5 * curv * (t - t0) ** 2

    assert abs(H(t0)) <= 1e-8
    h1 = (H(t0 + 1e-5) - H(t0 - 1e-5)) / 2e-5
    h2 = (H(t0 + 1e-4) - 2 * H(t0) + H(t0 - 1e-4)) / 1e-8
    assert abs(h1) <= 1e-6
    assert abs(h2) <= 1e-5


def test_expand_positive_curvature_rejected():
    g = make_generic_phase(lambda t: +100.0 * (np.asarray(t, float) - 1.5) ** 2)
    with pytest.raises(ArgumentError, match="conjugate"):
        stationary_expand(W, g, n_terms=1)


def test_expand_too_many_terms_rejected():
    g = gaussian_phase(Y=200.0, t0=1.5)
    with pytest.raises(ArgumentError):
        stationary_expand(W, g, n_terms=4)


# ---------------------------------------------------------------------------
# Faa di Bruno jet

def test_phase_jet_matches_mpmath_derivatives():
    # H(t) = sin(t - c) has H(c) = 0, H'(c) = 1, H''(c) = 0, H'''(c) = -1
    c = 0.7
    jet = phase_jet_derivatives(1.0, 0.0, -1.0, 0.0)

    def F(t):
        return mpmath.e ** (2j * mpmath.pi * mpmath.sin(t - c))

    for order, got in enumerate(jet, start=1):
        want = complex(mpmath.diff(F, c, order, h=1e-4))
        assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# non-stationary (first-derivative) bound

def test_nonstationary_bound_formula():
    # Delta1 = Q R / sqrt(Y) = 2, Delta2 = R V = 2, A = 10
    val = nonstationary_bound(X_I=1.0, V_I=2.0, Y_I=1.0, Q_I=2.0, R_I=1.0,
                              A_I=10.0, J_len=1.0)
    assert abs(val - 2.0 ** -9) < 1e-18


def test_nonstationary_bound_monotone_in_A():
    prev = math.inf
    for A in (2.0, 5.0, 10.0, 20.0):
        cur = nonstationary_bound(X_I=1.0, V_I=3.0, Y_I=1.0, Q_I=3.0, R_I=1.0,
                                  A_I=A, J_len=1.0)
        assert cur < prev
        prev = cur


def test_nonstationary_branch_instance():
    # first-identity phase with s <= 0: no stationary point, and the
    # derivative floor gives Delta1 = Q R / sqrt(Y) >= (alpha/6) X^{alpha/2}
    alpha, X, h = 0.1, 10 ** 6, 1
    q, u, m, n = 3, 1, 2, 5
    tw = truncation_windows(alpha, h, u, m, n, q, X)
    # at this scale T2 < 1, so the only integer in [-T2, T1) is s = 0
    assert tw.T2 < 1.0
    for s in (0, -1, -5):  # s <= 0 never has a stationary point
        g = make_first_phase(h=h, X=X, alpha=alpha, q=q, u=u, m=m, n=n, s=s)
        ts = np.linspace(0.8, 2.2, 2001)
        R_I = float(np.min(np.abs(g.dg(ts, 1))))
        Y_I = h * X ** alpha
        delta1 = 1.0 * R_I / math.sqrt(Y_I)
        assert delta1 >= (alpha / 6) * X ** (alpha / 2)


# ---------------------------------------------------------------------------
# truncation windows

def test_truncation_worked_example():
    tw = truncation_windows(0.5, 1, 1, 2, 5, 3, 100)
    assert abs(tw.T1 - 0.375) < 1e-15
    assert abs(tw.T2 - 6.0) < 1e-15
    assert not tw.empty_main_term


@given(st.floats(min_value=0.05, max_value=0.45),
       st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=100, deadline=None)
def test_truncation_ratios(alpha, h, m, q):
    tw = truncation_windows(alpha, h, 1, m, 7, q, 5000, s=3)
    assert abs(tw.T2 - 16 * tw.T1) <= 1e-12 * tw.T2
    assert abs(tw.T4 - 16 * tw.T3) <= 1e-12 * max(tw.T4, 1e-300)


def test_truncation_empty_marker():
    tw = truncation_windows(0.1, 1, 1, 1, 2, 2, 10 ** 6)
    assert tw.T2 < 1.0 and tw.empty_main_term


# ---------------------------------------------------------------------------
# Poisson summation, first identity

def test_poisson_first_classical():
    # principal character, h = 0: classical Poisson for a smoothed
    # arithmetic-progression lattice sum
    res = poisson_verify_first(q=5, u=1, m=2, n=3, chi_index=0, h=0,
                               alpha=0.1, X=10 ** 4, window=BUMP, tol=1e-6)
    assert res.rel <= 1e-8
    assert res.diff <= 1e-6 * max(1.0, abs(res.lhs))


def test_poisson_first_mild_instance():
    res = poisson_verify_first(q=5, u=1, m=2, n=3, chi_index=0, h=1,
                               alpha=0.1, X=10 ** 4, window=BUMP, tol=1e-6)
    assert res.rel <= 1e-6


def test_poisson_first_doubling_smax_consistent():
    base = poisson_verify_first(q=5, u=1, m=2, n=3, chi_index=0, h=0,
                                alpha=0.1, X=10 ** 4, window=BUMP,
                                s_max=20, tol=1e-5)
    double = poisson_verify_first(q=5, u=1, m=2, n=3, chi_index=0, h=0,
                                  alpha=0.1, X=10 ** 4, window=BUMP,
                                  s_max=40, tol=1e-5)
    assert abs(base.rhs - double.rhs) <= base.tail_bound + 1e-12


def test_poisson_first_scale_guard():
    with pytest.raises(ArgumentError, match="increase X"):
        poisson_verify_first(q=3, u=50, m=7, n=11, chi_index=0, h=1,
                             alpha=0.1, X=100, window=BUMP)


# ---------------------------------------------------------------------------
# Poisson summation, second identity

def _second_principal_case():
    alpha, q, X = 0.05, 3, 10 ** 4
    h = 5035
    s = max(1, round((alpha * h * q) ** 2 * 2 / (2 * X ** (1 - 2 * alpha))))
    return dict(q=q, u=1, m=2, s=s, chi_index=0, h=h, alpha=alpha, X=X,
                window=BUMP)


def test_poisson_second_principal():
    res = poisson_verify_second(tol=1e-4, **_second_principal_case())
    assert res.rel <= 1e-5
    assert res.meta["T3"] == pytest.approx(0.5, abs=0.2)


def test_poisson_second_jacobian_change_of_variables():
    case = _second_principal_case()
    pilot = poisson_verify_second(sigma_max=4, tol=1e12, **case)
    N, K = pilot.meta["N"], pilot.meta["K"]
    lhs, rhs = second_change_of_variables_check(
        q=case["q"], u=case["u"], m=case["m"], s=case["s"], sigma=1,
        h=case["h"], alpha=case["alpha"], X=case["X"], window=case["window"],
        N=N, K=K)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_poisson_second_empty_window():
    res = poisson_verify_second(q=3, u=1, m=2, s=2, chi_index=0, h=50,
                                alpha=0.05, X=10 ** 4, window=BUMP, tol=1e-4)
    assert res.meta["T4"] < 1.0
    assert res.empty_main_term
    # no sigma falls in the stationary band (T3, T4), yet the identity still
    # verifies through the non-stationary quadrature terms
    assert res.rel <= 1e-6
    assert abs(res.lhs) <= res.meta["amp_l1"]


# ---------------------------------------------------------------------------
# the shared s-grid behind both Poisson checks

def test_subdivide_matches_linspace_pieces():
    rng = np.random.default_rng(7)
    for _ in range(200):
        edges = np.unique(rng.uniform(-50.0, 50.0, int(rng.integers(2, 40))))
        if len(edges) < 2:
            continue
        need = rng.integers(1, 30, len(edges) - 1)
        pieces = [np.linspace(edges[i], edges[i + 1], need[i] + 1)[:-1]
                  for i in range(len(edges) - 1)]
        expected = np.append(np.concatenate(pieces), edges[-1])
        assert np.array_equal(osc._subdivide(edges, need), expected)


def _captured_s_grid(monkeypatch, verify, **case):
    """Run a Poisson check and capture the arguments of its shared-grid
    call together with the per-s values and errors it returned."""
    calls = []
    real = osc._s_integrals

    def spy(w, a, b, g0, slope, ss, tol):
        out = real(w, a, b, g0, slope, ss, tol)
        calls.append(((w, a, b, g0, slope, list(ss), tol), out))
        return out

    monkeypatch.setattr(osc, "_s_integrals", spy)
    verify(**case)
    assert len(calls) == 1
    return calls[0]


def _criterion6_cases():
    # criterion 6's "first q=12 alpha=0.05" and "second q=12 alpha=0.05"
    alpha, q, X = 0.05, 12, 10_000.0
    first = dict(q=q, u=1, m=2, n=3, chi_index=1, alpha=alpha, X=X,
                 window=BUMP, tol=1e-5,
                 h=float(round(X ** (1 - alpha) / (alpha * q))))
    h2 = 5035.0
    second = dict(q=q, u=1, m=2, chi_index=1, h=h2, alpha=alpha, X=X,
                  window=BUMP, tol=1e-5,
                  s=max(1, round((alpha * h2 * q) ** 2 * 2
                                 / (2 * X ** (1 - 2 * alpha)))))
    return [(poisson_verify_first, first), (poisson_verify_second, second)]


@pytest.mark.parametrize("which", [0, 1], ids=["first", "second"])
def test_shared_grid_matches_per_s_quadrature(monkeypatch, which):
    verify, case = _criterion6_cases()[which]
    (w, a, b, g0, _, ss, tol), (vals, errs, _) = _captured_s_grid(
        monkeypatch, verify, **case)
    assert (a, b) == (w.lo, w.hi)
    assert len(ss) > 10
    s_key = "s" if which == 0 else "sigma"
    for s, val, err in zip(ss, vals, errs):
        g_s = dataclasses.replace(g0, params={**g0.params, s_key: int(s)})
        ref = quad_osc(w, g_s, (w.lo, w.hi), tol=tol)
        assert err <= tol
        assert abs(val - ref.value) <= err + ref.error_estimate, s


def test_shared_grid_panel_cap_raises(monkeypatch):
    verify, case = _criterion6_cases()[0]
    (*grid, ss, tol), _ = _captured_s_grid(monkeypatch, verify, **case)
    # the oscillation budget alone needs ~6,000 panels here
    monkeypatch.setattr(osc, "_MAX_PANELS", 64)
    with pytest.raises(AccuracyError) as exc:
        osc._s_integrals(*grid, ss, tol)
    assert exc.value.value is None
    # the refinement rounds honour the cap too, and report what they reached
    monkeypatch.setattr(osc, "_MAX_PANELS", 10_000)
    with pytest.raises(AccuracyError) as exc:
        osc._s_integrals(*grid, ss, 1e-12)
    vals, errs = exc.value.value
    assert len(vals) == len(errs) == len(ss)
    assert exc.value.error_estimate == errs.max() > 1e-12
    with pytest.raises(ArgumentError):
        osc._s_integrals(*grid, ss, 1e-13)
