import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracprimes.oscillatory as osc
from fracprimes.errors import (AccuracyError, ArgumentError,
                               ResourceLimitError, StationaryPointError)
from fracprimes.oscillatory import (_THETA, PhaseModel, WindowModel,
                                    _partition, _power_phase,
                                    _second_amplitudes,
                                    alpha_constants, gaussian_phase,
                                    make_first_phase,
                                    make_second_phase, nonstationary_bound,
                                    poisson_verify_first,
                                    poisson_verify_second, quad_osc,
                                    stationary_expand, stationary_point,
                                    stationary_values, truncation_windows,
                                    window_from_bump)
from fracprimes.smoothing import BumpWindow, eval_bump, series_exp

import oracles
from test_acceptance import _poisson_check_args, _poisson_grid


BUMP = BumpWindow(y=2.0, delta=0.2)
W = window_from_bump(BUMP)


def _exact(*derivs):
    """dg(t, order) from the callables for g', g'', ...; zero beyond them."""
    def dg(t, order):
        return derivs[order - 1](t) if order <= len(derivs) else np.zeros_like(t)
    return dg


def _no_zero():
    """The closed form of a phase whose g' has no isolated zero."""
    raise StationaryPointError("g' has no isolated zero")


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
    g = PhaseModel({}, lambda t: -(t - 2.0) ** 2,
                   _exact(lambda t: -2 * (t - 2.0),
                          lambda t: np.full_like(t, -2.0)),
                   lambda: (2.0, 0.0, -2.0))
    assert abs(stationary_point(g, window=(0.0, 4.0)) - 2.0) < 1e-8


def test_stationary_point_at_zero():
    # the residual check scales with |t0|; the closed form has g'(0) = 0
    g = gaussian_phase(200.0, 0.0)
    assert stationary_point(g, (-1.0, 1.3)) == 0.0


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


@pytest.mark.parametrize("which", ["first", "second", "gaussian"])
def test_closed_forms_match_the_window_scan(which):
    # the closed forms each phase carries against a scan of the same g, g'
    rng = np.random.default_rng(2024)
    for i in range(40):
        alpha = float(rng.uniform(0.05, 0.45))
        X = float(10 ** rng.uniform(2, 6))
        h = float(rng.uniform(0.5, 1000.0))
        q, u, m, n, s, sigma = (int(v) for v in rng.integers(1, 13, 6))
        if which == "first":
            ph = make_first_phase(h, X, alpha, q, u, m, n, s)
        elif which == "second":
            ph = make_second_phase(h, X, alpha, q, u, m, s, sigma)
        else:
            # t0 in (0.2, 1.8), never a point of the scan grid, and 1.3
            ph = gaussian_phase(10.0 + h, 1.3 if i == 0 else 4.0 * alpha)
        t0 = stationary_point(ph)
        (t_scan,) = oracles.stationary_scan(ph.dg, 0.5 * t0, 2.0 * t0)
        assert t_scan == pytest.approx(t0, rel=1e-10)
        assert (float(ph.g(t_scan)), float(ph.dg(t_scan, 2))) == pytest.approx(
            stationary_values(ph), rel=1e-10)


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
    g0 = PhaseModel({}, lambda t: np.zeros_like(np.asarray(t, float)),
                    _exact(), _no_zero)
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
        g = PhaseModel({}, lambda t, R=slope: R * np.asarray(t, float),
                       _exact(lambda t, R=slope: np.full_like(t, R)), _no_zero)
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
    # an amplitude cusp slows the trapezoid rule to a power of N; under a
    # low node cap the error must carry the best value and its estimate
    cusp = WindowModel(fn=lambda t: np.sqrt(np.abs(np.asarray(t, float) - 1.5)),
                       lo=0.8, hi=2.2)
    lin = PhaseModel({}, lambda t: 3.0 * np.asarray(t, float),
                     _exact(lambda t: np.full_like(t, 3.0)), _no_zero)
    monkeypatch.setattr(osc, "_MAX_TRAPEZOID_NODES", 2 ** 12)
    with pytest.raises(AccuracyError) as exc:
        quad_osc(cusp, lin, tol=1e-12)
    assert isinstance(exc.value.value, complex)
    assert isinstance(exc.value.error_estimate, float)


@pytest.mark.parametrize("J", [(2.0, 1.0), (1.5, 1.5), (float("nan"), 2.0)])
def test_reversed_or_empty_J_is_an_argument_error(J):
    g = gaussian_phase(Y=200.0, t0=1.5)
    with pytest.raises(ArgumentError, match="J"):
        quad_osc(W, g, J)
    with pytest.raises(ArgumentError, match="J"):
        stationary_expand(BUMP, g, J=J)


def test_non_finite_phase_is_an_argument_error():
    # a NaN speed must stop before the panel budget casts it to int
    with pytest.raises(ArgumentError, match="not finite"):
        quad_osc(W, gaussian_phase(float("nan"), 1.5))


def test_J_outside_the_support_integrates_to_zero():
    res = quad_osc(W, gaussian_phase(Y=200.0, t0=1.5), (3.0, 4.0))
    assert (res.value, res.error_estimate, res.terms_used) == (0j, 0.0, 0)


def test_quad_memory_is_bounded():
    # the `oscint --phase first` default: N = 131,072, so 131,071 nodes;
    # the rule works through them in blocks of _BLOCK_NODES
    g = make_first_phase(h=1.0, X=100_000, alpha=0.1, q=3, u=1, m=1, n=1, s=1)
    tracemalloc.start()
    try:
        res = quad_osc(W, g, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.terms_used == 131_071
    assert res.error_estimate <= 1e-9
    assert peak < 32 * 2 ** 20, peak


_GL_PHASES = {
    "gaussian-200": gaussian_phase(200.0, 1.5),
    "gaussian-50": gaussian_phase(50.0, 0.95),
    # the `oscint --phase first` and `--phase second` defaults
    "first": make_first_phase(1.0, 100_000, 0.1, 3, 1, 1, 1, 1),
    "second": make_second_phase(1.0, 100_000, 0.1, 3, 1, 1, 1, 1),
    "first-h1": make_first_phase(1, 100, 0.5, 3, 1, 2, 5, 1)}


@pytest.mark.parametrize("J", [None, (1.0, 2.0), (0.9, 1.6), (1.2, 1.9),
                               (1.45, 1.55), (0.7, 1.6)], ids=str)
@pytest.mark.parametrize("name", list(_GL_PHASES))
def test_quad_osc_matches_gl_oracle(name, J):
    # the full support, J clipping both ends or one end (0.7 is outside the
    # support) against adaptive Gauss-Legendre panels
    g = _GL_PHASES[name]
    res = quad_osc(W, g, J, tol=1e-9)
    ref, ref_err, _ = oracles.gl_quad_osc(W, g, J, tol=1e-9)
    assert abs(res.value - ref) <= res.error_estimate + ref_err


# ---------------------------------------------------------------------------
# stationary expansion

def test_expand_gaussian_leading_term():
    for Y in (50.0, 200.0, 800.0):
        g = gaussian_phase(Y=Y, t0=1.5)
        lead = stationary_expand(BUMP, g, n_terms=1)
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
        lead = stationary_expand(BUMP, g, n_terms=1)
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
        one = stationary_expand(BUMP, g, n_terms=1)
        two = stationary_expand(BUMP, g, n_terms=2)
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
    g = PhaseModel({}, lambda t: +100.0 * (np.asarray(t, float) - 1.5) ** 2,
                   _exact(lambda t: 200.0 * (t - 1.5),
                          lambda t: np.full_like(t, 200.0)),
                   lambda: (1.5, 0.0, 200.0))
    with pytest.raises(ArgumentError, match="conjugate"):
        stationary_expand(BUMP, g, n_terms=1)


def test_expand_too_many_terms_rejected():
    g = gaussian_phase(Y=200.0, t0=1.5)
    with pytest.raises(ArgumentError):
        stationary_expand(BUMP, g, n_terms=4)


def _gaussian_case(Y, t0):
    """The phase and the same phase at mpmath's working precision."""
    return gaussian_phase(Y, t0), lambda t: -Y * (t - t0) ** 2 / 2


def _first_kind_case(h, X, alpha, q):
    g = make_first_phase(h=h, X=X, alpha=alpha, q=q, u=1, m=1, n=1, s=1)
    return g, lambda t: h * (X * t) ** mpmath.mpf(alpha) - X * t / q


def _sextic_case(Y, t0, a):
    """g = -Y (t - t0)^2 / 2 + sum_k a_k (t - t0)^k over k = 3..6."""
    a = {2: -Y / 2, **a}

    def dg(t, order):
        return sum(c * math.perm(k, order) * (t - t0) ** (k - order)
                   for k, c in a.items() if k >= order)

    def g_mp(t):
        return sum(c * (t - t0) ** k for k, c in a.items())

    return PhaseModel({}, g_mp, dg, lambda: (t0, 0.0, -Y)), g_mp


@pytest.mark.parametrize("case, rel", [
    (_gaussian_case(50.0, 0.95), 1e-10),                # rising edge
    (_gaussian_case(200.0, 2.07), 1e-10),               # falling edge
    (_first_kind_case(151_700, 100_000, 0.1, 3), 1e-8),   # plateau, 1.4986
    # u = 1/2, where psi's even coefficients vanish, so H_3..H_6 each move
    # |G^(6)(t0)| at first order
    (_sextic_case(100.0, 0.9, {3: 3.0, 4: -2.0, 5: 5.0, 6: -7.0}), 1e-10)])
def test_expand_matches_mpmath_jets(case, rel):
    # the three-term value and its error estimate, against the same formula
    # fed G^(2n)(t0) from 60-digit numerical differentiation
    g, g_mp = case
    t0, g0, g2 = g.closed()
    got = stationary_expand(BUMP, g, n_terms=3)
    value, err = oracles.stationary_expand_oracle(
        BUMP.y, BUMP.delta, g_mp, t0, g0, g2, n_terms=3)
    assert abs(got.value - value) <= rel * abs(value)
    # the estimate adds the float64 rounding of g(t0) to the omitted term
    rounding = 4 * math.pi * 2.0 ** -52 * abs(g0) * abs(got.value)
    assert abs(got.error_estimate - rounding - err) <= rel * err


@pytest.mark.parametrize("k", [1, 10 ** 2, 10 ** 4, 10 ** 6])
def test_expand_error_estimate_covers_phase_rounding(k):
    # g(t0) grows like k (4.5e5 .. 4.5e11) and enters in float64: the
    # estimate must cover that rounding, and not by more than a factor 100
    h, X, alpha, q = 151_700 * k, 100_000, 0.1, 3
    g = make_first_phase(h=h, X=X, alpha=alpha, q=q, u=1, m=1, n=1, s=k)
    t0, g0, g2 = g.closed()
    got = stationary_expand(BUMP, g, n_terms=1)
    value, _ = oracles.stationary_expand_oracle(
        BUMP.y, BUMP.delta,
        lambda t: h * (X * t) ** mpmath.mpf(alpha) - X * k * t / q,
        t0, g0, g2, n_terms=1)
    d = abs(got.value - value)
    assert d <= got.error_estimate <= 100 * d


# ---------------------------------------------------------------------------
# Taylor jet of e(H)

def test_phase_jet_matches_mpmath_derivatives():
    # H(t) = sin(t - c): its Taylor coefficients at c are 0, 1, 0, -1/6, 0,
    # 1/120, 0
    c = 0.7
    H = [0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120, 0.0]
    jet = series_exp([2j * math.pi * h for h in H])

    def F(t):
        return mpmath.e ** (2j * mpmath.pi * mpmath.sin(t - c))

    for order in range(1, 7):
        got = math.factorial(order) * jet[order]
        want = complex(mpmath.diff(F, c, order))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


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


def test_poisson_second_block_budget():
    # N ~ 1.02e5 puts 19,468 integers in the n-block, beyond the 10^4-term
    # block budget
    with pytest.raises(ResourceLimitError) as exc:
        poisson_verify_second(q=3, u=1, m=1, s=1, chi_index=1, h=12,
                              alpha=0.1, X=10 ** 6, window=BUMP, sigma_max=4)
    assert (exc.value.estimate, exc.value.budget) == (19468, 10 ** 4)


def second_change_of_variables_check(q: int, u: int, m: int, s: int, sigma: int,
                                     h: float, alpha: float, X: int,
                                     window: BumpWindow, N: float,
                                     K: float) -> tuple[complex, complex]:
    """The sigma-integral in the n-variable vs in the tau-variable.

    Returns (direct, transformed): direct = int F(n) e(Phi(n) - sigma n/q) dn,
    transformed = (s X^{1-a}/(a h q u m))^{b/2} J(sigma), both by quad_osc
    to tol 1e-9.  Equality is the change-of-variables
    T = a h q u m n/(s X^{1-a}) with its Jacobian.
    """
    if not h > 0:  # the n-phase scale (1-a) (a^a h)^{1/(1-a)} is real
        raise ArgumentError(f"the second-kind n-phase needs h > 0, got {h}")
    cst = alpha_constants(alpha)
    part = _partition(X)
    part.index_of(N)
    part.index_of(K)
    aq = alpha * h * q * u * m
    amp_n, w_tau = _second_amplitudes(X, alpha, h, q, u, m, s, window, part,
                                      N, K)
    phi_scale = (1 - alpha) * (alpha ** alpha * h) ** cst.delta
    k, gam = q * u * m / s, cst.gamma

    def closed():
        if sigma <= 0:
            raise StationaryPointError("no stationary point: need sigma > 0")
        n0 = (sigma / (q * phi_scale * gam * k ** gam)) ** (1 / (gam - 1))
        return (n0, phi_scale * (k * n0) ** gam - sigma * n0 / q,
                phi_scale * gam * (gam - 1) * k ** gam * n0 ** (gam - 2))

    n_lo, n_hi = N / _THETA, N * _THETA
    direct = quad_osc(WindowModel(fn=amp_n, lo=n_lo, hi=n_hi),
                      _power_phase({}, phi_scale, k, gam, sigma, q,
                                   closed),   # Phi(n) - sigma n / q
                      (n_lo, n_hi), tol=1e-9)

    tau_lo = aq * n_lo / (s * X ** (1 - alpha))
    tau_hi = aq * n_hi / (s * X ** (1 - alpha))
    phase = make_second_phase(h=h, X=X, alpha=alpha, q=q, u=u, m=m,
                              s=s, sigma=sigma)
    transformed = quad_osc(WindowModel(fn=w_tau, lo=tau_lo, hi=tau_hi),
                           phase, (tau_lo, tau_hi), tol=1e-9)
    pref = (s * X ** (1 - alpha) / aq) ** (cst.beta / 2)
    return direct.value, pref * transformed.value


def test_poisson_second_jacobian_change_of_variables():
    case = _second_principal_case()
    pilot = poisson_verify_second(sigma_max=4, tol=1e12, **case)
    N, K = pilot.meta["N"], pilot.meta["K"]
    lhs, rhs = second_change_of_variables_check(
        q=case["q"], u=case["u"], m=case["m"], s=case["s"], sigma=1,
        h=case["h"], alpha=case["alpha"], X=case["X"], window=case["window"],
        N=N, K=K)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
    # N on the grid value nearest the stationary point n0 of the n-phase
    # Phi(n) - sigma n / q, so that the direct quadrature seeds a panel there
    alpha, h, q = case["alpha"], case["h"], case["q"]
    c = alpha_constants(alpha)
    phi = (1 - alpha) * (alpha ** alpha * h) ** c.delta
    k = q * case["u"] * case["m"] / case["s"]
    for sigma, want in ((1, 1244.1), (2, 598.6)):
        n0 = (sigma / (q * phi * c.gamma * k ** c.gamma)) \
            ** (1 / (c.gamma - 1))
        N = 1.1 ** round(math.log(n0) / math.log(1.1))
        assert round(n0, 1) == want and N / 1.1 < n0 < N * 1.1
        lhs, rhs = second_change_of_variables_check(
            q=q, u=case["u"], m=case["m"], s=case["s"], sigma=sigma, h=h,
            alpha=alpha, X=case["X"], window=case["window"], N=N, K=K)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_change_of_variables_check_needs_positive_h():
    # a negative h made the n-phase scale complex and raised TypeError
    with pytest.raises(ArgumentError, match="needs h > 0"):
        second_change_of_variables_check(
            q=3, u=1, m=2, s=143, sigma=1, h=-5035.0, alpha=0.05, X=10 ** 4,
            window=BumpWindow(2.0, 0.2), N=1.1 ** 75, K=1.1 ** 22)


def test_poisson_second_empty_window():
    res = poisson_verify_second(q=3, u=1, m=2, s=2, chi_index=0, h=50,
                                alpha=0.05, X=10 ** 4, window=BUMP, tol=1e-4)
    assert res.meta["T4"] < 1.0
    assert res.empty_main_term
    # no sigma falls in the stationary band (T3, T4), yet the identity still
    # verifies through the non-stationary quadrature terms
    assert res.rel <= 1e-6
    assert abs(res.lhs) <= res.meta["amp_l1"]


@pytest.mark.parametrize("h", [-50.0, 0.0])
def test_poisson_second_needs_positive_h(h):
    # the critical point (a h q u m n / s)^{1/(1-a)} needs h > 0
    with pytest.raises(ArgumentError, match="needs h > 0"):
        poisson_verify_second(q=3, u=1, m=2, s=2, chi_index=0, h=h,
                              alpha=0.05, X=10 ** 4, window=BUMP, tol=1e-4)


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
        assert np.array_equal(oracles.subdivide(edges, need), expected)


def _captured_s_grid(monkeypatch, verify, **case):
    """Run a Poisson check and capture the arguments of its shared-grid
    call together with the per-s values and errors it returned."""
    calls = []
    real = osc._trapezoid_s_integrals

    def spy(w, a, b, g0, slope, ss, tol):
        out = real(w, a, b, g0, slope, ss, tol)
        calls.append(((w, a, b, g0, slope, list(ss), tol), out))
        return out

    monkeypatch.setattr(osc, "_trapezoid_s_integrals", spy)
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
    make, s_key = [(make_first_phase, "s"), (make_second_phase, "sigma")][which]
    for s, val, err in zip(ss, vals, errs):
        g_s = make(**{**g0.params, s_key: int(s)})
        ref, ref_err, _ = oracles.gl_quad_osc(w, g_s, tol=tol)
        assert err <= tol
        assert abs(val - ref) <= err + ref_err, s


def test_trapezoid_cut_window_and_node_cap(monkeypatch):
    verify, case = _criterion6_cases()[0]
    (w, a, b, g0, slope, ss, tol), (vals, errs, nodes) = _captured_s_grid(
        monkeypatch, verify, **case)
    assert w(a) == w(b) == 0.0
    # a window cut at its middle, w(mid) != 0: the smoothstep substitution
    # makes the integrand vanish at both ends again
    mid = 0.5 * (a + b)
    assert w(mid) != 0.0
    pick = [0, len(ss) // 2, len(ss) - 1]
    cut_vals, cut_errs, _ = osc._trapezoid_s_integrals(
        w, mid, b, g0, slope, [ss[k] for k in pick], tol)
    for k, val, err in zip(pick, cut_vals, cut_errs):
        g_s = make_first_phase(**{**g0.params, "s": int(ss[k])})
        ref, ref_err, _ = oracles.gl_quad_osc(w, g_s, (mid, b), tol=tol)
        assert abs(val - ref) <= err + ref_err, ss[k]
    # the converged level N = nodes + 1 as the cap, and a tolerance it misses:
    # the error carries that level's values and errors, per s
    monkeypatch.setattr(osc, "_MAX_TRAPEZOID_NODES", nodes + 1)
    with pytest.raises(AccuracyError) as exc:
        osc._trapezoid_s_integrals(w, a, b, g0, slope, ss, 1e-30)
    got_vals, got_errs = exc.value.value
    assert np.array_equal(got_vals, vals) and np.array_equal(got_errs, errs)
    assert exc.value.error_estimate == errs.max()
    # a cap below the starting level leaves nothing to report
    monkeypatch.setattr(osc, "_MAX_TRAPEZOID_NODES", 16)
    with pytest.raises(AccuracyError) as exc:
        osc._trapezoid_s_integrals(w, a, b, g0, slope, ss, tol)
    assert exc.value.value is None


@pytest.mark.parametrize("which", [0, 1], ids=["first", "second"])
def test_trapezoid_matches_exact_phase_oracle(monkeypatch, which):
    # the same rule at twice the nodes, with every phase g_s(t) mod 1 taken
    # in 40-digit arithmetic: the float64 phases and the stopping level
    # together stay within the reported err(s), for every s
    verify, case = _criterion6_cases()[which]
    (w, a, b, g0, slope, ss, _), (vals, errs, nodes) = _captured_s_grid(
        monkeypatch, verify, **case)
    p = {k: mpmath.mpf(v) for k, v in g0.params.items()}
    al = p["alpha"]
    if which == 0:
        def lead(t):
            return p["h"] * (p["X"] * t) ** al
        mp_slope = p["X"] / (p["q"] * p["u"] * p["m"] * p["n"])
    else:
        def lead(t):
            return (1 - al) * p["h"] * p["X"] ** al * t ** (al / (1 - al))
        mp_slope = (p["X"] ** (1 - al) * p["s"]
                    / (al * p["h"] * p["q"] ** 2 * p["u"] * p["m"]))
    ref = oracles.exact_phase_s_integrals(w, a, b, lead, mp_slope, ss,
                                          2 * (nodes + 1))
    for s, val, err, want in zip(ss, vals, errs, ref):
        assert abs(val - want) <= err, s


@pytest.mark.parametrize("sm_extra", [(0, 1, 5), (12, 40, 300)])
def test_tail_sum_matches_scalar_loop(monkeypatch, sm_extra):
    # every tail sum of the 20 criterion-6 cases, at the s_max each case
    # asked for and at fixed ones, bit for bit against a loop over s: as the
    # check's own memo gave it, through an empty memo, and through a memo
    # already grown past every point asked for, so that each later sm is
    # below an earlier one
    calls = []
    real = osc._tail_sum

    def spy(*args):
        out = real(*args)
        calls.append((args[:-1], out))
        return out

    monkeypatch.setattr(osc, "_tail_sum", spy)
    for verify, case in map(_poisson_check_args, _poisson_grid()):
        n_before = len(calls)
        verify(**case)
        assert len(calls) > n_before
    for (sm, *rest), out in calls:
        assert out.hex() == oracles.tail_beyond_loop(sm, *rest).hex()
        grown = {}
        real(max(sm, *sm_extra) + 1, *rest, grown)
        for at in (sm, *sm_extra):
            want = oracles.tail_beyond_loop(at, *rest).hex()
            assert real(at, *rest, {}).hex() == want
            assert real(at, *rest, grown).hex() == want


def test_tail_bound_bounds_the_tail():
    # the s-sum cut at s_max against the same sum run on to 4 s_max + 8, for
    # each criterion-6 case: the difference is the tail, and tail_bound
    # (Blomer-Khan-Young's integration-by-parts bound with constant 1) must
    # cover it
    for verify, case in map(_poisson_check_args, _poisson_grid()):
        key = "s_max" if verify is poisson_verify_first else "sigma_max"
        cut = verify(**case)
        far = verify(**case, **{key: 4 * cut.s_max + 8})
        assert 0.0 < abs(far.rhs - cut.rhs) <= cut.tail_bound, case


def test_nonstationary_bound_array_matches_scalar():
    r = np.geomspace(1e-3, 1e4, 1001)
    kw = dict(X_I=0.9, V_I=0.0025, Y_I=3.7e3, Q_I=1.0, A_I=8.0, J_len=1.6)
    got = nonstationary_bound(R_I=r, **kw)
    want = [1.6 * 0.9 * ((x / math.sqrt(3.7e3)) ** -8.0 + (x * 0.0025) ** -8.0)
            for x in r.tolist()]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert nonstationary_bound(R_I=r[7], **kw) == want[7]
    with pytest.raises(ArgumentError, match="R_I"):
        nonstationary_bound(R_I=np.array([1.0, 0.0]), **kw)
