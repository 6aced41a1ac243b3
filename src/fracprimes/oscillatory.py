"""Oscillatory integrals and their asymptotic evaluations.

Four layers, bottom up:

* `_trapezoid_s_integrals` — the one quadrature rule: a trapezoid rule for
  int w(t) e(g(t) - slope s t) dt, all s on one grid, started at the phase's
  bandwidth and doubled until two levels agree.  It converges faster than
  any power of its node count because the integrand vanishes to all orders
  at both ends: every Poisson amplitude does, and a J that clips the window
  gets a smoothstep substitution that makes it so.  `quad_osc` is the rule
  at the single s = 0 over any J.
* `nonstationary_bound` — the integration-by-parts tail bound
  J_len * X_I * ((Q R / sqrt(Y))^{-A} + (R V)^{-A}) for phases whose
  derivative stays away from zero on the window, for one R_I or an array.
* `stationary_point` / `stationary_values` / `stationary_expand` — the
  stationary point from the closed form every phase carries, plus the
  truncated asymptotic expansion  e(g(t0)) / |g''|^{1/2} * sum_n p_n  with
  p_n = e^{-i pi/4} / n! * (4 pi i)^{-n} |g''|^{-n} G^{(2n)}(t0)
  (the e(x) = e^{2 pi i x} convention; G = psi * e(H), psi the bump, H the
  phase minus its second-order jet at t0), G's Taylor jet being the bump's
  (`smoothing.bump_jet`) times the series of e(H) from g's derivatives.
* `poisson_verify_first` / `poisson_verify_second` — both finite-vs-integral
  identities obtained by Poisson summation on a character-twisted smooth
  sum, each side computed independently, from one block construction
  (`_snap`, `_block_range`, `_slot_weight`, `_poisson_s_sum`); the second
  kind's phases take their tier from `expsums.monomial_frac`.

A `PhaseModel` is g with exact derivatives and its stationary point in
closed form.  Its `params` only records the constructor's arguments: to
change a parameter, call the constructor again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .charkloost import character_group, chi_values
from .errors import (AccuracyError, ArgumentError, InvariantViolation,
                     StationaryPointError, check_budget)
from .expsums import _MP50, frac_part, monomial_frac, unit_phases
from .smoothing import (JET_ORDER, BumpWindow, bump_jet, eval_bump,
                        eval_member, make_partition, series_exp, series_mul,
                        smoothstep_pair)


# ---------------------------------------------------------------------------
# the alpha-constant pack

@dataclass(frozen=True)
class AlphaConstants:
    alpha: float
    beta: float    # (2-a)/(1-a)
    gamma: float   # a/(1-a)
    delta: float   # 1/(1-a)
    xi: float      # (1-a)/(1-2a)
    eta: float     # a/(1-2a)
    omega: float   # (2-3a)/(1-2a)


def alpha_constants(alpha: float) -> AlphaConstants:
    if not 0.0 < alpha < 0.5:
        raise ArgumentError(f"need 0 < alpha < 1/2, got {alpha} "
                            "(xi/eta/omega are singular at 1/2)")
    a = float(alpha)
    return AlphaConstants(alpha=a,
                          beta=(2 - a) / (1 - a),
                          gamma=a / (1 - a),
                          delta=1 / (1 - a),
                          xi=(1 - a) / (1 - 2 * a),
                          eta=a / (1 - 2 * a),
                          omega=(2 - 3 * a) / (1 - 2 * a))


# ---------------------------------------------------------------------------
# windows and phases

@dataclass(frozen=True)
class WindowModel:
    """Smooth amplitude with compact support [lo, hi]; fn is vectorized.

    The quadrature's convergence rests on the smoothness: a kink or cusp in
    fn slows the trapezoid rule to a power of its node count."""

    fn: object
    lo: float
    hi: float

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))


def window_from_bump(w: BumpWindow) -> WindowModel:
    lo, hi = w.support
    return WindowModel(fn=lambda t: eval_bump(w, t), lo=lo, hi=hi)


@dataclass(frozen=True)
class PhaseModel:
    """Phase g with exact derivatives g^(k), k = 1..6.

    params only records the constructor's arguments; evaluation never reads
    it.  closed() returns (t0, g(t0), g''(t0)) at the zero of g', or raises
    StationaryPointError when g' has no zero.
    """

    params: dict
    _g: object
    _dg: object            # callable (t, order)
    closed: object         # callable () -> (t0, g(t0), g''(t0))

    def g(self, t):
        return self._g(np.asarray(t, dtype=float))

    def dg(self, t, order: int = 1):
        if not 1 <= order <= 6:
            raise ArgumentError(f"derivative order {order} not in [1, 6]")
        return self._dg(np.asarray(t, dtype=float), order)


def _power_phase(params, c, k, e, num, den, closed) -> PhaseModel:
    """g(t) = c (k t)^e - num t / den."""
    def g(t):
        return c * np.power(k * t, e) - num * t / den

    def dg(t, order):
        coef = c * k ** e
        for r in range(order):
            coef *= e - r
        out = coef * np.power(t, e - order)
        return out - num / den if order == 1 else out

    return PhaseModel(params, g, dg, closed)


def _need_positive(**ints):
    for name, val in ints.items():
        if val < 1:
            raise ArgumentError(f"need {name} >= 1, got {val}")


def make_first_phase(h, X, alpha, q, u, m, n, s) -> PhaseModel:
    """g(t) = h (X t)^a - X s t / (q u m n)."""
    _need_positive(q=q, u=u, m=m, n=n)

    def closed():
        if h <= 0 or s <= 0:
            raise StationaryPointError("no stationary point: need h > 0, s > 0")
        a = alpha
        t0 = (a * h * q * u * m * n / s) ** (1 / (1 - a)) / X
        # beta/gamma/delta stay finite on all of 0 < a < 1, unlike the
        # second-iteration constants, so compute them inline
        beta, gamma, delta = (2 - a) / (1 - a), a / (1 - a), 1 / (1 - a)
        qumn = q * u * m * n
        val = (1 - a) * (a ** a * h) ** delta * (qumn / s) ** gamma
        curv = -a * (1 - a) * h * X ** 2 * (s / (a * h * qumn)) ** beta
        return t0, val, curv

    return _power_phase(dict(h=h, X=X, alpha=alpha, q=q, u=u, m=m, n=n, s=s),
                        h, X, alpha, X * s, q * u * m * n, closed)


def make_second_phase(h, X, alpha, q, u, m, s, sigma) -> PhaseModel:
    """g(T) = (1-a) h X^a T^{a/(1-a)} - X^{1-a} s sig T / (a h q^2 u m)."""
    _need_positive(q=q, u=u, m=m)
    if h == 0:
        raise ArgumentError("the second-kind phase needs h != 0")
    a = alpha
    c = alpha_constants(a)

    def closed():
        if h <= 0 or s * sigma <= 0:
            raise StationaryPointError("no stationary point: need h > 0, "
                                       "s*sigma > 0")
        B = (a * h * q) ** 2 * u * m / (s * sigma)
        t0 = B ** c.xi / X ** (1 - a)
        val = (1 - 2 * a) * h * B ** c.eta
        curv = -(a * (1 - 2 * a) / (1 - a)) * h \
            * X ** (2 * (1 - a)) * (1.0 / B) ** c.omega
        return t0, val, curv

    lin = X ** (1 - a) * s * sigma / (a * h * q ** 2 * u * m)
    return _power_phase(dict(h=h, X=X, alpha=alpha, q=q, u=u, m=m, s=s,
                             sigma=sigma),
                        (1 - a) * h * X ** a, 1, c.gamma, lin, 1, closed)


def gaussian_phase(Y: float, t0: float) -> PhaseModel:
    """g(t) = -Y (t - t0)^2 / 2 with exact derivatives."""
    if not (math.isfinite(Y) and math.isfinite(t0)):
        raise ArgumentError(f"gaussian phase: Y={Y}, t0={t0} not finite")

    def g(t):
        return -0.5 * Y * (t - t0) ** 2

    def dg(t, order):
        if order == 1:
            return -Y * (t - t0)
        if order == 2:
            return -Y * np.ones_like(t)
        return np.zeros_like(t)

    return PhaseModel({"Y": Y, "t0": t0}, g, dg, lambda: (t0, g(t0), -Y))


# ---------------------------------------------------------------------------
# quadrature

@dataclass(frozen=True)
class OscIntegralResult:
    value: complex
    error_estimate: float
    terms_used: int


def _phase_circle(g_vals: np.ndarray) -> np.ndarray:
    return np.exp(2j * np.pi * frac_part(g_vals))


def _window(w: WindowModel, J) -> tuple:
    """J clipped to the support of w; the support itself when J is None."""
    if J is None:
        return w.lo, w.hi
    if not J[0] < J[1]:
        raise ArgumentError(f"J: need J[0] < J[1], got {tuple(J)}")
    return max(J[0], w.lo), min(J[1], w.hi)


def quad_osc(w: WindowModel, g: PhaseModel, J=None,
             tol: float = 1e-9) -> OscIntegralResult:
    """int w(t) e(g(t)) dt over J by the trapezoid rule of
    `_trapezoid_s_integrals` with the single s = 0; terms_used counts the
    nodes evaluated.

    The error estimate is |T_N - T_{N/2}| <= tol or, when larger, the floor
    that float64 rounding of g puts on the sum, so it can exceed tol by the
    floor alone.
    """
    a, b = _window(w, J)
    if not b > a:
        return OscIntegralResult(value=0j, error_estimate=0.0, terms_used=0)
    if tol < 1e-12:
        raise ArgumentError(f"tol {tol} below supported floor 1e-12")
    try:
        vals, errs, nodes = _trapezoid_s_integrals(w, a, b, g, 0.0, [0], tol)
    except AccuracyError as e:
        raise AccuracyError(str(e), value=None if e.value is None
                            else complex(e.value[0][0]),
                            error_estimate=e.error_estimate) from None
    return OscIntegralResult(value=complex(vals[0]),
                             error_estimate=float(errs[0]), terms_used=nodes)


_MAX_TRAPEZOID_NODES = 2 ** 20
_BLOCK_NODES = 2 ** 15   # ~0.5 MB per complex array of a block


def _trapezoid_s_integrals(w: WindowModel, a: float, b: float, g0: PhaseModel,
                           slope: float, ss, tol: float):
    """I(s) = int_a^b w e(g_s), g_s = g0 - slope s t, for each s in ss by
    one trapezoid rule; returns (values, errors, nodes), values/errors per s.

    The N-point rule converges faster than any power of N, once N exceeds
    the oscillations of the fastest phase, when the integrand vanishes to
    all orders at both ends (Trefethen and Weideman, SIAM Review 56(3),
    2014).  Every Poisson amplitude does; where w(a) or w(b) is not 0, the
    rule runs in u on [0, 1] with t = a + (b - a) S(u), weight (b - a) S'(u)
    and S the smoothstep, which makes the integrand vanish so (Iri,
    Moriguti and Takasawa, RIMS Kokyuroku 91, 1970).  N starts at the next
    power of two >= max(|g0'| + |slope| max|s|) (b - a) S' + 16 (from lower,
    two under-resolved levels can share one aliasing error and agree) and
    doubles, each level adding only its odd nodes, until every |T_N -
    T_{N/2}| is <= tol.  The reported error of I(s) is that difference or,
    when larger, the float64 rounding floor 2 pi 2^-52 (max|g0| + |slope s|
    max(|a|, |b|)) int|w|.  e(g_s) = e(g0) z^s with z = e(-slope t), so w
    and g0 are evaluated once per node.
    """
    if float(w(a)) == 0.0 and float(w(b)) == 0.0:
        def node(u):
            return a + (b - a) * u, 1.0
    else:
        def node(u):
            step, jac = smoothstep_pair(u)
            return a + (b - a) * step, jac
    ss = np.asarray(ss)
    slot = {int(s): j for j, s in enumerate(ss)}
    s_lo, s_hi = min(slot), max(slot)
    t, jac = node(np.linspace(0.0, 1.0, 257))
    speed = float(np.max((np.abs(g0.dg(t, 1)) + abs(slope) * max(-s_lo, s_hi))
                         * jac))
    if not math.isfinite(speed):
        raise ArgumentError("the phase speed |g'| is not finite on the window")
    n = 1 << (math.ceil((b - a) * speed + 16) - 1).bit_length()
    sums = np.zeros(len(slot), dtype=np.complex128)
    mass, g_max = 0.0, 0.0   # sum of |w| jac, max |g0| over the nodes so far
    vals = errs = None
    while n <= _MAX_TRAPEZOID_NODES:
        k = np.arange(1, n, 1 if vals is None else 2)
        for i in range(0, len(k), _BLOCK_NODES):
            t, jac = node(k[i:i + _BLOCK_NODES] / n)
            wt, g = np.asarray(w(t), dtype=float) * jac, g0.g(t)
            mass += float(np.abs(wt).sum())
            g_max = max(g_max, float(np.abs(g).max()))
            power = wt * _phase_circle(g) * _phase_circle(-slope * s_lo * t)
            z = _phase_circle(-slope * t)
            for s in range(s_lo, s_hi + 1):
                if (j := slot.get(s)) is not None:
                    sums[j] += power.sum()
                power *= z
        prev, vals = vals, sums * ((b - a) / n)
        if prev is not None:
            diff = np.abs(vals - prev)
            floor = (2 * np.pi * 2.0 ** -52 * mass * ((b - a) / n)
                     * (g_max + np.abs(slope * ss) * max(abs(a), abs(b))))
            errs = np.maximum(diff, floor)
            if diff.max() <= tol:
                return vals, errs, n - 1
        n *= 2
    raise AccuracyError(f"trapezoid rule: no convergence to tol={tol} within "
                        f"{_MAX_TRAPEZOID_NODES} nodes",
                        value=None if errs is None else (vals, errs),
                        error_estimate=None if errs is None else float(errs.max()))


# ---------------------------------------------------------------------------
# non-stationary (integration by parts) bound

def nonstationary_bound(X_I: float, V_I: float, Y_I: float, Q_I: float,
                        R_I, A_I: float, J_len: float):
    """J_len * X_I * ((Q R / sqrt(Y))^{-A} + (R V)^{-A}).

    The form of the integration-by-parts bound of Blomer, Khan and Young,
    Duke Math. J. 162 (2013), Lemma 8.1: valid when the phase derivative
    exceeds R_I on the window, the amplitude is X_I-bounded with V_I-scaled
    derivatives, and the phase second derivative is Y_I Q_I^{-2}-ish; the
    leading constant is not pinned by theory and is taken as 1.  R_I may be
    an array: the bound is then taken elementwise.
    """
    for name, val in (("X_I", X_I), ("V_I", V_I), ("Y_I", Y_I),
                      ("Q_I", Q_I), ("R_I", R_I), ("A_I", A_I),
                      ("J_len", J_len)):
        if np.any(np.asarray(val) <= 0):
            raise ArgumentError(f"{name} must be positive, got {val}")
    if Y_I < 1:
        raise ArgumentError(f"need Y_I >= 1, got {Y_I}")
    r = np.atleast_1d(np.asarray(R_I, dtype=float))

    def power(d):   # libm pow per element, as a scalar float ** computes it:
        # numpy's SIMD power can differ from it in the last bit
        return (d.astype(object) ** (-A_I)).astype(float)

    out = J_len * X_I * (power(Q_I * r / math.sqrt(Y_I)) + power(r * V_I))
    return out if np.ndim(R_I) else float(out[0])


# ---------------------------------------------------------------------------
# stationary phase

def _stationary(g: PhaseModel, window) -> tuple:
    """g.closed() read once, its t0 checked to be in window and a zero of g'."""
    t0, g0, g2 = g.closed()
    if window is not None and not window[0] <= t0 <= window[1]:
        raise StationaryPointError(
            f"stationary point {t0} outside window {window}")
    resid = abs(float(g.dg(t0, 1)))
    scale = abs(float(g.dg(t0, 2))) * abs(t0)
    if resid > 1e-10 * max(scale, 1e-300):
        raise InvariantViolation(
            f"stationary residual |g'(t0)| = {resid} exceeds 1e-10 * {scale}")
    return float(t0), g0, g2


def stationary_point(g: PhaseModel, window=None) -> float:
    """The zero of g' by the phase's closed form; inside window if given."""
    return _stationary(g, window)[0]


def stationary_values(g: PhaseModel, window=None) -> tuple[float, float]:
    """(g(t0), g''(t0)) at the zero of g'."""
    return _stationary(g, window)[1:]


def stationary_expand(w: BumpWindow, g: PhaseModel, n_terms: int = 1,
                      J=None) -> OscIntegralResult:
    """Truncated stationary-phase value of int psi e(g) around the unique
    interior stationary point, psi the bump w.

    value = e(g(t0)) |g''|^{-1/2} sum_{n < n_terms} p_n,
    p_n = e^{-i pi/4}/n! (4 pi i)^{-n} |g''|^{-n} G^{(2n)}(t0),
    G = psi e(H), H = g - g(t0) - g''(t0)(t-t0)^2/2.

    G^{(2n)}(t0) = (2n)! c_{2n} is exact up to rounding: c is the product of
    the bump's Taylor jet and the series of e(H), whose coefficients come
    from g's exact derivatives.  The reported error_estimate is the
    magnitude of the first omitted term plus 2 * 2 pi 2^-52 |g(t0)| |value|,
    the phase rounding of g(t0) in float64 (measured at 0.2-0.7 of one such
    unit on first-kind phases with g(t0) from 4.5e5 to 4.5e11).
    """
    if not 1 <= n_terms <= 3:
        raise ArgumentError(f"n_terms must be 1..3, got {n_terms}")
    a, b = _window(window_from_bump(w), J)
    t0, g0, g2 = _stationary(g, (a, b))
    if g2 >= 0:
        raise ArgumentError("expansion implemented for g'' < 0 (conjugate "
                            "the phase otherwise)")
    ag2 = abs(g2)

    H = [float(g.g(t0)) - g0, float(g.dg(t0, 1)),
         (float(g.dg(t0, 2)) - g2) / 2]
    H += [float(g.dg(t0, k)) / math.factorial(k)
          for k in range(3, JET_ORDER + 1)]
    G = series_mul(bump_jet(w, t0), series_exp([2j * np.pi * c for c in H]))
    # G^{(2n)}(t0) for n <= n_terms: one extra term for the estimate
    phases = [complex(math.factorial(2 * nn) * G[2 * nn])
              for nn in range(n_terms + 1)]

    pre = np.exp(-1j * np.pi / 4)
    terms = []
    for nn in range(n_terms):
        d = phases[nn]
        terms.append(pre * d / (math.factorial(nn) * (4j * np.pi * ag2) ** nn))
    lead = np.exp(2j * np.pi * (g0 % 1.0)) / math.sqrt(ag2)
    value = lead * sum(terms)

    nxt = abs(phases[n_terms]) / (math.factorial(n_terms)
                                  * (4 * np.pi * ag2) ** n_terms)
    rounding = 4 * np.pi * 2.0 ** -52 * abs(g0) * abs(value)
    return OscIntegralResult(value=complex(value),
                             error_estimate=float(nxt / math.sqrt(ag2) + rounding),
                             terms_used=n_terms)


# ---------------------------------------------------------------------------
# truncation thresholds

@dataclass(frozen=True)
class TruncationWindows:
    T1: float
    T2: float
    T3: float | None = None
    T4: float | None = None

    @property
    def empty_main_term(self) -> bool:
        return self.T2 < 1.0


def truncation_windows(alpha: float, h: float, u: int, m: int, N: float,
                       q: int, X: float, s: float | None = None
                       ) -> TruncationWindows:
    """T1 = a h u m N q / (4 X^{1-a}), T2 = 16 T1; with s also
    T3 = (a h q)^2 u m / (4 s X^{1-2a}), T4 = 16 T3."""
    for name, val in (("alpha", alpha), ("h", h), ("u", u), ("m", m),
                      ("N", N), ("q", q), ("X", X)):
        if val <= 0:
            raise ArgumentError(f"{name} must be positive, got {val}")
    t1 = 0.25 * alpha * h * u * m * N * q / X ** (1 - alpha)
    t3 = t4 = None
    if s is not None:
        if s <= 0:
            raise ArgumentError(f"s must be positive, got {s}")
        t3 = (alpha * h * q) ** 2 * u * m / (4 * s * X ** (1 - 2 * alpha))
        t4 = 16 * t3
    return TruncationWindows(T1=t1, T2=16 * t1, T3=t3, T4=t4)


# ---------------------------------------------------------------------------
# Poisson-summation verifications

@dataclass(frozen=True)
class PoissonCheck:
    lhs: complex
    rhs: complex
    diff: float
    rel: float
    s_max: int
    tail_bound: float
    empty_main_term: bool
    meta: dict


_THETA = 1.1        # ratio of the dyadic grid theta^l of the Poisson blocks
_K_BUDGET = 10 ** 4


def _partition(X: float):
    """The dyadic partition whose grid _THETA^l reaches past 4X."""
    return make_partition(_THETA, max(2, math.ceil(math.log(4 * X)
                                                   / math.log(_THETA))))


def _snap(part, x: float, name: str) -> float:
    """The grid value theta^l nearest to the block scale x >= 1, on a log
    scale; name spells x out in the ArgumentError for x < 1."""
    if x < 1.0:
        raise ArgumentError(f"derived block scale {name} = {x:.3g} < 1; "
                            "increase X")
    theta = part.theta
    return theta ** part.index_of(
        theta ** round(math.log(x) / math.log(theta)))


def _block_range(D: float, var: str) -> np.ndarray:
    """The integers in [D/theta, D theta], the support of Psi_D; more than
    _K_BUDGET of them raise ResourceLimitError."""
    lo, hi = math.ceil(D / _THETA), math.floor(D * _THETA)
    check_budget(f"{var}-term", hi - lo + 1, _K_BUDGET)
    return np.arange(lo, hi + 1, dtype=np.int64)


def _slot_weight(X, umn, part, K, window, t):
    """w(n, t) = log(x) Psi_K(x) psi(t), x = X t/(u m n), umn = u m n: the
    k-slot weight log k times the k-block and the window."""
    t = np.asarray(t, dtype=float)
    x = X * t / umn
    return np.log(x) * eval_member(part, K, x) * eval_bump(window, t)


_A_TAIL = 8.0


def _tail_sum(sm: int, num: float, den: float, lead_peak: float, q: int,
              bound: dict, memo: dict) -> float:
    """sum over 1 <= |s| - sm < 63 (sm + 1) of q nonstationary_bound(R_I = r),
    r = num |s| / den - lead_peak, terms with r <= 0 dropped; added up in
    order of |s| and cut at the first term under 1e-22 of the running sum.

    memo keeps r and the bound for s = 1, 2, ... between calls with the same
    num, den, lead_peak and bound, grown to s < 64 (sm + 1) when shorter, so
    a Poisson check computes each term once; the running sum still starts
    at sm + 1 on every call."""
    end = 64 * (sm + 1)
    r, term = memo.get("r", np.empty(0)), memo.get("term", np.empty(0))
    if len(r) < end - 1:
        r_new = num * np.arange(len(r) + 1, end) / den - lead_peak
        term_new = np.zeros(len(r_new))
        pos = r_new > 0
        term_new[pos] = nonstationary_bound(R_I=r_new[pos], **bound)
        memo["r"] = r = np.concatenate((r, r_new))
        memo["term"] = term = np.concatenate((term, term_new))
    term = term[sm:end - 1][r[sm:end - 1] > 0]   # s = sm + 1 .. end - 1
    acc = np.cumsum(2 * term * q)   # both signs of s; |tau| <= q
    cut = np.flatnonzero(term * q < 1e-22 * np.maximum(acc, 1.0))
    return float(acc[cut[0] if len(cut) else -1]) if len(acc) else 0.0


def _poisson_s_sum(q: int, chi_index: int, ns: np.ndarray, amp: np.ndarray,
                   phases: np.ndarray, wmodel: WindowModel, phase_at, *,
                   pref: float, slope: tuple, lead_peak: float,
                   g_lead: float, v_width: float, curv: float, T: float,
                   s_max: int | None, tol: float, label: str,
                   meta: dict) -> PoissonCheck:
    """Check  sum_n chi(n) amp(n) phases(n)  over the block ns against
    pref * sum_{|s| <= s_max} tau(chi; s) I(s),  I(s) = int w e(g_s) over the
    support of w, g_s = phase_at(s); chi is character chi_index mod q (q <=
    50) and tau(chi; s) its Gauss sums, from one inverse FFT of its row.

    g_s is a lead term minus the linear term (num/den) s t; slope = (num,
    den) stays a fraction so that the tail bound's num * s / den rounds
    like the first kind's X s / (q u m n).  lead_peak bounds the lead
    term's derivative and g_lead its size on the support.  v_width is the
    amplitude's inverse-derivative scale, curv the size of g_s''.  Without
    a given s_max the sum grows from ceil(T) + 4 until the tail bound
    beyond it drops under tol/4; T < 1 means no s has a stationary point.
    meta["quad_err"] = |pref| sum_s |tau(chi; s)| err(s), err(s) =
    |T_N - T_{N/2}| for I(s), the last two levels of the trapezoid rule.
    """
    if q > 50:
        raise ArgumentError(f"verification scale capped at q <= 50, got {q}")
    table = character_group(q)
    if not 0 <= chi_index < table.phi:
        raise ArgumentError(f"chi_index {chi_index} out of range")
    chiv = chi_values(table, chi_index)
    gauss = np.fft.ifft(chiv) * q
    lhs = complex(np.sum(chiv[ns % q] * amp * phases))
    lo, hi = wmodel.lo, wmodel.hi
    num, den = slope
    # tail machinery: |I(s)| for s beyond the window is bounded by repeated
    # integration by parts; the mollifier's j-th derivatives grow like
    # (j^2/width)^j, so the effective inverse-derivative scale carries a
    # 1/A_I^2 correction (without it the power bound undershoots)
    amp_max = (float(np.max(np.abs(wmodel(np.linspace(lo, hi, 257)))))
               if hi > lo else 1.0)
    v_scale = v_width / _A_TAIL ** 2
    y_curv = max(curv, 1.0)

    bound = dict(X_I=max(amp_max, 1e-300), V_I=v_scale, Y_I=y_curv, Q_I=1.0,
                 A_I=_A_TAIL, J_len=max(hi - lo, 1e-12))
    memo = {}

    def tail_beyond(sm: int) -> float:
        return _tail_sum(sm, num, den, lead_peak, q, bound, memo) * abs(pref)

    if s_max is None:
        s_max = int(math.ceil(T)) + 4
        budget = 0.25 * tol * max(1.0, abs(lhs))
        while tail_beyond(s_max) > budget and s_max < 16 * (T + 40):
            s_max += max(4, s_max // 4)

    rhs = 0j
    quad_err = 0.0
    if hi > lo:
        # phase-evaluation noise floors the achievable error estimate at
        # ~ 2 pi eps |g|_max int|w|; never ask the quadrature for less
        g_peak = g_lead + num * s_max * hi / den
        floor = 2 * np.pi * 2.3e-16 * g_peak * (hi - lo) * max(amp_max, 1.0)
        qtol = max(1e-12, 40 * floor)
        ss = np.arange(-s_max, s_max + 1)
        ss = ss[np.abs(gauss[ss % q]) >= 1e-13]
        if len(ss):
            vals, errs, _ = _trapezoid_s_integrals(wmodel, lo, hi, phase_at(0),
                                                   num / den, ss, qtol)
            rhs = complex(np.sum(gauss[ss % q] * vals))
            quad_err = float(np.sum(np.abs(gauss[ss % q]) * errs))
    rhs *= pref
    quad_err *= abs(pref)

    tail = tail_beyond(s_max)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    if tail > tol * max(1.0, scale):
        raise AccuracyError(f"{label}-sum tail bound {tail} above tolerance",
                            value=rhs, error_estimate=tail)
    diff = abs(lhs - rhs)
    return PoissonCheck(lhs=lhs, rhs=rhs, diff=diff, rel=diff / scale,
                        s_max=s_max, tail_bound=tail, empty_main_term=T < 1.0,
                        meta={**meta, "chi_index": chi_index,
                              "amp_l1": float(np.sum(np.abs(amp))),
                              "quad_err": quad_err})


def poisson_verify_first(q: int, u: int, m: int, n: int, chi_index: int,
                         h: float, alpha: float, X: int, window: BumpWindow,
                         s_max: int | None = None,
                         tol: float = 1e-6) -> PoissonCheck:
    """Check  sum_k chi(k) log(k) Psi_K(k) psi(umnk/X) e(h (umnk)^a)
            = (X/(q u m n)) sum_s tau(chi; s) I(s),
    I(s) = int log(Xt/(umn)) Psi_K(Xt/(umn)) psi(t) e(h (Xt)^a - X s t/(q u m n)) dt.

    The k-slot weight is log k; K is the grid value 1.1^l nearest the
    k-scale at mid-plateau.  Both sides are computed independently (finite
    sum vs the trapezoid rule); the s-sum is truncated at s_max with a
    reported tail bound.
    """
    _need_positive(q=q, u=u, m=m, n=n)
    umn = u * m * n
    part = _partition(X)
    K = _snap(part, X * (0.5 * (1 + window.y)) / umn, "X*t/(u*m*n)")
    ks = _block_range(K, "k")
    amp_k = (np.log(ks) * eval_member(part, K, ks.astype(float))
             * eval_bump(window, umn * ks / X))

    # truncation scale: the t-integral oscillates against e(-Xst/(qumn));
    # stationary s stop near T2, tails decay like s^{-A}
    tw = truncation_windows(alpha, max(h, 1e-300), u, m, n, q, X)

    t_lo = max(1.0 - 2 * window.delta, umn * K / (X * _THETA))
    t_hi = min(window.y + 2 * window.delta, umn * K * _THETA / X)

    return _poisson_s_sum(
        q, chi_index, ks, amp_k, unit_phases(h, umn * ks, alpha),
        WindowModel(fn=partial(_slot_weight, X, umn, part, K, window),
                    lo=t_lo, hi=t_hi),
        partial(make_first_phase, h, X, alpha, q, u, m, n),
        pref=X / (q * umn), slope=(X, q * umn),
        lead_peak=alpha * h * X ** alpha * t_lo ** (alpha - 1),
        g_lead=abs(h) * (X * t_hi) ** alpha,
        v_width=min(window.delta, t_lo * (1 - 1 / _THETA)),
        curv=alpha * (1 - alpha) * h * X ** alpha * t_lo ** (alpha - 2),
        T=tw.T2, s_max=s_max, tol=tol, label="s",
        meta={"q": q, "u": u, "m": m, "n": n, "h": h, "alpha": alpha, "X": X,
              "K": K, "theta": _THETA, "k_terms": int(len(ks)),
              "t_support": (t_lo, t_hi)})


def _second_t0(nv, X, alpha, h, q, u, m, s):
    """t0(n) = (a h q u m n / s)^{1/(1-a)} / X, the critical point of the
    n-th t-integral."""
    return ((alpha * h * q * u * m * np.asarray(nv, dtype=float) / s)
            ** (1 / (1 - alpha)) / X)


def _second_amplitudes(X, alpha, h, q, u, m, s, window, part, N, K):
    """The amplitude of the second identity in both variables.

    amp_n(n)   = n^{b/2-1} Psi_N(n) w(n, t0(n)),
    w_tau(tau) = Psi_N(n) tau^{b/2-1} w(n, tau^{1/(1-a)}),
    n = n(tau) = s X^{1-a} tau / (a h q u m),
    with w(n, t) the slot weight `_slot_weight`; the n-slot weight is 1 and
    the k-slot weight log k.
    """
    cst = alpha_constants(alpha)

    def amp_n(nv):
        nv = np.asarray(nv, dtype=float)
        t0s = _second_t0(nv, X, alpha, h, q, u, m, s)
        return (np.power(nv, cst.beta / 2 - 1) * eval_member(part, N, nv)
                * _slot_weight(X, u * m * nv, part, K, window, t0s))

    def w_tau(taus):
        taus = np.asarray(taus, dtype=float)
        nv = s * X ** (1 - alpha) * taus / (alpha * h * q * u * m)
        return (eval_member(part, N, nv)
                * np.power(taus, cst.beta / 2 - 1)
                * _slot_weight(X, u * m * nv, part, K, window,
                               np.power(taus, cst.delta)))

    return amp_n, w_tau


def poisson_verify_second(q: int, u: int, m: int, s: int, chi_index: int,
                          h: float, alpha: float, X: int, window: BumpWindow,
                          sigma_max: int | None = None,
                          tol: float = 1e-6) -> PoissonCheck:
    """Check the second summation identity

      sum_n chi(n) n^{b/2-1} Psi_N(n) w(n, t0(n)) e(Phi(n))
        = (1/q) (s X^{1-a}/(a h q u m))^{b/2} sum_sig tau(chi; sig) J(sig),

    where t0(n) = (a h q u m n / s)^{1/(1-a)} / X is the interior critical
    point, Phi(n) = (1-a)(a^a h)^{1/(1-a)} (q u m n / s)^{a/(1-a)} its phase
    value, w(n, t) = log(Xt/(umn)) Psi_K(Xt/(umn)) psi(t), and

      J(sig) = int Psi_N(n(T)) T^{b/2-1} w(n(T), T^{1/(1-a)})
               e((1-a) h X^a T^{a/(1-a)} - X^{1-a} s sig T/(a h q^2 u m)) dT

    with n(T) = s X^{1-a} T / (a h q u m); the n-slot weight is 1 and the
    k-slot weight log k, and N, K are grid values 1.1^l.  The identity is
    Poisson summation in n after the substitution T = a h q u m n / (s X^{1-a}).
    """
    _need_positive(s=s, q=q, u=u, m=m)
    if not h > 0:  # the critical point (a h q u m n / s)^{1/(1-a)} is real
        raise ArgumentError(f"the second-kind critical point needs h > 0, got {h}")
    cst = alpha_constants(alpha)
    beta, gamma, delta = cst.beta, cst.gamma, cst.delta

    part = _partition(X)
    # place the critical point of the n-sum mid-plateau
    n_star = s * X ** (1 - alpha) * (0.5 * (1 + window.y)) ** (1 / delta) \
        / (alpha * h * q * u * m)
    N = _snap(part, n_star, "s X^(1-a) t^(1-a)/(a h q u m)")
    aq = alpha * h * q * u * m

    K = _snap(part, X * float(_second_t0(N, X, alpha, h, q, u, m, s))
              / (u * m * N), "X*t0/(u*m*N)")
    amp_n, w_tau = _second_amplitudes(X, alpha, h, q, u, m, s, window, part,
                                      N, K)

    # ----- lhs: the n-block; Phi(n) = c n^{a/(1-a)}, c in 50 digits --------
    ns = _block_range(N, "n")
    phi = (1 - alpha) * (alpha ** alpha * h) ** delta \
        * np.power(q * u * m * ns.astype(float) / s, gamma)
    a = _MP50.mpf(alpha)
    ex = a / (1 - a)
    c = (1 - a) * (a ** alpha * h) ** (1 / (1 - a)) \
        * _MP50.power(_MP50.mpf(q * u * m) / s, ex)

    # ----- rhs: sigma-sum of transformed integrals --------------------------
    tw = truncation_windows(alpha, h, u, m, N, q, X, s=s)
    tau_lo = aq * (N / _THETA) / (s * X ** (1 - alpha))
    tau_hi = aq * (N * _THETA) / (s * X ** (1 - alpha))
    phase_at = partial(make_second_phase, h, X, alpha, q, u, m, s)
    lead = (1 - alpha) * h * X ** alpha
    return _poisson_s_sum(
        q, chi_index, ns, amp_n(ns), np.exp(2j * np.pi * monomial_frac(
            phi, c, ns, ex)),
        WindowModel(fn=w_tau, lo=tau_lo, hi=tau_hi),
        phase_at, pref=(s * X ** (1 - alpha) / aq) ** (beta / 2) / q,
        slope=(X ** (1 - alpha) * s / (alpha * h * q ** 2 * u * m), 1.0),
        lead_peak=float(np.max(np.abs(lead * gamma * np.power(
            np.linspace(tau_lo, tau_hi, 257), gamma - 1)))),
        g_lead=lead * tau_hi ** gamma,
        v_width=tau_lo * (1 - 1 / _THETA),
        curv=abs(float(phase_at(1).dg(0.5 * (tau_lo + tau_hi), 2))),
        T=tw.T4, s_max=sigma_max, tol=tol, label="sigma",
        meta={"q": q, "u": u, "m": m, "s": s, "h": h, "alpha": alpha, "X": X,
              "N": N, "K": K, "theta": _THETA, "n_terms": int(len(ns)),
              "tau_support": (tau_lo, tau_hi), "T3": tw.T3, "T4": tw.T4})

