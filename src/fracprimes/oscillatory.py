"""Oscillatory integrals and their asymptotic evaluations.

Four layers, bottom up:

* `quad_osc` — adaptive Gauss-Legendre panel quadrature for w(t) e(g(t)),
  with panels capped at half an oscillation and split at stationary points;
  one engine, `_s_integrals`, refines such a grid for a single phase and for
  all I(s) of a Poisson check at once.
* `nonstationary_bound` — the integration-by-parts tail bound
  J_len * X_I * ((Q R / sqrt(Y))^{-A} + (R V)^{-A}) for phases whose
  derivative stays away from zero on the window.
* `stationary_point` / `stationary_values` / `stationary_expand` — closed
  forms for the two concrete phase families plus the truncated asymptotic
  expansion  e(g(t0)) / |g''|^{1/2} * sum_n p_n  with
  p_n = e^{-i pi/4} / n! * (4 pi i)^{-n} |g''|^{-n} G^{(2n)}(t0)
  (the e(x) = e^{2 pi i x} convention; G = w * e(H), H the phase minus its
  second-order jet at t0).
* `poisson_verify_first` / `poisson_verify_second` — both finite-vs-integral
  identities obtained by Poisson summation on a character-twisted smooth
  sum, each side computed independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .charkloost import character_group, chi_values
from .errors import (AccuracyError, ArgumentError, InvariantViolation,
                     ResourceLimitError, StationaryPointError)
from .expsums import (REDUCTION_THRESHOLD, _anchored_frac, mp_context,
                      unit_phases)
from .smoothing import (BumpWindow, eval_bump, eval_member, make_partition,
                        richardson_derivative)

_SQRT_GL = 15
_MP60 = mp_context(60)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_SQRT_GL)


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
    """Smooth amplitude with compact support [lo, hi]; fn is vectorized."""

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
    """Phase g with derivatives to order 4.

    kind "first-poisson":  g(t) = h (X t)^a - X s t / (q u m n)
    kind "second-poisson": g(T) = (1-a) h X^a T^g0 - X^{1-a} s sig T/(a h q^2 u m)
                           (g0 = a/(1-a))
    kind "generic":        user callables; missing derivatives by central
                           differences.
    """

    kind: str
    params: dict
    _g: object = None
    _dg: object = None     # generic only: callable (t, order) or None

    def __post_init__(self):
        if self.kind not in ("first-poisson", "second-poisson", "generic"):
            raise ArgumentError(f"unknown phase kind {self.kind!r}")

    # -- evaluation ---------------------------------------------------------
    def g(self, t):
        t = np.asarray(t, dtype=float)
        p = self.params
        if self.kind == "first-poisson":
            return (p["h"] * np.power(p["X"] * t, p["alpha"])
                    - p["X"] * p["s"] * t / (p["q"] * p["u"] * p["m"] * p["n"]))
        if self.kind == "second-poisson":
            a = p["alpha"]
            c = alpha_constants(a)
            lead = (1 - a) * p["h"] * p["X"] ** a
            lin = (p["X"] ** (1 - a) * p["s"] * p["sigma"]
                   / (a * p["h"] * p["q"] ** 2 * p["u"] * p["m"]))
            return lead * np.power(t, c.gamma) - lin * t
        return self._g(t)

    def dg(self, t, order: int = 1):
        if not 1 <= order <= 4:
            raise ArgumentError(f"derivative order {order} not in [1, 4]")
        t = np.asarray(t, dtype=float)
        p = self.params
        if self.kind == "first-poisson":
            a = p["alpha"]
            coef = p["h"] * p["X"] ** a
            for r in range(order):
                coef *= a - r
            out = coef * np.power(t, a - order)
            if order == 1:
                out = out - p["X"] * p["s"] / (p["q"] * p["u"] * p["m"] * p["n"])
            return out
        if self.kind == "second-poisson":
            a = p["alpha"]
            c = alpha_constants(a)
            coef = (1 - a) * p["h"] * p["X"] ** a
            for r in range(order):
                coef *= c.gamma - r
            out = coef * np.power(t, c.gamma - order)
            if order == 1:
                out = out - (p["X"] ** (1 - a) * p["s"] * p["sigma"]
                             / (a * p["h"] * p["q"] ** 2 * p["u"] * p["m"]))
            return out
        if self._dg is not None:
            return self._dg(t, order)
        # central differences on the user callable
        h0 = self.params.get("fd_step", 1e-3)
        scalar = np.ndim(t) == 0
        ts = np.atleast_1d(t)
        out = np.array([richardson_derivative(self._g, float(x), order, h0)
                        for x in ts])
        return out[0] if scalar else out


def make_first_phase(h, X, alpha, q, u, m, n, s) -> PhaseModel:
    return PhaseModel(kind="first-poisson",
                      params=dict(h=h, X=X, alpha=alpha, q=q, u=u, m=m, n=n, s=s))


def make_second_phase(h, X, alpha, q, u, m, s, sigma) -> PhaseModel:
    return PhaseModel(kind="second-poisson",
                      params=dict(h=h, X=X, alpha=alpha, q=q, u=u, m=m,
                                  s=s, sigma=sigma))


def make_generic_phase(g, dg=None, **params) -> PhaseModel:
    return PhaseModel(kind="generic", params=params, _g=g, _dg=dg)


def gaussian_phase(Y: float, t0: float) -> PhaseModel:
    """g(t) = -Y (t - t0)^2 / 2 with exact derivatives."""
    def g(t):
        return -0.5 * Y * (np.asarray(t, dtype=float) - t0) ** 2

    def dg(t, order):
        t = np.asarray(t, dtype=float)
        if order == 1:
            return -Y * (t - t0)
        if order == 2:
            return -Y * np.ones_like(t)
        return np.zeros_like(t)

    return PhaseModel(kind="generic", params={"Y": Y, "t0": t0}, _g=g, _dg=dg)


# ---------------------------------------------------------------------------
# quadrature

@dataclass(frozen=True)
class OscIntegralResult:
    value: complex
    error_estimate: float
    terms_used: int


def _phase_circle(g_vals: np.ndarray) -> np.ndarray:
    return np.exp(2j * np.pi * np.mod(g_vals, 1.0))


def _gl_nodes(edges: np.ndarray):
    """GL-15 nodes on each [edges[i], edges[i+1]], and the half widths."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * _GL_X[None, :], half


def _stationary_candidates(phase: PhaseModel, a: float, b: float) -> list[float]:
    """Zeros of g' in (a, b); closed forms where available, else a scan."""
    out = []
    if phase.kind in ("first-poisson", "second-poisson"):
        try:
            t0 = stationary_point(phase)
        except StationaryPointError:
            return []
        if a < t0 < b:
            out.append(t0)
        return out
    grid = np.linspace(a, b, 257)
    d = np.asarray(phase.dg(grid, 1), dtype=float)
    sign = np.sign(d)
    for i in np.flatnonzero(d[1:-1] == 0.0) + 1:   # exact zeros on the grid
        out.append(float(grid[i]))
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0):
        lo_t, hi_t = grid[i], grid[i + 1]
        for _ in range(60):
            mid_t = 0.5 * (lo_t + hi_t)
            if np.sign(phase.dg(mid_t, 1)) == sign[i]:
                lo_t = mid_t
            else:
                hi_t = mid_t
        out.append(0.5 * (lo_t + hi_t))
    merged = []
    for t in sorted(out):
        if not merged or t - merged[-1] > 1e-12 * max(abs(b - a), 1.0):
            merged.append(t)
    return merged


def _subdivide(edges: np.ndarray, need: np.ndarray) -> np.ndarray:
    """Split panel i into need[i] equal pieces; point k is edges[i] +
    k * ((edges[i+1] - edges[i]) / need[i]), as np.linspace computes it."""
    step = np.repeat((edges[1:] - edges[:-1]) / need, need)
    k = np.arange(len(step)) - np.repeat(np.cumsum(need) - need, need)
    return np.append(np.repeat(edges[:-1], need) + k * step, edges[-1])


_BLOCK_PANELS = 1456   # 45 nodes each: ~1 MB per complex array of a block
_MAX_PANELS = 400_000
_MAX_ROUNDS = 30


def _budget_edges(edges: np.ndarray, speed) -> np.ndarray:
    """Subdivide until width * speed <= 0.5 on every panel (half an
    oscillation when speed bounds |g'|), speed sampled at ends and middle."""
    for _ in range(64):
        mid = 0.5 * (edges[1:] + edges[:-1])
        width = edges[1:] - edges[:-1]
        speeds = np.maximum.reduce([speed(x) for x in (edges[:-1], mid, edges[1:])])
        need = np.ceil(np.sqrt(np.maximum(width * speeds / 0.5, 1.0))).astype(int)
        # sqrt: split gradually; large factors converge in a few sweeps
        if np.all(need <= 1):
            break
        if len(edges) * 2 > _MAX_PANELS:
            raise AccuracyError("oscillation budget needs too many panels",
                                value=None, error_estimate=None)
        edges = _subdivide(edges, need)
    return edges


def _window(w: WindowModel, J) -> tuple:
    """J clipped to the support of w; the support itself when J is None."""
    if J is None:
        return w.lo, w.hi
    if not J[0] < J[1]:
        raise ArgumentError(f"J: need J[0] < J[1], got {tuple(J)}")
    return max(J[0], w.lo), min(J[1], w.hi)


def quad_osc(w: WindowModel, g: PhaseModel, J=None,
             tol: float = 1e-9) -> OscIntegralResult:
    """Adaptive panel quadrature of int w(t) e(g(t)) dt over J.

    The single-phase case (s = 0, no slope) of _s_integrals: panels are
    seeded at stationary points, subdivided until each spans at most half
    an oscillation of g, then bisected where the two-level discrepancy is
    largest until the summed estimate is below tol.
    """
    a, b = _window(w, J)
    if not b > a:
        return OscIntegralResult(value=0j, error_estimate=0.0, terms_used=0)
    try:
        vals, errs, nodes = _s_integrals(w, a, b, g, 0.0, [0], tol)
    except AccuracyError as e:
        if e.value is None:
            raise
        raise AccuracyError(str(e), value=complex(e.value[0][0]),
                            error_estimate=float(e.value[1][0])) from None
    return OscIntegralResult(value=complex(vals[0]),
                             error_estimate=float(errs[0]), terms_used=nodes)


def _s_integrals(w: WindowModel, a: float, b: float, g0: PhaseModel,
                 slope: float, ss, tol: float):
    """I(s) = int_a^b w e(g_s) for each s in ss, on one adaptive GL-15 grid.

    g_s = g0 - slope s t, so e(g_s) = e(g0) z^s with z = e(-slope t): w and
    g0 are evaluated once per node and each s costs a few products (z is
    skipped when slope == 0).  Edges are seeded at a, b and the stationary
    points of g0, then subdivided until each panel spans at most half an
    oscillation of the fastest phase, |g0'| + |slope| max|s|.  Each round
    compares every panel's GL-15 value with the sum over its two halves and
    bisects the panels where any s's discrepancy exceeds tol / panels, until
    each s's summed discrepancy is <= tol.  Panels go in blocks of
    _BLOCK_PANELS, so memory stays bounded.  Returns (values, errors, nodes),
    values/errors per s.
    """
    if tol < 1e-12:
        raise ArgumentError(f"tol {tol} below supported floor 1e-12")
    slot = {int(s): j for j, s in enumerate(ss)}
    s_lo, s_hi = min(slot), max(slot)
    lin = abs(slope) * max(-s_lo, s_hi)
    edges = _budget_edges(
        np.array(sorted({a, b, *_stationary_candidates(g0, a, b)}), dtype=float),
        lambda x: np.abs(np.asarray(g0.dg(x, 1), dtype=float)) + lin)
    nodes = 0
    for _ in range(_MAX_ROUNDS):
        half_edges = np.empty(2 * len(edges) - 1)
        half_edges[0::2] = edges
        half_edges[1::2] = 0.5 * (edges[1:] + edges[:-1])
        vals, errs = np.zeros(len(slot), dtype=np.complex128), np.zeros(len(slot))
        worst = np.zeros(len(edges) - 1)
        for i in range(0, len(edges) - 1, _BLOCK_PANELS):
            j = min(i + _BLOCK_PANELS, len(edges) - 1)
            # each panel's 15 nodes, then 15 on each of its halves
            t, half = _gl_nodes(edges[i:j + 1])
            t_fine, h_fine = _gl_nodes(half_edges[2 * i:2 * j + 1])
            t = np.hstack((t, t_fine.reshape(j - i, 2 * _SQRT_GL)))
            base = (np.asarray(w(t), dtype=np.complex128)
                    * _phase_circle(g0.g(t)) * np.tile(_GL_W, 3))
            z, power = ((_phase_circle(-slope * t), _phase_circle(-slope * s_lo * t))
                        if slope else (1.0, 1.0))
            for s in range(s_lo, s_hi + 1):
                if (k := slot.get(s)) is not None:
                    part = (base * power).reshape(j - i, 3, _SQRT_GL).sum(axis=2)
                    fine = part[:, 1] * h_fine[0::2] + part[:, 2] * h_fine[1::2]
                    err = np.abs(part[:, 0] * half - fine)
                    vals[k] += fine.sum()
                    errs[k] += err.sum()
                    np.maximum(worst[i:j], err, out=worst[i:j])
                power *= z
        nodes += 3 * _SQRT_GL * len(worst)
        if errs.max() <= tol:
            return vals, errs, nodes
        if 2 * len(edges) > _MAX_PANELS:
            break
        keep = np.ones(len(half_edges), dtype=bool)
        keep[1::2] = worst > tol / len(worst)   # keep midpoints only where needed
        edges = half_edges[keep]
    raise AccuracyError(f"no convergence to tol={tol}", value=(vals, errs),
                        error_estimate=float(errs.max()))


# ---------------------------------------------------------------------------
# non-stationary (integration by parts) bound

def nonstationary_bound(X_I: float, V_I: float, Y_I: float, Q_I: float,
                        R_I: float, A_I: float, J_len: float,
                        constant: float = 1.0) -> float:
    """J_len * X_I * ((Q R / sqrt(Y))^{-A} + (R V)^{-A}).

    Valid when the phase derivative exceeds R_I on the window, the
    amplitude is X_I-bounded with V_I-scaled derivatives, and the phase
    second derivative is Y_I Q_I^{-2}-ish; the leading constant is not
    pinned by theory and defaults to 1.
    """
    for name, val in (("X_I", X_I), ("V_I", V_I), ("Y_I", Y_I),
                      ("Q_I", Q_I), ("R_I", R_I), ("A_I", A_I),
                      ("J_len", J_len)):
        if val <= 0:
            raise ArgumentError(f"{name} must be positive, got {val}")
    if Y_I < 1:
        raise ArgumentError(f"need Y_I >= 1, got {Y_I}")
    d1 = Q_I * R_I / math.sqrt(Y_I)
    d2 = R_I * V_I
    return constant * J_len * X_I * (d1 ** (-A_I) + d2 ** (-A_I))


# ---------------------------------------------------------------------------
# stationary phase

def stationary_point(g: PhaseModel, window=None) -> float:
    """The zero of g' (closed form for the two concrete kinds)."""
    p = g.params
    if g.kind == "first-poisson":
        if p["h"] <= 0 or p["s"] <= 0:
            raise StationaryPointError("no stationary point: need h > 0, s > 0")
        a = p["alpha"]
        t0 = (a * p["h"] * p["q"] * p["u"] * p["m"] * p["n"] / p["s"]) \
            ** (1 / (1 - a)) / p["X"]
    elif g.kind == "second-poisson":
        if p["h"] <= 0 or p["s"] * p["sigma"] <= 0:
            raise StationaryPointError("no stationary point: need h > 0, "
                                       "s*sigma > 0")
        a = p["alpha"]
        c = alpha_constants(a)
        t0 = ((a * p["h"] * p["q"]) ** 2 * p["u"] * p["m"]
              / (p["s"] * p["sigma"])) ** c.xi / p["X"] ** (1 - a)
    else:
        if window is None:
            raise ArgumentError("generic phases need an explicit window")
        pts = _stationary_candidates(g, window[0], window[1])
        if not pts:
            raise StationaryPointError("no stationary point in window")
        if len(pts) > 1:
            raise StationaryPointError(
                f"{len(pts)} stationary points in window; decompose the range")
        t0 = pts[0]
    if window is not None and not window[0] <= t0 <= window[1]:
        raise StationaryPointError(
            f"stationary point {t0} outside window {window}")
    resid = abs(float(g.dg(t0, 1)))
    scale = abs(float(g.dg(t0, 2))) * abs(t0)
    if resid > 1e-10 * max(scale, 1e-300):
        raise InvariantViolation(
            f"stationary residual |g'(t0)| = {resid} exceeds 1e-10 * {scale}")
    return float(t0)


def stationary_values(g: PhaseModel, window=None) -> tuple[float, float]:
    """(g(t0), g''(t0)); closed forms for the two concrete kinds."""
    p = g.params
    if g.kind == "first-poisson":
        t0 = stationary_point(g, window)
        a = p["alpha"]
        # beta/gamma/delta stay finite on all of 0 < a < 1, unlike the
        # second-iteration constants, so compute them inline
        beta, gamma, delta = (2 - a) / (1 - a), a / (1 - a), 1 / (1 - a)
        qumn = p["q"] * p["u"] * p["m"] * p["n"]
        val = (1 - a) * (a ** a * p["h"]) ** delta * (qumn / p["s"]) ** gamma
        curv = -a * (1 - a) * p["h"] * p["X"] ** 2 \
            * (p["s"] / (a * p["h"] * qumn)) ** beta
        return val, curv
    if g.kind == "second-poisson":
        t0 = stationary_point(g, window)
        a = p["alpha"]
        c = alpha_constants(a)
        B = (a * p["h"] * p["q"]) ** 2 * p["u"] * p["m"] / (p["s"] * p["sigma"])
        val = (1 - 2 * a) * p["h"] * B ** c.eta
        curv = -(a * (1 - 2 * a) / (1 - a)) * p["h"] \
            * p["X"] ** (2 * (1 - a)) * (1.0 / B) ** c.omega
        return val, curv
    t0 = stationary_point(g, window)
    return float(np.real(g.g(t0))), float(np.real(g.dg(t0, 2)))


def stationary_expand(w: WindowModel, g: PhaseModel, n_terms: int = 1,
                      J=None, step: float | None = None) -> OscIntegralResult:
    """Truncated stationary-phase value of int w e(g) around the unique
    interior stationary point.

    value = e(g(t0)) |g''|^{-1/2} sum_{n < n_terms} p_n,
    p_n = e^{-i pi/4}/n! (4 pi i)^{-n} |g''|^{-n} G^{(2n)}(t0),
    G = w e(H), H = g - g(t0) - g''(t0)(t-t0)^2/2.

    G-derivatives by Richardson central differences; the reported
    error_estimate is the magnitude of the first omitted term.
    """
    if not 1 <= n_terms <= 3:
        raise ArgumentError(f"n_terms must be 1..3, got {n_terms}")
    a, b = _window(w, J)
    pts = _stationary_candidates(g, a, b)
    if not pts:
        raise StationaryPointError("no stationary point in the window")
    if len(pts) > 1:
        raise StationaryPointError(
            f"{len(pts)} stationary points; decompose the range first")
    t0 = pts[0]
    g0, g2 = stationary_values(g, (a, b)) if g.kind != "generic" \
        else (float(np.real(g.g(t0))), float(np.real(g.dg(t0, 2))))
    if g2 >= 0:
        raise ArgumentError("expansion implemented for g'' < 0 (conjugate "
                            "the phase otherwise)")
    ag2 = abs(g2)

    if step is None:
        g3 = abs(float(np.real(g.dg(t0, 3))))
        scale2 = 0.3 / math.sqrt(ag2)
        scale3 = (0.05 / (2 * math.pi * g3)) ** (1 / 3) if g3 > 0 else np.inf
        step = min(0.02 * (b - a), scale2, scale3)

    def H(t):
        return np.asarray(g.g(t), dtype=float) - g0 - 0.5 * g2 * (t - t0) ** 2

    def G(t):
        return w(t) * np.exp(2j * np.pi * H(t))

    # G^{(2n)}(t0) for n <= n_terms: one extra term for the estimate
    phases = [complex(G(np.asarray(t0)))]
    phases += [complex(richardson_derivative(G, t0, 2 * nn, step))
               for nn in range(1, n_terms + 1)]

    pre = np.exp(-1j * np.pi / 4)
    terms = []
    for nn in range(n_terms):
        d = phases[nn]
        terms.append(pre * d / (math.factorial(nn) * (4j * np.pi * ag2) ** nn))
    lead = np.exp(2j * np.pi * (g0 % 1.0)) / math.sqrt(ag2)
    value = lead * sum(terms)

    nxt = abs(phases[n_terms]) / (math.factorial(n_terms)
                                  * (4 * np.pi * ag2) ** n_terms)
    return OscIntegralResult(value=complex(value),
                             error_estimate=float(nxt / math.sqrt(ag2)),
                             terms_used=n_terms)


def phase_jet_derivatives(H1: float, H2: float, H3: float, H4: float):
    """Derivatives of e(H) at a point where H = 0, orders 1..4, via the
    composition (Bell polynomial) formula with z = 2 pi i."""
    z = 2j * np.pi
    d1 = z * H1
    d2 = z * H2 + z ** 2 * H1 ** 2
    d3 = z * H3 + 3 * z ** 2 * H1 * H2 + z ** 3 * H1 ** 3
    d4 = (z * H4 + z ** 2 * (4 * H1 * H3 + 3 * H2 ** 2)
          + 6 * z ** 3 * H1 ** 2 * H2 + z ** 4 * H1 ** 4)
    return d1, d2, d3, d4


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

def _slot_weight(kind: str):
    if kind == "one":
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    if kind == "log":
        return lambda x: np.log(np.asarray(x, dtype=float))
    raise ArgumentError(f"slot weight {kind!r} not one of 'one', 'log'")


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


def _character_rows(q: int, chi_index: int):
    """(chi(k), tau(chi; k)) for k = 0..q-1: the value row of character
    chi_index mod q (q <= 50) and its Gauss sums by one inverse FFT."""
    if q > 50:
        raise ArgumentError(f"verification scale capped at q <= 50, got {q}")
    table = character_group(q)
    if not 0 <= chi_index < table.phi:
        raise ArgumentError(f"chi_index {chi_index} out of range")
    vals = chi_values(table, chi_index)
    return vals, np.fft.ifft(vals) * q


def _partition(theta: float, X: float):
    """The dyadic partition whose grid theta^l reaches past 4X."""
    return make_partition(theta, max(2, math.ceil(math.log(4 * X)
                                                  / math.log(theta))))


def _snap(part, x: float) -> float:
    """The grid value theta^l nearest to x on a log scale."""
    theta = part.theta
    return theta ** part.index_of(
        theta ** round(math.log(x) / math.log(theta)))


_A_TAIL = 8.0


def _poisson_s_sum(lhs: complex, gauss: np.ndarray, wmodel: WindowModel,
                   phase_at, *, pref: float, slope: tuple, lead_peak: float,
                   g_lead: float, v_width: float, curv: float, T: float,
                   s_max: int | None, tol: float, quad_tol: float,
                   label: str, meta: dict) -> PoissonCheck:
    """Check lhs against  pref * sum_{|s| <= s_max} tau(chi; s) I(s),
    I(s) = int w e(g_s) over the support of w, g_s = phase_at(s).

    g_s is a lead term minus the linear term (num/den) s t; slope = (num,
    den) stays a fraction so that the tail bound's num * s / den rounds
    like the first kind's X s / (q u m n).  lead_peak bounds the lead
    term's derivative and g_lead its size on the support.  v_width is the
    amplitude's inverse-derivative scale, curv the size of g_s''.  Without
    a given s_max the sum grows from ceil(T) + 4 until the tail bound
    beyond it drops under tol/4; T < 1 means no s has a stationary point.
    meta["quad_err"] = |pref| sum_s |tau(chi; s)| err(s), err(s) the
    shared grid's estimate for I(s).
    """
    q = len(gauss)
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

    def tail_beyond(sm: int) -> float:
        acc = 0.0
        for s_t in range(sm + 1, 64 * (sm + 1)):
            r = num * s_t / den - lead_peak
            if r <= 0:
                continue
            term = nonstationary_bound(X_I=max(amp_max, 1e-300), V_I=v_scale,
                                       Y_I=y_curv, Q_I=1.0, R_I=r, A_I=_A_TAIL,
                                       J_len=max(hi - lo, 1e-12))
            acc += 2 * term * q   # both signs of s; |tau| <= q
            if term * q < 1e-22 * max(acc, 1.0):
                break
        return acc * abs(pref)

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
        qtol = max(quad_tol, 40 * floor)
        ss = np.arange(-s_max, s_max + 1)
        ss = ss[np.abs(gauss[ss % q]) >= 1e-13]
        if len(ss):
            vals, errs, _ = _s_integrals(wmodel, lo, hi, phase_at(0),
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
                        meta={**meta, "quad_err": quad_err})


def poisson_verify_first(q: int, u: int, m: int, n: int, chi_index: int,
                         h: float, alpha: float, X: int, window: BumpWindow,
                         theta: float = 1.1, K: float | None = None,
                         s_max: int | None = None, tol: float = 1e-6,
                         quad_tol: float = 1e-12, k_budget: int = 10**4,
                         f3: str = "log") -> PoissonCheck:
    """Check  sum_k chi(k) f3(k) Psi_K(k) psi(umnk/X) e(h (umnk)^a)
            = (X/(q u m n)) sum_s tau(chi; s) I(s),
    I(s) = int f3(Xt/(umn)) Psi_K(Xt/(umn)) psi(t) e(h (Xt)^a - X s t/(q u m n)) dt.

    Both sides are computed independently (finite sum vs adaptive
    quadrature); the s-sum is truncated at s_max with a reported tail bound.
    """
    chiv, gauss = _character_rows(q, chi_index)
    umn = u * m * n
    part = _partition(theta, X)
    if K is None:
        t_mid = 0.5 * (1 + window.y)
        if X * t_mid / umn < 1.0:
            raise ArgumentError(
                f"derived block scale X*t/(u*m*n) = {X * t_mid / umn:.3g} < 1; "
                "increase X or decrease u*m*n")
        K = _snap(part, X * t_mid / umn)
    else:
        part.index_of(K)

    k_lo = math.ceil(K / theta)
    k_hi = math.floor(K * theta)
    if k_hi - k_lo + 1 > k_budget:
        raise ResourceLimitError(f"{k_hi - k_lo + 1} k-terms exceed {k_budget}",
                                 estimate=k_hi - k_lo + 1, budget=k_budget)
    f3_fn = _slot_weight(f3)
    ks = np.arange(k_lo, k_hi + 1, dtype=np.int64)
    amp_k = (f3_fn(ks) * eval_member(part, K, ks.astype(float))
             * eval_bump(window, umn * ks / X))
    lhs = complex(np.sum(chiv[ks % q] * amp_k
                         * unit_phases(h, umn * ks, alpha)))

    # truncation scale: the t-integral oscillates against e(-Xst/(qumn));
    # stationary s stop near T2, tails decay like s^{-A}
    tw = truncation_windows(alpha, max(h, 1e-300), u, m, n, q, X)

    t_lo = max(1.0 - 2 * window.delta, umn * K / (X * theta))
    t_hi = min(window.y + 2 * window.delta, umn * K * theta / X)

    def w_t(t):
        t = np.asarray(t, dtype=float)
        x = X * t / umn
        return f3_fn(x) * eval_member(part, K, x) * eval_bump(window, t)

    return _poisson_s_sum(
        lhs, gauss, WindowModel(fn=w_t, lo=t_lo, hi=t_hi),
        partial(make_first_phase, h, X, alpha, q, u, m, n),
        pref=X / (q * umn), slope=(X, q * umn),
        lead_peak=alpha * h * X ** alpha * t_lo ** (alpha - 1),
        g_lead=abs(h) * (X * t_hi) ** alpha,
        v_width=min(window.delta, t_lo * (1 - 1 / theta)),
        curv=alpha * (1 - alpha) * h * X ** alpha * t_lo ** (alpha - 2),
        T=tw.T2, s_max=s_max, tol=tol, quad_tol=quad_tol, label="s",
        meta={"q": q, "u": u, "m": m, "n": n, "h": h, "alpha": alpha, "X": X,
              "K": K, "theta": theta, "chi_index": chi_index, "f3": f3,
              "k_terms": int(len(ks)),
              "amp_l1": float(np.sum(np.abs(amp_k))),
              "t_support": (t_lo, t_hi)})


def _second_t0(nv, X, alpha, h, q, u, m, s):
    """t0(n) = (a h q u m n / s)^{1/(1-a)} / X, the critical point of the
    n-th t-integral."""
    return ((alpha * h * q * u * m * np.asarray(nv, dtype=float) / s)
            ** (1 / (1 - alpha)) / X)


def _second_amplitudes(X, alpha, h, q, u, m, s, window, part, N, K,
                       f2: str, f3: str):
    """The amplitude of the second identity in both variables.

    amp_n(n)   = f2(n) n^{b/2-1} Psi_N(n) w_n(t0(n)),
    w_tau(tau) = f2(n) Psi_N(n) tau^{b/2-1} w_n(tau^{1/(1-a)}),
    n = n(tau) = s X^{1-a} tau / (a h q u m),
    with w_n(t) = f3(Xt/(umn)) Psi_K(Xt/(umn)) psi(t).
    """
    cst = alpha_constants(alpha)
    f2_fn = _slot_weight(f2)
    f3_fn = _slot_weight(f3)

    def w_n(nv, t):
        t = np.asarray(t, dtype=float)
        x = X * t / (u * m * nv)
        return f3_fn(x) * eval_member(part, K, x) * eval_bump(window, t)

    def amp_n(nv):
        nv = np.asarray(nv, dtype=float)
        t0s = _second_t0(nv, X, alpha, h, q, u, m, s)
        return (f2_fn(nv) * np.power(nv, cst.beta / 2 - 1)
                * eval_member(part, N, nv) * w_n(nv, t0s))

    def w_tau(taus):
        taus = np.asarray(taus, dtype=float)
        nv = s * X ** (1 - alpha) * taus / (alpha * h * q * u * m)
        return (f2_fn(nv) * eval_member(part, N, nv)
                * np.power(taus, cst.beta / 2 - 1)
                * w_n(nv, np.power(taus, cst.delta)))

    return amp_n, w_tau


def poisson_verify_second(q: int, u: int, m: int, s: int, chi_index: int,
                          h: float, alpha: float, X: int, window: BumpWindow,
                          N: float | None = None, K: float | None = None,
                          theta: float = 1.1, sigma_max: int | None = None,
                          tol: float = 1e-6, quad_tol: float = 1e-12,
                          f2: str = "one", f3: str = "log") -> PoissonCheck:
    """Check the second summation identity

      sum_n chi(n) f2(n) n^{b/2-1} Psi_N(n) w_n(t0(n)) e(Phi(n))
        = (1/q) (s X^{1-a}/(a h q u m))^{b/2} sum_sig tau(chi; sig) J(sig),

    where t0(n) = (a h q u m n / s)^{1/(1-a)} / X is the interior critical
    point, Phi(n) = (1-a)(a^a h)^{1/(1-a)} (q u m n / s)^{a/(1-a)} its phase
    value, w_n(t) = f3(Xt/(umn)) Psi_K(Xt/(umn)) psi(t), and

      J(sig) = int f2(n(T)) Psi_N(n(T)) T^{b/2-1} w_{n(T)}(T^{1/(1-a)})
               e((1-a) h X^a T^{a/(1-a)} - X^{1-a} s sig T/(a h q^2 u m)) dT

    with n(T) = s X^{1-a} T / (a h q u m).  The identity is Poisson
    summation in n after the substitution T = a h q u m n / (s X^{1-a}).
    """
    if s <= 0:
        raise ArgumentError(f"need s >= 1, got {s}")
    chiv, gauss = _character_rows(q, chi_index)
    cst = alpha_constants(alpha)
    beta, gamma, delta = cst.beta, cst.gamma, cst.delta

    part = _partition(theta, X)
    if N is None:
        # place the critical point of the n-sum mid-plateau
        n_star = s * X ** (1 - alpha) * (0.5 * (1 + window.y)) ** (1 / delta) \
            / (alpha * h * q * u * m)
        N = _snap(part, n_star)
    else:
        part.index_of(N)
    aq = alpha * h * q * u * m

    if K is None:
        k_star = X * float(_second_t0(N, X, alpha, h, q, u, m, s)) / (u * m * N)
        if k_star < 1.0:
            raise ArgumentError(
                f"derived block scale X*t0/(u*m*N) = {k_star:.3g} < 1; "
                "the N-block is too wide for this (h, s, X) combination")
        K = _snap(part, k_star)
    else:
        part.index_of(K)
    amp_n, w_tau = _second_amplitudes(X, alpha, h, q, u, m, s, window, part,
                                      N, K, f2, f3)

    # ----- lhs: finite n-sum ------------------------------------------------
    n_lo = math.ceil(N / theta)
    n_hi = math.floor(N * theta)
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    amp = amp_n(ns)
    phi_scale = (1 - alpha) * (alpha ** alpha * h) ** delta
    phi_vals = phi_scale * np.power(q * u * m * ns.astype(float) / s, gamma)
    big = np.abs(phi_vals) > REDUCTION_THRESHOLD
    ph = np.mod(phi_vals, 1.0)
    if np.any(big):
        a = _MP60.mpf(alpha)
        ex = a / (1 - a)
        sc = (1 - a) * (a ** alpha * h) ** (1 / (1 - a))
        ph[big] = _anchored_frac(sc * _MP60.power(_MP60.mpf(q * u * m) / s, ex),
                                 ns[big], ex)
    lhs = complex(np.sum(chiv[ns % q] * amp * np.exp(2j * np.pi * ph)))

    # ----- rhs: sigma-sum of transformed integrals --------------------------
    tw = truncation_windows(alpha, h, u, m, N, q, X, s=s)
    tau_lo = aq * (N / theta) / (s * X ** (1 - alpha))
    tau_hi = aq * (N * theta) / (s * X ** (1 - alpha))
    phase_at = partial(make_second_phase, h, X, alpha, q, u, m, s)
    lead = (1 - alpha) * h * X ** alpha
    return _poisson_s_sum(
        lhs, gauss, WindowModel(fn=w_tau, lo=tau_lo, hi=tau_hi),
        phase_at, pref=(s * X ** (1 - alpha) / aq) ** (beta / 2) / q,
        slope=(X ** (1 - alpha) * s / (alpha * h * q ** 2 * u * m), 1.0),
        lead_peak=float(np.max(np.abs(lead * gamma * np.power(
            np.linspace(tau_lo, tau_hi, 257), gamma - 1)))),
        g_lead=lead * tau_hi ** gamma,
        v_width=tau_lo * (1 - 1 / theta),
        curv=abs(float(phase_at(1).dg(0.5 * (tau_lo + tau_hi), 2))),
        T=tw.T4, s_max=sigma_max, tol=tol, quad_tol=quad_tol, label="sigma",
        meta={"q": q, "u": u, "m": m, "s": s, "h": h, "alpha": alpha, "X": X,
              "N": N, "K": K, "theta": theta, "chi_index": chi_index,
              "n_terms": int(len(ns)),
              "amp_l1": float(np.sum(np.abs(amp))),
              "tau_support": (tau_lo, tau_hi), "T3": tw.T3, "T4": tw.T4})


def second_change_of_variables_check(q: int, u: int, m: int, s: int, sigma: int,
                                     h: float, alpha: float, X: int,
                                     window: BumpWindow, N: float, K: float,
                                     theta: float = 1.1,
                                     quad_tol: float = 1e-9) -> tuple[complex, complex]:
    """The sigma-integral in the n-variable vs in the tau-variable.

    Returns (direct, transformed): direct = int F(n) e(Phi(n) - sigma n/q) dn,
    transformed = (s X^{1-a}/(a h q u m))^{b/2} J(sigma).  Equality is the
    change-of-variables T = a h q u m n/(s X^{1-a}) with its Jacobian.
    """
    cst = alpha_constants(alpha)
    part = _partition(theta, X)
    part.index_of(N)
    part.index_of(K)
    aq = alpha * h * q * u * m
    amp_n, w_tau = _second_amplitudes(X, alpha, h, q, u, m, s, window, part,
                                      N, K, "one", "log")
    phi_scale = (1 - alpha) * (alpha ** alpha * h) ** cst.delta

    def phase_n(nv):
        nv = np.asarray(nv, dtype=float)
        return phi_scale * np.power(q * u * m * nv / s, cst.gamma) - sigma * nv / q

    n_lo, n_hi = N / theta, N * theta
    direct = quad_osc(WindowModel(fn=amp_n, lo=n_lo, hi=n_hi),
                      make_generic_phase(phase_n, dg=None, fd_step=1e-2),
                      (n_lo, n_hi), tol=quad_tol)

    tau_lo = aq * n_lo / (s * X ** (1 - alpha))
    tau_hi = aq * n_hi / (s * X ** (1 - alpha))
    phase = make_second_phase(h=h, X=X, alpha=alpha, q=q, u=u, m=m,
                              s=s, sigma=sigma)
    transformed = quad_osc(WindowModel(fn=w_tau, lo=tau_lo, hi=tau_hi),
                           phase, (tau_lo, tau_hi), tol=quad_tol)
    pref = (s * X ** (1 - alpha) / aq) ** (cst.beta / 2)
    return direct.value, pref * transformed.value
