import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracprimes.errors import ArgumentError
from fracprimes.smoothing import (bump_jet, eval_bump, eval_member,
                                  make_bump, make_partition, master_window,
                                  partition_sum, smoothstep, smoothstep_pair)

import oracles


def test_bump_validation():
    with pytest.raises(ArgumentError):
        make_bump(2.0, 0.3)          # delta must stay below 1/4
    with pytest.raises(ArgumentError):
        make_bump(2.0, 0.0)
    with pytest.raises(ArgumentError):
        make_bump(1.1, 0.2)          # delta must stay below (y-1)/2
    make_bump(2.0, 0.2)              # fine


def test_bump_plateau_and_support():
    w = make_bump(2.0, 0.2)
    xs_plateau = np.linspace(1.0, 2.0, 41)
    assert np.allclose(eval_bump(w, xs_plateau), 1.0, atol=0.0)
    assert float(eval_bump(w, 0.8)) == 0.0
    assert float(eval_bump(w, 2.2)) == 0.0
    # strictly between 0 and 1 inside the transitions
    for x in (0.85, 0.95, 2.05, 2.15):
        v = float(eval_bump(w, x))
        assert 0.0 < v < 1.0
    # transition midpoints by symmetry of the smoothstep
    assert abs(float(eval_bump(w, 0.9)) - 0.5) < 1e-12
    assert abs(float(eval_bump(w, 2.1)) - 0.5) < 1e-12


def test_smoothstep_symmetry_and_range():
    ts = np.linspace(0.0, 1.0, 101)
    vals = smoothstep(ts)
    assert float(vals[0]) == 0.0 and float(vals[-1]) == 1.0
    assert np.all(np.diff(vals) >= 0.0)
    assert np.allclose(vals + smoothstep(1.0 - ts), 1.0, atol=1e-15)


def test_smoothstep_derivative_matches_bump_jet():
    # on the rising edge psi(x) = S(u), u = (x - 0.8) / delta, so
    # S'(u) = psi'(x) delta = bump_jet(w, x)[1] delta
    w = make_bump(2.0, 0.2)
    xs = np.linspace(0.8, 1.0, 13)[1:-1]   # u = 1/12 .. 11/12, and 1/2
    got = smoothstep_pair((xs - 0.8) / w.delta)[1]
    for x, val in zip(xs, got):
        want = bump_jet(w, float(x))[1] * w.delta
        assert abs(val - want) <= 1e-13 * abs(want), x
    # zero off (0, 1) and where f underflows, with no 1/0 on the way
    with np.errstate(divide="raise", invalid="raise"):
        assert np.all(smoothstep_pair([-1.0, 0.0, 1e-4, 1.0, 2.0])[1] == 0.0)


def test_master_window_step():
    theta = 1.1
    assert float(master_window(theta, 0.5)) == 1.0
    assert float(master_window(theta, 1.0)) == 1.0
    assert float(master_window(theta, theta)) == 0.0
    mid = float(master_window(theta, math.sqrt(theta)))
    assert 0.0 < mid < 1.0


def _edge_grid(*edges):
    """Every edge, its sign flip and its float64 neighbours, with 0, NaN
    and the infinities."""
    xs = [0.0, -0.0, np.nan, np.inf, -np.inf]
    for x in edges:
        for v in (x, -x):
            xs += [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
    return np.array(xs)


def _hexes(vals):
    return [float(v).hex() for v in np.ravel(vals)]


@pytest.mark.parametrize("y, delta", [(2.0, 0.2), (1.7, 0.01), (40.0, 0.24)])
def test_eval_bump_matches_full_array_smoothstep(y, delta):
    # the edges only against the smoothstep over every point, bit for bit
    w = make_bump(y, delta)
    xs = _edge_grid(1.0 - delta, 1.0, y, y + delta, 1.0 - delta / 2,
                    y + delta / 2)
    rng = np.random.default_rng(23)
    for x in (xs, rng.uniform(0.5, y + 0.5, 20_000),
              rng.uniform(1.0 - delta, 1.0, 500).reshape(25, 20)):
        got = eval_bump(w, x)
        assert got.shape == x.shape
        assert _hexes(got) == _hexes(oracles.eval_bump_full(w, x))
    for x in xs.tolist():
        got = eval_bump(w, x)
        assert type(got) is float
        assert got.hex() == oracles.eval_bump_full(w, x).hex()
        assert eval_bump(w, np.array(x)).hex() == got.hex()


@pytest.mark.parametrize("theta", [1.1, 2.0])
def test_master_window_matches_full_array_smoothstep(theta):
    xs = _edge_grid(1.0, theta, 0.5 * (1.0 + theta))
    rng = np.random.default_rng(29)
    for x in (xs, rng.uniform(-2 * theta, 2 * theta, 20_000),
              np.exp(rng.uniform(-3.0, 3.0, 600)).reshape(20, 30)):
        got = master_window(theta, x)
        assert got.shape == x.shape
        assert _hexes(got) == _hexes(oracles.master_window_full(theta, x))
    for x in xs.tolist():
        got = master_window(theta, x)
        assert type(got) is float
        assert got.hex() == oracles.master_window_full(theta, x).hex()
        assert master_window(theta, np.array(x)).hex() == got.hex()
    assert master_window(theta, np.nan) == 0.0


def test_smoothstep_pair_matches_each_half():
    rng = np.random.default_rng(31)
    us = np.concatenate((_edge_grid(0.5, 1.0, 1e-3, 1e-300),
                         rng.uniform(-0.1, 1.1, 5000)))
    with np.errstate(invalid="ignore"):   # S'(NaN) is 0/0 in both
        step, jac = smoothstep_pair(us)
        want_step = smoothstep(us)
        want_jac = oracles.smoothstep_derivative(us)
    assert _hexes(step) == _hexes(want_step)
    assert _hexes(jac) == _hexes(want_jac)


def test_partition_of_unity_fixed_grid():
    part = make_partition(1.1, 200)
    rng = np.random.default_rng(7)
    xs = np.exp(rng.uniform(0.0, math.log(1.1 ** 190), size=2000))
    worst = max(abs(partition_sum(part, float(x)) - 1.0) for x in xs)
    assert worst <= 1e-12


def test_partition_sum_equals_member_loop():
    # the one-member-at-a-time sum over the whole grid is the exact reference:
    # members away from x are exactly 0, so adding them changes no bit
    part = make_partition(1.1, 60)
    rng = np.random.default_rng(11)
    for x in np.exp(rng.uniform(0.0, math.log(1.1 ** 58), size=50)):
        total = 0.0
        for l in range(part.max_power + 1):
            total += eval_member(part, 1.1 ** l, float(x))
        assert partition_sum(part, float(x)) == total


@given(st.floats(min_value=1.01, max_value=2.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_partition_of_unity_random_theta(theta, unit_pos):
    part = make_partition(theta, 60)
    x = theta ** (unit_pos * 50)
    assert abs(partition_sum(part, float(x)) - 1.0) <= 1e-12


def test_member_support_is_one_block():
    part = make_partition(1.1, 60)
    D = 1.1 ** 20
    # support of the member is (D/theta, D*theta)
    assert float(eval_member(part, D, D)) > 0.0
    assert float(eval_member(part, D, D / 1.1)) == 0.0
    assert float(eval_member(part, D, D * 1.1)) == 0.0
    assert float(eval_member(part, D, D * 1.05)) > 0.0


def test_member_rejects_off_grid_scale():
    part = make_partition(1.1, 60)
    with pytest.raises(ArgumentError):
        eval_member(part, 1.1 ** 20 * 1.003, 5.0)


def test_grid_index_roundtrip():
    part = make_partition(1.1, 60)
    for ell in (0, 1, 7, 59):
        assert part.index_of(1.1 ** ell) == ell


def test_bump_values_match_oracle():
    w = make_bump(2.0, 0.2)
    for x in (0.81, 0.85, 0.9, 0.999, 1.5, 2.0, 2.05, 2.1, 2.19):
        assert abs(float(eval_bump(w, x))
                   - oracles.bump_oracle(2.0, 0.2, x)) <= 1e-12


def _derivatives(w, x):
    """psi^(j)(x), j = 0..6, from the bump's Taylor jet."""
    return [math.factorial(j) * c for j, c in enumerate(bump_jet(w, x))]


def test_window_derivative_matches_oracle():
    # both edges, u = 1/2 at x = 0.9 and 2.1 (where the even derivatives
    # vanish, so the bound has an absolute floor j!/delta^j), the plateau
    w = make_bump(2.0, 0.2)
    for x in (0.81, 0.82, 0.87, 0.9, 0.93, 0.999, 1.5, 1.95, 2.04, 2.1, 2.19):
        got = _derivatives(w, x)
        assert got[0] == eval_bump(w, x)
        for j in range(1, 7):
            ref = oracles.bump_oracle(2.0, 0.2, x, j)
            floor = math.factorial(j) / w.delta ** j
            assert abs(got[j] - ref) <= 1e-12 * max(abs(ref), floor), (x, j)


def test_window_derivative_growth_documented():
    # derivative sup norms grow no faster than (C j^2 / delta)^j
    w = make_bump(2.0, 0.2)
    xs = np.linspace(0.8, 2.2, 561)
    sup = np.max(np.abs([_derivatives(w, float(x)) for x in xs]), axis=0)
    for j in range(1, 7):
        assert sup[j] <= (40.0 * j * j / w.delta) ** j


def test_derivatives_vanish_outside_support():
    w = make_bump(2.0, 0.2)
    for x in (0.7, 0.8, 2.2, 2.5):
        assert bump_jet(w, x) == [0.0] * 7


def test_partition_members_cover_every_point():
    part = make_partition(1.1, 60)
    x = 1.1 ** 12 * 1.04
    vals = [float(eval_member(part, 1.1 ** l, x)) for l in range(60)]
    assert abs(sum(vals) - 1.0) <= 1e-12
    assert sum(1 for v in vals if v > 0.0) <= 2
