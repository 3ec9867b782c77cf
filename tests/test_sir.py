"""Tests for the SIR screening layer and policy helpers."""

import pytest

from corrpool.sir import (
    SirState,
    consumption_reduction,
    critical_frequency,
    growth_factor,
    growth_factor_bound,
    simulate_sir,
    sir_step,
)


def test_state_validation():
    with pytest.raises(ValueError):
        SirState(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        SirState(-0.1, 0.6, 0.5)


def test_disease_free_fixed_point():
    state = SirState(0.7, 0.0, 0.3)
    nxt = sir_step(state, 0.15, 0.05, 0.2, 0.9)
    assert (nxt.s, nxt.i, nxt.r) == (state.s, state.i, state.r)
    assert nxt.t == state.t + 1


def test_delta_i_arithmetic():
    state = SirState(0.99, 0.01, 0.0)
    nxt = sir_step(state, 0.15, 0.05, 0.0, 1.0)
    assert nxt.i - state.i == pytest.approx(0.15 * 0.99 * 0.01 - 0.05 * 0.01, abs=1e-15)


def test_threshold_frequency_stalls_growth_at_full_susceptibility():
    # with s ~ 1 and f*sens = b_i - b_r the infected fraction is stationary
    state = SirState(1.0 - 1e-9, 1e-9, 0.0)
    b_i, b_r, sens = 0.15, 0.05, 0.8
    f = (b_i - b_r) / sens
    nxt = sir_step(state, b_i, b_r, f, sens)
    assert nxt.i == pytest.approx(state.i, rel=1e-6)


def test_growth_factor_and_bound():
    state = SirState(1.0, 0.0, 0.0)
    assert growth_factor(state, 0.15, 0.05, 0.0, 1.0) == growth_factor_bound(0.15, 0.05, 0.0, 1.0)
    assert growth_factor_bound(0.15, 0.05, (0.15 - 0.05) / 0.8, 0.8) == pytest.approx(1.0)
    # lambda(t) <= lambda' whenever s <= 1
    for s in (0.2, 0.5, 0.99):
        st = SirState(s, 0.01, 1.0 - s - 0.01)
        assert growth_factor(st, 0.15, 0.05, 0.1, 0.8) <= growth_factor_bound(
            0.15, 0.05, 0.1, 0.8
        ) + 1e-15
    with pytest.raises(ValueError):
        growth_factor_bound(0.15, 0.0, 0.0, 1.0)


def test_critical_frequency():
    assert critical_frequency(0.15, 0.05, 1.0) == pytest.approx(0.1)
    assert critical_frequency(0.8, 0.1, 0.8) == pytest.approx(0.875)
    assert critical_frequency(0.05, 0.15, 0.9) == 0.0
    with pytest.raises(ValueError):
        critical_frequency(0.15, 0.05, 0.0)


def test_screening_above_critical_frequency_controls_epidemic():
    b_i, b_r, sens = 0.15, 0.05, 0.8
    f_star = critical_frequency(b_i, b_r, sens)
    start = SirState(0.999, 0.001, 0.0)
    above = simulate_sir(start, b_i, b_r, f_star * 1.001, sens, 50)
    infected = [st.i for st in above]
    assert all(b <= a + 1e-15 for a, b in zip(infected, infected[1:]))
    below = simulate_sir(start, b_i, b_r, f_star * 0.9, sens, 5)
    assert below[1].i > below[0].i  # grows while s ~ 1


def test_simulate_sir_days():
    start = SirState(0.99, 0.01, 0.0)
    assert simulate_sir(start, 0.15, 0.05, 0.1, 0.9, 0) == [start]
    with pytest.raises(ValueError, match="days"):
        simulate_sir(start, 0.15, 0.05, 0.1, 0.9, -3)


def test_conservation_over_many_steps():
    state = SirState(0.99, 0.01, 0.0)
    for _ in range(10**4):
        state = sir_step(state, 0.15, 0.05, 0.1, 0.9)
        assert abs(state.s + state.i + state.r - 1.0) < 1e-9


def test_step_rejects_invalid_rates():
    state = SirState(0.99, 0.01, 0.0)
    with pytest.raises(ValueError):
        sir_step(state, -0.1, 0.05, 0.0, 1.0)
    with pytest.raises(ValueError):
        sir_step(state, 0.15, 0.6, 0.5, 1.0)  # removal fraction above 1
    for rates in [(float("nan"), 0.05, 0.0), (0.15, float("inf"), 0.0), (0.15, 0.05, float("nan"))]:
        with pytest.raises(ValueError, match="non-negative and finite"):
            sir_step(state, *rates, 1.0)


def test_consumption_reduction():
    assert consumption_reduction(4.56, 5.23) == pytest.approx(0.1281, abs=5e-4)
    assert consumption_reduction(2.0, 2.0) == 0.0
    assert consumption_reduction(13.52, 15.86) == pytest.approx(0.148, abs=1e-3)
    with pytest.raises(ValueError):
        consumption_reduction(0.0, 1.0)
