import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from soze_sim import (
    ControlParams,
    SimConfig,
    check_lemma_conditions,
    inverse_target,
    target_delay,
    update_ratio,
)
from soze_sim.control import _update_ratio

from conftest import default_params, flow_on_link, run, single_link

P = default_params()  # p=20us, k=3us, m=0.25, alpha=100G, beta=0.1G


def test_target_delay_at_alpha_is_base_delay():
    assert target_delay(100e9, P) == pytest.approx(3e-6, rel=1e-12)


def test_target_delay_at_beta_is_full_span():
    assert target_delay(0.1e9, P) == pytest.approx(23e-6, rel=1e-12)


def test_target_delay_mid_decade():
    # ln(alpha/10G)/ln(alpha/beta) = 1/3 exactly, so T = p/3 + k
    assert target_delay(10e9, P) == pytest.approx(20e-6 / 3 + 3e-6, rel=1e-12)


def test_target_delay_rejects_nonpositive():
    with pytest.raises(ValueError):
        target_delay(0.0, P)
    with pytest.raises(ValueError):
        target_delay(-1e9, P)


def test_inverse_round_trips_endpoints():
    assert inverse_target(3e-6, P) == pytest.approx(100e9, rel=1e-12)
    assert inverse_target(23e-6, P) == pytest.approx(0.1e9, rel=1e-12)


def test_inverse_midpoint_is_geometric_mean():
    expected = math.sqrt(100e9 * 0.1e9)
    assert inverse_target(13e-6, P) == pytest.approx(expected, rel=1e-12)


@given(st.floats(min_value=0.01e9, max_value=1000e9))
@settings(max_examples=200)
def test_round_trip_property(s):
    # full claimed range: beta/10 .. 10*alpha
    assert abs(inverse_target(target_delay(s, P), P) / s - 1.0) < 1e-9


@given(
    st.floats(min_value=0.01e9, max_value=1000e9),
    st.floats(min_value=1.0001, max_value=100.0),
)
@settings(max_examples=200)
def test_target_strictly_decreasing(s, factor):
    assert target_delay(s * factor, P) < target_delay(s, P)


def test_update_ratio_identity_at_own_target():
    for s in (0.1e9, 1e9, 25e9, 100e9):
        assert update_ratio(s, target_delay(s, P), P) == pytest.approx(1.0, rel=1e-12)


def test_update_ratio_linear_when_m_is_one():
    p1 = default_params(m=1.0)
    s = 5e9
    d = target_delay(2 * s, p1)  # signal says the fair share is twice s
    assert update_ratio(s, d, p1) == pytest.approx(2.0, rel=1e-9)


def test_update_ratio_sixteenth_root():
    s = 2e9
    d = target_delay(16 * s, P)  # m = 0.25: 16**0.25 == 2
    assert update_ratio(s, d, P) == pytest.approx(2.0, rel=1e-9)


@given(
    st.floats(min_value=0.1e9, max_value=99e9),
    st.floats(min_value=1.001, max_value=50.0),
    st.floats(min_value=0.0, max_value=40e-6),
    st.floats(min_value=0.05, max_value=1.95),
)
@settings(max_examples=300)
def test_mimd_ratio_contracts_unfairness(s_a, gap, delay, m):
    """For any shared signal the slower flow gains relative to the faster one,
    but never overshoots past the mirror image: (sa/sb)^2 < Ub/Ua < 1."""
    s_b = s_a * gap
    pm = default_params(m=m)
    ratio = update_ratio(s_b, delay, pm) / update_ratio(s_a, delay, pm)
    closed_form = (s_a / s_b) ** m
    assert ratio == pytest.approx(closed_form, rel=1e-9)
    assert (s_a / s_b) ** 2 < ratio < 1.0


def test_update_is_scale_free_in_rate_and_weight():
    d = 9e-6
    r1 = update_ratio(30e9 / 3.0, d, P)
    r2 = update_ratio(10e9 / 1.0, d, P)
    assert r1 == r2


def test_update_ratio_vectorizes():
    s = np.array([1e9, 10e9, 100e9])
    out = update_ratio(s, 9e-6, P)
    assert out.shape == (3,)
    assert out[0] > out[1] > out[2]
    # a scalar or a 0-d array gives a float, a 1-d array an array
    for law, x in ((target_delay, 10e9), (inverse_target, 9e-6)):
        assert type(law(x, P)) is float
        assert type(law(np.array(x), P)) is float
        assert law(np.array([x]), P).shape == (1,)
    assert type(update_ratio(np.array(10e9), np.array(9e-6), P)) is float


@pytest.mark.parametrize("s, delay", [
    pytest.param(1e9, np.array([1e-6, 2e-6]), id="scalar_s_delay_array"),
    pytest.param(np.array([1e9, 2e9]), 1e-6, id="s_array_scalar_delay"),
])
def test_update_ratio_broadcasts_a_scalar_operand(s, delay):
    """A scalar ``s`` with per-flow delays, or the reverse, gives the array
    of the elementwise scalar ratios: the result's shape, not ``s``'s,
    decides between float and array."""
    params = ControlParams(alpha=100e9, beta=0.1e9)
    out = update_ratio(s, delay, params)
    pairs = np.broadcast_arrays(s, delay)
    expected = [update_ratio(float(a), float(d), params)
                for a, d in zip(*pairs)]
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    assert out.tolist() == pytest.approx(expected, rel=1e-15)


EXPONENTS = (0.25, 0.5, 1.0, 2.0, 2.5)   # numpy special-cases some


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def update_inputs(draw, min_flows=0):
    """Engine-shaped operands: per-flow ``s`` and delay arrays, and ``m``
    either one of EXPONENTS or a per-flow exponent array."""
    n = draw(st.integers(min_flows, 6))
    s = draw(hnp.arrays(float, n, elements=st.floats(1e5, 1e13)))
    delay = draw(hnp.arrays(float, n, elements=st.floats(0.0, 60e-6)))
    m = draw(st.sampled_from(EXPONENTS) | hnp.arrays(
        float, n, elements=st.sampled_from(EXPONENTS + (0.75,))))
    return s, delay, m


@given(update_inputs())
@example((np.array([]), np.array([]), 0.25))
@example((np.array([]), np.array([]), np.array([])))
@settings(derandomize=True, deadline=None, max_examples=300)
def test_update_ratio_is_its_kernel_bit_for_bit(inputs):
    """The checked ``update_ratio`` returns exactly what its kernel, and
    the law written out in full, compute on the same operands; a 0-d ``s``
    gives a float, an empty array an empty array."""
    s, delay, m = inputs
    out = update_ratio(s, delay, P, m)
    law = (P.alpha * (P.beta / P.alpha) ** ((delay - P.k) / P.p) / s) ** m
    assert bits(out) == bits(_update_ratio(s, delay, P, m)) == bits(law)
    assert out.shape == s.shape
    for j in range(len(s)):
        mj = m if np.ndim(m) == 0 else m[j]
        one = update_ratio(s[j], delay[j], P, mj)
        assert type(one) is float
        assert bits(one) == bits(_update_ratio(np.asarray(s[j]), delay[j], P, mj))


@given(update_inputs(min_flows=1),
       st.sampled_from([0.0, -0.0, -1e9, -np.inf]), st.integers(0, 5))
@settings(derandomize=True, deadline=None, max_examples=100)
def test_update_ratio_refuses_nonpositive_and_passes_nan(inputs, bad, at):
    """Any ``s <= 0`` raises, also next to a NaN; a NaN ``s`` alone gives a
    NaN ratio for its flow and leaves the others as they were."""
    s, delay, m = inputs
    at %= len(s)
    bad_s = s.copy()
    bad_s[at] = bad
    with pytest.raises(ValueError, match="must be > 0"):
        update_ratio(bad_s, delay, P, m)
    nan_s = s.copy()
    nan_s[at] = np.nan
    out = update_ratio(nan_s, delay, P, m)
    keep = np.arange(len(s)) != at
    assert np.isnan(out[at])
    assert bits(out[keep]) == bits(update_ratio(s, delay, P, m)[keep])
    if len(s) > 1:
        nan_s[(at + 1) % len(s)] = bad
        with pytest.raises(ValueError, match="must be > 0"):
            update_ratio(nan_s, delay, P, m)
    assert math.isnan(update_ratio(np.nan, 9e-6, P))


def test_adjust_rate_no_move_at_own_target():
    d = target_delay(20e9, P)
    assert update_ratio(40e9 / 2.0, d, P) == pytest.approx(1.0, rel=1e-12)
    # the exponent argument cannot move a flow that sits at its target
    assert update_ratio(20e9, d, P, m=1.7) == pytest.approx(1.0, rel=1e-12)


def gated_run(initial_rate, bandwidth=100e9, **control):
    """One flow on a 0.5 us link; updates every 1 us, sampled every step."""
    params = default_params(update_interval=1e-6, **control)
    cfg = SimConfig(dt=0.125e-6, end_time=3e-6, control=params,
                    sampling_interval=0.125e-6)
    topo = single_link(bandwidth=bandwidth)
    return run(topo, [flow_on_link("f", initial_rate=initial_rate)], cfg), params


def test_adjust_rate_gate_closed_is_identity():
    trace, _ = gated_run(10e9)
    rates = trace.rates[:, 0]
    # the rate holds between gate openings at 1, 2 and 3 us
    assert np.all(rates[:8] == 10e9)
    assert np.all(rates[8:16] == rates[8]) and rates[8] != 10e9
    assert np.all(rates[16:24] == rates[16]) and rates[16] != rates[8]


def test_adjust_rate_one_step_doubles():
    p1 = default_params(m=1.0)
    d = target_delay(20e9, p1)
    assert update_ratio(10e9, d, p1) == pytest.approx(2.0, rel=1e-9)
    # the exponent argument overrides params.m: m=1 doubles, m=0.5 takes sqrt 2
    assert update_ratio(10e9, d, P, m=1.0) == pytest.approx(2.0, rel=1e-9)
    assert update_ratio(10e9, d, P, m=0.5) == pytest.approx(math.sqrt(2.0), rel=1e-9)
    out = update_ratio(np.array([10e9, 10e9]), d, P, m=np.array([1.0, 0.5]))
    assert out == pytest.approx([2.0, math.sqrt(2.0)], rel=1e-9)


def test_adjust_rate_clamps_to_floor_and_cap():
    # an empty queue asks for far more than the cap: clamp to exactly the cap
    trace, p1 = gated_run(90e9, m=1.0, rate_cap=100e9)
    assert trace.signals[8, 0] == 0.0
    assert 90e9 * update_ratio(90e9, 0.0, p1) > 100e9
    assert trace.rates[8, 0] == 100e9
    # a 100x overload builds a deep queue: clamp to exactly the floor
    trace, p1 = gated_run(1e12, bandwidth=10e9, m=1.0, rate_floor=1e6,
                          rate_cap=2e12)
    assert 1e12 * update_ratio(1e12, trace.signals[8, 0], p1) < 1e6
    assert trace.rates[8, 0] == 1e6


def test_adjust_rate_gate_tolerance_opens_on_the_step():
    trace, p = gated_run(10e9)
    # t = 1 us is exactly one interval after the start: the fixed-step gate
    # opens on that step, not one step late
    assert trace.times[8] == pytest.approx(1e-6, rel=1e-12)
    assert trace.rates[7, 0] == 10e9
    assert trace.rates[8, 0] == 10e9 * update_ratio(10e9, trace.signals[8, 0], p)


def test_lemma_thresholds_for_three_decade_range():
    params = default_params(update_interval=1e-6)
    report = check_lemma_conditions(params)
    # oscillating bound: p/dt > 0.5*ln(1000) = 3.45
    assert report.p_osc_threshold == pytest.approx(0.5 * math.log(1000) * 1e-6)
    assert report.p_osc_threshold == pytest.approx(3.45e-6, rel=1e-2)
    assert report.p_noosc_threshold == pytest.approx(math.log(1000) * 1e-6)
    # p = 20us clears both bounds at dt = 1us
    assert report.queue_osc_ok and report.queue_noosc_ok and report.fairness_ok


def test_lemma_fairness_boundary_is_exclusive():
    assert not check_lemma_conditions(
        default_params(m=2.0, update_interval=1e-6)
    ).fairness_ok
    assert check_lemma_conditions(
        default_params(m=1.99, update_interval=1e-6)
    ).fairness_ok


def test_lemma_queue_conditions_need_an_update_interval():
    with pytest.raises(ValueError, match="update_interval must be set"):
        check_lemma_conditions(default_params())


def test_lemma_all_pass_at_twice_noosc_bound():
    dt = 1e-6
    p = 2 * dt * math.log(1000)
    rep = check_lemma_conditions(default_params(p=p, update_interval=dt))
    assert rep.fairness_ok and rep.queue_osc_ok and rep.queue_noosc_ok


def test_params_validation():
    with pytest.raises(ValueError):
        ControlParams(p=0.0)
    with pytest.raises(ValueError):
        ControlParams(m=0.0)
    with pytest.raises(ValueError):
        ControlParams(alpha=1e9, beta=2e9)
    with pytest.raises(ValueError):
        ControlParams(rate_floor=2e9, rate_cap=1e9)
    # m >= 2 is representable on purpose: falsification sweeps need it
    ControlParams(m=2.5)


def test_unresolved_range_rejected():
    with pytest.raises(ValueError, match="resolve"):
        target_delay(1e9, ControlParams())
