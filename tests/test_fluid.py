import numpy as np
import pytest

from soze_sim import (
    ControlParams,
    FlowSpec,
    FluidSimulation,
    SimConfig,
    build_topology,
    initial_rate,
    run,
    target_delay,
    water_fill,
)
from soze_sim.fluid import SimConfigError

from conftest import (
    default_params,
    flow_on_link,
    single_link,
    two_switch,
    two_switch_flows,
)


# -- queue integration ------------------------------------------------------

def pinned_link_run(*flows, end=10e-6):
    """Flows at fixed rates on one 100G link (the control gate never opens),
    sampled every step of 0.125 us."""
    control = default_params(update_interval=1.0, rate_cap=300e9)
    cfg = SimConfig(dt=0.125e-6, end_time=end, control=control,
                    sampling_interval=0.125e-6)
    return run(single_link(), list(flows), cfg)


def test_link_step_growth():
    trace = pinned_link_run(flow_on_link("f", initial_rate=200e9))
    # twice the capacity: dD/dt = (200G - 100G) / 100G = 1
    assert trace.queue_delays[:, 0] == pytest.approx(trace.times, rel=1e-12)


def test_link_step_empty_queue_stays_empty():
    trace = pinned_link_run(flow_on_link("f", initial_rate=50e9), end=123e-6)
    assert np.all(trace.queue_delays == 0.0)


def test_link_step_clamps_at_zero():
    trace = pinned_link_run(
        flow_on_link("burst", initial_rate=200e9, stop_time=2e-6),
        flow_on_link("steady", initial_rate=50e9),
    )
    q = trace.queue_delays[:, 0]
    # 2 us at slope 1.5 builds 3 us of queue; at slope -0.5 it drains by 8 us
    assert q[16] == pytest.approx(3e-6, rel=1e-12)
    assert q[40] == pytest.approx(1.5e-6, rel=1e-9)
    assert np.all(q >= 0.0)
    assert np.all(q[trace.times > 8.1e-6] == 0.0)


# -- maxQD delivery ------------------------------------------------------------

def test_max_qd():
    """A three-hop flow receives the largest lagged queue on its route; a
    one-hop flow only its own link's."""
    topo = build_topology({
        "nodes": ["a", "b", "c", "d"],
        "links": [
            {"src": "a", "dst": "b", "bandwidth": 100e9, "prop_delay": 0.25e-6},
            {"src": "b", "dst": "c", "bandwidth": 50e9, "prop_delay": 0.25e-6},
            {"src": "c", "dst": "d", "bandwidth": 80e9, "prop_delay": 0.25e-6},
        ],
    })
    flows = [
        FlowSpec("long", ("a->b", "b->c", "c->d"), initial_rate=110e9),
        FlowSpec("short", ("a->b",), initial_rate=10e9),
    ]
    control = default_params(update_interval=1.0, rate_cap=300e9)
    cfg = SimConfig(dt=0.125e-6, end_time=20e-6, control=control,
                    sampling_interval=0.125e-6)
    eng = FluidSimulation(topo, flows, cfg)
    trace = eng.run()
    qd = {lid: trace.queue_delays[:, trace.link_index(lid)] for lid in
          ("a->b", "b->c", "c->d")}
    # every hop is overloaded; each queue grows at its own slope, fastest on
    # the middle hop (110G into 50G)
    assert qd["a->b"][-1] == pytest.approx(0.2 * 20e-6, rel=1e-9)
    assert qd["b->c"][-1] == pytest.approx(1.2 * 20e-6, rel=1e-9)
    assert qd["c->d"][-1] == pytest.approx(0.375 * 20e-6, rel=1e-9)
    # both signals lag by the flow's base RTT (1.5 us and 0.5 us)
    i = len(trace.times) - 1
    assert eng.deliver_signal("long", trace.times[i]) == pytest.approx(
        qd["b->c"][i - 12], rel=1e-9
    )
    assert eng.deliver_signal("short", trace.times[i]) == pytest.approx(
        qd["a->b"][i - 4], rel=1e-9
    )
    # an idle path signals zero
    assert eng.deliver_signal("long", 1.5e-6) == 0.0


# -- initial_rate -------------------------------------------------------------

def test_initial_rate_default_is_tenth_of_cap():
    topo = single_link()
    params = default_params()
    assert initial_rate(flow_on_link("f"), params, topo) == pytest.approx(10e9)


def test_initial_rate_override_passthrough():
    topo = single_link()
    flow = flow_on_link("f", initial_rate=1e6)
    assert initial_rate(flow, default_params(), topo) == 1e6


# -- config validation --------------------------------------------------------

def test_dt_must_be_four_times_finer_than_gate():
    topo = single_link(prop_delay=0.25e-6)  # base RTT 0.5us
    with pytest.raises(SimConfigError, match="too coarse"):
        FluidSimulation(
            topo, [flow_on_link("f")],
            SimConfig(dt=0.2e-6, end_time=1e-3, control=ControlParams()),
        )


def test_duplicate_flow_ids_rejected():
    topo = single_link()
    cfg = SimConfig(dt=0.1e-6, end_time=1e-3)
    with pytest.raises(SimConfigError, match="duplicate"):
        FluidSimulation(topo, [flow_on_link("f"), flow_on_link("f")], cfg)


def test_bad_modes_rejected():
    with pytest.raises(SimConfigError):
        SimConfig(dt=1e-7, end_time=1e-3, signal_delay_mode="psychic").validate()
    with pytest.raises(SimConfigError):
        SimConfig(dt=1e-7, end_time=1e-3, update_mode="sometimes").validate()


# -- signal delivery ----------------------------------------------------------

def pinned_rate_setup(mode="fixed_rtt"):
    """Two constant-rate flows: fB joins at 20us and tips the link into
    overload, so the queue ramps at slope 0.5 from then on.  A huge update
    interval keeps the controller gate shut for the whole run."""
    topo = single_link(prop_delay=0.25e-6)  # base RTT 1us... (2 * 0.25us) = 0.5us
    f_a = flow_on_link("fa", initial_rate=50e9)
    f_b = flow_on_link("fb", initial_rate=100e9, start_time=20e-6)
    control = default_params(update_interval=1.0, rate_cap=100e9)
    cfg = SimConfig(dt=0.25e-6, end_time=60e-6, control=control,
                    signal_delay_mode=mode, sampling_interval=0.25e-6)
    return topo, [f_a, f_b], cfg


def test_signal_lags_queue_by_exactly_base_rtt():
    topo, flows, cfg = pinned_rate_setup()
    eng = FluidSimulation(topo, flows, cfg)
    eng.run()
    lag = 0.5e-6  # base RTT of the one-hop route
    t0 = 20e-6
    # before the step reaches the sender, the delivered signal is still zero
    assert eng.deliver_signal("fa", t0 + lag - 1e-9) == 0.0
    # afterwards the signal reproduces the ramp, shifted by exactly the lag
    for t in (t0 + lag + 1e-6, t0 + lag + 7e-6, t0 + lag + 20e-6):
        expected = 0.5 * (t - lag - t0)
        assert eng.deliver_signal("fa", t) == pytest.approx(expected, rel=1e-9)


def test_signal_is_zero_before_first_ack():
    topo, flows, cfg = pinned_rate_setup()
    eng = FluidSimulation(topo, flows, cfg)
    eng.run()
    # fb starts at 20us: nothing can have been reflected before start + RTT
    assert eng.deliver_signal("fb", 20e-6 + 0.4e-6) == 0.0


def test_propagation_plus_queue_mode_lags_more():
    topo, flows, cfg = pinned_rate_setup(mode="propagation_plus_queue")
    eng = FluidSimulation(topo, flows, cfg)
    eng.run()
    t = 50e-6
    base_lag_signal = 0.5 * (t - 0.5e-6 - 20e-6)
    got = eng.deliver_signal("fa", t)
    # queueing on the path delays the reflection, so the signal trails the
    # fixed-rtt value; the emission time solves t_e = t - rtt - D(t_e)
    assert got < base_lag_signal
    d = got  # delay sampled at emission time equals the lag it induced
    assert d == pytest.approx(0.5 * (t - 0.5e-6 - d - 20e-6), rel=1e-6)


# -- end-to-end equilibria ----------------------------------------------------

def test_single_flow_saturates_and_hits_base_delay():
    topo = single_link(prop_delay=0.25e-6)
    control = default_params(rate_cap=120e9)  # must overdrive to stack queue
    cfg = SimConfig(dt=0.125e-6, end_time=1e-3, control=control)
    trace = run(topo, [flow_on_link("f")], cfg)
    assert trace.rates[-1, 0] == pytest.approx(100e9, rel=1e-3)
    # alpha = 100G for weight 1, so the target at full rate is the base delay k
    assert trace.queue_delays[-1, 0] == pytest.approx(3e-6, rel=1e-3)


def test_four_equal_flows_quarter_split():
    topo = single_link(prop_delay=0.25e-6)
    flows = [flow_on_link(f"f{i}") for i in range(4)]
    cfg = SimConfig(dt=0.125e-6, end_time=1.5e-3, control=ControlParams())
    trace = run(topo, flows, cfg)
    for i in range(4):
        assert trace.rates[-1, i] == pytest.approx(25e9, rel=1e-3)
    params = default_params()
    assert trace.queue_delays[-1, 0] == pytest.approx(
        target_delay(25e9, params), rel=1e-3
    )


def test_two_switch_maxmin_rates():
    topo = two_switch()
    flows = two_switch_flows(w1=1.0)
    cfg = SimConfig(dt=0.2e-6, end_time=1.5e-3, control=ControlParams())
    trace = run(topo, flows, cfg)
    final = trace.rates_at(trace.times[-1])
    assert final["x1"] == pytest.approx(40e9, rel=2e-3)
    for fid in ("x2", "x3", "x4", "x5", "x6"):
        assert final[fid] == pytest.approx(20e9, rel=2e-3)


def test_steady_argmax_queue_is_oracle_bottleneck():
    topo = two_switch()
    flows = two_switch_flows(w1=5.0)
    cfg = SimConfig(dt=0.2e-6, end_time=1.5e-3, control=ControlParams())
    trace = run(topo, flows, cfg)
    alloc = water_fill(topo, flows)
    tail = trace.queue_delays[int(0.8 * len(trace.times)):].mean(axis=0)
    for f in flows:
        route_delay = {lid: tail[trace.link_index(lid)] for lid in f.route}
        assert max(route_delay, key=route_delay.get) == alloc.bottlenecks[f.id]


# -- invariants ---------------------------------------------------------------

def test_bounds_hold_at_every_sample():
    topo = two_switch()
    flows = two_switch_flows(w1=3.0)
    cfg = SimConfig(dt=0.2e-6, end_time=1e-3, control=ControlParams())
    trace = run(topo, flows, cfg)
    assert (trace.queue_delays >= 0).all()
    started = trace.rates > 0
    assert (trace.rates[started] >= ControlParams().rate_floor * (1 - 1e-12)).all()
    assert (trace.rates <= 100e9 * (1 + 1e-12)).all()


def test_saturated_link_conserves_bandwidth():
    topo = single_link(prop_delay=0.25e-6)
    flows = [flow_on_link(f"f{i}", w) for i, w in enumerate((1.0, 2.0, 0.5))]
    cfg = SimConfig(dt=0.125e-6, end_time=1.5e-3, control=ControlParams())
    trace = run(topo, flows, cfg)
    tail = trace.rates[int(0.8 * len(trace.times)):]
    load = tail.sum(axis=1)
    assert np.all(np.abs(load - 100e9) / 100e9 < 0.01)


def test_initial_condition_independence():
    topo = single_link(prop_delay=0.25e-6)
    cfg = SimConfig(dt=0.125e-6, end_time=2e-3, control=ControlParams())
    finals = []
    for rates in ((1e6, 1e6), (90e9, 30e9)):
        flows = [
            flow_on_link("p", 2.0, initial_rate=rates[0]),
            flow_on_link("q", 1.0, initial_rate=rates[1]),
        ]
        trace = run(topo, flows, cfg)
        finals.append(trace.rates[-1])
    assert np.all(np.abs(finals[0] - finals[1]) / finals[1] < 0.02)


def test_traces_are_bit_identical():
    topo = two_switch()
    cfg = SimConfig(dt=0.2e-6, end_time=0.5e-3, control=ControlParams())
    t1 = run(topo, two_switch_flows(w1=2.0), cfg)
    t2 = run(topo, two_switch_flows(w1=2.0), cfg)
    assert np.array_equal(t1.rates, t2.rates)
    assert np.array_equal(t1.signals, t2.signals)
    assert np.array_equal(t1.queue_delays, t2.queue_delays)


def test_csv_round_trip_binary_identical(tmp_path):
    topo = single_link(prop_delay=0.25e-6)
    cfg = SimConfig(dt=0.125e-6, end_time=0.2e-3, control=ControlParams())
    flows = [flow_on_link("f0"), flow_on_link("f1", 2.0)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(topo, flows, cfg).to_csv(p1)
    run(topo, flows, cfg).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == (
        "time_s,flow_f0_rate_bps,flow_f1_rate_bps,"
        "flow_f0_signal_s,flow_f1_signal_s,"
        "link_a->b_qdelay_s,link_b->a_qdelay_s"
    )


def test_engine_step_matches_scalar_ops():
    """One engine step reproduces the closed-form queue step and maxQD."""
    topo = single_link(prop_delay=0.25e-6)
    flows = [flow_on_link("f", initial_rate=50e9),
             flow_on_link("g", initial_rate=80e9)]
    control = default_params(update_interval=1.0)  # gate never opens
    cfg = SimConfig(dt=0.125e-6, end_time=50e-6, control=control,
                    sampling_interval=0.125e-6)
    eng = FluidSimulation(topo, flows, cfg)
    trace = eng.run()
    # queue after the first step: both flows push 130G into 100G
    assert trace.queue_delays[1, 0] == pytest.approx(
        0.125e-6 * (130e9 - 100e9) / 100e9, rel=1e-12
    )
    # the one-hop signal is that link's queue one base RTT (4 steps) earlier
    assert trace.signals[-1, 0] == trace.queue_delays[-5, 0]
    assert eng.deliver_signal("f", trace.times[-1]) == trace.queue_delays[-5, 0]


def test_flow_stop_releases_bandwidth():
    topo = single_link(prop_delay=0.25e-6)
    flows = [
        flow_on_link("stay"),
        flow_on_link("leave", stop_time=0.75e-3),
    ]
    control = default_params(rate_cap=120e9)
    cfg = SimConfig(dt=0.125e-6, end_time=1.5e-3, control=control)
    trace = run(topo, flows, cfg)
    mid = trace.rates_at(0.7e-3)
    assert mid["stay"] == pytest.approx(50e9, rel=5e-3)
    end = trace.rates_at(trace.times[-1])
    assert end["leave"] == 0.0
    assert end["stay"] == pytest.approx(100e9, rel=5e-3)
    kinds = [(e.kind, e.flow_id) for e in trace.events]
    assert ("stop", "leave") in kinds


def test_per_packet_mode_converges():
    topo = single_link(prop_delay=0.25e-6)
    flows = [flow_on_link("f0", 1.0), flow_on_link("f1", 3.0)]
    cfg = SimConfig(dt=0.125e-6, end_time=0.6e-3, control=ControlParams(),
                    update_mode="per_packet", packet_size=8000.0)
    trace = run(topo, flows, cfg)
    final = trace.rates_at(trace.times[-1])
    assert final["f0"] == pytest.approx(25e9, rel=5e-3)
    assert final["f1"] == pytest.approx(75e9, rel=5e-3)


def test_weight_change_moves_equilibrium():
    topo = single_link(prop_delay=0.25e-6)
    flows = [
        FlowSpec("w", ("a->b",), ((0.0, 1.0), (0.75e-3, 2.0))),
        flow_on_link("v"),
    ]
    cfg = SimConfig(dt=0.125e-6, end_time=1.5e-3, control=ControlParams())
    trace = run(topo, flows, cfg)
    before = trace.rates_at(0.7e-3)
    after = trace.rates_at(trace.times[-1])
    assert before["w"] == pytest.approx(50e9, rel=5e-3)
    assert after["w"] == pytest.approx(200e9 / 3, rel=5e-3)
    assert after["v"] == pytest.approx(100e9 / 3, rel=5e-3)
