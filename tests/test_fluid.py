import csv
import io
import os
from dataclasses import replace

import numpy as np
import pytest

from soze_sim import (
    ControlParams,
    FlowSpec,
    FluidSimulation,
    SimConfig,
    build_topology,
    fat_tree,
    initial_rate,
    route_flow,
    run,
    target_delay,
    water_fill,
)
from soze_sim.fluid import SimConfigError, Trace
from soze_sim.model import hosts_of

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
    # an idle path signals zero; asked of a run that ends at the query time,
    # since a fixed-lag engine keeps only its last few RTTs of queue history
    idle = FluidSimulation(topo, flows, replace(cfg, end_time=1.5e-6))
    idle.run()
    assert idle.deliver_signal("long", 1.5e-6) == 0.0


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


def signal_at(flow_id, t, mode="fixed_rtt"):
    """``deliver_signal`` at ``t`` from a pinned-rate run that ends at ``t``:
    a fixed-lag engine keeps only its last few RTTs of queue history."""
    topo, flows, cfg = pinned_rate_setup(mode)
    eng = FluidSimulation(topo, flows, replace(cfg, end_time=t))
    eng.run()
    return eng.deliver_signal(flow_id, t)


def test_signal_lags_queue_by_exactly_base_rtt():
    lag = 0.5e-6  # base RTT of the one-hop route
    t0 = 20e-6
    # before the step reaches the sender, the delivered signal is still zero
    assert signal_at("fa", t0 + lag - 1e-9) == 0.0
    # afterwards the signal reproduces the ramp, shifted by exactly the lag
    for t in (t0 + lag + 1e-6, t0 + lag + 7e-6, t0 + lag + 20e-6):
        expected = 0.5 * (t - lag - t0)
        assert signal_at("fa", t) == pytest.approx(expected, rel=1e-9)


def test_signal_for_overwritten_history_raises():
    topo, flows, cfg = pinned_rate_setup()
    eng = FluidSimulation(topo, flows, cfg)
    eng.run()
    # the run ends at 60us; 30us lies far behind the kept history
    with pytest.raises(ValueError, match="overwritten"):
        eng.deliver_signal("fa", 30e-6)
    # the queue-lag mode keeps every row and still answers
    eng = FluidSimulation(topo, flows,
                          replace(cfg, signal_delay_mode="propagation_plus_queue"))
    eng.run()
    assert eng.deliver_signal("fa", 30e-6) > 0.0


def test_fixed_lag_history_does_not_grow_with_end_time():
    topo, flows, cfg = pinned_rate_setup()
    rows = []
    for end in (10e-6, 60e-6, 600e-6):
        eng = FluidSimulation(topo, flows, replace(cfg, end_time=end))
        eng.run()
        rows.append(eng._hist.shape[0])
    assert rows[0] == rows[1] == rows[2]


def test_fixed_lag_history_never_exceeds_the_run():
    """A base RTT longer than the run keeps one row per step, no more."""
    _, flows, cfg = pinned_rate_setup()
    topo = single_link(prop_delay=50e-6)   # base RTT 100us, run 60us
    eng = FluidSimulation(topo, flows, cfg)
    trace = eng.run()
    assert eng._hist.shape[0] == eng.n_steps + 1
    assert trace.queue_delays.max() > 0.0
    # no ACK has returned yet, and no time is behind the kept history
    for t in trace.times:
        assert eng.deliver_signal("fa", t) == 0.0


def parent_signals(hist, route_idx, route_pad, rtt, eligible, t, filled, dt):
    """maxQD per flow by per-(flow, hop) interpolation over the full queue
    history ``hist`` (row k: queues after step k), as the engine computed it
    before the fixed-lag history became a ring."""
    emit = t - rtt
    pos = np.clip(emit / dt, 0.0, float(filled))
    i0 = np.floor(pos).astype(np.intp)
    i1 = np.minimum(i0 + 1, filled)
    frac = (pos - i0)[:, None]
    lo = hist[i0[:, None], route_idx]
    hi = hist[i1[:, None], route_idx]
    vals = np.where(route_pad, lo * (1.0 - frac) + hi * frac, -1.0)
    sig = np.maximum(vals.max(axis=1), 0.0)
    sig[t < eligible] = 0.0
    return sig


# start time, weight and stop time of each of six flows
STAGGERED = list(zip((0, 0, 7e-6, 0, 13e-6, 0), (1, 2, 1, 3, 1, 1),
                     (None, 60e-6, None, None, None, None)))


def two_rtt_flows(copies):
    """The two-switch routes (1.2 us over three hops, 0.8 us over two) with
    staggered starts, ``copies`` times over."""
    return two_switch(), [
        replace(f, id=f"{f.id}_{c}", start_time=s, weight_schedule=((s, w),),
                stop_time=e)
        for c in range(copies)
        for f, (s, w, e) in zip(two_switch_flows(), STAGGERED)
    ]


def rtt_per_flow():
    """Six flows with staggered starts, each with its own access link delay
    and so its own base RTT, sharing one trunk and two egress links."""
    links = [{"src": f"h{i}", "dst": "s1", "prop_delay": (0.1 + 0.03 * i) * 1e-6}
             for i in range(6)]
    links += [{"src": "s1", "dst": "s2", "prop_delay": 0.2e-6},
              {"src": "s2", "dst": "d0", "prop_delay": 0.2e-6},
              {"src": "s2", "dst": "d1", "prop_delay": 0.2e-6}]
    for l in links:
        l["bandwidth"] = 100e9
    topo = build_topology({
        "nodes": [f"h{i}" for i in range(6)] + ["s1", "s2", "d0", "d1"],
        "links": links,
    })
    flows = [FlowSpec(f"f{i}", (f"h{i}->s1", "s1->s2", f"s2->d{i % 2}"),
                      ((s, w),), start_time=s, stop_time=e)
             for i, (s, w, e) in enumerate(STAGGERED)]
    return topo, flows


@pytest.mark.parametrize("build, n_rtts", [
    pytest.param(lambda: two_rtt_flows(1), 2, id="two_rtts_6_flows"),
    pytest.param(lambda: two_rtt_flows(2), 2, id="two_rtts_12_flows"),
    pytest.param(rtt_per_flow, 6, id="one_rtt_per_flow"),
])
def test_signals_equal_full_history_reference(build, n_rtts):
    """Every step's delivered signal equals the per-hop reference computed
    from the full queue history, with staggered starts, on RTT mixes from
    two distinct base RTTs shared by many flows to one base RTT per flow."""
    topo, flows = build()
    dt = 0.2e-6
    cfg = SimConfig(dt=dt, end_time=100e-6, control=ControlParams(),
                    sampling_interval=dt)
    eng = FluidSimulation(topo, flows, cfg)
    trace = eng.run()
    lidx = {lid: i for i, lid in enumerate(trace.link_ids)}
    width = max(len(f.route) for f in flows)
    route_idx = np.zeros((len(flows), width), dtype=np.intp)
    route_pad = np.zeros((len(flows), width), dtype=bool)
    for j, f in enumerate(flows):
        for h, lid in enumerate(f.route):
            route_idx[j, h] = lidx[lid]
            route_pad[j, h] = True
    rtt = np.array([trace.base_rtts[f.id] for f in flows])
    assert len(set(rtt)) == n_rtts
    eligible = rtt + np.array([f.start_time for f in flows])
    hist = trace.queue_delays
    assert trace.signals.any()
    for k in range(1, len(trace.times)):
        ref = parent_signals(hist, route_idx, route_pad, rtt, eligible,
                             trace.times[k], k, dt)
        active = trace.rates[k] > 0
        assert np.array_equal(trace.signals[k], np.where(active, ref, 0.0)), k
    filled = len(trace.times) - 1
    for t in (trace.times[-1], trace.times[-1] - 0.3 * dt,
              trace.times[-1] - 1.7 * dt):
        ref = parent_signals(hist, route_idx, route_pad, rtt, eligible,
                             t, filled, dt)
        for j, f in enumerate(flows):
            assert eng.deliver_signal(f.id, t) == ref[j]


def test_first_step_queue_matches_dense_incidence_product():
    topo = fat_tree(4, 100e9, 0.5e-6)
    hosts = hosts_of(topo)
    rng = np.random.default_rng(11)
    flows = []
    for i in range(60):
        src, dst = rng.choice(len(hosts), size=2, replace=False)
        flows.append(FlowSpec(
            f"r{i}", route_flow(topo, hosts[src], hosts[dst], seed=3,
                                flow_id=f"r{i}"),
            initial_rate=float(rng.uniform(1e9, 60e9)),
        ))
    dt = 0.1e-6
    cfg = SimConfig(dt=dt, end_time=10 * dt, sampling_interval=dt,
                    control=default_params(update_interval=1.0, rate_cap=300e9))
    trace = run(topo, flows, cfg)
    incidence = np.zeros((len(trace.link_ids), len(flows)))
    for j, f in enumerate(flows):
        for lid in f.route:
            incidence[trace.link_index(lid), j] = 1.0
    bw = np.array([trace.bandwidths[lid] for lid in trace.link_ids])
    arrival = incidence @ trace.rates[0]
    expected = np.maximum(dt * (arrival - bw) / bw, 0.0)
    assert (expected > 0).sum() >= 3
    # the sums add in another order; (arrival - bw) cancels, so the bound is
    # relative to the arrival term rather than to the difference
    err = np.abs(trace.queue_delays[1] - expected)
    assert np.all(err <= 1e-15 * dt * arrival / bw)


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


def parent_csv(trace, path):
    """The row-by-row CSV writer that ``Trace.to_csv`` replaced, kept as
    the byte-for-byte reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["time_s"]
    header += [f"flow_{fid}_rate_bps" for fid in trace.flow_ids]
    header += [f"flow_{fid}_signal_s" for fid in trace.flow_ids]
    header += [f"link_{lid}_qdelay_s" for lid in trace.link_ids]
    writer.writerow(header)
    for i in range(len(trace.times)):
        row = [repr(float(trace.times[i]))]
        row += [repr(float(x)) for x in trace.rates[i]]
        row += [repr(float(x)) for x in trace.signals[i]]
        row += [repr(float(x)) for x in trace.queue_delays[i]]
        writer.writerow(row)
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


@pytest.mark.parametrize("nf, nl, rows", [
    (16400, 2, 3),      # a row wider than one formatting block
    (2, 1, 12000),      # many rows per block, several blocks
])
def test_csv_matches_row_by_row_writer(tmp_path, nf, nl, rows):
    rng = np.random.default_rng(nf + rows)

    def values(shape):
        out = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
        flat = out.reshape(-1)
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                            5e-324, 1.7976931348623157e308,
                            np.int64(0x7FF8000000000001).view(np.float64)])
        at = rng.choice(flat.size, size=min(flat.size, 400), replace=False)
        flat[at] = special[rng.integers(0, len(special), at.size)]
        flat[-1] = 1e9  # values repeat within a block
        flat[:3] = 1e9
        return out

    trace = Trace(
        times=np.arange(rows) * 1.25e-7,
        flow_ids=tuple(f"f{i}" for i in range(nf)),
        link_ids=tuple(f"l{i}" for i in range(nl)),
        rates=values((rows, nf)),
        signals=values((rows, nf)),
        queue_delays=values((rows, nl)),
        events=(),
    )
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    trace.to_csv(got)
    parent_csv(trace, ref)
    assert got.read_bytes() == ref.read_bytes()
    assert b"-0.0," in got.read_bytes() and b"nan" in got.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["got.csv", "ref.csv"]


def test_csv_failure_leaves_no_partial_file(tmp_path):
    """A trace that fails while its rows are being written leaves the old
    file in place and no temp file behind."""
    rows = 12000
    trace = Trace(
        times=np.arange(rows) * 1.25e-7,
        flow_ids=("f0", "f1"),
        link_ids=("l0",),
        rates=np.ones((rows // 2, 2)),     # too short: a later block fails
        signals=np.zeros((rows, 2)),
        queue_delays=np.zeros((rows, 1)),
        events=(),
    )
    path = tmp_path / "t.csv"
    path.write_text("old\n")
    with pytest.raises(ValueError):
        trace.to_csv(path)
    assert os.listdir(tmp_path) == ["t.csv"]
    assert path.read_text() == "old\n"


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
