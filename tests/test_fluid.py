import csv
import io
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soze_sim import (
    AimdConfig,
    ControlParams,
    FlowSpec,
    FluidSimulation,
    SimConfig,
    build_topology,
    fat_tree,
    load_scenario,
    route_flow,
    target_delay,
    water_fill,
)
from soze_sim import fluid
from soze_sim.fluid import SIGNAL_DELAY_MODES, SimConfigError, Trace
from soze_sim.model import FlowError, hosts_of

from conftest import (
    SCENARIO_DIR,
    default_params,
    flow_on_link,
    run,
    scenario_path,
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


def test_queue_step_follows_the_rates_in_force():
    """Sampled every step, each queue row is the one before plus
    ``dt * (arrival - bw) / bw``, clamped at zero, with the arrival summed
    in flow order from the rates in force at that step (its events applied
    first): the increment the engine keeps between rate changes is never
    stale after a start, a stop, a weight change or an update."""
    topo = build_topology({
        "nodes": ["a", "b", "c"],
        "links": [
            {"src": "a", "dst": "b", "bandwidth": 100e9, "prop_delay": 0.25e-6},
            {"src": "b", "dst": "c", "bandwidth": 40e9, "prop_delay": 0.5e-6},
        ],
    })
    flows = [
        # base RTTs, and so update gates, of 0.5 us and 1.5 us
        FlowSpec("near", ("a->b",), ((0.0, 1.0), (30e-6, 3.0))),
        FlowSpec("far", ("a->b", "b->c"), ((0.0, 1.0),)),
        FlowSpec("late", ("b->c",), ((0.0, 1.0),),
                 start_time=10.03e-6, stop_time=45.1e-6),
    ]
    dt = 0.1e-6
    cfg = SimConfig(dt=dt, end_time=60e-6, control=ControlParams(),
                    sampling_interval=dt)
    eng = FluidSimulation(topo, flows, cfg)
    trace = eng.run()
    assert [e.kind for e in trace.events].count("weight") == 4
    assert {"start", "stop"} <= {e.kind for e in trace.events}
    assert np.all(np.diff(trace.rates[:, :2], axis=0).any(axis=0))
    assert trace.queue_delays.max() > 0.0

    bw = [trace.bandwidths[lid] for lid in trace.link_ids]
    routes = [[trace.link_ids.index(lid) for lid in f.route] for f in flows]
    events = {}
    for e in trace.events:
        events.setdefault(round(e.time / dt), []).append(e)
    for k in range(eng.n_steps):
        rates = [float(r) for r in trace.rates[k]]
        for e in events.get(k, ()):
            j = trace.flow_ids.index(e.flow_id)
            if e.kind == "start":
                rates[j] = float(eng.init_rates[j])
            elif e.kind == "stop":
                rates[j] = 0.0
        arrival = [0.0] * len(bw)
        for j, route in enumerate(routes):
            for i in route:
                arrival[i] += rates[j]
        for i, b in enumerate(bw):
            q = float(trace.queue_delays[k, i]) + dt * (arrival[i] - b) / b
            assert trace.queue_delays[k + 1, i] == max(q, 0.0), (k, i)


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
    qd = {lid: trace.queue_delays[:, trace.link_ids.index(lid)] for lid in
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


# -- per-flow set-up ---------------------------------------------------------

def reference_setup(engine):
    """Per-flow base RTT, rate cap, starting rate and control gate, computed
    flow by flow with the scalar expressions the engine's arrays replace."""
    links = {l.id: l for l in engine.topology.links}
    params = engine.params
    columns = []
    for f in engine.flows:
        rtt = 2.0 * sum(links[lid].prop_delay for lid in f.route)
        cap = (params.rate_cap if params.rate_cap is not None
               else links[f.route[0]].bandwidth)
        rate = f.initial_rate if f.initial_rate is not None else cap / 10.0
        gate = (rtt if f.controller == "aimd" or params.update_interval is None
                else params.update_interval)
        columns.append((rtt, cap, min(max(rate, params.rate_floor), cap), gate))
    return [np.array(c, dtype=float) for c in zip(*columns)]


BUILTINS = sorted(n[:-5] for n in os.listdir(SCENARIO_DIR) if n.endswith(".yaml"))


@pytest.mark.parametrize("name, sets", [(n, ()) for n in BUILTINS] + [
    ("fat_tree_random",
     ("topology.K=8", "flow_groups.0.count=2000", "sim.seed=5")),
    ("single_link_nflows", ("flow_groups.0.count=1000",)),
    ("single_link_4flows", ("default_controller=aimd",)),
    ("weighted_split", ("control.rate_cap=50e9", "flows.0.initial_rate=1e3")),
    ("single_link_4flows", ("flows.0.controller=aimd", "flows.2.controller=aimd",
                            "control.update_interval=2e-6")),
])
def test_per_flow_setup_equals_scalar_reference(name, sets):
    scenario = load_scenario(scenario_path(name), sets)
    engine = FluidSimulation(scenario.topology, scenario.flows, scenario.sim)
    got = (engine.base_rtt, engine.caps, engine.init_rates, engine.gate)
    for mine, ref in zip(got, reference_setup(engine)):
        assert mine.dtype == ref.dtype == np.float64
        assert np.array_equal(mine.view(np.int64), ref.view(np.int64))


def test_initial_rate_default_is_tenth_of_cap():
    cfg = SimConfig(dt=0.1e-6, end_time=1e-3, control=default_params())
    engine = FluidSimulation(single_link(), [flow_on_link("f")], cfg)
    assert engine.init_rates.tolist() == [pytest.approx(10e9)]


def test_initial_rate_override_passthrough():
    cfg = SimConfig(dt=0.1e-6, end_time=1e-3, control=default_params())
    flow = flow_on_link("f", initial_rate=1e6)
    assert FluidSimulation(single_link(), [flow], cfg).init_rates.tolist() == [1e6]


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
    flows = [flow_on_link("g"), flow_on_link("f"), flow_on_link("f", 3.0)]
    cfg = SimConfig(dt=0.1e-6, end_time=1e-3)
    with pytest.raises(FlowError, match="^flow 'f': duplicate id$") as engine:
        FluidSimulation(topo, flows, cfg)
    # the engine and the oracle refuse the same flow set the same way
    with pytest.raises(FlowError) as oracle:
        water_fill(topo, flows)
    assert str(oracle.value) == str(engine.value)


def test_bad_modes_rejected():
    with pytest.raises(SimConfigError):
        SimConfig(dt=1e-7, end_time=1e-3, signal_delay_mode="psychic")
    with pytest.raises(SimConfigError):
        SimConfig(dt=1e-7, end_time=1e-3, update_mode="sometimes")


def test_bad_aimd_settings_rejected():
    with pytest.raises(ValueError, match="md must be in"):
        SimConfig(dt=0.1e-6, end_time=1e-3, aimd=AimdConfig(md=5.0))


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
    # the queue-lag mode keeps the rows from the oldest emission row of the
    # last read on: 30us lies behind them, the run's end does not
    eng = FluidSimulation(topo, flows,
                          replace(cfg, signal_delay_mode="propagation_plus_queue"))
    eng.run()
    with pytest.raises(ValueError, match="overwritten"):
        eng.deliver_signal("fa", 30e-6)
    assert eng.deliver_signal("fa", 60e-6) > 0.0


@pytest.mark.parametrize("mode", SIGNAL_DELAY_MODES)
def test_signal_is_asked_only_of_a_finished_run(mode):
    """``deliver_signal`` reads the history of a run that returned: before
    the run, or after a run that stopped part way, it raises; a second run
    of one engine raises too."""
    topo, flows, cfg = pinned_rate_setup(mode)
    eng = FluidSimulation(topo, flows, cfg)
    with pytest.raises(RuntimeError, match="not started"):
        eng.deliver_signal("fa", 10e-6)

    def stop(t, filled):
        raise KeyboardInterrupt

    eng._signals = stop
    with pytest.raises(KeyboardInterrupt):
        eng.run()
    with pytest.raises(RuntimeError, match="did not finish"):
        eng.deliver_signal("fa", 10e-6)
    with pytest.raises(RuntimeError, match="already ran"):
        eng.run()


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


def scenario_case(name, *sets):
    def build():
        sc = load_scenario(scenario_path(name), sets)
        return sc.topology, sc.flows, sc.sim
    return build


def rtt_per_flow_case():
    topo, flows = rtt_per_flow()
    return topo, flows, SimConfig(dt=0.2e-6, end_time=100e-6,
                                  control=ControlParams())


@pytest.mark.parametrize("build", [
    pytest.param(rtt_per_flow_case, id="rtt_per_flow"),
    pytest.param(scenario_case("lemma2_boundary",
                               "topology.links.0.prop_delay=0.0"),
                 id="lemma2_boundary_zero_lag"),
    pytest.param(scenario_case("weighted_split", "sim.update_mode=per_packet",
                               "sim.end_time=0.4e-3"),
                 id="weighted_split_per_packet"),
    pytest.param(scenario_case("step_in_out", "flows.2.controller=aimd",
                               "sim.end_time=1.6e-3"),
                 id="soze_aimd_mix"),
])
def test_row_table_equals_per_read_row_steps(build, monkeypatch):
    """``fixed_rtt`` reads look their row step up in a table filled chunk
    by chunk; with a cell budget that puts chunk edges on odd steps, the
    trace is bit for bit that of the same run whose every read solves its
    row step afresh with ``_read_rows`` and ``_route_max``."""
    topo, flows, cfg = build()
    assert cfg.signal_delay_mode == "fixed_rtt"
    table = FluidSimulation(topo, flows, cfg)
    per_read = FluidSimulation(topo, flows, cfg)
    keys = len(table._lags)
    monkeypatch.setattr(fluid, "_TABLE_CELLS", 7 * keys + keys - 1)
    fills, fill = [], table._fill_table

    def record(filled):
        fill(filled)
        fills.append((filled, len(table._table_frac)))

    def signals(t, filled):
        sig = per_read._route_max(*per_read._read_rows(t, filled))
        sig[t < per_read._eligible_from] = 0.0
        return sig

    table._fill_table = record
    per_read._signals = signals
    got, ref = table.run(), per_read.run()
    # chunks of 7 steps: some end after an odd step
    assert len(fills) > 10 and any((first + n) % 2 for first, n in fills)
    assert all(n == 7 for _, n in fills[:-1])
    assert ref.signals.any()
    for name in ("times", "rates", "signals", "queue_delays"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    for f in flows:
        t = got.times[-1]
        assert table.deliver_signal(f.id, t) == per_read.deliver_signal(f.id, t)


def test_row_table_does_not_grow_with_end_time(monkeypatch):
    """The table holds the row steps of at most ``_TABLE_CELLS`` (step, key)
    cells, one key per flow here, however long the run."""
    topo, flows = rtt_per_flow()
    monkeypatch.setattr(fluid, "_TABLE_CELLS", 600)   # 100 steps of 6 keys
    largest = []
    for end in (60e-6, 300e-6, 1200e-6):
        cfg = SimConfig(dt=0.2e-6, end_time=end, control=ControlParams())
        eng = FluidSimulation(topo, flows, cfg)
        cells, fill = [], eng._fill_table

        def record(filled):
            fill(filled)
            cells.append(eng._table_frac.size)

        eng._fill_table = record
        eng.run()
        assert len(cells) > 1
        largest.append(max(cells))
    assert largest == [600, 600, 600]


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
            incidence[trace.link_ids.index(lid), j] = 1.0
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
    t = 50e-6
    base_lag_signal = 0.5 * (t - 0.5e-6 - 20e-6)
    got = signal_at("fa", t, mode="propagation_plus_queue")
    # queueing on the path delays the reflection, so the signal trails the
    # fixed-rtt value; the emission time solves t_e = t - rtt - D(t_e)
    assert got < base_lag_signal
    d = got  # delay sampled at emission time equals the lag it induced
    assert d == pytest.approx(0.5 * (t - 0.5e-6 - d - 20e-6), rel=1e-6)


@pytest.mark.parametrize("change", [
    pytest.param({}, id="per_rtt"),
    pytest.param({"update_mode": "per_packet"}, id="per_packet"),
    pytest.param({"controller": "aimd"}, id="aimd"),
    pytest.param({"signal_delay_mode": "propagation_plus_queue"},
                 id="propagation_plus_queue"),
])
def test_coarse_sampling_leaves_the_run_unchanged(change):
    """Signals are delivered only on update and sample steps; a run sampled
    every step and the same run sampled every seventh step agree bit for
    bit at their shared samples, so no update reads a stale signal."""
    topo, flows = two_rtt_flows(1)
    change = dict(change)
    if change.pop("controller", None):
        # every other flow runs AIMD, so some steps update only AIMD flows
        flows = [replace(f, controller="aimd") if j % 2 else f
                 for j, f in enumerate(flows)]
    dt = 0.2e-6
    cfg = SimConfig(dt=dt, end_time=100e-6, control=ControlParams(),
                    sampling_interval=dt, **change)
    dense = run(topo, flows, cfg)
    coarse = run(topo, flows, replace(cfg, sampling_interval=7 * dt))
    assert len(coarse.times) > 10 and dense.signals.any()
    for name in ("times", "rates", "signals", "queue_delays"):
        assert np.array_equal(getattr(dense, name)[::7], getattr(coarse, name))


def gate_replay(flows, gate, dt, n_steps):
    """Per step, the flows whose update gate opens, replayed in Python
    floats: a start sets ``last_update = k * dt``, and a flow updates at
    step ``k`` when ``(k + 1) * dt - last_update > gate - dt / 2``."""
    start = [max(0, round(f.start_time / dt)) for f in flows]
    stop = [None if f.stop_time is None else max(0, round(f.stop_time / dt))
            for f in flows]
    last, out = {}, {}
    for k in range(n_steps):
        for j in range(len(flows)):
            if start[j] == k:
                last[j] = k * dt
            if stop[j] == k:
                last.pop(j, None)
        t_next = (k + 1) * dt
        due = {j for j, lu in last.items()
               if t_next - lu > float(gate[j]) - dt / 2.0}
        for j in due:
            last[j] = t_next
        if due:
            out[k] = due
    return out


@pytest.mark.parametrize("gate_steps", [4, 4.49, 4.5, 4.51, 6, 12])
def test_update_steps_follow_the_float_gate_test(gate_steps, monkeypatch):
    """The engine skips the gate test on steps where no gate can open yet;
    the flows it updates on each step are exactly those of a replay of the
    gate test on every step, for Soze gates of ``gate_steps`` steps and
    AIMD gates of 5.4 steps, with staggered starts, a stop and samples
    rarer than updates."""
    dt = 0.1e-6
    topo = single_link(prop_delay=0.27e-6)   # base RTT 0.54 us
    flows = [
        flow_on_link("s0"),
        flow_on_link("s1", start_time=1.37e-6),
        flow_on_link("s2", start_time=3.01e-6, stop_time=40.55e-6),
        flow_on_link("a0", controller="aimd"),
        flow_on_link("a1", controller="aimd", start_time=2.26e-6),
    ]
    cfg = SimConfig(dt=dt, end_time=200e-6,
                    control=ControlParams(update_interval=gate_steps * dt),
                    sampling_interval=23 * gate_steps * dt)
    eng = FluidSimulation(topo, flows, cfg)
    step, updated = [None], {}

    def signals(t, filled):
        step[0] = filled - 1
        return np.arange(len(flows), dtype=float)   # each signal names its flow

    def record(signal):
        updated.setdefault(step[0], set()).update(int(x) for x in signal)

    def ratio(s, delay, params, m=None):
        record(delay)
        return np.ones_like(s)

    def window(cwnd, signal, config):
        record(signal)
        return cwnd

    eng._signals = signals
    monkeypatch.setattr(fluid, "update_ratio", ratio)
    monkeypatch.setattr(fluid, "aimd_window", window)
    eng.run()
    expected = gate_replay(flows, eng.gate, dt, eng.n_steps)
    assert set().union(*expected.values()) == set(range(len(flows)))
    assert updated == expected


def packet_replay(flows, rates, m, dt, packet_size, n_steps):
    """Per step, the Söze flows whose packet count crosses an integer, with
    the exponent ``min(m * whole, 1)`` each updates with, replayed in
    Python floats at constant rates: a started flow adds
    ``dt * rate / packet_size`` per step until it stops, and a flow whose
    count reaches ``whole >= 1`` packets updates and keeps the fraction."""
    start = [max(0, round(f.start_time / dt)) for f in flows]
    stop = [None if f.stop_time is None else max(0, round(f.stop_time / dt))
            for f in flows]
    count, out = {}, {}
    for k in range(n_steps):
        for j, f in enumerate(flows):
            if f.controller == "soze" and start[j] == k:
                count[j] = 0.0
            if stop[j] == k:
                count.pop(j, None)
        for j in count:
            count[j] += dt * rates[j] / packet_size
            whole = math.floor(count[j])
            if whole >= 1:
                count[j] -= whole
                out.setdefault(k, {})[j] = min(m * whole, 1.0)
    return out


def test_per_packet_updates_follow_each_flows_packet_count(monkeypatch):
    """Under per_packet every flow's packet counter advances in one array
    step (stopped and unstarted flows add 0; AIMD counters are never read).
    With the ratio pinned at 1, each Söze flow updates exactly on the steps
    where its own packet count crosses an integer, with exponent
    ``min(m * whole, 1)``, also after a Söze flow stops mid-run, and the
    AIMD flows beside them keep their RTT gate."""
    dt = 0.1e-6
    topo = single_link(prop_delay=0.27e-6)   # base RTT 0.54 us
    flows = [
        flow_on_link("s0", initial_rate=7e9),
        flow_on_link("s1", initial_rate=13.3e9, start_time=1.37e-6),
        flow_on_link("s2", initial_rate=97e9, start_time=3.01e-6,
                     stop_time=40.55e-6),
        flow_on_link("a0", controller="aimd"),
        flow_on_link("a1", controller="aimd", start_time=2.26e-6),
    ]
    cfg = SimConfig(dt=dt, end_time=100e-6, control=ControlParams(m=0.25),
                    update_mode="per_packet", sampling_interval=37 * dt)
    eng = FluidSimulation(topo, flows, cfg)
    step, soze, aimd = [None], {}, {}

    def signals(t, filled):
        step[0] = filled - 1
        return np.arange(len(flows), dtype=float)   # each signal names its flow

    def ratio(s, delay, params, m=None):
        soze[step[0]] = dict(zip(delay.astype(int).tolist(), m.tolist()))
        return np.ones_like(s)

    def window(cwnd, signal, config):
        aimd.setdefault(step[0], set()).update(int(x) for x in signal)
        return cwnd

    eng._signals = signals
    monkeypatch.setattr(fluid, "update_ratio", ratio)
    monkeypatch.setattr(fluid, "aimd_window", window)
    eng.run()
    expected = packet_replay(flows, eng.init_rates.tolist(), 0.25, dt,
                             cfg.packet_size, eng.n_steps)
    assert soze == expected
    last_s2 = max(k for k, due in soze.items() if 2 in due)
    assert last_s2 < round(flows[2].stop_time / dt) < max(soze)
    # s2 sends more than a packet per step, so some steps count two
    assert any(0.5 in due.values() for due in soze.values())
    gated = gate_replay(flows[3:], eng.gate[3:], dt, eng.n_steps)
    assert aimd == {k: {j + 3 for j in due} for k, due in gated.items()}


def latest_root_signals(hist, routes, rtt, eligible, t, filled, dt):
    """Queue-lag maxQD per flow by brute force over the full queue history
    ``hist`` (row k: queues after step k): ``G`` at every row, the last row
    with ``G <= t``, then one linear solve in the following segment.  Also
    returns whether an earlier segment of some flow crosses ``t`` too."""
    sig = np.zeros(len(routes))
    earlier_root = False
    rows = np.arange(filled + 1)
    for j, route in enumerate(routes):
        g = rows * dt + rtt[j] + hist[:filled + 1, route].sum(axis=1)
        below = np.flatnonzero(g <= t)
        if t < eligible[j] or below.size == 0:
            continue
        r = below[-1]
        earlier_root |= bool(np.any((g[:r] <= t) & (g[1:r + 1] > t)))
        frac = (t - g[r]) / (g[r + 1] - g[r]) if r < filled else 0.0
        nxt = min(r + 1, filled)
        sig[j] = (hist[r, route] * (1.0 - frac) + hist[nxt, route] * frac).max()
    return sig, earlier_root


def test_queue_lag_signal_is_the_latest_root():
    """Two links fill and then drain together under a two-hop probe, so the
    probe's route queue sum falls twice as fast as time runs: its
    ``g(e) = e + base RTT + queue sum(e)`` decreases and ``g(e) = t`` has
    several roots.  Every delivered signal matches the brute-force latest
    root over the full history, across the ring's growth."""
    topo = build_topology({
        "nodes": ["a", "b", "c"],
        "links": [
            {"src": "a", "dst": "b", "bandwidth": 100e9, "prop_delay": 0.25e-6},
            {"src": "b", "dst": "c", "bandwidth": 100e9, "prop_delay": 0.25e-6},
        ],
    })
    flows = [
        FlowSpec("burst_ab", ("a->b",), initial_rate=200e9, stop_time=10e-6),
        FlowSpec("burst_bc", ("b->c",), initial_rate=200e9, stop_time=10e-6),
        FlowSpec("probe", ("a->b", "b->c"), initial_rate=1e6),
    ]
    dt = 0.125e-6
    control = default_params(update_interval=1.0, rate_cap=300e9)
    cfg = SimConfig(dt=dt, end_time=40e-6, control=control, sampling_interval=dt,
                    signal_delay_mode="propagation_plus_queue")
    eng = FluidSimulation(topo, flows, cfg)
    first_ring = eng._hist_rows
    trace = eng.run()
    assert eng._hist_rows > first_ring
    lidx = {lid: i for i, lid in enumerate(trace.link_ids)}
    routes = [[lidx[lid] for lid in f.route] for f in flows]
    rtt = np.array([trace.base_rtts[f.id] for f in flows])
    eligible = rtt + np.array([f.start_time for f in flows])
    hist = trace.queue_delays
    several = 0
    for k in range(1, len(trace.times)):
        ref, earlier = latest_root_signals(hist, routes, rtt, eligible,
                                           trace.times[k], k, dt)
        ref = np.where(trace.rates[k] > 0, ref, 0.0)
        np.testing.assert_allclose(trace.signals[k], ref, rtol=1e-12, atol=1e-20)
        several += earlier
    assert several > 20
    filled = len(trace.times) - 1
    for t in (trace.times[-1], trace.times[-1] + 2.5 * dt):
        ref, _ = latest_root_signals(hist, routes, rtt, eligible, t, filled, dt)
        for j, f in enumerate(flows):
            assert eng.deliver_signal(f.id, t) == pytest.approx(
                ref[j], rel=1e-12, abs=1e-20)


def test_queue_lag_route_max_equals_per_hop_interpolation():
    """Under queue lag each flow is its own read key, so the pair gather
    interpolates exactly its route hops: every read's route max equals the
    per-(flow, hop) interpolation over the same rows, bit for bit, on
    three-hop routes with one base RTT per flow."""
    topo, flows = rtt_per_flow()
    dt = 0.2e-6
    cfg = SimConfig(dt=dt, end_time=100e-6, control=ControlParams(),
                    sampling_interval=dt,
                    signal_delay_mode="propagation_plus_queue")
    eng = FluidSimulation(topo, flows, cfg)
    gather = eng._route_max
    reads = []

    def per_hop(rows, frac):
        got = gather(rows, frac)
        lohi = eng._hist[(rows % eng._hist_rows)[:, :, None], eng.route_idx]
        w = frac[:, None]
        ref = (lohi[0] * (1.0 - w) + lohi[1] * w).max(axis=1)
        assert np.array_equal(got, ref)
        reads.append(ref.max())
        return got

    eng._route_max = per_hop
    trace = eng.run()
    assert len(set(trace.base_rtts.values())) == len(flows)
    assert len(reads) == len(trace.times) - 1 and max(reads) > 0.0
    for f in flows:
        eng.deliver_signal(f.id, trace.times[-1])
    assert len(reads) == len(trace.times) - 1 + len(flows)


def test_queue_lag_history_does_not_grow_with_end_time():
    """Once a burst has drained, the queue-lag ring stops growing: its rows
    span the longest lag, not the run."""
    topo, flows, cfg = pinned_rate_setup(mode="propagation_plus_queue")
    flows[1] = replace(flows[1], stop_time=30e-6)
    rows = []
    for end in (60e-6, 300e-6, 1200e-6):
        eng = FluidSimulation(topo, flows, replace(cfg, end_time=end))
        eng.run()
        rows.append(eng._hist.shape[0])
    assert rows[0] == rows[1] == rows[2] < 60e-6 / cfg.dt


def test_queue_lag_ring_growth_leaves_the_run_unchanged():
    """Each step integrates the queues in place into its row of the history
    ring: a queue-lag run whose ring doubles mid-run gives the same trace,
    bit for bit, as the same run on a ring preset to one row per step."""
    topo, flows = rtt_per_flow()
    cfg = SimConfig(dt=0.2e-6, end_time=100e-6, control=ControlParams(),
                    sampling_interval=0.2e-6,
                    signal_delay_mode="propagation_plus_queue")
    growing = FluidSimulation(topo, flows, cfg)
    first_ring = growing._hist_rows
    grown = growing.run()
    full = FluidSimulation(topo, flows, cfg)
    full._hist_rows = full.n_steps + 1
    reference = full.run()
    assert first_ring < growing._hist_rows < full.n_steps + 1
    assert grown.queue_delays.max() > 0.0 and len(np.unique(grown.rates)) > 10
    for name in ("times", "rates", "signals", "queue_delays"):
        assert np.array_equal(getattr(grown, name), getattr(reference, name))


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


def rates_at(trace, t):
    """Per-flow rates at the sample nearest to (and not after) ``t``."""
    idx = max(int(np.searchsorted(trace.times, t + 1e-15, side="right")) - 1, 0)
    return {fid: float(trace.rates[idx, i]) for i, fid in enumerate(trace.flow_ids)}


def test_two_switch_maxmin_rates():
    topo = two_switch()
    flows = two_switch_flows(w1=1.0)
    cfg = SimConfig(dt=0.2e-6, end_time=1.5e-3, control=ControlParams())
    trace = run(topo, flows, cfg)
    final = rates_at(trace, trace.times[-1])
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
        route_delay = {lid: tail[trace.link_ids.index(lid)] for lid in f.route}
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
        # each edge of _float_texts' bands with its neighbours, both signs
        edges = np.array([1e-9, 1e-5, 1e-4, 1e16])
        edges = np.concatenate([edges, np.nextafter(edges, 0.0),
                                np.nextafter(edges, np.inf)])
        special = np.concatenate([
            [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
             5e-324, 1.7976931348623157e308,
             np.int64(0x7FF8000000000001).view(np.float64)],
            edges, -edges,
        ])
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


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=1, max_size=200))
def test_float_texts_equal_repr_on_raw_bit_patterns(patterns):
    """Every float64 bit pattern, NaN payloads and subnormals included,
    gets exactly ``repr``'s text."""
    values = np.array(patterns, dtype=np.int64).view(np.float64)
    assert fluid._float_texts(values).tolist() == [repr(x) for x in values.tolist()]


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
    mid = rates_at(trace, 0.7e-3)
    assert mid["stay"] == pytest.approx(50e9, rel=5e-3)
    end = rates_at(trace, trace.times[-1])
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
    final = rates_at(trace, trace.times[-1])
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
    before = rates_at(trace, 0.7e-3)
    after = rates_at(trace, trace.times[-1])
    assert before["w"] == pytest.approx(50e9, rel=5e-3)
    assert after["w"] == pytest.approx(200e9 / 3, rel=5e-3)
    assert after["v"] == pytest.approx(100e9 / 3, rel=5e-3)
