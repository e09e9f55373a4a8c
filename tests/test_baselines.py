import numpy as np
import pytest

from soze_sim import (
    AimdConfig,
    ControlParams,
    FlowSpec,
    SimConfig,
    aimd_window,
    build_topology,
)

from conftest import run


CFG = AimdConfig(threshold=20e-6, md=0.20)


def test_additive_increase_below_threshold():
    out = aimd_window(np.array([100.0, 7.0]), np.array([5e-6, 0.0]), CFG)
    assert list(out) == [101.0, 8.0]


def test_multiplicative_decrease_above_threshold():
    out = aimd_window(np.array([100.0, 100.0]), np.array([30e-6, 20e-6]), CFG)
    # the threshold itself already triggers backoff
    assert out == pytest.approx([80.0, 80.0])


def test_window_floor_is_one_packet():
    out = aimd_window(np.array([1.0, 1.1]), np.array([100e-6, 100e-6]), CFG)
    assert list(out) == [1.0, 1.0]


def aimd_pair_run():
    """Two AIMD flows on separate, uncongested links with base RTTs of 0.5 and
    1 us, sampled every step.  Both start at a one-packet window."""
    topo = build_topology({
        "nodes": ["a", "b", "c", "d"],
        "links": [
            {"src": "a", "dst": "b", "bandwidth": 1e13, "prop_delay": 0.25e-6},
            {"src": "c", "dst": "d", "bandwidth": 1e13, "prop_delay": 0.5e-6},
        ],
    })
    flows = [
        FlowSpec("fast", ("a->b",), controller="aimd", initial_rate=1e6),
        FlowSpec("slow", ("c->d",), controller="aimd", initial_rate=1e6),
    ]
    cfg = SimConfig(dt=0.125e-6, end_time=3e-6, control=ControlParams(),
                    sampling_interval=0.125e-6, aimd=CFG)
    return run(topo, flows, cfg)


def test_gate_holds_within_one_rtt():
    trace = aimd_pair_run()
    fast = trace.rates[:, trace.flow_ids.index("fast")]
    pkt_rate = 8000.0 / 0.5e-6
    # one window step per RTT, on the step the RTT elapses, never in between
    for i, t in enumerate(trace.times):
        assert fast[i] == pytest.approx((1 + int(t / 0.5e-6 + 1e-9)) * pkt_rate)
    assert fast[3] == fast[0] and fast[4] == 2 * pkt_rate


def test_per_flow_rtt_override():
    trace = aimd_pair_run()
    assert trace.control_intervals == {"fast": 0.5e-6, "slow": 1e-6}
    slow = trace.rates[:, trace.flow_ids.index("slow")]
    # each flow paces its window by its own base RTT: rate = cwnd * pkt / rtt
    assert slow[7] == pytest.approx(1 * 8000.0 / 1e-6)
    assert slow[8] == pytest.approx(2 * 8000.0 / 1e-6)
    assert slow[-1] == pytest.approx(4 * 8000.0 / 1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        AimdConfig(md=0.0)
    with pytest.raises(ValueError):
        AimdConfig(md=1.0)
    with pytest.raises(ValueError):
        AimdConfig(threshold=0.0)
    AimdConfig()
