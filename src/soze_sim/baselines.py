"""Delay-threshold AIMD rate control, the contrast baseline.

Window semantics on a fluid rate: the congestion window is a real-valued
count of packets of ``sim.packet_size`` bits (``SimConfig.packet_size``),
``rate = cwnd * packet_size / base_rtt``.  Once per RTT the controller adds
one packet when the observed queueing delay sits below the threshold and
multiplicatively backs off when it does not.  Weights are ignored: this
baseline only serves the oscillation and utilization comparison on
equal-weight scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AimdConfig:
    threshold: float = 20e-6     # s; queueing delay that triggers backoff
    md: float = 0.20             # multiplicative decrease fraction

    def __post_init__(self) -> None:
        if not self.threshold > 0:
            raise ValueError("threshold must be > 0")
        if not 0.0 < self.md < 1.0:
            raise ValueError("md must be in (0, 1)")


def aimd_window(cwnd, signal, config: AimdConfig):
    """The window after one AIMD step, per flow.

    Below the delay threshold the window grows by one packet; at or above
    it the window shrinks by the configured fraction, never below one
    packet.  The caller gates the step once per RTT and derives the rate
    from the window.
    """
    grown = np.where(signal < config.threshold, cwnd + 1.0, cwnd * (1.0 - config.md))
    return np.maximum(grown, 1.0)
