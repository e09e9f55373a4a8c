"""Decentralized rate-control law: target delay, its inverse, and the MIMD update.

The controller maps a flow's rate-per-weight ``s = rate / weight`` to a target
queueing delay through a monotonically decreasing function ``T``, and nudges
the rate multiplicatively so that the observed queueing delay matches the
flow's own target:

    T(s)   = p * (ln(alpha) - ln(s)) / (ln(alpha) - ln(beta)) + k
    U(s,D) = (T_inv(D) / s) ** m

``alpha`` and ``beta`` bound the expected rate-per-weight range, ``p`` scales
the usable delay band above the base delay ``k``, and ``m < 2`` smooths the
multiplicative step.  The public functions accept scalars or numpy arrays
and check them; the update law and its inverse target each have one private
array kernel, which assumes resolved ``alpha``/``beta`` and ``s > 0``.
``update_ratio`` is the engine's entry point, where profilers time it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ControlParams:
    """Controller constants.  Times in seconds, rates in bits/s.

    ``alpha``, ``beta``, ``update_interval`` and ``rate_cap`` may be left
    unset (None); the simulator resolves them per scenario:
    alpha = max link bandwidth / min configured weight, beta = alpha / 1000,
    update interval = each flow's base RTT, rate cap = first-hop bandwidth.
    """

    p: float = 20e-6
    k: float = 3e-6
    m: float = 0.25
    alpha: float | None = None
    beta: float | None = None
    update_interval: float | None = None
    rate_floor: float = 1e6
    rate_cap: float | None = None

    def __post_init__(self) -> None:
        if not self.p > 0:
            raise ValueError("p must be > 0")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        # m >= 2 is deliberately representable: falsification runs sweep it
        if not self.m > 0:
            raise ValueError("m must be > 0")
        if self.alpha is not None and self.beta is not None:
            if not self.alpha > self.beta > 0:
                raise ValueError("need alpha > beta > 0")
        if not self.rate_floor > 0:
            raise ValueError("rate_floor must be > 0")
        if self.rate_cap is not None and not self.rate_cap > self.rate_floor:
            raise ValueError("rate_cap must exceed rate_floor")
        if self.update_interval is not None and not self.update_interval > 0:
            raise ValueError("update_interval must be > 0")

    def _require_range(self) -> tuple[float, float]:
        if self.alpha is None or self.beta is None:
            raise ValueError("alpha/beta not resolved; set them or resolve the scenario")
        return self.alpha, self.beta


def _inverse_target(delay, params: ControlParams):
    a = params.alpha
    return a * (params.beta / a) ** ((delay - params.k) / params.p)


def _update_ratio(s, delay, params: ControlParams, m):
    return (_inverse_target(delay, params) / s) ** m


def _positive(s) -> np.ndarray:
    # one reduce; fmin skips NaN, so a NaN passes and gives a NaN result
    s = np.asarray(s, dtype=float)
    if np.fmin.reduce(s, axis=None, initial=np.inf) <= 0:
        raise ValueError("rate-per-weight must be > 0")
    return s


def target_delay(s, params: ControlParams):
    """Target queueing delay for rate-per-weight ``s``; decreasing in s.

    The paper's forward law.  The engine only needs its inverse, but this
    is the law as the paper states it, and :func:`inverse_target` is
    tested against it.
    """
    alpha, beta = params._require_range()
    s_arr = _positive(s)
    span = math.log(alpha) - math.log(beta)
    out = params.p * (math.log(alpha) - np.log(s_arr)) / span + params.k
    return float(out) if s_arr.ndim == 0 else out


def inverse_target(delay, params: ControlParams):
    """Rate-per-weight whose target delay equals ``delay``.

    Exact inverse of :func:`target_delay`; extrapolates smoothly outside
    [k, k+p], so callers clamp the resulting rates, not the delay.
    """
    params._require_range()
    d_arr = np.asarray(delay, dtype=float)
    out = _inverse_target(d_arr, params)
    return float(out) if d_arr.ndim == 0 else out


def update_ratio(s, delay, params: ControlParams, m=None):
    """Multiplicative rate-update ratio ``(T_inv(D)/s) ** m``.

    Greater than one exactly when the signalled fair share exceeds the
    flow's own rate-per-weight.  Depends only on (s, D): flows observing the
    same delay with equal rate-per-weight move identically.  ``m`` defaults
    to ``params.m``; the per-packet gate passes a per-flow exponent.
    """
    s_arr = _positive(s)
    params._require_range()
    out = _update_ratio(s_arr, np.asarray(delay, dtype=float), params,
                        params.m if m is None else m)
    # s and delay broadcast, so the result's shape decides
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class LemmaReport:
    """Whether the configured constants satisfy the convergence conditions."""

    fairness_ok: bool          # 0 < m < 2
    queue_osc_ok: bool         # p > (dt/2) ln(alpha/beta): converges, may ring
    queue_noosc_ok: bool       # p > dt ln(alpha/beta): settles monotonically
    m_range: list[float]       # a list, as JSON reads it back
    p_osc_threshold: float     # s
    p_noosc_threshold: float   # s


def check_lemma_conditions(params: ControlParams) -> LemmaReport:
    """Evaluate the fairness and queue-stability conditions for ``params``."""
    alpha, beta = params._require_range()
    if params.update_interval is None:
        raise ValueError("update_interval must be set to check queue conditions")
    span = math.log(alpha / beta)
    osc = params.update_interval / 2.0 * span
    noosc = params.update_interval * span
    return LemmaReport(
        fairness_ok=0.0 < params.m < 2.0,
        queue_osc_ok=params.p > osc,
        queue_noosc_ok=params.p > noosc,
        m_range=[0.0, 2.0],
        p_osc_threshold=osc,
        p_noosc_threshold=noosc,
    )
