"""Centralized ground truth: exact weighted max-min allocation by water filling.

The solver repeatedly finds the link whose residual capacity divided by the
total weight of its still-unfrozen flows is smallest, freezes those flows at
``weight * share``, and subtracts their rates everywhere.  The result is the
unique weighted max-min fair allocation; the simulator is judged against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import FlowSpec, Topology

_REL_TOL = 1e-9


@dataclass(frozen=True)
class AllocationResult:
    """Weighted max-min fair rates plus each flow's limiting link."""

    rates: dict[str, float]                  # flow id -> bits/s
    bottlenecks: dict[str, str]              # flow id -> link where it froze
    fair_share: dict[str, float]             # saturated link -> bits/s per weight
    weights: dict[str, float]
    routes: dict[str, tuple[str, ...]]

    def as_dict(self) -> dict:
        return {
            "rates": dict(self.rates),
            "bottlenecks": dict(self.bottlenecks),
            "fair_share": dict(self.fair_share),
            "weights": dict(self.weights),
        }


def water_fill(
    topology: Topology,
    flows: Sequence[FlowSpec],
    weights: Mapping[str, float] | None = None,
) -> AllocationResult:
    """Compute the weighted max-min fair allocation by progressive filling.

    ``weights`` overrides the flows' schedule weights (callers pass the
    weights in force during the epoch of interest).  Links tied at the
    minimum share freeze together; the allocation is independent of flow
    ordering and of how ties are grouped.
    """
    w: dict[str, float] = {}
    for f in flows:
        if not f.route:
            raise ValueError(f"flow {f.id!r}: empty route")
        wf = weights[f.id] if weights is not None else f.weight_schedule[0][1]
        if not wf > 0:
            raise ValueError(f"flow {f.id!r}: weight must be > 0")
        w[f.id] = float(wf)

    residual = {l.id: l.bandwidth for l in topology.links}
    on_link: dict[str, list[str]] = {l.id: [] for l in topology.links}
    for f in flows:
        for lid in f.route:
            if lid not in residual:
                raise ValueError(f"flow {f.id!r}: unknown link {lid!r}")
            on_link[lid].append(f.id)

    unfrozen = {f.id for f in flows}
    routes = {f.id: tuple(f.route) for f in flows}
    rates: dict[str, float] = {}
    bottleneck: dict[str, str] = {}
    fair_share: dict[str, float] = {}
    saturated: set[str] = set()

    while unfrozen:
        shares: dict[str, float] = {}
        for lid, fids in on_link.items():
            if lid in saturated:
                continue
            live = [fid for fid in fids if fid in unfrozen]
            if not live:
                continue
            shares[lid] = max(residual[lid], 0.0) / sum(w[fid] for fid in live)
        if not shares:
            raise RuntimeError("water filling stalled with unfrozen flows")
        lowest = min(shares.values())
        tied = sorted(
            lid for lid, s in shares.items() if s <= lowest * (1.0 + _REL_TOL)
        )
        # a list in freeze order: the residual sums below must not depend
        # on string hashing
        froze: list[str] = []
        for lid in tied:
            share = shares[lid]
            fair_share[lid] = share
            saturated.add(lid)
            for fid in on_link[lid]:
                if fid not in rates:
                    froze.append(fid)
                    rates[fid] = w[fid] * share
                    bottleneck[fid] = lid
        for fid in froze:
            unfrozen.discard(fid)
            for lid in routes[fid]:
                residual[lid] -= rates[fid]

    return AllocationResult(
        rates=rates,
        bottlenecks=bottleneck,
        fair_share=fair_share,
        weights=w,
        routes=routes,
    )


def verify_goal_equivalence(
    rates: Sequence[float],
    weights: Sequence[float],
    bandwidth: float,
    eps: float = 1e-9,
) -> bool:
    """Check the two-condition form of the single-link weighted goal.

    True iff the rates saturate the link (|sum - B| <= eps*B) and all
    rate-per-weight values agree (spread <= eps * mean).  Both together hold
    exactly when each rate equals weight / total_weight * B.
    """
    if len(rates) == 0:
        raise ValueError("empty flow set")
    if len(rates) != len(weights):
        raise ValueError("rates and weights must align")
    if abs(sum(rates) - bandwidth) > eps * bandwidth:
        return False
    s = [r / w for r, w in zip(rates, weights)]
    mean = sum(s) / len(s)
    return max(s) - min(s) <= eps * mean


def bottleneck_of(
    flow: FlowSpec, allocation: AllocationResult, topology: Topology
) -> str:
    """The link that limits ``flow`` in ``allocation``.

    Asserts the structure that makes the maxQD signal work before returning:
    the flow's rate-per-weight is maximal (ties allowed) among flows crossing
    its bottleneck, and on every other saturated link of its route some flow
    reaches an at-least-equal rate-per-weight.
    """
    if flow.id not in allocation.bottlenecks:
        raise ValueError(f"flow {flow.id!r} not present in allocation")
    lid = allocation.bottlenecks[flow.id]
    if lid not in {l.id for l in topology.links}:
        raise ValueError(f"bottleneck {lid!r} not in topology")
    s_of = {
        fid: allocation.rates[fid] / allocation.weights[fid]
        for fid in allocation.rates
    }
    on_link: dict[str, list[str]] = {}
    for fid, route in allocation.routes.items():
        for rl in route:
            on_link.setdefault(rl, []).append(fid)
    own = s_of[flow.id]
    tol = 1.0 + 1e-6
    peak = max(s_of[fid] for fid in on_link[lid])
    if own * tol < peak:
        raise AssertionError(
            f"flow {flow.id!r}: rate-per-weight {own:.6g} below peak "
            f"{peak:.6g} on its bottleneck {lid!r}"
        )
    for other in flow.route:
        if other == lid or other not in allocation.fair_share:
            continue
        peak = max(s_of[fid] for fid in on_link[other])
        if peak * tol < own:
            raise AssertionError(
                f"flow {flow.id!r}: strictly largest rate-per-weight on "
                f"saturated non-bottleneck link {other!r}"
            )
    return lid


def fairness_error(
    sim_rates: Mapping[str, float], oracle_rates: Mapping[str, float]
) -> float:
    """Relative L-infinity distance: max over flows of |sim - oracle| / oracle."""
    if set(sim_rates) != set(oracle_rates):
        raise ValueError("flow sets differ between simulation and oracle")
    worst = 0.0
    for fid, ref in oracle_rates.items():
        if ref <= 0:
            raise ValueError(f"oracle rate for {fid!r} must be > 0")
        worst = max(worst, abs(sim_rates[fid] - ref) / ref)
    return worst
