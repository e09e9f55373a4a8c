"""Centralized ground truth: exact weighted max-min allocation by water filling.

The solver repeatedly finds the link whose residual capacity divided by the
total weight of its still-unfrozen flows is smallest, freezes those flows at
``weight * share``, and subtracts their rates everywhere.  The result is the
unique weighted max-min fair allocation; the simulator is judged against it.

Each freeze round is a few array operations over two layouts built once per
call: the flat route hops from ``model.route_hops`` (``hop_link[h]``,
``hop_flow[h]``; flow ``i`` owns hops ``start[i]:start[i + 1]``) and a
link -> flows CSR index that lists each link's flows in flow order.  A round

- sums the unfrozen weight on every link with ``np.bincount`` over the live
  hops, which adds each link's weights in flow order, starting from zero;
- takes ``max(residual, 0) / weight sum`` on the links that still carry an
  unfrozen flow, and ties every link whose share is within a relative
  ``1e-9`` of the smallest;
- visits the tied links in the string order of their ids, records each one's
  share in ``fair_share`` (also when an earlier tied link already froze all
  its flows) and freezes its still-unfrozen flows in CSR order;
- subtracts the new rates from the residuals with ``np.subtract.at`` over the
  frozen flows' hops in freeze order.  ``subtract.at`` is unbuffered and runs
  in index order, so each residual gets the same float subtractions in the
  same order as a loop over the frozen flows' routes would make: a vector sum
  could round differently and move a later round's ties.

``rates`` and ``bottlenecks`` list flows in freeze order and ``fair_share``
lists links in the order they saturated, so nothing follows string hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import FlowSpec, Topology, route_hops

_REL_TOL = 1e-9


@dataclass(frozen=True)
class AllocationResult:
    """Weighted max-min fair rates, each flow's limiting link, the fair
    share of every saturated link and the weights the rates were filled
    for."""

    rates: dict[str, float]                  # flow id -> bits/s
    bottlenecks: dict[str, str]              # flow id -> link where it froze
    fair_share: dict[str, float]             # saturated link -> bits/s per weight
    weights: dict[str, float]


def _hops_of(flows: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The hop indices of ``flows``, flow after flow, each route in order."""
    first = start[flows]
    count = start[flows + 1] - first
    skip = np.cumsum(count) - count
    return np.arange(count.sum()) + np.repeat(first - skip, count)


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
    hop_link, start = route_hops(topology, flows)
    w: dict[str, float] = {}
    for f in flows:
        wf = weights[f.id] if weights is not None else f.weight_schedule[0][1]
        if not wf > 0:
            raise ValueError(f"flow {f.id!r}: weight must be > 0")
        w[f.id] = float(wf)
    ids = list(w)

    link_ids = [l.id for l in topology.links]
    wts = np.array(list(w.values()))
    hop_flow = np.repeat(np.arange(len(ids)), np.diff(start))
    hop_w = wts[hop_flow]

    # link -> flows CSR in flow order; a route crosses each link once
    by_link = np.argsort(hop_link, kind="stable")
    link_flows = hop_flow[by_link]
    link_start = np.searchsorted(hop_link[by_link], np.arange(len(link_ids) + 1))
    # position of each link id in string order: ties freeze in that order
    rank = np.empty(len(link_ids), dtype=np.intp)
    rank[sorted(range(len(link_ids)), key=link_ids.__getitem__)] = np.arange(
        len(link_ids)
    )

    residual = np.array([l.bandwidth for l in topology.links], dtype=float)
    frozen = np.zeros(len(ids), dtype=bool)
    rate = np.empty(len(ids))
    bottleneck = np.empty(len(ids), dtype=np.intp)
    froze: list[np.ndarray] = []
    fair_share: dict[str, float] = {}
    live = np.arange(len(hop_link))
    left = len(ids)

    while left:
        wsum = np.bincount(
            hop_link[live], weights=hop_w[live], minlength=len(link_ids)
        )
        busy = np.flatnonzero(wsum > 0)
        if not busy.size:
            raise RuntimeError("water filling stalled with unfrozen flows")
        shares = np.maximum(residual[busy], 0.0) / wsum[busy]
        tie = shares <= shares.min() * (1.0 + _REL_TOL)
        tied, tied_shares = busy[tie], shares[tie]
        order = np.argsort(rank[tied])
        first = len(froze)
        for j, share in zip(tied[order].tolist(), tied_shares[order].tolist()):
            fair_share[link_ids[j]] = share
            on = link_flows[link_start[j]:link_start[j + 1]]
            new = on[~frozen[on]]
            if new.size:
                frozen[new] = True
                rate[new] = wts[new] * share
                bottleneck[new] = j
                froze.append(new)
        done = np.concatenate(froze[first:])
        hops = _hops_of(done, start)
        np.subtract.at(residual, hop_link[hops], rate[hop_flow[hops]])
        live = live[~frozen[hop_flow[live]]]
        left -= done.size

    order = np.concatenate(froze) if froze else np.empty(0, dtype=np.intp)
    froze_ids = [ids[i] for i in order.tolist()]
    return AllocationResult(
        rates=dict(zip(froze_ids, rate[order].tolist())),
        bottlenecks=dict(
            zip(froze_ids, [link_ids[j] for j in bottleneck[order].tolist()])
        ),
        fair_share=fair_share,
        weights=w,
    )

