"""Analytic containment oracles and campaign statistics.

All colluding malicious nodes act as one adversary ``m`` attached to a
victim set ``V`` of honest nodes.  Two BFS passes over the honest graph, from
the root ``r`` and from ``V``, give every distance in the overlay with ``m``:
``d(m, u) = 1 + d_H(V, u)`` and ``d(r, u) = min(d_H(r, u), d(r, m) + d(m, u))``.
They determine, for an adversary that cheats one level and for one that
follows the protocol:

* the attested protocol's worst-case lost set against a level-minimizing
  adversary: nodes whose adversary route is at most as long as their
  shortest route to the root;
* the smaller set a disturbance-causing adversary can keep unstable: nodes
  whose adversary route is strictly shorter than their best route to the
  root over honest nodes only;

and the baseline protocol's lost set: nodes strictly closer to the adversary
than to the root, with equal-distance nodes recorded separately since their
outcome depends only on tie-breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats

from .graph import Graph, bfs_distances
from .simcore import RunOutcome, detect_stable, ill_directed_set


@dataclass(frozen=True)
class ContainmentReport:
    """Analytic per-instance prediction from the two BFS passes; the
    ``nocheat_`` sets are those of an adversary without the one-level cheat.
    The distance arrays cover the honest nodes only."""

    containment_set: frozenset[int]
    strict_set: frozenset[int]
    nocheat_containment_set: frozenset[int]
    nocheat_strict_set: frozenset[int]
    baseline_lost: frozenset[int]
    baseline_ties: frozenset[int]
    adv_root_distance: int
    deg_sum: int
    dist_root: np.ndarray
    dist_adv: np.ndarray

    @property
    def disturbance_budget(self) -> int:
        return 2 * self.deg_sum - len(self.containment_set - self.strict_set)


def _members(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def containment_sets(g: Graph, root: int, victims: Sequence[int]) -> ContainmentReport:
    """Compute the analytic lost sets for one placement: the adversary is
    attached to ``victims`` of the honest graph ``g``.

    With a single collective adversary the closest-malicious-node distance
    collapses to d(r, m).
    """
    dist_root_honest = bfs_distances(g, [root])
    dist_adv = 1 + bfs_distances(g, victims)
    adv_root_distance = dist_adv[root]
    via_adv = adv_root_distance + dist_adv  # r -> m -> u, without the cheat
    dist_root = np.minimum(dist_root_honest, via_adv)
    if not np.isfinite(dist_root).all():
        raise ValueError("root cannot reach every honest node; no spanning tree exists")

    others = np.ones(g.n, dtype=bool)
    others[root] = False
    s_b = others & (via_adv - 1 <= dist_root)
    s_l = others & (via_adv - 1 < dist_root_honest)
    # the adversary's edge adds one to each victim's degree
    degrees = g.degrees.copy()
    degrees[list(victims)] += 1
    return ContainmentReport(
        containment_set=_members(s_b),
        strict_set=_members(s_l),
        nocheat_containment_set=_members(others & (via_adv <= dist_root)),
        nocheat_strict_set=_members(others & (via_adv < dist_root_honest)),
        baseline_lost=_members(others & (dist_adv < dist_root)),
        baseline_ties=_members(others & (dist_adv == dist_root)),
        adv_root_distance=int(adv_root_distance),
        deg_sum=int(degrees[s_b & ~s_l].sum()),
        dist_root=dist_root,
        dist_adv=dist_adv,
    )


def mean_ci99(samples) -> tuple[float, float]:
    """Sample mean and Student-t 99% confidence half-width."""
    vals = [float(x) for x in samples]
    if len(vals) < 2:
        raise ValueError("need at least two samples")
    n = len(vals)
    mean = sum(vals) / n
    var = sum((x - mean) ** 2 for x in vals) / (n - 1)
    half = float(stats.t.ppf(0.995, n - 1)) * math.sqrt(var / n)
    return mean, half


def simulated_lost_set(outcome: RunOutcome, window_start_round: int) -> frozenset[int]:
    """Measured lost set: honest nodes that changed level or pid anywhere in
    the window, or whose final parent chain runs through the adversary."""
    window = [s for s in outcome.trace if s.round >= window_start_round]
    if len(window) < 2:
        raise ValueError("trace too short for the requested window")
    honest = outcome.honest
    lost = {u for u in honest if not detect_stable(window, (u,))}
    cfg = outcome.cfg
    ill = ill_directed_set(cfg.graph, cfg.root, outcome.final.malicious, window[-1])
    return frozenset(lost | ill)
