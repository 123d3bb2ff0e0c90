"""Analytic containment oracles and campaign statistics.

Given an augmented overlay (honest graph plus the collective adversary node
``m``) and the honest root ``r``, three BFS passes determine everything the
theory predicts about a run:

* the attested protocol's worst-case lost set against a level-minimizing
  adversary: nodes whose adversary route (shortened by the one-level cheat)
  is at most as long as their shortest route to the root;
* the smaller set a disturbance-causing adversary can keep unstable: nodes
  whose cheated adversary route is strictly shorter than their best route to
  the root over honest nodes only;
* the baseline protocol's lost set: nodes strictly closer to the adversary
  than to the root, with equal-distance nodes recorded separately since their
  outcome depends only on tie-breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .graph import INF, Graph, bfs_distances, bfs_distances_avoiding
from .simcore import RunOutcome, detect_stable, ill_directed_set


@dataclass(frozen=True)
class ContainmentReport:
    """Analytic per-instance prediction from the three BFS passes."""

    containment_set: frozenset[int]
    strict_set: frozenset[int]
    baseline_lost: frozenset[int]
    baseline_ties: frozenset[int]
    adv_root_distance: int
    deg_sum: int
    dist_root: np.ndarray
    dist_adv: np.ndarray

    @property
    def disturbance_budget(self) -> int:
        return 2 * self.deg_sum - len(self.containment_set - self.strict_set)


def containment_sets(
    g: Graph, root: int, adversary: int, cheat: bool = True
) -> ContainmentReport:
    """Compute the analytic lost sets for one placement.

    With a single collective adversary the closest-malicious-node distance
    collapses to d(r, m).  ``cheat=False`` drops the one-level shortcut,
    modeling an adversary that follows the protocol faithfully.
    """
    if root == adversary:
        raise ValueError("the root must be honest")
    dist_root = bfs_distances(g, [root])
    dist_adv = bfs_distances(g, [adversary])
    dist_root_honest = bfs_distances_avoiding(g, root, [adversary])
    honest = [u for u in range(g.n) if u != adversary]
    if any(dist_root[u] == INF for u in honest):
        raise ValueError("root cannot reach every honest node; no spanning tree exists")
    if dist_root[adversary] == INF:
        raise ValueError("adversary is disconnected from the overlay")
    adv_root_distance = int(dist_root[adversary])
    offset = 1 if cheat else 0

    s_b = []
    s_l = []
    base = []
    ties = []
    for u in honest:
        if u == root:
            continue
        via_adv = adv_root_distance + dist_adv[u] - offset
        if via_adv <= dist_root[u]:
            s_b.append(u)
        if via_adv < dist_root_honest[u]:
            s_l.append(u)
        if dist_adv[u] < dist_root[u]:
            base.append(u)
        elif dist_adv[u] == dist_root[u]:
            ties.append(u)

    s_b_set = frozenset(s_b)
    s_l_set = frozenset(s_l)
    deg_sum = int(sum(g.degree(u) for u in s_b_set - s_l_set))
    return ContainmentReport(
        containment_set=s_b_set,
        strict_set=s_l_set,
        baseline_lost=frozenset(base),
        baseline_ties=frozenset(ties),
        adv_root_distance=adv_root_distance,
        deg_sum=deg_sum,
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
