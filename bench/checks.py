"""Output checks computed apart from the program.

Distances come from this file's own frontier BFS over the CSR arrays, the
containment sets from the formulas in the ``spantree.analysis`` docstring,
the parent walk from the snapshot's level and parent-index tuples, and the
confidence half-widths from the Student-t quantile.  Nothing here calls the
spantree functions whose results it checks.
"""

from __future__ import annotations

import csv
import io
import math
import random

import numpy as np
from scipy import stats


def bfs(indptr: np.ndarray, indices: np.ndarray, sources, blocked=None) -> np.ndarray:
    """Hop distances from ``sources`` (float, ``inf`` where unreachable),
    never entering the ``blocked`` nodes."""
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    if blocked is not None:
        dist[list(blocked)] = -2
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        offsets = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(total)
        nbrs = indices[offsets]
        frontier = np.unique(nbrs[dist[nbrs] == -1])
        dist[frontier] = level
    out = dist.astype(np.float64)
    out[dist < 0] = math.inf
    return out


class Containment:
    """The analytic sets of one placement (adversary ``m``, root ``r``):

    * containment: honest u != r with d(r,m) + d(m,u) - 1 <= d(r,u);
    * strict: d(r,m) + d(m,u) - 1 < d(r,u) over paths avoiding m;
    * baseline lost: d(m,u) < d(r,u); ties: d(m,u) == d(r,u).
    """

    def __init__(self, indptr, indices, root: int, m: int):
        self.dist_root = bfs(indptr, indices, [root])
        self.dist_adv = bfs(indptr, indices, [m])
        dist_root_honest = bfs(indptr, indices, [root], blocked=[m])
        self.d_mr = self.dist_root[m]
        via_adv = self.d_mr + self.dist_adv - 1
        honest = np.ones(len(indptr) - 1, dtype=bool)
        honest[m] = False
        self.honest = honest
        others = honest.copy()
        others[root] = False
        self.containment = set(np.flatnonzero(others & (via_adv <= self.dist_root)).tolist())
        self.strict = set(np.flatnonzero(others & (via_adv < dist_root_honest)).tolist())
        self.baseline = set(np.flatnonzero(
            others & (self.dist_adv < self.dist_root)).tolist())
        self.ties = set(np.flatnonzero(others & (self.dist_adv == self.dist_root)).tolist())


def ill_directed(indptr, indices, root: int, m: int, levels, prnts) -> set[int]:
    """Honest nodes whose parent walk reaches the adversary before the root,
    an orphan or a loop.  Parent index k of node u names the k-th neighbor
    in ascending order, modulo the degree."""
    ill = set()
    for u in range(len(indptr) - 1):
        if u == m:
            continue
        cur, seen = u, set()
        while cur != root and levels[cur] is not None and cur not in seen:
            seen.add(cur)
            deg = indptr[cur + 1] - indptr[cur]
            cur = int(indices[indptr[cur] + prnts[cur] % deg])
            if cur == m:
                ill.add(u)
                break
    return ill


def mean_ci99(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((x - mean) ** 2 for x in values) / (n - 1)
    return mean, float(stats.t.ppf(0.995, n - 1)) * math.sqrt(var / n)


def sampled_path_length(indptr, indices, sample_sources: int, seed: int) -> float:
    """Mean hop distance over connected pairs from the sources
    ``graph.metrics`` samples with the same count and seed."""
    n = len(indptr) - 1
    if sample_sources >= n:
        sources = range(n)
    else:
        sources = sorted(random.Random(seed).sample(range(n), sample_sources))
    total = pairs = 0.0
    for s in sources:
        d = bfs(indptr, indices, [s])
        finite = np.isfinite(d) & (d > 0)
        total += float(d[finite].sum())
        pairs += int(finite.sum())
    return total / pairs if pairs else 0.0


# -- campaign CSV -----------------------------------------------------------

NUMERIC = ("rln_analytic", "rln_simulated", "mean_dist_root", "mean_dist_adv",
           "effective_adv_dist", "d_m_r", "ties_count")
TOL = 2e-6  # the CSV prints six decimals


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(text: str, value: float, tol: float = TOL) -> bool:
    return text != "" and abs(float(text) - value) <= tol


def summary_errors(rows: list[dict[str, str]]) -> list[tuple[str, str]]:
    """(cell g, message) for every MEAN or CI99 row that its cell's run rows
    do not reproduce."""
    errors = []
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["protocol"], row["behavior"], row["g"])
        cells.setdefault(key, []).append(row)
    for key, cell in cells.items():
        runs = [r for r in cell if r["run_index"] not in ("MEAN", "CI99")]
        summary = {r["run_index"]: r for r in cell if r["run_index"] in ("MEAN", "CI99")}
        if set(summary) != {"MEAN", "CI99"} or not runs:
            errors.append((key[2], f"{key}: missing run or summary rows"))
            continue
        for col in NUMERIC:
            vals = [float(r[col]) for r in runs if r[col] != ""]
            if not vals:
                if summary["MEAN"][col] != "":
                    errors.append((key[2], f"{key} MEAN {col}: expected empty"))
                continue
            if not _close(summary["MEAN"][col], sum(vals) / len(vals)):
                errors.append((key[2], f"{key} MEAN {col}: {summary['MEAN'][col]}"))
            if col.startswith("rln_") and len(vals) >= 2:
                half = mean_ci99(vals)[1]
                if not _close(summary["CI99"][col], half, TOL + 1e-4 * half):
                    errors.append((key[2], f"{key} CI99 {col}: {summary['CI99'][col]} "
                                           f"!= {half:.6f}"))
    return errors


def run_row_errors(rows: list[dict[str, str]], sets: Containment, honest_n: int) -> list[str]:
    """Compare one placement's run rows (both protocols, analytic mode)
    with the recomputed sets and distance means."""
    errors = []
    honest = sets.honest
    d_r = float(sets.dist_root[honest].mean())
    d_m = float(sets.dist_adv[honest].mean())
    expected = {
        "d_m_r": sets.d_mr,
        "ties_count": len(sets.ties),
        "mean_dist_root": d_r,
        "mean_dist_adv": d_m,
        "effective_adv_dist": d_m + sets.d_mr - 1.0,
    }
    for row in rows:
        lost = sets.strict if row["protocol"] == "attested" else sets.baseline
        want = dict(expected, rln_analytic=len(lost) / honest_n)
        for col, value in want.items():
            if not _close(row[col], value):
                errors.append(f"{row['protocol']} g={row['g']} run {row['run_index']} "
                              f"{col}: {row[col]} != {value:.6f}")
    return errors
