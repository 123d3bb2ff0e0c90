"""Overlay topology: ingestion, synthetic generators, BFS, and structural
metrics (characteristic path length, clustering coefficient, diameter).

Graphs are undirected, simple, and stored in CSR form (numpy ``indptr`` /
``indices`` with neighbor lists sorted ascending).  The sorted order defines
the deterministic neighbor numbering 0..deg-1 used by the tree protocols'
parent-preference indices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

INF = float("inf")


class GraphFormatError(ValueError):
    """Raised for malformed or empty edge-list input."""


class Graph:
    """Immutable undirected simple graph over dense node indices 0..n-1."""

    __slots__ = ("n", "indptr", "indices", "__dict__")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from an edge iterable; self-loops and duplicates are dropped."""
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        return cls._from_edge_array(n, arr)

    @classmethod
    def _from_edge_array(cls, n: int, arr: np.ndarray) -> "Graph":
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("edge endpoint out of range")
        if arr.size:
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            keep = lo != hi
            lo, hi = lo[keep], hi[keep]
            packed = np.unique(lo * n + hi)
            lo, hi = packed // n, packed % n
            src = np.concatenate([lo, hi])
            dst = np.concatenate([hi, lo])
        else:
            src = dst = np.empty(0, dtype=np.int64)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        counts = np.bincount(src, minlength=n)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return cls(n, indptr, dst.astype(np.int64))

    def with_added_node(self, neighbors: Sequence[int]) -> "Graph":
        """Return a new graph with one extra node attached to ``neighbors``."""
        m = self.n
        u, v = self.edge_arrays()
        extra = np.asarray(sorted(set(int(x) for x in neighbors)), dtype=np.int64)
        if extra.size and (extra.min() < 0 or extra.max() >= m):
            raise ValueError("neighbor index out of range")
        new_u = np.concatenate([u, np.full(extra.size, m, dtype=np.int64)])
        new_v = np.concatenate([v, extra])
        return Graph._from_edge_array(m + 1, np.column_stack([new_u, new_v]))

    # -- accessors --------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    @cached_property
    def neighbor_lists(self) -> list[list[int]]:
        return [self.neighbors(u).tolist() for u in range(self.n)]

    @cached_property
    def adjacency_sets(self) -> list[frozenset[int]]:
        return [frozenset(lst) for lst in self.neighbor_lists]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as (u, v) arrays with u < v."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        mask = src < self.indices
        return src[mask], self.indices[mask]

    @cached_property
    def _csr(self) -> csr_matrix:
        data = np.ones(len(self.indices), dtype=np.int8)
        return csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):
        return hash((self.n, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class LoadResult:
    graph: Graph
    dropped_edges: int
    total_nodes_seen: int
    kept_largest_component: bool


@dataclass(frozen=True)
class GraphMetrics:
    node_count: int
    edge_count: int
    characteristic_path_length: float
    clustering_coefficient: float
    diameter: int
    diameter_is_exact: bool


def load_edge_list(stream: IO[str], largest_component: bool = True) -> LoadResult:
    """Parse a whitespace-separated "u v" edge list.

    Lines starting with '#' are ignored.  Nodes are re-indexed densely in
    first-appearance order; duplicate edges and self-loops are dropped and
    counted.  With ``largest_component`` (the default) the graph is reduced
    to its largest connected component, re-indexed stably.
    """
    index: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        tokens = text.split()
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected two endpoints, got {text!r}")
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint in {text!r}") from None
        if a < 0 or b < 0:
            raise GraphFormatError(f"line {lineno}: negative endpoint in {text!r}")
        for label in (a, b):
            if label not in index:
                index[label] = len(index)
        pairs.append((index[a], index[b]))
    if not pairs:
        raise GraphFormatError("empty edge list")
    n = len(index)
    g = Graph.from_edges(n, pairs)
    dropped = len(pairs) - g.edge_count
    kept_lcc = False
    if largest_component:
        reduced, kept = extract_largest_component(g)
        kept_lcc = reduced.n != g.n
        g = reduced
    return LoadResult(g, dropped, n, kept_lcc)


def extract_largest_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """Return (subgraph, kept-node indices) for the largest component.

    Kept nodes are re-indexed preserving their relative order, so results are
    deterministic.  Ties between equally large components go to the lowest
    component label.
    """
    ncomp, labels = connected_components(g._csr, directed=False)
    if ncomp <= 1:
        return g, np.arange(g.n)
    sizes = np.bincount(labels)
    best = int(np.argmax(sizes))
    kept = np.flatnonzero(labels == best)
    remap = -np.ones(g.n, dtype=np.int64)
    remap[kept] = np.arange(kept.size)
    u, v = g.edge_arrays()
    mask = (remap[u] >= 0) & (remap[v] >= 0)
    sub = Graph.from_edges(kept.size, np.column_stack([remap[u[mask]], remap[v[mask]]]))
    return sub, kept


def generate_erdos_renyi(n: int, m: int, seed: int) -> Graph:
    """Uniform G(n, M): exactly ``m`` distinct edges, deterministic per seed."""
    if n < 1:
        raise ValueError("need at least one node")
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"{m} edges exceed the maximum {max_edges} for n={n}")
    picks = random.Random(seed).sample(range(max_edges), m)
    ids = np.asarray(picks, dtype=np.int64)
    # row offsets of the upper-triangular pair enumeration
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * n - rows * (rows + 1) // 2
    i = np.searchsorted(offsets, ids, side="right") - 1
    j = ids - offsets[i] + i + 1
    return Graph.from_edges(n, np.column_stack([i, j]))


def randomize_preserving_degrees(g: Graph, seed: int, swap_factor: float = 10.0) -> Graph:
    """Degree-preserving randomization via double-edge swaps.

    Attempts ``swap_factor * edge_count`` swaps; attempts that would create a
    self-loop or a duplicate edge are skipped, so the result is always a
    simple graph with exactly the input degree sequence.
    """
    if swap_factor <= 0:
        raise ValueError("swap_factor must be positive")
    u_arr, v_arr = g.edge_arrays()
    us = u_arr.tolist()
    vs = v_arr.tolist()
    m = len(us)
    if m < 2:
        return g
    n = g.n
    present = set(a * n + b for a, b in zip(us, vs))

    def has(a: int, b: int) -> bool:
        if a > b:
            a, b = b, a
        return a * n + b in present

    rng = random.Random(seed)
    for _ in range(int(round(swap_factor * m))):
        e1 = rng.randrange(m)
        e2 = rng.randrange(m)
        if e1 == e2:
            continue
        a, b = us[e1], vs[e1]
        c, d = us[e2], vs[e2]
        if rng.random() < 0.5:
            c, d = d, c
        # propose {a,b},{c,d} -> {a,d},{c,b}
        if a == d or c == b or has(a, d) or has(c, b):
            continue
        present.discard(min(a, b) * n + max(a, b))
        present.discard(min(c, d) * n + max(c, d))
        present.add(min(a, d) * n + max(a, d))
        present.add(min(c, b) * n + max(c, b))
        us[e1], vs[e1] = a, d
        us[e2], vs[e2] = c, b
    return Graph.from_edges(n, np.column_stack([us, vs]))


def bfs_distances(g: Graph, sources: Iterable[int]) -> np.ndarray:
    """Multi-source hop distances; unreachable nodes get ``inf``."""
    src = sorted(set(int(s) for s in sources))
    if not src:
        raise ValueError("need at least one source")
    if src[0] < 0 or src[-1] >= g.n:
        raise ValueError("source index out of range")
    return dijkstra(g._csr, directed=True, unweighted=True, indices=src, min_only=True)


def bfs_distances_avoiding(g: Graph, source: int, forbidden: Iterable[int]) -> np.ndarray:
    """Hop distances from ``source`` over paths avoiding ``forbidden`` nodes."""
    bad = set(int(x) for x in forbidden)
    if source in bad:
        raise ValueError("source may not be forbidden")
    if not bad:
        return bfs_distances(g, [source])
    if not (0 <= source < g.n):
        raise ValueError("source index out of range")
    allowed = np.ones(g.n, dtype=bool)
    allowed[list(bad)] = False
    src_ids = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    keep = allowed[src_ids] & allowed[g.indices]
    sub_indices = g.indices[keep]
    counts = np.bincount(src_ids[keep], minlength=g.n)
    sub_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    sub = csr_matrix(
        (np.ones(len(sub_indices), dtype=np.int8), sub_indices, sub_indptr),
        shape=(g.n, g.n),
    )
    return dijkstra(sub, directed=True, unweighted=True, indices=[source], min_only=True)


def triangle_counts(g: Graph, block: int = 2048) -> np.ndarray:
    """Per-node triangle counts via block-wise sparse products."""
    a = g._csr.astype(np.float64)
    tri = np.zeros(g.n, dtype=np.float64)
    for start in range(0, g.n, block):
        stop = min(start + block, g.n)
        rows = a[start:stop]
        paths = rows @ a  # 2-step walk counts
        tri[start:stop] = np.asarray(paths.multiply(rows).sum(axis=1)).ravel() / 2.0
    return tri


def metrics(
    g: Graph, sample_sources: int | None = None, seed: int | None = None
) -> GraphMetrics:
    """Structural metrics of a graph.

    The characteristic path length is the mean hop distance over connected
    node pairs: exact via all-source BFS when ``sample_sources`` is None,
    otherwise an unbiased estimate from that many uniformly sampled sources
    (and the reported diameter becomes a lower bound).  The clustering
    coefficient is the mean local coefficient over all nodes, with nodes of
    degree < 2 contributing zero.
    """
    if sample_sources is None or sample_sources >= g.n:
        sources = list(range(g.n))
        exact = True
    else:
        sources = sorted(random.Random(seed).sample(range(g.n), sample_sources))
        exact = False
    total = 0.0
    pairs = 0
    diam = 0.0
    for start in range(0, len(sources), 64):
        chunk = sources[start : start + 64]
        dist = dijkstra(g._csr, directed=True, unweighted=True, indices=chunk)
        if dist.ndim == 1:
            dist = dist[None, :]
        finite = np.isfinite(dist) & (dist > 0)
        if finite.any():
            total += float(dist[finite].sum())
            pairs += int(finite.sum())
            diam = max(diam, float(dist[finite].max()))
    cpl = total / pairs if pairs else 0.0

    deg = g.degrees.astype(np.float64)
    tri = triangle_counts(g)
    denom = deg * (deg - 1)
    local = np.zeros(g.n, dtype=np.float64)
    mask = deg >= 2
    local[mask] = 2.0 * tri[mask] / denom[mask]
    cc = float(local.mean()) if g.n else 0.0

    return GraphMetrics(
        node_count=g.n,
        edge_count=g.edge_count,
        characteristic_path_length=cpl,
        clustering_coefficient=cc,
        diameter=int(diam),
        diameter_is_exact=exact,
    )


def exact_diameter(g: Graph) -> int:
    """All-source exact diameter (use on small graphs only)."""
    worst = 0.0
    for start in range(0, g.n, 128):
        chunk = list(range(start, min(start + 128, g.n)))
        dist = dijkstra(g._csr, directed=True, unweighted=True, indices=chunk)
        finite = dist[np.isfinite(dist)]
        if finite.size:
            worst = max(worst, float(finite.max()))
    return int(worst)
