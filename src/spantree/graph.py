"""Overlay topology: ingestion, synthetic generators, BFS, and structural
metrics (characteristic path length, clustering coefficient, diameter).

Graphs are undirected, simple, and stored in CSR form (numpy ``indptr`` /
``indices`` with neighbor lists sorted ascending).  The sorted order defines
the deterministic neighbor numbering 0..deg-1 used by the tree protocols'
parent-preference indices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np

INF = float("inf")
_MARK_BYTES = 1 << 22  # triangle_counts' mark buffer, n bytes per row: 4 MB
# 64-bit words gathered per bit-parallel BFS level, and paths a -> b -> c
# gathered per triangle block: 2 MB an array, larger ran slower
_GATHER_WORDS = 1 << 18


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
        return cls._from_edge_array(n, arr.reshape(-1, 2))

    @classmethod
    def _from_edge_array(cls, n: int, arr: np.ndarray) -> "Graph":
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("edge endpoint out of range")
        u, v = arr[arr[:, 0] != arr[:, 1]].T  # self-loops dropped
        # one sort of the packed (row, column) keys of both directions is the CSR
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return cls(n, indptr, keys % n)

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
class GraphMetrics:
    node_count: int
    edge_count: int
    characteristic_path_length: float
    clustering_coefficient: float
    diameter: int
    diameter_is_exact: bool


def load_edge_list(stream: IO[str], largest_component: bool = True) -> Graph:
    """Parse a whitespace-separated "u v" edge list.

    Lines starting with '#' are ignored.  Nodes are re-indexed densely in
    first-appearance order; duplicate edges and self-loops are dropped.  With ``largest_component`` (the default) the graph is reduced
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
    g = Graph.from_edges(len(index), pairs)
    if largest_component:
        g, _ = extract_largest_component(g)
    return g


def extract_largest_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """Return (subgraph, kept-node indices) for the largest component.

    Kept nodes are re-indexed preserving their relative order, so results are
    deterministic.  Ties between equally large components go to the one
    holding the lowest node.

    Components are labelled by hooking and shortcutting (Shiloach and Vishkin,
    J. Algorithms 1982) with FastSV's rule (Zhang, Azad and Hu, SIAM PP 2020):
    each pass takes, per non-empty CSR row, the least grandparent label among
    the node's neighbours, hooks the node and its parent onto it and halves
    every path.  Labels only fall, so once no grandparent changes each node's
    grandparent is its root: the lowest index of its component.
    """
    f = np.arange(g.n)
    rows = np.flatnonzero(g.degrees)  # reduceat would read an empty row as one entry
    starts = g.indptr[rows]
    labels = f[f]
    while True:
        least = np.minimum.reduceat(labels[g.indices], starts)
        np.minimum.at(f, f[rows], least)
        f[rows] = np.minimum(f[rows], least)
        f = np.minimum(f, f[f])
        grand = f[f]
        if np.array_equal(grand, labels):
            break
        labels = grand
    # labels are component minima, so the first largest holds the lowest node
    kept = np.flatnonzero(labels == np.argmax(np.bincount(labels, minlength=1)))
    if kept.size == g.n:
        return g, kept
    remap = -np.ones(g.n, dtype=np.int64)
    remap[kept] = np.arange(kept.size)
    u, v = g.edge_arrays()
    mask = (remap[u] >= 0) & (remap[v] >= 0)
    sub = Graph.from_edges(kept.size, np.column_stack([remap[u[mask]], remap[v[mask]]]))
    return sub, kept


def _sample_range(rng: random.Random, population: int, k: int) -> np.ndarray:
    """``rng.sample(range(population), k)`` as an int64 array, draw for draw.

    In CPython's set branch each pick is one 32-bit word shifted down to
    ``bits``, redrawn while ``>= population`` or already picked; for
    ``bits <= 32`` the words are drawn in bulk and the first ``k`` distinct
    in-range values are kept in draw order.  Other cases call ``rng.sample``.
    """
    bits = population.bit_length()
    setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    if population <= setsize or bits > 32:
        return np.asarray(rng.sample(range(population), k), dtype=np.int64)
    # expected draws for k distinct in-range picks, 1% spare; top up if short
    count = int(2**bits * math.log(population / (population - k)) * 1.01) + 64
    words = np.empty(0, dtype="<u4")
    while True:
        drawn = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        words = np.concatenate([words, np.frombuffer(drawn, "<u4") >> (32 - bits)])
        vals = words[words < population].astype(np.int64)
        # first occurrences in draw order: sort (value, position) packed in one int64
        shift = max(vals.size - 1, 1).bit_length()
        packed = np.sort((vals << shift) | np.arange(vals.size))
        first = np.sort(packed[np.diff(packed >> shift, prepend=-1) != 0] & ((1 << shift) - 1))
        if first.size >= k:
            return vals[first[:k]]


def generate_erdos_renyi(n: int, m: int, seed: int) -> Graph:
    """Uniform G(n, M): exactly ``m`` distinct edges, deterministic per seed.

    The edges are exactly the upper-triangular pair ids that
    ``random.Random(seed).sample(range(n*(n-1)//2), m)`` picks; ``_sample_range``
    mirrors CPython's set branch to draw them in bulk, without a Python set.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if m < 0:
        raise ValueError(f"edge count must be non-negative, got {m}")
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"{m} edges exceed the maximum {max_edges} for n={n}")
    # sorted, so that the row lookup below walks ``offsets`` in order
    ids = np.sort(_sample_range(random.Random(seed), max_edges, m))
    # row offsets of the upper-triangular pair enumeration
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * n - rows * (rows + 1) // 2
    i = np.searchsorted(offsets, ids, side="right") - 1
    j = ids - offsets[i] + i + 1
    return Graph.from_edges(n, np.column_stack([i, j]))


def randomize_preserving_degrees(g: Graph, seed: int) -> Graph:
    """Degree-preserving randomization via double-edge swaps.

    Attempts ``10 * edge_count`` swaps; attempts that would create a
    self-loop or a duplicate edge are skipped, so the result is always a
    simple graph with exactly the input degree sequence.
    """
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
    for _ in range(10 * m):
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


def _node_ids(g: Graph, nodes: Iterable[int], what: str) -> np.ndarray:
    """Sorted distinct node indices; ``ValueError`` for any outside 0..n-1."""
    ids = np.unique(np.fromiter((int(x) for x in nodes), dtype=np.int64))
    if ids.size and (ids[0] < 0 or ids[-1] >= g.n):
        raise ValueError(f"{what} index out of range")
    return ids


def _rows(g: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The neighbours of ``nodes``, row after row, and each row's offset."""
    cnt = g.degrees[nodes]
    ends = np.cumsum(cnt)
    offsets = ends - cnt
    pos = np.repeat(g.indptr[nodes] - offsets, cnt) + np.arange(ends[-1] if ends.size else 0)
    return g.indices[pos], offsets


def _bfs(g: Graph, sources: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    dist = np.full(g.n, INF)
    dist[blocked] = -1  # neither direction enters a node that is not at inf
    dist[sources] = 0
    deg = g.degrees
    frontier = sources
    unvisited_arcs = deg.sum() - deg[sources].sum() - deg[blocked].sum()
    level = 0
    while frontier.size and unvisited_arcs:
        level += 1
        if deg[frontier].sum() <= unvisited_arcs:  # push from the frontier
            nbr, _ = _rows(g, frontier)
            dist[nbr[dist[nbr] == INF]] = level
            frontier = np.flatnonzero(dist == level)
        else:  # pull into the unvisited nodes
            todo = np.flatnonzero(dist == INF)
            todo = todo[deg[todo] > 0]
            nbr, offsets = _rows(g, todo)
            frontier = todo[np.logical_or.reduceat(dist[nbr] == level - 1, offsets)]
            dist[frontier] = level
        unvisited_arcs -= deg[frontier].sum()
    dist[blocked] = INF
    return dist


def bfs_distances(g: Graph, sources: Iterable[int]) -> np.ndarray:
    """Multi-source hop distances; unreachable nodes get ``inf``.

    Direction-optimizing BFS (Beamer, Asanovic and Patterson, SC 2012): each
    level pushes along the frontier's arcs if they number no more than the
    unvisited nodes' arcs, and otherwise pulls, marking each unvisited node
    with a neighbour on the frontier.  About one pass over the arcs on
    small-world graphs.
    """
    src = _node_ids(g, sources, "source")
    if not src.size:
        raise ValueError("need at least one source")
    return _bfs(g, src, src[:0])  # nothing blocked


def bfs_distances_avoiding(g: Graph, source: int, forbidden: Iterable[int]) -> np.ndarray:
    """Hop distances from ``source`` over paths avoiding ``forbidden`` nodes."""
    bad = _node_ids(g, forbidden, "forbidden")
    src = _node_ids(g, [source], "source")
    if src[0] in bad:
        raise ValueError("source may not be forbidden")
    return _bfs(g, src, bad)


def triangle_counts(g: Graph) -> np.ndarray:
    """Per-node triangle counts by the forward algorithm (Schank and Wagner,
    WEA 2005; Latapy, TCS 2008).

    Edges point from the lower node id to the higher one, the upper triangle
    ``U``, so a triangle a < b < c is found once: from the path a -> b -> c
    and the edge (a, c).  Rows a of ``U`` are taken a block at a time: the
    block marks its rows' neighbours in a boolean buffer of n bytes per row,
    gathers every path a -> b -> c, tests the mark at (a, c) and credits each
    hit to a, b and c.  A block ends where its rows would pass
    ``_MARK_BYTES`` of marks or ``_GATHER_WORDS`` paths, and holds at least
    one row, and the hits are credited whenever more than ``_GATHER_WORDS``
    nodes are held, so dense graphs are counted in bounded memory.  The cost is
    sum_b indeg_U(b) x outdeg_U(b) mark tests, against
    sum_b deg(b) x outdeg_U(b) multiply-adds for the sparse product
    ``(A @ U) * A``.
    """
    n = g.n
    row, col = g.edge_arrays()  # the upper triangle, row by row
    uptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=uptr[1:])
    udeg = np.diff(uptr)
    paths = np.zeros(n + 1, dtype=np.int64)  # paths a -> b -> c before row a
    np.cumsum(np.bincount(row, weights=udeg[col], minlength=n).astype(np.int64), out=paths[1:])
    # the last row a block that starts at each row may take within its paths
    last = np.searchsorted(paths, paths[:-1] + _GATHER_WORDS, side="right") - 1
    rows = max(1, min(n, _MARK_BYTES // max(n, 1)))
    mark = np.zeros(rows * n, dtype=bool)
    tri = np.zeros(n)
    hits, held = [], 0  # nodes to credit, not yet added to ``tri``
    lo = 0
    while lo < n:
        hi = max(lo + 1, min(lo + rows, last[lo]))
        block = slice(uptr[lo], uptr[hi])
        a, b = row[block], col[block]
        key = (a - lo) * n + b
        mark[key] = True
        cnt = udeg[b]
        ends = np.cumsum(cnt)
        if ends.size and ends[-1]:
            # the paths a -> b -> c, one row U[b] after another, as in ``_rows``
            c = col[np.repeat(uptr[b] - (ends - cnt), cnt) + np.arange(ends[-1])]
            hit = np.flatnonzero(mark[np.repeat(key - b, cnt) + c])
            first = np.searchsorted(ends, hit, side="right")  # the edge (a, b) of each hit
            hits += [a[first], b[first], c[hit]]
            held += 3 * hit.size
        mark[key] = False
        lo = hi
        if held > _GATHER_WORDS or (lo == n and held):
            tri += np.bincount(np.concatenate(hits), minlength=n)
            hits, held = [], 0
    return tri


def _path_totals(g: Graph, sources: Iterable[int]) -> tuple[int, int, int]:
    """(sum of hop distances, number of pairs, largest distance) over the
    pairs (s, v) with s in ``sources`` and v != s reachable from s.

    A bit-parallel BFS: every node holds one bit per source of the batch,
    packed in uint64 words, and one level ORs the frontier words of each
    node's neighbours.  A batch costs eccentricity x arcs x words, so the
    batch size follows from the fixed ``_GATHER_WORDS`` budget; graphs whose
    diameter runs into the hundreds (long rings and paths) are slower than
    per-source BFS.
    """
    src = np.asarray(list(sources), dtype=np.int64)
    nonempty = np.flatnonzero(g.degrees)
    row_starts = g.indptr[nonempty]
    batch = 64 * max(1, _GATHER_WORDS // max(len(g.indices), 1))
    total = pairs = diameter = 0
    for lo in range(0, src.size, batch):
        bits = np.arange(min(batch, src.size - lo))
        seen = np.zeros((g.n, (bits.size + 63) // 64), dtype=np.uint64)
        one_bit = np.uint64(1) << (bits % 64).astype(np.uint64)
        np.bitwise_or.at(seen, (src[lo : lo + bits.size], bits // 64), one_bit)
        frontier = seen.copy()
        level = 0
        while frontier.any():
            level += 1
            reached = np.zeros_like(seen)
            reached[nonempty] = np.bitwise_or.reduceat(frontier[g.indices], row_starts, axis=0)
            frontier = reached & ~seen
            seen |= frontier
            count = int(np.bitwise_count(frontier).sum())
            total += level * count
            pairs += count
        diameter = max(diameter, level - 1)  # the last level reached nothing
    return total, pairs, diameter


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

    Path statistics come from ``_path_totals``, 64 sources per machine word:
    about eccentricity x arcs x ceil(sources / 64) word operations, which
    beats per-source BFS unless the diameter runs into the hundreds.
    Triangles come from ``triangle_counts``, the forward algorithm (Schank
    and Wagner, WEA 2005): sum_b indeg_U(b) x outdeg_U(b) mark tests, ``U``
    the edges oriented from the lower node id to the higher.
    """
    if sample_sources is not None and sample_sources < 1:
        raise ValueError(f"sample_sources must be at least 1, got {sample_sources}")
    if sample_sources is None or sample_sources >= g.n:
        sources = range(g.n)
        exact = True
    else:
        sources = random.Random(seed).sample(range(g.n), sample_sources)
        exact = False
    total, pairs, diam = _path_totals(g, sources)
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
        diameter=diam,
        diameter_is_exact=exact,
    )


def exact_diameter(g: Graph) -> int:
    """All-source exact diameter by bit-parallel BFS (see ``_path_totals``:
    cheap on small-world graphs, slow when the diameter runs into the
    hundreds)."""
    return _path_totals(g, range(g.n))[2]
