import hashlib
import io
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from spantree import graph
from spantree.graph import (
    Graph,
    GraphFormatError,
    GraphMetrics,
    bfs_distances,
    bfs_distances_avoiding,
    exact_diameter,
    extract_largest_component,
    generate_erdos_renyi,
    load_edge_list,
    metrics,
    randomize_preserving_degrees,
    triangle_counts,
)
from spantree.campaign import generate_degree_skewed, graph_from_spec, report_table1
from spantree.graph import _path_totals, _sample_range

INF = float("inf")


def random_graph(rng: random.Random, n: int, m: int) -> Graph:
    return generate_erdos_renyi(n, m, rng.getrandbits(32))


class TestLoadEdgeList:
    def test_simple_path(self):
        g = load_edge_list(io.StringIO("0 1\n1 2\n"))
        assert g.n == 3
        assert g.edge_count == 2

    def test_duplicates_and_self_loops_dropped_with_count(self):
        g = load_edge_list(io.StringIO("0 1\n1 0\n1 1\n"))
        assert g.n == 2
        assert g.edge_count == 1

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n5 7\n# another\n7 9\n"
        g = load_edge_list(io.StringIO(text))
        assert g.n == 3
        assert g.edge_count == 2

    def test_first_appearance_reindexing(self):
        g = load_edge_list(io.StringIO("10 3\n3 99\n"), largest_component=False)
        # 10 -> 0, 3 -> 1, 99 -> 2
        assert sorted(g.neighbors(1).tolist()) == [0, 2]

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_edge_list(io.StringIO("0 1\n1 x\n"))
        with pytest.raises(GraphFormatError, match="line 1"):
            load_edge_list(io.StringIO("0 1 2\n"))

    def test_empty_input_rejected(self):
        with pytest.raises(GraphFormatError):
            load_edge_list(io.StringIO("# only a comment\n"))

    def test_negative_endpoint_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2: negative endpoint in '3 -1'"):
            load_edge_list(io.StringIO("0 1\n3 -1\n"))

    def test_largest_component_flag(self):
        text = "0 1\n1 2\n5 6\n"
        assert load_edge_list(io.StringIO(text)).n == 3
        assert load_edge_list(io.StringIO(text), largest_component=False).n == 5


class TestErdosRenyi:
    def test_three_nodes_three_edges_is_triangle(self, triangle):
        assert generate_erdos_renyi(3, 3, seed=123) == triangle

    def test_exact_edge_count_and_determinism(self):
        a = generate_erdos_renyi(100, 300, seed=9)
        b = generate_erdos_renyi(100, 300, seed=9)
        assert a.edge_count == 300
        assert a == b
        assert generate_erdos_renyi(100, 300, seed=10) != a

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            generate_erdos_renyi(4, 7, seed=1)

    def test_no_nodes_rejected(self):
        with pytest.raises(ValueError, match="need at least one node"):
            generate_erdos_renyi(0, 0, seed=1)

    def test_negative_edge_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            generate_erdos_renyi(100, -1, seed=1)

    @pytest.mark.parametrize("population,k", [
        (2**24 + 1, 2000),  # set branch, about half the draws rejected
        (2**24 + 1, 0),
        (2**24 + 1, 1),
        (2**24 + 1, 6),
        (2**32 - 1, 3000),  # 32-bit draws, no shift
        (2**32 - 5, 6),
        (16406, 5461),  # set branch at its densest: k just under population/3
        (65558, 5462),
        (1000, 400),  # pool branch
        (85, 6),  # pool branch: population == setsize
        (2**32, 50),  # 33-bit draws
        (2**40, 1000),
    ])
    def test_bulk_sample_equals_random_sample(self, population, k):
        for seed in (0, 1, 12345):
            expected = random.Random(seed).sample(range(population), k)
            got = _sample_range(random.Random(seed), population, k)
            assert got.dtype == np.int64
            assert got.tolist() == expected

    def test_evaluation_graph_pinned(self):
        """Criterion 6's graph, hashed before the one-sort CSR build and the
        bulk sampler replaced np.unique, lexsort and the Python-level sample."""
        g = graph_from_spec("er(63392,824096)", 1)
        assert (g.n, g.indptr.dtype, g.indices.dtype) == (63392, np.int64, np.int64)
        assert hashlib.sha256(g.indptr.tobytes()).hexdigest() == (
            "e7a795a3bd1f01be78cfd2b9f5fc91601b4ca2a933ab4acfa537e922ecf68ffa")
        assert hashlib.sha256(g.indices.tobytes()).hexdigest() == (
            "5fe95fef24d0c3ff1db94901f55a652db78ff879f64b663a38ee4661d54ecc82")

    def test_symmetry_invariant(self):
        rng = random.Random(1)
        for _ in range(10):
            g = random_graph(rng, 40, 100)
            for u in range(g.n):
                for v in g.neighbors(u):
                    assert u in g.neighbors(v)

    def test_adjacency_sorted(self):
        g = generate_erdos_renyi(50, 200, seed=3)
        for u in range(g.n):
            nbrs = g.neighbors(u)
            assert list(nbrs) == sorted(nbrs)


def reference_csr(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """The CSR of ``Graph.from_edges`` spelled out: a set of undirected pairs,
    then each node's sorted neighbour list."""
    pairs = {(min(a, b), max(a, b)) for a, b in edges if a != b}
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    indptr = np.array([0] + list(itertools.accumulate(len(x) for x in nbrs)), dtype=np.int64)
    indices = np.array([v for x in nbrs for v in sorted(x)], dtype=np.int64)
    return indptr, indices


class TestFromEdges:
    def test_matches_reference(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 40)
            # self-loops, duplicates and both orientations of the same pair
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
            edges += [(b, a) for a, b in edges[: len(edges) // 3]]
            g = Graph.from_edges(n, edges)
            indptr, indices = reference_csr(n, edges)
            assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
            assert np.array_equal(g.indptr, indptr)
            assert np.array_equal(g.indices, indices)

    def test_empty(self):
        g = Graph.from_edges(4, [])
        assert g.indptr.tolist() == [0, 0, 0, 0, 0]
        assert g.indices.size == 0 and g.indices.dtype == np.int64

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])


class TestDegreePreservingRandomization:
    def test_triangle_fixed_point(self, triangle):
        assert randomize_preserving_degrees(triangle, seed=5) == triangle

    def test_degree_multiset_preserved(self):
        rng = random.Random(2)
        for _ in range(8):
            g = random_graph(rng, 30, 70)
            shuffled = randomize_preserving_degrees(g, seed=rng.getrandbits(32))
            assert sorted(shuffled.degrees.tolist()) == sorted(g.degrees.tolist())

    def test_four_cycle_stays_a_four_cycle(self):
        # enumeration oracle: the simple graphs on 4 nodes with all degrees 2
        # are exactly the three labeled 4-cycles
        cycles = []
        nodes = range(4)
        for edges in itertools.combinations(list(itertools.combinations(nodes, 2)), 4):
            deg = [0] * 4
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            if deg == [2, 2, 2, 2]:
                cycles.append(Graph.from_edges(4, list(edges)))
        assert len(cycles) == 3
        square = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        out = randomize_preserving_degrees(square, seed=77)
        assert out in cycles

    def test_actually_rewires(self):
        g = generate_erdos_renyi(60, 150, seed=4)
        assert randomize_preserving_degrees(g, seed=5) != g


def bfs_cases():
    """n = 1, edgeless graphs, isolated nodes, several components, and source
    lists that are unsorted or repeat a node."""
    rng = random.Random(8)
    yield Graph.from_edges(1, []), [0]
    yield Graph.from_edges(6, []), [4, 1, 4]
    yield Graph.from_edges(5, [(1, 2), (3, 4)]), [2]
    for _ in range(1200):
        n = rng.randint(1, 120)
        m = rng.randint(0, min(n * (n - 1) // 2, rng.choice([n // 2, n, 4 * n])))
        sources = [rng.randrange(n) for _ in range(rng.randint(1, 4))]
        yield random_graph(rng, n, m), sources


def count_pulls(monkeypatch) -> list[int]:
    """Record each pull level, seen as one ``np.logical_or.reduceat`` call."""
    calls = []

    class SpyNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

    class SpyLogicalOr:
        def reduceat(self, *args):
            calls.append(1)
            return np.logical_or.reduceat(*args)

    spy = SpyNumpy()
    spy.logical_or = SpyLogicalOr()
    monkeypatch.setattr(graph, "np", spy)
    return calls


class TestBfs:
    def test_path_single_source(self, path3):
        assert bfs_distances(path3, [0]).tolist() == [0, 1, 2]

    def test_triangle_multi_source(self, triangle):
        assert bfs_distances(triangle, [0, 1]).tolist() == [0, 0, 1]

    def test_unreachable_is_inf(self):
        g = Graph.from_edges(2, [])
        assert bfs_distances(g, [0]).tolist() == [0, INF]

    def test_invalid_source(self, path3):
        with pytest.raises(ValueError):
            bfs_distances(path3, [7])
        with pytest.raises(ValueError):
            bfs_distances(path3, [-1])
        with pytest.raises(ValueError):
            bfs_distances(path3, [])

    def test_matches_dijkstra(self):
        for g, sources in bfs_cases():
            want = dijkstra(g._csr, unweighted=True, indices=sorted(set(sources)), min_only=True)
            got = bfs_distances(g, sources)
            assert got.dtype == np.float64
            assert np.array_equal(got, want), (g, sources)

    def test_dense_graph_pulls(self, monkeypatch):
        # level 1 holds most nodes, so its arcs outnumber the unvisited ones'
        g = generate_erdos_renyi(60, 1500, seed=2)
        want = dijkstra(g._csr, unweighted=True, indices=[0], min_only=True)
        pulls = count_pulls(monkeypatch)
        assert np.array_equal(bfs_distances(g, [0]), want)
        assert pulls

    def test_long_cycle_only_pushes(self, monkeypatch):
        # every frontier is two nodes with four arcs; an odd cycle ends on two
        # unvisited nodes with four arcs, so no level has fewer to pull
        n = 301
        g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        pulls = count_pulls(monkeypatch)
        assert bfs_distances(g, [0]).tolist() == [min(i, n - i) for i in range(n)]
        assert not pulls

    def test_edge_step_property(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(rng, 40, 80)
            d = bfs_distances(g, [0])
            for u in range(g.n):
                for v in g.neighbors(u):
                    if math.isfinite(d[u]) and math.isfinite(d[v]):
                        assert abs(d[u] - d[v]) <= 1


def reference_avoiding(g: Graph, source: int, forbidden) -> np.ndarray:
    """Dijkstra on the CSR with every arc at a forbidden node removed."""
    allowed = np.ones(g.n, dtype=bool)
    allowed[list(forbidden)] = False
    src_ids = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    keep = allowed[src_ids] & allowed[g.indices]
    counts = np.bincount(src_ids[keep], minlength=g.n)
    sub = csr_matrix(
        (np.ones(int(keep.sum())), g.indices[keep], np.concatenate([[0], np.cumsum(counts)])),
        shape=(g.n, g.n),
    )
    return dijkstra(sub, unweighted=True, indices=[source], min_only=True)


class TestBfsAvoiding:
    def test_blocked_path(self, path4):
        # r(0)-a(1)-m(2)-b(3) avoiding m: b unreachable
        d = bfs_distances_avoiding(path4, 0, [2])
        assert d[1] == 1
        assert d[3] == INF

    def test_empty_forbidden_matches_plain_bfs(self):
        rng = random.Random(4)
        for _ in range(5):
            g = random_graph(rng, 30, 70)
            assert bfs_distances_avoiding(g, 0, []).tolist() == bfs_distances(g, [0]).tolist()

    def test_cycle_detour(self):
        # cycle r(0)-a(1)-m(2)-b(3)-r: without m both a and b sit one hop away
        cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        d = bfs_distances_avoiding(cycle, 0, [2])
        assert d[1] == 1
        assert d[3] == 1

    def test_forbidden_source_rejected(self, path3):
        with pytest.raises(ValueError):
            bfs_distances_avoiding(path3, 1, [1])

    @pytest.mark.parametrize("bad", [-1, 4, 9])
    def test_forbidden_out_of_range_rejected(self, path4, bad):
        # -1 must not wrap around to node 3
        with pytest.raises(ValueError):
            bfs_distances_avoiding(path4, 0, [bad])

    def test_invalid_source(self, path3):
        with pytest.raises(ValueError):
            bfs_distances_avoiding(path3, 3, [1])

    def test_matches_sub_csr_dijkstra(self):
        rng = random.Random(9)
        for _ in range(1000):
            n = rng.randint(1, 100)
            g = random_graph(rng, n, rng.randint(0, min(n * (n - 1) // 2, 3 * n)))
            source = rng.randrange(n)
            forbidden = [u for u in rng.sample(range(n), rng.randint(0, n - 1)) if u != source]
            got = bfs_distances_avoiding(g, source, forbidden)
            assert np.array_equal(got, reference_avoiding(g, source, forbidden))


class TestMetrics:
    def test_triangle(self, triangle):
        m = metrics(triangle)
        assert m.characteristic_path_length == 1.0
        assert m.clustering_coefficient == 1.0
        assert m.diameter == 1
        assert m.diameter_is_exact

    def test_star_four_nodes(self):
        # pairs: 3 center-leaf at distance 1, 3 leaf-leaf at distance 2
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        m = metrics(star)
        assert m.clustering_coefficient == 0.0
        assert m.characteristic_path_length == pytest.approx(1.5)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_clique(self, n):
        g = Graph.from_edges(n, list(itertools.combinations(range(n), 2)))
        m = metrics(g)
        assert m.characteristic_path_length == 1.0
        assert m.clustering_coefficient == 1.0

    def test_diameter_bounds_cpl(self):
        rng = random.Random(6)
        for _ in range(6):
            g, _ = extract_largest_component(random_graph(rng, 40, 70))
            if g.edge_count == 0:
                continue
            m = metrics(g)
            assert m.diameter >= m.characteristic_path_length >= 1.0
            assert 0.0 <= m.clustering_coefficient <= 1.0
            assert m.diameter == exact_diameter(g)

    @pytest.mark.parametrize("sources", [0, -1])
    def test_sample_sources_below_one_rejected(self, sources):
        with pytest.raises(ValueError, match="sample_sources"):
            metrics(generate_erdos_renyi(50, 100, seed=1), sample_sources=sources)

    def test_sampled_flags_lower_bound(self):
        g = generate_erdos_renyi(200, 500, seed=8)
        m = metrics(g, sample_sources=20, seed=1)
        assert not m.diameter_is_exact
        full = metrics(g)
        assert m.diameter <= full.diameter
        assert m.characteristic_path_length == pytest.approx(
            full.characteristic_path_length, rel=0.2
        )


def reference_path_totals(g: Graph, sources) -> tuple[int, int, int]:
    """``_path_totals`` from one scipy Dijkstra row per source."""
    csr = g._csr
    total = pairs = diameter = 0
    for s in sources:
        d = dijkstra(csr, unweighted=True, indices=s)
        d = d[np.isfinite(d) & (d > 0)].astype(np.int64)
        total += int(d.sum())
        pairs += d.size
        diameter = max([diameter, *d.tolist()])
    return total, pairs, diameter


def path_totals_cases():
    """Graphs with isolated nodes and several components, an edgeless graph,
    n = 1, and source lists that are samples, all nodes, or over 64 nodes."""
    rng = random.Random(21)
    yield Graph.from_edges(1, []), [0]
    yield Graph.from_edges(5, []), [0, 3, 4]
    yield Graph.from_edges(4, [(1, 2)]), [0, 1, 2, 3]
    for _ in range(40):
        n = rng.randint(2, 200)
        g = random_graph(rng, n, rng.randint(0, min(n * (n - 1) // 2, 2 * n)))
        yield g, range(n)
        yield g, rng.sample(range(n), rng.randint(1, n))


class TestPathTotals:
    def test_matches_dijkstra(self):
        for g, sources in path_totals_cases():
            assert _path_totals(g, sources) == reference_path_totals(g, sources)

    @pytest.mark.parametrize("words", [1, 2])
    def test_several_batches(self, monkeypatch, words):
        # a budget of ``words`` words per arc: batches of 64 * words sources
        for g, sources in path_totals_cases():
            monkeypatch.setattr(graph, "_GATHER_WORDS", words * max(len(g.indices), 1))
            assert _path_totals(g, sources) == reference_path_totals(g, sources)

    def test_diameter_is_the_maximum_over_batches(self, monkeypatch):
        # the path 0-...-9 lies in the first batch of 64 sources, later batches
        # see only the star around node 64
        edges = [(i, i + 1) for i in range(9)] + [(64, v) for v in range(65, 150)]
        g = Graph.from_edges(150, edges)
        monkeypatch.setattr(graph, "_GATHER_WORDS", 1)
        totals = _path_totals(g, range(150))
        assert totals == reference_path_totals(g, range(150))
        assert totals[2] == exact_diameter(g) == 9


def reference_triangle_counts(g: Graph) -> np.ndarray:
    """The row sums of ``(A @ U) * A``, ``U`` the upper triangle of the
    adjacency matrix ``A``, 2048 rows at a time: the sparse product that the
    forward kernel replaced.  Entry (y, w) counts the common neighbours
    x < w of an adjacent pair y, w, so a triangle is counted once in each of
    its rows."""
    a = g._csr
    row, col = g.edge_arrays()
    u = csr_matrix((np.ones(col.size), (row, col)), shape=a.shape)
    tri = np.zeros(g.n, dtype=np.float64)
    for start in range(0, g.n, 2048):
        rows = a[start : start + 2048]
        counts = (rows @ u).multiply(rows).sum(axis=1)
        tri[start : start + rows.shape[0]] = np.asarray(counts).ravel()
    return tri


def brute_force_triangles(g: Graph) -> list[int]:
    adj = g.adjacency_sets
    return [
        sum(1 for a, b in itertools.combinations(sorted(adj[u]), 2) if b in adj[a])
        for u in range(g.n)
    ]


def permuted(g: Graph, rng: random.Random, extra: int) -> Graph:
    """``g`` with its nodes relabelled at random among ``extra`` more,
    isolated ones, so hubs sit anywhere in the id order."""
    labels = rng.sample(range(g.n + extra), g.n)
    u, v = g.edge_arrays()
    lookup = np.asarray(labels, dtype=np.int64)
    return Graph.from_edges(g.n + extra, np.column_stack([lookup[u], lookup[v]]))


@pytest.fixture(scope="module")
def triangle_cases() -> list[tuple[Graph, np.ndarray]]:
    """1,200 graphs with their reference counts: n = 0 and n = 1, edgeless
    graphs, uniform graphs from sparse to complete, and degree-skewed graphs
    with hubs anywhere in the id order and isolated nodes."""
    rng = random.Random(12)
    graphs = [Graph.from_edges(0, []), Graph.from_edges(1, [])]
    graphs += [Graph.from_edges(n, []) for n in (2, 3, 17)]
    for _ in range(600):
        n = rng.randint(1, 45)
        graphs.append(random_graph(rng, n, rng.randint(0, n * (n - 1) // 2)))
    while len(graphs) < 1200:
        skewed = generate_degree_skewed(rng.randint(2, 60), rng.randint(1, 5), rng.getrandbits(32))
        graphs.append(permuted(skewed, rng, rng.randint(0, 10)))
    return [(g, reference_triangle_counts(g)) for g in graphs]


def odd_non_divisor(n: int) -> int:
    rows = 3
    while n and n % rows == 0:
        rows += 2
    return rows


class TestTriangleCounts:
    @pytest.mark.parametrize("block", [1, 3, 2048])
    def test_matches_brute_force(self, monkeypatch, block):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(1, 40)
            g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            monkeypatch.setattr(graph, "_MARK_BYTES", block * n)  # ``block`` rows of marks
            tri = triangle_counts(g)
            assert tri.dtype == np.float64
            assert tri.tolist() == brute_force_triangles(g)

    @pytest.mark.parametrize("rows", ["one-row", "odd", "one-block"])
    def test_matches_sparse_product(self, monkeypatch, triangle_cases, rows):
        for g, want in triangle_cases:
            block = {"one-row": 1, "odd": odd_non_divisor(g.n), "one-block": max(g.n, 1)}[rows]
            monkeypatch.setattr(graph, "_MARK_BYTES", block * max(g.n, 1))
            got = triangle_counts(g)
            assert got.dtype == np.float64
            assert np.array_equal(got, want), g

    @pytest.mark.parametrize("paths", [1, 97, 5000])
    def test_path_budget(self, monkeypatch, triangle_cases, paths):
        # blocks end by their paths a -> b -> c before their marks fill
        monkeypatch.setattr(graph, "_GATHER_WORDS", paths)
        complete = Graph.from_edges(40, list(itertools.combinations(range(40), 2)))
        for g in (complete, generate_erdos_renyi(300, 20000, seed=4)):
            assert np.array_equal(triangle_counts(g), reference_triangle_counts(g))
        for g, want in triangle_cases[::6]:
            assert np.array_equal(triangle_counts(g), want), g

    def test_dense_graph_memory_is_bounded(self):
        g = Graph.from_edges(300, list(itertools.combinations(range(300), 2)))
        tracemalloc.start()
        try:
            tri = triangle_counts(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tri.tolist() == [299 * 298 / 2] * 300
        # 4.5 million paths and triangles; all at once they took 210 MiB
        assert peak < 128 * graph._GATHER_WORDS

    def test_reference_matches_brute_force(self, triangle_cases):
        for g, want in triangle_cases[::10]:
            assert want.tolist() == brute_force_triangles(g)

    def test_clustering_coefficient_from_brute_force(self, triangle_cases):
        for g, _ in triangle_cases[::20]:
            tri = np.asarray(brute_force_triangles(g), dtype=np.float64)
            deg = g.degrees.astype(np.float64)
            local = np.zeros(g.n)
            mask = deg >= 2
            local[mask] = 2.0 * tri[mask] / (deg[mask] * (deg[mask] - 1))
            want = float(np.mean(local)) if g.n else 0.0
            assert metrics(g).clustering_coefficient == want


class TestEvaluationGraphMetrics:
    """Criterion 6's values, recorded with scipy's Dijkstra and the full
    A @ A; the bit-parallel BFS and the forward triangle kernel reproduce
    them exactly."""

    def test_triangle_count_pinned(self):
        assert triangle_counts(graph_from_spec("er(63392,824096)", 1)).sum() == 9183

    def test_report_table1_pinned(self):
        assert report_table1("er(63392,824096)", 1, 256) == GraphMetrics(
            63392, 824096, 3.7463797354908426, 0.00042571067373392167, 5, False)


class TestLargestComponent:
    def test_extraction(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        sub, kept = extract_largest_component(g)
        assert sub.n == 3
        assert kept.tolist() == [0, 1, 2]

    def test_tie_goes_to_component_with_lowest_node(self):
        sub, kept = extract_largest_component(Graph.from_edges(5, [(1, 2), (3, 4)]))
        assert kept.tolist() == [1, 2]
        assert sub == Graph.from_edges(2, [(0, 1)])

    def test_connected_graph_unchanged(self, triangle):
        sub, kept = extract_largest_component(triangle)
        assert sub == triangle
        assert kept.tolist() == [0, 1, 2]

    def test_sparse_matrix_not_kept(self):
        # the graph holds no sparse copy of itself once the component search is done
        g = generate_erdos_renyi(300, 320, seed=4)
        extract_largest_component(g)
        triangle_counts(g)
        assert "_csr" not in g.__dict__


class TestWithAddedNode:
    def test_appends_last_index(self, triangle):
        aug = triangle.with_added_node([0, 2])
        assert aug.n == 4
        assert sorted(aug.neighbors(3).tolist()) == [0, 2]
        assert 3 in aug.neighbors(0)
        assert 3 not in aug.neighbors(1)

    def test_out_of_range_neighbor(self, triangle):
        with pytest.raises(ValueError):
            triangle.with_added_node([5])
