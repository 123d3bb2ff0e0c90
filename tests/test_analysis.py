import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import spantree
from spantree import (
    AdversaryBehavior,
    AdversaryConfig,
    Deltas,
    Graph,
    RunConfig,
    attack_victims,
    bfs_distances,
    bfs_distances_avoiding,
    containment_sets,
    extract_largest_component,
    generate_erdos_renyi,
    mean_ci99,
    run,
    simulated_lost_set,
)
from spantree.graph import INF


class TestContainmentSets:
    def test_path_with_far_adversary(self):
        # r(0)-x(1)-y(2)-m: the cheat cannot beat honest routes, but the
        # baseline loses y (strictly closer to m than to r)
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        rep = containment_sets(g, 0, [2])
        assert rep.adv_root_distance == 3
        assert rep.containment_set == frozenset()
        assert rep.strict_set == frozenset()
        assert rep.baseline_lost == frozenset({2})
        assert rep.baseline_ties == frozenset()

    def test_adversary_bridging_to_tail(self):
        # r(0)-a(1)-b(2) plus attack edges m-r and m-b
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        rep = containment_sets(g, 0, [0, 2])
        assert rep.adv_root_distance == 1
        assert rep.containment_set == frozenset({2})
        assert rep.strict_set == frozenset({2})
        # without the cheat m offers b level 2, which only ties its honest route
        assert rep.nocheat_containment_set == frozenset({2})
        assert rep.nocheat_strict_set == frozenset()

    def test_adversary_next_to_root_only(self, triangle):
        rep = containment_sets(triangle, 0, [0])
        assert rep.strict_set == frozenset()

    def test_strict_subset_of_containment_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(40):
            g, _ = extract_largest_component(
                generate_erdos_renyi(40, 80, seed=rng.getrandbits(32))
            )
            victims = attack_victims(g, rng.randint(1, 5), rng.getrandbits(32))
            rep = containment_sets(g, rng.randrange(g.n), victims)
            assert rep.strict_set <= rep.containment_set
            assert rep.nocheat_strict_set <= rep.nocheat_containment_set
            assert rep.nocheat_containment_set <= rep.containment_set
            assert rep.nocheat_strict_set <= rep.strict_set
            assert all(u < g.n for u in rep.containment_set)

    def test_growing_budget_never_shrinks_containment(self):
        rng = random.Random(12)
        g, _ = extract_largest_component(generate_erdos_renyi(50, 110, seed=5))
        nodes = list(range(g.n))
        for _ in range(10):
            base = rng.sample(nodes, 4)
            extra = base + rng.sample([u for u in nodes if u not in base], 3)
            root = rng.randrange(g.n)
            rep_small = containment_sets(g, root, base)
            rep_big = containment_sets(g, root, extra)
            assert rep_small.containment_set <= rep_big.containment_set

    def test_unreachable_honest_node_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            containment_sets(g, 0, [0])

    def test_reachable_only_through_adversary_is_lost_not_error(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        rep = containment_sets(g, 0, [0, 2])
        assert {2, 3} <= rep.containment_set

    def test_disturbance_budget_formula(self):
        # r(0)-a(1)-b(2)-c(3) plus attack edges m-a and m-b: the cheat offers
        # b level 2 and c level 3, ties with their honest routes
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        rep = containment_sets(g, 0, [1, 2])
        gap = rep.containment_set - rep.strict_set
        assert gap == frozenset({2, 3})
        # degrees in the overlay: b's attack edge counts
        assert rep.deg_sum == 3 + 1
        assert rep.disturbance_budget == 2 * rep.deg_sum - len(gap)


def _three_pass_reference(g, root, victims, cheat):
    """The containment sets by their definition on the overlay with the
    adversary node attached: BFS from the root, from the adversary, and from
    the root avoiding the adversary."""
    aug, m = g.with_added_node(victims), g.n
    dist_root = bfs_distances(aug, [root])
    dist_adv = bfs_distances(aug, [m])
    dist_root_honest = bfs_distances_avoiding(aug, root, [m])
    if any(dist_root[u] == INF for u in range(g.n)):
        raise ValueError("root cannot reach every honest node")
    if dist_root[m] == INF:
        raise ValueError("adversary is disconnected from the overlay")
    d_mr = int(dist_root[m])
    s_b, s_l, base, ties = set(), set(), set(), set()
    for u in range(g.n):
        if u == root:
            continue
        via_adv = d_mr + dist_adv[u] - (1 if cheat else 0)
        if via_adv <= dist_root[u]:
            s_b.add(u)
        if via_adv < dist_root_honest[u]:
            s_l.add(u)
        if dist_adv[u] < dist_root[u]:
            base.add(u)
        elif dist_adv[u] == dist_root[u]:
            ties.add(u)
    return dict(
        containment=s_b, strict=s_l, base=base, ties=ties, d_mr=d_mr,
        deg_sum=sum(aug.degree(u) for u in s_b - s_l),
        dist_root=dist_root, dist_adv=dist_adv,
    )


class TestContainmentReference:
    def test_two_passes_match_three_pass_definition(self):
        rng = random.Random(2024)
        compared = disconnected = rejected = 0
        for _ in range(600):
            n = rng.randint(2, 40)
            # sparse enough that many honest graphs are disconnected
            m_edges = rng.randint(n // 2, min(2 * n, n * (n - 1) // 2))
            g = generate_erdos_renyi(n, m_edges, rng.getrandbits(32))
            victims = rng.sample(range(n), rng.randint(1, min(n, 6)))
            root = rng.randrange(n)
            try:
                ref = _three_pass_reference(g, root, victims, cheat=True)
            except ValueError:
                rejected += 1
                with pytest.raises(ValueError):
                    containment_sets(g, root, victims)
                continue
            ref_nc = _three_pass_reference(g, root, victims, cheat=False)
            rep = containment_sets(g, root, victims)
            compared += 1
            if not np.isfinite(bfs_distances(g, [root])).all():
                disconnected += 1
            assert rep.containment_set == ref["containment"]
            assert rep.strict_set == ref["strict"]
            assert rep.nocheat_containment_set == ref_nc["containment"]
            assert rep.nocheat_strict_set == ref_nc["strict"]
            assert rep.baseline_lost == ref["base"]
            assert rep.baseline_ties == ref["ties"]
            assert rep.adv_root_distance == ref["d_mr"]
            assert rep.deg_sum == ref["deg_sum"]
            assert np.array_equal(rep.dist_root, ref["dist_root"][:n])
            assert np.array_equal(rep.dist_adv, ref["dist_adv"][:n])
            # the simulator's diameter bound still sees the adversary node
            assert max(rep.dist_root.max(), rep.adv_root_distance) == ref["dist_root"].max()
        assert compared >= 200 and disconnected >= 20 and rejected >= 20


class TestMeanCi99:
    def test_two_samples(self):
        mean, _ = mean_ci99([0, 1])
        assert mean == pytest.approx(0.5)

    def test_constant_samples(self):
        mean, half = mean_ci99([2.0] * 10)
        assert mean == 2.0
        assert half == 0.0

    def test_textbook_value(self):
        # s = sqrt(2.5), t(0.995, df=4) = 4.604095, hw = t * s / sqrt(5)
        mean, half = mean_ci99([1, 2, 3, 4, 5])
        assert mean == pytest.approx(3.0)
        expected = 4.604095 * math.sqrt(2.5) / math.sqrt(5)
        assert half == pytest.approx(expected, abs=1e-4)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            mean_ci99([1.0])

    def test_equals_student_t_quantile(self):
        from scipy import stats

        rng = random.Random(3)
        for n in [*range(2, 60), 200, 1000, 4999]:
            vals = [rng.random() for _ in range(n)]
            mean = sum(vals) / n
            var = sum((x - mean) ** 2 for x in vals) / (n - 1)
            expected = float(stats.t.ppf(0.995, n - 1)) * math.sqrt(var / n)
            assert mean_ci99(vals) == (mean, expected)

    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats alone took about half of the package's import time
        src = os.path.dirname(os.path.dirname(spantree.__file__))
        code = f"import sys; sys.path.insert(0, {src!r}); import spantree; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestSimulatedLostSet:
    def test_adversary_free_run_loses_nothing(self, path4):
        out = run(RunConfig(graph=path4, root=0, max_rounds=12))
        assert simulated_lost_set(out, 6) == frozenset()

    def test_cheating_adversary_takes_the_containment_set(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        rep = containment_sets(g, 0, [0, 2])
        out = run(RunConfig(
            graph=g.with_added_node([0, 2]), root=0,
            adversary=AdversaryConfig(AdversaryBehavior.CHEAT_MIN_LEVEL),
            adversary_node=3, deltas=Deltas(8, 1, 1), max_rounds=24,
        ))
        assert simulated_lost_set(out, 16) == rep.containment_set

    def test_short_trace_rejected(self, path3):
        out = run(RunConfig(graph=path3, root=0, max_rounds=4))
        with pytest.raises(ValueError):
            simulated_lost_set(out, 4)

    def test_disturb_matches_strict_set_on_small_instances(self):
        rng = random.Random(31)
        for _ in range(5):
            g, _ = extract_largest_component(
                generate_erdos_renyi(50, 100, seed=rng.getrandbits(32))
            )
            g_atk = rng.randint(2, 6)
            victims = attack_victims(g, g_atk, rng.getrandbits(32))
            root = rng.randrange(g.n)
            rep = containment_sets(g, root, victims)
            aug, m = g.with_added_node(victims), g.n
            honest = frozenset(range(g.n))
            out = run(RunConfig(
                graph=aug, root=root,
                adversary=AdversaryConfig(AdversaryBehavior.DISTURB),
                adversary_node=m, deltas=Deltas((g_atk + 2) * 2, 1, 1),
                max_rounds=400, stability_window=40,
                stability_candidates=honest - rep.strict_set,
            ))
            last = out.trace[-1].round
            lost = simulated_lost_set(out, max(1, last - 40))
            assert lost == rep.strict_set
