import math
import random

import pytest

from spantree import (
    AdversaryBehavior,
    AdversaryConfig,
    Deltas,
    Graph,
    RunConfig,
    containment_sets,
    extract_largest_component,
    generate_erdos_renyi,
    mean_ci99,
    place_attack_edges,
    run,
    simulated_lost_set,
)


class TestContainmentSets:
    def test_path_with_far_adversary(self):
        # r(0)-x(1)-y(2)-m(3): the cheat cannot beat honest routes, but the
        # baseline loses y (strictly closer to m than to r)
        g = Graph.from_edges(3, [(0, 1), (1, 2)]).with_added_node([2])
        rep = containment_sets(g, 0, 3)
        assert rep.adv_root_distance == 3
        assert rep.containment_set == frozenset()
        assert rep.strict_set == frozenset()
        assert rep.baseline_lost == frozenset({2})
        assert rep.baseline_ties == frozenset()

    def test_adversary_bridging_to_tail(self):
        # r(0)-a(1)-b(2) plus attack edges m-r and m-b
        g = Graph.from_edges(3, [(0, 1), (1, 2)]).with_added_node([0, 2])
        rep = containment_sets(g, 0, 3)
        assert rep.adv_root_distance == 1
        assert rep.containment_set == frozenset({2})
        assert rep.strict_set == frozenset({2})

    def test_adversary_next_to_root_only(self, triangle):
        aug = triangle.with_added_node([0])
        rep = containment_sets(aug, 0, 3)
        assert rep.strict_set == frozenset()

    def test_strict_subset_of_containment_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(40):
            g, _ = extract_largest_component(
                generate_erdos_renyi(40, 80, seed=rng.getrandbits(32))
            )
            aug, m = place_attack_edges(g, rng.randint(1, 5), rng.getrandbits(32))
            rep = containment_sets(aug, rng.randrange(g.n), m)
            assert rep.strict_set <= rep.containment_set
            assert all(u < g.n for u in rep.containment_set)

    def test_growing_budget_never_shrinks_containment(self):
        rng = random.Random(12)
        g, _ = extract_largest_component(generate_erdos_renyi(50, 110, seed=5))
        nodes = list(range(g.n))
        for _ in range(10):
            base = rng.sample(nodes, 4)
            extra = base + rng.sample([u for u in nodes if u not in base], 3)
            small = g.with_added_node(base)
            big = g.with_added_node(extra)
            root = rng.randrange(g.n)
            rep_small = containment_sets(small, root, g.n)
            rep_big = containment_sets(big, root, g.n)
            assert rep_small.containment_set <= rep_big.containment_set

    def test_unreachable_honest_node_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)]).with_added_node([0])
        with pytest.raises(ValueError):
            containment_sets(g, 0, 4)

    def test_reachable_only_through_adversary_is_lost_not_error(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)]).with_added_node([0, 2])
        rep = containment_sets(g, 0, 4)
        assert {2, 3} <= rep.containment_set

    def test_disturbance_budget_formula(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)]).with_added_node([0, 2])
        rep = containment_sets(g, 0, 3)
        gap = rep.containment_set - rep.strict_set
        assert rep.deg_sum == sum(g.degree(u) for u in gap)
        assert rep.disturbance_budget == 2 * rep.deg_sum - len(gap)


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


class TestSimulatedLostSet:
    def test_adversary_free_run_loses_nothing(self, path4):
        out = run(RunConfig(graph=path4, root=0, max_rounds=12))
        assert simulated_lost_set(out, 6) == frozenset()

    def test_cheating_adversary_takes_the_containment_set(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)]).with_added_node([0, 2])
        rep = containment_sets(g, 0, 3)
        out = run(RunConfig(
            graph=g, root=0,
            adversary=AdversaryConfig(AdversaryBehavior.CHEAT_MIN_LEVEL, 2),
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
            aug, m = place_attack_edges(g, g_atk, rng.getrandbits(32))
            root = rng.randrange(g.n)
            rep = containment_sets(aug, root, m)
            honest = frozenset(range(g.n))
            out = run(RunConfig(
                graph=aug, root=root,
                adversary=AdversaryConfig(AdversaryBehavior.DISTURB, g_atk),
                adversary_node=m, deltas=Deltas((g_atk + 2) * 2, 1, 1),
                max_rounds=400, stability_window=40,
                stability_candidates=honest - rep.strict_set,
            ))
            last = out.trace[-1].round
            lost = simulated_lost_set(out, max(1, last - 40))
            assert lost == rep.strict_set
