import random

import pytest

from spantree import (
    AdversaryBehavior,
    AdversaryConfig,
    Deltas,
    Graph,
    InitMode,
    ProtocolKind,
    RunConfig,
    WalkStatus,
    attack_victims,
    containment_sets,
    ill_directed_set,
    place_attack_edges,
    run,
    snapshot_status,
)


class TestPlacement:
    def test_degree_proportional_weighting(self):
        # star: center has degree 3, each leaf degree 1; conditioned on the
        # pick being center-or-leaf0, the center must win 3/4 of the time
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        center = leaf = 0
        for seed in range(10_000):
            (chosen,) = attack_victims(star, 1, seed)
            if chosen == 0:
                center += 1
            elif chosen == 1:
                leaf += 1
        ratio = center / (center + leaf)
        assert ratio == pytest.approx(0.75, abs=0.02)

    def test_full_budget_touches_everyone(self, triangle):
        aug, m = place_attack_edges(triangle, 3, seed=1)
        assert sorted(aug.neighbors(m).tolist()) == [0, 1, 2]

    def test_deterministic(self, triangle):
        a, _ = place_attack_edges(triangle, 2, seed=5)
        b, _ = place_attack_edges(triangle, 2, seed=5)
        assert a == b
        assert a == triangle.with_added_node(attack_victims(triangle, 2, seed=5))

    def test_budget_exceeding_honest_count(self, triangle):
        with pytest.raises(ValueError):
            place_attack_edges(triangle, 4, seed=1)
        with pytest.raises(ValueError):
            place_attack_edges(triangle, 0, seed=1)


# r(0)-x(1)-y(2) and u(3)-a(4)-b(5)-x(1); the adversary attaches to y and
# u, three hops from the root, while u has honest distance 4 via u-a-b-x
_RELAY_GRAPH = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 1)])
_RELAY_VICTIMS = [2, 3]


def _relay_instance():
    """The relay overlay with the adversary node attached, and its index."""
    return _RELAY_GRAPH.with_added_node(_RELAY_VICTIMS), _RELAY_GRAPH.n


class TestCheatRelay:
    def test_victim_receives_adversary_root_distance(self):
        aug, m = _relay_instance()
        rep = containment_sets(_RELAY_GRAPH, 0, _RELAY_VICTIMS)
        assert rep.adv_root_distance == 3  # r-x-y-m
        assert 3 in rep.strict_set  # honest distance 4 beats nothing
        cfg = RunConfig(
            graph=aug, root=0,
            adversary=AdversaryConfig(AdversaryBehavior.CHEAT_MIN_LEVEL),
            adversary_node=m, deltas=Deltas(8, 1, 1), max_rounds=24,
        )
        out = run(cfg)
        assert out.trace[-1].levels[3] == 3  # d(m, r), one less than honest
        assert snapshot_status(aug, 0, frozenset({m}), out.trace[-1], 3) is WalkStatus.ILL

    def test_honest_adversary_is_one_level_worse(self):
        aug, m = _relay_instance()
        cfg = RunConfig(
            graph=aug, root=0,
            adversary=AdversaryConfig(AdversaryBehavior.HONEST_MIN_LEVEL),
            adversary_node=m, deltas=Deltas(8, 1, 1), max_rounds=24,
        )
        out = run(cfg)
        assert out.trace[-1].levels[3] == 4

    def test_minimum_delivered_length_is_adversary_root_distance(self):
        aug, m = _relay_instance()
        rep = containment_sets(_RELAY_GRAPH, 0, _RELAY_VICTIMS)
        lengths = []

        def hook(rnd, config):
            for reg in config.registers[m]:
                if reg.att is not None:
                    lengths.append(len(reg.att))

        cfg = RunConfig(
            graph=aug, root=0,
            adversary=AdversaryConfig(AdversaryBehavior.CHEAT_MIN_LEVEL),
            adversary_node=m, deltas=Deltas(8, 1, 1), max_rounds=24,
        )
        run(cfg, per_round_hook=hook)
        assert lengths
        assert min(lengths) == rep.adv_root_distance

    def test_capability_boundary_signatures_are_replays(self):
        # every chain and link signature the adversary writes must have been
        # read verbatim from some honest register directed at it
        aug, m = _relay_instance()
        harvested: set = set()
        violations = []

        def hook(rnd, config):
            for v in aug.neighbor_lists[m]:
                pos = aug.neighbor_lists[v].index(m)
                reg = config.registers[v][pos]
                if reg.att is not None:
                    harvested.add((reg.att.digest, reg.link_sig))
            for reg in config.registers[m]:
                if reg.att is not None:
                    if (reg.att.digest, reg.link_sig) not in harvested:
                        violations.append(rnd)

        cfg = RunConfig(
            graph=aug, root=0,
            adversary=AdversaryConfig(AdversaryBehavior.CHEAT_MIN_LEVEL),
            adversary_node=m, deltas=Deltas(8, 1, 1), max_rounds=24,
        )
        run(cfg, per_round_hook=hook)
        assert violations == []


class TestDisturb:
    def test_nothing_to_relay_means_withdrawal(self):
        aug, m = _relay_instance()
        first_round_regs = []

        def hook(rnd, config):
            if rnd == 1:
                first_round_regs.extend(config.registers[m])

        cfg = RunConfig(
            graph=aug, root=0,
            adversary=AdversaryConfig(AdversaryBehavior.DISTURB),
            adversary_node=m, deltas=Deltas(8, 1, 1), max_rounds=4,
        )
        run(cfg, per_round_hook=hook)
        assert all(reg.att is None and reg.level is None for reg in first_round_regs)

    def test_strict_victims_flap_with_period_two(self):
        aug, m = _relay_instance()
        cfg = RunConfig(
            graph=aug, root=0,
            adversary=AdversaryConfig(AdversaryBehavior.DISTURB),
            adversary_node=m, deltas=Deltas(8, 1, 1), max_rounds=40,
        )
        out = run(cfg)
        tail = out.trace[-10:]
        levels3 = [snap.levels[3] for snap in tail]
        assert len(set(levels3)) > 1  # keeps changing
        # safe nodes hold still
        for u in (0, 1, 2):
            assert len({snap.levels[u] for snap in tail}) == 1


class TestBaselineAdversary:
    def test_cheat_claims_level_zero(self, path3):
        aug = path3.with_added_node([2])
        claims = []

        def hook(rnd, config):
            claims.extend(reg.level for reg in config.registers[3])

        cfg = RunConfig(
            graph=aug, root=0, protocol=ProtocolKind.BASELINE,
            adversary=AdversaryConfig(AdversaryBehavior.CHEAT_MIN_LEVEL),
            adversary_node=3, max_rounds=5,
        )
        run(cfg, per_round_hook=hook)
        assert set(claims) == {0}

    def test_lost_set_matches_formula(self):
        # r(0)-a(1)-b(2)-c(3), adversary on c: strictly closer nodes fall
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        aug = g.with_added_node([3])
        rep = containment_sets(g, 0, [3])
        assert rep.baseline_lost == frozenset({3})
        assert rep.baseline_ties == frozenset({2})
        cfg = RunConfig(
            graph=aug, root=0, protocol=ProtocolKind.BASELINE,
            adversary=AdversaryConfig(AdversaryBehavior.CHEAT_MIN_LEVEL),
            adversary_node=4, max_rounds=12,
        )
        out = run(cfg)
        ill = ill_directed_set(aug, 0, frozenset({4}), out.trace[-1])
        assert rep.baseline_lost <= ill <= rep.baseline_lost | rep.baseline_ties
