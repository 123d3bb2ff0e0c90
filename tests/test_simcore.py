import gc

import pytest

from spantree import (
    AdversaryBehavior,
    AdversaryConfig,
    Deltas,
    Graph,
    InitMode,
    ProtocolKind,
    RunConfig,
    Snapshot,
    WalkStatus,
    consistency_round,
    convergence_round,
    count_disturbances,
    detect_legitimate,
    detect_stable,
    extract_largest_component,
    generate_erdos_renyi,
    ill_directed_set,
    run,
    snapshot_status,
)
from spantree.crypto import MODEL
from spantree.simcore import changed

KEYS = tuple(MODEL.keygen(i).public for i in range(8))


def _manual_snapshot(g: Graph, levels, prnts) -> Snapshot:
    """Snapshot assembled from raw levels/parent pointers for detector unit
    tests: a node with a positive level names its parent's key as pid."""
    pids = tuple(
        KEYS[g.neighbor_lists[u][prnts[u] % g.degree(u)]]
        if levels[u] not in (None, 0) else KEYS[u]
        for u in range(g.n)
    )
    return Snapshot(0, tuple(levels), pids, tuple(prnts))


def _legitimate(g: Graph, snap: Snapshot, node: int) -> bool:
    return detect_legitimate(g, 0, frozenset(), KEYS, snap, node)


class TestScheduler:
    def test_double_buffered_registers(self, path3):
        # a neighbor's write in round k is never visible to reads in round k
        out = run(RunConfig(graph=path3, root=0, max_rounds=3))
        assert out.trace[1].levels == (0, None, None)
        assert out.trace[2].levels == (0, 1, None)

    def test_determinism(self):
        g, _ = extract_largest_component(generate_erdos_renyi(40, 90, seed=3))
        aug = g.with_added_node([0, 1, 2])
        def make():
            return RunConfig(
                graph=aug, root=3,
                adversary=AdversaryConfig(AdversaryBehavior.DISTURB),
                adversary_node=aug.n - 1, deltas=Deltas(10, 1, 1),
                init_mode=InitMode.ADVERSARIAL, seed=77, max_rounds=30,
            )
        a = run(make())
        b = run(make())
        assert a.trace == b.trace
        assert a.rounds_executed == b.rounds_executed

    def test_early_stop_on_stability(self, path3):
        out = run(RunConfig(graph=path3, root=0, max_rounds=200, stability_window=5))
        assert out.stopped_early
        assert out.rounds_executed < 20

    def test_clock_jitter_stays_within_skew(self, path3):
        out = run(RunConfig(graph=path3, root=0, max_rounds=8,
                            deltas=Deltas(3, 1, 1), clock_jitter=True, seed=5))
        assert out.trace[-1].levels == (0, 1, 2)

    def test_root_must_be_honest(self, triangle):
        aug = triangle.with_added_node([0])
        with pytest.raises(ValueError):
            RunConfig(graph=aug, root=3,
                      adversary=AdversaryConfig(AdversaryBehavior.DISTURB),
                      adversary_node=3)

    def test_max_rounds_validation(self, triangle):
        with pytest.raises(ValueError):
            RunConfig(graph=triangle, root=0, max_rounds=0)


class TestGcPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_restored(self, path3, enabled):
        def failing_hook(rnd, config):
            assert not gc.isenabled()
            raise RuntimeError("hook failed")

        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            run(RunConfig(graph=path3, root=0, max_rounds=3))
            assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError, match="hook failed"):
                run(RunConfig(graph=path3, root=0, max_rounds=3),
                    per_round_hook=failing_hook)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_attested_cheat_run_makes_no_cycles(self):
        # the pause is safe only while reference counting frees everything
        # a run allocates
        g, _ = extract_largest_component(generate_erdos_renyi(30, 60, seed=5))
        aug = g.with_added_node([0, 1])
        cfg = RunConfig(
            graph=aug, root=2,
            adversary=AdversaryConfig(AdversaryBehavior.CHEAT_MIN_LEVEL),
            adversary_node=aug.n - 1, max_rounds=12,
        )
        hooked = []
        gc.collect()
        out = run(cfg, per_round_hook=lambda rnd, config: hooked.append(len(config.registers)))
        assert hooked == [aug.n] * 12
        del out
        assert gc.collect() == 0


class TestDetectLegitimate:
    def test_root_conditions(self, path3):
        out = run(RunConfig(graph=path3, root=0, max_rounds=4))
        assert detect_legitimate(path3, 0, frozenset(), out.final.keys, out.trace[-1], 0)

    def test_level_must_be_min_plus_one(self, path4):
        snap = _manual_snapshot(path4, [0, 1, 3, 3], [0, 0, 0, 0])
        assert not _legitimate(path4, snap, 2)

    def test_parent_must_be_minimal(self):
        # diamond: 1 and 2 both neighbor 3; node 3 points at the non-minimal 2
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])
        assert not _legitimate(g, _manual_snapshot(g, [0, 1, 2, 2], [0, 0, 0, 1]), 3)
        assert _legitimate(g, _manual_snapshot(g, [0, 1, 2, 2], [0, 0, 0, 0]), 3)

    def test_nonroot_with_level_zero(self, path3):
        snap = _manual_snapshot(path3, [0, 0, 1], [0, 0, 0])
        assert not _legitimate(path3, snap, 1)

    def test_malicious_node_rejected(self, path3):
        snap = _manual_snapshot(path3, [0, 1, 2], [0, 0, 0])
        with pytest.raises(ValueError):
            detect_legitimate(path3, 0, frozenset({2}), KEYS, snap, 2)


class TestDetectIllDirected:
    def test_converged_tree_all_well(self, path3):
        out = run(RunConfig(graph=path3, root=0, max_rounds=4))
        assert ill_directed_set(path3, 0, frozenset(), out.trace[-1]) == frozenset()

    def test_direct_adversary_parent(self):
        g = Graph.from_edges(2, [(0, 1)]).with_added_node([1])
        snap = _manual_snapshot(g, [0, 1, None], [0, 1, 0])
        assert ill_directed_set(g, 0, frozenset({2}), snap) == frozenset({1})

    def test_grandparent_through_adversary(self):
        # chain r(0) ... 1-2 with 1's parent the adversary 3
        g = Graph.from_edges(3, [(0, 1), (1, 2)]).with_added_node([1])
        snap = _manual_snapshot(g, [0, 2, 3, None], [0, 2, 0, 0])
        assert ill_directed_set(g, 0, frozenset({3}), snap) == frozenset({1, 2})
        assert snapshot_status(g, 0, frozenset({3}), snap, 2) is WalkStatus.ILL

    def test_orphan_and_loop_reported_distinctly(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        orphan = _manual_snapshot(g, [0, None, 1, 2], [0, 0, 0, 0])
        assert snapshot_status(g, 0, frozenset(), orphan, 1) is WalkStatus.ORPHAN
        # 2 and 3 point at each other
        loop = _manual_snapshot(g, [0, 1, 2, 2], [0, 0, 1, 1])
        assert snapshot_status(g, 0, frozenset(), loop, 3) is WalkStatus.LOOP
        assert ill_directed_set(g, 0, frozenset(), loop) == frozenset()


class TestStabilityAndDisturbances:
    def _snap(self, rnd, levels, pids):
        return Snapshot(rnd, tuple(levels), tuple(pids), tuple(0 for _ in levels))

    def test_static_trace(self):
        snaps = [self._snap(i, [0, 1], [b"a", b"b"]) for i in range(4)]
        assert detect_stable(snaps, [0, 1])
        assert count_disturbances(snaps, set()) == 0
        assert convergence_round(snaps, [0, 1]) == 0

    def test_single_flip(self):
        snaps = [
            self._snap(0, [0, 1], [b"a", b"b"]),
            self._snap(1, [0, 1], [b"a", b"c"]),
            self._snap(2, [0, 1], [b"a", b"c"]),
        ]
        assert not detect_stable(snaps, [0, 1])
        assert detect_stable(snaps, [0])
        assert changed(snaps[0], snaps[1], [1]) and not changed(snaps[0], snaps[1], [0])
        assert not changed(snaps[1], snaps[2], [0, 1])
        assert count_disturbances(snaps, set()) == 1
        assert count_disturbances(snaps, {1}) == 0
        assert convergence_round(snaps, [0, 1]) == 1

    def test_unconverged_trace_returns_none(self):
        snaps = [
            self._snap(0, [0, 1], [b"a", b"b"]),
            self._snap(1, [0, 2], [b"a", b"b"]),
        ]
        assert convergence_round(snaps, [0, 1]) is None


class TestRealCryptoBackend:
    def test_tree_construction_over_ed25519(self, path3):
        from spantree.crypto import Ed25519Backend

        out = run(RunConfig(graph=path3, root=0, max_rounds=4),
                  backend=Ed25519Backend())
        assert out.trace[-1].levels == (0, 1, 2)
        assert all(
            detect_legitimate(path3, 0, frozenset(), out.final.keys, out.trace[-1], u)
            for u in range(3)
        )


class TestConsistencyRound:
    def test_formula(self):
        assert consistency_round(Deltas(1, 1, 1), 4) == 5
        assert consistency_round(Deltas(2, 1, 1), 4) == 6
        assert consistency_round(Deltas(4, 1, 1), 4) == 7

