import gc
import random
from dataclasses import replace

import pytest

from spantree import (
    AdversaryBehavior,
    AdversaryConfig,
    Deltas,
    Graph,
    InitMode,
    ProtocolKind,
    RegisterContent,
    RunConfig,
    Snapshot,
    WalkStatus,
    consistency_round,
    convergence_round,
    count_disturbances,
    detect_legitimate,
    detect_stable,
    exact_diameter,
    extract_largest_component,
    generate_erdos_renyi,
    ill_directed_set,
    run,
    snapshot_status,
)
from spantree.crypto import MODEL
from spantree.campaign import derive_seed
from spantree.protocol import WriteRecord
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

    def test_root_must_be_honest(self, triangle):
        aug = triangle.with_added_node([0])
        with pytest.raises(ValueError):
            RunConfig(graph=aug, root=3,
                      adversary=AdversaryConfig(AdversaryBehavior.DISTURB),
                      adversary_node=3)

    def test_index_validation(self, triangle):
        aug = triangle.with_added_node([0])
        adversary = AdversaryConfig(AdversaryBehavior.DISTURB)
        with pytest.raises(ValueError, match="root index out of range"):
            RunConfig(graph=triangle, root=3)
        with pytest.raises(ValueError, match="adversary index out of range"):
            RunConfig(graph=aug, root=0, adversary=adversary, adversary_node=4)
        with pytest.raises(ValueError, match="adversary config and node index go together"):
            RunConfig(graph=aug, root=0, adversary=adversary)

    def test_max_rounds_validation(self, triangle):
        with pytest.raises(ValueError):
            RunConfig(graph=triangle, root=0, max_rounds=0)

    def test_baseline_recovers_from_adversarial_start(self):
        # planted baseline registers claim arbitrary levels; without an
        # adversary every node ends legitimate
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(20, 60)
            g, _ = extract_largest_component(generate_erdos_renyi(n, 2 * n, seed))
            diam = exact_diameter(g)
            root = rng.randrange(g.n)
            out = run(RunConfig(
                graph=g, root=root, protocol=ProtocolKind.BASELINE,
                init_mode=InitMode.ADVERSARIAL, seed=seed,
                max_rounds=2 * g.n + diam + 2, stability_window=diam + 2,
            ))
            for u in range(g.n):
                assert detect_legitimate(g, root, frozenset(), out.final.keys,
                                         out.trace[-1], u), (seed, u)


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

    @staticmethod
    def _cheat_run_config():
        g, _ = extract_largest_component(generate_erdos_renyi(30, 60, seed=5))
        aug = g.with_added_node([0, 1])
        return RunConfig(
            graph=aug, root=2,
            adversary=AdversaryConfig(AdversaryBehavior.CHEAT_MIN_LEVEL),
            adversary_node=aug.n - 1, max_rounds=12,
        )

    def test_attested_cheat_run_makes_no_cycles(self):
        # the pause is safe only while reference counting frees everything
        # a run allocates; the hook reads every register, so all are signed
        cfg = self._cheat_run_config()
        hooked = []
        gc.collect()
        out = run(cfg, per_round_hook=lambda rnd, config: hooked.append(len(config.registers)))
        assert hooked == [cfg.graph.n] * 12
        del out
        assert gc.collect() == 0

    def test_attested_adversarial_start_makes_no_cycles(self):
        # planted chains carry lazy link signatures that refer to their
        # attestation; the attestation must not refer back to them
        cfg = replace(self._cheat_run_config(), init_mode=InitMode.ADVERSARIAL,
                      deltas=Deltas(8, 1, 1), seed=3)
        signed = []

        def read_links(rnd, config):
            signed.extend(reg.link_sig.to_bytes() for row in config.registers
                          for reg in row if reg.link_sig is not None)

        gc.collect()
        out = run(cfg, per_round_hook=read_links)
        assert out.rounds_executed == 12 and signed
        del out
        assert gc.collect() == 0

    def test_unread_registers_make_no_cycles_and_hold_no_old_rounds(self):
        # without a hook most registers are never materialised, and those
        # read stay unsigned until read; writes must neither form cycles nor
        # keep the writes of earlier rounds alive: about one round of write
        # records and registers outlives the run
        cfg = self._cheat_run_config()
        gc.collect()

        def live_registers():
            return sum(isinstance(o, (RegisterContent, WriteRecord)) for o in gc.get_objects())

        before = live_registers()
        out = run(cfg)
        assert out.rounds_executed == 12
        assert live_registers() - before <= 2 * len(cfg.graph.indices)
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



class TestModelMatchesEd25519:
    """The model backend, which every campaign runs on, decides like a real
    signature scheme: attested runs under attack, from clean and from
    adversarial starts, are identical round by round under ``MODEL`` and
    under Ed25519.  The instances are oracle-suite instances 0, 8 and 11 of
    seed 20240601 (23-25 overlay nodes, 3-10 attack edges)."""

    @pytest.mark.parametrize("idx", [0, 8, 11])
    def test_runs_identical(self, idx):
        from spantree.campaign import _attacked_instance, _attacked_run, _oracle_graph
        from spantree.crypto import Ed25519Backend

        ed25519 = Ed25519Backend()
        rng = random.Random(derive_seed(20240601, "oracle", idx))
        inst = _attacked_instance(rng, _oracle_graph(rng), 10, "inst", 20240601, idx)
        rounds = 3 * inst.diam + 2 * inst.g_atk + 12
        malicious = frozenset({inst.m})
        captured = 0
        for behavior in AdversaryBehavior:
            for mode in InitMode:
                cfg = _attacked_run(inst, ProtocolKind.ATTESTED, behavior,
                                    inst.seed(behavior.value), rounds, init_mode=mode)
                model_trace = run(cfg).trace
                ed_trace = run(cfg, backend=ed25519).trace
                assert [(s.levels, s.prnts) for s in model_trace] == \
                    [(s.levels, s.prnts) for s in ed_trace], (behavior, mode)
                ill = [ill_directed_set(inst.aug, inst.root, malicious, s)
                       for s in model_trace]
                assert ill == [ill_directed_set(inst.aug, inst.root, malicious, s)
                               for s in ed_trace]
                captured += sum(map(len, ill))
        assert captured > 0  # the adversary misleads someone in some round
