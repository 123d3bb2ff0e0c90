import itertools
import random

import pytest

from spantree import (
    Deltas,
    Graph,
    InitMode,
    LevelAttestation,
    ProtocolKind,
    RegisterContent,
    RunConfig,
    consistency_round,
    detect_legitimate,
    extract_largest_component,
    extend,
    generate_erdos_renyi,
    init_node,
    prec,
    run,
    step_honest_attested,
    step_honest_baseline,
)
from spantree.crypto import MODEL
from spantree.graph import exact_diameter

DELTAS = Deltas(1, 1, 1)


class TestPrec:
    def test_no_wraparound(self):
        assert prec(1, 2, 0)
        assert not prec(2, 1, 0)

    def test_wrapped_first_argument(self):
        # counting from 2, position 3 is reached before the wrapped 1
        assert prec(3, 1, 2)

    def test_both_wrapped(self):
        assert prec(0, 1, 2)

    def test_irreflexive(self):
        with pytest.raises(ValueError):
            prec(2, 2, 0)

    @pytest.mark.parametrize("deg", range(2, 9))
    def test_strict_total_order(self, deg):
        for i_start in range(deg):
            for a, b in itertools.permutations(range(deg), 2):
                assert prec(a, b, i_start) != prec(b, a, i_start)
            for a, b, c in itertools.permutations(range(deg), 3):
                if prec(a, b, i_start) and prec(b, c, i_start):
                    assert prec(a, c, i_start)
            order = sorted(range(deg), key=lambda x: (x - i_start) % deg)
            for i, a in enumerate(order):
                for b in order[i + 1 :]:
                    assert prec(a, b, i_start)


class TestInitNode:
    def test_clean_is_orphan(self):
        kp = MODEL.keygen(1)
        st = init_node(kp, 4, random.Random(0))
        assert st.level is None
        assert st.pid == kp.public
        assert st.i_start == 0
        assert len(st.level_att) == 0

    def test_deterministic(self):
        kp = MODEL.keygen(1)
        a = init_node(kp, 5, random.Random(9), InitMode.ADVERSARIAL, max_level=50)
        b = init_node(kp, 5, random.Random(9), InitMode.ADVERSARIAL, max_level=50)
        assert a == b

    def test_adversarial_type_valid(self):
        kp = MODEL.keygen(2)
        for seed in range(30):
            st = init_node(kp, 6, random.Random(seed), InitMode.ADVERSARIAL, max_level=40)
            assert st.level is None or 0 <= st.level <= 40
            assert st.prnt >= 0
            assert st.i_start >= 0

    def test_neighbor_ids_distinct(self):
        st = init_node(MODEL.keygen(3), 8, random.Random(1))
        assert len(set(st.assigned_nids)) == 8


def _valid_register(writer, reader_state, reader_pos, level, att_source_keys, ts):
    """Build a register entry carrying a freshly signed valid chain."""
    att = LevelAttestation.empty()
    for j, kp in enumerate(att_source_keys):
        target = (
            att_source_keys[j + 1].public
            if j + 1 < len(att_source_keys)
            else writer.public
        )
        att, _ = extend(att, kp, target, None, ts - (len(att_source_keys) - j) * 2, MODEL)
    ex, link = extend(
        att, writer, reader_state.keys.public,
        reader_state.assigned_nids[reader_pos], ts, MODEL,
    )
    return RegisterContent(
        id=writer.public, level=level, att=ex,
        nid=b"w" * 8, link_sig=link,
    )


class TestAttestedStep:
    def setup_method(self):
        self.root = MODEL.keygen(1)
        self.me = MODEL.keygen(2)
        self.others = [MODEL.keygen(10 + i) for i in range(3)]

    def test_root_fixed_point(self):
        st = init_node(self.root, 2, random.Random(0), is_root=True)
        empty = [RegisterContent(id=self.others[0].public, nid=b"x" * 8)] * 2
        for now in (2, 4, 6):
            st, outs = step_honest_attested(st, empty, now, DELTAS, self.root.public, MODEL)
            assert st.level == 0
            assert st.pid == self.root.public
            assert all(len(o.att) == 1 for o in outs)
            assert all(o.level == 0 for o in outs)

    def test_orphan_when_nothing_valid(self):
        st = init_node(self.me, 2, random.Random(0))
        bogus = [RegisterContent(id=b"??", level=3), RegisterContent()]
        st2, outs = step_honest_attested(st, bogus, 4, DELTAS, self.root.public, MODEL)
        assert st2.level is None
        assert st2.pid == self.me.public
        assert all(o.level is None and o.att is None for o in outs)
        assert all(o.id == self.me.public and o.nid is not None for o in outs)

    def test_adopts_fresh_root_offer(self):
        st = init_node(self.me, 1, random.Random(0))
        ts = 2
        ex, link = extend(
            LevelAttestation.empty(), self.root, self.me.public,
            st.assigned_nids[0], ts, MODEL,
        )
        reg = RegisterContent(id=self.root.public, level=0, att=ex, nid=b"r" * 8, link_sig=link)
        st2, outs = step_honest_attested(st, [reg], ts + 2, DELTAS, self.root.public, MODEL)
        assert st2.level == 1
        assert st2.pid == self.root.public
        assert len(st2.level_att) == 1
        assert len(outs[0].att) == 2

    def test_tie_keeps_first_in_scan_order(self):
        st = init_node(self.me, 2, random.Random(3))
        ts = 4
        regs = []
        for k, writer in enumerate((self.others[0], self.others[1])):
            att, _ = extend(LevelAttestation.empty(), self.root, writer.public, None, ts - 2, MODEL)
            ex, link = extend(att, writer, self.me.public, st.assigned_nids[k], ts, MODEL)
            regs.append(RegisterContent(id=writer.public, level=1, att=ex,
                                        nid=b"q" * 8, link_sig=link))
        st2, _ = step_honest_attested(st, regs, ts + 2, DELTAS, self.root.public, MODEL)
        assert st2.prnt == 0
        assert st2.i_start == 0
        assert st2.pid == self.others[0].public

    def test_parent_expiry_moves_scan_start(self):
        # parent at index 0 goes stale while index 2 offers fresh material:
        # the switch also moves the preference start to 2
        st = init_node(self.me, 3, random.Random(4))
        now = 20
        stale = _valid_register(self.others[0], st, 0, 1, [self.root], ts=now - 10)
        fresh = _valid_register(self.others[2], st, 2, 1, [self.root], ts=now - 2)
        regs = [stale, RegisterContent(), fresh]
        st2, _ = step_honest_attested(st, regs, now, DELTAS, self.root.public, MODEL)
        assert st2.prnt == 2
        assert st2.i_start == 2
        assert st2.level == 2

    def test_pure_function(self):
        st = init_node(self.me, 1, random.Random(5))
        reg = _valid_register(self.others[0], st, 0, 1, [self.root], ts=6)
        out_a = step_honest_attested(st, [reg], 8, DELTAS, self.root.public, MODEL)
        out_b = step_honest_attested(st, [reg], 8, DELTAS, self.root.public, MODEL)
        assert out_a[0] == out_b[0]
        assert out_a[1] == out_b[1]

    def test_attestation_length_matches_level(self):
        g = generate_erdos_renyi(25, 50, seed=11)
        g, _ = extract_largest_component(g)
        out = run(RunConfig(graph=g, root=0, max_rounds=exact_diameter(g) + 3))
        for st in out.final.node_states:
            if st.level is not None and not st.is_root:
                assert len(st.level_att) == st.level


class TestBaselineStep:
    def test_path_converges_in_three_rounds(self, path3):
        out = run(RunConfig(graph=path3, root=0, protocol=ProtocolKind.BASELINE, max_rounds=3))
        assert out.trace[3].levels == (0, 1, 2)

    def test_min_rule_accepts_any_level_claim(self):
        me = MODEL.keygen(2)
        st = init_node(me, 2, random.Random(0))
        regs = [
            RegisterContent(id=b"adv", level=0),
            RegisterContent(id=b"hon", level=3),
        ]
        st2, outs = step_honest_baseline(st, regs, b"rootpk")
        assert st2.level == 1
        assert st2.pid == b"adv"
        assert outs[0].level == 1 and outs[0].att is None

    def _stale_attestation(self, reader):
        att, _ = extend(LevelAttestation.empty(), MODEL.keygen(1), reader.public,
                        None, 2, MODEL)
        return att

    def test_root_fixed_point(self):
        # the root keeps level 0 and, like the attested root, the empty
        # attestation, whatever it held before
        root = MODEL.keygen(1)
        st = init_node(root, 2, random.Random(0), is_root=True)
        st = st._replace(level=5, level_att=self._stale_attestation(root))
        regs = [RegisterContent(id=b"adv", level=0), RegisterContent(id=b"hon", level=3)]
        for _ in range(3):
            st, outs = step_honest_baseline(st, regs, root.public)
            assert (st.level, st.pid, st.is_root) == (0, root.public, True)
            assert st.level_att is LevelAttestation.empty()
            assert all(o.level == 0 and o.id == root.public and o.att is None for o in outs)

    def test_orphan_when_nothing_valid(self):
        me = MODEL.keygen(2)
        st = init_node(me, 2, random.Random(0))
        st = st._replace(level=4, pid=b"old", prnt=1, level_att=self._stale_attestation(me))
        regs = [RegisterContent(id=b"neg", level=-1), RegisterContent(id=b"none")]
        st2, outs = step_honest_baseline(st, regs, b"rootpk")
        assert (st2.level, st2.pid, st2.prnt) == (None, me.public, 1)
        assert st2.level_att is LevelAttestation.empty()
        assert all(o.level is None and o.id == me.public and o.att is None for o in outs)
        assert [o.nid for o in outs] == list(st.assigned_nids)

    def test_four_cycle_levels(self):
        cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        out = run(RunConfig(graph=cycle, root=0, protocol=ProtocolKind.BASELINE, max_rounds=6))
        assert out.trace[-1].levels == (0, 1, 2, 1)


class TestConvergenceBounds:
    @pytest.mark.parametrize("protocol", [ProtocolKind.ATTESTED, ProtocolKind.BASELINE])
    def test_clean_start_legitimate_within_diam_plus_one(self, protocol):
        rng = random.Random(21)
        for _ in range(5):
            g, _ = extract_largest_component(
                generate_erdos_renyi(30, 55, seed=rng.getrandbits(32))
            )
            diam = exact_diameter(g)
            out = run(RunConfig(graph=g, root=0, protocol=protocol, max_rounds=diam + 1))
            for u in range(g.n):
                assert detect_legitimate(g, 0, frozenset(), out.final.keys, out.trace[-1], u)

    def test_adversarial_start_recovers_after_expiry(self):
        rng = random.Random(22)
        for _ in range(5):
            g, _ = extract_largest_component(
                generate_erdos_renyi(30, 55, seed=rng.getrandbits(32))
            )
            diam = exact_diameter(g)
            bound = consistency_round(DELTAS, diam) + diam + 1
            out = run(RunConfig(
                graph=g, root=0, init_mode=InitMode.ADVERSARIAL,
                seed=rng.getrandbits(32), max_rounds=bound,
            ))
            for u in range(g.n):
                assert detect_legitimate(g, 0, frozenset(), out.final.keys, out.trace[-1], u)
