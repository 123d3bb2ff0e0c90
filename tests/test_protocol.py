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
from spantree.attestation import AttTuple, Extender, is_valid_att, is_valid_link
from spantree.crypto import MODEL, Ed25519Backend, ModelBackend
from spantree.graph import exact_diameter
from spantree.protocol import WriteRecord

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


def _shown(write, inputs):
    """The registers ``write`` shows the writers of ``inputs``, each the
    reader at its arc position, with the ID and neighbor ID it published."""
    return [write.register(k, reg.id, reg.nid) for k, reg in enumerate(inputs)]


class TestAttestedStep:
    def setup_method(self):
        self.root = MODEL.keygen(1)
        self.me = MODEL.keygen(2)
        self.others = [MODEL.keygen(10 + i) for i in range(3)]

    def test_root_fixed_point(self):
        st = init_node(self.root, 2, random.Random(0), is_root=True)
        empty = [RegisterContent(id=self.others[0].public, nid=b"x" * 8)] * 2
        for now in (2, 4, 6):
            st, write = step_honest_attested(st, empty, now, DELTAS, self.root.public, MODEL)
            outs = _shown(write, empty)
            assert st.level == 0
            assert st.pid == self.root.public
            assert all(len(o.att) == 1 for o in outs)
            assert all(o.level == 0 for o in outs)

    def test_orphan_when_nothing_valid(self):
        st = init_node(self.me, 2, random.Random(0))
        bogus = [RegisterContent(id=b"??", level=3), RegisterContent()]
        st2, write = step_honest_attested(st, bogus, 4, DELTAS, self.root.public, MODEL)
        outs = _shown(write, bogus)
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
        st2, write = step_honest_attested(st, [reg], ts + 2, DELTAS, self.root.public, MODEL)
        assert st2.level == 1
        assert st2.pid == self.root.public
        assert len(st2.level_att) == 1
        assert len(_shown(write, [reg])[0].att) == 2

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
        assert _shown(out_a[1], [reg]) == _shown(out_b[1], [reg])

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
        st2, write = step_honest_baseline(st, regs)
        outs = _shown(write, regs)
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
            st, write = step_honest_baseline(st, regs)
            outs = _shown(write, regs)
            assert (st.level, st.pid, st.is_root) == (0, root.public, True)
            assert st.level_att is LevelAttestation.empty()
            assert all(o.level == 0 and o.id == root.public and o.att is None for o in outs)

    def test_orphan_when_nothing_valid(self):
        me = MODEL.keygen(2)
        st = init_node(me, 2, random.Random(0))
        st = st._replace(level=4, pid=b"old", prnt=1, level_att=self._stale_attestation(me))
        regs = [RegisterContent(id=b"neg", level=-1), RegisterContent(id=b"none")]
        st2, write = step_honest_baseline(st, regs)
        outs = _shown(write, regs)
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


def reference_next_state(state, inputs, valid):
    """The eager rule: given the set of ``valid`` offers, the root keeps
    level 0, a node with none becomes an orphan, and any other node adopts
    the first valid minimal neighbor in scan order from i_start."""
    deg = len(inputs)
    i_start = state.i_start % deg if deg else 0
    my_id = state.keys.public
    if state.is_root or not valid:
        return state._replace(level=0 if state.is_root else None, pid=my_id,
                              i_start=i_start, level_att=LevelAttestation.empty())
    min_level = min(inputs[j].level for j in valid)
    prnt = state.prnt
    for off in range(deg):
        j = (i_start + off) % deg
        if j in valid and inputs[j].level == min_level:
            if j != prnt and prec(prnt, j, i_start):
                i_start = j
            prnt = j
            break
    adopted = inputs[prnt]
    return state._replace(
        level=min_level + 1,
        pid=adopted.id if adopted.id is not None else my_id,
        prnt=prnt, i_start=i_start,
        level_att=adopted.att if adopted.att is not None else LevelAttestation.empty(),
        is_root=False,
    )


def reference_valid_attested(state, inputs, now, deltas, root_id, backend):
    """Every offer the attested protocol accepts, each one checked."""
    if state.is_root:
        return set()
    my_id = state.keys.public
    return {
        j for j, reg in enumerate(inputs)
        if reg.level is not None and reg.level >= 0 and reg.att is not None
        and is_valid_att(reg.att, my_id, root_id, now, deltas, reg.level + 1, backend)
        and is_valid_link(reg.att, state.assigned_nids[j], reg.link_sig, backend)
    }


def reference_valid_baseline(inputs):
    return {j for j, reg in enumerate(inputs) if reg.level is not None and reg.level >= 0}


class _Counting:
    """A backend mixin that records what it verifies: the signature of each
    ``verify_level`` and the attestation of each ``verify_link``."""

    def __init__(self):
        super().__init__()
        self.verified = []

    def verify_level(self, public, target_id, ts, sig):
        self.verified.append(sig)
        return super().verify_level(public, target_id, ts, sig)

    def verify_link(self, public, nid, att, sig):
        self.verified.append(att)
        return super().verify_link(public, nid, att, sig)


class CountingModel(_Counting, ModelBackend):
    pass


class CountingEd25519(_Counting, Ed25519Backend):
    pass


_OFFER_KINDS = ("valid", "valid", "expired", "misbound", "unbound", "forged",
                "wrong_head", "wrong_length", "no_att", "negative", "none")


def _random_offer(rng, backend, root, keys, reader_id, reader_nid, now):
    """One neighbor's register toward the reader: a chain from the root (or
    not) of a random claimed level, valid or broken in one random way."""
    kind = rng.choice(_OFFER_KINDS)
    level = rng.randint(0, 3)
    signers = [root] + [rng.choice(keys) for _ in range(level)]
    nid = rng.getrandbits(64).to_bytes(8, "big")
    if kind == "none":
        return RegisterContent(id=signers[-1].public, nid=nid)
    if kind == "wrong_head":
        signers[0] = rng.choice(keys)
    n = level + 1
    stale = rng.randrange(n)
    att, link = LevelAttestation.empty(), None
    for i, kp in enumerate(signers):
        ts = now - DELTAS.step * (n - i)  # expires exactly c after now
        if kind == "expired" and i == stale:
            ts -= DELTAS.c + 1 + rng.randint(0, 3)
        target = signers[i + 1].public if i + 1 < n else reader_id
        if kind == "misbound" and i + 1 == n:
            target = rng.choice(keys).public
        bound = b"?" * 8 if kind == "unbound" else reader_nid
        att, link = extend(att, kp, target, bound, ts, backend)
    if kind == "forged":
        tuples = list(att.tuples)
        p, t, _ = tuples[stale]
        target = signers[stale + 1].public if stale + 1 < n else reader_id
        forger = rng.choice([kp for kp in keys if kp.public != p])
        tuples[stale] = AttTuple(p, t, backend.sign_level(forger.secret, target, t))
        att = LevelAttestation.from_tuples(tuples, backend)
        link = backend.sign_link(signers[-1].secret, reader_nid, att)
    if kind == "no_att":
        att = link = None
    claimed = level
    if kind == "wrong_length":
        claimed = level + rng.choice((-1, 1))
    elif kind == "negative":
        claimed = -rng.randint(1, 3)
    return RegisterContent(id=signers[-1].public, level=claimed, att=att, nid=nid,
                           link_sig=link)


class TestLazyOfferChoice:
    """``_next_state`` checks offers from the lowest claimed level up and
    stops at the first valid one; the eager rule above checks every offer
    first.  Both must choose the same state."""

    def _cases(self, backend, trials, seed):
        rng = random.Random(seed)
        root = backend.keygen(1)
        me = backend.keygen(2)
        keys = [backend.keygen(10 + i) for i in range(6)]
        now = 40
        for _ in range(trials):
            deg = rng.randint(0, 7)
            state = init_node(me, deg, rng, InitMode.ADVERSARIAL, max_level=6)
            state = state._replace(is_root=rng.random() < 0.1)
            inputs = [_random_offer(rng, backend, root, keys, me.public,
                                    state.assigned_nids[j], now) for j in range(deg)]
            yield root, state, inputs, now

    @pytest.mark.parametrize("make_backend,seed", [(CountingModel, 31), (CountingEd25519, 32)],
                             ids=["lazy", "eager"])
    def test_attested_matches_eager_rule(self, make_backend, seed):
        backend = make_backend()
        adopted_relays = 0  # offers from nodes other than the root
        for root, state, inputs, now in self._cases(backend, 600, seed):
            owner = {}
            for j, reg in enumerate(inputs):
                if reg.att is not None and reg.att.tuples:
                    owner[id(reg.att)] = owner[id(reg.att.tuples[-1].sig)] = j
            backend.verified.clear()
            new, _ = step_honest_attested(state, inputs, now, DELTAS, root.public, backend)
            checked = {owner[id(obj)] for obj in backend.verified}
            valid = reference_valid_attested(state, inputs, now, DELTAS, root.public, backend)
            assert new == reference_next_state(state, inputs, valid)
            if state.is_root:
                assert checked == set()
            elif new.level is not None:
                # nothing above the adopted offer, in (level, scan) order
                deg = len(inputs)
                start = state.i_start % deg

                def rank(j):
                    return (inputs[j].level, (j - start) % deg)

                assert all(rank(j) <= rank(new.prnt) for j in checked)
                adopted_relays += new.level > 1
        assert adopted_relays > 20

    def test_baseline_matches_eager_rule(self):
        for root, state, inputs, _ in self._cases(MODEL, 600, 33):
            new, _ = step_honest_baseline(state, inputs)
            assert new == reference_next_state(state, inputs, reference_valid_baseline(inputs))


class SignCounter:
    """Delegates to a backend and counts the signatures asked of it."""

    def __init__(self, inner):
        self.inner = inner
        self.signs = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def sign_level(self, secret, target_id, ts):
        self.signs += 1
        return self.inner.sign_level(secret, target_id, ts)

    def sign_link(self, secret, nid, att):
        self.signs += 1
        return self.inner.sign_link(secret, nid, att)


class TestLazyRegisters:
    """A register from ``step_honest_attested`` signs on first read, and
    reads as the register ``extend`` gives for the same inputs."""

    @pytest.mark.parametrize("make_backend", [lambda: MODEL, Ed25519Backend],
                             ids=["model", "ed25519"])
    @pytest.mark.parametrize("is_root", [True, False], ids=["root", "node"])
    def test_matches_extend_each(self, make_backend, is_root):
        inner = make_backend()
        backend = SignCounter(inner)
        root, me = inner.keygen(1), inner.keygen(2)
        others = [inner.keygen(10 + i) for i in range(3)]
        node = root if is_root else me
        st = init_node(node, 4, random.Random(7), is_root=is_root)
        ts = 4
        ex, link = extend(LevelAttestation.empty(), root, me.public, st.assigned_nids[0],
                          ts, inner)
        inputs = [RegisterContent(root.public, 0, ex, b"r" * 8, link)]
        inputs += [RegisterContent(id=kp.public, nid=bytes([k]) * 8)
                   for k, kp in enumerate(others)]
        now = ts + DELTAS.step
        new, write = step_honest_attested(st, inputs, now, DELTAS, root.public, backend)
        level = 0 if is_root else 1
        assert new.level == level
        backend.signs = 0
        outs = _shown(write, inputs)
        assert [(o.id, o.level, o.nid) for o in outs] == \
            [(node.public, level, nid) for nid in new.assigned_nids]
        assert backend.signs == 0
        ref = [extend(new.level_att, new.keys, r.id, r.nid, now, inner, DELTAS.step)
               for r in inputs]
        for out, (ref_att, ref_link), nid in zip(outs, ref, new.assigned_nids):
            assert out.att.digest == ref_att.digest
            assert out.att.to_bytes() == ref_att.to_bytes()
            assert out.link_sig.to_bytes() == ref_link.to_bytes()
            expected = RegisterContent(node.public, level, ref_att, nid, ref_link)
            assert out == expected
            assert hash(out) == hash(expected)
        assert backend.signs == 2 * len(outs)

    def test_record_inputs_sign_for_the_reader(self):
        # a node that read its neighbors' records signs its extension toward
        # each for that neighbor's own ID and the neighbor ID it assigned
        backend = SignCounter(MODEL)
        root, me = MODEL.keygen(1), MODEL.keygen(2)
        others = [MODEL.keygen(10 + i) for i in range(2)]
        rng = random.Random(8)
        root_st = init_node(root, 1, rng, is_root=True)
        other_sts = [init_node(kp, 1, rng) for kp in others]
        st = init_node(me, 3, rng)
        # this node is arc 0 of every neighbor's record
        writes = [step_honest_attested(s, [RegisterContent(id=me.public, nid=st.assigned_nids[j])],
                                       2, DELTAS, root.public, backend)[1]
                  for j, s in enumerate([root_st] + other_sts)]
        now = 2 + DELTAS.step
        new, write = step_honest_attested(st, writes, now, DELTAS, root.public, backend,
                                          positions=(0, 0, 0))
        assert (new.level, new.pid, new.prnt) == (1, root.public, 0)
        for k, (kp, nst) in enumerate(zip([root] + others, [root_st] + other_sts)):
            reg = write.register(k, kp.public, nst.assigned_nids[0])
            ref_att, ref_link = extend(new.level_att, me, kp.public, nst.assigned_nids[0],
                                       now, MODEL, DELTAS.step)
            assert reg == RegisterContent(me.public, 1, ref_att, st.assigned_nids[k], ref_link)

    def test_equality_reads_every_field(self):
        a = RegisterContent(id=b"a", level=1, nid=b"n")
        assert a == RegisterContent(id=b"a", level=1, nid=b"n")
        assert hash(a) == hash(RegisterContent(id=b"a", level=1, nid=b"n"))
        assert a != RegisterContent(id=b"a", level=2, nid=b"n")
        assert a != RegisterContent(id=b"a", level=1, nid=b"m")
        att, link = extend(LevelAttestation.empty(), MODEL.keygen(1), b"a", b"n", 2, MODEL)
        assert a != RegisterContent(id=b"a", level=1, att=att, nid=b"n")
        assert RegisterContent(b"a", 1, att, b"n", link) == \
            RegisterContent(id=b"a", level=1, att=att, nid=b"n", link_sig=link)


class TestStampedAfter:
    """``stamped_after`` answers as a scan of the built chain's timestamps
    does, and a register not yet signed answers without signing."""

    @staticmethod
    def _scan(reg, t):
        return reg.att is not None and any(tup.t > t for tup in reg.att.tuples)

    def _record(self, backend, chain_ts, ts):
        root, me = MODEL.keygen(1), MODEL.keygen(2)
        chain, _ = extend(LevelAttestation.empty(), root, me.public, None, chain_ts, MODEL)
        return WriteRecord(me.public, 1, Extender(chain, me, ts, backend, DELTAS.step),
                           (b"a" * 8, b"b" * 8))

    @pytest.mark.parametrize("chain_ts,ts", [(3, 6), (3, 4), (5, 4)])
    def test_record_registers_match_the_scan(self, chain_ts, ts):
        for t in range(8):
            backend = SignCounter(MODEL)
            write = self._record(backend, chain_ts, ts)
            pending = write.register(0, b"r", b"n")
            answer = pending.stamped_after(t)
            row = write.all_stamped_after(t)
            if ts > t:
                assert answer and row
                assert backend.signs == 0
            assert answer == self._scan(pending, t)  # now built
            assert pending.stamped_after(t) == answer
            assert row == all(self._scan(write.register(p, b"r", b"n"), t) for p in (0, 1))

    def test_explicit_and_empty_registers(self):
        rng = random.Random(4)
        keys = [MODEL.keygen(i) for i in range(1, 5)]
        tuples = []
        for i, kp in enumerate(keys):
            ts = rng.randint(0, 6)
            target = keys[i + 1].public if i + 1 < len(keys) else b"reader"
            tuples.append((kp.public, ts, MODEL.sign_level(kp.secret, target, ts)))
        planted = RegisterContent(id=b"x", level=3, nid=b"n" * 8,
                                  att=LevelAttestation.from_tuples(tuples, MODEL))
        empty = RegisterContent(id=b"x", nid=b"n" * 8)
        orphan = WriteRecord(b"x", None, None, (b"n" * 8,))
        for t in range(-1, 8):
            assert planted.stamped_after(t) == self._scan(planted, t)
            assert not empty.stamped_after(t)
            assert orphan.all_stamped_after(t)
            assert not orphan.register(0, b"r", b"n").stamped_after(t)
