import random

import pytest

from spantree import Graph
from spantree.attestation import (
    AttTuple,
    Deltas,
    Extender,
    LevelAttestation,
    extend,
    is_consistent,
    is_valid_att,
    is_valid_link,
)
from spantree.crypto import (
    MODEL,
    Ed25519Backend,
    ModelBackend,
    digest,
    level_message,
    link_message,
)

DELTAS = Deltas(1, 1, 1)
STEP = DELTAS.step


def propagate_chain(keys, nids, backend=MODEL, deltas=DELTAS):
    """Honest hop-by-hop propagation along a path of key pairs.

    ``nids[j]`` is the neighbor ID node j assigned to its predecessor.
    Node j-1 acts in round j (time j*step), so hop j's material carries
    timestamp j*step.  Returns the (attestation, link signature) delivered
    to each node 1..k.
    """
    atts = [LevelAttestation.empty()]
    links = [None]
    for j in range(1, len(keys)):
        ts = j * deltas.step
        att, link = extend(
            atts[j - 1], keys[j - 1], keys[j].public, nids[j], ts, backend
        )
        atts.append(att)
        links.append(link)
    return atts, links


@pytest.fixture
def chain5():
    keys = [MODEL.keygen(100 + i) for i in range(6)]
    nids = [None] + [bytes([j]) * 8 for j in range(1, 6)]
    atts, links = propagate_chain(keys, nids)
    return keys, nids, atts, links


class TestValidity:
    def test_root_built_single_tuple(self):
        root = MODEL.keygen(1)
        u = MODEL.keygen(2)
        ts = 5
        att, link = extend(LevelAttestation.empty(), root, u.public, b"n" * 8, ts, MODEL)
        assert len(att) == 1
        assert is_valid_att(att, u.public, root.public, ts, DELTAS, 1, MODEL)
        assert is_valid_link(att, b"n" * 8, link, MODEL)

    def test_freshness_window_boundary(self):
        root = MODEL.keygen(1)
        u = MODEL.keygen(2)
        ts = 5
        att, _ = extend(LevelAttestation.empty(), root, u.public, None, ts, MODEL)
        edge = ts + DELTAS.c + STEP
        assert is_valid_att(att, u.public, root.public, edge, DELTAS, 1, MODEL)
        assert not is_valid_att(att, u.public, root.public, edge + 1, DELTAS, 1, MODEL)

    def test_expiry_is_monotone(self, chain5):
        keys, _, atts, _ = chain5
        att = atts[3]
        reader = keys[3].public
        root_id = keys[0].public
        seen_invalid = False
        for now in range(0, 60):
            ok = is_valid_att(att, reader, root_id, now, DELTAS, 3, MODEL)
            if seen_invalid and now > atts[3].tuples[-1].t:
                assert not ok
            if not ok and now > atts[3].tuples[-1].t:
                seen_invalid = True

    def test_wrong_root_rejected(self, chain5):
        keys, _, atts, _ = chain5
        other = MODEL.keygen(999)
        now = 4 * STEP
        assert not is_valid_att(atts[3], keys[3].public, other.public, now, DELTAS, 3, MODEL)

    def test_length_mismatch_rejected(self, chain5):
        keys, _, atts, _ = chain5
        now = 4 * STEP
        assert is_valid_att(atts[3], keys[3].public, keys[0].public, now, DELTAS, 3, MODEL)
        assert not is_valid_att(atts[3], keys[3].public, keys[0].public, now, DELTAS, 2, MODEL)

    def test_truncated_chain_fails_reader_binding(self, chain5):
        keys, _, atts, _ = chain5
        full = atts[3]
        shorter = LevelAttestation.from_tuples(full.tuples[:-1], MODEL)
        now = 4 * STEP
        assert not is_valid_att(shorter, keys[3].public, keys[0].public, now, DELTAS, 2, MODEL)

    def test_empty_attestation_never_accepted(self):
        root = MODEL.keygen(1)
        empty = LevelAttestation.empty()
        assert not is_valid_att(empty, root.public, root.public, 0, DELTAS, 0, MODEL)
        assert not is_valid_att(empty, root.public, root.public, 0, DELTAS, None, MODEL)

    def test_multihop_chain_valid_at_destination(self, chain5):
        keys, nids, atts, links = chain5
        for j in range(1, 6):
            now = (j + 1) * STEP
            assert is_valid_att(atts[j], keys[j].public, keys[0].public, now, DELTAS, j, MODEL)
            assert is_valid_link(atts[j], nids[j], links[j], MODEL)


class TestLinkSignature:
    def test_wrong_nid_rejected(self, chain5):
        _, nids, atts, links = chain5
        assert not is_valid_link(atts[2], b"z" * 8, links[2], MODEL)
        assert is_valid_link(atts[2], nids[2], links[2], MODEL)

    def test_truncation_breaks_digest_binding(self, chain5):
        # shortened chain presented with the original link signature
        _, nids, atts, links = chain5
        shorter = LevelAttestation.from_tuples(atts[4].tuples[:3], MODEL)
        assert not is_valid_link(shorter, nids[4], links[4], MODEL)

    def test_empty_attestation_has_no_link(self):
        assert not is_valid_link(LevelAttestation.empty(), b"n" * 8, None, MODEL)


class TestTruncationResistanceExhaustive:
    def test_every_strict_prefix_rejected_up_to_six_hops(self):
        keys = [MODEL.keygen(200 + i) for i in range(7)]
        nids = [None] + [bytes([0x40 + j]) * 8 for j in range(1, 7)]
        atts, links = propagate_chain(keys, nids)
        for k in range(2, 7):
            full = atts[k]
            reader = keys[k].public
            now = (k + 1) * STEP
            for cut in range(1, k):
                prefix = LevelAttestation.from_tuples(full.tuples[:cut], MODEL)
                assert not is_valid_att(prefix, reader, keys[0].public, now, DELTAS, cut, MODEL)
                assert not is_valid_link(prefix, nids[k], links[k], MODEL)


class TestSerialization:
    def test_golden_record_layout(self):
        import struct

        root = MODEL.keygen(1)
        target = MODEL.keygen(2)
        att, _ = extend(LevelAttestation.empty(), root, target.public, None, 7, MODEL)
        sig = att.tuples[0].sig
        expected = (
            struct.pack(">I", len(root.public)) + root.public
            + struct.pack(">Q", 7)
            + struct.pack(">I", len(sig.to_bytes())) + sig.to_bytes()
        )
        assert att.to_bytes() == expected

    def test_golden_signature_layout(self):
        import struct

        kp = MODEL.keygen(3)
        sig = MODEL.sign(kp.secret, b"msg")
        expected = struct.pack(">I", len(kp.public)) + kp.public + digest(b"msg")
        assert sig.to_bytes() == expected


def _extend_reference(att, signer, target_id, nid, ts, backend, step):
    """One extension spelled out from the primitives: level signature,
    chain rebuilt from its tuples, link signature over the new digest."""
    sig = backend.sign(signer.secret, level_message(target_id, ts))
    ex = LevelAttestation.from_tuples(att.tuples + ((signer.public, ts, sig),), backend)
    if step is not None:
        ex.expiry_base(step)
    return ex, backend.sign(signer.secret, link_message(nid, ex.digest))


class TestExtendEach:
    """One ``Extender`` shared by every target, and ``extend`` per target,
    equal one reference extension per target."""

    @pytest.mark.parametrize("backend", [MODEL, Ed25519Backend()], ids=["model", "ed25519"])
    @pytest.mark.parametrize("base_len,bound", [(0, True), (3, True), (3, False)])
    @pytest.mark.parametrize("step", [STEP, None])
    def test_matches_reference_per_target(self, backend, base_len, bound, step):
        # ``bound``: the last tuple of the chain extended signs the signer's
        # key; if it signs another key, no extension may check as a chain
        keys = [backend.keygen(40 + i) for i in range(base_len + 4)]
        att = LevelAttestation.empty()
        for j in range(base_len):
            target = keys[j + 1] if j + 1 < base_len or bound else keys[-3]
            att, _ = extend(att, keys[j], target.public, b"n" * 8, j * STEP,
                            backend, step=STEP)
        signer = keys[base_len]
        targets = [(keys[-1].public, b"a" * 8), (None, None), (keys[-2].public, b"b" * 8)]
        ts = (base_len + 1) * STEP
        ext = Extender(att, signer, ts, backend, step)
        shared = [ext.toward(tid, nid) for tid, nid in targets]
        single = [extend(att, signer, tid, nid, ts, backend, step) for tid, nid in targets]
        ref = [_extend_reference(att, signer, tid, nid, ts, backend, step)
               for tid, nid in targets]
        for got, one, want in zip(shared, single, ref):
            for (ex, link) in (got, one):
                assert ex.tuples == want[0].tuples
                assert ex.digest == want[0].digest
                assert ex.to_bytes() == want[0].to_bytes()
                assert ex.tuples[0].p == keys[0].public
                assert ex.chain_ok is want[0].chain_ok is bound
                assert (ex._exp_step, ex._exp_val) == (want[0]._exp_step, want[0]._exp_val)
                assert link.to_bytes() == want[1].to_bytes()
        # each extension is valid exactly for the reader it was signed for,
        # and for none if the chain extended did not bind the signer
        for (ex, _), (tid, _) in zip(shared + single, targets * 2):
            for reader in keys:
                assert is_valid_att(ex, reader.public, keys[0].public, ts, DELTAS,
                                    base_len + 1, backend) is (bound and reader.public == tid)
        assert is_valid_link(shared[0][0], b"a" * 8, shared[0][1], backend)


def _random_chain(seed, backend):
    """A chain of 1-8 hops, each written by ``extend`` toward 1-3
    targets (IDs and nids drawn with ``None`` and ``b""`` among them) and
    continued along a random one.  Returns the last hop's (attestation,
    link signature, nid) triples."""
    rng = random.Random(seed)
    keys = [backend.keygen(rng.randrange(50)) for _ in range(rng.randint(1, 8))]
    ids = [None, b"", b"x", keys[-1].public]
    att, ts = LevelAttestation.empty(), 0
    for j, signer in enumerate(keys):
        ts += rng.randint(0, 3)
        targets = [(rng.choice(ids + [k.public for k in keys]), rng.choice(ids))
                   for _ in range(rng.randint(1, 3))]
        step = rng.choice([STEP, None])
        out = [extend(att, signer, tid, nid, ts, backend, step) for tid, nid in targets]
        if j == len(keys) - 1:
            return [(ex, link, nid) for (ex, link), (_, nid) in zip(out, targets)]
        att = out[rng.randrange(len(out))][0]


class ByteModel(ModelBackend):
    """The model scheme with every field signature made by ``sign`` over the
    encoded message: the eager bytes a lazy signature stands for."""

    def sign_level(self, secret, target_id, ts):
        return self.sign(secret, level_message(target_id, ts))

    def sign_link(self, secret, nid, att):
        return self.sign(secret, link_message(nid, att.digest))


class TestLazyModelSignatures:
    """Lazy model signatures against the eager bytes they stand for."""

    def test_lazy_and_eager_chains_agree(self):
        eager = ByteModel()
        for seed in range(500):
            for (lazy, lazy_link, nid), (ref, ref_link, _) in zip(
                    _random_chain(seed, MODEL), _random_chain(seed, eager)):
                assert lazy_link.link is not None and ref_link.link is None
                assert lazy.to_bytes() == ref.to_bytes()
                assert lazy.digest == ref.digest
                for a, b in zip(lazy.tuples, ref.tuples):
                    assert a.sig.to_bytes() == b.sig.to_bytes()
                assert lazy_link.to_bytes() == ref_link.to_bytes()
                # equal content, distinct object: the link check takes the byte path
                restored = LevelAttestation.from_tuples(lazy.tuples, MODEL)
                assert restored.digest == lazy.digest
                assert is_valid_link(restored, nid, lazy_link, MODEL)
                assert MODEL.verify_link(lazy.tuples[-1].p, nid, restored, lazy_link)

    def test_fast_path_matches_byte_path(self):
        rng = random.Random(5)
        keys = [MODEL.keygen(i) for i in range(3)]
        ids = [None, b"", b"\x00", b"x", keys[0].public, keys[1].public]
        stamps = [0, 1, 2, 255, 256, 2**64 - 1]
        chains = [ex for seed in range(4) for ex, _, _ in _random_chain(seed, MODEL)]
        # equal content, distinct objects
        chains += [LevelAttestation.from_tuples(c.tuples, MODEL) for c in chains]
        for _ in range(10_000):
            signer, reader = rng.choice(keys), rng.choice(keys).public
            if rng.random() < 0.5:
                tid, ts = rng.choice(ids), rng.choice(stamps)
                sig = MODEL.sign_level(signer.secret, tid, ts)
                q_tid, q_ts = rng.choice([(tid, ts), (rng.choice(ids), rng.choice(stamps))])
                got = MODEL.verify_level(reader, q_tid, q_ts, sig)
                msg = level_message(q_tid, q_ts)
                same = (q_tid or b"") == (tid or b"") and q_ts == ts
            else:
                nid, att = rng.choice(ids), rng.choice(chains)
                sig = MODEL.sign_link(signer.secret, nid, att)
                q_nid, q_att = rng.choice([(nid, att), (rng.choice(ids), rng.choice(chains))])
                got = MODEL.verify_link(reader, q_nid, q_att, sig)
                msg = link_message(q_nid, q_att.digest)
                same = (q_nid or b"") == (nid or b"") and q_att == att
            assert got is (reader == signer.public and same)
            assert got is MODEL.verify(reader, msg, sig)

    def test_secret_key_check_kept(self):
        att = LevelAttestation.empty()
        for backend in (MODEL, ByteModel()):
            with pytest.raises(ValueError, match="model-scheme secret key"):
                backend.sign_level(b"XX" + bytes(8), b"id", 1)
            with pytest.raises(ValueError, match="model-scheme secret key"):
                backend.sign_link(b"XX" + bytes(8), b"nid", att)

    def test_long_chain_digest(self):
        keys = [MODEL.keygen(i) for i in range(2)]
        att = LevelAttestation.empty()
        for j in range(5000):
            att, _ = extend(att, keys[j % 2], keys[(j + 1) % 2].public, None, j, MODEL)
        assert att.digest == LevelAttestation.from_tuples(att.tuples, MODEL).digest


class TestConsistency:
    def _setup(self):
        # square r(0)-a(1)-b(2)-c(3)-r with adversary m(4) attached to a
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).with_added_node([1])
        keys = [MODEL.keygen(300 + i) for i in range(5)]
        directory = {kp.public: i for i, kp in enumerate(keys)}
        return g, keys, directory

    def test_invalid_is_consistent(self):
        g, keys, directory = self._setup()
        stale, _ = extend(LevelAttestation.empty(), keys[0], keys[1].public, None, 0, MODEL)
        far_future = 1000
        assert is_consistent(stale, g, directory, 1, frozenset({4}),
                             keys[1].public, keys[0].public, far_future, DELTAS, MODEL)

    def test_honest_propagation_is_consistent(self):
        g, keys, directory = self._setup()
        nids = [None, b"1" * 8, b"2" * 8]
        atts, _ = propagate_chain(keys[:3], nids)
        now = 3 * STEP
        assert is_consistent(atts[2], g, directory, 2, frozenset({4}),
                             keys[2].public, keys[0].public, now, DELTAS, MODEL)

    def test_fabricated_key_sequence_is_inconsistent(self):
        # valid-shaped chain r -> c built with leaked secrets, but r and c
        # share no edge, so no path matches
        g, keys, directory = self._setup()
        ts = STEP
        sig = MODEL.sign(keys[0].secret, level_message(keys[2].public, ts))
        att = LevelAttestation.from_tuples([AttTuple(keys[0].public, ts, sig)], MODEL)
        now = 2 * STEP
        assert is_valid_att(att, keys[2].public, keys[0].public, now, DELTAS, 1, MODEL)
        assert not is_consistent(att, g, directory, 2, frozenset({4}),
                                 keys[2].public, keys[0].public, now, DELTAS, MODEL)

    def test_unknown_key_is_inconsistent(self):
        g, keys, directory = self._setup()
        stranger = MODEL.keygen(12345)
        ts = STEP
        sig = MODEL.sign(stranger.secret, level_message(keys[1].public, ts))
        att = LevelAttestation.from_tuples([AttTuple(stranger.public, ts, sig)], MODEL)
        fake_root_dir = dict(directory)
        now = 2 * STEP
        assert not is_consistent(att, g, fake_root_dir, 1, frozenset({4}),
                                 keys[1].public, stranger.public, now, DELTAS, MODEL)

    def test_shared_malicious_neighbor_clause(self):
        # m relays root-signed material for a: chain ends at r, a is not r's
        # neighbor in the walk sense but both a and r neighbor m
        g = Graph.from_edges(2, [(0, 1)]).with_added_node([0, 1])
        keys = [MODEL.keygen(400 + i) for i in range(3)]
        directory = {kp.public: i for i, kp in enumerate(keys)}
        ts = STEP
        sig = MODEL.sign(keys[0].secret, level_message(keys[1].public, ts))
        att = LevelAttestation.from_tuples([AttTuple(keys[0].public, ts, sig)], MODEL)
        now = 2 * STEP
        assert is_consistent(att, g, directory, 1, frozenset({2}),
                             keys[1].public, keys[0].public, now, DELTAS, MODEL)


class TestForgeryExclusionSmall:
    def test_replay_is_the_only_accepted_material(self):
        # adversary ops: copy, reorder, truncate, re-target harvested tuples
        backend = MODEL
        keys = [backend.keygen(i) for i in range(5)]
        nids = [None] + [bytes([i]) * 8 for i in range(1, 5)]
        atts, links = propagate_chain(keys, nids, backend=backend)
        harvested = [(atts[j], links[j], j) for j in range(1, 5)]
        rng = random.Random(7)
        victim = 3
        accepted = 0
        for _ in range(500):
            att, link, origin = harvested[rng.randrange(len(harvested))]
            tuples = list(att.tuples)
            op = rng.randrange(4)
            if op == 0 and len(tuples) > 1:
                tuples = tuples[: rng.randrange(1, len(tuples))]
            elif op == 1 and len(tuples) > 1:
                i, j = rng.randrange(len(tuples)), rng.randrange(len(tuples))
                tuples[i], tuples[j] = tuples[j], tuples[i]
            elif op == 2:
                other = harvested[rng.randrange(len(harvested))][0]
                tuples = tuples + list(other.tuples[: rng.randrange(0, len(other.tuples) + 1)])
            candidate = LevelAttestation.from_tuples(tuples, backend)
            now = (len(candidate) + 1) * STEP
            if is_valid_att(candidate, keys[victim].public, keys[0].public,
                            now, DELTAS, len(candidate), backend) and \
                    is_valid_link(candidate, nids[victim], link, backend):
                accepted += 1
                # acceptance implies verbatim replay of the victim's own material
                assert candidate == atts[victim]
                assert origin == victim
        assert accepted > 0  # unmodified replays must still verify
