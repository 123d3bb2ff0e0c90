import random
import struct

import pytest

from spantree.crypto import (
    Ed25519Backend,
    KeyPair,
    ModelBackend,
    digest,
    level_message,
    link_message,
)


@pytest.fixture
def backend():
    return ModelBackend()


class TestModelScheme:
    def test_keygen_deterministic(self, backend):
        assert backend.keygen(1) == backend.keygen(1)

    def test_distinct_seeds_distinct_keys(self, backend):
        assert backend.keygen(1).public != backend.keygen(2).public

    def test_sign_verify_roundtrip(self, backend):
        kp = backend.keygen(3)
        sig = backend.sign(kp.secret, b"x")
        assert backend.verify(kp.public, b"x", sig)

    def test_flipped_message_rejected(self, backend):
        kp = backend.keygen(3)
        sig = backend.sign(kp.secret, b"hello world")
        assert not backend.verify(kp.public, b"hello worle", sig)

    def test_wrong_key_rejected(self, backend):
        a, b = backend.keygen(1), backend.keygen(2)
        sig = backend.sign(a.secret, b"msg")
        assert not backend.verify(b.public, b"msg", sig)

    def test_exhaustive_bookkeeping(self, backend):
        # a signature verifies for exactly the (key, message) pair it was
        # made for; no cross-pair verifies
        keys = [backend.keygen(i) for i in range(8)]
        msgs = [f"m{j}".encode() for j in range(12)]
        sigs = {}
        for i, kp in enumerate(keys):
            for j, msg in enumerate(msgs):
                sigs[i, j] = backend.sign(kp.secret, msg)
        for i, kp in enumerate(keys):
            for j, msg in enumerate(msgs):
                for (si, sj), sig in sigs.items():
                    expected = si == i and sj == j
                    assert backend.verify(kp.public, msg, sig) is expected


class TestDigest:
    def test_fixed_width(self):
        assert len(digest(b"")) == 16
        assert digest(b"") == digest(b"")

    def test_repetition(self):
        assert digest(b"abc") == digest(b"abc")

    def test_extension_changes_digest(self):
        rng = random.Random(42)
        for _ in range(200):
            x = rng.randbytes(rng.randrange(0, 64))
            assert digest(x) != digest(x + b"a")


class TestCanonicalEncodings:
    def test_level_message_layout(self):
        msg = level_message(b"ID", 7)
        assert msg == struct.pack(">I", 2) + b"ID" + struct.pack(">I", 8) + struct.pack(">Q", 7)

    def test_link_message_layout(self):
        d = digest(b"att")
        msg = link_message(b"NBR8BYTE", d)
        assert msg == struct.pack(">I", 8) + b"NBR8BYTE" + struct.pack(">I", 16) + d

    def test_none_fields_encode_empty(self):
        assert level_message(None, 0) == level_message(b"", 0)
        assert link_message(None, digest(b"")) == link_message(b"", digest(b""))

    def test_no_concatenation_ambiguity(self):
        assert level_message(b"AB", 1) != level_message(b"A", 1)
        assert link_message(b"AB", digest(b"C")) != link_message(b"A", digest(b"BC"))


class TestEd25519:
    def test_rfc8032_vector_1(self):
        # TEST 1 from RFC 8032 section 7.1: empty message
        backend = Ed25519Backend()
        secret = bytes.fromhex(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
        )
        public = bytes.fromhex(
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        )
        expected = bytes.fromhex(
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        )
        sig = backend.sign(secret, b"")
        assert sig.tail == expected
        assert backend.verify(public, b"", sig)

    def test_roundtrip_and_rejection(self):
        backend = Ed25519Backend()
        kp = backend.keygen(11)
        assert backend.keygen(11) == kp
        sig = backend.sign(kp.secret, b"data")
        assert backend.verify(kp.public, b"data", sig)
        assert not backend.verify(kp.public, b"datb", sig)
        other = backend.keygen(12)
        assert not backend.verify(other.public, b"data", sig)

