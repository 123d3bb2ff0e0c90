"""Signature backends, hashing, and canonical message encodings.

Two interchangeable signature backends are provided:

* ``ModelBackend`` -- a structural scheme whose signatures record the signer's
  public key and the signed message.  Verification compares them, so a
  signature can only be produced by signing with the matching secret.  This
  is the default for simulation campaigns: it is fast, and the test suite
  checks that simulated runs decide exactly as they do under Ed25519.
* ``Ed25519Backend`` -- real Ed25519 via the ``cryptography`` package, for
  end-to-end realism.  Optional; only needed when explicitly requested.

Every backend signs and verifies raw messages (``sign``/``verify``) and the
protocol's two messages from their fields (``sign_level``/``verify_level``,
``sign_link``/``verify_link``).  ``ModelBackend`` field signatures are lazy:
they keep the fields, build the message bytes, tail and attestation digest
only when read, and verify by comparing fields where they can, with the
answer the bytes would give.  ``Ed25519Backend`` encodes the message and
signs its bytes.

All multi-field messages use length-prefixed encodings (4-byte big-endian
length prefixes, 8-byte big-endian timestamps) so that no two distinct field
combinations serialize to the same byte string; ``None`` and ``b""`` IDs
encode alike.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

DIGEST_SIZE = 16

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def digest(message: bytes) -> bytes:
    """Fixed-width cryptographic digest (BLAKE2b, 16 bytes)."""
    return hashlib.blake2b(message, digest_size=DIGEST_SIZE).digest()


def level_message(target_id: bytes | None, ts: int) -> bytes:
    """Canonical bytes for a level signature: len(ID)||ID||len(ts)||ts."""
    tid = target_id or b""
    return _U32.pack(len(tid)) + tid + _U32.pack(8) + _U64.pack(ts)


def link_message(nid: bytes | None, att_digest: bytes) -> bytes:
    """Canonical bytes for a link signature: len(nID)||nID||len(digest)||digest."""
    n = nid or b""
    return _U32.pack(len(n)) + n + _U32.pack(len(att_digest)) + att_digest


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A node's asymmetric key pair; ``public`` doubles as the node ID."""

    public: bytes
    secret: bytes


class Signature:
    """Opaque signature value.

    Model-scheme signatures embed the signer's public key and keep the raw
    message, or the fields it is encoded from (``level`` = (target ID,
    timestamp), ``link`` = (neighbor ID, attestation)), so verification is a
    plain comparison; their tail is a digest of the message.  Ed25519
    signatures carry the raw 64-byte signature as the tail, with an empty
    signer field.  The canonical bytes are len(signer) || signer || tail.
    """

    __slots__ = ("signer", "_msg", "_tail", "level", "link")

    def __init__(self, signer: bytes, msg: bytes | None = None, tail: bytes | None = None,
                 level: tuple[bytes, int] | None = None, link: tuple | None = None):
        self.signer = signer
        self._msg = msg
        self._tail = tail
        self.level = level
        self.link = link

    @property
    def msg(self) -> bytes | None:
        if self._msg is None:
            if self.level is not None:
                self._msg = level_message(*self.level)
            elif self.link is not None:
                self._msg = link_message(self.link[0], self.link[1].digest)
        return self._msg

    @property
    def tail(self) -> bytes:
        if self._tail is None:
            self._tail = digest(self.msg)  # type: ignore[arg-type]
        return self._tail

    def to_bytes(self) -> bytes:
        return _U32.pack(len(self.signer)) + self.signer + self.tail

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Signature)
            and self.signer == other.signer
            and self.tail == other.tail
        )

    def __hash__(self) -> int:
        return hash((self.signer, self.tail))

    def __repr__(self) -> str:
        return f"Signature(signer={self.signer!r})"


def _model_signer(secret: bytes) -> bytes:
    """The public key a model-scheme secret key signs as."""
    if not secret.startswith(b"SK"):
        raise ValueError("not a model-scheme secret key")
    return b"PK" + secret[2:]


class ModelBackend:
    """Structural signature scheme verified by recomputation.

    Key pairs are derived deterministically from an integer seed and public
    keys are guaranteed distinct for distinct seeds (mod 2**64).  ``sign``
    keeps the message bytes; ``sign_level`` and ``sign_link`` keep the
    message fields and build the bytes only when read.  A signature that does
    not carry the fields asked about is verified over the encoded message.
    """

    name = "model"

    def keygen(self, seed: int) -> KeyPair:
        raw = (seed % 2**64).to_bytes(8, "big")
        return KeyPair(public=b"PK" + raw, secret=b"SK" + raw)

    def sign(self, secret: bytes, message: bytes) -> Signature:
        return Signature(_model_signer(secret), message)

    def sign_level(self, secret: bytes, target_id: bytes | None, ts: int) -> Signature:
        return Signature(_model_signer(secret), None, None, (target_id or b"", ts))

    def sign_link(self, secret: bytes, nid: bytes | None, att) -> Signature:
        return Signature(_model_signer(secret), None, None, None, (nid or b"", att))

    def verify(self, public: bytes, message: bytes, sig: Signature) -> bool:
        return sig.signer == public and sig.msg == message

    def verify_level(self, public: bytes, target_id: bytes | None, ts: int,
                     sig: Signature) -> bool:
        if sig.level is None:
            return self.verify(public, level_message(target_id, ts), sig)
        return sig.signer == public and sig.level == (target_id or b"", ts)

    def verify_link(self, public: bytes, nid: bytes | None, att, sig: Signature) -> bool:
        link = sig.link
        if link is None or link[1] is not att:
            return self.verify(public, link_message(nid, att.digest), sig)
        return sig.signer == public and link[0] == (nid or b"")


class Ed25519Backend:
    """Ed25519 signatures via the ``cryptography`` package.  The protocol's
    two messages are encoded, then signed or verified as bytes."""

    name = "ed25519"

    def __init__(self):
        try:
            from cryptography.hazmat.primitives.asymmetric import ed25519
        except ImportError as exc:  # pragma: no cover - environment dependent
            raise ImportError(
                "the ed25519 backend requires the 'cryptography' package"
            ) from exc
        self._ed25519 = ed25519

    def keygen(self, seed: int) -> KeyPair:
        raw = hashlib.blake2b(
            b"ed25519-keygen" + (seed % 2**64).to_bytes(8, "big"), digest_size=32
        ).digest()
        priv = self._ed25519.Ed25519PrivateKey.from_private_bytes(raw)
        pub = priv.public_key().public_bytes_raw()
        return KeyPair(public=pub, secret=raw)

    def sign(self, secret: bytes, message: bytes) -> Signature:
        priv = self._ed25519.Ed25519PrivateKey.from_private_bytes(secret)
        return Signature(b"", None, priv.sign(message))

    def verify(self, public: bytes, message: bytes, sig: Signature) -> bool:
        try:
            key = self._ed25519.Ed25519PublicKey.from_public_bytes(public)
            key.verify(sig.tail, message)
            return True
        except Exception:
            return False

    def sign_level(self, secret: bytes, target_id: bytes | None, ts: int) -> Signature:
        return self.sign(secret, level_message(target_id, ts))

    def sign_link(self, secret: bytes, nid: bytes | None, att) -> Signature:
        return self.sign(secret, link_message(nid, att.digest))

    def verify_level(self, public: bytes, target_id: bytes | None, ts: int,
                     sig: Signature) -> bool:
        return self.verify(public, level_message(target_id, ts), sig)

    def verify_link(self, public: bytes, nid: bytes | None, att, sig: Signature) -> bool:
        return self.verify(public, link_message(nid, att.digest), sig)


MODEL = ModelBackend()
