"""Signature backends, hashing, and canonical message encodings.

Two interchangeable signature backends are provided:

* ``ModelBackend`` -- a structural scheme whose signatures record the signer's
  public key and a digest of the signed message.  Verification recomputes the
  digest, so a signature can only be produced by calling ``sign`` with the
  matching secret.  This is the default for simulation campaigns: it is fast
  and makes "the attacker cannot forge" true by construction.
* ``Ed25519Backend`` -- real Ed25519 via the ``cryptography`` package, for
  end-to-end realism.  Optional; only needed when explicitly requested.

All multi-field messages use length-prefixed encodings (4-byte big-endian
length prefixes, 8-byte big-endian timestamps) so that no two distinct field
combinations serialize to the same byte string.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

DIGEST_SIZE = 16

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_LEN_PREFIX = [_U32.pack(k) for k in range(128)]
_TS_PREFIX = _U32.pack(8)
_blake2b = hashlib.blake2b


def digest(message: bytes) -> bytes:
    """Fixed-width cryptographic digest (BLAKE2b, 16 bytes)."""
    return _blake2b(message, digest_size=DIGEST_SIZE).digest()


def _lp(length: int) -> bytes:
    return _LEN_PREFIX[length] if length < 128 else _U32.pack(length)


def level_message(target_id: bytes | None, ts: int) -> bytes:
    """Canonical bytes for a level signature: len(ID)||ID||len(ts)||ts."""
    tid = target_id or b""
    return _lp(len(tid)) + tid + _TS_PREFIX + _U64.pack(ts)


def link_message(nid: bytes | None, att_digest: bytes) -> bytes:
    """Canonical bytes for a link signature: len(nID)||nID||len(digest)||digest."""
    n = nid or b""
    return _lp(len(n)) + n + _lp(len(att_digest)) + att_digest


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A node's asymmetric key pair; ``public`` doubles as the node ID."""

    public: bytes
    secret: bytes


class Signature:
    """Opaque signature value.

    Model-scheme signatures embed the signer's public key and, canonically, a
    digest of the signed message; freshly produced ones also keep the raw
    message so verification is a plain byte comparison.  Ed25519 signatures
    carry the raw 64-byte signature with an empty signer field.  The wire
    form is len(signer) || signer || tail.
    """

    __slots__ = ("signer", "msg", "_tail")

    def __init__(self, signer: bytes, msg: bytes | None = None, tail: bytes | None = None):
        self.signer = signer
        self.msg = msg
        self._tail = tail

    @property
    def tail(self) -> bytes:
        if self._tail is None:
            self._tail = digest(self.msg)  # type: ignore[arg-type]
        return self._tail

    def to_bytes(self) -> bytes:
        return _lp(len(self.signer)) + self.signer + self.tail

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Signature":
        (k,) = _U32.unpack_from(blob, 0)
        return cls(blob[4 : 4 + k], None, blob[4 + k :])

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


class ModelBackend:
    """Structural signature scheme verified by recomputation.

    Key pairs are derived deterministically from an integer seed and public
    keys are guaranteed distinct for distinct seeds (mod 2**64).  When
    ``track_issued`` is set, every signature produced by ``sign`` is recorded
    in ``issued`` so tests can assert that accepted signatures were actually
    issued rather than fabricated.
    """

    name = "model"

    def __init__(self, track_issued: bool = False):
        self.issued: set[bytes] | None = set() if track_issued else None

    def keygen(self, seed: int) -> KeyPair:
        raw = (seed % 2**64).to_bytes(8, "big")
        return KeyPair(public=b"PK" + raw, secret=b"SK" + raw)

    def sign(self, secret: bytes, message: bytes) -> Signature:
        if not secret.startswith(b"SK"):
            raise ValueError("not a model-scheme secret key")
        sig = Signature(b"PK" + secret[2:], message)
        if self.issued is not None:
            self.issued.add(sig.to_bytes())
        return sig

    def verify(self, public: bytes, message: bytes, sig: Signature) -> bool:
        if sig.signer != public:
            return False
        if sig.msg is not None:
            return sig.msg == message
        return sig.tail == digest(message)


class Ed25519Backend:
    """Ed25519 signatures via the ``cryptography`` package."""

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


MODEL = ModelBackend()
