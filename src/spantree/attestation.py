"""Level attestations: signed chains proving a path of a claimed length
from the root, plus the validity predicates and the consistency oracle.

An attestation is a sequence of (public key, timestamp, signature) tuples.
Each signature covers the *next* hop's ID together with the signer's
timestamp, and the final signature covers the reader's own ID, so a chain is
only acceptable to the single node it was built for.  A separate link
signature binds the whole chain to the receiver-assigned neighbor ID, which
stops a relay from presenting a shortened chain.

Validation cost matters (campaigns validate millions of chains), so each
attestation caches what does not depend on the current time: internal
chain-signature validity, fixed when the chain is built, a freshness
aggregate per step value, and the reader-binding answer for the last reader
asked.  A chain is built in one of two ways: ``from_tuples`` checks raw
tuples, and an ``Extender`` computes once what a node's extensions of one
chain at one time share, so each target's extension and link signature cost
two signatures, made by ``Extender.toward`` when that target's extension is
first needed.  The chain digest is computed on its first read and the
canonical bytes it is computed from on request.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .crypto import KeyPair, Signature, digest

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


@dataclass(frozen=True, slots=True)
class Deltas:
    """Global timing bounds: clock skew (c), register propagation delay (d),
    and the worst-case duration of one node loop iteration (e)."""

    c: int = 1
    d: int = 1
    e: int = 1

    def __post_init__(self):
        if min(self.c, self.d, self.e) < 0:
            raise ValueError("timing bounds must be non-negative")

    @property
    def step(self) -> int:
        return self.d + self.e


class AttTuple(NamedTuple):
    p: bytes
    t: int
    sig: Signature


class LevelAttestation:
    """Immutable attestation chain with O(1)-validation caches.

    Caches: ``chain_ok``, set when the chain is built; the freshness
    aggregate per step value; the reader-binding answer for the last reader
    asked; and the chain digest, computed on its first read.
    The digest is rolling: each record is absorbed into the digest of the
    records before it, so two chains agree on the digest iff they agree on
    every canonical record.
    """

    __slots__ = ("tuples", "chain_ok", "_digest",
                 "_exp_step", "_exp_val", "_c4_reader", "_c4_ok")

    def __init__(self, tuples, chain_ok, exp_step, exp_val):
        self.tuples: tuple[AttTuple, ...] = tuples
        self.chain_ok: bool = chain_ok
        self._digest: bytes | None = None
        self._exp_step: int | None = exp_step
        self._exp_val: int | None = exp_val
        self._c4_reader: bytes | None = None
        self._c4_ok = False

    @property
    def digest(self) -> bytes:
        if self._digest is None:
            dig = _EMPTY_DIGEST
            for tup in self.tuples:
                dig = digest(dig + _record(tup))
            self._digest = dig
        return self._digest

    @classmethod
    def empty(cls) -> "LevelAttestation":
        return _EMPTY

    @classmethod
    def from_tuples(cls, tuples, backend) -> "LevelAttestation":
        """Rebuild an attestation from raw (key, timestamp, signature)
        tuples, checking each signature against the next tuple's key."""
        tuples = tuple(AttTuple(*tup) for tup in tuples)
        if not tuples:
            return _EMPTY
        chain_ok = all(backend.verify_level(a.p, b.p, a.t, a.sig)
                       for a, b in zip(tuples, tuples[1:]))
        return cls(tuples, chain_ok, None, None)

    def expiry_base(self, step: int) -> int:
        """min over positions i of t_i + step*(n-i+1); the chain is fresh at
        time ``now`` iff now <= expiry_base(step) + clock-skew allowance.

        Memoized per step value; campaigns use one step per run, so the O(n)
        scan happens once per attestation object.
        """
        if self._exp_step == step:
            return self._exp_val  # type: ignore[return-value]
        n = len(self.tuples)
        val = min(tup.t + step * (n - i) for i, tup in enumerate(self.tuples))
        self._exp_step = step
        self._exp_val = val
        return val

    def binds_reader(self, reader_id: bytes, backend) -> bool:
        """Whether the final signature covers ``reader_id``.

        Memoized for the last reader asked: the answer does not depend on the
        time, and a chain is normally read by the one node it was built for.
        """
        if self._c4_reader != reader_id:
            last = self.tuples[-1]
            self._c4_ok = backend.verify_level(last.p, reader_id, last.t, last.sig)
            self._c4_reader = reader_id
        return self._c4_ok

    def stamped_after(self, t: int) -> bool:
        """Whether some tuple is stamped later than ``t``."""
        # a fresh chain usually ends in a fresh tuple: look from the end
        return any(tup.t > t for tup in reversed(self.tuples))

    def to_bytes(self) -> bytes:
        return b"".join(_record(t) for t in self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[AttTuple]:
        return iter(self.tuples)

    def __getitem__(self, i):
        return self.tuples[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, LevelAttestation) and self.tuples == other.tuples

    def __hash__(self) -> int:
        return hash(self.tuples)

    def __repr__(self) -> str:
        return f"LevelAttestation(len={len(self.tuples)})"


def _record(tup: AttTuple) -> bytes:
    """Canonical bytes of one tuple."""
    blob = tup.sig.to_bytes()
    return _U32.pack(len(tup.p)) + tup.p + _U64.pack(tup.t) + _U32.pack(len(blob)) + blob


_EMPTY_DIGEST = digest(b"")
_EMPTY = LevelAttestation((), True, None, None)


def extend(
    level_att: LevelAttestation,
    signer: KeyPair,
    target_id: bytes | None,
    target_assigned_nid: bytes | None,
    ts: int,
    backend,
    step: int | None = None,
) -> tuple[LevelAttestation, Signature]:
    """Append the signer's tuple for one neighbor and bind it to the link.

    Returns the extended attestation together with the link signature over
    the neighbor ID the target assigned to the signer.  Extending the empty
    attestation yields a length-1 chain (the root case).
    """
    return Extender(level_att, signer, ts, backend, step).toward(
        target_id, target_assigned_nid)


class Extender:
    """What every one-tuple extension of ``level_att`` by ``signer`` at time
    ``ts`` shares, computed once: ``chain_ok`` and, when ``level_att`` holds
    it for ``step``, the freshness aggregate.
    ``chain_ok`` needs the previous hop's signature to cover the signer's
    key, which is ``level_att``'s reader binding for the signer: a node that
    adopted the chain has that answer memoized.  ``toward`` builds one
    target's extension from them for the cost of two signatures; the digest
    waits for its first read.

    Holds the chain's tuples, not the attestation, and no target's data.
    """

    __slots__ = ("tuples", "pub", "secret", "ts", "backend",
                 "chain_ok", "exp_step", "exp_val")

    def __init__(self, level_att: LevelAttestation, signer: KeyPair, ts: int, backend,
                 step: int | None = None):
        self.tuples = level_att.tuples
        self.pub = signer.public
        self.secret = signer.secret
        self.ts = ts
        self.backend = backend
        self.exp_step = self.exp_val = None
        if not level_att.tuples:
            self.chain_ok = True
            if step is not None:
                self.exp_step, self.exp_val = step, ts + step
            return
        self.chain_ok = level_att.chain_ok and level_att.binds_reader(signer.public, backend)
        if step is not None and level_att._exp_step == step:
            self.exp_step = step
            self.exp_val = min(level_att._exp_val + step, ts + step)  # type: ignore[operator]

    def stamped_after(self, t: int) -> bool:
        """Whether the extensions hold a tuple stamped later than ``t``,
        known before any is signed."""
        return self.ts > t or any(tup.t > t for tup in self.tuples)

    def toward(self, target_id: bytes | None,
               nid: bytes | None) -> tuple[LevelAttestation, Signature]:
        """The extension signed for ``target_id`` and its link signature over
        ``nid``, the neighbor ID the target assigned to the signer."""
        secret, ts, backend = self.secret, self.ts, self.backend
        att = LevelAttestation(
            self.tuples + (AttTuple(self.pub, ts, backend.sign_level(secret, target_id, ts)),),
            self.chain_ok, self.exp_step, self.exp_val)
        return att, backend.sign_link(secret, nid, att)


def is_valid_chain(
    att: LevelAttestation,
    root_id: bytes,
    now: int,
    deltas: Deltas,
    expected_length: int | None,
) -> bool:
    """Everything ``is_valid_att`` checks that does not depend on the reader.

    Checks, in order: the claimed length (when ``expected_length`` is given),
    that the first key is the root's, per-tuple freshness windows and the
    internal signature chain.  Empty chains are always rejected: only the
    root itself holds the empty attestation, and an honest neighbor appends
    its own tuple before writing.
    """
    n = len(att.tuples)
    if expected_length is not None and n != expected_length:
        return False
    if n == 0 or att.tuples[0].p != root_id:
        return False
    if now > deltas.c + att.expiry_base(deltas.step):
        return False
    return att.chain_ok


def is_valid_att(
    att: LevelAttestation,
    reader_id: bytes,
    root_id: bytes,
    now: int,
    deltas: Deltas,
    expected_length: int | None,
    backend,
) -> bool:
    """Full validity check of an attestation for one reader at one time:
    ``is_valid_chain``, then that the final signature covers the reader's
    own ID."""
    return is_valid_chain(att, root_id, now, deltas, expected_length) and \
        att.binds_reader(reader_id, backend)


def is_valid_link(
    att: LevelAttestation,
    my_nid_for_sender: bytes | None,
    link_sig: Signature | None,
    backend,
) -> bool:
    """Check the link signature binding ``att`` to this particular edge.

    ``my_nid_for_sender`` is the neighbor ID the *reader* assigned to the
    sending neighbor; the signature must verify under the attestation's final
    key.  Empty attestations have no final key and always fail.
    """
    if len(att.tuples) == 0 or link_sig is None:
        return False
    return backend.verify_link(att.tuples[-1].p, my_nid_for_sender, att, link_sig)


def is_consistent(
    att: LevelAttestation,
    graph,
    key_directory: dict[bytes, int],
    reader: int,
    malicious: frozenset[int] | set[int],
    reader_id: bytes,
    root_id: bytes,
    now: int,
    deltas: Deltas,
    backend,
) -> bool:
    """Testing oracle: does this attestation reflect a real chain of edges?

    An invalid attestation is consistent by definition.  A valid one is
    consistent iff its key sequence walks the overlay, where each consecutive
    key pair must share an edge or a common malicious neighbor (a malicious
    node can copy one neighbor's output to another, splicing the two honest
    endpoints together without appearing in the chain itself), and the reader
    must likewise neighbor the final node directly or through a malicious
    node.  Keys not mapping to any node in the run make the attestation
    inconsistent.
    """
    if not is_valid_att(att, reader_id, root_id, now, deltas, None, backend):
        return True
    nodes = []
    for tup in att:
        idx = key_directory.get(tup.p)
        if idx is None:
            return False
        nodes.append(idx)
    adj = graph.adjacency_sets

    def linked(a: int, b: int) -> bool:
        if b in adj[a]:
            return True
        return any(a in adj[bad] and b in adj[bad] for bad in malicious)

    for a, b in zip(nodes, nodes[1:]):
        if not linked(a, b):
            return False
    return linked(nodes[-1], reader)
