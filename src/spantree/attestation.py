"""Level attestations: signed chains proving a path of a claimed length
from the root, plus the validity predicates and the consistency oracle.

An attestation is a sequence of (public key, timestamp, signature) tuples.
Each signature covers the *next* hop's ID together with the signer's
timestamp, and the final signature covers the reader's own ID, so a chain is
only acceptable to the single node it was built for.  A separate link
signature binds the whole chain to the receiver-assigned neighbor ID, which
stops a relay from presenting a shortened chain.

Validation cost matters (campaigns validate millions of chains), so each
attestation caches everything that does not depend on the reader or the
current time: the head key, internal chain-signature validity, and a
freshness aggregate.  All caches are maintained in O(1) per appended tuple.
An ``Extender`` computes once what a node's extensions of one chain at one
time share; each target's extension and link signature cost two signatures,
made by ``Extender.toward`` when that target's extension is first needed.
The chain digest and the canonical serialization are materialized only on
demand.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

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

    The chain digest is rolling: each record is absorbed into the digest of
    the chain before it, so two chains agree on the digest iff they agree on
    every canonical record.  ``appended`` computes it eagerly from the
    parent's; ``Extender.toward`` leaves it to the first read of ``digest``.
    """

    __slots__ = ("tuples", "head", "chain_ok", "_bytes", "_digest",
                 "_exp_step", "_exp_val", "_c4_reader", "_c4_ok",
                 "_link_sig", "_link_nid", "_link_ok")

    def __init__(self, tuples, head, chain_ok, dig, exp_step, exp_val):
        self.tuples: tuple[AttTuple, ...] = tuples
        self.head: bytes | None = head
        self.chain_ok: bool = chain_ok
        self._bytes: bytes | None = None
        self._digest: bytes | None = dig
        self._exp_step: int | None = exp_step
        self._exp_val: int | None = exp_val
        self._c4_reader: bytes | None = None
        self._c4_ok = False
        self._link_sig = None
        self._link_nid: bytes | None = None
        self._link_ok = False

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
        """Rebuild an attestation (and all caches) from raw tuples."""
        att = _EMPTY
        for p, t, sig in tuples:
            att = att.appended(AttTuple(p, t, sig), backend)
        return att

    def appended(
        self, tup: AttTuple, backend,
        step: int | None = None, chain_hint: bool | None = None,
    ) -> "LevelAttestation":
        """One-tuple extension; all caches update in constant time.

        ``chain_hint`` short-circuits the internal-signature check when the
        caller has already verified the previous tuple against the new key;
        ``step`` propagates the freshness aggregate when the parent's cache
        matches.
        """
        head, chain_ok, exp_step, exp_val = self._next_caches(
            tup.p, tup.t, backend, step, chain_hint)
        return LevelAttestation(self.tuples + (tup,), head, chain_ok,
                                digest(self.digest + _record(tup)), exp_step, exp_val)

    def _next_caches(self, p: bytes, t: int, backend, step, chain_hint):
        """(head, chain_ok, freshness step, freshness value) of every
        one-tuple extension by key ``p`` at time ``t``."""
        n = len(self.tuples)
        if n == 0:
            chain_ok = True
        elif chain_hint is not None:
            chain_ok = chain_hint
        else:
            last = self.tuples[-1]
            chain_ok = self.chain_ok and backend.verify_level(last.p, p, last.t, last.sig)
        exp_step = exp_val = None
        if step is not None:
            if n == 0:
                exp_step, exp_val = step, t + step
            elif self._exp_step == step:
                exp_step = step
                exp_val = min(self._exp_val + step, t + step)  # type: ignore[operator]
        return (self.head if n else p), chain_ok, exp_step, exp_val

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

    def to_bytes(self) -> bytes:
        if self._bytes is None:
            self._bytes = b"".join(_record(t) for t in self.tuples)
        return self._bytes

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
_EMPTY = LevelAttestation((), None, True, _EMPTY_DIGEST, None, None)


def attestation_from_bytes(data: bytes, backend) -> LevelAttestation:
    """Inverse of ``LevelAttestation.to_bytes``."""
    tuples = []
    off = 0
    view = memoryview(data)
    while off < len(data):
        (klen,) = _U32.unpack_from(view, off)
        off += 4
        p = bytes(view[off : off + klen])
        off += klen
        (t,) = _U64.unpack_from(view, off)
        off += 8
        (slen,) = _U32.unpack_from(view, off)
        off += 4
        sig = Signature.from_bytes(bytes(view[off : off + slen]))
        off += slen
        tuples.append(AttTuple(p, t, sig))
    return LevelAttestation.from_tuples(tuples, backend)


def extend(
    level_att: LevelAttestation,
    signer: KeyPair,
    target_id: bytes | None,
    target_assigned_nid: bytes | None,
    ts: int,
    backend,
    step: int | None = None,
    chain_hint: bool | None = None,
) -> tuple[LevelAttestation, Signature]:
    """Append the signer's tuple for one neighbor and bind it to the link.

    Returns the extended attestation together with the link signature over
    the neighbor ID the target assigned to the signer.  Extending the empty
    attestation yields a length-1 chain (the root case).
    """
    return Extender(level_att, signer, ts, backend, step, chain_hint).toward(
        target_id, target_assigned_nid)


def extend_each(
    level_att: LevelAttestation,
    signer: KeyPair,
    targets: Iterable[tuple[bytes | None, bytes | None]],
    ts: int,
    backend,
    step: int | None = None,
    chain_hint: bool | None = None,
) -> list[tuple[LevelAttestation, Signature]]:
    """``extend`` toward each (target ID, target-assigned neighbor ID) pair
    of ``targets``, in order, sharing one ``Extender``."""
    ext = Extender(level_att, signer, ts, backend, step, chain_hint)
    return [ext.toward(target_id, nid) for target_id, nid in targets]


class Extender:
    """What every one-tuple extension of ``level_att`` by ``signer`` at time
    ``ts`` shares: the chain head, ``chain_ok`` and the freshness aggregate,
    computed once.  ``toward`` builds one target's extension from them for
    the cost of two signatures; the digest waits for its first read.

    Holds the chain's tuples, not the attestation, and no target's data.
    """

    __slots__ = ("tuples", "pub", "secret", "ts", "backend",
                 "head", "chain_ok", "exp_step", "exp_val")

    def __init__(self, level_att: LevelAttestation, signer: KeyPair, ts: int, backend,
                 step: int | None = None, chain_hint: bool | None = None):
        self.tuples = level_att.tuples
        self.pub = signer.public
        self.secret = signer.secret
        self.ts = ts
        self.backend = backend
        self.head, self.chain_ok, self.exp_step, self.exp_val = level_att._next_caches(
            signer.public, ts, backend, step, chain_hint)

    def toward(self, target_id: bytes | None,
               nid: bytes | None) -> tuple[LevelAttestation, Signature]:
        """The extension signed for ``target_id`` and its link signature over
        ``nid``, the neighbor ID the target assigned to the signer."""
        secret, ts, backend = self.secret, self.ts, self.backend
        att = LevelAttestation(
            self.tuples + (AttTuple(self.pub, ts, backend.sign_level(secret, target_id, ts)),),
            self.head, self.chain_ok, None, self.exp_step, self.exp_val)
        return att, backend.sign_link(secret, nid, att)


def is_valid_att(
    att: LevelAttestation,
    reader_id: bytes,
    root_id: bytes,
    now: int,
    deltas: Deltas,
    expected_length: int | None,
    backend,
) -> bool:
    """Full validity check of an attestation for one reader at one time.

    Checks, in order: the claimed length (when ``expected_length`` is given),
    the root head, per-tuple freshness windows, the internal signature chain,
    and that the final signature covers the reader's own ID.  Empty chains are
    always rejected: only the root itself holds the empty attestation, and an
    honest neighbor appends its own tuple before writing.
    """
    n = len(att.tuples)
    if expected_length is not None and n != expected_length:
        return False
    if n == 0:
        return False
    if att.head != root_id:
        return False
    if now > deltas.c + att.expiry_base(deltas.step):
        return False
    if not att.chain_ok:
        return False
    return att.binds_reader(reader_id, backend)


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
    if att._link_sig is link_sig and att._link_nid == my_nid_for_sender:
        return att._link_ok
    ok = backend.verify_link(att.tuples[-1].p, my_nid_for_sender, att, link_sig)
    # only eager signatures are memoized: a lazy one holds its attestation,
    # so keeping it here could close the cycle att -> signature -> att
    if link_sig.link is None:
        att._link_sig = link_sig
        att._link_nid = my_nid_for_sender
        att._link_ok = ok
    return ok


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
