"""Honest-node state machines over the shared-register model.

Two protocols share one control flow: the attestation-based construction
(level chains checked by ``is_valid_att`` / ``is_valid_link``) and the
non-cryptographic baseline, where any non-negative advertised level counts
as valid and the root is recognized by its ID alone.  The baseline is a
reconstruction: it reuses the same adaptive neighbor preference, and the
campaign layer cross-checks its lost set against the analytic formula
rather than against any external implementation.

Levels use ``None`` as the "no distance known" sentinel.  A node whose
neighborhood offers nothing valid becomes an orphan: level None, parent
pointer to itself, and outputs that every reader rejects.

Both ends of an attested round are lazy.  A reader checks its neighbors'
offers from the lowest claimed level up and stops at the first valid one,
so offers above the adopted level are never verified.  A writer computes
the shared part of its extensions once (an ``Extender``, whose check of the
previous hop is the reader binding the node verified, and memoized, when it
adopted the chain) and writes one ``WriteRecord`` per round: its ID, level,
``Extender`` and assigned neighbor IDs.  A reader resolves its neighbor's
register from (record, arc position); the register's attestation and link
signature are signed when first read, and most are never read.
"""

from __future__ import annotations

import enum
from random import Random
from typing import Callable, NamedTuple, Sequence

from .attestation import Deltas, Extender, LevelAttestation, is_valid_att, is_valid_link
from .crypto import KeyPair, Signature

NID_BYTES = 8


class ProtocolKind(enum.Enum):
    ATTESTED = "attested"
    BASELINE = "baseline"


class InitMode(enum.Enum):
    CLEAN = "clean"
    ADVERSARIAL = "adversarial"


class RegisterContent:
    """One shared register: what a writer shows one neighbor in one round.

    ``nid`` is the neighbor ID the writer assigned to the reader.  The
    attestation carried here is the writer's extended chain (one tuple longer
    than the writer's own level); readers enforce length = claimed level + 1.

    A register materialised by ``WriteRecord.register`` from a record with
    an ``Extender`` holds the record and the (ID, neighbor ID) pair its
    extension is signed for in place of ``att`` and ``link_sig``, and signs
    both on the first read of either.  The record is of the register's own
    round, so no register refers to an older round's.  Equality and hashing
    read all five fields.
    """

    __slots__ = ("id", "level", "nid", "_att", "_link_sig", "_rec", "_to", "_to_nid")

    def __init__(
        self,
        id: bytes | None = None,
        level: int | None = None,
        att: LevelAttestation | None = None,
        nid: bytes | None = None,
        link_sig: Signature | None = None,
    ):
        self.id = id
        self.level = level
        self.nid = nid
        self._att = att
        self._link_sig = link_sig
        self._rec = None

    def _build(self) -> None:
        rec: WriteRecord = self._rec  # type: ignore[assignment]
        self._att, self._link_sig = rec.ext.toward(self._to, self._to_nid)  # type: ignore[union-attr]
        rec.built += 1
        self._rec = None

    @property
    def att(self) -> LevelAttestation | None:
        if self._rec is not None:
            self._build()
        return self._att

    @property
    def link_sig(self) -> Signature | None:
        if self._rec is not None:
            self._build()
        return self._link_sig

    def stamped_after(self, t: int) -> bool:
        """Whether the register carries a chain holding a tuple stamped later
        than ``t``; a register not yet signed answers without signing."""
        rec = self._rec
        if rec is not None:
            return rec.ext.stamped_after(t)
        return self._att is not None and self._att.stamped_after(t)

    def _values(self) -> tuple:
        return (self.id, self.level, self.att, self.nid, self.link_sig)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegisterContent):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return ("RegisterContent(id={!r}, level={!r}, att={!r}, nid={!r}, "
                "link_sig={!r})".format(*self._values()))


_new_object = object.__new__


class WriteRecord:
    """What one node writes in one round, toward all its neighbors at once.

    ``ext`` is the node's ``Extender`` (None for an orphan or a baseline
    write) and ``nids[p]`` the neighbor ID it assigned to its neighbor at arc
    position p.  Its extension toward that neighbor is signed for the
    (ID, neighbor ID) pair it read from the neighbor in the previous round.
    Where that was a record, the pair is the neighbor's own ID and assigned
    neighbor ID, which the reader supplies; ``targets`` holds the pairs read
    from explicit registers (None at the arcs read from a record, and
    ``targets`` None when every arc was).

    ``made`` and ``built`` count the registers materialised from the record
    and those of them that signed.
    """

    __slots__ = ("id", "level", "ext", "nids", "targets", "made", "built")

    def __init__(self, id: bytes, level: int | None, ext: Extender | None,
                 nids: tuple[bytes, ...], targets: tuple | None = None):
        self.id = id
        self.level = level
        self.ext = ext
        self.nids = nids
        self.targets = targets
        self.made = 0
        self.built = 0

    def register(self, p: int, reader_id: bytes | None,
                 reader_nid: bytes | None) -> RegisterContent:
        """The register shown to the neighbor at arc position ``p``, whose
        own ID is ``reader_id`` and who assigned this writer ``reader_nid``.

        Made without ``RegisterContent.__init__`` when it holds an
        extension: ``_att`` and ``_link_sig`` are first read after
        ``_build`` sets them.
        """
        self.made += 1
        ext = self.ext
        if ext is None:
            return RegisterContent(id=self.id, level=self.level, nid=self.nids[p])
        targets = self.targets
        if targets is not None and targets[p] is not None:
            reader_id, reader_nid = targets[p]
        reg = _new_object(RegisterContent)
        reg.id = self.id
        reg.level = self.level
        reg.nid = self.nids[p]
        reg._rec = self
        reg._to = reader_id
        reg._to_nid = reader_nid
        return reg

    def all_stamped_after(self, t: int) -> bool:
        """Whether every chain the record's registers carry holds a tuple
        stamped later than ``t`` (true when they carry none), answered
        without signing."""
        return self.ext is None or self.ext.stamped_after(t)


class NodeState(NamedTuple):
    """One honest node's protocol variables."""

    keys: KeyPair
    level: int | None
    pid: bytes
    prnt: int
    i_start: int
    level_att: LevelAttestation
    assigned_nids: tuple[bytes, ...]
    is_root: bool


def prec(a: int, b: int, i_start: int) -> bool:
    """Neighbor-preference order: does position ``a`` come before ``b`` when
    counting from ``i_start`` with wraparound?

    Defined only for a != b with both indices in range; equal positions are
    a contract violation because the relation is irreflexive.
    """
    if a == b:
        raise ValueError("prec is irreflexive; positions must differ")
    return _prec_raw(a, b, i_start)


def _prec_raw(a: int, b: int, i_start: int) -> bool:
    # three-case disjunction; false for a == b and for wrapped-vs-unwrapped
    # pairs where b is reached first
    return (i_start <= a < b) or (b < i_start <= a) or (a < b < i_start)


def draw_nids(rng: Random, count: int) -> tuple[bytes, ...]:
    """``count`` random neighbor IDs, distinct per neighbor."""
    nids: list[bytes] = []
    seen = set()
    while len(nids) < count:
        cand = rng.getrandbits(8 * NID_BYTES).to_bytes(NID_BYTES, "big")
        if cand not in seen:
            seen.add(cand)
            nids.append(cand)
    return tuple(nids)


def init_node(
    keys: KeyPair,
    neighbor_count: int,
    rng: Random,
    mode: InitMode = InitMode.CLEAN,
    is_root: bool = False,
    max_level: int | None = None,
) -> NodeState:
    """Draw a node's initial state.

    CLEAN gives the orphan state (no distance, no attestation).  ADVERSARIAL
    draws arbitrary but type-valid values, including parent pointers that may
    be out of range (a node whose numbered neighbor left the overlay); the
    first step normalizes them.  Neighbor IDs are sampled fresh either way
    (``draw_nids``).
    """
    nids = draw_nids(rng, neighbor_count)
    if mode is InitMode.CLEAN:
        level: int | None = None
        prnt = 0
        i_start = 0
    else:
        cap = max_level if max_level is not None else max(neighbor_count, 4)
        level = None if rng.random() < 0.25 else rng.randint(0, cap)
        prnt = rng.randint(0, 2 * max(neighbor_count, 1))
        i_start = rng.randint(0, 3 * max(neighbor_count, 1))
    return NodeState(
        keys=keys,
        level=level,
        pid=keys.public,
        prnt=prnt,
        i_start=i_start,
        level_att=LevelAttestation.empty(),
        assigned_nids=nids,
        is_root=is_root,
    )


def valid_offer(
    reg: RegisterContent,
    reader_id: bytes,
    reader_nid: bytes | None,
    root_id: bytes,
    now: int,
    deltas: Deltas,
    backend,
) -> bool:
    """Whether ``reg`` is a valid offer for the reader ``reader_id``, which
    assigned the writer the neighbor ID ``reader_nid``: its chain is valid
    for the reader at ``now`` with length claimed level + 1, and its link
    signature binds the chain to that neighbor ID."""
    att = reg.att
    return att is not None and reg.level is not None and \
        is_valid_att(att, reader_id, root_id, now, deltas, reg.level + 1, backend) and \
        is_valid_link(att, reader_nid, reg.link_sig, backend)


def _next_state(
    state: NodeState,
    inputs: Sequence[RegisterContent | WriteRecord],
    offer: Callable[[int], LevelAttestation | None],
) -> NodeState:
    """The state update both protocols share, given ``offer(j)``: the chain
    of neighbor ``j``'s offer when the node accepts it, else None.

    The root stays at level 0 and checks nothing.  Any other node tries the
    offers that claim a level >= 0, from the lowest claimed level up and in
    scan order from i_start within a level, and adopts the first one it
    accepts, with its identity and chain: that is the first valid minimal
    neighbor, and no offer above its level is checked.  A node that accepts
    nothing becomes an orphan.  When the chosen index comes after the old
    parent in scan order, the scan start moves to it, so the new parent is
    favored from then on (the adaptive preference).
    """
    deg = len(inputs)
    i_start = state.i_start % deg if deg else 0
    my_id = state.keys.public
    floor = -1  # every offer claiming a level <= floor has been refused
    while not state.is_root:
        lvl = None
        for w in inputs:
            claim = w.level
            if claim is not None and claim > floor and (lvl is None or claim < lvl):
                lvl = claim
        if lvl is None:
            break
        for off in range(deg):
            j = (i_start + off) % deg
            if inputs[j].level == lvl:
                att = offer(j)
                if att is None:
                    continue
                prnt = state.prnt
                if j != prnt and _prec_raw(prnt, j, i_start):
                    i_start = j
                pid = inputs[j].id
                return NodeState(
                    state.keys, lvl + 1, pid if pid is not None else my_id,
                    j, i_start, att, state.assigned_nids, False,
                )
        floor = lvl
    level = 0 if state.is_root else None
    return NodeState(state.keys, level, my_id, state.prnt, i_start,
                     LevelAttestation.empty(), state.assigned_nids, state.is_root)


def _read(
    inputs: Sequence[RegisterContent | WriteRecord],
    positions: Sequence[int] | None,
    j: int,
    state: NodeState,
) -> RegisterContent:
    """The register the node with ``state`` reads from its neighbor ``j``."""
    w = inputs[j]
    if type(w) is WriteRecord:
        return w.register(positions[j], state.keys.public,  # type: ignore[index]
                          state.assigned_nids[j])
    return w  # type: ignore[return-value]


def step_honest_attested(
    state: NodeState,
    inputs: Sequence[RegisterContent | WriteRecord],
    now: int,
    deltas: Deltas,
    root_id: bytes,
    backend,
    positions: Sequence[int] | None = None,
) -> tuple[NodeState, WriteRecord]:
    """One loop iteration of the attestation-based protocol.

    ``inputs[j]`` is what the node reads from its j-th neighbor, in the
    node's neighbor numbering: a register, or the neighbor's last
    ``WriteRecord``, in which this node sits at arc position
    ``positions[j]``.  ``now`` is this node's current clock reading, also
    used as the timestamp of every tuple it signs this round.  An offer is
    accepted when it is a ``valid_offer`` for this node.  Returns the new
    state and the node's write; its registers sign their chains when first
    read.  Apart from the read counts of the records in ``inputs``, nothing
    is mutated.
    """
    my_id = state.keys.public
    my_nids = state.assigned_nids

    def offer(j: int) -> LevelAttestation | None:
        reg = _read(inputs, positions, j, state)
        if valid_offer(reg, my_id, my_nids[j], root_id, now, deltas, backend):
            return reg.att
        return None

    new = _next_state(state, inputs, offer)
    nids = new.assigned_nids
    if new.level is None:
        return new, WriteRecord(my_id, None, None, nids)
    targets = None
    if RegisterContent in map(type, inputs):
        targets = tuple(None if type(w) is WriteRecord else (w.id, w.nid) for w in inputs)
    ext = Extender(new.level_att, new.keys, now, backend, deltas.step)
    return new, WriteRecord(my_id, new.level, ext, nids, targets)


def step_honest_baseline(
    state: NodeState,
    inputs: Sequence[RegisterContent | WriteRecord],
    positions: Sequence[int] | None = None,
) -> tuple[NodeState, WriteRecord]:
    """One loop iteration of the non-cryptographic baseline, with the
    inputs of ``step_honest_attested``.

    Validity degenerates to "the advertised level is a non-negative integer",
    which ``_next_state`` already requires, so every such offer is accepted;
    the state update is the attested step's.
    """
    def offer(j: int) -> LevelAttestation:
        att = _read(inputs, positions, j, state).att
        return att if att is not None else LevelAttestation.empty()

    new = _next_state(state, inputs, offer)
    return new, WriteRecord(state.keys.public, new.level, None, new.assigned_nids)
