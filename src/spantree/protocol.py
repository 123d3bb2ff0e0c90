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
"""

from __future__ import annotations

import enum
from random import Random
from typing import NamedTuple

from .attestation import Deltas, LevelAttestation, extend_each, is_valid_att, is_valid_link
from .crypto import KeyPair, Signature

NID_BYTES = 8


class ProtocolKind(enum.Enum):
    ATTESTED = "attested"
    BASELINE = "baseline"


class InitMode(enum.Enum):
    CLEAN = "clean"
    ADVERSARIAL = "adversarial"


class RegisterContent(NamedTuple):
    """One shared register: what a writer last published toward one neighbor.

    ``nid`` is the neighbor ID the writer assigned to the reader.  The
    attestation carried here is the writer's extended chain (one tuple longer
    than the writer's own level); readers enforce length = claimed level + 1.
    """

    id: bytes | None = None
    level: int | None = None
    att: LevelAttestation | None = None
    nid: bytes | None = None
    link_sig: Signature | None = None


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
    first step normalizes them.  Neighbor IDs are sampled fresh either way,
    distinct per neighbor.
    """
    nids: list[bytes] = []
    seen = set()
    while len(nids) < neighbor_count:
        cand = rng.getrandbits(8 * NID_BYTES).to_bytes(NID_BYTES, "big")
        if cand not in seen:
            seen.add(cand)
            nids.append(cand)
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
        assigned_nids=tuple(nids),
        is_root=is_root,
    )


def _select_parent(
    state: NodeState,
    inputs: list[RegisterContent],
    valid: set[int],
    deg: int,
    i_start: int,
) -> tuple[int, int, int]:
    """Scan from i_start for the first valid minimal neighbor.

    Returns (level, prnt, i_start) after the adaptive-preference update: when
    the chosen index comes after the old parent in scan order, the scan start
    moves to it, so the new parent is favored from then on.
    """
    min_level = None
    for j in valid:
        lvl = inputs[j].level
        if min_level is None or lvl < min_level:
            min_level = lvl
    level = min_level + 1  # type: ignore[operator]
    prnt = state.prnt
    for off in range(deg):
        j = (i_start + off) % deg
        if j in valid and inputs[j].level == min_level:
            if j != prnt and _prec_raw(prnt, j, i_start):
                i_start = j
            prnt = j
            break
    return level, prnt, i_start


def step_honest_attested(
    state: NodeState,
    inputs: list[RegisterContent],
    now: int,
    deltas: Deltas,
    root_id: bytes,
    backend,
) -> tuple[NodeState, list[RegisterContent]]:
    """One loop iteration of the attestation-based protocol (pure).

    ``inputs`` is the node's view of each neighbor's register, indexed by the
    node's neighbor numbering; ``now`` is this node's current clock reading,
    also used as the timestamp of every tuple it signs this round.
    """
    deg = len(inputs)
    i_start = state.i_start % deg if deg else 0
    my_id = state.keys.public

    if state.is_root:
        new = NodeState(state.keys, 0, my_id, state.prnt, i_start,
                        LevelAttestation.empty(), state.assigned_nids, True)
    else:
        valid: set[int] = set()
        for j, reg in enumerate(inputs):
            lvl = reg.level
            if lvl is None or lvl < 0 or reg.att is None:
                continue
            if is_valid_att(reg.att, my_id, root_id, now, deltas, lvl + 1, backend) and \
                    is_valid_link(reg.att, state.assigned_nids[j], reg.link_sig, backend):
                valid.add(j)
        if not valid:
            new = NodeState(state.keys, None, my_id, state.prnt, i_start,
                            LevelAttestation.empty(), state.assigned_nids, False)
        else:
            level, prnt, i_start = _select_parent(state, inputs, valid, deg, i_start)
            adopted = inputs[prnt]
            new = NodeState(
                state.keys, level,
                adopted.id if adopted.id is not None else my_id,
                prnt, i_start,
                adopted.att,  # type: ignore[arg-type]
                state.assigned_nids, False,
            )

    nids = new.assigned_nids
    if new.level is None:
        return new, [RegisterContent(id=my_id, nid=nid) for nid in nids]
    att = new.level_att
    if att.tuples:
        # the previous-hop signature check is identical for every
        # neighbor: it binds this node's own key (same check as the
        # reader-binding condition evaluated when the chain was adopted)
        chain_hint = att.chain_ok and att.binds_reader(my_id, backend)
    else:
        chain_hint = True
    extended = extend_each(att, new.keys, [(reg.id, reg.nid) for reg in inputs],
                           now, backend, deltas.step, chain_hint)
    return new, [RegisterContent(my_id, new.level, ex_att, nid, link_sig)
                 for (ex_att, link_sig), nid in zip(extended, nids)]


def step_honest_baseline(
    state: NodeState,
    inputs: list[RegisterContent],
    root_id: bytes,
) -> tuple[NodeState, list[RegisterContent]]:
    """One loop iteration of the non-cryptographic baseline (pure).

    Validity degenerates to "the advertised level is a non-negative integer";
    parent selection and the adaptive preference are identical to the
    attested step.
    """
    deg = len(inputs)
    i_start = state.i_start % deg if deg else 0
    my_id = state.keys.public

    if state.is_root:
        new = NodeState(state.keys, 0, my_id, state.prnt, i_start,
                        state.level_att, state.assigned_nids, True)
    else:
        valid = {j for j, reg in enumerate(inputs)
                 if reg.level is not None and reg.level >= 0}
        if not valid:
            new = NodeState(state.keys, None, my_id, state.prnt, i_start,
                            state.level_att, state.assigned_nids, False)
        else:
            level, prnt, i_start = _select_parent(state, inputs, valid, deg, i_start)
            adopted = inputs[prnt]
            new = NodeState(
                state.keys, level,
                adopted.id if adopted.id is not None else my_id,
                prnt, i_start,
                state.level_att, state.assigned_nids, False,
            )

    outputs = [
        RegisterContent(id=my_id, level=new.level, nid=new.assigned_nids[k])
        for k in range(deg)
    ]
    return new, outputs
