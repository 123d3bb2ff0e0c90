"""The collective adversary: attack-edge placement and attack behaviors.

All colluding malicious nodes are collapsed into a single node ``m`` wired to
a budget of honest neighbors sampled proportionally to degree.  Three
behaviors are implemented:

* ``CHEAT_MIN_LEVEL`` -- the level-minimizing relay.  The adversary shows a
  victim's identity (and the neighbor ID the victim assigned to the
  adversary) to its best-placed honest neighbor, which then unknowingly signs
  a chain terminating at the victim.  Forwarding that material verbatim gives
  the victim a valid chain one hop shorter than any the adversary could build
  itself: the adversary poses as its own predecessor.
* ``HONEST_MIN_LEVEL`` -- follows the honest protocol faithfully with its own
  key, so every offer it makes is one level worse than the cheating relay.
* ``DISTURB`` -- alternates each round between the cheating offers and
  withdrawn (invalid) outputs, maximizing parent flapping in its reach.

The relay never signs with honest secrets: every signature it emits was read
verbatim from one of its input registers.  Because a register carries one
identity per round, the adversary presents victims to its minimal-level
neighbors in rotation and caches the harvested material per victim; caches
are re-validated before every delivery so expired chains are withdrawn, and
re-harvested continuously to defeat the freshness windows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from random import Random

import numpy as np

from .attestation import Deltas, LevelAttestation, is_valid_att, is_valid_link
from .crypto import KeyPair, Signature
from .graph import Graph
from .protocol import (
    NID_BYTES,
    NodeState,
    ProtocolKind,
    RegisterContent,
    step_honest_attested,
    step_honest_baseline,
)


class AdversaryBehavior(enum.Enum):
    DISTURB = "disturb"
    CHEAT_MIN_LEVEL = "cheat"
    HONEST_MIN_LEVEL = "honest"


@dataclass(frozen=True, slots=True)
class AdversaryConfig:
    behavior: AdversaryBehavior


@dataclass(slots=True)
class CachedOffer:
    att: LevelAttestation
    link_sig: Signature
    level: int
    claimed_id: bytes


@dataclass(slots=True)
class AdversaryState:
    """Mutable adversary bookkeeping, owned by the run scheduler."""

    node: int
    keys: KeyPair
    assigned_nids: tuple[bytes, ...]
    cache: dict[int, CachedOffer] = field(default_factory=dict)
    presented: dict[int, int] = field(default_factory=dict)
    rotation: int = 0
    honest_state: NodeState | None = None


def attack_victims(g: Graph, num_edges: int, seed: int) -> list[int]:
    """The ``num_edges`` honest nodes the collective adversary attaches to,
    in ascending order.

    Honest neighbors are sampled without replacement with probability
    proportional to their degree (well-connected users are the likelier
    social-engineering targets).  Deterministic per seed.
    """
    if num_edges < 1:
        raise ValueError("need at least one attack edge")
    if num_edges > g.n:
        raise ValueError("more attack edges than honest nodes")
    weights = g.degrees.astype(np.float64)
    eligible = int((weights > 0).sum())
    if num_edges > eligible:
        raise ValueError("not enough connected honest nodes to attach to")
    cum = np.cumsum(weights)
    total = float(cum[-1])
    rng = Random(seed)
    chosen: set[int] = set()
    while len(chosen) < num_edges:
        r = rng.random() * total
        idx = int(np.searchsorted(cum, r, side="right"))
        if idx < g.n:
            chosen.add(idx)
    return sorted(chosen)


def place_attack_edges(g: Graph, num_edges: int, seed: int) -> tuple[Graph, int]:
    """The overlay with the adversary attached to ``attack_victims(g,
    num_edges, seed)``, and the index of the adversary node."""
    return g.with_added_node(attack_victims(g, num_edges, seed)), g.n


def make_adversary_state(
    cfg: AdversaryConfig,
    node: int,
    neighbor_count: int,
    keys: KeyPair,
    rng: Random,
) -> AdversaryState:
    nids = tuple(
        rng.getrandbits(8 * NID_BYTES).to_bytes(NID_BYTES, "big")
        for _ in range(neighbor_count)
    )
    honest_state = None
    if cfg.behavior is AdversaryBehavior.HONEST_MIN_LEVEL:
        from .protocol import InitMode, init_node

        honest_state = init_node(keys, neighbor_count, rng, InitMode.CLEAN)
    return AdversaryState(node=node, keys=keys, assigned_nids=nids,
                          honest_state=honest_state)


def _withdrawn(state: AdversaryState, k: int) -> RegisterContent:
    return RegisterContent(id=state.keys.public, nid=state.assigned_nids[k])


def _plausible_claim(reg: RegisterContent, root_id: bytes, now: int, deltas: Deltas) -> bool:
    """Reader-independent screening of a neighbor's advertised chain."""
    if reg.level is None or reg.level < 0 or reg.att is None:
        return False
    att = reg.att
    return (
        len(att) == reg.level + 1
        and att.head == root_id
        and att.chain_ok
        and now <= deltas.c + att.expiry_base(deltas.step)
    )


def adversary_step(
    cfg: AdversaryConfig,
    state: AdversaryState,
    inputs: list[RegisterContent],
    now: int,
    round_idx: int,
    protocol_kind: ProtocolKind,
    deltas: Deltas,
    root_id: bytes,
    backend,
) -> list[RegisterContent]:
    """Compute the adversary's register writes for this round.

    ``inputs`` are the registers the honest neighbors wrote toward the
    adversary this very round: a byzantine node's read-process-write cycle is
    not limited by the honest loop and propagation bounds, so it relays the
    freshest material available.  Mutates ``state`` (caches, rotation,
    embedded honest state).
    """
    deg = len(inputs)
    cheat_phase = cfg.behavior is not AdversaryBehavior.DISTURB or round_idx % 2 == 0

    if cfg.behavior is AdversaryBehavior.HONEST_MIN_LEVEL:
        assert state.honest_state is not None
        if protocol_kind is ProtocolKind.ATTESTED:
            state.honest_state, outs = step_honest_attested(
                state.honest_state, inputs, now, deltas, root_id, backend
            )
        else:
            state.honest_state, outs = step_honest_baseline(
                state.honest_state, inputs, root_id
            )
        return outs

    if protocol_kind is ProtocolKind.BASELINE:
        if cheat_phase:
            return [
                RegisterContent(id=root_id, level=0, nid=state.assigned_nids[k])
                for k in range(deg)
            ]
        return [_withdrawn(state, k) for k in range(deg)]

    # attested relay: harvest what last round's presentations produced
    for src, victim in state.presented.items():
        reg = inputs[src]
        if reg.att is None or reg.link_sig is None or reg.level is None:
            continue
        victim_reg = inputs[victim]
        if victim_reg.id is None:
            continue
        if not is_valid_att(reg.att, victim_reg.id, root_id, now, deltas,
                            reg.level + 1, backend):
            continue
        if not is_valid_link(reg.att, victim_reg.nid, reg.link_sig, backend):
            continue
        old = state.cache.get(victim)
        terminal = reg.att.tuples[-1].p
        if (
            old is None
            or len(reg.att) < len(old.att)
            # keep the terminal key stable across refreshes unless the held
            # offer cannot be delivered anymore anyway
            or (len(reg.att) == len(old.att) and terminal == old.claimed_id)
            or not is_valid_att(old.att, victim_reg.id, root_id, now + deltas.step,
                                deltas, old.level + 1, backend)
        ):
            state.cache[victim] = CachedOffer(
                att=reg.att,
                link_sig=reg.link_sig,
                level=reg.level,
                claimed_id=terminal,
            )

    # pick harvest sources (minimal-level neighbors) and rotate presentations;
    # each victim is pinned to one source so its refreshed material always
    # terminates at the same key and its parent identity stays stable
    claims = {
        k: inputs[k].level
        for k in range(deg)
        if _plausible_claim(inputs[k], root_id, now, deltas)
    }
    state.presented = {}
    if claims:
        best = min(claims.values())  # type: ignore[arg-type]
        sources = [k for k, lvl in claims.items() if lvl == best]
        victims = [k for k in range(deg) if k not in sources]
        if victims:
            for i, src in enumerate(sources):
                subset = victims[i :: len(sources)]
                if subset:
                    state.presented[src] = subset[state.rotation % len(subset)]
            state.rotation += 1

    outputs: list[RegisterContent] = []
    for k in range(deg):
        if k in state.presented:
            victim = state.presented[k]
            outputs.append(
                RegisterContent(id=inputs[victim].id, nid=inputs[victim].nid)
            )
            continue
        offer = state.cache.get(k)
        if (
            cheat_phase
            and offer is not None
            and inputs[k].id is not None
            # deliver only what will still verify when the victim reads it
            and is_valid_att(offer.att, inputs[k].id, root_id, now + deltas.step,
                             deltas, offer.level + 1, backend)
        ):
            outputs.append(
                RegisterContent(
                    id=offer.claimed_id,
                    level=offer.level,
                    att=offer.att,
                    nid=state.assigned_nids[k],
                    link_sig=offer.link_sig,
                )
            )
        else:
            outputs.append(_withdrawn(state, k))
    return outputs
