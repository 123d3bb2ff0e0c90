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
neighbors in rotation and holds one harvested chain and link signature per
victim.  The offer is read off the chain: its length less one is the level
and its last key the identity claimed.  A held chain is re-validated before
every delivery so expired chains are withdrawn, and re-harvested
continuously to defeat the freshness windows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from random import Random

import numpy as np

from .attestation import Deltas, LevelAttestation, is_valid_att, is_valid_chain
from .crypto import KeyPair, Signature
from .graph import Graph
from .protocol import (
    InitMode,
    NodeState,
    ProtocolKind,
    RegisterContent,
    WriteRecord,
    draw_nids,
    init_node,
    step_honest_attested,
    step_honest_baseline,
    valid_offer,
)


class AdversaryBehavior(enum.Enum):
    DISTURB = "disturb"
    CHEAT_MIN_LEVEL = "cheat"
    HONEST_MIN_LEVEL = "honest"


@dataclass(frozen=True, slots=True)
class AdversaryConfig:
    behavior: AdversaryBehavior


@dataclass(slots=True)
class AdversaryState:
    """Mutable adversary bookkeeping, owned by the run scheduler.
    ``cache`` maps a victim to the chain and link signature held for it."""

    keys: KeyPair
    assigned_nids: tuple[bytes, ...]
    cache: dict[int, tuple[LevelAttestation, Signature]] = field(default_factory=dict)
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
    neighbor_count: int,
    keys: KeyPair,
    rng: Random,
) -> AdversaryState:
    nids = draw_nids(rng, neighbor_count)
    honest_state = None
    if cfg.behavior is AdversaryBehavior.HONEST_MIN_LEVEL:
        honest_state = init_node(keys, neighbor_count, rng, InitMode.CLEAN)
    return AdversaryState(keys=keys, assigned_nids=nids, honest_state=honest_state)


def _withdrawn(state: AdversaryState, k: int) -> RegisterContent:
    return RegisterContent(id=state.keys.public, nid=state.assigned_nids[k])


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
) -> list[RegisterContent] | WriteRecord:
    """Compute the adversary's register writes for this round, one per
    neighbor; the honest behaviour returns its embedded honest node's write
    record instead.

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
            state.honest_state, write = step_honest_attested(
                state.honest_state, inputs, now, deltas, root_id, backend
            )
        else:
            state.honest_state, write = step_honest_baseline(state.honest_state, inputs)
        return write

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
        victim_reg = inputs[victim]
        if victim_reg.id is None or not valid_offer(
                reg, victim_reg.id, victim_reg.nid, root_id, now, deltas, backend):
            continue
        held, _ = state.cache.get(victim, (None, None))
        if (
            held is None
            or len(reg.att) < len(held)
            # keep the terminal key stable across refreshes unless the held
            # offer cannot be delivered anymore anyway
            or (len(reg.att) == len(held) and reg.att.tuples[-1].p == held.tuples[-1].p)
            or not is_valid_att(held, victim_reg.id, root_id, now + deltas.step,
                                deltas, None, backend)
        ):
            state.cache[victim] = (reg.att, reg.link_sig)

    # pick harvest sources (minimal-level neighbors) and rotate presentations;
    # each victim is pinned to one source so its refreshed material always
    # terminates at the same key and its parent identity stays stable; a
    # source's claim is screened by everything but the reader binding
    claims = {
        k: reg.level
        for k, reg in enumerate(inputs)
        if reg.level is not None and reg.att is not None
        and is_valid_chain(reg.att, root_id, now, deltas, reg.level + 1)
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
        att, link_sig = state.cache.get(k, (None, None))
        if (
            cheat_phase
            and att is not None
            and inputs[k].id is not None
            # deliver only what will still verify when the victim reads it
            and is_valid_att(att, inputs[k].id, root_id, now + deltas.step,
                             deltas, None, backend)
        ):
            outputs.append(
                RegisterContent(
                    id=att.tuples[-1].p,
                    level=len(att) - 1,
                    att=att,
                    nid=state.assigned_nids[k],
                    link_sig=link_sig,
                )
            )
        else:
            outputs.append(_withdrawn(state, k))
    return outputs
