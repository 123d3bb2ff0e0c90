"""Deterministic round scheduler over the shared-register model.

A synchronous lock-step sweep implements exactly one asynchronous round:
every honest node reads the registers written in the previous round,
computes, and writes; writes become visible to reads in the next round
(double buffering).  The adversary node, whose processing speed is not
bounded by the honest loop and propagation constants, reads the freshly
written registers of the *current* round before producing its own writes.

Simulation time advances by ``deltas.step`` (= propagation delay + loop
bound) per round, which makes the analytic freshness windows and convergence
bounds exactly checkable in rounds.
"""

from __future__ import annotations

import enum
import gc
from dataclasses import dataclass
from random import Random
from collections.abc import Sequence
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .adversary import (
    AdversaryConfig,
    AdversaryState,
    adversary_step,
    make_adversary_state,
)
from .attestation import Deltas, LevelAttestation
from .crypto import MODEL, KeyPair
from .graph import Graph, bfs_distances
from .protocol import (
    InitMode,
    NodeState,
    ProtocolKind,
    RegisterContent,
    WriteRecord,
    init_node,
    step_honest_attested,
    step_honest_baseline,
)


class WalkStatus(enum.Enum):
    WELL = "well-directed"
    ILL = "ill-directed"
    ORPHAN = "orphan"
    LOOP = "loop"


class Snapshot(NamedTuple):
    """Light per-round record: enough for stability and disturbance checks."""

    round: int
    levels: tuple
    pids: tuple
    prnts: tuple


class Registers(Sequence):
    """Every register of one round: ``registers[u][k]`` is what node ``u``
    shows its k-th neighbor.  A row is materialised from the node's write
    (its ``WriteRecord``, or an explicit row of registers) when first read.

    ``nl`` lists each node's neighbors, ``back[u][k]`` is ``u``'s arc
    position in its k-th neighbor's list, and ``nids[v]`` holds the
    neighbor IDs node ``v``'s records carry.
    """

    __slots__ = ("_writes", "_rows", "_nl", "_back", "_pubs", "_nids")

    def __init__(self, writes: list, nl: list[list[int]], back: list[tuple[int, ...]],
                 pubs: tuple[bytes, ...], nids: list[tuple[bytes, ...]]):
        self._writes = writes
        self._rows: list[tuple[RegisterContent, ...] | None] = [None] * len(writes)
        self._nl = nl
        self._back = back
        self._pubs = pubs
        self._nids = nids

    def at(self, u: int, k: int) -> RegisterContent:
        """What node ``u`` shows its k-th neighbor."""
        w = self._writes[u]
        if type(w) is not WriteRecord:
            return w[k]
        v = self._nl[u][k]
        return w.register(k, self._pubs[v], self._nids[v][self._back[u][k]])

    def __len__(self) -> int:
        return len(self._writes)

    def __getitem__(self, u: int) -> tuple[RegisterContent, ...]:
        row = self._rows[u]
        if row is None:
            row = self._rows[u] = tuple(self.at(u, k) for k in range(len(self._nl[u])))
        return row

    def all_stamped_after(self, u: int, t: int) -> bool:
        """Whether every chain node ``u``'s registers carry holds a tuple
        stamped later than ``t`` (true when they carry none); a write record
        answers without materialising or signing its registers."""
        w = self._writes[u]
        if type(w) is WriteRecord:
            return w.all_stamped_after(t)
        return all(reg.stamped_after(t) or reg.att is None for reg in self[u])


@dataclass(frozen=True)
class Configuration:
    """Full global snapshot at one round."""

    malicious: frozenset[int]
    keys: tuple[bytes, ...]
    node_states: tuple
    registers: Registers


@dataclass(frozen=True)
class RunConfig:
    graph: Graph
    root: int
    protocol: ProtocolKind = ProtocolKind.ATTESTED
    adversary: AdversaryConfig | None = None
    adversary_node: int | None = None
    deltas: Deltas = Deltas()
    init_mode: InitMode = InitMode.CLEAN
    seed: int = 0
    max_rounds: int = 64
    stability_window: int = 0
    stability_candidates: frozenset[int] | None = None

    def __post_init__(self):
        if not (0 <= self.root < self.graph.n):
            raise ValueError("root index out of range")
        if (self.adversary is None) != (self.adversary_node is None):
            raise ValueError("adversary config and node index go together")
        if self.adversary_node is not None:
            if not (0 <= self.adversary_node < self.graph.n):
                raise ValueError("adversary index out of range")
            if self.adversary_node == self.root:
                raise ValueError("the root must be honest")
        if self.max_rounds < 1:
            raise ValueError("need at least one round")


@dataclass
class RunOutcome:
    """What a run did.  ``registers_materialised`` counts the registers made
    from write records while the run executed (the per-round hook's reads
    included, later reads of ``final`` not), and ``registers_built`` those
    of them that signed their chains."""

    cfg: RunConfig
    trace: list[Snapshot]
    final: Configuration
    rounds_executed: int
    stopped_early: bool
    registers_materialised: int
    registers_built: int

    @property
    def honest(self) -> list[int]:
        return [u for u in range(self.cfg.graph.n) if u not in self.final.malicious]


RoundHook = Callable[[int, Configuration], None]

# share of registers (and adversary cache slots) planted with stale content
# in an adversarial start
_PLANTED_SHARE = 0.5


def consistency_round(deltas: Deltas, diam: int) -> int:
    """First round whose simulated time exceeds the stale-data expiry bound
    (clock skew + per-hop budget times the diameter)."""
    return diam + deltas.c // deltas.step + 1


def run(cfg: RunConfig, per_round_hook: RoundHook | None = None, backend=MODEL) -> RunOutcome:
    """Execute one simulation run; deterministic for identical configs.

    The cyclic GC is paused for the run and the caller's setting restored,
    also when ``per_round_hook`` raises.  This is safe because the rounds
    allocate a write record and a state per node, and registers where they
    are read, but no reference cycles, so reference counting frees them
    all; collections would find nothing, and a full one walks every object
    of the process, numpy included.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(cfg, per_round_hook, backend)
    finally:
        if was_enabled:
            gc.enable()


def _run(cfg: RunConfig, per_round_hook: RoundHook | None, backend) -> RunOutcome:
    g = cfg.graph
    n = g.n
    if n >= 1 << 20:
        raise ValueError("simulator supports graphs below 2**20 nodes")
    m = cfg.adversary_node
    malicious = frozenset() if m is None else frozenset({m})
    honest = [u for u in range(n) if u != m]
    rng = Random(cfg.seed)
    deltas = cfg.deltas
    step_len = deltas.step

    keys = [backend.keygen((cfg.seed << 20) + u) for u in range(n)]
    pubs = tuple(kp.public for kp in keys)
    root_id = pubs[cfg.root]

    nl = g.neighbor_lists
    pos_index = [{v: k for k, v in enumerate(nl[u])} for u in range(n)]
    back = [tuple(pos_index[v][u] for v in nl[u]) for u in range(n)]

    # the adversary's entry is its embedded honest state, if it keeps one
    states: list[NodeState | None] = [None] * n
    adv_state: AdversaryState | None = None
    for u in range(n):
        if u == m:
            assert cfg.adversary is not None
            adv_state = make_adversary_state(cfg.adversary, len(nl[u]), keys[u], rng)
            states[u] = adv_state.honest_state
        else:
            states[u] = init_node(
                keys[u], len(nl[u]), rng, cfg.init_mode,
                is_root=(u == cfg.root), max_level=n,
            )

    diam_hint = 2
    if cfg.init_mode is InitMode.ADVERSARIAL:
        # double-sweep lower bound; planted chains must fit inside the real
        # diameter for the stale-data expiry bound to apply
        d0 = bfs_distances(g, [cfg.root])
        far = int(np.argmax(np.where(np.isfinite(d0), d0, -1)))
        d1 = bfs_distances(g, [far])
        diam_hint = max(2, int(d1[np.isfinite(d1)].max()))

    def nid_assigned_by(u: int, to: int) -> bytes:
        pos = pos_index[u][to]
        if u == m:
            return adv_state.assigned_nids[pos]  # type: ignore[union-attr]
        return states[u].assigned_nids[pos]  # type: ignore[union-attr]

    # a node's write is its WriteRecord, or an explicit row of registers:
    # the adversary's, and those of an adversarial start
    out: list = [None] * n
    for u in range(n):
        if cfg.init_mode is InitMode.CLEAN and u != m:
            out[u] = WriteRecord(pubs[u], None, None, states[u].assigned_nids)
            continue
        row = []
        for k, v in enumerate(nl[u]):
            if cfg.init_mode is InitMode.ADVERSARIAL and rng.random() < _PLANTED_SHARE:
                row.append(_plant_register(
                    rng, pubs[u], keys, pubs[v], nid_assigned_by(v, u),
                    keys[cfg.root], diam_hint, deltas, cfg.protocol, backend,
                ))
            else:
                row.append(RegisterContent(id=pubs[u], nid=nid_assigned_by(u, v)))
        out[u] = row
    # the neighbor IDs each node's records carry; the adversary's embedded
    # honest state, if it keeps one, writes records with its own
    carried = [adv_state.assigned_nids if st is None else st.assigned_nids  # type: ignore[union-attr]
               for st in states]

    def registers(writes: list) -> Registers:
        return Registers(writes, nl, back, pubs, carried)

    if (
        cfg.init_mode is InitMode.ADVERSARIAL
        and m is not None
        and cfg.protocol is ProtocolKind.ATTESTED
    ):
        # obsolete harvest residue: the adversary starts with stale chains it
        # will replay at its victims until they stop verifying
        for k, v in enumerate(nl[m]):
            if rng.random() < _PLANTED_SHARE:
                adv_state.cache[k] = _plant_attestation(
                    rng, keys, pubs[v], nid_assigned_by(v, m),
                    keys[cfg.root], diam_hint, deltas, backend, bind_probability=0.8,
                )

    def light_snapshot(rnd: int) -> Snapshot:
        levels = []
        pids = []
        prnts = []
        for st, pid in zip(states, pubs):
            if st is None:
                levels.append(None)
                pids.append(pid)
                prnts.append(0)
            else:
                levels.append(st.level)
                pids.append(st.pid)
                prnts.append(st.prnt)
        return Snapshot(rnd, tuple(levels), tuple(pids), tuple(prnts))

    def full_config() -> Configuration:
        return Configuration(
            malicious=malicious,
            keys=pubs,
            node_states=tuple(states),
            registers=registers(out),
        )

    trace = [light_snapshot(0)]
    candidates = (
        list(cfg.stability_candidates) if cfg.stability_candidates is not None else honest
    )

    attested = cfg.protocol is ProtocolKind.ATTESTED
    counts = [0, 0]  # registers materialised and built, of finished rounds
    stopped_early = False
    last_change = 0
    rnd = 0
    for rnd in range(1, cfg.max_rounds + 1):
        now = rnd * step_len
        # an explicit row is read arc by arc; every other input is a record
        explicit: dict[int, list[tuple[int, RegisterContent]]] = {}
        for v, row in enumerate(out):
            if type(row) is not WriteRecord:
                for u, k, reg in zip(nl[v], back[v], row):
                    explicit.setdefault(u, []).append((k, reg))
        new_out: list = [None] * n
        new_states = list(states)
        for u in honest:
            ins = list(map(out.__getitem__, nl[u]))
            for k, reg in explicit.get(u, ()):
                ins[k] = reg
            if attested:
                st, write = step_honest_attested(states[u], ins, now, deltas, root_id,
                                                 backend, back[u])
            else:
                st, write = step_honest_baseline(states[u], ins, back[u])
            new_states[u] = st
            new_out[u] = write
        if m is not None:
            # byzantine speed: the adversary reads this round's fresh writes
            fresh = registers(new_out)
            ins_m = [fresh.at(v, p) for v, p in zip(nl[m], back[m])]
            new_out[m] = adversary_step(
                cfg.adversary, adv_state, ins_m, now, rnd,
                cfg.protocol, deltas, root_id, backend,
            )
            new_states[m] = adv_state.honest_state  # type: ignore[union-attr]
        _count_reads(out, counts)
        states = new_states
        out = new_out
        snap = light_snapshot(rnd)
        prev = trace[-1]
        trace.append(snap)
        if per_round_hook is not None:
            per_round_hook(rnd, full_config())
        w = cfg.stability_window
        if w > 0:
            if changed(prev, snap, candidates):
                last_change = rnd
            if rnd - last_change >= w:
                stopped_early = True
                break

    _count_reads(out, counts)
    return RunOutcome(
        cfg=cfg,
        trace=trace,
        final=full_config(),
        rounds_executed=rnd,
        stopped_early=stopped_early,
        registers_materialised=counts[0],
        registers_built=counts[1],
    )


def _count_reads(writes: list, counts: list[int]) -> None:
    """Add the registers materialised from and built by the records among
    ``writes`` to ``counts``."""
    for w in writes:
        if type(w) is WriteRecord:
            counts[0] += w.made
            counts[1] += w.built


def _plant_attestation(
    rng: Random,
    keys: list[KeyPair],
    reader_id: bytes,
    reader_nid: bytes,
    root: KeyPair,
    diam_hint: int,
    deltas: Deltas,
    backend,
    bind_probability: float = 0.6,
):
    """A stale chain modeling residue of an earlier computation.

    Timestamps never exceed the clock-skew bound past the start time; chains
    may be properly signed (hence valid) while matching no path in the
    present topology, and are bound to the given reader with the given
    probability.  Returns (attestation, link signature).
    """
    n = len(keys)
    length = rng.randint(1, diam_hint)
    chain = [keys[rng.randrange(n)] for _ in range(length)]
    if rng.random() < 0.5:
        chain[0] = root
    tuples = []
    for i, kp in enumerate(chain):
        ts = rng.randint(0, deltas.c)
        if i + 1 < length:
            target = chain[i + 1].public
        else:
            target = reader_id if rng.random() < bind_probability \
                else keys[rng.randrange(n)].public
        if rng.random() < 0.15:  # some chains are corrupted outright
            target = b"bogus"
        tuples.append((kp.public, ts, backend.sign_level(kp.secret, target, ts)))
    att = LevelAttestation.from_tuples(tuples, backend)
    bound_nid = reader_nid if rng.random() < bind_probability \
        else rng.getrandbits(64).to_bytes(8, "big")
    return att, backend.sign_link(chain[-1].secret, bound_nid, att)


def _plant_register(
    rng: Random,
    writer_id: bytes,
    keys: list[KeyPair],
    reader_id: bytes,
    reader_nid: bytes,
    root: KeyPair,
    diam_hint: int,
    deltas: Deltas,
    protocol: ProtocolKind,
    backend,
) -> RegisterContent:
    """Arbitrary-but-type-valid stale register content."""
    n = len(keys)
    rand8 = lambda: rng.getrandbits(64).to_bytes(8, "big")
    claimed = rng.choice([keys[rng.randrange(n)].public, writer_id])
    if protocol is ProtocolKind.BASELINE:
        level = None if rng.random() < 0.3 else rng.randint(0, n)
        return RegisterContent(id=claimed, level=level, nid=rand8())
    att, link = _plant_attestation(
        rng, keys, reader_id, reader_nid, root, diam_hint, deltas, backend,
    )
    level = len(att) - 1 if rng.random() < 0.75 else rng.randint(0, n)
    return RegisterContent(id=claimed, level=level, att=att,
                           nid=rand8(), link_sig=link)


# -- detectors -----------------------------------------------------------


def snapshot_status(
    g: Graph, root: int, malicious: frozenset[int], snap: Snapshot, node: int
) -> WalkStatus:
    """Classify the parent-pointer walk from ``node`` toward the root."""
    cur = node
    seen: set[int] = set()
    while True:
        if cur in malicious:
            return WalkStatus.ILL
        if cur == root:
            return WalkStatus.WELL
        if snap.levels[cur] is None:
            return WalkStatus.ORPHAN
        if cur in seen:
            return WalkStatus.LOOP
        seen.add(cur)
        nbrs = g.neighbor_lists[cur]
        cur = nbrs[snap.prnts[cur] % len(nbrs)]


def ill_directed_set(
    g: Graph, root: int, malicious: frozenset[int], snap: Snapshot
) -> frozenset[int]:
    """The honest nodes whose parent chain runs through a malicious node."""
    return frozenset(
        u for u in range(g.n)
        if u not in malicious
        and snapshot_status(g, root, malicious, snap, u) is WalkStatus.ILL
    )


def detect_legitimate(
    g: Graph,
    root: int,
    malicious: frozenset[int],
    keys: Sequence[bytes],
    snap: Snapshot,
    node: int,
) -> bool:
    """Exact state-legitimacy predicate over true (not register) levels.

    Minimal neighbors are computed over honest neighbors only; the collective
    adversary has no well-defined true level.
    """
    if node in malicious:
        raise ValueError("legitimacy is defined for honest nodes only")
    lvl = snap.levels[node]
    if node == root:
        return lvl == 0 and snap.pids[node] == keys[node]
    if lvl is None or lvl == 0:
        return False
    l_min = None
    for v in g.neighbor_lists[node]:
        if v in malicious:
            continue
        lv = snap.levels[v]
        if lv is not None and (l_min is None or lv < l_min):
            l_min = lv
    if l_min is None or lvl != l_min + 1:
        return False
    return any(
        snap.levels[v] == l_min and snap.pids[node] == keys[v]
        for v in g.neighbor_lists[node]
        if v not in malicious
    )


def changed(a: Snapshot, b: Snapshot, nodes: Iterable[int]) -> bool:
    """True iff some node in ``nodes`` has a different level or pid in ``b``
    than in ``a``."""
    la, lb, pa, pb = a.levels, b.levels, a.pids, b.pids
    return any(la[u] != lb[u] or pa[u] != pb[u] for u in nodes)


def detect_stable(window: Sequence[Snapshot], candidates) -> bool:
    """True iff no candidate node changed level or pid across the window."""
    cand = list(candidates)
    return not any(changed(a, b, cand) for a, b in zip(window, window[1:]))


def count_disturbances(trace: Sequence[Snapshot], boundary_set) -> int:
    """Number of consecutive-configuration pairs in which some node outside
    ``boundary_set`` changed its level or pid."""
    inside = set(boundary_set)
    return sum(
        changed(a, b, (u for u in range(len(a.levels)) if u not in inside))
        for a, b in zip(trace, trace[1:])
    )


def convergence_round(trace: Sequence[Snapshot], candidates) -> int | None:
    """First round from which no candidate changes through the end of the
    trace; None when the final transition still shows a change."""
    if len(trace) < 2:
        return None
    cand = list(candidates)
    last_change = None
    for a, b in zip(trace, trace[1:]):
        if changed(a, b, cand):
            last_change = b.round
    if last_change is None:
        return trace[0].round
    if last_change == trace[-1].round:
        return None
    return last_change
