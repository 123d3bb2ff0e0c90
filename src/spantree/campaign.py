"""Experiment campaigns: per-cell runs, analytic/simulated lost sets, CSV
reports with 99% confidence intervals, and the simulated-vs-analytic
oracle-equivalence suite.

A campaign iterates cells (protocol x adversary behavior x attack-edge
budget).  Each run derives its own seed from the master seed, places the
attack edges, draws the root uniformly among honest nodes, computes the
analytic containment report, and (unless analytic-only) executes the
simulator and measures the realized lost set.  Everything is deterministic
end to end for a fixed master seed: re-running a campaign reproduces the CSV
byte for byte (the timestamp header line can be suppressed).
"""

from __future__ import annotations

import hashlib
import io
import math
import re
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from random import Random

from .adversary import AdversaryBehavior, AdversaryConfig, attack_victims
from .analysis import (
    ContainmentReport,
    containment_sets,
    mean_ci99,
    simulated_lost_set,
)
from .attestation import Deltas, is_consistent, is_valid_att
from .graph import (
    Graph,
    GraphMetrics,
    exact_diameter,
    extract_largest_component,
    generate_erdos_renyi,
    load_edge_list,
    metrics,
    randomize_preserving_degrees,
)
from .crypto import MODEL
from .protocol import InitMode, ProtocolKind
from .simcore import (
    RunConfig,
    WalkStatus,
    consistency_round,
    convergence_round,
    count_disturbances,
    detect_legitimate,
    detect_stable,
    ill_directed_set,
    run,
    snapshot_status,
)

CSV_COLUMNS = (
    "protocol",
    "behavior",
    "g",
    "run_index",
    "seed",
    "root",
    "rln_analytic",
    "rln_simulated",
    "mean_dist_root",
    "mean_dist_adv",
    "effective_adv_dist",
    "d_m_r",
    "convergence_round",
    "ties_count",
)

_BEHAVIORS = {
    "disturb": AdversaryBehavior.DISTURB,
    "cheat": AdversaryBehavior.CHEAT_MIN_LEVEL,
    "honest": AdversaryBehavior.HONEST_MIN_LEVEL,
}
_PROTOCOLS = {
    "attested": ProtocolKind.ATTESTED,
    "baseline": ProtocolKind.BASELINE,
}


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of labels (platform-independent)."""
    data = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class CampaignConfig:
    graph_spec: str
    protocols: tuple[str, ...] = ("attested", "baseline")
    behaviors: tuple[str, ...] = ("disturb",)
    attack_edges: tuple[int, ...] = (25,)
    runs: int = 100
    master_seed: int = 1
    delta_d: int = 1
    delta_e: int = 1
    delta_c: int | None = None  # None = auto: (g + 2) * (delta_d + delta_e)
    analytic_only: bool = True
    output: str | None = None
    timestamp_header: bool = True
    lcc: bool = True

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("need at least one run per cell")
        # each cell holds ``runs`` rows, so a cell may not be listed twice
        for key in ("protocols", "behaviors", "attack_edges"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key} must list at least one value")
            if len(set(values)) < len(values):
                raise ValueError(f"{key} lists a value twice: {', '.join(map(str, values))}")
        if any(g < 1 for g in self.attack_edges):
            raise ValueError("attack-edge counts must be positive")
        for key in ("delta_d", "delta_e", "delta_c"):
            value = getattr(self, key)
            if value is not None and value < 0:
                raise ValueError(f"{key} must be non-negative, got {value}")
        for p in self.protocols:
            if p not in _PROTOCOLS:
                raise ValueError(f"unknown protocol {p!r}")
        for b in self.behaviors:
            if b not in _BEHAVIORS:
                raise ValueError(f"unknown behavior {b!r}")


def parse_key_values(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; blank lines, '#' comment lines and
    a '#' comment after whitespace are ignored, and any other line without
    '=' is an error."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = re.sub(r"\s#.*", "", line).strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def parse_campaign_config(text: str) -> CampaignConfig:
    """Parse the flat key = value campaign file format.

    List-valued keys (protocols, behaviors, attack_edges) take
    comma-separated values.
    """
    raw = parse_key_values(text)

    def take_bool(key: str, default: bool) -> bool:
        if key not in raw:
            return default
        val = raw.pop(key).lower()
        if val in ("true", "1", "yes", "on"):
            return True
        if val in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {val!r}")

    if "graph" not in raw:
        raise ValueError("missing required key 'graph'")
    cfg = CampaignConfig(
        graph_spec=raw.pop("graph"),
        protocols=tuple(
            s.strip() for s in raw.pop("protocols", "attested,baseline").split(",")
        ),
        behaviors=tuple(s.strip() for s in raw.pop("behaviors", "disturb").split(",")),
        attack_edges=tuple(
            int(s) for s in raw.pop("attack_edges", "25").split(",")
        ),
        runs=int(raw.pop("runs", "100")),
        master_seed=int(raw.pop("master_seed", "1")),
        delta_d=int(raw.pop("delta_d", "1")),
        delta_e=int(raw.pop("delta_e", "1")),
        delta_c=int(raw.pop("delta_c")) if "delta_c" in raw else None,
        analytic_only=take_bool("analytic_only", True),
        output=raw.pop("output", "") or None,
        timestamp_header=take_bool("timestamp_header", True),
        lcc=take_bool("lcc", True),
    )
    if raw:
        raise ValueError(f"unknown config keys: {sorted(raw)}")
    return cfg


def graph_from_spec(spec: str, master_seed: int = 1, lcc: bool = True) -> Graph:
    """Build the honest graph from a spec string.

    Accepted forms: ``er(N,M)`` for a uniform random graph, ``randomized(PATH)``
    for a degree-preserving shuffle of a file, ``file:PATH`` or a bare path.
    """
    spec = spec.strip()
    if spec.startswith("er(") and spec.endswith(")"):
        try:
            n, m = (int(x) for x in spec[3:-1].split(","))
        except ValueError:
            raise ValueError(f"er(N,M) expects two integers, got {spec!r}") from None
        g = generate_erdos_renyi(n, m, derive_seed(master_seed, "er"))
        if lcc:
            g, _ = extract_largest_component(g)
        return g
    if spec.startswith("randomized(") and spec.endswith(")"):
        path = spec[len("randomized(") : -1]
        with open(path, "r", encoding="utf-8") as fp:
            loaded = load_edge_list(fp, largest_component=lcc)
        return randomize_preserving_degrees(
            loaded.graph, derive_seed(master_seed, "randomize")
        )
    path = spec[len("file:") :] if spec.startswith("file:") else spec
    with open(path, "r", encoding="utf-8") as fp:
        return load_edge_list(fp, largest_component=lcc).graph


def analytic_lost_set(report: ContainmentReport, protocol: str,
                      behavior: str) -> frozenset[int]:
    """Which analytic set the theory assigns to a (protocol, behavior) cell,
    and what the oracle suite checks of it against the simulator (ill = the
    simulated ill-directed set):

    * baseline: ``baseline_lost``; equals the simulated lost set under
      ``disturb``, and ``baseline_lost <= ill <= baseline_lost | baseline_ties``
      under ``cheat``.
    * attested ``cheat``: ``containment_set``, an upper bound, not equality:
      ``strict_set <= ill <= containment_set``.
    * attested ``disturb``: ``strict_set``; every node outside it stabilizes
      and none in it goes quiet.
    * attested ``honest``: ``nocheat_strict_set``, a lower bound:
      ``nocheat_strict_set <= ill <= nocheat_containment_set``.
    """
    if protocol == "baseline":
        return report.baseline_lost
    if behavior == "cheat":
        return report.containment_set
    if behavior == "disturb":
        return report.strict_set
    return report.nocheat_strict_set  # non-cheating adversary, strict set


def _root_and_report(
    g: Graph, victims: list[int], rng: Random
) -> tuple[int, ContainmentReport]:
    last_err: Exception | None = None
    for _ in range(10):
        root = rng.randrange(g.n)
        try:
            return root, containment_sets(g, root, victims)
        except ValueError as exc:
            last_err = exc
    raise ValueError(f"no usable root found after 10 attempts: {last_err}")


def _disturb_schedule(diam_bound: int, g_atk: int, budget: int) -> tuple[int, int, int]:
    """Round schedule ``(t0, window, max_rounds)`` of a run under attack,
    given a bound on the overlay diameter: the stabilization point, the
    quiet window that certifies stability, and a round cap that leaves room
    for ``budget`` disturbances."""
    t0 = diam_bound + 1
    window = 2 * (diam_bound + 1) + 2 * g_atk + 6
    max_rounds = min(t0 + 2 * budget + window + 60, 4000)
    return t0, window, max_rounds


@dataclass(frozen=True)
class _Instance:
    """One attacked instance: the honest graph ``g``, the overlay ``aug``
    with the adversary attached as node ``m = g.n`` by ``g_atk`` attack
    edges, the root, the analytic containment report and the timing bounds.

    ``diam`` bounds the overlay's diameter: the oracle suites compute it
    exactly, campaign runs take twice the largest root distance.  ``tag``
    names the instance in violation strings, and ``seed(label)`` derives
    the oracle suites' run seeds from ``master_seed`` and ``idx``.
    """

    tag: str
    g: Graph
    aug: Graph
    m: int
    root: int
    g_atk: int
    report: ContainmentReport
    diam: int
    deltas: Deltas
    master_seed: int
    idx: int

    @property
    def honest(self) -> frozenset[int]:
        return frozenset(range(self.g.n))

    def seed(self, label: str) -> int:
        return derive_seed(self.master_seed, label, self.idx)


def _attacked_run(
    inst: _Instance,
    protocol: ProtocolKind,
    behavior: AdversaryBehavior,
    seed: int,
    max_rounds: int,
    window: int = 0,
    candidates: frozenset[int] | None = None,
    init_mode: InitMode = InitMode.CLEAN,
) -> RunConfig:
    """The configuration of a run on ``inst``'s overlay, its adversary
    following ``behavior``, stopping once ``candidates`` were quiet for
    ``window`` rounds (never when ``window`` is 0)."""
    return RunConfig(
        graph=inst.aug, root=inst.root, protocol=protocol,
        adversary=AdversaryConfig(behavior), adversary_node=inst.m,
        deltas=inst.deltas, init_mode=init_mode, seed=seed,
        max_rounds=max_rounds, stability_window=window,
        stability_candidates=candidates,
    )


def simulate_run(inst: _Instance, protocol: str, behavior: str, run_seed: int):
    """Full-protocol execution of one campaign run; returns the measured lost
    set and the convergence round."""
    rep = inst.report
    if behavior == "disturb":
        strict = rep.strict_set if protocol == "attested" else rep.baseline_lost
        candidates = inst.honest - strict
    else:
        candidates = inst.honest
    t0, window, max_rounds = _disturb_schedule(
        inst.diam, inst.g_atk, rep.disturbance_budget
    )
    outcome = run(_attacked_run(
        inst, _PROTOCOLS[protocol], _BEHAVIORS[behavior], run_seed,
        max_rounds, window, candidates,
    ))
    last_round = outcome.trace[-1].round
    start = max(t0, last_round - window)
    lost = simulated_lost_set(outcome, start)
    return lost, convergence_round(outcome.trace, candidates)


def run_campaign(cfg: CampaignConfig) -> list[dict]:
    """Execute a campaign and return the ordered CSV rows (runs + summaries).

    All protocols are evaluated on the same sequence of placements and roots
    per (behavior, attack-edge budget) so they are directly comparable; the
    two distance passes per run are shared between them.
    """
    base_graph = graph_from_spec(cfg.graph_spec, cfg.master_seed, cfg.lcc)
    honest_n = base_graph.n
    step = cfg.delta_d + cfg.delta_e
    cells: dict[tuple, list[dict]] = {
        (p, b, g): [] for p in cfg.protocols for b in cfg.behaviors
        for g in cfg.attack_edges
    }
    for behavior in cfg.behaviors:
        for g_atk in cfg.attack_edges:
            for run_idx in range(cfg.runs):
                run_seed = derive_seed(cfg.master_seed, behavior, g_atk, run_idx)
                victims = attack_victims(
                    base_graph, g_atk, derive_seed(run_seed, "place")
                )
                root, rep = _root_and_report(
                    base_graph, victims, Random(derive_seed(run_seed, "root"))
                )
                d_r = float(rep.dist_root.mean())
                d_m = float(rep.dist_adv.mean())
                eff = d_m + rep.adv_root_distance - 1.0
                if not cfg.analytic_only:
                    delta_c = (
                        cfg.delta_c if cfg.delta_c is not None else (g_atk + 2) * step
                    )
                    # twice the largest root distance bounds the diameter:
                    # containment_sets has checked that every node reaches
                    # the root; dist_root covers the honest nodes,
                    # adv_root_distance the adversary
                    inst = _Instance(
                        f"run{run_idx}", base_graph, base_graph.with_added_node(victims),
                        honest_n, root, g_atk, rep,
                        2 * max(int(rep.dist_root.max()), rep.adv_root_distance),
                        Deltas(delta_c, cfg.delta_d, cfg.delta_e), cfg.master_seed, run_idx,
                    )
                for protocol in cfg.protocols:
                    lost = analytic_lost_set(rep, protocol, behavior)
                    row = {
                        "protocol": protocol,
                        "behavior": behavior,
                        "g": g_atk,
                        "run_index": run_idx,
                        "seed": run_seed,
                        "root": root,
                        "rln_analytic": len(lost) / honest_n,
                        "rln_simulated": None,
                        "mean_dist_root": d_r,
                        "mean_dist_adv": d_m,
                        "effective_adv_dist": eff,
                        "d_m_r": rep.adv_root_distance,
                        "convergence_round": None,
                        "ties_count": len(rep.baseline_ties),
                    }
                    if not cfg.analytic_only:
                        lost_sim, conv = simulate_run(
                            inst, protocol, behavior, derive_seed(run_seed, protocol)
                        )
                        row["rln_simulated"] = len(lost_sim) / honest_n
                        row["convergence_round"] = conv
                    cells[(protocol, behavior, g_atk)].append(row)
    rows: list[dict] = []
    for key in sorted(cells):
        cell_rows = cells[key]
        rows.extend(cell_rows)
        rows.extend(_summary_rows(cell_rows))
    return rows


def _summary_rows(cell_rows: list[dict]) -> list[dict]:
    proto = cell_rows[0]["protocol"]
    behavior = cell_rows[0]["behavior"]
    g_atk = cell_rows[0]["g"]
    numeric = (
        "rln_analytic",
        "rln_simulated",
        "mean_dist_root",
        "mean_dist_adv",
        "effective_adv_dist",
        "d_m_r",
        "ties_count",
    )

    def agg(kind: str) -> dict:
        row = {c: None for c in CSV_COLUMNS}
        row.update({"protocol": proto, "behavior": behavior, "g": g_atk,
                    "run_index": kind})
        for col in numeric:
            vals = [r[col] for r in cell_rows if r[col] is not None]
            if not vals:
                continue
            if kind == "MEAN":
                row[col] = sum(vals) / len(vals)
            elif col in ("rln_analytic", "rln_simulated") and len(vals) >= 2:
                row[col] = mean_ci99(vals)[1]
        return row

    return [agg("MEAN"), agg("CI99")]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def campaign_csv(cfg: CampaignConfig, rows: list[dict] | None = None) -> str:
    """Render campaign rows as CSV text (optionally with a timestamp line)."""
    if rows is None:
        rows = run_campaign(cfg)
    buf = io.StringIO()
    if cfg.timestamp_header:
        stamp = datetime.now(timezone.utc).isoformat()
        buf.write(f"# generated {stamp}\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_format_cell(row.get(c)) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def report_table1(
    spec: str,
    master_seed: int = 1,
    sample_sources: int | None = None,
    lcc: bool = True,
) -> GraphMetrics:
    """Structural metrics of a graph spec (node/edge counts, CPL, CC)."""
    g = graph_from_spec(spec, master_seed, lcc)
    if sample_sources is None and g.n > 4000:
        sample_sources = 256
    return metrics(g, sample_sources=sample_sources, seed=derive_seed(master_seed, "cpl"))


# -- degree-skewed generator (oracle suite and demos) ----------------------


def generate_degree_skewed(n: int, attach: int, seed: int) -> Graph:
    """Preferential-attachment graph: each new node links to ``attach``
    existing nodes sampled proportionally to current degree (plus one)."""
    if n < 2:
        raise ValueError("need at least two nodes")
    rng = Random(seed)
    edges: list[tuple[int, int]] = []
    pool: list[int] = [0]
    for j in range(1, n):
        k = min(attach, j)
        targets: set[int] = set()
        while len(targets) < k:
            pick = pool[rng.randrange(len(pool))] if rng.random() < 0.8 else rng.randrange(j)
            targets.add(pick)
        for t in targets:
            edges.append((j, t))
            pool.extend((j, t))
    return Graph.from_edges(n, edges)


# -- oracle-equivalence suite ----------------------------------------------


@dataclass
class OracleReport:
    instances: int = 0
    violations: list[str] = field(default_factory=list)
    cheat_runs: int = 0
    disturb_runs: int = 0
    honest_runs: int = 0
    baseline_runs: int = 0
    elapsed_seconds: float = 0.0


def _require_instances(instances: int) -> None:
    # a suite that checks nothing must not report that everything matched
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")


def _attacked_instance(
    rng: Random,
    g: Graph,
    max_edges: int,
    label: str,
    master_seed: int,
    idx: int,
    deltas: Deltas | None = None,
) -> _Instance | None:
    """Instance ``idx`` of an oracle suite on the honest graph ``g``: up to
    ``max_edges`` attack edges, their victims and the root drawn from
    ``rng``.  None when some node cannot reach the root, so the instance is
    skipped deterministically.  ``deltas`` defaults to the campaign's rule
    for a step of 2: c = (g_atk + 2) * 2."""
    g_atk = rng.randint(1, min(max_edges, g.n - 1))
    victims = attack_victims(g, g_atk, rng.getrandbits(48))
    root = rng.randrange(g.n)
    try:
        report = containment_sets(g, root, victims)
    except ValueError:
        return None
    if deltas is None:
        deltas = Deltas((g_atk + 2) * 2, 1, 1)
    aug = g.with_added_node(victims)
    return _Instance(
        f"{label}{idx}(n={g.n},g={g_atk})", g, aug, g.n, root, g_atk, report,
        exact_diameter(aug), deltas, master_seed, idx,
    )


def _oracle_graph(rng: Random) -> Graph:
    """A random honest graph of the oracle suite: n log-uniform in [20, 200],
    uniform or degree-skewed, redrawn until its largest component (the
    uniform graph's) has at least 12 nodes."""
    while True:
        n = int(round(math.exp(rng.uniform(math.log(20), math.log(200)))))
        n = max(20, min(200, n))
        if rng.random() < 0.5:
            m_edges = int(n * rng.uniform(1.2, 3.0))
            g = generate_erdos_renyi(n, min(m_edges, n * (n - 1) // 2), rng.getrandbits(48))
            g, _ = extract_largest_component(g)
        else:
            g = generate_degree_skewed(n, rng.randint(1, 3), rng.getrandbits(48))
        if g.n >= 12:
            return g


def oracle_check(instances: int = 500, master_seed: int = 20240601) -> OracleReport:
    """Cross-validate simulated outcomes against the analytic containment
    sets, convergence bounds, and the disturbance budget on random instances:
    graphs of 20 to 200 nodes (``_oracle_graph``) with 1 to 10 attack edges.

    Per instance this executes (attested protocol) a level-minimizing run, a
    non-cheating run, and a disturbance run, plus baseline runs, and records
    a violation string for every analytic prediction the simulation misses.
    """
    _require_instances(instances)
    t_begin = time.perf_counter()
    report = OracleReport()
    idx = -1
    while report.instances < instances:
        idx += 1
        rng = Random(derive_seed(master_seed, "oracle", idx))
        inst = _attacked_instance(rng, _oracle_graph(rng), 10, "inst", master_seed, idx)
        if inst is None:
            continue
        report.instances += 1
        viol, tag, rep, g = report.violations, inst.tag, inst.report, inst.g

        # analytic set relations
        if not rep.strict_set <= rep.containment_set:
            viol.append(f"{tag}: strict lost set escapes the containment set")
        if not rep.nocheat_containment_set <= rep.containment_set:
            viol.append(f"{tag}: removing the cheat enlarged the containment set")
        if not rep.nocheat_strict_set <= rep.strict_set:
            viol.append(f"{tag}: removing the cheat enlarged the strict set")

        # adversary-free convergence: every node legitimate within diam+1
        diam_h = exact_diameter(g)
        free_out = run(RunConfig(
            graph=g, root=inst.root, protocol=ProtocolKind.ATTESTED,
            deltas=inst.deltas, seed=inst.seed("free"), max_rounds=diam_h + 3,
        ))
        snap = free_out.trace[min(diam_h + 1, len(free_out.trace) - 1)]
        for u in range(g.n):
            if not detect_legitimate(g, inst.root, frozenset(), free_out.final.keys, snap, u):
                viol.append(f"{tag}: adversary-free node {u} not legitimate at the bound")
                break

        report.cheat_runs += 1
        _check_cheat_run(report, inst)
        report.disturb_runs += 1
        _check_disturb_run(report, inst)
        report.baseline_runs += 1
        _check_baseline_runs(report, inst)
    report.elapsed_seconds = time.perf_counter() - t_begin
    return report


def _check_cheat_run(report: OracleReport, inst: _Instance) -> None:
    viol, tag, rep, diam = report.violations, inst.tag, inst.report, inst.diam
    aug, root, honest = inst.aug, inst.root, inst.honest
    safe = honest - rep.containment_set
    # offers are continuous when the adversary never withdraws, so a short
    # quiet window certifies convergence
    window = diam + 6
    max_rounds = (diam + 1) + (inst.g_atk + diam + 6) + window
    out = run(_attacked_run(
        inst, ProtocolKind.ATTESTED, AdversaryBehavior.CHEAT_MIN_LEVEL,
        inst.seed("cheat"), max_rounds, window, honest,
    ))
    if not out.stopped_early and not detect_stable(out.trace[-(window + 1):], honest):
        viol.append(f"{tag}: cheating-adversary run failed to stabilize")
        return

    malicious = frozenset({inst.m})
    keys = out.final.keys
    bound_snap = out.trace[min(diam + 1, len(out.trace) - 1)]
    for u in safe:
        if not detect_legitimate(aug, root, malicious, keys, bound_snap, u):
            viol.append(f"{tag}: safe node {u} not legitimate by round diam+1 under cheat")
            break

    # safe nodes must stay well-directed from the bound onward
    for snap in out.trace[diam + 2:]:
        bad = [u for u in safe
               if snapshot_status(aug, root, malicious, snap, u) is not WalkStatus.WELL]
        if bad:
            viol.append(f"{tag}: safe node {bad[0]} left well-directed state "
                        f"at round {snap.round}")
            break

    ill = ill_directed_set(aug, root, malicious, out.trace[-1])
    if not ill <= rep.containment_set:
        viol.append(f"{tag}: ill-directed set escapes the containment set: "
                    f"{sorted(ill - rep.containment_set)}")
    if not rep.strict_set <= ill:
        viol.append(f"{tag}: strictly-lost nodes ended well-directed: "
                    f"{sorted(rep.strict_set - ill)}")

    # non-cheating adversary: smaller reach, simulated and analytic
    out_h = run(_attacked_run(
        inst, ProtocolKind.ATTESTED, AdversaryBehavior.HONEST_MIN_LEVEL,
        inst.seed("honestadv"), max_rounds, window, honest,
    ))
    report.honest_runs += 1
    ill_h = ill_directed_set(aug, root, malicious, out_h.trace[-1])
    if not ill_h <= rep.nocheat_containment_set:
        viol.append(f"{tag}: non-cheating ill set escapes its containment set")
    if not ill_h <= ill:
        viol.append(f"{tag}: non-cheating adversary misled nodes the cheat did not")
    if not rep.nocheat_strict_set <= ill_h:
        viol.append(f"{tag}: non-cheating strict nodes ended well-directed")


def _check_disturb_run(report: OracleReport, inst: _Instance) -> None:
    viol, tag, rep = report.violations, inst.tag, inst.report
    candidates = inst.honest - rep.strict_set
    budget = rep.disturbance_budget
    t0, window, max_rounds = _disturb_schedule(inst.diam, inst.g_atk, budget)
    out = run(_attacked_run(
        inst, ProtocolKind.ATTESTED, AdversaryBehavior.DISTURB,
        inst.seed("disturb"), max_rounds, window, candidates,
    ))
    if not out.stopped_early and not detect_stable(out.trace[-(window + 1):], candidates):
        viol.append(f"{tag}: nodes outside the strict set failed to stabilize")
        return
    disturbances = count_disturbances(out.trace[t0:], rep.strict_set)
    if disturbances > budget:
        viol.append(
            f"{tag}: {disturbances} disturbances exceed the budget {budget}"
        )
    if rep.strict_set:
        tail = out.trace[-(window + 1):]
        for u in rep.strict_set:
            if detect_stable(tail, (u,)):
                viol.append(f"{tag}: strictly-lost node {u} went quiet under disturbances")
                break


def _check_baseline_runs(report: OracleReport, inst: _Instance) -> None:
    # the instance's deltas serve both runs: their step is 2, as in the
    # attested runs, and the baseline never reads c
    viol, tag, diam = report.violations, inst.tag, inst.diam
    honest = inst.honest
    strict = inst.report.baseline_lost
    ties = inst.report.baseline_ties
    candidates = honest - strict
    # the round allowance comes from the tie nodes' degrees, and the quiet
    # window has no attack-edge term
    tie_budget = 4 * sum(inst.aug.degree(u) for u in ties) + 8
    t0, window, max_rounds = _disturb_schedule(diam, 0, tie_budget // 2)
    out = run(_attacked_run(
        inst, ProtocolKind.BASELINE, AdversaryBehavior.DISTURB,
        inst.seed("base-disturb"), max_rounds, window, candidates,
    ))
    if not out.stopped_early and not detect_stable(out.trace[-(window + 1):], candidates):
        viol.append(f"{tag}: baseline nodes outside the formula set failed to stabilize")
        return
    last_round = out.trace[-1].round
    measured = simulated_lost_set(out, max(t0, last_round - window))
    if measured != strict:
        viol.append(
            f"{tag}: baseline disturbance lost set {sorted(measured)} != "
            f"formula set {sorted(strict)}"
        )

    out_c = run(_attacked_run(
        inst, ProtocolKind.BASELINE, AdversaryBehavior.CHEAT_MIN_LEVEL,
        inst.seed("base-cheat"), 2 * (diam + 2) + window + 10, window, honest,
    ))
    ill = ill_directed_set(inst.aug, inst.root, frozenset({inst.m}), out_c.trace[-1])
    if not strict <= ill:
        viol.append(f"{tag}: baseline strictly-closer nodes ended well-directed")
    if not ill <= (strict | ties):
        viol.append(f"{tag}: baseline ill set exceeds formula set plus ties")


def consistency_check(
    instances: int = 100,
    master_seed: int = 7,
    max_n: int = 100,
    deltas: Deltas = Deltas(1, 1, 1),
) -> OracleReport:
    """Adversarial-start expiry oracle.

    From an arbitrary configuration whose stale chains are stamped no later
    than the clock-skew bound c past the start, stale material (chains whose
    every timestamp is at most c) must obey two facts wherever it appears in
    a register or a node variable: every stale chain is invalid once
    simulated time exceeds 2c + per-hop-budget (its last tuple alone gives
    an expiry base of at most c + per-hop-budget, and validity allows c
    more), and no stale valid-but-inconsistent chain exists past c +
    per-hop-budget * diameter.  Honest nodes may re-extend not-yet-expired
    stale material (the extensions carry fresh timestamps and their own,
    longer budgets), which is why the guarantee is stated over the stale
    values themselves.
    """
    _require_instances(instances)
    if deltas.step < 1:
        raise ValueError(f"deltas.step (d + e) must be positive, got {deltas.step}")
    t_begin = time.perf_counter()
    report = OracleReport()
    idx = -1
    while report.instances < instances:
        idx += 1
        violations = _consistency_instance(idx, master_seed, max_n, deltas)
        if violations is not None:
            report.instances += 1
            report.violations.extend(violations)
    report.elapsed_seconds = time.perf_counter() - t_begin
    return report


def _consistency_instance(
    idx: int, master_seed: int, max_n: int, deltas: Deltas
) -> list[str] | None:
    """Violations of instance ``idx`` of ``consistency_check`` (checking
    stops at the first), or None when the drawn instance is skipped."""
    rng = Random(derive_seed(master_seed, "consistency", idx))
    n = rng.randint(16, max_n)
    g = generate_erdos_renyi(n, int(n * rng.uniform(1.3, 2.5)), rng.getrandbits(48))
    g, _ = extract_largest_component(g)
    if g.n < 8:
        return None
    inst = _attacked_instance(rng, g, 5, "consistency", master_seed, idx, deltas)
    if inst is None:
        return None
    aug, root, tag = inst.aug, inst.root, inst.tag
    bound_time = deltas.c + deltas.step * inst.diam
    stale_expiry = 2 * deltas.c + deltas.step
    behavior = (
        AdversaryBehavior.CHEAT_MIN_LEVEL if idx % 2 == 0 else AdversaryBehavior.DISTURB
    )
    cfg = _attacked_run(
        inst, ProtocolKind.ATTESTED, behavior, inst.seed("run"),
        consistency_round(deltas, inst.diam) + inst.diam + 6,
        init_mode=InitMode.ADVERSARIAL,
    )

    violations: list[str] = []

    def check_att(att, reader, reader_id, where, rnd, now, directory, config):
        if not att.tuples or max(t.t for t in att.tuples) > deltas.c:
            return  # carries fresh signatures; not the stale material
        if now > stale_expiry and is_valid_att(
            att, reader_id, config.keys[root], now, deltas, None, MODEL
        ):
            violations.append(
                f"{tag}: stale chain of length {len(att)} still valid in "
                f"{where} at round {rnd} (time {now})"
            )
        elif now > bound_time and not is_consistent(
            att, aug, directory, reader, config.malicious,
            reader_id, config.keys[root], now, deltas, MODEL,
        ):
            violations.append(
                f"{tag}: stale inconsistent chain alive in {where} "
                f"at round {rnd} (time {now} > {bound_time})"
            )

    def check_round(rnd: int, config) -> None:
        if violations:
            return
        now = rnd * deltas.step
        directory = {config.keys[u]: u for u in range(aug.n)}
        for u in range(aug.n):
            for k, v in enumerate(aug.neighbor_lists[u]):
                reg = config.registers[u][k]
                if reg.att is not None:
                    check_att(reg.att, v, config.keys[v], f"register {u}->{v}",
                              rnd, now, directory, config)
            st = config.node_states[u]
            if st is not None and len(st.level_att) > 0:
                check_att(st.level_att, u, config.keys[u], f"node {u}",
                          rnd, now, directory, config)

    run(cfg, per_round_hook=check_round)
    return violations
