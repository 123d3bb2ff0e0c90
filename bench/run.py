#!/usr/bin/env python3
"""spantree benchmark: one workload per process, single-threaded.

    python3 bench/run.py --workload er-analytic --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each was chosen):

* ``er-analytic`` -- the criterion-6 campaign shape with fewer runs on
  er(63392,824096); one operation is one placement and root, evaluated for
  both protocols.  ``--seed`` is the campaign master seed.
* ``oracle`` -- ``oracle_check`` over criterion 1's first instances; one
  operation is one instance.
* ``consistency`` -- ``consistency_check`` over criterion 3's first
  instances; one operation is one instance.

A run sets up, then repeats whole rounds of the same operations until
``--seconds`` have passed, then checks the outputs against computations made
apart from the program (bench/checks.py).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
-- the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the
per-layer ones with ``--trace 1``.  The traced run alternates untraced and
traced rounds so that it can report the tracer's own overhead.
"""

import os

# pin every BLAS/OpenMP pool to one thread before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SPEC_FILE = ROOT / "BENCHMARK.json"

IMPORT_SAMPLES = 3  # imports timed per run: this process plus fresh children
BUILD_SAMPLES = 3  # builds of the shared inputs timed per run
TABLE1_SAMPLES = 3  # at least this many timed graph.metrics passes

ER_SPEC = "er(63392,824096)"
ER_RUNS = 3  # campaign runs per attack budget in one round
ER_BUDGETS = (25, 1000)
ER_TABLE1_SOURCES = 32
ORACLE_SEED = 20240601
ORACLE_INSTANCES = 10  # instances per round
CONSISTENCY_SEED = 7
CONSISTENCY_INSTANCES = 40  # instances per round; criterion 3 checks 100


def child_import_seconds() -> float:
    """Time ``import spantree`` in a fresh interpreter."""
    code = ("import sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "t = time.perf_counter()\n"
            "import spantree\n"
            "print(time.perf_counter() - t)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def timed(fn):
    t = time.perf_counter()
    result = fn()
    return time.perf_counter() - t, result


def slow_quartile(seconds: list[float]) -> float:
    """The 75th percentile of a list of timings (the largest of three)."""
    if len(seconds) < 3:
        return max(seconds)
    return statistics.quantiles(seconds, n=4)[2]


def failed_instances(violations: list[str], prefix: str) -> set[int]:
    """Instance indices named by violation tags such as ``inst12(n=...)``."""
    return {int(m.group(1)) for v in violations
            if (m := re.match(rf"{prefix}(\d+)\(", v))}


class RunProbe:
    """Check-only wrapper on simcore.run, installed for the whole run.

    It counts the per-round hook's calls against the rounds executed, and
    while ``capture`` is set it keeps the graphs simulated and the final
    snapshots of attested cheat runs from clean starts.
    """

    def __init__(self, spantree):
        self.st = spantree
        self.capture = False
        self.hook_calls = 0
        self.hook_rounds = 0
        self.graphs: dict[int, object] = {}
        self.cheat_runs: list[tuple] = []

    def install(self, tracer_mod) -> None:
        run = self.st.simcore.run
        tracer_mod.rebind(run, self._wrap(run))

    def _wrap(self, run):
        st = self.st

        def probed_run(cfg, *args, **kwargs):
            hook = kwargs.get("per_round_hook")
            if hook is not None:
                def counted_hook(rnd, config):
                    self.hook_calls += 1
                    return hook(rnd, config)
                kwargs["per_round_hook"] = counted_hook
            out = run(cfg, *args, **kwargs)
            if hook is not None:
                self.hook_rounds += out.rounds_executed
            if self.capture:
                self.graphs.setdefault(id(cfg.graph), cfg.graph)
                if (cfg.adversary is not None
                        and cfg.adversary.behavior is st.AdversaryBehavior.CHEAT_MIN_LEVEL
                        and cfg.protocol is st.ProtocolKind.ATTESTED
                        and cfg.init_mode is st.InitMode.CLEAN):
                    self.cheat_runs.append(
                        (cfg.graph, cfg.root, cfg.adversary_node, out.trace[-1]))
            return out

        return probed_run


class Workload:
    """Shared workload state; subclasses define the operations and checks."""

    ops_per_round: int
    table1_per_gap = 10  # graph.metrics passes between two rounds

    def __init__(self, st, checks, probe: RunProbe, seed: int):
        self.st = st
        self.checks = checks
        self.probe = probe
        self.seed = seed
        self.rounds = 0
        self.failed = 0  # operations that raised or failed a check, all rounds
        # messages, each kept once: what made operations fail, and run-level
        # check failures, which make the run incorrect
        self.failures: dict[str, None] = {}
        self.errors: dict[str, None] = {}

    def error(self, msg: str) -> None:
        self.errors[msg] = None

    def build_inputs(self) -> None:
        """Build the inputs the operations share (set-up after the import)."""

    @property
    def table1_graphs(self) -> list:
        """The graphs the workload simulated, seen in its first round."""
        return list(self.probe.graphs.values())

    def round(self) -> None:
        self.probe.capture = self.rounds == 0
        try:
            self.run_round()
        except Exception:  # the program raised: the whole round failed
            self.failed += self.ops_per_round
            self.failures[f"a round raised:\n{traceback.format_exc()}"] = None
        self.rounds += 1

    def run_round(self) -> None:
        raise NotImplementedError

    def table1_pass(self) -> list:
        """One graph.metrics pass over this workload's graphs."""
        return [self.st.metrics(g) for g in self.table1_graphs]

    def check_table1(self, results) -> None:
        for g, m in zip(self.table1_graphs, results):
            if (m.node_count, m.edge_count) != (g.n, len(g.indices) // 2):
                self.error(f"table1: counts {m.node_count}/{m.edge_count}")
            own = self.checks.sampled_path_length(g.indptr, g.indices, g.n, 0)
            if abs(own - m.characteristic_path_length) > 1e-9 * max(own, 1.0):
                self.error(f"table1: path length {m.characteristic_path_length}"
                                   f" != {own} (own BFS)")

    def finish(self) -> None:
        """Checks made after the timed phase."""


class ErAnalytic(Workload):
    ops_per_round = ER_RUNS * len(ER_BUDGETS)
    table1_per_gap = 1

    def __init__(self, *args):
        super().__init__(*args)
        self.config = "\n".join([
            f"graph = {ER_SPEC}",
            "protocols = attested,baseline",
            "behaviors = disturb",
            "attack_edges = " + ",".join(str(g) for g in ER_BUDGETS),
            f"runs = {ER_RUNS}",
            f"master_seed = {self.seed}",
            "analytic_only = true",
            "timestamp_header = false",
        ])
        self.csvs: list[str] = []
        self.graph = None

    def build_inputs(self) -> None:
        self.graph = None  # free the previous copy first
        self.graph = self.st.graph_from_spec(ER_SPEC, self.seed)

    @property
    def table1_graphs(self) -> list:
        return [self.graph]

    def run_round(self) -> None:
        cfg = self.st.parse_campaign_config(self.config)
        rows = self.st.run_campaign(cfg)
        self.csvs.append(self.st.campaign_csv(cfg, rows))

    def table1_pass(self) -> list:
        return [self.st.metrics(self.graph, sample_sources=ER_TABLE1_SOURCES,
                                seed=self.st.derive_seed(self.seed, "cpl"))]

    def check_table1(self, results) -> None:
        (m,) = results
        if (m.node_count, m.edge_count) != (63392, 824096):
            self.error(f"table1: counts {m.node_count}/{m.edge_count}")
        own = self.checks.sampled_path_length(
            self.graph.indptr, self.graph.indices, ER_TABLE1_SOURCES,
            self.st.derive_seed(self.seed, "cpl"))
        if abs(own - m.characteristic_path_length) > 1e-9 * own:
            self.error(f"table1: path length {m.characteristic_path_length}"
                               f" != {own} (own BFS)")

    def finish(self) -> None:
        if not self.csvs:
            return
        if any(text != self.csvs[0] for text in self.csvs):
            self.error("campaign CSV differs between identical rounds")
        rows = self.checks.parse_csv(self.csvs[0])
        bad_ops: set[tuple[str, int]] = set()  # (g, run index)
        for g, msg in self.checks.summary_errors(rows):
            self.failures[msg] = None
            bad_ops.update((g, i) for i in range(ER_RUNS))
        n = self.graph.n
        for g in ER_BUDGETS:
            sample = [r for r in rows if r["g"] == str(g) and r["run_index"] == "0"]
            if len(sample) != 2:
                self.error(f"g={g}: {len(sample)} rows for run 0, one per protocol expected")
                continue
            seed = int(sample[0]["seed"])
            aug, m = self.st.place_attack_edges(
                self.graph, g, self.st.derive_seed(seed, "place"))
            sets = self.checks.Containment(aug.indptr, aug.indices,
                                           int(sample[0]["root"]), m)
            errs = self.checks.run_row_errors(sample, sets, n)
            if errs:
                self.failures.update(dict.fromkeys(errs))
                bad_ops.add((str(g), 0))
        self.failed += len(bad_ops) * len(self.csvs)
        means = {(r["protocol"], r["g"]): float(r["rln_analytic"])
                 for r in rows if r["run_index"] == "MEAN"}
        baseline, attested = means.get(("baseline", "25")), means.get(("attested", "25"))
        if baseline is None or abs(baseline - 0.19) > 0.05:
            self.error(f"baseline@25 mean {baseline} outside 0.19 +/- 0.05")
        if attested is None or attested > 0.001:
            self.error(f"attested@25 mean {attested} above 0.001")


class Oracle(Workload):
    ops_per_round = ORACLE_INSTANCES

    def run_round(self) -> None:
        rep = self.st.oracle_check(instances=ORACLE_INSTANCES, master_seed=ORACLE_SEED)
        counters = (rep.instances, rep.cheat_runs, rep.disturb_runs,
                    rep.honest_runs, rep.baseline_runs)
        if set(counters) != {ORACLE_INSTANCES}:
            self.error(f"oracle counters {counters} != {ORACLE_INSTANCES}")
        self.failed += len(failed_instances(rep.violations, "inst"))
        self.failures.update(dict.fromkeys(rep.violations))

    def finish(self) -> None:
        own_failures = 0
        for g, root, m, snap in self.probe.cheat_runs:
            sets = self.checks.Containment(g.indptr, g.indices, root, m)
            ill = self.checks.ill_directed(g.indptr, g.indices, root, m,
                                           snap.levels, snap.prnts)
            if not (ill <= sets.containment and sets.strict <= ill):
                own_failures += 1
                self.failures[f"cheat run n={g.n - 1} root={root}: ill-directed "
                              "set outside the containment/strict bounds"] = None
        if len(self.probe.cheat_runs) != ORACLE_INSTANCES:
            self.error(f"{len(self.probe.cheat_runs)} cheat runs captured")
        self.failed = min(self.failed + own_failures * self.rounds,
                          self.rounds * ORACLE_INSTANCES)


class Consistency(Workload):
    ops_per_round = CONSISTENCY_INSTANCES

    def run_round(self) -> None:
        rep = self.st.consistency_check(
            instances=CONSISTENCY_INSTANCES, master_seed=CONSISTENCY_SEED,
            max_n=100, deltas=self.st.Deltas(1, 1, 1))
        if rep.instances != CONSISTENCY_INSTANCES:
            self.error(f"{rep.instances} consistency instances")
        self.failed += len(failed_instances(rep.violations, "consistency"))
        self.failures.update(dict.fromkeys(rep.violations))

    def finish(self) -> None:
        if self.probe.hook_calls != self.probe.hook_rounds:
            self.error(f"{self.probe.hook_calls} hook calls for "
                               f"{self.probe.hook_rounds} rounds")


WORKLOADS = {"er-analytic": ErAnalytic, "oracle": Oracle, "consistency": Consistency}


def measure(workload: Workload, seconds: float, tracer=None,
            between=None) -> dict[bool, list[float]]:
    """Repeat whole rounds until they have taken ``seconds`` in all,
    calling ``between`` after each; with a tracer, odd rounds are traced.
    Returns round times keyed by traced-or-not."""
    times: dict[bool, list[float]] = {False: [], True: []}
    elapsed = 0.0
    while elapsed < seconds or (tracer is not None and not times[True]):
        traced = tracer is not None and workload.rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            seconds_taken = timed(workload.round)[0]
        finally:
            if traced:
                tracer.uninstall()
        times[traced].append(seconds_taken)
        elapsed += seconds_taken
        if between is not None:
            between()
    return times


def per_layer_metrics(tracer, ops: int, table1_passes: int) -> dict[str, float]:
    agg = tracer.aggregate()
    counts = tracer.counts

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def total(name):
        return agg.get(name, {}).get("total", 0.0)

    def own(name):
        return agg.get(name, {}).get("self", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    edge_rounds = counts["simcore.edge_rounds"]
    sim_s = total("simcore.run") - total("campaign.consistency_hook")
    per_op = {
        "graph.generate_s": total("graph.generate"),
        "graph.lcc_s": total("graph.lcc"),
        "graph.with_added_node_calls": calls("graph.with_added_node"),
        "graph.with_added_node_s": total("graph.with_added_node"),
        "graph.bfs_calls": calls("graph.bfs") + calls("graph.bfs_avoiding"),
        "graph.bfs_s": total("graph.bfs"),
        "graph.bfs_avoiding_s": total("graph.bfs_avoiding"),
        "graph.exact_diameter_s": total("graph.exact_diameter"),
        "adversary.place_self_s": own("adversary.place"),
        "adversary.step_calls": calls("adversary.step"),
        "adversary.step_s": total("adversary.step"),
        "analysis.containment_calls": calls("analysis.containment"),
        "analysis.containment_self_s": own("analysis.containment"),
        "analysis.simulated_lost_set_s": total("analysis.simulated_lost_set"),
        "campaign.run_campaign_self_s": own("campaign.run_campaign"),
        "campaign.csv_s": total("campaign.csv"),
        "campaign.oracle_self_s": own("campaign.oracle"),
        "campaign.consistency_hook_calls": calls("campaign.consistency_hook"),
        "campaign.consistency_hook_s": total("campaign.consistency_hook"),
        "simcore.run_calls": calls("simcore.run"),
        "simcore.run_self_s": own("simcore.run"),
        "simcore.rounds": counts["simcore.rounds"],
        "simcore.edge_rounds": edge_rounds,
        "simcore.snapshot_status_calls": calls("simcore.snapshot_status"),
        "simcore.snapshot_status_s": total("simcore.snapshot_status"),
        "simcore.detect_stable_s": total("simcore.detect_stable"),
        "simcore.count_disturbances_s": total("simcore.count_disturbances"),
        "protocol.step_attested_calls": calls("protocol.step_attested"),
        "protocol.step_attested_self_s": own("protocol.step_attested"),
        "protocol.step_baseline_s": total("protocol.step_baseline"),
        "attestation.extend_calls": calls("attestation.extend"),
        "attestation.is_valid_att_calls": calls("attestation.is_valid_att"),
        "attestation.is_valid_link_calls": calls("attestation.is_valid_link"),
        "attestation.is_consistent_s": total("attestation.is_consistent"),
        "crypto.sign_calls": counts["crypto.sign"],
        "crypto.verify_calls": counts["crypto.verify"],
        "crypto.digest_calls": counts["crypto.digest"],
    }
    out = {name: value / ops for name, value in per_op.items()}
    validity_checks = calls("attestation.is_valid_att") + calls("attestation.is_valid_link")
    out.update({
        "graph.metrics_s": total("graph.metrics") / table1_passes,
        "graph.triangle_counts_s": total("graph.triangle_counts") / table1_passes,
        "simcore.us_per_edge_round": ratio(sim_s * 1e6, edge_rounds),
        "attestation.verifies_per_check": ratio(counts["crypto.verify"], validity_checks),
        "crypto.signs_per_edge_round": ratio(counts["crypto.sign"], edge_rounds),
    })
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spantree" / "__init__.py").is_file():
        print(f"bench: no spantree sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import spantree
    import_times = [time.perf_counter() - t]
    # imported after the timed import: both load numpy and scipy
    import checks
    import tracer as tracer_mod

    probe = RunProbe(spantree)
    probe.install(tracer_mod)
    workload = WORKLOADS[args.workload](spantree, checks, probe, args.seed)
    build_times = [timed(workload.build_inputs)[0]]
    table1_times: list[float] = []
    table1: list = []  # the latest graph.metrics results, checked at the end

    def table1_sample() -> None:
        seconds, results = timed(workload.table1_pass)
        table1_times.append(seconds)
        table1[:] = results

    def side_samples() -> None:
        """Further set-up and table1 samples, taken between rounds so that
        their medians span the same stretch of time as the rounds: CPU
        speed can drift by 10-15% within seconds."""
        if len(import_times) < IMPORT_SAMPLES:
            import_times.append(child_import_seconds())
        if len(build_times) < BUILD_SAMPLES:
            build_times.append(timed(workload.build_inputs)[0])
        for _ in range(workload.table1_per_gap if workload.table1_graphs else 0):
            table1_sample()

    tracer = tracer_mod.Tracer() if args.trace else None
    if tracer:
        times = measure(workload, args.seconds, tracer)
        tracer.install()
        table1_sample()
        tracer.uninstall()
    else:
        side_samples()
        times = measure(workload, args.seconds, between=side_samples)
        while workload.table1_graphs and (len(table1_times) < TABLE1_SAMPLES
                                          or len(import_times) < IMPORT_SAMPLES):
            side_samples()
    workload.finish()
    if table1:
        workload.check_table1(table1)
    else:
        workload.error("table1: no graph to measure")
    setup_s = statistics.median(import_times) + statistics.median(build_times)

    attempted = workload.rounds * workload.ops_per_round
    extra = {"rounds": workload.rounds, "round_seconds": times,
             "import_seconds": import_times, "build_seconds": build_times,
             "table1_seconds": table1_times, "errors": list(workload.errors),
             "failures": list(workload.failures)}
    if tracer:
        ops = len(times[True]) * workload.ops_per_round
        values = per_layer_metrics(tracer, ops, len(table1_times))
        overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1
        extra["trace_overhead"] = overhead
        print(f"tracing overhead: {100 * overhead:+.1f}% per round "
              f"({len(times[True])} traced, {len(times[False])} untraced rounds)")
    else:
        # The slowest round and the slowest quarter of table1 passes: every
        # round repeats the same work, and this machine has spells of up to
        # 1.6x faster CPU; the slow side reads steadier from run to run.
        values = {
            "setup_s": setup_s,
            "ops_per_s": workload.ops_per_round / max(times[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "table1_s": slow_quartile(table1_times) if table1_times else 0.0,
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                           f"{SPEC_FILE.name}")

    for msg in workload.failures:
        print(f"operation failed: {msg}")
    for msg in workload.errors:
        print(f"check failed: {msg}")
    for name in units:
        print(f"{name:34s} {values[name]:16.6f} {units[name]}")
    result = {
        "correct": not workload.errors,
        "attempted": attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**result, **extra}, indent=1) + "\n")
    if tracer:
        tracer.dump(OUT / f"spans-{stem}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
