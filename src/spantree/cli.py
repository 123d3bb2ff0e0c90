"""Command-line entry points.

Subcommands:
  campaign <config>      run an experiment campaign from a key=value config
                         file and emit the CSV report
  metrics <graphspec>    print structural metrics of a graph spec
  oracle-check <config>  run the simulated-vs-analytic equivalence suite

Exit code is 0 on success and nonzero with a diagnostic when any internal
consistency check fails.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .campaign import (
    campaign_csv,
    oracle_check,
    parse_campaign_config,
    parse_key_values,
    report_table1,
    run_campaign,
)


def _cmd_campaign(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fp:
        cfg = parse_campaign_config(fp.read())
    if args.output is not None:
        cfg = replace(cfg, output=args.output)
    if args.no_timestamp:
        cfg = replace(cfg, timestamp_header=False)
    rows = run_campaign(cfg)
    text = campaign_csv(cfg, rows)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fp:
            fp.write(text)
        print(f"wrote {cfg.output} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    m = report_table1(
        args.graphspec,
        master_seed=args.seed,
        sample_sources=args.sample_sources,
        lcc=not args.no_lcc,
    )
    print(f"nodes:    {m.node_count}")
    print(f"edges:    {m.edge_count}")
    print(f"cpl:      {m.characteristic_path_length:.4f}"
          + ("" if m.diameter_is_exact else "  (sampled)"))
    print(f"cc:       {m.clustering_coefficient:.4f}")
    print(f"diameter: {m.diameter}" + ("" if m.diameter_is_exact else "  (lower bound)"))
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    params: dict[str, str] = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fp:
            params = parse_key_values(fp.read())
        unknown = set(params) - {"instances", "master_seed"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    instances = int(params.get("instances", args.instances))
    seed = int(params.get("master_seed", args.seed))
    report = oracle_check(instances=instances, master_seed=seed)
    print(f"instances checked: {report.instances}")
    print(f"cheat/disturb/honest/baseline runs: "
          f"{report.cheat_runs}/{report.disturb_runs}/"
          f"{report.honest_runs}/{report.baseline_runs}")
    print(f"elapsed: {report.elapsed_seconds:.1f}s")
    if report.violations:
        print(f"VIOLATIONS ({len(report.violations)}):")
        for v in report.violations[:50]:
            print(f"  {v}")
        return 1
    print("all simulated outcomes match the analytic predictions")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="spantree")
    sub = parser.add_subparsers(dest="command", required=True)

    p_camp = sub.add_parser("campaign", help="run an experiment campaign")
    p_camp.add_argument("config")
    p_camp.add_argument("--output", default=None, help="override the output path")
    p_camp.add_argument("--no-timestamp", action="store_true",
                        help="suppress the timestamp header line")
    p_camp.set_defaults(func=_cmd_campaign)

    p_met = sub.add_parser("metrics", help="graph structural metrics")
    p_met.add_argument("graphspec")
    p_met.add_argument("--sample-sources", type=int, default=None)
    p_met.add_argument("--seed", type=int, default=1)
    p_met.add_argument("--no-lcc", action="store_true",
                       help="keep the full graph instead of its largest component")
    p_met.set_defaults(func=_cmd_metrics)

    p_orc = sub.add_parser("oracle-check",
                           help="simulated-vs-analytic equivalence suite")
    p_orc.add_argument("config", nargs="?", default=None)
    p_orc.add_argument("--instances", type=int, default=50)
    p_orc.add_argument("--seed", type=int, default=20240601)
    p_orc.set_defaults(func=_cmd_oracle_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
