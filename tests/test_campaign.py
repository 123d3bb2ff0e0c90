import hashlib
import re

import pytest

from spantree import (
    CampaignConfig,
    Deltas,
    campaign_csv,
    derive_seed,
    generate_degree_skewed,
    graph_from_spec,
    parse_campaign_config,
    report_table1,
    run_campaign,
)
from spantree import campaign
from spantree.campaign import CSV_COLUMNS
from spantree.cli import main as cli_main


SMALL_CONFIG = """
# comment line
graph = er(60,130)
protocols = attested,baseline
behaviors = cheat,disturb
attack_edges = 2,3
runs = 3
master_seed = 11
analytic_only = true
timestamp_header = false
"""


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_campaign_config(SMALL_CONFIG)
        assert cfg.graph_spec == "er(60,130)"
        assert cfg.protocols == ("attested", "baseline")
        assert cfg.behaviors == ("cheat", "disturb")
        assert cfg.attack_edges == (2, 3)
        assert cfg.runs == 3
        assert cfg.analytic_only
        assert not cfg.timestamp_header
        assert cfg.master_seed == 11

    def test_defaults(self):
        cfg = parse_campaign_config("graph = er(30,60)")
        assert cfg.runs == 100
        assert cfg.analytic_only
        assert cfg.timestamp_header

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_campaign_config("graph = er(30,60)\nbogus = 1")

    def test_missing_graph_rejected(self):
        with pytest.raises(ValueError, match="graph"):
            parse_campaign_config("runs = 5")

    def test_delta_c_key(self):
        assert parse_campaign_config("graph = er(60,130)\ndelta_c = 8").delta_c == 8
        assert parse_campaign_config("graph = er(60,130)").delta_c is None

    @pytest.mark.parametrize("analytic", ["true", "false"])
    @pytest.mark.parametrize("line", ["delta_d = -1", "delta_e = -5", "delta_c = -3"])
    def test_negative_timing_bounds_rejected(self, analytic, line):
        key = line.split()[0]
        with pytest.raises(ValueError, match=f"{key} must be non-negative"):
            parse_campaign_config(f"graph = er(60,130)\nanalytic_only = {analytic}\n{line}")

    def test_zero_timing_bounds_accepted(self):
        cfg = parse_campaign_config("graph = er(60,130)\ndelta_d = 0\ndelta_e = 0\ndelta_c = 0")
        assert (cfg.delta_d, cfg.delta_e, cfg.delta_c) == (0, 0, 0)

    @pytest.mark.parametrize("line", [
        "protocols = attested,attested",
        "behaviors = disturb,cheat,disturb",
        "attack_edges = 2,2",
    ])
    def test_duplicate_list_entries_rejected(self, line):
        # a repeated entry would put two runs' worth of rows in one cell
        with pytest.raises(ValueError, match=f"{line.split()[0]} lists a value twice"):
            parse_campaign_config(f"graph = er(60,130)\n{line}")

    @pytest.mark.parametrize("key", ["protocols", "behaviors", "attack_edges"])
    def test_empty_lists_rejected(self, key):
        with pytest.raises(ValueError, match=f"{key} must list at least one value"):
            CampaignConfig(graph_spec="er(60,130)", **{key: ()})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            parse_campaign_config("graph = er(30,60)\nanalytic_only = perhaps")
        with pytest.raises(ValueError):
            parse_campaign_config("graph = er(30,60)\nbehaviors = sneaky")
        with pytest.raises(ValueError):
            parse_campaign_config("graph = er(30,60)\nruns = 0")


class TestGraphSpecs:
    def test_er_spec(self):
        g = graph_from_spec("er(50,100)", master_seed=3)
        assert g.n <= 50
        assert graph_from_spec("er(50,100)", master_seed=3) == g

    def test_file_and_randomized_specs(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
        g = graph_from_spec(f"file:{path}")
        assert g.n == 4 and g.edge_count == 5
        shuffled = graph_from_spec(f"randomized({path})", master_seed=4)
        assert sorted(shuffled.degrees.tolist()) == sorted(g.degrees.tolist())

    def test_degree_skewed_generator(self):
        g = generate_degree_skewed(80, 2, seed=6)
        assert g.n == 80
        assert g.degrees.max() > 6  # hubs emerge
        assert generate_degree_skewed(80, 2, seed=6) == g


class TestRunCampaign:
    def test_row_counting_contract(self):
        cfg = parse_campaign_config(SMALL_CONFIG)
        rows = run_campaign(cfg)
        # 2 protocols x 2 behaviors x 2 budgets = 8 cells, each 3 runs + MEAN + CI99
        assert len(rows) == 8 * (3 + 2)
        run_rows = [r for r in rows if isinstance(r["run_index"], int)]
        assert len(run_rows) == 24
        assert {r["run_index"] for r in rows} - set(range(3)) == {"MEAN", "CI99"}

    def test_summary_mean_matches_rows(self):
        cfg = parse_campaign_config(SMALL_CONFIG)
        rows = run_campaign(cfg)
        cells = {}
        for r in rows:
            cells.setdefault((r["protocol"], r["behavior"], r["g"]), []).append(r)
        for cell_rows in cells.values():
            runs = [r for r in cell_rows if isinstance(r["run_index"], int)]
            mean_row = next(r for r in cell_rows if r["run_index"] == "MEAN")
            expected = sum(r["rln_analytic"] for r in runs) / len(runs)
            assert mean_row["rln_analytic"] == pytest.approx(expected)

    def test_protocols_share_placements(self):
        cfg = parse_campaign_config(SMALL_CONFIG)
        rows = [r for r in run_campaign(cfg) if isinstance(r["run_index"], int)]
        by_key = {}
        for r in rows:
            by_key.setdefault((r["behavior"], r["g"], r["run_index"]), []).append(r)
        for group in by_key.values():
            assert len({r["root"] for r in group}) == 1
            assert len({r["seed"] for r in group}) == 1

    def test_simulated_column_populated_when_not_analytic(self):
        cfg = CampaignConfig(
            graph_spec="er(40,90)", protocols=("attested",), behaviors=("cheat",),
            attack_edges=(2,), runs=2, master_seed=5, analytic_only=False,
            timestamp_header=False,
        )
        rows = [r for r in run_campaign(cfg) if isinstance(r["run_index"], int)]
        for r in rows:
            assert r["rln_simulated"] is not None
            assert r["rln_simulated"] <= r["rln_analytic"] + 1e-9

    def test_csv_columns_fixed_order(self):
        cfg = parse_campaign_config(SMALL_CONFIG)
        text = campaign_csv(cfg)
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_unusable_instance_fails_after_bounded_retries(self, tmp_path):
        # two components with the adversary attachable to one side only:
        # no root can reach every honest node, so the run must error out
        path = tmp_path / "split.txt"
        path.write_text("0 1\n2 3\n")
        cfg = CampaignConfig(
            graph_spec=f"file:{path}", protocols=("attested",),
            behaviors=("cheat",), attack_edges=(1,), runs=1,
            master_seed=5, lcc=False, timestamp_header=False,
        )
        with pytest.raises(ValueError, match="root"):
            run_campaign(cfg)


class TestDistanceMeans:
    """Honest-node distance means reported in the campaign rows."""

    @staticmethod
    def _row(tmp_path, edges, g_atk, master_seed):
        path = tmp_path / "g.txt"
        path.write_text(edges)
        cfg = CampaignConfig(
            graph_spec=f"file:{path}", protocols=("attested",), behaviors=("cheat",),
            attack_edges=(g_atk,), runs=1, master_seed=master_seed,
            timestamp_header=False,
        )
        return run_campaign(cfg)[0]

    def test_three_node_path(self, tmp_path):
        # r(0)-a(1)-m(2): honest means 0.5 and 1.5, effective 2.5
        row = self._row(tmp_path, "0 1\n", 1, master_seed=5)
        assert (row["root"], row["d_m_r"]) == (0, 2)
        assert row["mean_dist_root"] == pytest.approx(0.5)
        assert row["mean_dist_adv"] == pytest.approx(1.5)
        assert row["effective_adv_dist"] == pytest.approx(2.5)

    def test_fully_connected_adversary(self, tmp_path):
        row = self._row(tmp_path, "0 1\n1 2\n0 2\n", 3, master_seed=1)
        assert row["mean_dist_adv"] == pytest.approx(1.0)
        assert row["effective_adv_dist"] == pytest.approx(1.0)  # d(m, r) = 1


class TestReportTable1:
    def test_triangle_metrics(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        m = report_table1(f"file:{path}")
        assert (m.node_count, m.edge_count) == (3, 3)
        assert m.characteristic_path_length == 1.0
        assert m.clustering_coefficient == 1.0


class TestDeriveSeed:
    def test_stable_values(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, 2) != derive_seed(12)
        assert 0 <= derive_seed("x") < 2**64


class TestOracleCheck:
    @pytest.mark.parametrize("instances", [0, -3])
    def test_empty_suite_rejected(self, instances):
        with pytest.raises(ValueError, match="instances must be at least 1"):
            campaign.oracle_check(instances)


class TestConsistencyOracle:
    @pytest.mark.parametrize("instances", [0, -3])
    def test_empty_suite_rejected(self, instances):
        with pytest.raises(ValueError, match="instances must be at least 1"):
            campaign.consistency_check(instances)

    def test_clean_on_correct_implementation(self):
        from spantree import consistency_check

        rep = consistency_check(instances=6, master_seed=7)
        assert rep.instances == 6
        assert rep.violations == []

    def test_detects_broken_expiry(self, monkeypatch):
        # sabotage the freshness rule; replayed stale chains must be flagged
        from spantree import consistency_check
        from spantree.attestation import LevelAttestation

        monkeypatch.setattr(LevelAttestation, "expiry_base",
                            lambda self, step: 10**12)
        rep = consistency_check(instances=8, master_seed=7)
        assert rep.violations
        assert "stale chain" in rep.violations[0]

    def test_violation_does_not_stop_later_instances(self, monkeypatch):
        # each instance is checked on its own: a violation in one does not
        # stop the checks of the instances after it
        from spantree import consistency_check
        from spantree.attestation import LevelAttestation

        monkeypatch.setattr(LevelAttestation, "expiry_base",
                            lambda self, step: 10**12)
        rep = consistency_check(instances=20, master_seed=7)
        tags = {re.match(r"consistency(\d+)\(", v).group(1) for v in rep.violations}
        assert len(tags) > 1

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match=r"deltas\.step"):
            campaign.consistency_check(1, deltas=Deltas(1, 0, 0))

    def test_stale_chain_valid_until_twice_the_skew(self):
        # instance 158 of seed 7 holds a stale length-1 chain that is still
        # valid at time 4 = 2c + step, which the old threshold c + step * 1
        # reported as a violation
        from spantree.campaign import _consistency_instance

        assert _consistency_instance(158, 7, 100, Deltas(1, 1, 1)) == []


# SHA-256 of the simulated behaviour hashed below, recorded before the
# attested round loop was fused for speed.  Any change to a simulated byte
# changes it; a performance change must leave it as it is.
BEHAVIOUR_FINGERPRINT = "ce1642220a0875ac1731f6e432152af8c27ff4b83592d295e1cff9b578e94f01"


class TestBehaviourFingerprint:
    def test_fixed_seed_runs_unchanged(self, monkeypatch):
        # every Snapshot of every run, and each run's final register chain
        # digests and link signatures, for the first 3 criterion-1 oracle
        # instances and the first 5 criterion-3 consistency instances
        h = hashlib.sha256()
        real_run = campaign.run

        def recording_run(cfg, *args, **kwargs):
            out = real_run(cfg, *args, **kwargs)
            for snap in out.trace:
                h.update(repr(tuple(snap)).encode())
            for row in out.final.registers:
                for reg in row:
                    h.update(repr((
                        reg.att.digest if reg.att is not None else None,
                        reg.link_sig.to_bytes() if reg.link_sig is not None else None,
                    )).encode())
            return out

        monkeypatch.setattr(campaign, "run", recording_run)
        assert campaign.oracle_check(3, 20240601).violations == []
        assert campaign.consistency_check(5, 7).violations == []
        assert h.hexdigest() == BEHAVIOUR_FINGERPRINT


# SHA-256 of the er-analytic benchmark campaign's CSV at master seed 1: the
# evaluation-scale graph, victim placements, roots and both BFS passes of every
# containment report.  A performance change must leave it as it is.
ER_ANALYTIC_CSV_SHA256 = "28749713b85f3c80a71f4201b15924404cb7174629d3869c54860a2b5c39e7da"


class TestErAnalyticFingerprint:
    def test_evaluation_scale_csv_unchanged(self):
        cfg = parse_campaign_config("\n".join([
            "graph = er(63392,824096)",
            "protocols = attested,baseline",
            "behaviors = disturb",
            "attack_edges = 25,1000",
            "runs = 3",
            "master_seed = 1",
            "analytic_only = true",
            "timestamp_header = false",
        ]))
        csv = campaign_csv(cfg, run_campaign(cfg))
        assert hashlib.sha256(csv.encode()).hexdigest() == ER_ANALYTIC_CSV_SHA256


class TestCli:
    def test_campaign_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(
            "graph = er(40,80)\nprotocols = attested\nbehaviors = disturb\n"
            f"attack_edges = 2\nruns = 2\nmaster_seed = 3\noutput = {out_path}\n"
            "timestamp_header = false\n"
        )
        assert cli_main(["campaign", str(cfg_path)]) == 0
        text = out_path.read_text()
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_metrics_subcommand(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        assert cli_main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nodes:    3" in out
        assert "cpl:      1.0000" in out

    @pytest.mark.parametrize("argv,message", [
        (["metrics", "er(50,100)", "--sample-sources", "0"], "sample_sources must be at least 1"),
        (["metrics", "er(5,3,2)"], "er(N,M) expects two integers"),
        (["metrics", "er(5,x)"], "er(N,M) expects two integers"),
        (["metrics", "er(5,-3)"], "non-negative"),
    ])
    def test_metrics_bad_input_exits_2(self, capsys, argv, message):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err

    def test_oracle_check_subcommand(self, capsys):
        assert cli_main(["oracle-check", "--instances", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "instances checked: 3" in out
        assert "match the analytic predictions" in out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_oracle_check_empty_suite_exits_2(self, capsys, count):
        assert cli_main(["oracle-check", "--instances", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "instances must be at least 1" in captured.err

    def test_oracle_check_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("instances = 2\nmaster_seed = 9\n")
        assert cli_main(["oracle-check", str(cfg)]) == 0
        assert "instances checked: 2" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        "instances = 1\nbogus\ninstancez = 5\n",
        "instances = 1\ninstancez = 5\n",
    ], ids=["line-without-equals", "unknown-key"])
    def test_oracle_check_config_errors(self, tmp_path, capsys, text):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text(text)
        assert cli_main(["oracle-check", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_campaign_cli_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(
            "graph = er(40,80)\nprotocols = attested\nattack_edges = 2\nruns = 2\n"
        )
        assert cli_main(["campaign", str(cfg_path), "--output", str(out_path),
                         "--no-timestamp"]) == 0
        assert out_path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

    @pytest.mark.parametrize("analytic", ["true", "false"])
    def test_campaign_negative_timing_bound_exits_2(self, tmp_path, capsys, analytic):
        cfg_path = tmp_path / "c.cfg"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(
            f"graph = er(40,80)\nanalytic_only = {analytic}\nruns = 1\n"
            f"delta_e = -5\noutput = {out_path}\n"
        )
        assert cli_main(["campaign", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "delta_e must be non-negative" in captured.err
        assert not out_path.exists()

    def test_campaign_duplicate_attack_edges_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(
            "graph = er(40,80)\nprotocols = attested,attested\nattack_edges = 2,2\n"
            f"runs = 2\noutput = {out_path}\n"
        )
        assert cli_main(["campaign", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "lists a value twice" in captured.err
        assert not out_path.exists()

    def test_error_exit_code(self, capsys):
        assert cli_main(["campaign", "/nonexistent/file.cfg"]) == 2
