"""Acceptance suite: every release criterion, executed at full scale.

Each test prints one PASS line on success; a failed assertion is the FAIL
signal.  The oracle-equivalence suite (500 random instances, simulated
against the analytic predictions) is executed once and shared by the
criteria that read different aspects of it.
"""

import os
import random

import pytest

from spantree import (
    CampaignConfig,
    Deltas,
    LevelAttestation,
    campaign_csv,
    consistency_check,
    generate_erdos_renyi,
    is_valid_att,
    is_valid_link,
    oracle_check,
    report_table1,
    run_campaign,
)
from spantree.attestation import extend
from spantree.crypto import ModelBackend

ORACLE_INSTANCES = 500
ORACLE_SEED = 20240601


def _category(violations, *needles):
    return [v for v in violations if any(n in v for n in needles)]


@pytest.fixture(scope="session")
def oracle_report():
    return oracle_check(instances=ORACLE_INSTANCES, master_seed=ORACLE_SEED)


@pytest.fixture(scope="session")
def er_campaign_rows():
    cfg = CampaignConfig(
        graph_spec="er(63392,824096)",
        protocols=("attested", "baseline"),
        behaviors=("disturb",),
        attack_edges=(25, 1000),
        runs=100,
        master_seed=1,
        analytic_only=True,
        timestamp_header=False,
    )
    return run_campaign(cfg)


def _mean_rln(rows, protocol, g):
    row = next(
        r for r in rows
        if r["protocol"] == protocol and r["g"] == g and r["run_index"] == "MEAN"
    )
    return row["rln_analytic"]


def test_criterion_1_oracle_equivalence(oracle_report):
    """Simulated outcomes match the analytic containment predictions on
    >= 500 random instances within the runtime target."""
    rep = oracle_report
    assert rep.instances >= ORACLE_INSTANCES
    assert rep.cheat_runs >= ORACLE_INSTANCES
    assert rep.disturb_runs >= ORACLE_INSTANCES
    bad = _category(
        rep.violations,
        "escapes the containment set",
        "strictly-lost nodes ended well-directed",
        "failed to stabilize",
        "outside the strict set",
        "went quiet under disturbances",
        "baseline",
    )
    assert bad == [], bad[:5]
    assert rep.elapsed_seconds < 300, f"suite took {rep.elapsed_seconds:.0f}s"
    print(f"\nACCEPTANCE 1 (oracle equivalence, {rep.instances} instances, "
          f"{rep.elapsed_seconds:.0f}s): PASS")


def test_criterion_2_convergence_bound(oracle_report):
    """Clean starts reach legitimate states for every node outside the
    containment set within diameter+1 rounds, adversary-free and under the
    level-minimizing attack."""
    bad = _category(oracle_report.violations, "not legitimate",
                    "left well-directed state")
    assert bad == [], bad[:5]
    print("\nACCEPTANCE 2 (convergence within diam+1): PASS")


def test_criterion_3_consistency_bound():
    """From adversarial starts with stale chains stamped within the clock-skew
    allowance, no valid-but-inconsistent chain survives the expiry bound."""
    rep = consistency_check(instances=100, master_seed=7, max_n=100)
    assert rep.instances >= 100
    assert rep.violations == [], rep.violations[:5]
    print(f"\nACCEPTANCE 3 (consistency bound, {rep.instances} instances): PASS")


def test_criterion_4_disturbance_budget(oracle_report):
    """Measured disturbances outside the strict set after the stabilization
    point never exceed 2*deg_sum - |gap set|."""
    bad = _category(oracle_report.violations, "exceed the budget")
    assert bad == [], bad[:5]
    print("\nACCEPTANCE 4 (disturbance budget): PASS")


def test_criterion_5_attestation_security():
    """Truncation resistance for every chain length up to 6, and forgery
    exclusion under >= 10,000 fuzzed adversary action sequences."""
    backend = ModelBackend(track_issued=True)
    deltas = Deltas(1, 1, 1)
    step = deltas.step

    keys = [backend.keygen(500 + i) for i in range(7)]
    nids = [None] + [bytes([0x10 + j]) * 8 for j in range(1, 7)]
    atts = [LevelAttestation.empty()]
    links = [None]
    for j in range(1, 7):
        att, link = extend(atts[j - 1], keys[j - 1], keys[j].public, nids[j],
                           j * step, backend)
        atts.append(att)
        links.append(link)

    # truncation resistance, exhaustively for lengths <= 6
    for k in range(2, 7):
        reader = keys[k].public
        now = (k + 1) * step
        for cut in range(1, k):
            prefix = LevelAttestation.from_tuples(atts[k].tuples[:cut], backend)
            assert not is_valid_att(prefix, reader, keys[0].public, now,
                                    deltas, cut, backend)
            assert not is_valid_link(prefix, nids[k], links[k], backend)

    # forgery exclusion: the adversary may copy, slice, splice, reorder and
    # re-target harvested material, but never sign with honest secrets
    harvested = [(atts[j], links[j], j) for j in range(1, 7)]
    rng = random.Random(424242)
    sequences = 10_000
    accepted_replays = 0
    for _ in range(sequences):
        att, link, origin = harvested[rng.randrange(len(harvested))]
        tuples = list(att.tuples)
        for _ in range(rng.randrange(1, 4)):
            op = rng.randrange(5)
            if op == 0 and len(tuples) > 1:
                tuples = tuples[: rng.randrange(1, len(tuples))]
            elif op == 1 and len(tuples) > 1:
                tuples = tuples[rng.randrange(1, len(tuples)):]
            elif op == 2 and len(tuples) > 1:
                i, j = rng.randrange(len(tuples)), rng.randrange(len(tuples))
                tuples[i], tuples[j] = tuples[j], tuples[i]
            elif op == 3:
                other = harvested[rng.randrange(len(harvested))][0]
                take = rng.randrange(0, len(other.tuples) + 1)
                tuples = tuples + list(other.tuples[:take])
            else:
                pass  # replay unchanged
        victim = rng.randrange(1, 7)
        candidate = LevelAttestation.from_tuples(tuples, backend)
        link_choice = harvested[rng.randrange(len(harvested))][1]
        now = (len(candidate) + 1) * step
        if is_valid_att(candidate, keys[victim].public, keys[0].public, now,
                        deltas, len(candidate), backend) and \
                is_valid_link(candidate, nids[victim], link_choice, backend):
            # only a verbatim replay of the victim's own delivery may pass
            assert candidate == atts[victim]
            assert link_choice == links[victim]
            accepted_replays += 1
    assert accepted_replays > 0
    print(f"\nACCEPTANCE 5 (attestation security, {sequences} sequences, "
          f"{accepted_replays} verbatim replays accepted): PASS")


def test_criterion_6_er_reproduction(er_campaign_rows):
    """Reference mean lost-node ratios reproduce on a self-generated uniform
    random graph of the reference size: baseline 0.19 +/- 0.05 at 25 attack
    edges; attested <= 0.001 at 25 and 0.12 +/- 0.05 at 1000."""
    baseline_25 = _mean_rln(er_campaign_rows, "baseline", 25)
    attested_25 = _mean_rln(er_campaign_rows, "attested", 25)
    attested_1000 = _mean_rln(er_campaign_rows, "attested", 1000)
    assert baseline_25 == pytest.approx(0.19, abs=0.05), baseline_25
    assert attested_25 <= 0.001, attested_25
    assert attested_1000 == pytest.approx(0.12, abs=0.05), attested_1000
    print(f"\nACCEPTANCE 6 (reference-value reproduction: baseline@25 "
          f"{baseline_25:.3f}, attested@25 {attested_25:.5f}, attested@1000 "
          f"{attested_1000:.3f}): PASS")


def test_criterion_6b_er_structure_metrics():
    """Structural metrics of the self-generated graph match the reference
    values: path length 3.74 +/- 0.05, clustering below 0.001."""
    m = report_table1("er(63392,824096)", master_seed=1, sample_sources=256)
    assert m.node_count == 63392
    assert m.edge_count == 824096
    assert m.characteristic_path_length == pytest.approx(3.74, abs=0.05)
    assert m.clustering_coefficient < 0.001
    print(f"\nACCEPTANCE 6b (structure: cpl {m.characteristic_path_length:.3f}, "
          f"cc {m.clustering_coefficient:.5f}): PASS")


def test_criterion_7_cheat_by_one_delta(oracle_report):
    """Dropping the one-level cheat only ever shrinks the lost sets, both
    analytically and in simulation."""
    bad = _category(
        oracle_report.violations,
        "removing the cheat enlarged",
        "non-cheating",
    )
    assert bad == [], bad[:5]
    assert oracle_report.honest_runs >= ORACLE_INSTANCES
    print("\nACCEPTANCE 7 (cheat-by-one delta): PASS")


DATASET_DIR = os.environ.get("SPANTREE_DATASET_DIR", "")
_fb = os.path.join(DATASET_DIR, "facebook.txt") if DATASET_DIR else ""
_rp = os.path.join(DATASET_DIR, "ripple.txt") if DATASET_DIR else ""


@pytest.mark.skipif(
    not (DATASET_DIR and os.path.exists(_fb) and os.path.exists(_rp)),
    reason="external datasets not supplied (set SPANTREE_DATASET_DIR)",
)
def test_criterion_8_external_datasets():
    """Optional: reference metrics and lost-node ratios for the two
    real-world datasets, when their edge lists are supplied."""
    fb = report_table1(f"file:{_fb}", sample_sources=256)
    assert fb.node_count == 63392 and fb.edge_count == 816886
    assert fb.characteristic_path_length == pytest.approx(4.32, abs=0.02)
    assert fb.clustering_coefficient == pytest.approx(0.253, abs=0.02)
    rp = report_table1(f"file:{_rp}", sample_sources=256)
    assert rp.node_count == 67149 and rp.edge_count == 99787

    for spec, base_expect, att_expect, att_tol in (
        (f"file:{_fb}", 0.57, 0.0005, 0.005),
        (f"file:{_rp}", 0.75, 0.34, 0.05),
    ):
        rows = run_campaign(CampaignConfig(
            graph_spec=spec, protocols=("attested", "baseline"),
            behaviors=("disturb",), attack_edges=(25,), runs=100,
            master_seed=1, analytic_only=True, timestamp_header=False,
        ))
        assert _mean_rln(rows, "baseline", 25) == pytest.approx(base_expect, abs=0.05)
        assert _mean_rln(rows, "attested", 25) == pytest.approx(att_expect, abs=att_tol)
    print("\nACCEPTANCE 8 (external datasets): PASS")


def test_criterion_9_campaign_determinism(tmp_path):
    """A campaign re-run with an identical config yields a byte-identical CSV
    (timestamp header suppressed), simulation columns included."""
    cfg = CampaignConfig(
        graph_spec="er(60,130)",
        protocols=("attested", "baseline"),
        behaviors=("cheat", "disturb"),
        attack_edges=(2, 3),
        runs=2,
        master_seed=17,
        analytic_only=False,
        timestamp_header=False,
    )
    first = campaign_csv(cfg)
    second = campaign_csv(cfg)
    assert first == second
    assert "rln_analytic" in first.splitlines()[0]
    print("\nACCEPTANCE 9 (byte-identical campaign re-run): PASS")
