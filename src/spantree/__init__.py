"""Attack-resistant BFS spanning-tree construction: a deterministic
simulator and analysis library for route-restricted overlay networks.

The package implements two self-stabilizing tree protocols over a
shared-register model -- a signature-based construction whose level claims
are backed by attestation chains, and the non-cryptographic baseline -- plus
a collective byzantine adversary, analytic containment-set oracles, and a
reproducible experiment-campaign layer.
"""

from .adversary import (
    AdversaryBehavior,
    AdversaryConfig,
    attack_victims,
    place_attack_edges,
)
from .analysis import (
    containment_sets,
    mean_ci99,
    simulated_lost_set,
)
from .attestation import (
    Deltas,
    LevelAttestation,
    extend,
    is_valid_att,
    is_valid_link,
)
from .campaign import (
    CampaignConfig,
    campaign_csv,
    consistency_check,
    derive_seed,
    generate_degree_skewed,
    graph_from_spec,
    oracle_check,
    parse_campaign_config,
    report_table1,
    run_campaign,
)
from .graph import (
    Graph,
    bfs_distances,
    bfs_distances_avoiding,
    exact_diameter,
    extract_largest_component,
    generate_erdos_renyi,
    metrics,
)
from .protocol import (
    InitMode,
    ProtocolKind,
    RegisterContent,
    init_node,
    prec,
    step_honest_attested,
    step_honest_baseline,
)
from .simcore import (
    RunConfig,
    Snapshot,
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

__version__ = "0.1.0"
