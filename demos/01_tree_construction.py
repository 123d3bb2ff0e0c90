"""Build a BFS spanning tree over a small overlay, then attack it.

Walks through the core loop: an honest run of the signature-based protocol
from a cold start, then the same overlay with a level-minimizing adversary
attached, comparing what the simulator measures against what the analytic
containment sets predict.  The prediction needs only the honest overlay and
the attacked nodes; the simulator runs on the overlay with the adversary
node added.
"""

from spantree import (
    AdversaryBehavior,
    AdversaryConfig,
    Deltas,
    RunConfig,
    attack_victims,
    containment_sets,
    detect_legitimate,
    extract_largest_component,
    generate_erdos_renyi,
    ill_directed_set,
    run,
)
from spantree.graph import exact_diameter


def main() -> None:
    # a sparse random overlay, reduced to its largest component
    g, _ = extract_largest_component(generate_erdos_renyi(40, 70, seed=2))
    diam = exact_diameter(g)
    root = 0
    print(f"overlay: {g.n} nodes, {g.edge_count} edges, diameter {diam}")

    # adversary-free cold start: every node legitimate within diameter+1 rounds
    out = run(RunConfig(graph=g, root=root, max_rounds=diam + 1))
    legit = sum(
        detect_legitimate(g, root, frozenset(), out.final.keys, out.trace[-1], u)
        for u in range(g.n)
    )
    print(f"after {diam + 1} rounds every node is in a legitimate state: "
          f"{legit}/{g.n}")
    print("levels of the first ten nodes:", out.trace[-1].levels[:10])

    # attach a collective adversary with five attack edges and let it relay
    # harvested attestations one level short of the truth
    victims = attack_victims(g, 5, seed=99)
    report = containment_sets(g, root, victims)
    aug, m = g.with_added_node(victims), g.n
    print(f"\nadversary node {m} at distance {report.adv_root_distance} from the root")
    print(f"analytic containment set ({len(report.containment_set)} nodes):",
          sorted(report.containment_set))
    print(f"analytic strict set      ({len(report.strict_set)} nodes):",
          sorted(report.strict_set))

    cfg = RunConfig(
        graph=aug, root=root,
        adversary=AdversaryConfig(AdversaryBehavior.CHEAT_MIN_LEVEL),
        adversary_node=m,
        deltas=Deltas(c=14, d=1, e=1),  # ample skew so the relay never expires
        max_rounds=4 * (diam + 2) + 20,
        stability_window=diam + 6,
    )
    attacked = run(cfg)
    ill = ill_directed_set(aug, root, attacked.final.malicious, attacked.trace[-1])
    print(f"\nsimulated ill-directed set ({len(ill)} nodes):", sorted(ill))
    print("contained in the analytic set:", ill <= report.containment_set)
    print("covers every strictly-lost node:", report.strict_set <= ill)

    # the baseline protocol loses far more on the same instance
    print(f"\nbaseline formula would lose {len(report.baseline_lost)} nodes "
          f"(plus {len(report.baseline_ties)} ties)")


if __name__ == "__main__":
    main()
