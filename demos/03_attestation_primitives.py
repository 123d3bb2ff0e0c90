"""The security objects underneath the protocol, hands on.

Shows a level attestation being built hop by hop, what each validity
condition rejects, and why a relay cannot shorten a chain.
"""

from spantree import (
    Deltas,
    LevelAttestation,
    extend,
    is_valid_att,
    is_valid_link,
)
from spantree.crypto import MODEL


def main() -> None:
    deltas = Deltas(c=1, d=1, e=1)
    step = deltas.step
    root, alice, bob = MODEL.keygen(1), MODEL.keygen(2), MODEL.keygen(3)
    nid_root_at_alice = b"alice->ro"  # the ID alice assigned to the root
    nid_alice_at_bob = b"bob->alice"

    # the root starts the chain for alice, alice extends it for bob
    att1, link1 = extend(LevelAttestation.empty(), root, alice.public,
                         nid_root_at_alice, ts=1 * step, backend=MODEL)
    att2, link2 = extend(att1, alice, bob.public, nid_alice_at_bob,
                         ts=2 * step, backend=MODEL)
    now = 3 * step
    print("alice accepts her one-hop chain:",
          is_valid_att(att1, alice.public, root.public, 2 * step, deltas, 1, MODEL))
    print("bob accepts his two-hop chain:  ",
          is_valid_att(att2, bob.public, root.public, now, deltas, 2, MODEL))
    print("...with the matching link signature:",
          is_valid_link(att2, nid_alice_at_bob, link2, MODEL))

    # each validity condition earns its keep
    print("\nclaiming the wrong length:",
          is_valid_att(att2, bob.public, root.public, now, deltas, 1, MODEL))
    print("evaluated after expiry:   ",
          is_valid_att(att2, bob.public, root.public, now + 10, deltas, 2, MODEL))
    print("read by the wrong node:   ",
          is_valid_att(att2, alice.public, root.public, now, deltas, 2, MODEL))

    # a relay cannot pass alice's one-hop chain off to bob: the final
    # signature names alice, and the link signature pins the chain digest
    print("\nreplaying alice's chain at bob:",
          is_valid_att(att1, bob.public, root.public, now, deltas, 1, MODEL))
    truncated = LevelAttestation.from_tuples(att2.tuples[:1], MODEL)
    print("truncating bob's chain back to one hop:",
          is_valid_link(truncated, nid_alice_at_bob, link2, MODEL))


if __name__ == "__main__":
    main()
