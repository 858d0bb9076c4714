"""The ten components of W^1_4 on a genus-5 chain, bundle by bundle.

Each component of the degenerate Brill-Noether curve is labelled by a ballot
sequence in {1,2} plus a marked chain position.  Propagating vanishing
orders down the chain pins a line bundle O(uP + (d-u)Q) on every elliptic
component except the marked one, which stays free ("L").
"""

from bncurve import (
    BNComponentId,
    ChainSpec,
    all_components,
    bundle_name,
    propagate,
    render_tables,
)

chain = ChainSpec.rho_one(2)
print(f"chain: genus {chain.g}, degree {chain.d}, rank {chain.r}")
print()
print(render_tables(chain, "text"))

print()
print("vanishing orders (u1, u2) down the chain for two sample components:")
for comp in [BNComponentId((1, 2, 1, 2), 2), BNComponentId((1, 1, 2, 2), 4)]:
    vanishing, offsets = propagate(chain, comp)
    print(f"  {comp.label}:")
    for i, ((u1, u2), u) in enumerate(zip(vanishing, offsets), start=1):
        print(f"    C_{i}: ({u1}, {u2})  bundle {bundle_name(u, chain.d)}")

print()
print("all ten labels, in the canonical order used everywhere:")
print(" ", " ".join(c.label for c in all_components(chain)))
