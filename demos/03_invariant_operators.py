"""Block-diagonalizing invariant operators, and which blocks survive induction.

An operator commuting with a unitary representation splits into one block
per character.  The blocks carry the whole spectrum, compose
multiplicatively, and -- for operators induced from a subgroup -- an
isotypical compression kills exactly the commutant factors whose isotype
disagrees with the chosen character on the subgroup.
"""
import numpy as np

from equifred import (
    SubgroupCharacter,
    character,
    decompose,
    diagonal_rep,
    dual_characters,
    ker_im_pi_alpha,
    make_group,
    pi_alpha_restrict,
    random_rep,
    regular_rep,
    subgroup_from_generators,
)

G = make_group([4])
rep = regular_rep(G)
rng = np.random.default_rng(11)

# Group-averaging any matrix produces an invariant one.
raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
m = sum(rep.matrix(g) @ raw @ rep.matrix(G.inv(g)) for g in G.elements) / G.order
print("regular representation of Z_4, randomly averaged invariant operator")

print("\nisotypical blocks:")
blocks = {}
for chi in dual_characters(G):
    block = pi_alpha_restrict(rep, m, chi)  # checks that m commutes with the action
    blocks[chi.exponents] = block
    vals = np.round(np.linalg.eigvals(block), 4) if block.size else []
    print(f"  chi_{chi.exponents}: block {block.shape}, eigenvalues {vals}")

merged = sorted(np.concatenate([np.linalg.eigvals(b) for b in blocks.values()]),
                key=lambda z: (z.real, z.imag))
full = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag))
print(f"\nblocks carry the full spectrum: max deviation "
      f"{max(abs(a - b) for a, b in zip(merged, full)):.2e}")

# Blocks are multiplicative: the block of a product is the product of blocks.
raw2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
m2 = sum(rep.matrix(g) @ raw2 @ rep.matrix(G.inv(g)) for g in G.elements) / G.order
chi = character(G, [1])
lhs = pi_alpha_restrict(rep, m @ m2, chi)
rhs = pi_alpha_restrict(rep, m, chi) @ pi_alpha_restrict(rep, m2, chi)
print(f"multiplicativity defect on the chi_(1,) block: "
      f"{np.linalg.norm(lhs - rhs, 2):.2e}")

# Now the induced picture: a subgroup representation built from two isotypes,
# compressed to a parent character alpha.  The factor whose isotype matches
# alpha on H survives; the other dies.
H = subgroup_from_generators(G, [[2]])
rho0 = SubgroupCharacter(H, character(G, [0]))   # trivial on H
rho1 = SubgroupCharacter(H, character(G, [1]))   # sign on H
beta = diagonal_rep(H, [rho0, rho1, rho1])        # isotypes with mult 1 and 2
alpha = character(G, [1])
split = ker_im_pi_alpha(H, G, beta, alpha)
print(f"\nH = {H.elements}, beta = rho0 + 2*rho1, alpha = chi_{alpha.exponents}")
for j, (rho, mult) in enumerate(split.factors):
    fate = "survives" if j in split.im_indices else "dies"
    print(f"  factor {j}: isotype {rho.representative.exponents} "
          f"(multiplicity {mult}, a {mult}x{mult} matrix algebra) -> {fate}")

# Sanity: the same split computed on a random isomorphic subgroup rep.
beta2 = random_rep(H, 3, rng)
mv = decompose(beta2)
print(f"\nrandom 3-dim H-rep decomposes as "
      f"{[(chi.representative.exponents, k) for chi, k in mv.entries]}")
