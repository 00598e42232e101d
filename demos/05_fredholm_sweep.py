"""Refinement sweeps: a numerical proxy for Fredholm behavior per isotype.

Discretize an invariant operator on the reflection-symmetric circle at a
few grid sizes, compress to one isotype, and track a small singular value.
If it stays bounded away from zero under refinement the compressed problem
behaves like an invertible (Fredholm) one; if it decays to zero the
isotype is degenerating.

The second family is diag(sin^2) (I + R)/2 + (I - R)/2 for the reflection
R: multiplication by sin^2 on even functions (the trivial isotype) and the
identity on odd ones (the sign isotype).  It contains R itself, so it lies
outside the paper's classical pseudodifferential operators, and its
separation of the two isotypes comes from the (I +/- R)/2 factors:
multiplication by sin^2 alone, which vanishes at the two reflection fixed
points, would be Fredholm on neither isotype.  The sweep separates the two
verdicts.
"""
from equifred import (
    build_fixed_point_degenerate_operator,
    build_invariant_circle_operator,
    character,
    fredholm_proxy_sweep,
    isotypical_block,
    make_group,
)

G = make_group([2])
TRIV, SIGN = character(G, [0]), character(G, [1])
SIZES = (32, 64, 128)


def show(sweep, label):
    vals = ", ".join(f"{v:.5f}" for v in sweep.values)
    print(f"  {label:<18} values [{vals}] -> {sweep.verdict}")


# A uniformly elliptic family: shifted Laplacian, reflection-invariant.
print(f"shifted Laplacian on the circle, sizes {SIZES}, tracking the 4th")
print("smallest singular value of each isotypical block:")
laplacian = lambda n: build_invariant_circle_operator(
    n, 2, "shifted_laplacian", action="reflection"
)
show(fredholm_proxy_sweep(laplacian, TRIV, SIZES), "trivial isotype:")
show(fredholm_proxy_sweep(laplacian, SIGN, SIZES), "sign isotype:")

# The partially elliptic family: multiplication by sin^2 on even functions
# (vanishing at both fixed points of the reflection) plus the identity on
# odd functions.
print("\nfixed-point-degenerate family:")
show(fredholm_proxy_sweep(build_fixed_point_degenerate_operator, TRIV, SIZES),
     "trivial isotype:")
show(fredholm_proxy_sweep(build_fixed_point_degenerate_operator, SIGN, SIZES),
     "sign isotype:")

triv = fredholm_proxy_sweep(build_fixed_point_degenerate_operator, TRIV, SIZES)
print(f"\nthe trivial-isotype value falls {triv.values[0] / triv.values[-1]:.1f}x "
      f"from n={SIZES[0]} to n={SIZES[-1]}: one isotype can degenerate while")
print("the other stays invertible, so per-isotype verdicts are strictly finer")
print("than a single global one.")

# The per-isotype blocks themselves are ordinary matrices, available directly.
op = build_fixed_point_degenerate_operator(32)
b0 = isotypical_block(op, TRIV)
b1 = isotypical_block(op, SIGN)
print(f"\nat n=32 the blocks have shapes {b0.shape} and {b1.shape} "
      f"(together {b0.shape[0] + b1.shape[0]} = {op.n} grid dimensions)")
