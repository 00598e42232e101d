"""Sample bundles, the pair space X, and isotype-wise ellipticity.

A bundle is a finite set of sample points with a group action, a fiber at
every point, and unitary transports that realize the action on fibers.  A
symbol assigns each fiber an endomorphism; ellipticity is decided isotype
by isotype, which is strictly finer than plain invertibility when the
action has fixed points.
"""
import numpy as np

from equifred import (
    alpha_elliptic_check,
    build_X,
    character,
    dual_characters,
    make_group,
    minimal_isotropy,
    partition_by_beta,
    pointwise_invertible,
    prim_enumerate,
    random_bundle,
    random_symbol,
    sample_bundle,
    symbol_field,
    trivial_subgroup,
    validate_bundle,
)

# Two fixed points of a Z_2 action, with 2-dim fibers on which the nontrivial
# element acts as diag(1, -1): each fiber mixes both isotypes.
G = make_group([2])
eye, flip = np.eye(2), np.diag([1.0, -1.0])
bundle = sample_bundle(
    G,
    points=["p0", "p1"],
    base={"p0": "x0", "p1": "x1"},
    action={((0,), p): p for p in ("p0", "p1")} | {((1,), p): p for p in ("p0", "p1")},
    fiber_dim={"p0": 2, "p1": 2},
    transport={((0,), "p0"): eye, ((0,), "p1"): eye,
               ((1,), "p0"): flip, ((1,), "p1"): flip},
)
print(f"validation: ok = {validate_bundle(bundle).ok}")
print(f"minimal isotropy: {minimal_isotropy(bundle).elements} (both points are fixed)")

# X is the set of (point, isotype) pairs, grouped into orbits.
x = build_X(bundle)
print(f"\nX has {len(x)} orbits:")
for orbit in x:
    xp = orbit[0]
    print(f"  point {xp.point}, isotype {xp.rho.representative.exponents}")

for record in prim_enumerate(bundle):
    print(f"orbit of {record.representative}: {len(record.isotypes)} isotypes")

parts = partition_by_beta(x, minimal_isotropy(bundle))
print(f"partitioned by restriction to the isotropy: {len(parts)} parts")

# A symbol that is invertible on the sign isotype but vanishes on the
# trivial isotype at p0: elliptic for alpha = sign, not for alpha = trivial.
sym = symbol_field(bundle, {"p0": np.diag([0.0, 1.0]), "p1": np.eye(2)})
print(f"\nsymbol: diag(0,1) at p0, identity at p1")
print(f"plain pointwise invertibility: {pointwise_invertible(sym)}")
for exps in ((0,), (1,)):
    report = alpha_elliptic_check(sym, character(G, exps))
    verdict = "elliptic" if report.verdict else "not elliptic"
    worst = min((e.smallest_singular_value for e in report.entries), default=None)
    print(f"  alpha = chi_{exps}: {verdict} "
          f"(smallest singular value over the alpha-part: {worst})")

# With a free orbit the minimal isotropy is trivial and every alpha sees the
# whole of X, so all the verdicts collapse to pointwise invertibility.
rng = np.random.default_rng(21)
free = random_bundle(G, rng, n_orbits=2, max_fiber_dim=2, min_isotropy=trivial_subgroup(G))
fsym = random_symbol(free, rng, shift=1.5)
inv = pointwise_invertible(fsym)
verdicts = {exps: alpha_elliptic_check(fsym, character(G, exps)).verdict
            for exps in ((0,), (1,))}
print(f"\nfree-orbit bundle: pointwise invertible = {inv}, "
      f"per-isotype verdicts = {verdicts} (they agree)")
