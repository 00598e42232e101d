"""`alpha_elliptic_check` against a second route: pi_alpha of the symbol on
the space of sections.

The sections of a bundle, the direct sum of its fibers, carry the
representation (U(g)s)(g.p) = T(g, p)s(p), and S, the direct sum of the
symbol values, commutes with it.  A symbol is alpha-elliptic exactly when
pi_alpha'(S) is invertible for every alpha' that agrees with alpha on the
minimal isotropy (`helpers.reference_alpha_elliptic`).  The isotype killed
here sits on any orbit, not only on the one whose stabilizer is the
minimal isotropy, so the coset over the minimal isotropy is what decides.
"""
import numpy as np

from equifred import (
    alpha_elliptic_check,
    dual_characters,
    make_group,
    minimal_isotropy,
    random_bundle,
    random_symbol,
)
from helpers import kill_isotype, reference_alpha_elliptic, section_blocks_invertible

GROUPS = ((4,), (2, 2), (4, 2), (6,), (2, 2, 2), (4, 4))
BUNDLES_PER_GROUP = 6


def test_alpha_check_agrees_with_the_section_oracle():
    verdicts = {True: 0, False: 0}
    larger = naive_differs = 0
    for orders in GROUPS:
        group = make_group(orders)
        rng = np.random.default_rng(sum(orders) + 100 * len(orders))
        for _ in range(BUNDLES_PER_GROUP):
            b = random_bundle(group, rng, n_orbits=int(rng.integers(2, 4)))
            sym, orbit, rho = kill_isotype(random_symbol(b, rng, shift=0.5), rng)
            larger += rho.subgroup.order > minimal_isotropy(b).order
            for alpha in dual_characters(group):
                verdict = alpha_elliptic_check(sym, alpha).verdict
                assert verdict == reference_alpha_elliptic(sym, alpha), (orders, alpha.exponents)
                verdicts[verdict] += 1
                naive_differs += verdict != section_blocks_invertible(sym, [alpha])
    # both verdicts occur, kills sit on orbits with larger stabilizers, and
    # compressing to alpha alone (without the coset) would disagree
    assert min(verdicts.values()) > 20
    assert larger > 5
    assert naive_differs > 5
