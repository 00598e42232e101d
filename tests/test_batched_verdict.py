"""The ellipticity verdict takes one batched product and one SVD per X-orbit.

`gamma_symbol_eval` compresses the symbol on a whole X-orbit in one product,
`alpha_elliptic_check` takes one SVD of that stack, and `pointwise_invertible`
one SVD per shape stack of the symbol.  The reports are compared with the
per-XPoint loop they replaced (`helpers.reference_elliptic_loop`) on seeded
bundles with mixed fiber dimensions and an isotype killed on any orbit, and
a spy counts the SVDs.
"""
import numpy as np
import pytest

from equifred import (
    alpha_elliptic_check,
    build_X,
    dual_characters,
    make_group,
    minimal_isotropy,
    partition_by_beta,
    pointwise_invertible,
    random_bundle,
    random_symbol,
    trivial_subgroup,
)
from equifred.groups import SubgroupCharacter
from equifred.reps import RANK_TOL

from helpers import kill_isotype, reference_elliptic_loop

GROUPS = ((4,), (2, 2), (4, 2), (6,), (2, 2, 2), (3, 3))


def _close(a, b, scale):
    """Agreement to 1e-12 relative to the block's scale, max(1, smax)."""
    return abs(a - b) <= 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("orders", GROUPS, ids=str)
def test_the_batched_report_is_the_per_xpoint_loop(orders):
    group = make_group(orders)
    rng = np.random.default_rng(7 * sum(orders) + len(orders))
    seen = {"orbit_sizes": set(), "dims": set(), "verdicts": set()}
    for _ in range(4):
        b = random_bundle(group, rng, n_orbits=int(rng.integers(2, 4)), max_fiber_dim=3)
        sym = random_symbol(b, rng, shift=float(rng.uniform(0.0, 1.0)))
        if rng.integers(3):
            sym = kill_isotype(sym, rng)[0]
        seen["dims"] |= set(b.fiber_dim.values())
        seen["orbit_sizes"] |= {len(orb) for orb in build_X(b)}
        for alpha in dual_characters(group):
            report = alpha_elliptic_check(sym, alpha)
            entries, verdict, warnings = reference_elliptic_loop(sym, alpha)
            assert report.verdict == verdict and list(report.warnings) == warnings
            assert len(report.entries) == len(entries)
            for got, (point, rho, rep_point, dim, smin, cond, smax) in zip(report.entries, entries):
                assert (got.point, got.rho, got.orbit_representative, got.block_dim) == (
                    point, rho, rep_point, dim)
                assert _close(got.smallest_singular_value, smin, smax)
                if smin < RANK_TOL * max(1.0, smax):
                    # a killed block: its smin, and so its condition estimate,
                    # is rounding noise, which both routes put below the cut
                    assert got.smallest_singular_value < RANK_TOL * max(1.0, smax)
                else:
                    # the condition estimate read back as smin / smax
                    assert _close(1 / got.condition_estimate, 1 / cond, 1.0)
            seen["verdicts"].add(verdict)
    # several fiber dimensions and orbit sizes, and both verdicts, occurred
    assert len(seen["dims"]) > 1 and max(seen["orbit_sizes"]) > 1
    assert seen["verdicts"] == {True, False}


def _counting_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_one_svd_per_x_orbit_and_per_shape_stack(monkeypatch):
    group = make_group((4, 2))
    b = random_bundle(group, np.random.default_rng(3), n_orbits=3, max_fiber_dim=3,
                      min_isotropy=trivial_subgroup(group))
    sym = random_symbol(b, np.random.default_rng(4), shift=1.0)
    g0 = minimal_isotropy(b)
    parts = partition_by_beta(build_X(b), g0)
    sym._equivariant  # the gate and X are kept once computed; only the blocks remain
    calls = _counting_svd(monkeypatch)
    orbits_seen = 0
    for alpha in dual_characters(group):
        part = parts.get(SubgroupCharacter(g0, alpha), ())
        calls.clear()
        alpha_elliptic_check(sym, alpha)
        assert len(calls) == len(part)
        assert [c[0] for c in calls] == [len(orb) for orb in part]
        orbits_seen += sum(len(orb) > 1 for orb in part)
    calls.clear()
    pointwise_invertible(sym)
    assert len(calls) == len(sym.stacks.stacks) < len(b.points)
    assert orbits_seen  # some call decided an orbit of several points at once
