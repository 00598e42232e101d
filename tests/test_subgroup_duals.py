"""Characters of a subgroup H are the cosets of its annihilator, and two
characters agree on H exactly when their cosets are equal.  Checked against
the enumeration of the whole dual and the exponent-difference test that the
coset rule replaced (kept in helpers)."""

import json
from pathlib import Path

import numpy as np
import pytest

from equifred import (
    Subgroup,
    SubgroupCharacter,
    all_subgroups,
    associated,
    build_X,
    build_X_alpha,
    characters_of_subgroup,
    dual_characters,
    full_subgroup,
    make_group,
    minimal_isotropy,
    random_bundle,
    subgroup_from_generators,
    trivial_subgroup,
)
from equifred.serialize import load_bundle

from helpers import reference_associated, reference_characters_of_subgroup

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("orders", [(2, 4), (4, 4), (3, 6), (2, 2, 2), (8, 8)], ids=str)
def test_characters_of_subgroup_match_the_enumeration(orders):
    g = make_group(orders)
    for h in all_subgroups(g):
        got = characters_of_subgroup(g, h)
        assert tuple(r.exponents for r in got) == reference_characters_of_subgroup(g, h)
        assert all(r.subgroup == h and r.exponents == r.representative.exponents for r in got)


@pytest.mark.parametrize("orders", [(2, 4), (3, 6)], ids=str)
def test_associated_matches_the_exponent_difference(orders):
    g = make_group(orders)
    subs = all_subgroups(g)
    for h in subs:
        for gamma0 in (s for s in subs if s.is_subgroup_of(h)):
            for alpha in dual_characters(g):
                for rho in characters_of_subgroup(g, h):
                    assert associated(alpha, rho, gamma0) == reference_associated(
                        alpha, rho, gamma0
                    )


def _fixture_bundle(name):
    return load_bundle(json.loads((DATA / f"{name}.json").read_text()))[0]


def _random_bundle(orders, gens, seed):
    g = make_group(orders)
    g0 = None if gens is None else subgroup_from_generators(g, gens)
    return random_bundle(g, np.random.default_rng(seed), n_orbits=3, min_isotropy=g0)


# bundle_bad_transport fails validation, so it has no X to select from
BUNDLES = {
    "fixed_points": lambda: _fixture_bundle("bundle_fixed_points"),
    "free_orbit": lambda: _fixture_bundle("bundle_free_orbit"),
    "two_fiber": lambda: _fixture_bundle("bundle_two_fiber"),
    "z4xz2": lambda: _random_bundle((4, 2), [(2, 0)], 3),
    "z2xz2xz2": lambda: _random_bundle((2, 2, 2), [(1, 0, 0), (0, 1, 0)], 7),
    "z6": lambda: _random_bundle((6,), [(3,)], 11),
}


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_build_X_alpha_is_the_associated_filter(name):
    b = BUNDLES[name]()
    x = build_X(b)
    g0 = minimal_isotropy(b)
    for alpha in dual_characters(b.group):
        want = tuple(orb for orb in x if reference_associated(alpha, orb[0].rho, g0))
        assert build_X_alpha(x, alpha, g0) == want


def test_build_X_alpha_refuses_gamma0_outside_a_stabilizer():
    b = _fixture_bundle("bundle_free_orbit")
    alpha = dual_characters(b.group)[0]
    with pytest.raises(ValueError, match="^gamma0 must be contained in every stabilizer"):
        build_X_alpha(build_X(b), alpha, full_subgroup(b.group))


def test_the_trivial_subgroup_dual_builds_one_character(monkeypatch):
    g = make_group((32, 32))
    h = trivial_subgroup(g)
    made = []
    post_init = SubgroupCharacter.__post_init__

    def counting(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(SubgroupCharacter, "__post_init__", counting)
    characters_of_subgroup.cache_clear()
    assert len(characters_of_subgroup(g, h)) == 1
    assert len(made) <= h.order


def test_a_set_that_is_not_a_subgroup_has_no_dual():
    g = make_group((4,))
    with pytest.raises(RuntimeError, match="^subgroup dual has 4 members, expected 2$"):
        characters_of_subgroup(g, Subgroup(g, ((0,), (1,))))
