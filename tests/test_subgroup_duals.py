"""Characters of a subgroup H are the cosets of its annihilator, and two
characters agree on H exactly when their cosets are equal.  Checked against
the enumeration of the whole dual, the `min` walk over the annihilator that
named each coset, and the exponent-difference test that the coset rule
replaced (kept in helpers, with their own annihilator walk)."""

import json
from pathlib import Path

import numpy as np
import pytest

from equifred import (
    Character,
    Subgroup,
    SubgroupCharacter,
    all_subgroups,
    associated,
    build_X,
    characters_of_subgroup,
    dual_characters,
    full_subgroup,
    make_group,
    minimal_isotropy,
    partition_by_beta,
    random_bundle,
    subgroup_from_generators,
    trivial_subgroup,
)
from equifred.serialize import load_bundle

from helpers import (
    reference_associated,
    reference_characters_of_subgroup,
    reference_subgroup_character,
)

DATA = Path(__file__).parent / "data"
GROUPS = [(2, 4), (4, 4), (3, 6), (2, 2, 2), (8, 8)]


def _subgroups():
    """Every subgroup of each of GROUPS, and seeded random subgroups of
    Z32xZ32 on one or two generators (none trivial, so no annihilator has
    more than 32 members)."""
    for orders in GROUPS:
        g = make_group(orders)
        for i, h in enumerate(all_subgroups(g)):
            yield pytest.param(h, id=f"{orders}-{i}")
    g, rng = make_group((32, 32)), np.random.default_rng(27)
    for i in range(4):
        gens = rng.integers(0, 32, size=(i % 2 + 1, 2)).tolist()
        yield pytest.param(subgroup_from_generators(g, gens), id=f"(32, 32)-{gens}")


@pytest.mark.parametrize("h", _subgroups())
def test_a_subgroup_character_is_the_least_member_of_its_coset(h):
    g = h.parent
    names = [SubgroupCharacter(h, chi).exponents for chi in dual_characters(g)]
    assert names == [reference_subgroup_character(h, chi) for chi in dual_characters(g)]
    assert tuple(r.exponents for r in characters_of_subgroup(g, h)) == tuple(sorted(set(names)))


@pytest.mark.parametrize("orders", GROUPS, ids=str)
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
def test_the_beta_part_is_the_associated_filter(name):
    # alpha_elliptic_check judges the part of X at beta = alpha restricted to gamma0
    b = BUNDLES[name]()
    x = build_X(b)
    g0 = minimal_isotropy(b)
    parts = partition_by_beta(x, g0)
    for alpha in dual_characters(b.group):
        want = tuple(orb for orb in x if reference_associated(alpha, orb[0].rho, g0))
        assert parts.get(SubgroupCharacter(g0, alpha), ()) == want


def test_partition_by_beta_refuses_gamma0_outside_a_stabilizer():
    b = _fixture_bundle("bundle_free_orbit")
    with pytest.raises(ValueError, match="^gamma0 must be contained in every stabilizer"):
        partition_by_beta(build_X(b), full_subgroup(b.group))


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


@pytest.mark.parametrize("whole", [False, True], ids=["trivial", "full"])
def test_a_subgroup_dual_builds_one_character_per_member(monkeypatch, whole):
    # each transversal member is already least, so it is kept as the
    # representative; only the full subgroup (|H| = 512) tells |H| from 2|H|
    g = make_group((512,))
    h = full_subgroup(g) if whole else trivial_subgroup(g)
    made = []
    post_init = Character.__post_init__

    def counting(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(Character, "__post_init__", counting)
    characters_of_subgroup.cache_clear()
    assert len(characters_of_subgroup(g, h)) == h.order
    assert len(made) == h.order


def test_a_least_representative_is_kept():
    g = make_group((4, 6))
    h = subgroup_from_generators(g, [[2, 0], [0, 3]])
    for chi in characters_of_subgroup(g, h):
        least = chi.representative
        assert SubgroupCharacter(h, least).representative is least
    moved = Character(g, (3, 5))  # the annihilator is the even exponents: (1, 1) names it
    assert SubgroupCharacter(h, moved).representative == Character(g, (1, 1))


def test_a_set_that_is_not_a_subgroup_has_no_dual():
    g = make_group((4,))
    with pytest.raises(RuntimeError, match="^subgroup dual has 4 members, expected 2$"):
        characters_of_subgroup(g, Subgroup(g, ((0,), (1,))))
