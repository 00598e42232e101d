"""Exact group, subgroup, and character arithmetic."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equifred import (
    Group,
    Subgroup,
    all_subgroups,
    annihilator,
    associated,
    char_eval,
    char_mul,
    character,
    character_rep,
    character_table,
    characters_of_subgroup,
    coset_transversal,
    dual_characters,
    full_subgroup,
    induce,
    make_group,
    restrict_character,
    subgroup_from_generators,
    trivial_subgroup,
)
from equifred.groups import SubgroupCharacter, coset_table, element_index

from helpers import (
    abelian_orders,
    element_sum,
    reference_all_subgroups,
    reference_annihilator,
    reference_closure,
    reference_coset_table,
    reference_coset_transversal,
    reference_subgroup_character,
    subgroup_of_members,
)


# ---------------------------------------------------------------------------
# groups and elements


def test_make_group_z2():
    g = make_group((2,))
    assert g.order == 2
    assert g.elements == ((0,), (1,))
    assert g.identity == (0,)


def test_make_group_trivial():
    g = make_group((1,))
    assert g.order == 1
    assert g.elements == ((0,),)


def test_make_group_klein():
    g = make_group((2, 2))
    assert g.order == 4
    assert g.elements == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_make_group_rejects_bad_orders():
    with pytest.raises(ValueError):
        make_group((0,))
    with pytest.raises(ValueError):
        make_group((2, -3))
    with pytest.raises(ValueError):
        make_group(())


def test_element_reduces_residues():
    g = make_group((4, 6))
    assert g.element((5, -1)) == (1, 5)
    with pytest.raises(ValueError):
        g.element((1,))


def test_op_and_inv():
    g = make_group((4,))
    assert g.op((3,), (2,)) == (1,)
    assert g.inv((3,)) == (1,)
    assert g.op((3,), g.inv((3,))) == g.identity


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_group_axioms_random(data):
    orders = data.draw(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)
    )
    g = make_group(orders)
    raw = st.tuples(*(st.integers(-20, 20) for _ in orders))
    a = g.element(data.draw(raw))
    b = g.element(data.draw(raw))
    c = g.element(data.draw(raw))
    assert g.op(a, b) == g.op(b, a)
    assert g.op(g.op(a, b), c) == g.op(a, g.op(b, c))
    assert g.op(a, g.identity) == a
    assert g.op(a, g.inv(a)) == g.identity


# ---------------------------------------------------------------------------
# subgroups


def test_subgroup_from_generators_z4():
    g = make_group((4,))
    h = subgroup_from_generators(g, [(2,)])
    assert h.elements == ((0,), (2,))


def test_subgroup_from_generators_empty():
    g = make_group((4,))
    h = subgroup_from_generators(g, [])
    assert h.elements == ((0,),)


def test_subgroup_from_generators_klein_diagonal():
    g = make_group((2, 2))
    h = subgroup_from_generators(g, [(1, 1)])
    assert h.elements == ((0, 0), (1, 1))


def test_subgroup_generators_reduce():
    g = make_group((4,))
    assert subgroup_from_generators(g, [(6,)]).elements == ((0,), (2,))


def test_all_subgroups_counts():
    assert len(all_subgroups(make_group((4,)))) == 3
    assert len(all_subgroups(make_group((2, 2)))) == 5
    assert len(all_subgroups(make_group((12,)))) == 6


def test_all_subgroups_are_closed():
    for orders in abelian_orders(8):
        g = make_group(orders)
        for h in all_subgroups(g):
            members = set(h.elements)
            assert g.identity in members
            for a, b in itertools.product(members, repeat=2):
                assert g.op(a, b) in members
            assert g.order % h.order == 0


def test_a_subgroup_is_its_normal_form():
    assert [f.name for f in dataclasses.fields(Subgroup)] == ["parent", "basis"]
    for orders in abelian_orders(16):
        g = make_group(orders)
        for s in all_subgroups(g):
            again = Subgroup(s.parent, s.basis)
            assert again == s and hash(again) == hash(s)
            assert element_index(s, s.residues).tolist() == list(range(s.order))
            assert all(type(x) is int for row in s.basis for x in row)


@pytest.mark.parametrize("orders, basis", [
    ((4,), ((2,), (0,))),  # two rows for one factor (the list {0, 1} is in test_subgroup_duals)
    ((4,), ((3,),)),  # spans the whole group, whose form is ((1,),)
    ((4,), ((0,),)),  # the trivial subgroup is ((4,),)
    ((4, 4), ((2, 1), (0, 4))),  # twice (2, 1) is (0, 2), missing from the rows
    ((4, 4), ((2, 3), (0, 2))),  # an entry right of a leading entry d is not below d
])
def test_a_matrix_that_is_not_its_own_normal_form_is_refused(orders, basis):
    with pytest.raises(ValueError, match="is not the normal form of its lattice$"):
        Subgroup(make_group(orders), basis)


def test_membership_and_inclusion_are_reductions():
    g = make_group((4, 4))
    h = Subgroup(g, ((2, 1), (0, 2)))
    assert h == subgroup_from_generators(g, [(2, 1)]) and h.order == 4
    assert [x for x in g.elements if h.contains(x)] == list(h.elements)
    assert not h.contains((2, 5)) and not h.contains((2,))  # unreduced, short
    subs = all_subgroups(g)
    for a, b in itertools.product(subs, repeat=2):
        assert a.is_subgroup_of(b) == (set(a.elements) <= set(b.elements))


def test_coset_transversal_z6():
    g = make_group((6,))
    h = subgroup_from_generators(g, [(3,)])
    reps = coset_transversal(g, h)
    assert reps == ((0,), (1,), (2,))
    covered = {g.op(x, s) for x in reps for s in h.elements}
    assert covered == set(g.elements)


def test_coset_transversal_least_representatives():
    g = make_group((2, 4))
    for h in all_subgroups(g):
        reps = coset_transversal(g, h)
        assert len(reps) == g.order // h.order
        for x in reps:
            coset = sorted(g.op(x, s) for s in h.elements)
            assert x == coset[0]


# ---------------------------------------------------------------------------
# characters of the full group


def test_dual_characters_z2():
    g = make_group((2,))
    chars = dual_characters(g)
    assert [c.exponents for c in chars] == [(0,), (1,)]
    assert chars[0].value((1,)) == pytest.approx(1.0)
    assert chars[1].value((1,)) == pytest.approx(-1.0)


def test_dual_characters_z3_cube_roots():
    g = make_group((3,))
    omega = np.exp(2j * np.pi / 3)
    chars = dual_characters(g)
    for k, chi in enumerate(chars):
        for x in range(3):
            assert chi.value((x,)) == pytest.approx(omega ** (k * x))


def test_dual_characters_klein_signs():
    g = make_group((2, 2))
    for chi in dual_characters(g):
        values = {chi.value(x) for x in g.elements}
        assert all(abs(v - round(v.real)) < 1e-12 for v in values)
        assert values <= {1.0 + 0j, -1.0 + 0j} or all(
            abs(abs(v) - 1) < 1e-12 for v in values
        )
    signs = [[chi.value(x).real for x in g.elements] for chi in dual_characters(g)]
    assert signs == [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ]


def test_char_eval_examples():
    z2 = make_group((2,))
    assert char_eval(character(z2, (1,)), (1,)) == pytest.approx(-1.0)
    z4 = make_group((4,))
    assert char_eval(character(z4, (1,)), (2,)) == pytest.approx(-1.0)
    assert char_eval(character(z4, (3,)), (0,)) == pytest.approx(1.0)


def test_char_eval_rejects_length_mismatch():
    z4 = make_group((4,))
    with pytest.raises(ValueError):
        char_eval(character(z4, (1,)), (1, 1))


def test_characters_distinct_and_orthogonal():
    for orders in abelian_orders(16):
        g = make_group(orders)
        chars = dual_characters(g)
        assert len(chars) == g.order
        assert len({c.exponents for c in chars}) == g.order
        table = np.array([[c.value(x) for x in g.elements] for c in chars])
        gram = table @ table.conj().T / g.order
        assert np.max(np.abs(gram - np.eye(g.order))) < 1e-12


def test_character_values_are_exact_roots_of_unity():
    g = make_group((8,))
    chi = character(g, (1,))
    for x in range(8):
        assert abs(abs(chi.value((x,))) - 1.0) < 1e-15
    assert chi.value((4,)) == pytest.approx(-1.0, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_char_mul_adds_exponents(data):
    orders = data.draw(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)
    )
    g = make_group(orders)
    exps = st.tuples(*(st.integers(-10, 10) for _ in orders))
    a = character(g, data.draw(exps))
    b = character(g, data.draw(exps))
    prod = char_mul(a, b)
    for x in g.elements:
        assert prod.value(x) == pytest.approx(a.value(x) * b.value(x))
    assert char_mul(a, character(g, [-x for x in a.exponents])).exponents == tuple(
        0 for _ in orders
    )


# ---------------------------------------------------------------------------
# annihilators and subgroup characters


def test_annihilator_z4_examples():
    g = make_group((4,))
    h = subgroup_from_generators(g, [(2,)])
    assert [c.exponents for c in annihilator(g, h)] == [(0,), (2,)]
    assert [c.exponents for c in annihilator(g, full_subgroup(g))] == [(0,)]
    assert len(annihilator(g, trivial_subgroup(g))) == 4


def test_annihilator_structure_exhaustive():
    for orders in abelian_orders(16):
        g = make_group(orders)
        for h in all_subgroups(g):
            ann = annihilator(g, h)
            assert len(ann) == g.order // h.order
            members = {c.exponents for c in ann}
            for a, b in itertools.product(ann, repeat=2):
                assert char_mul(a, b).exponents in members
                assert character(g, [-x for x in a.exponents]).exponents in members
            for c in ann:
                for x in h.elements:
                    assert c.value(x) == pytest.approx(1.0, abs=1e-12)


def test_characters_of_subgroup_z4():
    g = make_group((4,))
    h = subgroup_from_generators(g, [(2,)])
    rhos = characters_of_subgroup(g, h)
    assert [r.representative.exponents for r in rhos] == [(0,), (1,)]
    assert rhos[0].value((2,)) == pytest.approx(1.0)
    assert rhos[1].value((2,)) == pytest.approx(-1.0)


def test_characters_of_subgroup_extremes():
    g = make_group((2, 2))
    assert len(characters_of_subgroup(g, trivial_subgroup(g))) == 1
    full = characters_of_subgroup(g, full_subgroup(g))
    assert len(full) == 4
    assert {r.representative.exponents for r in full} == {
        c.exponents for c in dual_characters(g)
    }


def test_subgroup_characters_partition_dual():
    for orders in abelian_orders(12):
        g = make_group(orders)
        for h in all_subgroups(g):
            rhos = characters_of_subgroup(g, h)
            assert len(rhos) == h.order
            buckets = {r: 0 for r in rhos}
            for chi in dual_characters(g):
                buckets[restrict_character(chi, h)] += 1
            assert all(count == g.order // h.order for count in buckets.values())


def test_subgroup_character_canonical_representative():
    g = make_group((4,))
    h = subgroup_from_generators(g, [(2,)])
    via_three = SubgroupCharacter(h, character(g, (3,)))
    via_one = SubgroupCharacter(h, character(g, (1,)))
    assert via_three == via_one
    assert via_three.representative.exponents == (1,)


def test_subgroup_character_value_agrees_with_parent():
    g = make_group((2, 4))
    for h in all_subgroups(g):
        for chi in dual_characters(g):
            rho = restrict_character(chi, h)
            for x in h.elements:
                assert rho.value(x) == pytest.approx(chi.value(x), abs=1e-12)


# orders where lcm(orders) differs from |G| included: (4, 6), (2, 3, 5), (9, 12)
TABLE_CASES = [
    ((1,), [(0,)]),
    ((4,), [(2,)]),
    ((4, 6), [(2, 3)]),
    ((2, 3, 5), [(1, 1, 0)]),
    ((8, 8), [(2, 0)]),
    ((16, 4), [(8, 0), (0, 2)]),
    ((9, 12), [(3, 4)]),
]


@pytest.mark.parametrize("orders, gens", TABLE_CASES, ids=str)
def test_character_table_has_the_bits_of_value(orders, gens):
    g = make_group(orders)
    h = subgroup_from_generators(g, gens)
    for carrier, dual in ((g, dual_characters(g)), (h, characters_of_subgroup(g, h))):
        table = character_table(dual, carrier.elements)
        assert table.shape == (len(dual), carrier.order) and table.dtype == complex
        want = np.array([[chi.value(x) for x in carrier.elements] for chi in dual])
        assert np.array_equal(table.view(float), want.view(float))
        # a single character is its own row
        assert np.array_equal(character_table(dual[-1:], carrier.elements).view(float),
                              want[-1:].view(float))


def test_subgroup_character_rejects_outside_element():
    g = make_group((4,))
    h = subgroup_from_generators(g, [(2,)])
    rho = characters_of_subgroup(g, h)[1]
    with pytest.raises(ValueError):
        rho.value((1,))


# ---------------------------------------------------------------------------
# association


def test_associated_z4_examples():
    g = make_group((4,))
    gamma0 = subgroup_from_generators(g, [(2,)])
    chi1 = character(g, (1,))
    rho3 = restrict_character(character(g, (3,)), gamma0)
    rho0 = restrict_character(character(g, (0,)), gamma0)
    assert associated(chi1, rho3, gamma0)
    assert not associated(chi1, rho0, gamma0)


def test_associated_trivial_gamma0_always_true():
    g = make_group((4,))
    gamma0 = trivial_subgroup(g)
    for chi in dual_characters(g):
        for rho in characters_of_subgroup(g, gamma0):
            assert associated(chi, rho, gamma0)


def test_associated_matches_pointwise_values():
    for orders in abelian_orders(8):
        g = make_group(orders)
        for gamma0 in all_subgroups(g):
            for chi in dual_characters(g):
                for rho in characters_of_subgroup(g, gamma0):
                    expected = all(
                        abs(chi.value(x) - rho.value(x)) < 1e-12
                        for x in gamma0.elements
                    )
                    assert associated(chi, rho, gamma0) == expected


def test_associated_ignores_representative_choice():
    g = make_group((2, 4))
    h = subgroup_from_generators(g, [(0, 2)])
    gamma0 = h
    for chi in dual_characters(g):
        for base in dual_characters(g):
            rho = restrict_character(base, h)
            for psi in annihilator(g, h):
                other = SubgroupCharacter(h, char_mul(base, psi))
                assert rho == other
                assert associated(chi, rho, gamma0) == associated(chi, other, gamma0)


def test_associated_requires_containment():
    g = make_group((2, 2))
    h1 = subgroup_from_generators(g, [(1, 0)])
    h2 = subgroup_from_generators(g, [(0, 1)])
    rho = characters_of_subgroup(g, h1)[0]
    with pytest.raises(ValueError):
        associated(character(g, (0, 0)), rho, h2)


def test_associated_stable_on_larger_subgroup():
    g = make_group((4,))
    h = full_subgroup(g)
    gamma0 = subgroup_from_generators(g, [(2,)])
    alpha = character(g, (1,))
    rho = restrict_character(character(g, (3,)), h)
    assert associated(alpha, rho, gamma0)


def test_lcm_phase_reduction_is_exact():
    g = make_group((6, 4))
    chi = character(g, (5, 3))
    lcm = math.lcm(6, 4)
    for x in itertools.product(range(6), range(4)):
        value = chi.value(x)
        phase = (5 * x[0] * (lcm // 6) + 3 * x[1] * (lcm // 4)) % lcm
        assert value == pytest.approx(np.exp(2j * np.pi * phase / lcm))


@pytest.mark.parametrize("orders", [(2, 2, 2, 2), (4, 4), (6, 6)])
def test_all_subgroups_matches_the_generator_closure(orders):
    g = make_group(orders)
    assert all_subgroups(g) == reference_all_subgroups(g)


def test_z8_x_z8_has_37_subgroups():
    assert len(all_subgroups(make_group((8, 8)))) == 37


# ---------------------------------------------------------------------------
# the array layer against the tuple references


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_the_array_layer_equals_the_tuple_references(data):
    orders = data.draw(st.one_of(
        st.lists(st.integers(1, 12), min_size=1, max_size=3),
        st.integers(1, 10).map(lambda k: [2] * k),
    ))
    g = make_group(orders)
    gens = data.draw(st.lists(st.tuples(*(st.integers(-30, 30) for _ in orders)), max_size=4))
    h = subgroup_from_generators(g, gens)
    assert h == reference_closure(g, gens)

    reps, table = coset_table(g, h)
    ref_reps, locate = reference_coset_table(g, h)
    assert reps == coset_transversal(g, h) == ref_reps
    assert table.shape == (g.order, len(reps), 2)
    # entry [x, i] is where x + x_i lands, for every x and a few drawn i
    for i in [0] + data.draw(st.lists(st.integers(0, len(reps) - 1), max_size=2)):
        want = [locate[element_sum(g, x, reps[i])] for x in g.elements]
        assert table[:, i].tolist() == [[j, h.elements.index(m)] for j, m in want]

    perp = [chi.exponents for chi in reference_annihilator(g, h)]
    assert [chi.exponents for chi in annihilator(g, h)] == perp
    named = reference_coset_transversal(g, subgroup_of_members(g, perp))
    assert [chi.exponents for chi in characters_of_subgroup(g, h)] == list(named)
    for e in data.draw(st.lists(st.sampled_from(g.elements), max_size=3)):
        chi = character(g, e)
        assert SubgroupCharacter(h, chi).exponents == reference_subgroup_character(h, chi)
    if g.order <= 12:
        assert all_subgroups(g) == reference_all_subgroups(g)


def test_the_group_layer_adds_no_element_at_a_time(monkeypatch):
    calls = []
    op = Group.op

    def counted(self, a, b):
        calls.append((a, b))
        return op(self, a, b)

    monkeypatch.setattr(Group, "op", counted)
    g = make_group((2, 2, 2, 3, 4, 2))  # a group no other test caches a dual of
    h = subgroup_from_generators(g, [(1, 0, 0, 1, 2, 0), (0, 1, 1, 0, 0, 1)])
    characters_of_subgroup.cache_clear()
    dual = characters_of_subgroup(g, h)
    induce(character_rep(dual[-1]), g)
    assert h.order == 12 and len(dual) == 12 and calls == []
