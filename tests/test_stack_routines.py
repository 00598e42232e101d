"""A representation is its (|G|, d, d) stack: the builders write it, one
projector routine and one two-sided group average read it.

Each is checked against the loop it replaced (`helpers`): `induce` and the
monomial projectors bit for bit, the dense projectors to 1e-15, and the
average bit for bit on the loop `random_symbol` wrote out.
"""
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import equifred.reps
from equifred import (
    SubgroupCharacter,
    carrier_dual,
    character_rep,
    character_table,
    characters_of_subgroup,
    fiber_rep,
    frobenius_hom_map,
    induce,
    isotypical_projector,
    load_bundle,
    load_induction,
    make_group,
    random_bundle,
    random_rep,
    random_symbol,
    regular_rep,
    restrict_rep,
    subgroup_from_generators,
)
from equifred.lab import double_interval_bvp, reflection_circle_rep, rotation_circle_rep
from helpers import (
    reference_frobenius_average,
    reference_induce,
    reference_projector,
    reference_symbol_average,
    twisted_double_rep,
)

DATA = Path(__file__).parent / "data"
Z8X8 = make_group((8, 8))


def _induce_cases():
    group, sub, chi = load_induction(json.loads((DATA / "induce_z4_sign.json").read_text()))
    yield pytest.param(character_rep(SubgroupCharacter(sub, chi)), group, id="induce_z4_sign")
    for gens, name in (([(2, 0)], "z8xz8_cyclic4"), ([(4, 0), (0, 4)], "z8xz8_z2xz2")):
        sub = subgroup_from_generators(Z8X8, gens)
        assert sub.order == 4
        yield pytest.param(character_rep(characters_of_subgroup(Z8X8, sub)[3]), Z8X8, id=name)
    g = make_group((4, 6))
    sub = subgroup_from_generators(g, [(1, 2)])
    yield pytest.param(random_rep(sub, 2, np.random.default_rng(4)), g, id="random_rep_d2")


@pytest.mark.parametrize("rep, gamma", list(_induce_cases()))
def test_induce_is_the_loop_bit_for_bit(rep, gamma):
    ind = induce(rep, gamma)
    assert ind.stack.tobytes() == reference_induce(rep, gamma).tobytes()
    assert not ind.stack.flags.writeable


def _average_reps():
    for path in sorted(DATA.glob("bundle_*.json")):
        bundle, _ = load_bundle(json.loads(path.read_text()))
        for p in bundle.points:
            yield fiber_rep(bundle, p)
    for dim in (1, 3):
        yield random_rep(Z8X8, dim, np.random.default_rng(dim))


def test_the_group_average_is_random_symbols_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    count = 0
    for rep in _average_reps():
        d = rep.dim
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        got = equifred.reps._group_average(rep, raw, rep)
        assert got.tobytes() == reference_symbol_average(rep, raw).tobytes()
        count += 1
    assert count == 9  # seven fixture points and two Z8 x Z8 reps


def test_frobenius_hom_map_and_random_symbol_share_the_average(monkeypatch):
    calls = []
    shared = equifred.reps._group_average

    def spy(target, x, source):
        calls.append(target)
        return shared(target, x, source)

    monkeypatch.setattr(equifred.reps, "_group_average", spy)
    monkeypatch.setattr(equifred.bundles, "_group_average", spy)
    g = make_group((4, 2))
    source = regular_rep(g)
    sub = subgroup_from_generators(g, [(2, 1)])
    target = restrict_rep(source, sub)
    f = np.eye(source.dim)
    out = frobenius_hom_map(f, source, target)
    assert calls == [target]
    # the parent's S(-h) in place of S(h)^* moves at most the last bits
    np.testing.assert_allclose(
        out[: target.dim], reference_frobenius_average(f, source, target), rtol=0, atol=1e-14
    )
    bundle = random_bundle(g, np.random.default_rng(2), n_orbits=2)
    calls.clear()
    random_symbol(bundle, np.random.default_rng(3))
    assert len(calls) == len(equifred.orbits(bundle))


def _lab_monomial_reps():
    for n, m in ((12, 4), (12, 12), (30, 6), (64, 8)):
        yield rotation_circle_rep(n, m)
    for n in (7, 12):
        yield reflection_circle_rep(n)
    for n in (8, 16):
        for bc in ("dirichlet", "neumann"):
            for other in ("dirichlet", "neumann"):
                yield twisted_double_rep(n, (bc, other))
        yield double_interval_bvp(n, ("dirichlet", "dirichlet")).rep


def test_every_lab_monomial_projector_is_the_loop_bit_for_bit():
    for rep in _lab_monomial_reps():
        dual = carrier_dual(rep.carrier)
        batch = equifred.reps._projectors(rep, character_table(dual, rep.elements))
        for k, chi in enumerate(dual):
            ref = reference_projector(rep, chi).tobytes()
            assert isotypical_projector(rep, chi).tobytes() == ref
            assert batch[k].tobytes() == ref


def test_dense_projectors_are_within_1e_15_of_the_loop():
    sub = subgroup_from_generators(Z8X8, [(2, 0)])
    reps = [
        regular_rep(make_group((4, 2))),
        random_rep(Z8X8, 1, np.random.default_rng(1)),
        random_rep(Z8X8, 3, np.random.default_rng(2)),
        induce(random_rep(sub, 2, np.random.default_rng(3)), Z8X8),
    ]
    for rep in reps:
        for chi in carrier_dual(rep.carrier):
            diff = isotypical_projector(rep, chi) - reference_projector(rep, chi)
            assert np.abs(diff).max() <= 1e-15


def test_a_monomial_projector_builds_no_dense_stack():
    rep = rotation_circle_rep(512, 64)
    chi = carrier_dual(rep.carrier)[3]
    isotypical_projector(rep, chi)  # warm the cached character duals first
    tracemalloc.start()
    try:
        isotypical_projector(rep, chi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the projector itself is d^2 complex numbers; a dense stack would be 64 of them
    assert peak < 2 * rep.dim**2 * 16
