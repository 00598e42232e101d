"""`decompose` reads every projector off one DFT of its stack, each
trace-oracle value off its projector's trace, and every rank off one
batched `eigvalsh`; it must decide exactly as the per-character loop in
`helpers.reference_decompose`, and raise the same error for the same
character when it refuses."""
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import equifred.reps
from equifred import (
    SubgroupCharacter,
    AmbiguousRankError,
    InternalInconsistencyError,
    MonomialRep,
    character_rep,
    characters_of_subgroup,
    conjugate_rep,
    decompose,
    diagonal_rep,
    dual_characters,
    fiber_rep,
    haar_unitary,
    induce,
    load_bundle,
    load_induction,
    load_rep,
    make_group,
    random_rep,
    regular_rep,
    restrict_rep,
    subgroup_from_generators,
)
from equifred.lab import reflection_circle_rep
from helpers import reference_decompose

DATA = Path(__file__).parent / "data"


def _outcome(route, rep):
    """(MultiplicityVector, None), or (None, (error type, message)) on a refusal."""
    try:
        return route(rep), None
    except (AmbiguousRankError, InternalInconsistencyError) as exc:
        return None, (type(exc), str(exc))


def _same_as_reference(rep):
    got = _outcome(decompose, rep)
    assert got == _outcome(reference_decompose, rep)
    return got


def _fixture_reps(name):
    """The representations `decompose` sees when the CLI reads a fixture."""
    doc = json.loads((DATA / name).read_text())
    if name.startswith("rep_"):
        return [load_rep(doc)]
    if name.startswith("induce_"):
        group, sub, chi = load_induction(doc)
        return [induce(character_rep(SubgroupCharacter(sub, chi)), group)]
    bundle, _ = load_bundle(doc)
    return [fiber_rep(bundle, p) for p in bundle.points]


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.json")))
def test_fixture_reps_decompose_like_the_reference(name):
    # bundle_bad_transport's fiber matrices are not representations: both
    # routes refuse them, with the same error
    outcomes = [_same_as_reference(rep) for rep in _fixture_reps(name)]
    assert outcomes
    assert all(err is None for _, err in outcomes) == (name != "bundle_bad_transport.json")


@pytest.mark.parametrize(
    "orders", [(1,), (2,), (5,), (2, 3), (2, 2, 2), (4, 4), (2, 3, 5), (8, 8)], ids=str
)
def test_regular_reps_decompose_like_the_reference(orders):
    g = make_group(orders)
    mv, _ = _same_as_reference(regular_rep(g))
    assert [mv[chi] for chi in dual_characters(g)] == [1] * g.order


@pytest.mark.parametrize("orders, dim", [((8, 8), 24), ((4, 4), 64), ((6,), 5)], ids=str)
def test_haar_conjugated_reps_decompose_like_the_reference(orders, dim):
    # the shape of the benchmark's user matrix documents: a random multiset of
    # characters conjugated by one Haar unitary
    rng = np.random.default_rng(dim)
    mv, _ = _same_as_reference(random_rep(make_group(orders), dim, rng))
    assert mv.total == dim


@pytest.mark.parametrize(
    "orders, gens", [((4,), [(2,)]), ((8, 8), [(2, 0)]), ((4, 6), [(2, 3)]), ((9, 12), [(3, 4)])],
    ids=str,
)
def test_subgroup_carriers_decompose_like_the_reference(orders, gens):
    g = make_group(orders)
    h = subgroup_from_generators(g, gens)
    rng = np.random.default_rng(len(h.elements))
    dual = characters_of_subgroup(g, h)
    chars = [dual[int(i)] for i in rng.integers(0, len(dual), size=7)]
    u = haar_unitary(7, rng)
    _same_as_reference(conjugate_rep(diagonal_rep(h, chars), u))
    _same_as_reference(restrict_rep(regular_rep(g), h))


def test_monomial_reps_decompose_like_the_reference():
    for rep in (reflection_circle_rep(12), reflection_circle_rep(7)):
        assert isinstance(rep, MonomialRep)
        mv, _ = _same_as_reference(rep)
        assert [rep.multiplicity(chi) for chi, _ in mv.entries] == [m for _, m in mv.entries]


def test_an_ambiguous_rank_names_the_same_first_character():
    # the trivial projector diag(1, 1e-8) has a singular value on the cut
    g = make_group((2,))
    mats = {(0,): np.eye(2), (1,): np.diag([1.0, -1.0 + 2e-8])}
    _, err = _same_as_reference(equifred.reps._from_stack(g, [mats[x] for x in g.elements]))
    assert err == (
        AmbiguousRankError, "singular value 1.000e-08 within a factor 10 of cut 1.000e-08"
    )


def test_a_later_ambiguous_rank_is_reported_after_earlier_characters_pass():
    # U(g) = chi1(g) + 1e-8 chi2(g): the projectors of chi0, chi1 and chi2 are
    # 0, 1 and 1e-8, so the first two are decided and the third is refused
    g = make_group((3,))
    chi0, chi1, chi2 = dual_characters(g)
    mats = {x: np.array([[chi1.value(x) + 1e-8 * chi2.value(x)]]) for x in g.elements}
    rep = equifred.reps._from_stack(g, [mats[x] for x in g.elements])
    row = np.array([chi1.value(x) for x in g.elements])
    assert equifred.reps._trace_multiplicity(chi1, np.vdot(row, rep.traces) / 3) == 1
    _, err = _same_as_reference(rep)
    assert err is not None and err[0] is AmbiguousRankError


def test_a_trace_oracle_disagreement_names_the_same_character(monkeypatch):
    g = make_group((4, 2))
    rep = regular_rep(g)
    target = dual_characters(g)[5]
    honest = equifred.reps._trace_multiplicity

    def off_by_one_at_target(chi, value):
        return honest(chi, value) + (chi == target)

    monkeypatch.setattr(equifred.reps, "_trace_multiplicity", off_by_one_at_target)
    _, err = _same_as_reference(rep)
    assert err == (
        InternalInconsistencyError,
        f"projector rank 1 for the character {target.exponents}, the trace oracle says 2",
    )


def test_a_non_integral_trace_oracle_is_refused_by_both_routes():
    g = make_group((2,))
    mats = {(0,): np.eye(2), (1,): np.diag([1.0, np.exp(0.3j)])}
    _, err = _same_as_reference(equifred.reps._from_stack(g, [mats[x] for x in g.elements]))
    assert err[0] is InternalInconsistencyError and "non-integral" in err[1]


def test_decompose_traced_peak_stays_below_three_stacks():
    rep = regular_rep(make_group((8, 8)))
    decompose(rep)  # warm the cached character duals first
    tracemalloc.start()
    try:
        decompose(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * rep.stack.nbytes
