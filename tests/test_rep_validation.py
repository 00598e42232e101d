"""`unitary_rep` validation and storage against the loop reference.

The homomorphism law is accepted along Cayley-graph edges when their defect
is far enough below tol, and otherwise checked on every pair.  Either way the
outcome and the message must be those of the pair-by-pair loops in `helpers`.
The decompose trace-oracle guard is tested here too.
"""
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import equifred.reps
from equifred import (
    InternalInconsistencyError,
    conjugate_rep,
    decompose,
    full_subgroup,
    haar_unitary,
    make_group,
    random_rep,
    regular_rep,
    restrict_rep,
    subgroup_from_generators,
    unitary_rep,
)
from helpers import reference_unitary_rep


def _outcome(carrier, mats):
    try:
        unitary_rep(carrier, mats)
    except ValueError as exc:
        return str(exc)
    return None


def _same_as_reference(carrier, mats):
    got = _outcome(carrier, mats)
    assert got == reference_unitary_rep(carrier, mats)
    return got


def _mats(rep):
    return {g: np.array(rep.matrix(g)) for g in rep.elements}


def _rotation(dim, size, rng):
    """A unitary exp(i H) with |exp(i H) - I|_2 = size (to rounding)."""
    q = haar_unitary(dim, rng)
    angles = np.linspace(-size, size, dim)
    return q @ np.diag(np.exp(1j * angles)) @ q.conj().T


@pytest.mark.parametrize("orders", [(1,), (4,), (2, 3), (8, 8)], ids=str)
def test_regular_reps_are_accepted_like_the_reference(orders):
    assert _same_as_reference(make_group(orders), _mats(regular_rep(make_group(orders)))) is None


@pytest.mark.parametrize("orders, dim", [((6,), 4), ((2, 4), 5), ((3, 3), 3), ((4, 4), 9)], ids=str)
def test_haar_conjugated_reps_are_accepted_like_the_reference(orders, dim):
    rng = np.random.default_rng(sum(orders) + dim)
    g = make_group(orders)
    assert _same_as_reference(g, _mats(random_rep(g, dim, rng))) is None
    conj = conjugate_rep(regular_rep(g), haar_unitary(g.order, rng))
    assert _same_as_reference(g, _mats(conj)) is None


def test_subgroup_carrier_matches_the_reference():
    g = make_group((4, 2))
    h = subgroup_from_generators(g, [(2, 0), (0, 1)])
    haar = random_rep(g, 4, np.random.default_rng(3))
    assert _same_as_reference(h, _mats(restrict_rep(haar, h))) is None
    mats = _mats(restrict_rep(regular_rep(g), h))
    assert _same_as_reference(h, mats) is None
    mats[(2, 1)] = mats[(2, 0)]
    assert _same_as_reference(h, mats) == "homomorphism law fails at ((0, 1), (2, 0)) beyond 1e-10"


def test_broken_reps_get_the_reference_message():
    g = make_group((4, 2))
    good = _mats(regular_rep(g))

    non_unitary = dict(good)
    non_unitary[(3, 0)] = 1.001 * good[(3, 0)]
    assert _same_as_reference(g, non_unitary) == "matrix for (3, 0) is not unitary to 1e-10"

    wrong_identity = dict(good)
    wrong_identity[(0, 0)] = -good[(0, 0)]
    assert _same_as_reference(g, wrong_identity) == "matrix at the identity is not the identity"

    # a unitary U(2, 1) that is one permutation off: the law first fails at a
    # pair away from the identity, in carrier order
    one_pair = dict(good)
    one_pair[(2, 1)] = good[(2, 0)]
    msg = _same_as_reference(g, one_pair)
    assert msg == "homomorphism law fails at ((0, 1), (2, 0)) beyond 1e-10"


@pytest.mark.parametrize("first, shape", [(1.0, "()"), ([[1.0, 0.0]], "(1, 2)")])
def test_a_first_matrix_that_is_not_square_is_refused_by_name(first, shape):
    # the dimension is read off the first matrix, so it must be a square 2-D array
    g = make_group((2,))
    msg = f"matrix for (0,) has shape {shape}, expected a square matrix"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        unitary_rep(g, {(0,): first, (1,): first})


def test_a_nan_matrix_is_refused_without_an_svd():
    # a non-finite defect is over every cut at its Frobenius norm; LAPACK
    # never sees it (its SVD does not converge on a NaN)
    msg = "matrix for (1,) is not unitary to 1e-10"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        unitary_rep(make_group((2,)), {(0,): [[1.0]], (1,): [[np.nan]]})


@pytest.mark.parametrize("huge", [np.inf, 1e200], ids=["inf", "1e200"])
def test_a_huge_or_infinite_matrix_is_refused_without_a_warning(huge):
    # T^* T overflows (inf * 0 is invalid); the refusal is the only signal
    msg = "matrix for (1,) is not unitary to 1e-10"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            unitary_rep(make_group((2,)), {(0,): [[1.0]], (1,): [[huge]]})


def _spy(monkeypatch):
    """Record the stack length of every prefiltered threshold decision."""
    sizes = []
    original = equifred.reps._norms_over

    def spy(stack, tol):
        sizes.append(len(stack))
        return original(stack, tol)

    monkeypatch.setattr(equifred.reps, "_norms_over", spy)
    return sizes


def test_valid_rep_is_accepted_along_the_edges(monkeypatch):
    g = make_group((4, 2))
    sizes = _spy(monkeypatch)
    unitary_rep(g, _mats(random_rep(g, 6, np.random.default_rng(1))))
    # the identity and unitarity, one matrix each; the identity again at the
    # edge cut and one product per element and generator; and no pass over
    # all |G|^2 pairs
    assert sum(sizes) == 2 + g.order * (1 + g.rank)


def test_a_subgroup_carrier_makes_the_decisions_of_its_group(monkeypatch):
    g = make_group((8, 8))
    mats = _mats(random_rep(g, 3, np.random.default_rng(5)))
    sizes = _spy(monkeypatch)
    unitary_rep(g, mats)
    on_group = sizes.copy()
    sizes.clear()
    unitary_rep(full_subgroup(g), mats)
    assert sizes == on_group and sum(sizes) == 2 + g.order * (1 + g.rank)
    # a proper subgroup walks the edges of its rows (2, 2) and (0, 4)
    h = subgroup_from_generators(g, [(2, 6), (0, 4)])
    sizes.clear()
    assert h.basis == ((2, 2), (0, 4))
    assert _same_as_reference(h, {x: mats[x] for x in h.elements}) is None
    assert sum(sizes) == 2 + h.order * (1 + 2)


@pytest.mark.parametrize("size, accepted", [(2e-11, True), (1e-10, False)])
def test_edge_defect_above_the_cut_falls_back_to_every_pair(monkeypatch, size, accepted):
    """Edges above tol / (2 (1 + 2L) c^(L+1)), every pair below tol: the
    fallback accepts what the loops accept, and refuses what they refuse."""
    g = make_group((4, 2))
    rng = np.random.default_rng(7)
    mats = _mats(regular_rep(g))
    mats[(1, 1)] = mats[(1, 1)] @ _rotation(g.order, size, rng)
    sizes = _spy(monkeypatch)
    assert (_same_as_reference(g, mats) is None) == accepted
    assert g.order in sizes  # the all-pairs rows ran


def test_regular_z8xz8_validates_in_little_more_than_its_stack():
    g = make_group((8, 8))
    mats = _mats(regular_rep(g))
    tracemalloc.start()
    try:
        unitary_rep(g, mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the stack is 64 matrices of 64 x 64 complex entries, 4 MiB; the law
    # check's batches hold at most reps._LAW_CELLS entries each
    assert peak < 6 * 2**20


def test_matrices_are_views_into_one_read_only_stack():
    g = make_group((2, 3))
    source = regular_rep(g)
    rep = unitary_rep(g, _mats(source))
    assert rep.stack.shape == (6, 6, 6) and not rep.stack.flags.writeable
    for i, x in enumerate(g.elements):
        assert rep.matrices[x].base is rep.stack
        assert np.array_equal(rep.matrix(x), source.matrix(x))
        assert np.array_equal(rep.stack[i], source.matrix(x))
        with pytest.raises(ValueError):
            rep.matrix(x)[0, 0] = 2.0


def test_decompose_checks_each_rank_against_the_trace_oracle(monkeypatch):
    rep = regular_rep(make_group((3,)))
    assert decompose(rep).total == 3
    monkeypatch.setattr(equifred.reps, "_rank_cut", lambda s: 2)
    with pytest.raises(InternalInconsistencyError, match="projector rank 2 .* trace oracle says 1"):
        decompose(rep)


def test_decompose_refuses_a_non_integral_trace_oracle():
    # not a representation: the trivial projector diag(1, (1 + e^{0.3i}) / 2) has
    # rank 2, but the character inner product is not an integer
    g = make_group((2,))
    mats = {(0,): np.eye(2), (1,): np.diag([1.0, np.exp(0.3j)])}
    with pytest.raises(InternalInconsistencyError, match="non-integral multiplicity"):
        decompose(equifred.reps._from_stack(g, [mats[x] for x in g.elements]))
