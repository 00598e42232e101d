"""Isotypical calculus: projectors, induction, Frobenius maps, commutants."""

import itertools

import numpy as np
import pytest

import equifred.reps
from equifred import (
    AmbiguousRankError,
    InternalInconsistencyError,
    MonomialRep,
    Subgroup,
    all_subgroups,
    character,
    character_rep,
    characters_of_subgroup,
    commutant_factors,
    conjugate_rep,
    decompose,
    deterministic_range_basis,
    diagonal_rep,
    double_interval_bvp,
    dual_characters,
    frobenius_hom_map,
    full_subgroup,
    haar_unitary,
    induce,
    intertwiner_basis,
    isotypical_basis,
    isotypical_projector,
    ker_im_pi_alpha,
    make_group,
    null_space_basis,
    numerical_rank,
    pi_alpha_restrict,
    random_rep,
    regular_rep,
    restrict_character,
    restrict_rep,
    subgroup_from_generators,
    trivial_subgroup,
    unitary_rep,
)

from helpers import (
    abelian_orders,
    decompose_oracle,
    multiplicity_oracle,
    reference_monomial_rep,
    twisted_double_rep,
)


def _z4_with_z2():
    g = make_group((4,))
    h = subgroup_from_generators(g, [(2,)])
    return g, h


# ---------------------------------------------------------------------------
# constructing representations


def test_unitary_rep_rejects_non_unitary():
    g = make_group((2,))
    mats = {(0,): np.eye(2), (1,): 2.0 * np.eye(2)}
    with pytest.raises(ValueError):
        unitary_rep(g, mats)


def test_unitary_rep_rejects_broken_homomorphism():
    g = make_group((3,))
    perm = regular_rep(g)
    mats = {
        (0,): perm.matrix((0,)),
        (1,): perm.matrix((2,)),
        (2,): perm.matrix((2,)),
    }
    with pytest.raises(ValueError):
        unitary_rep(g, mats)


def test_monomial_rep_rejects_broken_homomorphism():
    g = make_group((3,))
    ones = np.ones((3, 3))
    # rows of the regular rep: translation by 0, 1, 2
    shifts = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    MonomialRep(g, shifts, ones)
    # translation by 2 at the element 1: U(1) U(1) != U(2)
    with pytest.raises(ValueError, match="homomorphism law"):
        MonomialRep(g, shifts[[0, 2, 2]], ones)
    # right permutations, but the phases are not a cocycle
    twisted = ones.copy()
    twisted[1, 0] = -1.0
    with pytest.raises(ValueError, match="homomorphism law"):
        MonomialRep(g, shifts, twisted)
    with pytest.raises(ValueError, match="permutation"):
        MonomialRep(g, np.array([[0, 1, 2], [1, 1, 0], [2, 0, 1]]), ones)
    with pytest.raises(ValueError, match="unit modulus"):
        MonomialRep(g, shifts, 2.0 * ones)
    with pytest.raises(ValueError, match="shape"):
        MonomialRep(g, shifts[:2], ones[:2])


def test_monomial_rep_matrices_on_demand():
    g = make_group((4,))
    # Z4 on two points: the generator swaps them with phase i, so 2 acts as -1
    perm = np.array([[0, 1], [1, 0], [0, 1], [1, 0]])
    phase = np.array([[1, 1], [1j, 1j], [-1, -1], [-1j, -1j]])
    rep = MonomialRep(g, perm, phase)
    assert rep.dim == 2 and not hasattr(rep, "matrices")
    assert np.array_equal(rep.matrix((1,)), np.array([[0, 1j], [1j, 0]]))
    assert [rep.multiplicity(chi) for chi in dual_characters(g)] == [0, 1, 0, 1]
    dense = unitary_rep(g, {x: rep.matrix(x) for x in g.elements})
    for chi in dual_characters(g):
        assert rep.multiplicity(chi) == multiplicity_oracle(dense, chi)
        mono = isotypical_basis(rep, chi)
        assert np.allclose(mono, isotypical_basis(dense, chi), atol=1e-12)


def test_orbit_sum_basis_checks_the_trace_oracle(monkeypatch):
    rep = MonomialRep(make_group((2,)), np.array([[0, 1], [1, 0]]), np.ones((2, 2)))
    chi = dual_characters(rep.carrier)[0]
    assert isotypical_basis(rep, chi).shape == (2, 1)
    monkeypatch.setattr(equifred.reps, "_trace_multiplicity", lambda values, traces: 2)
    with pytest.raises(InternalInconsistencyError):
        isotypical_basis(rep, chi)


def _monomial_outcome(carrier, perm, phase):
    try:
        MonomialRep(carrier, perm, phase)
    except ValueError as exc:
        return str(exc)
    return None


def _monomial_cases():
    """(carrier, perm, phase): the cases above, a subgroup carrier, the four
    sign-twisted doubled circles and the doubled circle of
    `double_interval_bvp`, each as built and broken."""
    g = make_group((3,))
    ones = np.ones((3, 3))
    shifts = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    twisted = ones.copy()
    twisted[1, 0] = -1.0
    yield g, shifts, ones
    yield g, shifts[[0, 2, 2]], ones
    yield g, shifts, twisted
    yield g, np.array([[0, 1, 2], [1, 1, 0], [2, 0, 1]]), ones
    yield g, shifts, 2.0 * ones
    yield g, shifts[:2], ones[:2]
    yield (make_group((4,)), np.array([[0, 1], [1, 0], [0, 1], [1, 0]]),
           np.array([[1, 1], [1j, 1j], [-1, -1], [-1j, -1j]]))
    # translation on Z4 x Z2, carried by a subgroup: its edges are its basis rows
    big = make_group((4, 2))
    sub = subgroup_from_generators(big, [(2, 0), (0, 1)])
    at = {x: i for i, x in enumerate(big.elements)}
    perm = np.array([[at[big.op(h, x)] for x in big.elements] for h in sub.elements])
    yield sub, perm, np.ones(perm.shape)
    yield sub, perm[[0, 1, 1, 3]], np.ones(perm.shape)
    twisted = [twisted_double_rep(8, bc.split(",")) for bc in ("d,d", "n,n", "d,n", "n,d")]
    for rep in twisted + [double_interval_bvp(8, ("d", "d")).rep]:
        yield rep.carrier, rep.perm, rep.phase
        yield rep.carrier, rep.perm[::-1], rep.phase
        # phase errors: over the edge cut but under tol everywhere, then over tol
        for size in (2e-11, 2e-10):
            phase = rep.phase.copy()
            phase[-1, 3] *= np.exp(1j * size)
            yield rep.carrier, rep.perm, phase


@pytest.mark.parametrize("case", list(_monomial_cases()))
def test_monomial_rep_checks_like_the_row_loop(case):
    assert _monomial_outcome(*case) == reference_monomial_rep(*case)


def test_a_subgroup_carrier_is_checked_along_its_basis(monkeypatch):
    """The valid subgroup-carried cases make one identity decision and one per
    basis row, each over every (element, index): no pass over all pairs."""
    sizes = []
    original = equifred.reps._norms_over

    def spy(stack, tol):
        sizes.append(len(stack))
        return original(stack, tol)

    monkeypatch.setattr(equifred.reps, "_norms_over", spy)
    cases = [c for c in _monomial_cases() if isinstance(c[0], Subgroup)]
    for carrier, perm, phase in cases:
        sizes.clear()
        if reference_monomial_rep(carrier, perm, phase) is None:
            assert _monomial_outcome(carrier, perm, phase) is None
            d, k = perm.shape[1], len(carrier.basis)
            assert sizes == [d] + [carrier.order * d] * k
    assert len(cases) == 2


def _as_two_stacks(one):
    """The matrices of a one-stack _ShapeStacks held as two stacks of the
    same shape (even and odd indices), which the law check takes run by run."""
    return equifred.reps._ShapeStacks([i % 2 for i in range(len(one.cls))],
                                      lambda idx: one.stacks[0][idx])


@pytest.mark.parametrize("case", [c for c in _monomial_cases() if c[1].shape[1] >= 16])
@pytest.mark.parametrize("bound", [None, 1 + equifred.reps.LAW_TOL])
def test_one_shape_law_check_finds_what_the_run_split_finds(case, bound):
    """Every transport of a monomial rep is 1 x 1, so its law check takes the
    one-shape path; split into two stacks the same transports go through the
    run classification.  Both must find the same failures: the doubled-circle
    cases, with their phase errors under and over LAW_TOL."""
    carrier, perm, phase = case
    one = equifred.reps._ShapeStacks.of(np.asarray(phase, dtype=complex).reshape(-1, 1, 1))
    found = equifred.reps._law_failures(carrier, np.asarray(perm), one, bound)
    assert found == equifred.reps._law_failures(carrier, np.asarray(perm), _as_two_stacks(one), bound)
    assert bool(found[0] or found[1]) == (reference_monomial_rep(carrier, perm, phase) is not None)


def test_unitary_rep_rejects_missing_element():
    g = make_group((2,))
    with pytest.raises(ValueError):
        unitary_rep(g, {(0,): np.eye(1)})


def test_regular_rep_is_permutation():
    g = make_group((4,))
    rep = regular_rep(g)
    assert rep.dim == 4
    for x in g.elements:
        m = rep.matrix(x)
        assert np.allclose(m @ m.conj().T, np.eye(4))
        assert set(np.unique(m.real)) <= {0.0, 1.0}
        assert np.array_equal(m.sum(axis=0), np.ones(4))


def test_direct_sum_blocks():
    g = make_group((2,))
    chi0, chi1 = dual_characters(g)
    rep = diagonal_rep(g, [chi0, chi1])
    assert rep.dim == 2
    assert np.allclose(rep.matrix((1,)), np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# projectors


def test_projector_regular_z3_rank_one():
    g = make_group((3,))
    rep = regular_rep(g)
    for chi in dual_characters(g):
        p = isotypical_projector(rep, chi)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert numerical_rank(p) == 1


def test_projector_trivial_group_is_identity():
    g = make_group((1,))
    rep = random_rep(g, 3, np.random.default_rng(0))
    p = isotypical_projector(rep, dual_characters(g)[0])
    assert np.allclose(p, np.eye(3), atol=1e-12)


def test_projector_mismatched_character_is_zero():
    g = make_group((3,))
    chi0, chi1, chi2 = dual_characters(g)
    rep = character_rep(chi1)
    assert np.allclose(isotypical_projector(rep, chi2), 0.0, atol=1e-12)
    assert np.allclose(isotypical_projector(rep, chi1), np.eye(1), atol=1e-12)


def test_projector_rejects_foreign_character():
    g = make_group((2,))
    other = make_group((3,))
    rep = regular_rep(g)
    with pytest.raises(ValueError):
        isotypical_projector(rep, character(other, (1,)))


def test_projector_algebra_random_sample():
    rng = np.random.default_rng(7)
    for orders in ((2,), (3,), (2, 2), (4,), (6,)):
        g = make_group(orders)
        rep = random_rep(g, int(rng.integers(2, 7)), rng)
        chars = dual_characters(g)
        projs = [isotypical_projector(rep, chi) for chi in chars]
        total = np.zeros((rep.dim, rep.dim), dtype=complex)
        for i, p in enumerate(projs):
            assert np.linalg.norm(p @ p - p, 2) < 1e-10
            assert np.linalg.norm(p - p.conj().T, 2) < 1e-10
            for q in projs[i + 1 :]:
                assert np.linalg.norm(p @ q, 2) < 1e-10
            total += p
        assert np.linalg.norm(total - np.eye(rep.dim), 2) < 1e-10
        assert sum(numerical_rank(p) for p in projs) == rep.dim


# ---------------------------------------------------------------------------
# rank decisions and the deterministic basis


def test_numerical_rank_plain():
    assert numerical_rank(np.diag([2.0, 1.0, 0.0])) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.diag([1.0, 1e-15])) == 1


def test_numerical_rank_ambiguous():
    with pytest.raises(AmbiguousRankError):
        numerical_rank(np.diag([1.0, 1e-8]))
    with pytest.raises(AmbiguousRankError):
        numerical_rank(np.diag([1.0, 9e-8]))


def test_null_space_basis_matches_rank_rule():
    a = np.diag([3.0, 1.0, 0.0, 0.0])
    null = null_space_basis(a)
    assert null.shape == (4, 2)
    assert np.allclose(a @ null, 0.0, atol=1e-12)
    with pytest.raises(AmbiguousRankError):
        null_space_basis(np.diag([1.0, 1e-8]))


def test_null_space_basis_of_an_empty_matrix_is_the_identity():
    null = null_space_basis(np.zeros((0, 3)))
    assert null.dtype == complex and (null == np.eye(3)).all()


def test_deterministic_range_basis_reproducible():
    g = make_group((3,))
    p = isotypical_projector(regular_rep(g), dual_characters(g)[1])
    b1 = deterministic_range_basis(p, 1)
    b2 = deterministic_range_basis(p, 1)
    assert b1.tobytes() == b2.tobytes()
    assert np.allclose(b1.conj().T @ b1, np.eye(1), atol=1e-12)
    assert np.allclose(p @ b1, b1, atol=1e-12)


def test_deterministic_range_basis_orthonormal_spanning():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = a[:, :3] @ a[:3, :]
    b = deterministic_range_basis(a, 3)
    assert b.shape == (6, 3)
    assert np.allclose(b.conj().T @ b, np.eye(3), atol=1e-10)
    # the columns of a lie in the span of b
    residual = a - b @ (b.conj().T @ a)
    assert np.linalg.norm(residual, 2) < 1e-10


# ---------------------------------------------------------------------------
# decompose


def test_decompose_regular_all_ones():
    for n in (1, 2, 3, 4, 5, 6):
        g = make_group((n,))
        mv = decompose(regular_rep(g))
        assert mv.total == n
        assert all(mv[chi] == 1 for chi in dual_characters(g))


def test_decompose_repeated_character():
    g = make_group((3,))
    chi = dual_characters(g)[1]
    rep = diagonal_rep(g, [chi, chi])
    mv = decompose(rep)
    assert mv[chi] == 2
    assert mv.total == 2
    assert mv[dual_characters(g)[0]] == 0


def test_decompose_klein_regular():
    g = make_group((2, 2))
    mv = decompose(regular_rep(g))
    assert [mv[chi] for chi in dual_characters(g)] == [1, 1, 1, 1]


def test_decompose_matches_trace_oracle():
    rng = np.random.default_rng(11)
    for orders in ((2,), (4,), (2, 2), (3,), (6,), (2, 4)):
        g = make_group(orders)
        rep = random_rep(g, int(rng.integers(1, 8)), rng)
        mv = decompose(rep)
        oracle = decompose_oracle(rep)
        assert dict(mv.entries) == oracle


def test_decompose_invariant_under_conjugation():
    rng = np.random.default_rng(5)
    g = make_group((2, 2))
    rep = random_rep(g, 5, rng)
    u = haar_unitary(5, rng)
    assert decompose(conjugate_rep(rep, u)) == decompose(rep)


def test_decompose_subgroup_carrier():
    g, h = _z4_with_z2()
    rho0, rho1 = characters_of_subgroup(g, h)
    rep = diagonal_rep(h, [rho0, rho1, rho1])
    mv = decompose(rep)
    assert mv[rho0] == 1
    assert mv[rho1] == 2


# ---------------------------------------------------------------------------
# isotypical compression


def test_pi_alpha_identity():
    g = make_group((3,))
    rep = regular_rep(g)
    chi = dual_characters(g)[2]
    block = pi_alpha_restrict(rep, np.eye(3), chi)
    assert block.shape == (1, 1)
    assert np.allclose(block, np.eye(1), atol=1e-12)


def test_pi_alpha_orthogonal_projector_gives_zero():
    g = make_group((2,))
    rep = regular_rep(g)
    chi0, chi1 = dual_characters(g)
    p0 = isotypical_projector(rep, chi0)
    block = pi_alpha_restrict(rep, p0, chi1)
    assert np.allclose(block, 0.0, atol=1e-12)


def test_pi_alpha_group_element_sign_block():
    g = make_group((2,))
    rep = regular_rep(g)
    sign = dual_characters(g)[1]
    block = pi_alpha_restrict(rep, rep.matrix((1,)), sign)
    assert block.shape == (1, 1)
    assert block[0, 0] == pytest.approx(-1.0)


def test_pi_alpha_rejects_non_equivariant():
    g = make_group((2,))
    rep = regular_rep(g)
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        pi_alpha_restrict(rep, bad, dual_characters(g)[0])


def _random_invariant_matrix(rep, rng):
    raw = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal(
        (rep.dim, rep.dim)
    )
    avg = sum(
        rep.matrix(g) @ raw @ rep.matrix(g).conj().T for g in rep.elements
    ) / len(rep.elements)
    return avg


def test_pi_alpha_reassembles_invariant_matrices():
    rng = np.random.default_rng(23)
    g = make_group((2, 2))
    rep = random_rep(g, 6, rng)
    a = _random_invariant_matrix(rep, rng)
    rebuilt = np.zeros_like(a)
    for chi in dual_characters(g):
        basis = isotypical_basis(rep, chi)
        if basis.shape[1] == 0:
            continue
        block = pi_alpha_restrict(rep, a, chi)
        rebuilt += basis @ block @ basis.conj().T
    assert np.linalg.norm(rebuilt - a, 2) < 1e-10


def test_pi_alpha_injective_on_invariant_matrices():
    rng = np.random.default_rng(29)
    g = make_group((4,))
    rep = random_rep(g, 5, rng)
    a = _random_invariant_matrix(rep, rng)
    b = _random_invariant_matrix(rep, rng)
    same = all(
        np.allclose(
            pi_alpha_restrict(rep, a, chi), pi_alpha_restrict(rep, b, chi), atol=1e-10
        )
        for chi in dual_characters(g)
    )
    assert not same
    assert np.linalg.norm(a - b, 2) > 1e-6


def test_pi_alpha_multiplicative():
    rng = np.random.default_rng(31)
    g = make_group((6,))
    rep = random_rep(g, 6, rng)
    a = _random_invariant_matrix(rep, rng)
    b = _random_invariant_matrix(rep, rng)
    for chi in dual_characters(g):
        left = pi_alpha_restrict(rep, a @ b, chi)
        right = pi_alpha_restrict(rep, a, chi) @ pi_alpha_restrict(rep, b, chi)
        assert left.shape == right.shape
        if left.size:
            assert np.linalg.norm(left - right, 2) < 1e-9


# ---------------------------------------------------------------------------
# induction


def test_induce_sign_character_z2_to_z4():
    g, h = _z4_with_z2()
    rho1 = characters_of_subgroup(g, h)[1]
    ind = induce(character_rep(rho1), g)
    assert ind.dim == 2
    mv = decompose(ind)
    chars = dual_characters(g)
    assert [mv[c] for c in chars] == [0, 1, 0, 1]


def test_induce_from_full_group_is_identity_on_multiplicities():
    g = make_group((6,))
    rep = random_rep(g, 3, np.random.default_rng(2))
    ind = induce(rep, g)
    assert ind.dim == rep.dim
    assert decompose(ind) == decompose(rep)


def test_induce_from_trivial_subgroup_is_regular():
    g = make_group((2,))
    h = trivial_subgroup(g)
    rho = characters_of_subgroup(g, h)[0]
    ind = induce(character_rep(rho), g)
    reg = regular_rep(g)
    for x in g.elements:
        assert np.allclose(ind.matrix(x), reg.matrix(x), atol=1e-12)
    mv = decompose(ind)
    assert all(mv[c] == 1 for c in dual_characters(g))


def test_induce_dimension_and_homomorphism():
    rng = np.random.default_rng(17)
    g = make_group((2, 4))
    for h in all_subgroups(g):
        v = random_rep(h, 2, rng)
        ind = induce(v, g)
        assert ind.dim == (g.order // h.order) * v.dim
        for x in g.elements:
            m = ind.matrix(x)
            assert np.linalg.norm(m.conj().T @ m - np.eye(ind.dim), 2) < 1e-10
        for x, y in itertools.product(g.elements[:4], repeat=2):
            assert np.linalg.norm(
                ind.matrix(x) @ ind.matrix(y) - ind.matrix(g.op(x, y)), 2
            ) < 1e-10


def test_induced_multiplicity_law_z6():
    g = make_group((6,))
    for h in all_subgroups(g):
        for rho in characters_of_subgroup(g, h):
            mv = decompose(induce(character_rep(rho), g))
            for chi in dual_characters(g):
                expected = 1 if restrict_character(chi, h) == rho else 0
                assert mv[chi] == expected


# ---------------------------------------------------------------------------
# Frobenius maps


def test_frobenius_hom_zero_and_full_group():
    g = make_group((4,))
    source = random_rep(g, 3, np.random.default_rng(8))
    zero = np.zeros((3, 3))
    out = frobenius_hom_map(zero, source, source)
    assert np.allclose(out, 0.0)
    eye = np.eye(3)
    assert np.allclose(frobenius_hom_map(eye, source, source), eye, atol=1e-12)


def test_frobenius_hom_rejects_non_intertwiner():
    g, h = _z4_with_z2()
    source = regular_rep(g)
    rho1 = characters_of_subgroup(g, h)[1]
    v = character_rep(rho1)
    bad = np.array([[1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        frobenius_hom_map(bad, source, v)


def test_frobenius_hom_images_intertwine_and_count():
    g = make_group((2,))
    h = trivial_subgroup(g)
    source = regular_rep(g)
    v = character_rep(characters_of_subgroup(g, h)[0])
    ind = induce(v, g)
    hom_h = intertwiner_basis(restrict_rep(source, h), v)
    assert len(hom_h) == 2
    hom_g = intertwiner_basis(source, ind)
    assert len(hom_g) == 2
    images = [frobenius_hom_map(f, source, v) for f in hom_h]
    for phi in images:
        for x in g.elements:
            assert np.linalg.norm(
                phi @ source.matrix(x) - ind.matrix(x) @ phi, 2
            ) < 1e-10
    stacked = np.array([phi.reshape(-1) for phi in images])
    assert numerical_rank(stacked) == 2


def test_frobenius_reciprocity_dimensions_random():
    rng = np.random.default_rng(13)
    for orders in ((4,), (2, 2), (6,)):
        g = make_group(orders)
        subs = all_subgroups(g)
        for _ in range(3):
            h = subs[int(rng.integers(len(subs)))]
            source = random_rep(g, int(rng.integers(1, 4)), rng)
            v = random_rep(h, int(rng.integers(1, 4)), rng)
            lhs = intertwiner_basis(restrict_rep(source, h), v)
            rhs = intertwiner_basis(source, induce(v, g))
            assert len(lhs) == len(rhs)
            images = [frobenius_hom_map(f, source, v) for f in lhs]
            if images:
                stacked = np.array([phi.reshape(-1) for phi in images])
                assert numerical_rank(stacked) == len(lhs)


# ---------------------------------------------------------------------------
# commutants


def test_commutant_three_copies():
    g = make_group((3,))
    chi = dual_characters(g)[1]
    rep = diagonal_rep(g, [chi, chi, chi])
    factors = commutant_factors(rep)
    assert factors == ((chi, 3),)
    assert len(intertwiner_basis(rep, rep)) == 9


def test_commutant_regular_z2():
    g = make_group((2,))
    rep = regular_rep(g)
    factors = commutant_factors(rep)
    assert [(c.exponents, k) for c, k in factors] == [((0,), 1), ((1,), 1)]
    assert len(intertwiner_basis(rep, rep)) == 2


def test_commutant_trivial_group():
    g = make_group((1,))
    rep = random_rep(g, 4, np.random.default_rng(21))
    factors = commutant_factors(rep)
    assert len(factors) == 1
    assert factors[0][1] == 4
    assert len(intertwiner_basis(rep, rep)) == 16


def test_commutant_dimension_matches_factor_squares():
    rng = np.random.default_rng(19)
    for orders in ((2,), (4,), (2, 2)):
        g = make_group(orders)
        rep = random_rep(g, int(rng.integers(2, 6)), rng)
        factors = commutant_factors(rep)
        assert len(intertwiner_basis(rep, rep)) == sum(k * k for _, k in factors)


def test_intertwiner_basis_members_intertwine():
    rng = np.random.default_rng(37)
    g = make_group((4,))
    a = random_rep(g, 3, rng)
    b = random_rep(g, 2, rng)
    for f in intertwiner_basis(a, b):
        for x in g.elements:
            assert np.linalg.norm(f @ a.matrix(x) - b.matrix(x) @ f, 2) < 1e-8


# ---------------------------------------------------------------------------
# kernel/image split of the compressed induced algebra


def test_ker_im_split_sign_survives():
    g, h = _z4_with_z2()
    rho0, rho1 = characters_of_subgroup(g, h)
    beta = diagonal_rep(h, [rho0, rho1, rho1])
    alpha = character(g, (1,))
    split = ker_im_pi_alpha(h, g, beta, alpha)
    assert split.factors == ((rho0, 1), (rho1, 2))
    assert split.im_indices == (1,)
    assert split.ker_indices == (0,)


def test_ker_im_split_everything_dies():
    g, h = _z4_with_z2()
    rho0 = characters_of_subgroup(g, h)[0]
    beta = character_rep(rho0)
    alpha = character(g, (1,))
    split = ker_im_pi_alpha(h, g, beta, alpha)
    assert split.im_indices == ()
    assert split.ker_indices == (0,)


def test_ker_im_split_full_subgroup():
    g = make_group((4,))
    h = full_subgroup(g)
    rhos = characters_of_subgroup(g, h)
    beta = diagonal_rep(h, [rhos[0], rhos[2]])
    alpha = character(g, (2,))
    split = ker_im_pi_alpha(h, g, beta, alpha)
    surviving = [split.factors[j][0] for j in split.im_indices]
    assert surviving == [rhos[2]]


def test_ker_im_rejects_carrier_mismatch():
    g, h = _z4_with_z2()
    other = trivial_subgroup(g)
    beta = character_rep(characters_of_subgroup(g, other)[0])
    with pytest.raises(ValueError):
        ker_im_pi_alpha(h, g, beta, character(g, (0,)))


def test_multiplicity_oracle_agrees_on_diagonal_reps():
    g = make_group((2, 2))
    chars = dual_characters(g)
    rep = diagonal_rep(g, [chars[0], chars[3], chars[3], chars[1]])
    mv = decompose(rep)
    for chi in chars:
        assert mv[chi] == multiplicity_oracle(rep, chi)
