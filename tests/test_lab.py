"""Grid laboratory: invariant circle operators, sweeps, and doubled BVPs."""

import numpy as np
import pytest

from equifred import (
    CooMatrix,
    GridOperator,
    MonomialRep,
    analytic_bvp_spectrum,
    build_fixed_point_degenerate_operator,
    build_invariant_circle_operator,
    character,
    convergence_order,
    deterministic_range_basis,
    double_interval_bvp,
    dual_characters,
    fredholm_proxy_sweep,
    invariant_subspace_basis,
    isotypical_basis,
    isotypical_block,
    isotypical_projector,
    make_group,
    mixed_bvp_spectrum,
    monomial_block,
    numerical_rank,
    reflection_circle_rep,
    rotation_circle_rep,
    unitary_rep,
)

from helpers import equivariance_defect, twisted_double_rep

Z2 = make_group((2,))
TRIV = character(Z2, (0,))
SIGN = character(Z2, (1,))


def _coo(m):
    """A dense matrix as the triplets of its nonzeros."""
    rows, cols = np.nonzero(m)
    return CooMatrix(m.shape[0], rows, cols, m[rows, cols])


# ---------------------------------------------------------------------------
# circle reps and operators


def test_rotation_rep_requires_divisor():
    rep = rotation_circle_rep(12, 3)
    assert rep.dim == 12
    with pytest.raises(ValueError):
        rotation_circle_rep(10, 3)


def test_reflection_rep_is_involution():
    rep = reflection_circle_rep(8)
    flip = rep.matrix((1,))
    assert np.allclose(flip @ flip, np.eye(8))
    assert flip[0, 0] == 1.0  # theta = 0 is fixed
    assert flip[7, 1] == 1.0  # theta and -theta swap


def test_shifted_laplacian_reflection_invariant():
    op = build_invariant_circle_operator(8, 2, "shifted_laplacian", action="reflection")
    assert equivariance_defect(op.group_rep, op.matrix) < 1e-12
    h = 2.0 * np.pi / 8
    assert op.matrix[0, 0] == pytest.approx(2.0 / h**2 + 1.0)
    assert op.matrix[0, 1] == pytest.approx(-1.0 / h**2)


def test_invariant_potential_rotation():
    op = build_invariant_circle_operator(
        6, 3, "potential", potential=lambda t: np.cos(3.0 * t)
    )
    assert equivariance_defect(op.group_rep, op.matrix) < 1e-10


def test_non_invariant_potential_rejected():
    with pytest.raises(ValueError):
        build_invariant_circle_operator(
            8, 2, "potential", potential=lambda t: np.cos(t)
        )


def test_composite_operator():
    op = build_invariant_circle_operator(
        6, 3, "composite", potential=lambda t: 1.0 + np.cos(3.0 * t)
    )
    lap = build_invariant_circle_operator(6, 3, "shifted_laplacian")
    diff = op.matrix - lap.matrix
    assert np.allclose(diff, np.diag(np.diag(diff)))


def test_unknown_kind_and_action():
    with pytest.raises(ValueError):
        build_invariant_circle_operator(8, 2, "nope")
    with pytest.raises(ValueError):
        build_invariant_circle_operator(8, 2, "shifted_laplacian", action="swirl")
    with pytest.raises(ValueError):
        build_invariant_circle_operator(8, 3, "shifted_laplacian", action="reflection")


# ---------------------------------------------------------------------------
# isotypical blocks of grid operators


def test_block_of_identity():
    op = build_invariant_circle_operator(8, 2, "shifted_laplacian", action="reflection")
    eye_op = build_invariant_circle_operator(
        8, 2, "potential", action="reflection", potential=np.ones(8)
    )
    for alpha in (TRIV, SIGN):
        rank = numerical_rank(isotypical_projector(op.group_rep, alpha))
        block = isotypical_block(eye_op, alpha)
        assert block.shape == (rank, rank)
        assert np.allclose(block, np.eye(rank), atol=1e-12)


def test_reflection_grid_ranks_n4():
    rep = reflection_circle_rep(4)
    # brute force: eigenspaces of the flip permutation
    flip = rep.matrix((1,)).real
    eigvals, _ = np.linalg.eigh(flip)
    assert np.sum(np.isclose(eigvals, 1.0)) == 3
    assert np.sum(np.isclose(eigvals, -1.0)) == 1
    assert numerical_rank(isotypical_projector(rep, TRIV)) == 3
    assert numerical_rank(isotypical_projector(rep, SIGN)) == 1


def test_block_spectrum_contained_in_full_spectrum():
    op = build_invariant_circle_operator(8, 2, "shifted_laplacian", action="reflection")
    full = np.sort(np.linalg.eigvalsh(op.matrix))
    block = isotypical_block(op, SIGN)
    for ev in np.linalg.eigvalsh((block + block.conj().T) / 2):
        assert np.min(np.abs(full - ev)) < 1e-8


def test_blocks_split_the_spectrum():
    op = build_invariant_circle_operator(12, 2, "shifted_laplacian", action="reflection")
    pieces = []
    for alpha in (TRIV, SIGN):
        block = isotypical_block(op, alpha)
        pieces.extend(np.linalg.eigvalsh((block + block.conj().T) / 2))
    merged = np.sort(np.asarray(pieces))
    full = np.sort(np.linalg.eigvalsh(op.matrix))
    assert merged.shape == full.shape
    assert np.max(np.abs(merged - full)) < 1e-8


def test_block_ranks_complete():
    rep = reflection_circle_rep(10)
    total = sum(
        numerical_rank(isotypical_projector(rep, alpha)) for alpha in (TRIV, SIGN)
    )
    assert total == 10


def test_block_multiplicative_on_operators():
    from equifred import GridOperator

    lap = build_invariant_circle_operator(8, 2, "shifted_laplacian", action="reflection")
    pot = build_invariant_circle_operator(
        8, 2, "potential", action="reflection", potential=lambda t: 2.0 + np.cos(t)
    )
    product = GridOperator(8, _coo(lap.matrix @ pot.matrix), lap.group_rep, "composite")
    for alpha in (TRIV, SIGN):
        left = isotypical_block(product, alpha)
        right = isotypical_block(lap, alpha) @ isotypical_block(pot, alpha)
        assert np.linalg.norm(left - right, 2) < 1e-9


def test_isotypical_block_rejects_non_invariant():
    op = build_invariant_circle_operator(8, 2, "shifted_laplacian", action="reflection")
    broken = op.matrix.copy()
    broken[0, 3] += 1.0
    from equifred import GridOperator

    with pytest.raises(ValueError):
        isotypical_block(GridOperator(8, _coo(broken), op.group_rep, "broken"), TRIV)


def test_a_grid_operator_is_checked_once_at_law_tol_when_it_is_made(monkeypatch):
    import equifred.lab as lab
    from equifred.reps import COMMUTE_TOL, LAW_TOL, require_intertwining

    op = build_invariant_circle_operator(12, 2, "shifted_laplacian", action="reflection")
    broken = op.matrix.copy()
    broken[1, 1] += 1e-9 * np.linalg.norm(broken, 2)  # defect 1e-9 times the norm
    assert LAW_TOL < 1e-9 < COMMUTE_TOL
    require_intertwining("", op.group_rep, _coo(broken), tol=COMMUTE_TOL)  # a compression gate
    with pytest.raises(ValueError, match="broken operator does not commute with its action"):
        GridOperator(12, _coo(broken), op.group_rep, "broken")

    calls = []
    monkeypatch.setattr(lab, "require_intertwining",
                        lambda *a, **kw: calls.append(1) or require_intertwining(*a, **kw))
    fredholm_proxy_sweep(_laplacian_family, TRIV, (64, 128, 256))
    assert len(calls) == 3  # once per size, when the family builds the operator


# ---------------------------------------------------------------------------
# refinement sweeps


def _laplacian_family(n):
    return build_invariant_circle_operator(n, 2, "shifted_laplacian", action="reflection")


def test_sweep_laplacian_stable_both_isotypes():
    for alpha in (TRIV, SIGN):
        sweep = fredholm_proxy_sweep(_laplacian_family, alpha, (16, 32, 64))
        assert sweep.verdict == "stable"
        assert sweep.sizes == (16, 32, 64)
        assert min(sweep.values) / max(sweep.values) > 0.8


def test_sweep_degenerate_family_separates_isotypes():
    stable = fredholm_proxy_sweep(
        build_fixed_point_degenerate_operator, SIGN, (32, 64, 128)
    )
    assert stable.verdict == "stable"
    failing = fredholm_proxy_sweep(
        build_fixed_point_degenerate_operator, TRIV, (32, 64, 128)
    )
    assert failing.verdict == "degenerating"
    assert failing.values[0] / failing.values[-1] >= 10.0


def test_sweep_zero_operator_degenerates():
    def zero_family(n):
        return build_invariant_circle_operator(
            n, 2, "potential", action="reflection", potential=np.zeros(n)
        )

    for alpha in (TRIV, SIGN):
        sweep = fredholm_proxy_sweep(zero_family, alpha, (16, 32))
        assert sweep.verdict == "degenerating"
        assert all(v <= 1e-12 for v in sweep.values)


def test_sweep_argument_checks():
    with pytest.raises(ValueError):
        fredholm_proxy_sweep(_laplacian_family, TRIV, (16,))
    with pytest.raises(ValueError):
        fredholm_proxy_sweep(_laplacian_family, TRIV, (16, 32), k=0)
    with pytest.raises(ValueError):
        # the sign block at n=8 has dimension 3 < k=4
        fredholm_proxy_sweep(_laplacian_family, SIGN, (8, 16))


def test_degenerate_operator_shape():
    op = build_fixed_point_degenerate_operator(32)
    assert op.n == 32
    assert equivariance_defect(op.group_rep, op.matrix) < 1e-10
    with pytest.raises(ValueError):
        build_fixed_point_degenerate_operator(33)


# ---------------------------------------------------------------------------
# interval doubling


BOUNDARY_PAIRS = (("d", "d"), ("n", "n"), ("d", "n"), ("n", "d"))


def _leads(prob):
    return tuple(sorted(monomial_block(prob.rep, prob.coo, prob.alpha)[0]))


def test_double_matching_dirichlet():
    prob = double_interval_bvp(16, ("dirichlet", "dirichlet"))
    assert prob.grid_size == 64
    assert prob.group.orders == (2, 2)
    assert prob.alpha == character(prob.group, (1, 1))
    assert prob.invariant_dim == 15
    assert _leads(prob) == tuple(range(1, 16))
    # a Dirichlet end's isotype basis vanishes at that end's node
    basis = invariant_subspace_basis(prob)
    assert not basis[[0, 16]].any()


def test_double_matching_neumann():
    prob = double_interval_bvp(16, ("neumann", "neumann"))
    assert prob.grid_size == 64
    assert prob.invariant_dim == 17
    assert _leads(prob) == tuple(range(0, 17))
    # the trivial isotype: the functions even across both ends
    basis = invariant_subspace_basis(prob)
    for flip in ((1, 0), (0, 1)):
        assert np.linalg.norm(prob.rep.matrix(flip) @ basis - basis, 2) < 1e-10


def test_double_mixed_conditions():
    prob = double_interval_bvp(16, ("dirichlet", "neumann"))
    assert prob.grid_size == 64
    assert prob.group.orders == (2, 2)
    assert prob.invariant_dim == 16
    assert _leads(prob) == tuple(range(1, 17))
    assert not invariant_subspace_basis(prob)[0].any()
    other = double_interval_bvp(16, ("neumann", "dirichlet"))
    assert other.invariant_dim == 16
    assert _leads(other) == tuple(range(0, 16))
    assert not invariant_subspace_basis(other)[16].any()


def test_double_bc_aliases_and_errors():
    prob = double_interval_bvp(8, ("D", "n"))
    assert prob.bc == ("dirichlet", "neumann")
    with pytest.raises(ValueError):
        double_interval_bvp(8, ("dirichlet", "mystery"))
    with pytest.raises(ValueError):
        double_interval_bvp(2, ("dirichlet", "dirichlet"))
    with pytest.raises(ValueError):
        double_interval_bvp(8, ("dirichlet",))


def test_doubled_operator_commutes():
    for bc in BOUNDARY_PAIRS:
        prob = double_interval_bvp(12, bc)
        assert equivariance_defect(prob.rep, prob.operator) < 1e-10


def test_orbit_sum_leads_are_the_free_nodes():
    for n in (9, 12):
        for bc in BOUNDARY_PAIRS:
            prob = double_interval_bvp(n, bc)
            leads, block = monomial_block(prob.rep, prob.coo, prob.alpha)
            # the interval's nodes 0..n, less each Dirichlet end
            free = range(int(bc[0] == "d"), n + int(bc[1] == "n"))
            assert tuple(sorted(leads)) == tuple(free), (n, bc)
            assert block.size == prob.invariant_dim
            basis = invariant_subspace_basis(prob)
            assert (np.count_nonzero(basis, axis=1) <= 1).all(), (n, bc)
            # each column's least nonzero row is its lead
            assert np.array_equal(np.argmax(basis != 0, axis=0), leads), (n, bc)


def test_spectrum_examples_at_n256():
    cases = {
        ("dirichlet", "neumann"): (0.25, 2.25, 6.25),
        ("neumann", "neumann"): (0.0, 1.0, 4.0),
        ("dirichlet", "dirichlet"): (1.0, 4.0, 9.0),
    }
    for bc, exact in cases.items():
        prob = double_interval_bvp(256, bc)
        eigs = mixed_bvp_spectrum(prob, 3)
        for ev, ref in zip(eigs, exact):
            if ref == 0.0:
                assert abs(ev) < 1e-8
            else:
                assert abs(ev - ref) / ref < 0.01


def _discrete_form(prob, count):
    """(4/h^2) sin^2((k + D/2) h/2) for k < count, D the number of Dirichlet
    ends: the exact spectrum of the second difference on the alpha-isotype."""
    ends = prob.bc.count("dirichlet")
    return 4 / prob.h**2 * np.sin((np.arange(count) + ends / 2) * prob.h / 2) ** 2


def test_each_isotype_block_has_the_discrete_closed_form_spectrum():
    for n in (16, 64):
        spectra = []
        for bc in BOUNDARY_PAIRS:
            prob = double_interval_bvp(n, bc)
            block = monomial_block(prob.rep, prob.coo, prob.alpha)[1].dense()
            spectra.append(np.linalg.eigvalsh(block))
            exact = _discrete_form(prob, prob.invariant_dim)
            assert np.abs(spectra[-1] - exact).max() <= 1e-12 * 4 / prob.h**2, (n, bc)
        # the four isotypes split the whole doubled circle
        whole = np.linalg.eigvalsh(prob.operator)
        assert np.abs(np.sort(np.concatenate(spectra)) - whole).max() <= 1e-12 * 4 / prob.h**2, n


def test_bvp_spectrum_is_within_the_bracket_width_of_the_discrete_form():
    for n in (64, 256, 4096):
        for bc in BOUNDARY_PAIRS:
            prob = double_interval_bvp(n, bc)
            err = np.abs(mixed_bvp_spectrum(prob, 5) - _discrete_form(prob, 5))
            assert err.max() <= np.finfo(float).eps * 4 / prob.h**2, (n, bc)


def test_spectrum_count_check():
    prob = double_interval_bvp(8, ("dirichlet", "dirichlet"))
    with pytest.raises(ValueError):
        mixed_bvp_spectrum(prob, prob.invariant_dim + 1)
    with pytest.raises(ValueError):
        mixed_bvp_spectrum(prob, 0)


def test_analytic_spectra():
    assert np.allclose(analytic_bvp_spectrum(("d", "d"), 3), [1.0, 4.0, 9.0])
    assert np.allclose(analytic_bvp_spectrum(("n", "n"), 3), [0.0, 1.0, 4.0])
    assert np.allclose(analytic_bvp_spectrum(("d", "n"), 3), [0.25, 2.25, 6.25])
    assert np.allclose(analytic_bvp_spectrum(("n", "d"), 3), [0.25, 2.25, 6.25])


def test_second_order_convergence_quick():
    sizes = (32, 64, 128)
    errors = []
    exact = analytic_bvp_spectrum(("d", "n"), 4)
    for n in sizes:
        eigs = mixed_bvp_spectrum(double_interval_bvp(n, ("d", "n")), 4)
        errors.append(np.max(np.abs(eigs - exact) / exact))
    order = convergence_order(sizes, errors)
    assert 1.7 < order < 2.3


def test_convergence_order_helper():
    sizes = (10, 20, 40)
    errors = [1.0 / n**2 for n in sizes]
    assert convergence_order(sizes, errors) == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# monomial route against the dense projector route


def _dense(rep):
    """The same representation as validated dense matrices."""
    return unitary_rep(rep.carrier, {g: rep.matrix(g) for g in rep.elements})


def _lab_reps():
    """(label, rep) for every kind of symmetry the lab builds."""
    # on Z_10, Z_12, Z_13 and Z_15 the projector columns onto a complex isotype
    # have norms that tie in exact arithmetic but differ in their last bits, so
    # the dense route's pivot must not depend on rounding
    rotations = ((12, 1), (12, 3), (12, 4), (16, 8), (18, 9)) + ((10, 10), (24, 12), (13, 13), (30, 15))
    for n, m in rotations:
        yield f"rotation {n}/{m}", rotation_circle_rep(n, m)
    for n in (7, 8):
        yield f"reflection {n}", reflection_circle_rep(n)
    for n in (9, 12):
        yield f"doubled {n}", double_interval_bvp(n, ("d", "d")).rep
        for bc in BOUNDARY_PAIRS:
            yield f"twisted double {n} {bc}", twisted_double_rep(n, bc)


def _loop_flip(size, center, sign):
    mat = np.zeros((size, size), dtype=complex)
    for j in range(size):
        mat[(center - j) % size, j] = sign
    return mat


def _loop_laplacian(size, h, shift):
    lap = np.zeros((size, size), dtype=complex)
    for j in range(size):
        lap[j, j] = 2.0 / h**2 + shift
        lap[j, (j + 1) % size] += -1.0 / h**2
        lap[j, (j - 1) % size] += -1.0 / h**2
    return lap


def test_vectorised_builders_match_loop_reference():
    for n, m in ((12, 3), (12, 4), (5, 5)):
        rep = rotation_circle_rep(n, m)
        for (a,) in rep.elements:
            ref = np.zeros((n, n), dtype=complex)
            for j in range(n):
                ref[(j + a * (n // m)) % n, j] = 1.0
            assert np.array_equal(rep.matrix((a,)), ref)
    for n in (7, 8):
        assert np.array_equal(reflection_circle_rep(n).matrix((1,)), _loop_flip(n, 0, 1.0))
        op = build_invariant_circle_operator(n, 2, "shifted_laplacian", action="reflection")
        assert np.array_equal(op.matrix, _loop_laplacian(n, 2.0 * np.pi / n, 1.0))
    p_even = (np.eye(8) + _loop_flip(8, 0, 1.0)) / 2
    mult = np.diag(np.sin(2.0 * np.pi * np.arange(8) / 8) ** 2).astype(complex)
    degenerate = build_fixed_point_degenerate_operator(8).matrix
    assert np.array_equal(degenerate, mult @ p_even + (np.eye(8) - p_even))
    n = 6
    doubled = {(1, 0): _loop_flip(4 * n, 0, 1.0), (0, 1): _loop_flip(4 * n, 2 * n, 1.0)}
    twisted = {
        ("d", "d"): {(1,): _loop_flip(2 * n, 0, -1.0)},
        ("n", "n"): {(1,): _loop_flip(2 * n, 0, 1.0)},
        ("d", "n"): {(1, 0): _loop_flip(4 * n, 0, -1.0), (0, 1): _loop_flip(4 * n, 2 * n, 1.0)},
        ("n", "d"): {(1, 0): _loop_flip(4 * n, 2 * n, -1.0), (0, 1): _loop_flip(4 * n, 0, 1.0)},
    }
    for bc in BOUNDARY_PAIRS:
        prob = double_interval_bvp(n, bc)
        for rep, ref in ((prob.rep, dict(doubled)), (twisted_double_rep(n, bc), twisted[bc])):
            if len(ref) == 2:
                ref[(1, 1)] = ref[(1, 0)] @ ref[(0, 1)]
            for g, mat in ref.items():
                assert np.array_equal(rep.matrix(g), mat), (bc, g)
        assert np.array_equal(prob.operator, _loop_laplacian(prob.grid_size, prob.h, 0.0))


def test_monomial_basis_matches_dense_route_column_for_column():
    for label, rep in _lab_reps():
        dense = _dense(rep)
        for chi in dual_characters(rep.carrier):
            mono = isotypical_basis(rep, chi)
            ref = isotypical_basis(dense, chi)
            assert mono.shape == ref.shape, (label, chi)
            assert np.abs(mono - ref).max(initial=0.0) <= 1e-12, (label, chi)


def _dense_route_spectrum(prob, count):
    proj = isotypical_projector(prob.rep, prob.alpha)
    basis = deterministic_range_basis(proj, prob.invariant_dim)
    compressed = basis.conj().T @ prob.operator @ basis
    return np.linalg.eigvalsh((compressed + compressed.conj().T) / 2.0)[:count]


def test_bvp_spectra_match_dense_route():
    for bc in BOUNDARY_PAIRS:
        for n in (64, 128, 256):
            prob = double_interval_bvp(n, bc)
            fast = mixed_bvp_spectrum(prob, 5)
            ref = _dense_route_spectrum(prob, 5)
            assert np.all(np.abs(fast - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref))), (bc, n)


def test_sweep_blocks_match_dense_route():
    families = {
        "reflection_laplacian": _laplacian_family,
        "degenerate_even": build_fixed_point_degenerate_operator,
    }
    for name, family in families.items():
        for alpha in (TRIV, SIGN):
            for n in (64, 128, 256):
                op = family(n)
                block = isotypical_block(op, alpha)
                basis = isotypical_basis(_dense(op.group_rep), alpha)
                ref = basis.conj().T @ op.matrix @ basis
                scale = max(1.0, np.abs(ref).max())
                assert np.abs(block - ref).max() <= 1e-10 * scale, (name, alpha, n)


def test_bvp_n512_within_one_percent():
    exact = analytic_bvp_spectrum(("d", "n"), 5)
    eigs = mixed_bvp_spectrum(double_interval_bvp(512, ("d", "n")), 5)
    assert np.all(np.abs(eigs - exact) / exact < 0.01)


# ---------------------------------------------------------------------------
# sparse compression and Sturm counts against dense routes


def test_sweep_values_match_the_dense_svd(monkeypatch):
    import equifred.lab as lab

    families = {
        "reflection_laplacian": _laplacian_family,
        "degenerate_even": build_fixed_point_degenerate_operator,
    }
    sturm = []
    counted = lab._tridiagonal_eigenvalues
    monkeypatch.setattr(lab, "_tridiagonal_eigenvalues", lambda *a: sturm.append(1) or counted(*a))
    for name, family in families.items():
        for alpha in (TRIV, SIGN):
            sizes = (64, 128, 256)
            sweep = fredholm_proxy_sweep(family, alpha, sizes)
            for n, value in zip(sizes, sweep.values):
                op = family(n)
                basis = isotypical_basis(_dense(op.group_rep), alpha)
                ref = np.sort(np.linalg.svd(basis.conj().T @ op.matrix @ basis, compute_uv=False))[3]
                assert abs(value - ref) <= 1e-10 * max(1.0, ref), (name, alpha, n)
    assert len(sturm) == 12  # every block went through the Sturm counts


def test_non_hermitian_blocks_get_the_dense_svd():
    def family(n):
        return build_invariant_circle_operator(
            n, 2, "composite", action="reflection",
            potential=lambda t: 1.0 + 2j * np.cos(t),
        )

    for alpha in (TRIV, SIGN):
        sweep = fredholm_proxy_sweep(family, alpha, (16, 32))
        for n, value in zip(sweep.sizes, sweep.values):
            s = np.linalg.svd(isotypical_block(family(n), alpha), compute_uv=False)
            assert value == float(np.sort(s)[3])


def _on_trivial_group(n, m, kind):
    """The dense n x n matrix m as a GridOperator of the group of order 1,
    whose one block is m itself."""
    rep = MonomialRep(make_group((1,)), np.arange(n)[None], np.ones((1, n)))
    return GridOperator(n, _coo(m), rep, kind)


def test_blocks_that_are_not_tridiagonal_get_the_dense_svd():
    """Coupling sites two apart leaves no tridiagonal form in lead-index
    order: `_hermitian_tridiagonal` gives None, and the sweep takes the SVD."""
    import equifred.lab as lab

    def family(n):
        shift = np.roll(np.eye(n), 2, axis=1)
        m = 3.0 * np.eye(n) - shift - shift.T + np.diag(np.linspace(0.0, 1.0, n))
        return _on_trivial_group(n, m, "two_apart")

    alpha = character(make_group((1,)), (0,))
    sweep = fredholm_proxy_sweep(family, alpha, (16, 32))
    for n, value in zip(sweep.sizes, sweep.values):
        op = family(n)
        assert lab._hermitian_tridiagonal(*monomial_block(op.group_rep, op.coo, alpha)) is None
        s = np.linalg.svd(isotypical_block(op, alpha), compute_uv=False)
        assert value == float(np.sort(s)[3])


def test_a_fall_between_the_bands_is_inconclusive():
    # (16 / n) I: the fourth value falls from 1 to 1/2, neither a fifth nor 80 percent
    sweep = fredholm_proxy_sweep(lambda n: _on_trivial_group(n, 16.0 / n * np.eye(n), "scaled"),
                                 character(make_group((1,)), (0,)), (16, 32))
    assert sweep.values == pytest.approx((1.0, 0.5), rel=1e-12)
    assert sweep.verdict == "inconclusive"


def test_sweep_needs_two_distinct_sizes():
    with pytest.raises(ValueError, match="two distinct sizes"):
        fredholm_proxy_sweep(_laplacian_family, TRIV, (16, 16))


def _tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(np.conj(off), -1)


def test_sturm_brackets_hold_the_lowest_eigenvalues():
    import equifred.lab as lab

    rng = np.random.default_rng(7)
    for k in (1, 2, 7, 40):
        diag = rng.standard_normal(k)
        off = rng.standard_normal(k - 1) + 1j * rng.standard_normal(k - 1)
        off[::3] = 0.0  # decoupled blocks
        off2 = np.abs(off) ** 2
        ref = np.linalg.eigvalsh(_tridiagonal(diag, off))
        bound = lab._spectral_radius_bound(diag, off2)
        floor = np.finfo(float).eps * bound
        lo, hi = lab._multisection(
            lambda x: lab._sturm_counts(diag, off2, x), np.arange(k), -bound, bound, floor
        )
        assert np.all(hi - lo <= 2 * floor)
        assert np.all(lo - 4 * floor <= ref) and np.all(ref <= hi + 4 * floor)
        kth = lab._kth_smallest_modulus(diag, off2, (k + 1) // 2)
        assert abs(kth - np.sort(np.abs(ref))[(k - 1) // 2]) <= 8 * floor


def test_kth_smallest_modulus_matches_the_dense_eigenvalues():
    import equifred.lab as lab

    rng = np.random.default_rng(11)
    cases = [
        (np.zeros(6), np.array([1.0, 0.0, 4.0, 1.0, 0.0])),  # 0 twice, +-1, +-sqrt(5)
        (np.array([1.0, 0.0, -2.0]), np.array([0.0, 0.0])),  # an exact 0 between signs
        (np.zeros(4), np.zeros(3)),
    ]
    for size in (1, 2, 9, 30):
        off = rng.standard_normal(size - 1) + 1j * rng.standard_normal(size - 1)
        off[::4] = 0.0  # decoupled blocks
        cases.append((rng.standard_normal(size), np.abs(off) ** 2))
    for diag, off2 in cases:
        ref = np.sort(np.abs(np.linalg.eigvalsh(_tridiagonal(diag, np.sqrt(off2)))))
        floor = np.finfo(float).eps * lab._spectral_radius_bound(diag, off2)
        for k in range(1, diag.size + 1):
            assert abs(lab._kth_smallest_modulus(diag, off2, k) - ref[k - 1]) <= 8 * floor


def test_sturm_counts_pass_exact_zero_pivots_without_warnings():
    import warnings

    import equifred.lab as lab

    # eigenvalues -sqrt(5), -1, 0, 0, 1, sqrt(5); at the shift 0 the first
    # pivot is exactly 0, and so are later ones
    diag = np.zeros(6)
    off2 = np.array([1.0, 0.0, 4.0, 1.0, 0.0])
    ref = np.linalg.eigvalsh(_tridiagonal(diag, np.sqrt(off2)))
    shifts = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = lab._sturm_counts(diag, off2, shifts)
    # an eigenvalue at a shift may count on either side: the count is that of
    # a matrix with its zero pivots perturbed by a tiny amount
    below = [np.count_nonzero(ref < x - 1e-12) for x in shifts]
    upto = [np.count_nonzero(ref <= x + 1e-12) for x in shifts]
    assert all(b <= c <= u for b, c, u in zip(below, counts, upto)), (counts, below, upto)
    assert list(counts[[0, 2, 4, 6]]) == [0, 2, 4, 6]


def test_sparse_invariance_gate_decides_like_the_dense_check():
    from equifred.reps import require_intertwining

    rep = reflection_circle_rep(12)
    lap = build_invariant_circle_operator(12, 2, "shifted_laplacian", action="reflection").coo
    cases = [lap]
    for j, v in ((1, 1e-13), (1, 1e-9), (3, 1.0)):
        extra = CooMatrix(12, np.array([j]), np.array([j]), np.array([v]))
        cases.append(CooMatrix(12, *(np.concatenate([getattr(lap, f), getattr(extra, f)])
                                     for f in ("rows", "cols", "vals"))))
    # Z_4 acting on C^2 by diag(i^g, i^-g): complex phases, so only diagonal
    # operators commute
    twist = MonomialRep(make_group((4,)), np.zeros((4, 2), dtype=int) + [0, 1],
                        np.array([[1, 1], [1j, -1j], [-1, -1], [-1j, 1j]]))
    pair = np.array([0, 1])
    twisted = [CooMatrix(2, pair, pair, np.array([2.0, 3j])),
               CooMatrix(2, pair, pair[::-1], np.array([1.0, 0.5]))]
    outcomes = []
    for r, op in [(rep, op) for op in cases] + [(twist, op) for op in twisted]:
        decided = []
        for f in (op, op.dense()):
            try:
                require_intertwining("not invariant", r, f, tol=1e-10)
                decided.append(None)
            except ValueError as exc:
                decided.append(str(exc))
        assert decided[0] == decided[1]
        outcomes.append(decided[0])
    assert [x is None for x in outcomes] == [True, True, True, False, True, False]
    assert outcomes[-1].startswith("not invariant (defect ")


def test_isotypical_block_is_the_dense_route_block():
    from equifred.reps import pi_alpha_restrict

    for label, rep in _lab_reps():
        if not label.startswith("rotation"):
            continue
        n = rep.dim
        op = build_invariant_circle_operator(
            n, rep.carrier.orders[0], "composite", potential=np.ones(n)
        )
        for chi in dual_characters(rep.carrier):
            block = isotypical_block(op, chi)
            ref = pi_alpha_restrict(op.group_rep, op.matrix, chi)
            assert block.shape == ref.shape, (label, chi)
            assert np.abs(block - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=1.0)


@pytest.mark.parametrize(
    "build, argument",
    [
        (lambda: build_invariant_circle_operator(0, 1, "shifted_laplacian"), "grid size n "),
        (lambda: build_invariant_circle_operator(0, 2, "shifted_laplacian", action="reflection"),
         "grid size n "),
        (lambda: rotation_circle_rep(4, 0), "rotation order m "),
        (lambda: rotation_circle_rep(4, -2), "rotation order m "),
        (lambda: rotation_circle_rep(0, 1), "grid size n "),
        (lambda: reflection_circle_rep(0), "grid size n "),
        (lambda: build_fixed_point_degenerate_operator(-2), "grid size n "),
        (lambda: build_fixed_point_degenerate_operator(0), "grid size n "),
    ],
)
def test_grid_builders_refuse_bad_sizes_by_name(build, argument):
    with np.errstate(all="raise"):  # refused before any arithmetic
        with pytest.raises(ValueError, match=argument):
            build()
