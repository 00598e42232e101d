"""Sample bundles, isotype sets, symbol fields, and ellipticity verdicts."""

import json
from pathlib import Path

import numpy as np
import pytest

import equifred.bundles
from equifred import (
    ModelInconsistencyError,
    SubgroupCharacter,
    XPoint,
    alpha_elliptic_check,
    build_X,
    character,
    characters_of_subgroup,
    commutant_factors,
    decompose,
    dual_characters,
    fiber_rep,
    full_subgroup,
    gamma_symbol_eval,
    isotropy,
    make_group,
    minimal_isotropy,
    orbits,
    partition_by_beta,
    pointwise_invertible,
    prim_enumerate,
    propagate_symbol,
    random_bundle,
    random_symbol,
    restrict_character,
    sample_bundle,
    subgroup_from_generators,
    symbol_field,
    trivial_subgroup,
    validate_bundle,
)
from equifred.serialize import InputDocumentError, load_bundle

from helpers import (
    raw_bundle_document,
    reference_isotropy,
    reference_minimal_isotropy,
    reference_orbits,
    reference_random_bundle,
    reference_symbol_defect,
)


def fixed_two_point_bundle():
    """Z_2 acting trivially on two points, fiber = trivial + sign at each."""
    g = make_group((2,))
    flip = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    points = ["p0", "p1"]
    base = {"p0": "b0", "p1": "b1"}
    action = {((0,), p): p for p in points} | {((1,), p): p for p in points}
    fdim = {p: 2 for p in points}
    transport = {((0,), p): eye for p in points} | {((1,), p): flip for p in points}
    return sample_bundle(g, points, base, action, fdim, transport)


def free_z2_data():
    """The raw data of `free_z2_bundle`, keyed by (element, point)."""
    g = make_group((2,))
    one = np.eye(1, dtype=complex)
    points = ["q0", "q1"]
    base = {"q0": "b", "q1": "b'"}
    action = {
        ((0,), "q0"): "q0",
        ((0,), "q1"): "q1",
        ((1,), "q0"): "q1",
        ((1,), "q1"): "q0",
    }
    fdim = {p: 1 for p in points}
    transport = {(x, p): one for x in ((0,), (1,)) for p in points}
    return g, points, base, action, fdim, transport


def free_z2_bundle():
    return sample_bundle(*free_z2_data())


def quotient_z4_data():
    """Z_4 shuffling two points through its order-2 quotient, as raw data."""
    g = make_group((4,))
    one = np.eye(1, dtype=complex)
    points = ["r0", "r1"]
    base = {"r0": "b0", "r1": "b1"}
    action = {}
    transport = {}
    for x in range(4):
        for j in range(2):
            action[((x,), f"r{j}")] = f"r{(j + x) % 2}"
            transport[((x,), f"r{j}")] = one
    return g, points, base, action, {p: 1 for p in points}, transport


def quotient_z4_bundle():
    return sample_bundle(*quotient_z4_data())


def trivial_group_bundle(n_points=3, dim=2):
    g = make_group((1,))
    eye = np.eye(dim, dtype=complex)
    points = [f"s{i}" for i in range(n_points)]
    return sample_bundle(
        g,
        points,
        {p: p for p in points},
        {((0,), p): p for p in points},
        {p: dim for p in points},
        {((0,), p): eye for p in points},
    )


# ---------------------------------------------------------------------------
# validation


def test_validate_trivial_group_bundle():
    assert validate_bundle(trivial_group_bundle()).ok


def test_validate_free_swap_bundle():
    assert validate_bundle(free_z2_bundle()).ok


def test_validate_reports_broken_cocycle():
    g, points, base, action, fdim, transport = free_z2_data()
    transport[((1,), "q0")] = -np.eye(1, dtype=complex)
    report = validate_bundle(sample_bundle(g, points, base, action, fdim, transport))
    assert not report.ok
    locations = [v.location for v in report.violations]
    assert any(loc.startswith("/transport/1/") for loc in locations)
    assert all(v.kind == "transport" for v in report.violations)


def _free_z2_with(faults):
    g, points, base, action, fdim, transport = free_z2_data()
    for fault in faults:
        if fault == "foreign image":
            action[((1,), "q1")] = "zz"
        elif fault == "no label":
            del base["q1"]
        elif fault == "no dimension":
            del fdim["q0"]
        elif fault == "zero dimension":
            fdim["q1"] = 0
        elif fault == "no transport":
            del transport[((0,), "q1")]
        elif fault == "wide transport":
            transport[((1,), "q0")] = np.eye(1, 2)
    return g, points, base, action, fdim, transport


REFUSALS = [
    (("no label", "foreign image"), "/action/1/q1: image 'zz' is not a point"),
    (("no dimension", "no label"), "/base/q1: missing label"),
    (("no transport", "no dimension"), "/fiber_dim/q0: missing or non-positive"),
    (("zero dimension",), "/fiber_dim/q1: missing or non-positive"),
    (("wide transport", "no transport"), "/transport/0/q1: missing"),
    (("wide transport",), "/transport/1/q0: shape (1, 2), expected (1, 1)"),
]


@pytest.mark.parametrize("faults, where", REFUSALS, ids=["+".join(f) for f, _ in REFUSALS])
def test_sample_bundle_refuses_the_first_entry_that_cannot_fill_the_tables(faults, where):
    # action entries, then labels, then dimensions, then transports (element-major)
    with pytest.raises(InputDocumentError) as err:
        sample_bundle(*_free_z2_with(faults))
    assert str(err.value) == where


def test_sample_bundle_refuses_a_repeated_point_as_load_bundle_does():
    g, points, base, action, fdim, transport = free_z2_data()
    for ids in (["q0", "q0"], ["q0", "q1", "q0"]):
        with pytest.raises(InputDocumentError) as err:
            sample_bundle(g, ids, base, action, fdim, transport)
        assert str(err.value) == f"/points/{len(ids) - 1}: duplicate point id 'q0'"
    doc = json.loads((Path(__file__).parent / "data" / "bundle_free_orbit.json").read_text())
    doc["points"].append(doc["points"][0])
    with pytest.raises(InputDocumentError) as loaded:
        load_bundle(doc)
    raw = raw_bundle_document(doc)
    with pytest.raises(InputDocumentError) as sampled:
        sample_bundle(*raw)
    assert str(sampled.value) == str(loaded.value)


def test_a_bundle_is_read_only():
    b = free_z2_bundle()
    with pytest.raises(ValueError, match="read-only"):
        b.table[0, 0] = 1
    for stack in b.transports.stacks:
        with pytest.raises(ValueError, match="read-only"):
            stack[0] = 0
    with pytest.raises(TypeError):
        b.base["q0"] = "c"
    with pytest.raises(TypeError):
        b.fiber_dim["q0"] = 2
    with pytest.raises(AttributeError):
        b.table = np.zeros_like(b.table)


def test_validate_reports_non_unitary_transport():
    g, points, base, action, fdim, transport = free_z2_data()
    transport[((1,), "q0")] = 2.0 * np.eye(1, dtype=complex)
    report = validate_bundle(sample_bundle(g, points, base, action, fdim, transport))
    assert any(
        v.location == "/transport/1/q0" and "unitary" in v.detail
        for v in report.violations
    )


def test_validate_empty_bundle():
    g = make_group((2,))
    b = sample_bundle(g, [], {}, {}, {}, {})
    assert validate_bundle(b).ok
    assert orbits(b) == ()
    assert minimal_isotropy(b) == full_subgroup(g)
    assert build_X(b) == ()
    assert partition_by_beta((), full_subgroup(g)) == {}


# ---------------------------------------------------------------------------
# isotropy


def test_isotropy_free_and_fixed():
    free = free_z2_bundle()
    assert isotropy(free, "q0").elements == ((0,),)
    fixed = fixed_two_point_bundle()
    assert isotropy(fixed, "p0").elements == ((0,), (1,))


def test_isotropy_quotient_action():
    b = quotient_z4_bundle()
    for p in b.points:
        assert isotropy(b, p).elements == ((0,), (2,))


def test_isotropy_unknown_point():
    with pytest.raises(ValueError):
        isotropy(free_z2_bundle(), "nope")


def test_minimal_isotropy_cases():
    assert minimal_isotropy(free_z2_bundle()).order == 1
    fixed = fixed_two_point_bundle()
    assert minimal_isotropy(fixed) == full_subgroup(fixed.group)
    quot = quotient_z4_bundle()
    assert minimal_isotropy(quot).elements == ((0,), (2,))


def test_minimal_isotropy_mixed_with_fixed_point():
    # Z_4: one orbit with stabilizer {0,2}, plus a fully fixed point
    g, points, base, action, fdim, transport = quotient_z4_data()
    one = np.eye(1, dtype=complex)
    for x in range(4):
        action[((x,), "rf")] = "rf"
        transport[((x,), "rf")] = one
    merged = sample_bundle(g, points + ["rf"], base | {"rf": "bf"}, action,
                           fdim | {"rf": 1}, transport)
    assert validate_bundle(merged).ok
    assert minimal_isotropy(merged).elements == ((0,), (2,))


def test_minimal_isotropy_incomparable_stabilizers():
    g = make_group((2, 2))
    one = np.eye(1, dtype=complex)
    points = ["a0", "a1", "c0", "c1"]
    base = {p: p for p in points}
    action = {}
    transport = {}
    for x in g.elements:
        # orbit {a0, a1}: stabilizer {(0,0),(1,0)}
        ja = (x[1]) % 2
        action[(x, "a0")] = f"a{ja}"
        action[(x, "a1")] = f"a{(ja + 1) % 2}"
        # orbit {c0, c1}: stabilizer {(0,0),(0,1)}
        jc = (x[0]) % 2
        action[(x, "c0")] = f"c{jc}"
        action[(x, "c1")] = f"c{(jc + 1) % 2}"
        for p in points:
            transport[(x, p)] = one
    b = sample_bundle(g, points, base, action, {p: 1 for p in points}, transport)
    assert validate_bundle(b).ok
    # a0, the first point with a smallest stabilizer, against c0, the first outside it
    with pytest.raises(
        ModelInconsistencyError,
        match=r"^stabilizer \(\(0, 0\), \(1, 0\)\) is not contained in \(\(0, 0\), \(0, 1\)\)$",
    ):
        minimal_isotropy(b)


def _action_table_cases():
    """Raw data and its bundle: the bundle fixtures (as `load_bundle` reads
    them), the empty bundle, and random bundles with and without a free
    orbit (the others with stabilizers containing an order-2 subgroup)."""
    data = Path(__file__).parent / "data"
    cases = {}
    for f in sorted(data.glob("bundle_*.json")):
        doc = json.loads(f.read_text())
        cases[f.stem] = raw_bundle_document(doc), load_bundle(doc)[0]
    raw = make_group((2,)), [], {}, {}, {}, {}
    cases["empty"] = raw, sample_bundle(*raw)
    for seed, orders in enumerate([(2, 2), (4, 4), (8, 8), (2, 4)]):
        group = make_group(orders)
        rng = np.random.default_rng(40 + seed)
        name = "x".join(map(str, orders))
        for kind, sub in (("free", trivial_subgroup(group)),
                          ("fixed", subgroup_from_generators(group, [(orders[0] // 2, 0)]))):
            raw = reference_random_bundle(group, rng, n_orbits=3, min_isotropy=sub)
            cases[f"{name}-{kind}"] = raw, sample_bundle(*raw)
    return cases


TABLE_CASES = _action_table_cases()


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_orbits_and_stabilizers_match_the_act_walks(name):
    (group, points, _, action, _, _), b = TABLE_CASES[name]
    assert orbits(b) == reference_orbits(group, points, action)
    assert [isotropy(b, p) for p in b.points] == [
        reference_isotropy(group, points, action, p) for p in b.points]
    assert minimal_isotropy(b) == reference_minimal_isotropy(group, points, action)
    if "-" in name:  # a random bundle, with a free orbit or without one
        assert (minimal_isotropy(b).order == 1) == name.endswith("-free")


@pytest.mark.parametrize("image", [None, "zz"], ids=["missing", "not-a-point"])
def test_an_incomplete_action_is_refused_when_the_bundle_is_built(image):
    g, points, base, action, fdim, transport = free_z2_data()
    if image is None:
        del action[((1,), "q0")]
    else:
        action[((1,), "q0")] = image
    detail = "missing" if image is None else "image 'zz' is not a point"
    with pytest.raises(InputDocumentError) as err:
        sample_bundle(g, points, base, action, fdim, transport)
    assert (err.value.path, str(err.value)) == ("/action/1/q0", f"/action/1/q0: {detail}")


def test_fiber_rep_reads_transport():
    b = fixed_two_point_bundle()
    rep = fiber_rep(b, "p0")
    assert rep.dim == 2
    assert np.allclose(rep.matrix((1,)), np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# the isotype set X


def test_build_X_trivial_group():
    b = trivial_group_bundle(n_points=3, dim=2)
    x = build_X(b)
    assert len(x) == 3
    assert all(len(orb) == 1 for orb in x)


def test_build_X_fixed_point_two_isotypes():
    b = fixed_two_point_bundle()
    x = build_X(b)
    # two fixed points, two isotypes each
    assert len(x) == 4
    per_point = {}
    for orb in x:
        per_point.setdefault(orb[0].point, []).append(orb[0].rho)
    assert len(per_point["p0"]) == 2
    assert len(per_point["p1"]) == 2


def test_build_X_free_orbit():
    b = free_z2_bundle()
    x = build_X(b)
    assert len(x) == 1
    assert {xp.point for xp in x[0]} == {"q0", "q1"}


def test_build_X_detects_isotype_drift():
    g = make_group((4,))
    points = ["r0", "r1"]
    base = {p: p for p in points}
    action = {}
    transport = {}
    for x in range(4):
        for j in range(2):
            action[((x,), f"r{j}")] = f"r{(j + x) % 2}"
    # stabilizer {0,2} acts by the sign at r0 but trivially at r1: no valid
    # cocycle does this, so validation refuses the bundle before X is built
    transport[((0,), "r0")] = np.eye(1, dtype=complex)
    transport[((0,), "r1")] = np.eye(1, dtype=complex)
    transport[((2,), "r0")] = -np.eye(1, dtype=complex)
    transport[((2,), "r1")] = np.eye(1, dtype=complex)
    for x in (1, 3):
        for j in range(2):
            transport[((x,), f"r{j}")] = np.eye(1, dtype=complex)
    b = sample_bundle(g, points, base, action, {p: 1 for p in points}, transport)
    with pytest.raises(ModelInconsistencyError):
        build_X(b)


def test_build_X_refuses_a_bundle_that_fails_validation():
    # Z3 with 1·a = b, 1·b = b, 1·c = a and 2 acting as the identity breaks
    # the composition law; {0, 2} "fixes" a but is not a subgroup
    g = make_group((3,))
    moves = {(1,): {"a": "b", "b": "b", "c": "a"}}
    points = ("a", "b", "c")
    action = {(x, p): moves.get(x, {}).get(p, p) for x in g.elements for p in points}
    transport = {(x, p): np.eye(1) for x in g.elements for p in points}
    b = sample_bundle(g, points, {p: p for p in points}, action, {p: 1 for p in points}, transport)
    for call in (build_X, prim_enumerate):
        with pytest.raises(ModelInconsistencyError, match="bundle fails validation: /action/1/b"):
            call(b)


def beta_part(x, alpha, g0):
    """The part of X that alpha_elliptic_check judges: X's part at beta = alpha|g0."""
    return partition_by_beta(x, g0).get(SubgroupCharacter(g0, alpha), ())


def test_the_beta_part_at_trivial_gamma0_keeps_everything():
    b = free_z2_bundle()
    x = build_X(b)
    g0 = minimal_isotropy(b)
    for alpha in dual_characters(b.group):
        assert beta_part(x, alpha, g0) == x


def test_the_beta_part_selects_by_sign():
    b = fixed_two_point_bundle()
    x = build_X(b)
    g0 = minimal_isotropy(b)
    sign = character(b.group, (1,))
    selected = beta_part(x, sign, g0)
    assert len(selected) == 2
    for orb in selected:
        assert orb[0].rho.representative.exponents == (1,)


def test_the_beta_part_depends_only_on_restriction():
    b = quotient_z4_bundle()
    x = build_X(b)
    g0 = minimal_isotropy(b)
    chi1 = character(b.group, (1,))
    chi3 = character(b.group, (3,))
    assert restrict_character(chi1, g0) == restrict_character(chi3, g0)
    assert beta_part(x, chi1, g0) == beta_part(x, chi3, g0)


def test_partition_by_beta_trivial_gamma0():
    b = free_z2_bundle()
    x = build_X(b)
    g0 = trivial_subgroup(b.group)
    parts = partition_by_beta(x, g0)
    assert len(parts) == 1
    assert sum(len(v) for v in parts.values()) == len(x)


def test_partition_by_beta_two_parts():
    b = fixed_two_point_bundle()
    x = build_X(b)
    g0 = full_subgroup(b.group)
    parts = partition_by_beta(x, g0)
    assert len(parts) == 2
    seen = [orb for group_part in parts.values() for orb in group_part]
    assert len(seen) == len(x)
    assert set(map(id, seen)) == set(map(id, x))


# ---------------------------------------------------------------------------
# symbol fields and blocks


def test_a_symbol_field_is_read_only():
    # its equivariance gate is read once and kept, so the values cannot change
    b = random_bundle(make_group((2, 2)), np.random.default_rng(3), n_orbits=2)
    sym = random_symbol(b, np.random.default_rng(3), shift=2.0)
    for stack in sym.stacks.stacks:
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        sym.value(b.points[0])[0, 0] = 0


def test_a_symbol_value_is_its_stack_entry():
    b = random_bundle(make_group((2, 2)), np.random.default_rng(3), n_orbits=3, max_fiber_dim=3)
    sym = random_symbol(b, np.random.default_rng(4), shift=1.0)
    for i, p in enumerate(b.points):
        assert sym.value(p).shape == (b.fiber_dim[p],) * 2
        assert np.shares_memory(sym.value(p), sym.stacks.stacks[sym.stacks.cls[i]])
        assert np.array_equal(sym.value(p), sym.stacks.take(np.array([i]))[0])


def test_a_value_off_the_points_is_refused_by_name():
    sym = symbol_field(fixed_two_point_bundle(), {p: np.eye(2) for p in ("p0", "p1")})
    with pytest.raises(ValueError, match="^'nope' is not a point of the bundle$"):
        sym.value("nope")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)], ids=str)
def test_symbol_field_refuses_a_non_finite_value_by_point(bad):
    b = random_bundle(make_group((2, 2)), np.random.default_rng(5), n_orbits=2)
    sym = random_symbol(b, np.random.default_rng(6), shift=3.0)
    values = {p: sym.value(p) for p in b.points}
    q = b.points[-1]
    values[q] = values[q].copy()
    values[q][0, 0] = bad
    with pytest.raises(ValueError, match=f"^symbol at {q!r} has a non-finite entry$"):
        symbol_field(b, values)


def test_symbol_field_shape_checks():
    b = fixed_two_point_bundle()
    with pytest.raises(ValueError):
        symbol_field(b, {"p0": np.eye(2)})
    with pytest.raises(ValueError):
        symbol_field(b, {"p0": np.eye(3), "p1": np.eye(2)})


def test_propagate_symbol_equivariant():
    b = quotient_z4_bundle()
    sym = propagate_symbol(b, {"r0": np.array([[2.0]])})
    assert reference_symbol_defect(sym)[0] < 1e-12
    assert np.allclose(sym.value("r1"), [[2.0]])


def test_propagate_symbol_rejects_non_invariant_seed():
    b = fixed_two_point_bundle()
    seed = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        propagate_symbol(b, {"p0": seed, "p1": np.eye(2)})


def test_gamma_symbol_eval_identity_and_projector():
    b = fixed_two_point_bundle()
    x = build_X(b)
    sym = symbol_field(b, {p: np.eye(2) for p in b.points})
    for orb in x:
        block = gamma_symbol_eval(sym, orb)
        assert block.shape == (1, 1, 1)
        assert np.allclose(block, np.eye(1), atol=1e-12)
    # a projector onto the other isotype compresses to zero
    p_sign = np.diag([0.0, 1.0]).astype(complex)
    sym2 = symbol_field(b, {p: p_sign for p in b.points})
    triv_orbits = [orb for orb in x if orb[0].rho.representative.exponents == (0,)]
    for orb in triv_orbits:
        assert np.allclose(gamma_symbol_eval(sym2, orb), 0.0, atol=1e-12)


def test_gamma_symbol_eval_diag_two_three():
    b = fixed_two_point_bundle()
    sym = symbol_field(b, {p: np.diag([2.0, 3.0]) for p in b.points})
    h = full_subgroup(b.group)
    rho_triv, rho_sign = characters_of_subgroup(b.group, h)
    assert gamma_symbol_eval(sym, (XPoint("p0", rho_triv),))[0, 0, 0] == pytest.approx(2.0)
    assert gamma_symbol_eval(sym, (XPoint("p0", rho_sign),))[0, 0, 0] == pytest.approx(3.0)


def test_gamma_symbol_eval_absent_isotype():
    g = make_group((2,))
    one = np.eye(1, dtype=complex)
    b = sample_bundle(
        g,
        ["p"],
        {"p": "b"},
        {((0,), "p"): "p", ((1,), "p"): "p"},
        {"p": 1},
        {((0,), "p"): one, ((1,), "p"): one},
    )
    sym = symbol_field(b, {"p": np.eye(1)})
    rho_sign = characters_of_subgroup(g, full_subgroup(g))[1]
    with pytest.raises(ValueError):
        gamma_symbol_eval(sym, (XPoint("p", rho_sign),))


def test_gamma_symbol_eval_foreign_subgroup():
    b = fixed_two_point_bundle()
    sym = symbol_field(b, {p: np.eye(2) for p in b.points})
    wrong = characters_of_subgroup(b.group, trivial_subgroup(b.group))[0]
    with pytest.raises(ValueError):
        gamma_symbol_eval(sym, (XPoint("p0", wrong),))


# ---------------------------------------------------------------------------
# ellipticity verdicts


def test_every_alpha_reads_the_kept_fibers_bases_and_gate(monkeypatch):
    """X, the isotype bases and the equivariance gate do not depend on alpha:
    checking every alpha builds one fiber representation and one
    decomposition per point orbit, at its least point, and one basis per
    X-orbit, and makes one pass over the symbol's defects (one `_norms_over`
    per transport stack); gamma0 and X's partition by beta are found once;
    and each alpha's report is the same when it is checked again."""
    import equifred.bundles as bundles

    b = random_bundle(make_group((4, 2)), np.random.default_rng(8), n_orbits=3)
    sym = random_symbol(b, np.random.default_rng(9), kill_isotype=True)
    calls = []

    def spy(name):
        original = getattr(bundles, name)
        monkeypatch.setattr(
            bundles, name, lambda *args: calls.append((name, args[-1])) or original(*args)
        )

    for name in ("fiber_rep", "_isotypes", "deterministic_range_basis", "_norms_over",
                 "minimal_isotropy", "partition_by_beta"):
        spy(name)
    reports = [alpha_elliptic_check(sym, a) for a in dual_characters(b.group)]
    assert [alpha_elliptic_check(sym, a) for a in dual_characters(b.group)] == reports
    assert {r.verdict for r in reports} == {True, False}
    heads = [o[0] for o in orbits(b)]
    assert [p for name, p in calls if name == "fiber_rep"] == heads and len(heads) < len(b.points)
    decomposed = [rep.dim for name, rep in calls if name == "_isotypes"]
    assert decomposed == [b.fiber_dim[p] for p in heads]
    bases = len(bundles.build_X(b))
    assert [name for name, _ in calls].count("deterministic_range_basis") == bases
    assert [name for name, _ in calls].count("_norms_over") == len(b.transports.stacks)
    assert [name for name, _ in calls].count("minimal_isotropy") == 1
    assert [name for name, _ in calls].count("partition_by_beta") == 1


def test_identity_symbol_elliptic_for_every_alpha():
    b = fixed_two_point_bundle()
    sym = symbol_field(b, {p: np.eye(2) for p in b.points})
    for alpha in dual_characters(b.group):
        report = alpha_elliptic_check(sym, alpha)
        assert report.verdict
        assert not report.warnings


def test_partially_degenerate_symbol_splits_verdicts():
    b = fixed_two_point_bundle()
    sym = symbol_field(b, {"p0": np.diag([0.0, 1.0]), "p1": np.eye(2)})
    sign = character(b.group, (1,))
    triv = character(b.group, (0,))
    assert alpha_elliptic_check(sym, sign).verdict
    report = alpha_elliptic_check(sym, triv)
    assert not report.verdict
    failing = [e for e in report.entries if e.smallest_singular_value < 1e-8]
    assert [e.point for e in failing] == ["p0"]


def test_zero_block_forces_failure():
    b = free_z2_bundle()
    sym = symbol_field(b, {p: np.zeros((1, 1)) for p in b.points})
    for alpha in dual_characters(b.group):
        assert not alpha_elliptic_check(sym, alpha).verdict


def test_vacuous_alpha_warns():
    g = make_group((2,))
    one = np.eye(1, dtype=complex)
    b = sample_bundle(
        g,
        ["p"],
        {"p": "b"},
        {((0,), "p"): "p", ((1,), "p"): "p"},
        {"p": 1},
        {((0,), "p"): one, ((1,), "p"): one},
    )
    sym = symbol_field(b, {"p": np.eye(1)})
    report = alpha_elliptic_check(sym, character(g, (1,)))
    assert report.verdict
    assert any("vacuous" in w for w in report.warnings)
    assert report.entries == ()


def test_non_equivariant_symbol_rejected():
    b = free_z2_bundle()
    sym = symbol_field(b, {"q0": np.array([[1.0]]), "q1": np.array([[2.0]])})
    with pytest.raises(ValueError):
        alpha_elliptic_check(sym, character(b.group, (0,)))


def test_orbit_invariance_of_singular_values():
    rng = np.random.default_rng(42)
    for orders in ((2,), (4,), (2, 2)):
        g = make_group(orders)
        b = random_bundle(g, rng, n_orbits=2)
        sym = random_symbol(b, rng, shift=0.7)
        for alpha in dual_characters(g):
            report = alpha_elliptic_check(sym, alpha)
            per_orbit = {}
            for e in report.entries:
                per_orbit.setdefault((e.orbit_representative, e.rho), []).append(
                    e.smallest_singular_value
                )
            for values in per_orbit.values():
                assert max(values) - min(values) <= 1e-9 * max(1.0, max(values))


def test_report_ignores_other_isotype_blocks_bitwise():
    b = fixed_two_point_bundle()
    triv = character(b.group, (0,))
    base = symbol_field(b, {p: np.diag([2.0, 3.0]) for p in b.points})
    bumped = symbol_field(b, {p: np.diag([2.0, 3.5]) for p in b.points})
    r1 = alpha_elliptic_check(base, triv)
    r2 = alpha_elliptic_check(bumped, triv)
    assert r1.verdict == r2.verdict
    assert r1.warnings == r2.warnings
    assert r1.entries == r2.entries  # float-for-float identical


# ---------------------------------------------------------------------------
# primitive-ideal style enumeration


def test_prim_trivial_group_one_per_point():
    b = trivial_group_bundle(n_points=4, dim=3)
    records = prim_enumerate(b)
    assert len(records) == 4
    assert all(len(r.isotypes) == 1 for r in records)


def test_prim_fixed_point_two_classes():
    b = fixed_two_point_bundle()
    records = prim_enumerate(b)
    assert len(records) == 2
    for r in records:
        assert len(r.isotypes) == 2
        n_factors = len(commutant_factors(fiber_rep(b, r.representative)))
        assert len(r.isotypes) == n_factors


def test_prim_free_orbit_single_class():
    b = free_z2_bundle()
    records = prim_enumerate(b)
    assert len(records) == 1
    assert records[0].orbit == ("q0", "q1")
    assert len(records[0].isotypes) == 1


def test_prim_counts_match_X_orbits():
    rng = np.random.default_rng(9)
    g = make_group((2, 2))
    b = random_bundle(g, rng, n_orbits=3)
    records = prim_enumerate(b)
    assert sum(len(r.isotypes) for r in records) == len(build_X(b))


# ---------------------------------------------------------------------------
# random generators


def test_random_bundle_is_valid_and_honors_isotropy():
    rng = np.random.default_rng(101)
    g = make_group((4,))
    target = subgroup_from_generators(g, [(2,)])
    b = random_bundle(g, rng, min_isotropy=target, n_orbits=2)
    assert validate_bundle(b).ok
    assert minimal_isotropy(b) == target


def test_random_bundle_free_orbit():
    rng = np.random.default_rng(55)
    group = make_group((2, 2))
    b = random_bundle(group, rng, min_isotropy=trivial_subgroup(group))
    assert minimal_isotropy(b).order == 1


def test_random_symbol_equivariant_and_killable():
    rng = np.random.default_rng(77)
    g = make_group((2,))
    b = random_bundle(g, rng, n_orbits=2, min_isotropy=full_subgroup(g))
    sym = random_symbol(b, rng, shift=1.5)
    assert reference_symbol_defect(sym)[0] < 1e-10
    assert pointwise_invertible(sym)
    dead = random_symbol(b, rng, shift=1.5, kill_isotype=True)
    assert not pointwise_invertible(dead)


def test_decompose_of_fiber_reps_consistent_along_orbit():
    rng = np.random.default_rng(123)
    b = random_bundle(make_group((2, 4)), rng, n_orbits=2)
    for orb in orbits(b):
        tables = [decompose(fiber_rep(b, p)).entries for p in orb]
        assert all(t == tables[0] for t in tables)


MARGIN_BUNDLE = random_bundle(make_group((2, 2)), np.random.default_rng(5), n_orbits=2)
MARGIN_SYMBOL = random_symbol(MARGIN_BUNDLE, np.random.default_rng(6), shift=3.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
@pytest.mark.parametrize("check", [
    lambda tol: alpha_elliptic_check(
        MARGIN_SYMBOL, dual_characters(MARGIN_BUNDLE.group)[0], tol=tol),
    lambda tol: pointwise_invertible(MARGIN_SYMBOL, tol=tol),
], ids=["alpha_elliptic_check", "pointwise_invertible"])
def test_a_margin_that_is_not_finite_and_positive_is_refused(check, tol):
    check(1e-8)  # the symbol is fine at the default margin
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        check(tol)
