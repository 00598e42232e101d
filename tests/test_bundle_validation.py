"""The batched bundle validator and symbol check against their loop references.

`validate_bundle` and the symbol-equivariance gate run on stacked arrays and
take SVD norms only where a Frobenius norm does not settle a threshold.  They
must agree exactly with the pair-by-pair loops in `helpers`, run on the raw
dicts: `sample_bundle` refuses the first violation that leaves the tables
unfilled, and `validate_bundle` returns the others, in the same order, with
the same printed defects.  The tables `load_bundle` and `random_bundle`
write must be those `sample_bundle` builds from the plain dicts.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from equifred import reps
from equifred import (
    InputDocumentError,
    load_bundle,
    make_group,
    random_bundle,
    random_symbol,
    sample_bundle,
    subgroup_from_generators,
    symbol_field,
    trivial_subgroup,
    validate_bundle,
)
from helpers import (
    is_structural,
    raw_bundle_document,
    reference_random_bundle,
    reference_symbol_defect,
    reference_validate_bundle,
)

DATA = Path(__file__).parent / "data"
FIXTURES = sorted(DATA.glob("bundle_*.json"))


def _same_as_reference(*raw):
    """The reference's violations on the raw data: the first one that
    leaves the tables unfilled, which `sample_bundle` must raise, or else
    all of them, which `validate_bundle` must return."""
    want = reference_validate_bundle(*raw).violations
    structural = [v for v in want if is_structural(v)]
    if structural:
        first = structural[0]
        with pytest.raises(InputDocumentError) as err:
            sample_bundle(*raw)
        assert err.value.path == first.location
        assert str(err.value) == f"{first.location}: {first.detail}"
        return (first,)
    got = validate_bundle(sample_bundle(*raw)).violations
    assert got == want
    return got


def perturbed(sym, rng):
    """sym with the value at one point moved by about 1e-3: not equivariant."""
    b = sym.bundle
    values = {p: sym.value(p) for p in b.points}
    q = b.points[int(rng.integers(len(b.points)))]
    d = b.fiber_dim[q]
    values[q] = values[q] + 1e-3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return symbol_field(b, values)


def assert_gate_refuses_as_reference(sym):
    """The equivariance gate refuses sym at the pointer and with the printed
    defect of the loop reference, on every read (a failure is not kept)."""
    worst, where = reference_symbol_defect(sym)
    for _ in range(2):
        with pytest.raises(InputDocumentError) as err:
            sym._equivariant
        assert err.value.path == f"/symbol/{where}"
        assert str(err.value) == f"/symbol/{where}: symbol is not equivariant (defect {worst:.3e})"


def assert_same_tables(a, b):
    """Equal bundles, bit for bit: labels, dimensions, action table and
    every transport stack with the indices it holds."""
    assert (a.group, a.points, dict(a.base), dict(a.fiber_dim)) == (
        b.group, b.points, dict(b.base), dict(b.fiber_dim))
    assert a.table.dtype == b.table.dtype == np.intp and np.array_equal(a.table, b.table)
    assert len(a.transports.stacks) == len(b.transports.stacks)
    for ma, sa, mb, sb in zip(a.transports.members, a.transports.stacks,
                              b.transports.members, b.transports.stacks):
        assert np.array_equal(ma, mb)
        assert sa.dtype == sb.dtype == complex and sa.tobytes() == sb.tobytes()


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixtures_match_the_loop_reference(path):
    doc = json.loads(path.read_text())
    bundle, symbol = load_bundle(doc)
    assert validate_bundle(bundle).violations == _same_as_reference(*raw_bundle_document(doc))
    if validate_bundle(bundle).ok:  # bundle_bad_transport's symbol is not equivariant
        assert symbol._equivariant
        symbol = perturbed(symbol, np.random.default_rng(len(bundle.points)))
    assert_gate_refuses_as_reference(symbol)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_load_bundle_writes_the_tables_sample_bundle_builds(path):
    # bundle_two_fiber folds two transport families into one
    doc = json.loads(path.read_text())
    assert_same_tables(load_bundle(doc)[0], sample_bundle(*raw_bundle_document(doc)))


@pytest.mark.parametrize("orders, seed, kwargs", [
    ((2, 2), 3, {"n_orbits": 2}),
    ((2, 2), 5, {"n_orbits": 2}),
    ((4, 4), 9, {"n_orbits": 3}),
    ((2, 4), 123, {"n_orbits": 2}),
    ((4,), 101, {"n_orbits": 2, "min_isotropy": ((2,),)}),
    ((2, 2), 55, {"min_isotropy": ()}),
    ((2, 4), 24, {"n_orbits": 3, "min_isotropy": ()}),
    ((8, 8), 42, {"n_orbits": 3, "min_isotropy": ((4, 0),)}),
    ((2, 2, 2), 7, {"n_orbits": 3, "min_isotropy": ((1, 0, 0), (0, 1, 0))}),
    ((6,), 11, {}),
    ((3, 6), 9, {"n_orbits": 3, "max_fiber_dim": 4}),
], ids=str)
def test_random_bundle_is_the_old_dict_loop_bit_for_bit(orders, seed, kwargs):
    group = make_group(orders)
    if "min_isotropy" in kwargs:
        kwargs = kwargs | {"min_isotropy": subgroup_from_generators(group, kwargs["min_isotropy"])}
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_tables(random_bundle(group, rng, **kwargs),
                       sample_bundle(*reference_random_bundle(group, ref_rng, **kwargs)))
    assert rng.random() == ref_rng.random()  # the same draws, in the same order


@pytest.mark.parametrize(
    "orders, stabilizer_gens",
    [
        ((2, 2), None),
        ((2, 4), None),
        ((4, 4), None),
        ((3, 6), None),
        ((8, 8), [(2, 0), (0, 1)]),  # order-32 isotropy keeps the reference loop short
    ],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_random_bundles_match_the_loop_reference(orders, stabilizer_gens):
    group = make_group(orders)
    sub = subgroup_from_generators(group, stabilizer_gens) if stabilizer_gens else None
    kwargs = {"n_orbits": 3, "max_fiber_dim": 3, "min_isotropy": sub}
    rng = np.random.default_rng(sum(orders))
    b = random_bundle(group, rng, **kwargs)
    raw = reference_random_bundle(group, np.random.default_rng(sum(orders)), **kwargs)
    assert len(set(b.fiber_dim.values())) > 1  # mixed fiber dimensions
    assert _same_as_reference(*raw) == ()
    sym = random_symbol(b, rng)
    assert sym._equivariant
    assert_gate_refuses_as_reference(perturbed(sym, rng))


def _corrupt(raw, what):
    """A copy of raw with one axiom broken; raw is a Z2 x Z4 bundle with a free orbit."""
    group, points, base, action, fiber_dim, transport = raw
    action, transport, base = dict(action), dict(transport), dict(base)
    g = (1, 1)
    p, q = "o0p0", "o0p1"
    if what == "cocycle phase":
        transport[(g, p)] = transport[(g, p)] * np.exp(0.7j)
    elif what == "action swap":
        action[(g, p)], action[(g, q)] = action[(g, q)], action[(g, p)]
    elif what == "scaled transport":
        transport[(g, p)] = transport[(g, p)] * (1 + 1e-9)
    elif what == "perturbed identity":
        e = group.identity
        transport[(e, p)] = transport[(e, p)] * np.exp(1e-7j)
    elif what == "inconsistent base label":
        base[q] = base[p]
    elif what == "missing action entry":
        del action[(g, p)]
    elif what == "wrong-shape transport":
        m = transport[(g, p)]
        transport[(g, p)] = np.vstack([m, np.zeros((1, m.shape[1]))])
    return group, points, base, action, fiber_dim, transport


@pytest.mark.parametrize(
    "what",
    [
        "cocycle phase",
        "action swap",
        "scaled transport",
        "perturbed identity",
        "inconsistent base label",
        "missing action entry",
        "wrong-shape transport",
    ],
)
def test_corruptions_match_the_loop_reference(what):
    group = make_group((2, 4))
    raw = reference_random_bundle(group, np.random.default_rng(24), n_orbits=3,
                                  min_isotropy=trivial_subgroup(group))
    assert validate_bundle(sample_bundle(*raw)).ok
    assert _same_as_reference(*_corrupt(raw, what)) != ()


def _law_spy(monkeypatch):
    """The stack length of every threshold decision that `reps` takes."""
    sizes = []
    original = reps._norms_over

    def spy(stack, tol):
        sizes.append(len(stack))
        return original(stack, tol)

    monkeypatch.setattr(reps, "_norms_over", spy)
    return sizes


def test_valid_bundle_is_accepted_along_the_edges(monkeypatch):
    group = make_group((4, 4))
    b = random_bundle(group, np.random.default_rng(9), n_orbits=3,
                      min_isotropy=trivial_subgroup(group))
    sizes = _law_spy(monkeypatch)
    assert validate_bundle(b).ok
    # unitarity per (g, p); T(0, p) = I at tol and again at the edge cut;
    # then one cocycle product per (g, e_i, p): O(|G| rank points)
    # matrices, and no pass over all |G|^2 points pairs
    n_pts = len(b.points)
    assert sum(sizes) == n_pts * (2 + group.order * (1 + group.rank)) < group.order**2 * n_pts


@pytest.mark.parametrize("size, ok", [(2e-11, True), (2e-10, False)])
def test_an_edge_defect_over_the_cut_falls_back_to_every_pair(monkeypatch, size, ok):
    """One transport of the free orbit turned by the phase e^{i size}: over
    the edge cut tol / (2 (1 + 2L) c^(L+1)), about 5.6e-12 on Z4 x Z2, and
    at every pair under tol (or, for the larger size, over it).  The
    fallback accepts what the loop reference accepts, and refuses what it
    refuses."""
    group = make_group((4, 2))
    group, points, base, action, fiber_dim, transport = reference_random_bundle(
        group, np.random.default_rng(4), n_orbits=2, min_isotropy=trivial_subgroup(group))
    key = ((1, 1), min(points))
    transport[key] = transport[key] * np.exp(1j * size)
    raw = group, points, base, action, fiber_dim, transport
    b = sample_bundle(*raw)
    sizes = _law_spy(monkeypatch)
    assert validate_bundle(b).ok is ok
    assert sum(sizes) > group.order**2 * len(b.points)  # the all-pairs pass ran
    _same_as_reference(*raw)


@pytest.mark.parametrize("delta, ok", [(0.8e-10, True), (1.2e-10, False)])
def test_frobenius_above_tol_alone_does_not_reject(delta, ok):
    # T(0) = e^{i delta} I on a 2-dim fiber: |T(0) - I|_2 = delta but
    # |T(0) - I|_F = sqrt(2) delta, above the 1e-10 tolerance in both cases
    group = make_group((2,))
    t0 = np.exp(1j * delta) * np.eye(2)
    raw = (group, ["p"], {"p": "p"}, {((0,), "p"): "p", ((1,), "p"): "p"}, {"p": 2},
           {((0,), "p"): t0, ((1,), "p"): np.diag([1.0, -1.0])})
    assert np.linalg.norm(t0 - np.eye(2)) > 1e-10
    assert validate_bundle(sample_bundle(*raw)).ok is ok
    _same_as_reference(*raw)


def test_a_nan_transport_is_a_located_violation():
    # the non-finite defect is reported at its Frobenius norm, with no SVD
    group = make_group((2,))
    b = sample_bundle(group, ["p"], {"p": "p"}, {((0,), "p"): "p", ((1,), "p"): "p"}, {"p": 1},
                      {((0,), "p"): [[1.0]], ((1,), "p"): [[np.nan]]})
    first = validate_bundle(b).violations[0]
    assert (first.location, first.detail) == ("/transport/1/p", "not unitary (nan)")


def test_composition_failure_across_fiber_dimensions_is_a_located_violation():
    # Z3 moves a -> b -> c under 1 but a -> e under 2, so 1·(1·a) = c and
    # 2·a = e have fibers of dimension 2 and 3; the loop reference cannot
    # even subtract the two sides of the cocycle law there
    group = make_group((3,))
    dims = {"a": 1, "b": 1, "c": 2, "e": 3}
    moves = {1: {"a": "b", "b": "c"}, 2: {"a": "e"}}
    action, transport = {}, {}
    for x in range(3):
        for p, d in dims.items():
            q = moves.get(x, {}).get(p, p)
            action[((x,), p)] = q
            transport[((x,), p)] = np.eye(dims[q], d)
    raw = group, dims, {p: p for p in dims}, action, dims, transport
    with pytest.raises(ValueError, match="broadcast"):
        reference_validate_bundle(*raw)
    b = sample_bundle(*raw)
    shapes = [v for v in validate_bundle(b).violations if "shapes" in v.detail]
    assert shapes[0].location == "/transport/1/b"
    assert shapes[0].detail == "cocycle shapes (2, 1) and (3, 1) differ against 2 at a"
    assert all(v.kind == "transport" for v in shapes)


def test_identity_moving_a_point_to_a_larger_fiber_matches_the_loop_reference():
    # T(0, a) is 2 x 1, so it cannot be the identity
    raw = (make_group((1,)), ["a", "c"], {"a": "a", "c": "c"},
           {((0,), "a"): "c", ((0,), "c"): "c"}, {"a": 1, "c": 2},
           {((0,), "a"): np.eye(2, 1), ((0,), "c"): np.eye(2)})
    assert [v.location for v in _same_as_reference(*raw)] == ["/action/0/a", "/transport/0/a"]


def test_default_tolerance_validation_is_kept_per_bundle(monkeypatch):
    import equifred.bundles as bundles

    calls = []
    real = bundles._check_bundle
    monkeypatch.setattr(bundles, "_check_bundle", lambda b: calls.append(b) or real(b))
    b = random_bundle(make_group((2, 2)), np.random.default_rng(3), n_orbits=2)
    first = validate_bundle(b)
    assert validate_bundle(b) is first
    bundles.require_valid(b)
    assert calls == [b]
    with pytest.raises(TypeError):  # the tolerance is fixed, not a keyword
        validate_bundle(b, tol=1e-6)
    assert calls == [b]
