"""The batched bundle validator and symbol check against their loop references.

`validate_bundle` and the symbol-equivariance gate run on stacked arrays and
take SVD norms only where a Frobenius norm does not settle a threshold.  They
must agree exactly with the pair-by-pair loops in `helpers`: the same
violations, in the same order, with the same printed defects.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from equifred import reps
from equifred import (
    load_bundle,
    make_group,
    random_bundle,
    random_symbol,
    sample_bundle,
    subgroup_from_generators,
    trivial_subgroup,
    validate_bundle,
)
from equifred.bundles import _worst_symbol_defect
from helpers import reference_symbol_defect, reference_validate_bundle

DATA = Path(__file__).parent / "data"
FIXTURES = sorted(DATA.glob("bundle_*.json"))


def _same_as_reference(b):
    got = validate_bundle(b).violations
    assert got == reference_validate_bundle(b).violations
    return got


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixtures_match_the_loop_reference(path):
    bundle, symbol = load_bundle(json.loads(path.read_text()))
    _same_as_reference(bundle)
    assert _worst_symbol_defect(symbol) == reference_symbol_defect(symbol)


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
    rng = np.random.default_rng(sum(orders))
    sub = subgroup_from_generators(group, stabilizer_gens) if stabilizer_gens else None
    b = random_bundle(group, rng, n_orbits=3, max_fiber_dim=3, min_isotropy=sub)
    assert len(set(b.fiber_dim.values())) > 1  # mixed fiber dimensions
    assert _same_as_reference(b) == ()
    sym = random_symbol(b, rng)
    worst = reference_symbol_defect(sym)
    assert _worst_symbol_defect(sym) == worst


def _corrupt(b, what):
    """A copy of b with one axiom broken; b is a Z2 x Z4 bundle with a free orbit."""
    action, transport, base = dict(b.action), dict(b.transport), dict(b.base)
    g = (1, 1)
    p, q = "o0p0", "o0p1"
    if what == "cocycle phase":
        transport[(g, p)] = transport[(g, p)] * np.exp(0.7j)
    elif what == "action swap":
        action[(g, p)], action[(g, q)] = action[(g, q)], action[(g, p)]
    elif what == "scaled transport":
        transport[(g, p)] = transport[(g, p)] * (1 + 1e-9)
    elif what == "perturbed identity":
        e = b.group.identity
        transport[(e, p)] = transport[(e, p)] * np.exp(1e-7j)
    elif what == "inconsistent base label":
        base[q] = base[p]
    elif what == "missing action entry":
        del action[(g, p)]
    elif what == "wrong-shape transport":
        m = transport[(g, p)]
        transport[(g, p)] = np.vstack([m, np.zeros((1, m.shape[1]))])
    return sample_bundle(b.group, b.points, base, action, b.fiber_dim, transport)


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
    b = random_bundle(group, np.random.default_rng(24), n_orbits=3,
                      min_isotropy=trivial_subgroup(group))
    assert validate_bundle(b).ok
    assert _same_as_reference(_corrupt(b, what)) != ()


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
    b = random_bundle(group, np.random.default_rng(4), n_orbits=2,
                      min_isotropy=trivial_subgroup(group))
    transport = dict(b.transport)
    key = ((1, 1), b.points[0])
    transport[key] = transport[key] * np.exp(1j * size)
    b = sample_bundle(group, b.points, b.base, b.action, b.fiber_dim, transport)
    sizes = _law_spy(monkeypatch)
    assert validate_bundle(b).ok is ok
    _same_as_reference(b)
    assert sum(sizes) > group.order**2 * len(b.points)  # the all-pairs pass ran


@pytest.mark.parametrize("delta, ok", [(0.8e-10, True), (1.2e-10, False)])
def test_frobenius_above_tol_alone_does_not_reject(delta, ok):
    # T(0) = e^{i delta} I on a 2-dim fiber: |T(0) - I|_2 = delta but
    # |T(0) - I|_F = sqrt(2) delta, above the 1e-10 tolerance in both cases
    group = make_group((2,))
    t0 = np.exp(1j * delta) * np.eye(2)
    b = sample_bundle(
        group, ["p"], {"p": "p"}, {((0,), "p"): "p", ((1,), "p"): "p"}, {"p": 2},
        {((0,), "p"): t0, ((1,), "p"): np.diag([1.0, -1.0])},
    )
    assert np.linalg.norm(t0 - np.eye(2)) > 1e-10
    assert validate_bundle(b).ok is ok
    _same_as_reference(b)


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
    b = sample_bundle(group, dims, {p: p for p in dims}, action, dims, transport)
    with pytest.raises(ValueError, match="broadcast"):
        reference_validate_bundle(b)
    shapes = [v for v in validate_bundle(b).violations if "shapes" in v.detail]
    assert shapes[0].location == "/transport/1/b"
    assert shapes[0].detail == "cocycle shapes (2, 1) and (3, 1) differ against 2 at a"
    assert all(v.kind == "transport" for v in shapes)


def test_identity_moving_a_point_to_a_larger_fiber_matches_the_loop_reference():
    # T(0, a) is 2 x 1, so it cannot be the identity
    b = sample_bundle(
        make_group((1,)), ["a", "c"], {"a": "a", "c": "c"},
        {((0,), "a"): "c", ((0,), "c"): "c"}, {"a": 1, "c": 2},
        {((0,), "a"): np.eye(2, 1), ((0,), "c"): np.eye(2)},
    )
    assert [v.location for v in _same_as_reference(b)] == ["/action/0/a", "/transport/0/a"]


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
