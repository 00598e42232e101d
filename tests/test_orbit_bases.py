"""X is built one point orbit at a time.

`build_X` decomposes the fiber at each orbit's least point and carries its
isotype bases to the other points by the transports.  The per-point
agreement check it replaced stays here as the oracle: every point's own
decomposition equals its orbit's, and every carried basis is orthonormal
and lies in its isotype at its own point.  A wrong carried transport is
caught by the spread certificate of `alpha_elliptic_check` (exit 3).
"""
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import equifred.bundles as bundles
import equifred.reps as reps
from equifred import (
    InternalInconsistencyError,
    alpha_elliptic_check,
    build_X,
    decompose,
    dual_characters,
    fiber_rep,
    isotypical_projector,
    make_group,
    orbits,
    prim_enumerate,
    random_bundle,
    random_symbol,
    trivial_subgroup,
)
from equifred.cli import main
from equifred.serialize import load_bundle

from test_batched_verdict import GROUPS

DATA = Path(__file__).parent / "data"
FIXTURES = sorted(DATA.glob("bundle_*.json"))


def assert_carried_bases_are_the_per_point_ones(b):
    """The deleted agreement check, and the bases it no longer builds."""
    x = build_X(b)
    kept = {orb: (at, bases) for orb, at, bases in b._x.values()}
    assert tuple(kept) == x
    for orb in orbits(b):
        head = decompose(fiber_rep(b, orb[0])).entries
        assert [xo[0].rho for xo in x if xo[0].point == orb[0]] == [rho for rho, _ in head]
        for p in orb:
            rep = fiber_rep(b, p)
            assert decompose(rep).entries == head
            for rho, k in head:
                at, bases = kept[tuple(bundles.XPoint(q, rho) for q in orb)]
                basis = bases[list(orb).index(p)]
                assert basis.shape == (b.fiber_dim[p], k)
                assert np.abs(basis.conj().T @ basis - np.eye(k)).max() <= 1e-12
                assert np.abs(isotypical_projector(rep, rho) @ basis - basis).max() <= 1e-12


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_the_fixtures_carry_their_bases(path):
    b, _ = load_bundle(json.loads(path.read_text()))
    if not bundles.validate_bundle(b).ok:  # bundle_bad_transport: refused first
        with pytest.raises(bundles.ModelInconsistencyError):
            build_X(b)
        return
    assert_carried_bases_are_the_per_point_ones(b)


@pytest.mark.parametrize("orders", GROUPS, ids=str)
def test_random_bundles_carry_their_bases(orders):
    rng = np.random.default_rng(11 * sum(orders) + len(orders))
    dims, sizes = set(), set()
    for _ in range(3):
        b = random_bundle(make_group(orders), rng, n_orbits=3, max_fiber_dim=3)
        dims |= set(b.fiber_dim.values())
        sizes |= {len(o) for o in orbits(b)}
        assert_carried_bases_are_the_per_point_ones(b)
    assert len(dims) > 1 and max(sizes) > 1  # mixed fibers and orbits of several points


def test_a_repeated_check_hashes_no_xpoint(monkeypatch):
    b = random_bundle(make_group((4, 2)), np.random.default_rng(3), n_orbits=3, max_fiber_dim=3)
    sym = random_symbol(b, np.random.default_rng(4), shift=1.0)
    alphas = dual_characters(b.group)
    first = [alpha_elliptic_check(sym, a) for a in alphas]
    hashed = []
    xpoint_hash = bundles.XPoint.__hash__
    monkeypatch.setattr(bundles.XPoint, "__hash__",
                        lambda self: hashed.append(self) or xpoint_hash(self))
    assert [alpha_elliptic_check(sym, a) for a in alphas] == first
    assert max(map(len, build_X(b))) > 1 and not hashed
    with pytest.raises(ValueError, match="^not an orbit of X"):
        bundles.gamma_symbol_eval(sym, build_X(b)[0][:1] + build_X(b)[-1][:1])


def test_the_check_path_cuts_each_isotype_once_per_orbit_head(monkeypatch):
    """X's bases, `prim`, every alpha's check and a killed isotype read the
    projectors of one DFT per orbit head (`reps._dual_projectors`, through
    `_isotypes`): no chosen character's projector (`reps._projectors`) is
    formed on the check path."""

    def refuse(*args):
        raise AssertionError("a chosen character's projector was formed")

    dfts = []
    dual_projectors = reps._dual_projectors
    monkeypatch.setattr(reps, "_projectors", refuse)
    monkeypatch.setattr(reps, "_dual_projectors",
                        lambda rep: dfts.append(rep) or dual_projectors(rep))
    valid = [b for b, _ in (load_bundle(json.loads(p.read_text())) for p in FIXTURES)
             if bundles.validate_bundle(b).ok]
    assert len(valid) == 3
    drawn = random_bundle(make_group((4, 2)), np.random.default_rng(8), n_orbits=3)
    for b in valid + [drawn]:
        heads = [fiber_rep(b, o[0]) for o in orbits(b)]
        sym = random_symbol(b, np.random.default_rng(9), kill_isotype=True)
        build_X(b)
        records = prim_enumerate(b)
        reports = [alpha_elliptic_check(sym, a) for a in dual_characters(b.group)]
        # the first orbit's seed for the killed isotype, then X once per head
        assert len(dfts) == 1 + len(heads) == 1 + len(records)
        for rep, head in zip(dfts, heads[:1] + heads):
            assert rep.carrier == head.carrier and np.array_equal(rep.stack, head.stack)
        assert not all(r.verdict for r in reports)  # the killed isotype is seen
        dfts.clear()


def _carry_twice(monkeypatch):
    """Hand out twice every carried transport: the representative keeps its
    own basis, every other point of an orbit gets a wrong one."""
    carried = bundles._carried
    monkeypatch.setattr(bundles, "_carried", lambda b, i: (
        lambda at, t: (at, 2 * t))(*carried(b, i)))


def test_a_wrong_carried_transport_is_an_internal_inconsistency(monkeypatch):
    group = make_group((4,))
    b = random_bundle(group, np.random.default_rng(2), n_orbits=2,
                      min_isotropy=trivial_subgroup(group))
    sym = random_symbol(b, np.random.default_rng(3), shift=1.0)
    alpha = dual_characters(group)[0]
    assert "_x" not in b.__dict__  # X is built below, through the wrong transports
    _carry_twice(monkeypatch)
    with pytest.raises(InternalInconsistencyError,
                       match=r"^orbit of 'o0p0': singular values spread by .*, over the .* "
                             r"the equivariance gate allows$"):
        alpha_elliptic_check(sym, alpha)


def _check_free_orbit():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["check", "--input", str(DATA / "bundle_free_orbit.json"), "--alpha", "0"])
    return rc, out.getvalue(), err.getvalue()


def test_check_exits_3_on_a_wrong_carried_transport(monkeypatch):
    rc, out, err = _check_free_orbit()
    assert rc == 0 and out and not err
    _carry_twice(monkeypatch)
    rc, out, err = _check_free_orbit()
    assert rc == 3 and not out and "Traceback" not in err
    assert err.startswith("internal: orbit of 'q0': singular values spread by 1.500e+00, over the ")


def test_a_spread_inside_the_gate_is_a_warning():
    # 5e-9 relative is inside the 1e-8 equivariance gate and the 2.06e-8 exit-3
    # reach, and over the 1e-9 at which a spread is reported
    doc = json.loads((DATA / "bundle_free_orbit.json").read_text())
    doc["symbol"]["q1"] = [[[0.5 * (1 + 5e-9), 0.0]]]
    _, sym = load_bundle(doc)
    report = alpha_elliptic_check(sym, dual_characters(sym.bundle.group)[0])
    assert report.verdict is True
    assert report.warnings == ("orbit of 'q0': singular values spread by 2.500e-09",)
