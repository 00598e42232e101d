"""The package's tolerances are fixed constants, not keywords.

Every tolerance keyword that no caller set has been removed.  A call that
still passes one is refused with TypeError rather than silently ignored, and
the only tolerances a caller can still choose are the invertibility margins
of `alpha_elliptic_check` and `pointwise_invertible` (the CLI's `check --tol`)
and the explicit threshold of the internal `reps.require_intertwining`.
A last guard keeps the public names to those with a caller outside the tests.
"""
import ast
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import equifred
from equifred import bundles, cli, groups, lab, reps, serialize
from equifred import (
    alpha_elliptic_check,
    build_invariant_circle_operator,
    build_X,
    commutant_factors,
    decompose,
    deterministic_range_basis,
    dual_characters,
    frobenius_hom_map,
    gamma_symbol_eval,
    intertwiner_basis,
    isotypical_basis,
    ker_im_pi_alpha,
    make_group,
    null_space_basis,
    numerical_rank,
    pi_alpha_restrict,
    prim_enumerate,
    propagate_symbol,
    random_bundle,
    random_symbol,
    regular_rep,
    require_valid,
    restrict_rep,
    subgroup_from_generators,
    unitary_rep,
    validate_bundle,
)

G = make_group((2, 2))
SUB = subgroup_from_generators(G, [(1, 0)])
REP = regular_rep(G)
CHI = dual_characters(G)[1]
BETA = restrict_rep(REP, SUB)
EYE = np.eye(REP.dim)
BUNDLE = random_bundle(G, np.random.default_rng(5), n_orbits=2)
SYM = random_symbol(BUNDLE, np.random.default_rng(6), shift=3.0)
X_ORBIT = build_X(BUNDLE)[0]
SEEDS = {p: SYM.value(p) for p in {orb[0] for orb in equifred.orbits(BUNDLE)}}


def _fixture(name):
    return json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())


# (function name, removed keyword, the call without it)
REMOVED = [
    ("numerical_rank", "rel_tol", lambda **kw: numerical_rank(EYE, **kw)),
    ("deterministic_range_basis", "rel_tol", lambda **kw: deterministic_range_basis(EYE, 4, **kw)),
    ("isotypical_basis", "rel_tol", lambda **kw: isotypical_basis(REP, CHI, **kw)),
    ("decompose", "rel_tol", lambda **kw: decompose(REP, **kw)),
    ("null_space_basis", "rel_tol", lambda **kw: null_space_basis(EYE, **kw)),
    ("intertwiner_basis", "rel_tol", lambda **kw: intertwiner_basis(REP, REP, **kw)),
    ("commutant_factors", "rel_tol", lambda **kw: commutant_factors(REP, **kw)),
    ("ker_im_pi_alpha", "rel_tol", lambda **kw: ker_im_pi_alpha(SUB, G, BETA, CHI, **kw)),
    ("pi_alpha_restrict", "rel_tol", lambda **kw: pi_alpha_restrict(REP, EYE, CHI, **kw)),
    ("pi_alpha_restrict", "commute_tol", lambda **kw: pi_alpha_restrict(REP, EYE, CHI, **kw)),
    ("build_X", "rel_tol", lambda **kw: build_X(BUNDLE, **kw)),
    ("gamma_symbol_eval", "rel_tol", lambda **kw: gamma_symbol_eval(SYM, X_ORBIT, **kw)),
    ("prim_enumerate", "rel_tol", lambda **kw: prim_enumerate(BUNDLE, **kw)),
    ("unitary_rep", "tol", lambda **kw: unitary_rep(G, REP.matrices, **kw)),
    ("validate_bundle", "tol", lambda **kw: validate_bundle(BUNDLE, **kw)),
    ("require_valid", "tol", lambda **kw: require_valid(BUNDLE, **kw)),
    ("propagate_symbol", "tol", lambda **kw: propagate_symbol(BUNDLE, SEEDS, **kw)),
    ("frobenius_hom_map", "tol", lambda **kw: frobenius_hom_map(np.eye(4), REP, BETA, **kw)),
    ("build_invariant_circle_operator", "tol",
     lambda **kw: build_invariant_circle_operator(8, 2, "shifted_laplacian", **kw)),
    ("alpha_elliptic_check", "equiv_tol", lambda **kw: alpha_elliptic_check(SYM, CHI, **kw)),
    ("alpha_elliptic_check", "gamma0",
     lambda **kw: alpha_elliptic_check(SYM, CHI, **kw)),
    ("unitary_rep", "validate", lambda **kw: unitary_rep(G, REP.matrices, **kw)),
    ("load_rep", "path", lambda **kw: serialize.load_rep(serialize.rep_doc(REP), **kw)),
    ("load_bundle", "path",
     lambda **kw: serialize.load_bundle(_fixture("bundle_free_orbit"), **kw)),
    ("load_induction", "path",
     lambda **kw: serialize.load_induction(_fixture("induce_z4_sign"), **kw)),
    ("random_bundle", "ensure_free_orbit",
     lambda **kw: random_bundle(G, np.random.default_rng(5), **kw)),
]


@pytest.mark.parametrize("name, keyword, call", REMOVED, ids=[f"{n}-{k}" for n, k, _ in REMOVED])
def test_a_removed_keyword_is_refused(name, keyword, call):
    call()  # the call is valid without the keyword
    value = groups.trivial_subgroup(G) if keyword == "gamma0" else 1e-8
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        call(**{keyword: value})


def test_intertwining_defect_is_gone():
    assert not hasattr(reps, "intertwining_defect")


def _names_used(path):
    tree = ast.parse(path.read_text())
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_every_exported_name_has_a_caller_outside_the_tests():
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "equifred"
    exported = {
        alias.asname or alias.name
        for node in ast.parse((package / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    callers = [f for f in package.glob("*.py") if f.name != "__init__.py"]
    callers += [*(root / "demos").glob("*.py"), *(root / "benchmarks").glob("*.py")]
    used = set().union(*map(_names_used, callers))
    # the benchmark tracer wraps package functions by name
    tracer = ast.parse((root / "benchmarks" / "tracing.py").read_text())
    used |= {n.value for n in ast.walk(tracer)
             if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert sorted(exported - used) == []


def _tolerance_parameters(namespace):
    return {
        (name, p)
        for name, obj in vars(namespace).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        for p in inspect.signature(obj).parameters
        if p == "tol" or p.endswith("_tol")
    }


def test_only_the_check_margins_are_public_tolerances():
    # functions only: the `tol` field of EllipticityReport records the margin
    # a check used, it is not a tolerance the library applies
    assert _tolerance_parameters(equifred) == {
        ("alpha_elliptic_check", "tol"),
        ("pointwise_invertible", "tol"),
    }


def test_the_package_has_three_tolerance_parameters():
    found = set()
    for module in (groups, reps, bundles, lab, serialize, cli):
        found |= {(name, p) for name, p in _tolerance_parameters(module)
                  if getattr(module, name).__module__ == module.__name__}
    assert found == {
        ("alpha_elliptic_check", "tol"),
        ("pointwise_invertible", "tol"),
        ("require_intertwining", "tol"),
    }


def test_bundles_and_lab_share_the_reps_constants():
    assert bundles.LAW_TOL is reps.LAW_TOL and bundles.COMMUTE_TOL is reps.COMMUTE_TOL
    assert lab.LAW_TOL is reps.LAW_TOL
    assert (reps.RANK_TOL, reps.LAW_TOL, reps.COMMUTE_TOL) == (1e-8, 1e-10, 1e-8)

