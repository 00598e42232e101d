"""Finite equivariant sample bundles and symbol ellipticity over isotypes.

A bundle is a finite set of sample points carrying a group action, a unitary
transport cocycle between fibers, and base-point labels.  A symbol field
assigns a fiber endomorphism to every point, equivariantly up to tolerance.
The central object is the set X of (point, isotype) pairs: ellipticity
relative to a character alpha asks that the symbol blocks attached to the
alpha-associated part of X are uniformly invertible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .groups import (
    Character,
    ElementT,
    Group,
    Subgroup,
    SubgroupCharacter,
    _hnf,
    all_subgroups,
    coset_table,
    element_index,
    full_subgroup,
)
from .reps import (
    COMMUTE_TOL,
    LAW_TOL,
    InternalInconsistencyError,
    UnitaryRep,
    _from_stack,
    _group_average,
    _isotypes,
    _law_failures,
    _non_unitary,
    _norms_over,
    _off_identity,
    _ShapeStacks,
    deterministic_range_basis,
    random_rep,
    require_intertwining,
)


class ModelInconsistencyError(ValueError):
    """The bundle data contradicts itself (stabilizers, isotypes, or cocycle)."""


class InputDocumentError(ValueError):
    """Malformed input document, with a pointer to the offending node."""

    def __init__(self, path: str, message: str):
        self.path = path or "/"
        super().__init__(f"{self.path}: {message}")


@dataclass(frozen=True)
class Violation:
    kind: str
    location: str
    detail: str


@dataclass(frozen=True)
class BundleValidation:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True, eq=False)
class EquivariantSampleBundle:
    """Finite group-set with unitary fiber transport, held as its tables.

    points are sorted ids (strings); base maps each point to its base-point
    label and fiber_dim to its fiber dimension.  table[g, p] is the index
    of g·p among the points (g and p index group.elements and points);
    transports holds the unitary T(g, p) from the fiber at p to the fiber at
    g·p at index g·len(points) + p, one stack per shape class, as the
    document reader fills them.  Every part is read-only.  Build a bundle
    with `sample_bundle` or `load_bundle`.
    """

    group: Group
    points: tuple[str, ...]
    base: Mapping[str, str]
    fiber_dim: Mapping[str, int]
    table: np.ndarray
    transports: _ShapeStacks

    @cached_property
    def _validated(self) -> BundleValidation:
        return _check_bundle(self)

    @cached_property
    def _x(self) -> Mapping[tuple, tuple[tuple, np.ndarray, np.ndarray]]:
        return _isotype_orbits(self)

    @cached_property
    def _beta_parts(self) -> tuple[Subgroup, Mapping]:
        g0 = minimal_isotropy(self)
        return g0, MappingProxyType(partition_by_beta(build_X(self), g0))


def _from_tables(
    group: Group,
    points: tuple[str, ...],
    base: Mapping[str, str],
    fiber_dim: Mapping[str, int],
    table: np.ndarray,
    transports: _ShapeStacks,
) -> EquivariantSampleBundle:
    """The loaders' constructor, not checked: sorted points, labels and
    dimensions for (at least) them, the (|G|, n) intp action table, and the
    stacks of the complex T(g, p), g-major, each of shape (fiber_dim of g·p,
    fiber_dim of p).  Every part is made read-only."""
    table.setflags(write=False)
    return EquivariantSampleBundle(
        group, points, MappingProxyType({p: base[p] for p in points}),
        MappingProxyType({p: fiber_dim[p] for p in points}), table, transports,
    )


def element_key(g: ElementT) -> str:
    """The document key of a group element: its residues joined by commas."""
    return ",".join(map(str, g))


def sample_bundle(
    group: Group,
    points: Iterable[str],
    base: Mapping[str, str],
    action: Mapping,
    fiber_dim: Mapping[str, int],
    transport: Mapping,
) -> EquivariantSampleBundle:
    """A bundle from raw data: action and transport keyed by (element, point).

    Points are sorted, dimensions made ints and matrices complex.  A repeated
    point id is refused at /points/<i>, as `load_bundle` refuses it.  Then the
    first entry that cannot fill the tables raises InputDocumentError at the
    pointer `validate_bundle` once reported for it, in this order: action
    entries (element-major, points sorted) that are missing or not a point;
    missing base labels; missing or non-positive fiber dimensions;
    transports that are missing or of the wrong shape.  Keys off the points
    are ignored.
    """
    seen: dict[str, int] = {}
    for i, p in enumerate(map(str, points)):
        if seen.setdefault(p, i) != i:
            raise InputDocumentError(f"/points/{i}", f"duplicate point id {p!r}")
    pts = tuple(sorted(seen))
    index = {p: i for i, p in enumerate(pts)}
    table = np.empty((group.order, len(pts)), dtype=np.intp)
    for g, elem in enumerate(group.elements):
        for i, p in enumerate(pts):
            if (elem, p) not in action:
                raise InputDocumentError(f"/action/{element_key(elem)}/{p}", "missing")
            q = action[(elem, p)]
            if q not in index:
                raise InputDocumentError(
                    f"/action/{element_key(elem)}/{p}", f"image {q!r} is not a point"
                )
            table[g, i] = index[q]
    for p in pts:
        if p not in base:
            raise InputDocumentError(f"/base/{p}", "missing label")
    dims = [int(fiber_dim[p]) if p in fiber_dim else 0 for p in pts]
    for p, d in zip(pts, dims):
        if d < 1:
            raise InputDocumentError(f"/fiber_dim/{p}", "missing or non-positive")
    mats = []
    for g, elem in enumerate(group.elements):
        for i, p in enumerate(pts):
            if (elem, p) not in transport:
                raise InputDocumentError(f"/transport/{element_key(elem)}/{p}", "missing")
            m, want = np.array(transport[(elem, p)], dtype=complex), (dims[table[g, i]], dims[i])
            if m.shape != want:
                raise InputDocumentError(
                    f"/transport/{element_key(elem)}/{p}", f"shape {m.shape}, expected {want}"
                )
            mats.append(m)
    return _from_tables(group, pts, base, dict(zip(pts, dims)), table, _ShapeStacks.of(mats))


def validate_bundle(b: EquivariantSampleBundle) -> BundleValidation:
    """Check the laws of the action, the base labels and the cocycle.

    Collects every violation with a location instead of stopping at the
    first, in a fixed order: the identity and composition laws, g·(h·p) =
    (g+h)·p for all g, h, p; base labels that move inconsistently;
    unitarity, T(0, p) = I and the cocycle law T(g, h·p) T(h, p) = T(g+h, p)
    for all g, h, p.  A composition failure between fibers of different
    dimensions is reported at the cocycle's location as a shape mismatch.
    The tables are complete by construction (`sample_bundle` refuses data
    that cannot fill them).

    The checks run on the action table and the transport stacks, to
    LAW_TOL in operator norm.  Both laws go through `reps._law_failures`,
    along the Cayley edges first: a valid bundle costs O(|G|·rank·points)
    products, and only a failing edge brings in every pair.  The
    violations, their order and their printed defects are exactly those of
    an SVD norm per pair.  The result is kept per bundle, so a bundle is
    validated once however many checks it goes through.
    """
    return b._validated


def _check_bundle(b: EquivariantSampleBundle) -> BundleValidation:
    pts, n_pts, group, A, T = b.points, len(b.points), b.group, b.table, b.transports
    e = int(element_index(group, [group.identity])[0])

    def key(g: int) -> str:  # made only for a violation that is reported
        return element_key(group.elements[g])

    def at(kind: str, g: int, p: int, detail: str) -> Violation:
        return Violation(kind, f"/{kind}/{key(g)}/{pts[p]}", detail)

    out = [at("action", e, p, "identity must fix every point")
           for p in np.flatnonzero(A[e] != np.arange(n_pts))]

    first: dict[str, int] = {}
    lead = np.array([first.setdefault(b.base[p], i) for i, p in enumerate(pts)], dtype=np.intp)
    moved = lead[A]  # the first point with the label of g·p
    # the label of g·p must be that of g·q for the first point q sharing p's label
    rest = [  # what follows the composition law
        Violation("base", f"/base/{pts[A[g, p]]}",
                  f"label {b.base[pts[p]]!r} moves inconsistently under {key(g)}")
        for g, p in np.argwhere(moved != moved[:, lead])
    ]
    non_unitary = _non_unitary(T, LAW_TOL)
    rest += [at("transport", *divmod(int(i), n_pts), f"not unitary ({err:.3e})")
             for i, err in non_unitary]
    rest += [at("transport", e, i % n_pts, "identity transport != I")
             for i in _off_identity(T, e * n_pts + np.arange(n_pts), LAW_TOL)]

    # unitarity bounds every transport by sqrt(1 + LAW_TOL); without it, no bound
    bound = None if non_unitary else math.sqrt(1 + LAW_TOL)
    composition, cocycle = _law_failures(group, A, T, bound)
    out += [at("action", g, A[h, p], f"composition law fails against {key(gh)} at {pts[p]}")
            for g, h, p, gh in composition]
    rest += [at("transport", g, A[h, p], f"{what} against {key(gh)} at {pts[p]}")
             for g, h, p, gh, what in cocycle]
    return BundleValidation(tuple(out + rest))


def require_valid(b: EquivariantSampleBundle) -> None:
    """Raise ModelInconsistencyError, naming the first violations, unless the
    bundle passes `validate_bundle`."""
    v = b._validated
    if not v.ok:
        lines = "; ".join(f"{x.location}: {x.detail}" for x in v.violations[:5])
        raise ModelInconsistencyError(f"bundle fails validation: {lines}")


# ---------------------------------------------------------------------------
# orbits, isotropy, fibers


def _elements(b: EquivariantSampleBundle, at: np.ndarray) -> tuple:
    return tuple(b.group.elements[g] for g in at)


def orbits(b: EquivariantSampleBundle) -> tuple[tuple[str, ...], ...]:
    """Point orbits, each sorted, listed by their least member."""
    return tuple(tuple(b.points[i] for i in np.unique(b.table[:, h])) for h in _heads(b))


def _heads(b: EquivariantSampleBundle) -> np.ndarray:
    """The least member of each orbit, increasing: the orbit of p is the column
    A[:, p] of the action table, and points are held sorted."""
    return np.flatnonzero(b.table.min(axis=0) == np.arange(len(b.points)))


def _index(b: EquivariantSampleBundle, p: str) -> int:
    if p not in b.points:
        raise ValueError(f"{p!r} is not a point of the bundle")
    return b.points.index(p)


def _stabilizer(b: EquivariantSampleBundle, at: np.ndarray) -> Subgroup:
    """The subgroup the elements at these indices span, which must be them."""
    sub = Subgroup(b.group, _hnf(b.group.orders, b.group.residues[at]))
    if sub.order != at.size:
        raise ModelInconsistencyError(f"stabilizer {_elements(b, at)} is not a subgroup")
    return sub


def isotropy(b: EquivariantSampleBundle, p: str) -> Subgroup:
    """Stabilizer subgroup of a point: the g with A[g, p] = p."""
    i = _index(b, p)
    return _stabilizer(b, np.flatnonzero(b.table[:, i] == i))


def minimal_isotropy(b: EquivariantSampleBundle) -> Subgroup:
    """The smallest stabilizer; it must embed in every other stabilizer.

    Every stabilizer is read from one comparison of the action table; the
    first point with the fewest fixing elements gives the candidate.  On an
    empty bundle the infimum over no stabilizers is the full group.
    """
    if not b.points:
        return full_subgroup(b.group)
    fixes = b.table == np.arange(len(b.points))  # g fixes p
    least = np.flatnonzero(fixes[:, np.argmin(fixes.sum(axis=0))])
    outside = np.flatnonzero(~fixes[least].all(axis=0))
    if outside.size:
        raise ModelInconsistencyError(
            f"stabilizer {_elements(b, least)} is not contained in "
            f"{_elements(b, np.flatnonzero(fixes[:, outside[0]]))}"
        )
    return _stabilizer(b, least)


def fiber_rep(b: EquivariantSampleBundle, p: str) -> UnitaryRep:
    """The stabilizer representation on the fiber at p: T(h, p) for h in
    `isotropy(b, p)`, all of one square shape."""
    h = isotropy(b, p)
    at = element_index(b.group, h.residues) * len(b.points) + b.points.index(p)
    return _from_stack(h, b.transports.take(at))


# ---------------------------------------------------------------------------
# the isotype set X


@dataclass(frozen=True)
class XPoint:
    """A sample point together with one isotype of its stabilizer fiber action."""

    point: str
    rho: SubgroupCharacter


def build_X(b: EquivariantSampleBundle) -> tuple:
    """All (point, isotype) pairs with positive multiplicity, grouped into orbits.

    Each orbit is a tuple of XPoints sorted by point id; orbits are listed by
    (least point id, isotype).  They are decided at each orbit's least point:
    for abelian G, T(g, p) intertwines the fiber actions at p and g·p.  A
    bundle that fails validation is refused first (`require_valid`).  X and
    its bases (for `gamma_symbol_eval`) are kept.
    """
    require_valid(b)
    return tuple(orb for orb, _, _ in b._x.values())


def _carried(b: EquivariantSampleBundle, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The orbit of point i, as increasing point indices, and the stack of
    the T(g, p_i) that reach them, g the least element reaching each."""
    moved, first = np.unique(b.table[:, i], return_index=True)
    return moved, b.transports.take(first * len(b.points) + i)


def _isotype_orbits(b: EquivariantSampleBundle) -> Mapping[tuple, tuple]:
    """X keyed by (least point id, isotype exponents): each orbit's XPoints,
    point indices and read-only (m, d, k) stack of its isotype's bases.  One
    decomposition (`_isotypes`) per point orbit, at its least point p0: each
    basis there is the pivoted Gram-Schmidt basis of the projector `decompose`
    cut, carried to each point by `_carried`; p0 keeps its own (T(0, p0) is I
    only to LAW_TOL)."""
    out = {}
    for head in _heads(b):
        (at, t), rep = _carried(b, head), fiber_rep(b, b.points[head])
        pts = [b.points[i] for i in at]
        for rho, k, projector in _isotypes(rep):
            basis = deterministic_range_basis(projector, k)
            stack = t @ basis
            stack[0] = basis
            stack.setflags(write=False)
            out[(pts[0], rho.exponents)] = (tuple(XPoint(p, rho) for p in pts), at, stack)
    return MappingProxyType({key: out[key] for key in sorted(out)})


def partition_by_beta(x_orbits: tuple, gamma0: Subgroup) -> dict:
    """Partition X by the restriction of the isotype to gamma0.

    Keys are characters of gamma0; only inhabited parts appear, so the parts
    are disjoint and exhaust X.  Every isotype's subgroup must contain gamma0.
    """
    parts: dict[SubgroupCharacter, list] = {}
    for orb in x_orbits:
        rho = orb[0].rho
        if not gamma0.is_subgroup_of(rho.subgroup):
            raise ValueError("gamma0 must be contained in every stabilizer appearing in X")
        beta = SubgroupCharacter(gamma0, rho.representative)
        parts.setdefault(beta, []).append(orb)
    keys = sorted(parts, key=lambda c: c.exponents)
    return {k: tuple(parts[k]) for k in keys}


# ---------------------------------------------------------------------------
# symbol fields


@dataclass(frozen=True, eq=False)
class SymbolField:
    """A fiber endomorphism sigma(p) at every sample point, read-only shape
    stacks with sigma(p) at p's index in bundle.points, as `symbol_field`
    builds them (the equivariance gate is read from it once and kept)."""

    bundle: EquivariantSampleBundle
    stacks: _ShapeStacks

    def value(self, p: str) -> np.ndarray:
        i = _index(self.bundle, p)
        return self.stacks.stacks[self.stacks.cls[i]][self.stacks.pos[i]]

    @cached_property
    def _equivariant(self) -> float:
        """The equivariance gate of `alpha_elliptic_check`, one pass over every
        (g, p): the defects over the cut (`_norms_over`) name the largest and
        its first (g, p).  Only a pass is kept, as the cut it passed; a
        failing symbol always raises."""
        b, values = self.bundle, self.stacks
        norms = [np.linalg.norm(s, 2, axis=(-2, -1)) for s in values.stacks]
        cut = COMMUTE_TOL * max([1.0] + [float(x) for n in norms for x in n])
        errs = np.zeros(b.table.size)  # the defects over the cut, at g * len(points) + p
        for idx, t in zip(b.transports.members, b.transports.stacks):
            g, p = np.divmod(idx, len(b.points))
            defect = values.take(b.table[g, p]) - t @ values.take(p) @ t.conj().transpose(0, 2, 1)
            where, defects = _norms_over(defect, cut)
            errs[idx[where]] = defects
        if errs.any():
            i = int(np.argmax(errs))
            raise InputDocumentError(
                f"/symbol/{b.points[i % len(b.points)]}",
                f"symbol is not equivariant (defect {errs[i]:.3e})",
            )
        return cut


def symbol_field(bundle: EquivariantSampleBundle, values: Mapping[str, np.ndarray]) -> SymbolField:
    """The checked entry: ValueError names the first point without a finite
    matrix of its fiber's shape.  Keys off the points are ignored."""
    mats = []
    for p in bundle.points:
        if p not in values:
            raise ValueError(f"symbol is missing a value at {p!r}")
        m = np.array(values[p], dtype=complex)
        d = bundle.fiber_dim[p]
        if m.shape != (d, d):
            raise ValueError(f"symbol at {p!r} has shape {m.shape}, expected {(d, d)}")
        if not np.isfinite(m).all():
            raise ValueError(f"symbol at {p!r} has a non-finite entry")
        mats.append(m)
    return SymbolField(bundle, _ShapeStacks.of(mats))


def propagate_symbol(
    bundle: EquivariantSampleBundle,
    seed_values: Mapping[str, np.ndarray],
) -> SymbolField:
    """Extend stabilizer-invariant values on orbit representatives equivariantly.

    seed_values must contain one matrix per orbit (keyed by any point in it);
    each seed must commute with the stabilizer action at its point, to
    LAW_TOL relative to max(1, |seed|).  The first seed on an orbit is conjugated
    by all its T(g, p0) at once (`_carried`); a bundle that fails validation
    is refused.
    """
    require_valid(bundle)
    values: dict[str, np.ndarray] = {}
    for p0, raw in seed_values.items():
        raw = np.asarray(raw, dtype=complex)
        require_intertwining(
            f"seed at {p0!r} is not stabilizer-invariant", fiber_rep(bundle, p0), raw,
            tol=LAW_TOL,
        )
        moved, t = _carried(bundle, bundle.points.index(p0))
        for q, m in zip(moved, t @ raw @ t.conj().transpose(0, 2, 1)):
            values.setdefault(bundle.points[q], m)
    missing = [p for p in bundle.points if p not in values]
    if missing:
        raise ValueError(f"seeds cover no orbit containing {missing[0]!r}")
    return symbol_field(bundle, values)


def gamma_symbol_eval(sym: SymbolField, orbit: tuple) -> np.ndarray:
    """The symbol blocks of one X-orbit, as `build_X` lists it: the (m, k, k)
    stack of B^* sigma(p) B over its points p, B the basis `build_X` keeps for
    the isotype at p.  ValueError for an orbit that is not one of X, which is
    looked up by its head's point and exponents (no XPoint is hashed)."""
    require_valid(sym.bundle)
    orbit = tuple(orbit)
    found = sym.bundle._x.get((orbit[0].point, orbit[0].rho.exponents)) if orbit else None
    if found is None or found[0] != orbit:
        raise ValueError(f"not an orbit of X: {[(xp.point, xp.rho.exponents) for xp in orbit]}")
    _, at, bases = found
    return bases.conj().transpose(0, 2, 1) @ sym.stacks.take(at) @ bases


def _require_margin(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _invertible(s: np.ndarray, tol: float) -> np.ndarray:
    """The margin rule smin >= tol * max(1, smax), on singular values that
    decrease along the last axis."""
    return s[..., -1] >= tol * np.maximum(1.0, s[..., 0])


def pointwise_invertible(sym: SymbolField, *, tol: float = 1e-8) -> bool:
    """Plain invertibility of the symbol at every point, same margin rule
    (and ValueError for the same tol) as `alpha_elliptic_check`."""
    _require_margin(tol)
    return all(_invertible(np.linalg.svd(s, compute_uv=False), tol).all()
               for s in sym.stacks.stacks)


# ---------------------------------------------------------------------------
# the ellipticity verdict


@dataclass(frozen=True)
class EllipticityEntry:
    point: str
    rho: SubgroupCharacter
    orbit_representative: str
    block_dim: int
    smallest_singular_value: float
    condition_estimate: float


@dataclass(frozen=True)
class EllipticityReport:
    alpha: Character
    gamma0: Subgroup
    tol: float
    entries: tuple[EllipticityEntry, ...]
    verdict: bool
    warnings: tuple[str, ...]


def alpha_elliptic_check(
    sym: SymbolField,
    alpha: Character,
    *,
    tol: float = 1e-8,
) -> EllipticityReport:
    """Decide alpha-ellipticity of a symbol field.

    The verdict is True when every block over the alpha-associated isotype set
    has smallest singular value >= tol * max(1, block norm), judged at one
    representative per orbit.  The alpha-associated set is taken over the
    minimal isotropy.  Every XPoint still gets an entry, and the
    spread of the singular values along each orbit is certified; a spread
    beyond 1e-9 (relative) only produces a warning since the verdict at the
    representative stands.  An empty associated set yields a vacuous True with
    a warning.  A symbol whose equivariance defect exceeds the gate's cut,
    COMMUTE_TOL * max(1, max_p |sigma(p)|), raises InputDocumentError at
    /symbol/<p> for the point p where the defect is largest.  A tol that is
    not finite and positive raises ValueError.  As the bases are carried by
    the transports, Weyl's inequality bounds the spread of a symbol that
    passed by twice the cut, plus 6 * LAW_TOL * max(1, |sigma|) as transports
    are unitary to LAW_TOL: a wider one raises InternalInconsistencyError.
    """
    _require_margin(tol)
    b = sym.bundle
    require_valid(b)
    cut = sym._equivariant  # the gate: raises unless the symbol is equivariant
    reach = 2 * cut * (1 + 3 * LAW_TOL / COMMUTE_TOL)  # cut / COMMUTE_TOL is max(1, |sigma|)
    g0, parts = b._beta_parts
    part = parts.get(SubgroupCharacter(g0, alpha), ())

    warnings = [] if part else [
        "vacuous: no sample isotype is associated to alpha over the minimal isotropy"]
    entries: list[EllipticityEntry] = []
    verdict = True
    for orb in part:
        s = np.linalg.svd(gamma_symbol_eval(sym, orb), compute_uv=False)
        rep_point, lows = orb[0].point, s[:, -1]
        entries += [EllipticityEntry(xp.point, xp.rho, rep_point, s.shape[1], lo,
                                     hi / lo if lo > 0 else math.inf)
                    for xp, lo, hi in zip(orb, lows.tolist(), s[:, 0].tolist())]
        spread = float(lows.max() - lows.min())
        if spread > reach:
            raise InternalInconsistencyError(
                f"orbit of {rep_point!r}: singular values spread by {spread:.3e}, "
                f"over the {reach:.3e} the equivariance gate allows")
        if spread > 1e-9 * max(1.0, float(lows.max())):
            warnings.append(f"orbit of {rep_point!r}: singular values spread by {spread:.3e}")
        verdict = verdict and bool(_invertible(s[0], tol))
    return EllipticityReport(alpha, g0, tol, tuple(entries), verdict, tuple(warnings))


# ---------------------------------------------------------------------------
# primitive-ideal style enumeration


@dataclass(frozen=True)
class PrimRecord:
    """One point orbit with the isotypes sitting over it."""

    orbit: tuple[str, ...]
    representative: str
    isotypes: tuple[SubgroupCharacter, ...]


def prim_enumerate(b: EquivariantSampleBundle) -> tuple:
    """Orbit list of X with its fibration over point orbits.

    Each record holds a point orbit and the isotypes of its fiber action; the
    record's fiber size is the number of distinct isotypes present, which is
    exactly how many X-orbits sit over that point orbit.  A bundle that fails
    validation is refused by `build_X`.
    """
    by_orbit: dict[tuple[str, ...], list[SubgroupCharacter]] = {}
    for orb in build_X(b):  # listed by least point
        by_orbit.setdefault(tuple(xp.point for xp in orb), []).append(orb[0].rho)
    return tuple(PrimRecord(key, key[0], tuple(rhos)) for key, rhos in by_orbit.items())


# ---------------------------------------------------------------------------
# random instances (used by the demos and the test suite)


def random_bundle(
    group: Group,
    rng: np.random.Generator,
    *,
    n_orbits: int | None = None,
    max_fiber_dim: int = 3,
    min_isotropy: Subgroup | None = None,
) -> EquivariantSampleBundle:
    """Random valid bundle whose stabilizers all contain a chosen minimal one.

    The first orbit realizes the minimal isotropy exactly, so minimal_isotropy
    is well-defined on the result.  With min_isotropy=trivial_subgroup(group)
    the first orbit is free; without min_isotropy the minimal one is drawn.
    """
    subs = all_subgroups(group)
    if min_isotropy is not None:
        g0 = min_isotropy
    else:
        g0 = subs[int(rng.integers(len(subs)))]
    containing = [s for s in subs if g0.is_subgroup_of(s)]
    count = n_orbits if n_orbits is not None else int(rng.integers(1, 4))

    fdim: dict[str, int] = {}
    action: dict = {}
    transport: dict = {}
    for o in range(count):
        stab = g0 if o == 0 else containing[int(rng.integers(len(containing)))]
        v = random_rep(stab, int(rng.integers(1, max_fiber_dim + 1)), rng)
        reps_, table = coset_table(group, stab)
        ids = [f"o{o}p{j}" for j in range(len(reps_))]
        fdim.update(dict.fromkeys(ids, v.dim))
        for g, moves in zip(group.elements, table.tolist()):
            for pid, (j, h) in zip(ids, moves):  # g + x_i = x_j + h
                action[(g, pid)], transport[(g, pid)] = ids[j], v.stack[h]
    return sample_bundle(group, fdim, {p: p for p in fdim}, action, fdim, transport)


def random_symbol(
    bundle: EquivariantSampleBundle,
    rng: np.random.Generator,
    *,
    shift: float = 0.0,
    kill_isotype: bool = False,
) -> SymbolField:
    """Random equivariant symbol, one stabilizer-invariant seed per orbit.

    shift adds shift*I to each seed (pushes it toward invertibility);
    kill_isotype zeroes one randomly chosen isotype block of the first orbit's
    seed, producing a symbol that is singular on that isotype.
    """
    seeds: dict[str, np.ndarray] = {}
    for n, orb in enumerate(orbits(bundle)):
        p0 = orb[0]
        rep = fiber_rep(bundle, p0)
        d = rep.dim
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        sym0 = _group_average(rep, raw, rep) + shift * np.eye(d)
        if kill_isotype and n == 0:
            projectors = [p for _, _, p in _isotypes(rep)]
            sym0 = sym0 @ (np.eye(d) - projectors[int(rng.integers(len(projectors)))])
        seeds[p0] = sym0
    return propagate_symbol(bundle, seeds)
