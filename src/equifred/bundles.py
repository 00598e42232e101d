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
from typing import Iterable, Mapping

import numpy as np

from .groups import (
    Character,
    ElementT,
    Group,
    Subgroup,
    SubgroupCharacter,
    all_subgroups,
    coset_table,
    full_subgroup,
)
from .reps import (
    COMMUTE_TOL,
    LAW_TOL,
    UnitaryRep,
    _from_stack,
    _group_average,
    _law_failures,
    _non_unitary,
    _norms_over,
    _off_identity,
    _ShapeStacks,
    decompose,
    isotypical_basis,
    isotypical_projector,
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
    """Finite group-set with unitary fiber transport.

    points are ids (strings); base maps each point to its base-point label;
    action maps (group element, point) to a point; transport maps the same
    keys to a unitary matrix from the fiber at the point to the fiber at its
    image.  The mappings are read once, on first validation: change them
    only before that.
    """

    group: Group
    points: tuple[str, ...]
    base: Mapping[str, str]
    action: Mapping[tuple[ElementT, str], str]
    fiber_dim: Mapping[str, int]
    transport: Mapping[tuple[ElementT, str], np.ndarray]

    def act(self, g: ElementT, p: str) -> str:
        return self.action[(g, p)]

    def transport_matrix(self, g: ElementT, p: str) -> np.ndarray:
        return self.transport[(g, p)]

    @cached_property
    def _action_table(self) -> np.ndarray:
        """A[g, p]: index of g·p among the points (g, p indices into group.elements
        and points); -1 where the entry is missing, -2 where it is not a point."""
        index = {p: i for i, p in enumerate(self.points)}
        rows = [
            [index.get(self.action[(g, p)], -2) if (g, p) in self.action else -1
             for p in self.points]
            for g in self.group.elements
        ]
        return np.array(rows, dtype=np.intp).reshape(self.group.order, len(self.points))

    @cached_property
    def _transports(self) -> _ShapeStacks:
        """T(g, p) at index g·len(points) + p (every entry must be present)."""
        return _ShapeStacks(
            [self.transport[(g, p)] for g in self.group.elements for p in self.points]
        )

    @cached_property
    def _validated(self) -> BundleValidation:
        return _check_bundle(self)

    @cached_property
    def _x_orbits(self) -> tuple:
        return _isotype_orbits(self)


def sample_bundle(
    group: Group,
    points: Iterable[str],
    base: Mapping[str, str],
    action: Mapping,
    fiber_dim: Mapping[str, int],
    transport: Mapping,
) -> EquivariantSampleBundle:
    """Normalize raw bundle data (sorted points, immutable complex matrices)."""
    pts = tuple(sorted(str(p) for p in points))
    tr = {}
    for key, m in transport.items():
        arr = np.array(m, dtype=complex)
        arr.setflags(write=False)
        tr[key] = arr
    return EquivariantSampleBundle(
        group, pts, dict(base), dict(action), {p: int(d) for p, d in fiber_dim.items()}, tr
    )


def validate_bundle(b: EquivariantSampleBundle) -> BundleValidation:
    """Check action, base-label, fiber-dimension, and cocycle axioms.

    Collects every violation with a location instead of stopping at the
    first, in a fixed order: missing or foreign action images (and nothing
    else when there are any); the identity and composition laws, g·(h·p) =
    (g+h)·p for all g, h, p; base labels; fiber dimensions; presence and
    shape of transports; unitarity, T(0, p) = I and the cocycle law
    T(g, h·p) T(h, p) = T(g+h, p) for all g, h, p.  A composition failure
    between fibers of different dimensions is reported at the cocycle's
    location as a shape mismatch.

    The checks run on an integer action table and on transports stacked by
    shape, to LAW_TOL in operator norm.  Both laws go through
    `reps._law_failures`, along the Cayley edges first: a valid bundle costs
    O(|G|·rank·points) products, and only a failing edge brings in every
    pair.  The violations, their order and their printed defects are
    exactly those of an SVD norm per pair.  The result is kept per bundle,
    so a bundle is validated once however many checks it goes through.
    """
    return b._validated


def _check_bundle(b: EquivariantSampleBundle) -> BundleValidation:
    pts, n_pts, group, A = b.points, len(b.points), b.group, b._action_table
    keys = [",".join(str(x) for x in g) for g in group.elements]
    e = group.elements.index(group.identity)

    def at(kind: str, g: int, p: int, detail: str) -> Violation:
        return Violation(kind, f"/{kind}/{keys[g]}/{pts[p]}", detail)

    out = [
        at("action", g, p, "missing" if A[g, p] == -1
           else f"image {b.action[(group.elements[g], pts[p])]!r} is not a point")
        for g, p in np.argwhere(A < 0)
    ]
    if out:
        return BundleValidation(tuple(out))
    out += [at("action", e, p, "identity must fix every point")
            for p in np.flatnonzero(A[e] != np.arange(n_pts))]

    rest: list[Violation] = []  # what follows the composition law
    unlabelled = [p for p in pts if p not in b.base]
    rest += [Violation("base", f"/base/{p}", "missing label") for p in unlabelled]
    if not unlabelled:
        first: dict[str, int] = {}
        lead = np.array([first.setdefault(b.base[p], i) for i, p in enumerate(pts)], dtype=np.intp)
        moved = lead[A]  # the first point with the label of g·p
        # the label of g·p must be that of g·q for the first point q sharing p's label
        rest += [
            Violation("base", f"/base/{pts[A[g, p]]}",
                      f"label {b.base[pts[p]]!r} moves inconsistently under {keys[g]}")
            for g, p in np.argwhere(moved != moved[:, lead])
        ]

    T, non_unitary = None, []
    bad_dims = [p for p in pts if p not in b.fiber_dim or b.fiber_dim[p] < 1]
    rest += [Violation("fiber", f"/fiber_dim/{p}", "missing or non-positive") for p in bad_dims]
    if not bad_dims:
        dims = [b.fiber_dim[p] for p in pts]
        found = len(rest)
        for g, elem in enumerate(group.elements):
            for p, pt in enumerate(pts):
                m, want = b.transport.get((elem, pt)), (dims[A[g, p]], dims[p])
                if m is None or m.shape != want:
                    detail = "missing" if m is None else f"shape {m.shape}, expected {want}"
                    rest.append(at("transport", g, p, detail))
        if len(rest) == found:
            T = b._transports  # indexed g * n_pts + p
            non_unitary = _non_unitary(T, LAW_TOL)
            rest += [at("transport", *divmod(int(i), n_pts), f"not unitary ({err:.3e})")
                     for i, err in non_unitary]
            rest += [at("transport", e, i % n_pts, "identity transport != I")
                     for i in _off_identity(T, e * n_pts + np.arange(n_pts), LAW_TOL)]

    # unitarity bounds every transport by sqrt(1 + LAW_TOL); without it, no bound
    bound = None if non_unitary else math.sqrt(1 + LAW_TOL)
    composition, cocycle = _law_failures(group, A, T, bound)
    out += [at("action", g, A[h, p], f"composition law fails against {keys[gh]} at {pts[p]}")
            for g, h, p, gh in composition]
    rest += [at("transport", g, A[h, p], f"{what} against {keys[gh]} at {pts[p]}")
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


def _complete(table: np.ndarray) -> np.ndarray:
    """The action table, or some of its columns, refused if an entry is missing
    or not a point (`validate_bundle` locates it)."""
    if (table < 0).any():
        raise ValueError("the action has a missing entry or an image that is not a point")
    return table


def _elements(b: EquivariantSampleBundle, at: np.ndarray) -> tuple:
    return tuple(b.group.elements[g] for g in at)


def orbits(b: EquivariantSampleBundle) -> tuple[tuple[str, ...], ...]:
    """Point orbits, each sorted, listed by their least member.

    Read off the action table: the orbit of p is the column A[:, p], so its
    least member is the column minimum (points are held sorted).
    """
    least = _complete(b._action_table).min(axis=0)
    return tuple(
        tuple(b.points[i] for i in np.flatnonzero(least == lead))
        for lead in np.flatnonzero(least == np.arange(len(b.points)))
    )


def isotropy(b: EquivariantSampleBundle, p: str) -> Subgroup:
    """Stabilizer subgroup of a point: the g with A[g, p] = p."""
    if p not in b.points:
        raise ValueError(f"{p!r} is not a point of the bundle")
    i = b.points.index(p)
    fixed = np.flatnonzero(_complete(b._action_table[:, i]) == i)
    return Subgroup(b.group, _elements(b, fixed))


def minimal_isotropy(b: EquivariantSampleBundle) -> Subgroup:
    """The smallest stabilizer; it must embed in every other stabilizer.

    Every stabilizer is read from one comparison of the action table; the
    first point with the fewest fixing elements gives the candidate.  On an
    empty bundle the infimum over no stabilizers is the full group.
    """
    if not b.points:
        return full_subgroup(b.group)
    fixes = _complete(b._action_table) == np.arange(len(b.points))  # g fixes p
    least = np.flatnonzero(fixes[:, np.argmin(fixes.sum(axis=0))])
    outside = np.flatnonzero(~fixes[least].all(axis=0))
    if outside.size:
        raise ModelInconsistencyError(
            f"stabilizer {_elements(b, least)} is not contained in "
            f"{_elements(b, np.flatnonzero(fixes[:, outside[0]]))}"
        )
    return Subgroup(b.group, _elements(b, least))


def fiber_rep(b: EquivariantSampleBundle, p: str) -> UnitaryRep:
    """The stabilizer representation on the fiber at p, from the transport."""
    h = isotropy(b, p)
    return _from_stack(h, np.array([b.transport_matrix(g, p) for g in h.elements]))


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
    (least point id, isotype).  The isotype content is computed at every point
    and must agree along each orbit, otherwise the bundle data is inconsistent.
    A bundle that fails validation is refused first (`require_valid`).  The
    result is computed once per bundle and kept.
    """
    require_valid(b)
    return b._x_orbits


def _isotype_orbits(b: EquivariantSampleBundle) -> tuple:
    present = {p: decompose(fiber_rep(b, p)).characters() for p in b.points}
    out = []
    for orb in orbits(b):
        head = present[orb[0]]
        for p in orb[1:]:
            if present[p] != head:
                raise ModelInconsistencyError(
                    f"isotypes differ along the orbit of {orb[0]!r} at {p!r}"
                )
        for rho in head:
            out.append(tuple(XPoint(p, rho) for p in orb))
    out.sort(key=lambda o: (o[0].point, o[0].rho.exponents))
    return tuple(out)


def build_X_alpha(x_orbits: tuple, alpha: Character, gamma0: Subgroup) -> tuple:
    """The alpha-associated part of X: the part of `partition_by_beta` at
    beta = alpha restricted to gamma0, empty when no isotype lies over beta."""
    return partition_by_beta(x_orbits, gamma0).get(SubgroupCharacter(gamma0, alpha), ())


def partition_by_beta(x_orbits: tuple, gamma0: Subgroup) -> dict:
    """Partition X by the restriction of the isotype to gamma0.

    Keys are characters of gamma0; only inhabited parts appear, so the parts
    are disjoint and exhaust X.  Every isotype's subgroup must contain gamma0.
    """
    parts: dict[SubgroupCharacter, list] = {}
    for orb in x_orbits:
        rho = orb[0].rho
        if not gamma0._member_set <= rho.subgroup._member_set:
            raise ValueError("gamma0 must be contained in every stabilizer appearing in X")
        beta = SubgroupCharacter(gamma0, rho.representative)
        parts.setdefault(beta, []).append(orb)
    keys = sorted(parts, key=lambda c: c.exponents)
    return {k: tuple(parts[k]) for k in keys}


# ---------------------------------------------------------------------------
# symbol fields


@dataclass(frozen=True, eq=False)
class SymbolField:
    """A fiber endomorphism at every sample point."""

    bundle: EquivariantSampleBundle
    values: Mapping[str, np.ndarray]

    def value(self, p: str) -> np.ndarray:
        return self.values[p]

    @cached_property
    def _stacked(self) -> _ShapeStacks:
        """sigma(p) at the index of p in bundle.points."""
        return _ShapeStacks([self.values[p] for p in self.bundle.points])


def symbol_field(bundle: EquivariantSampleBundle, values: Mapping[str, np.ndarray]) -> SymbolField:
    store = {}
    for p in bundle.points:
        if p not in values:
            raise ValueError(f"symbol is missing a value at {p!r}")
        m = np.array(values[p], dtype=complex)
        d = bundle.fiber_dim[p]
        if m.shape != (d, d):
            raise ValueError(f"symbol at {p!r} has shape {m.shape}, expected {(d, d)}")
        m.setflags(write=False)
        store[p] = m
    return SymbolField(bundle, store)


def _symbol_defects(sym: SymbolField):
    """sigma(g p) - T(g, p) sigma(p) T(g, p)^* for every (g, p), one stack per
    transport shape, with the indices g * len(points) + p it holds."""
    b = sym.bundle
    T, values = b._transports, sym._stacked
    for idx, t in zip(T.members, T.stacks):
        g, p = np.divmod(idx, len(b.points))
        conjugated = t @ values.take(p) @ t.conj().transpose(0, 2, 1)
        yield idx, values.take(b._action_table[g, p]) - conjugated


def _worst_symbol_defect(sym: SymbolField) -> tuple[float, str | None]:
    """Largest |sigma(g p) - T(g, p) sigma(p) T(g, p)^*|_2, and the first p attaining it."""
    b = sym.bundle
    errs = np.zeros(b.group.order * len(b.points))
    for idx, d in _symbol_defects(sym):
        errs[idx] = np.linalg.norm(d, 2, axis=(-2, -1))
    i = int(np.argmax(errs)) if errs.size else 0
    if not errs.size or not errs[i] > 0.0:
        return 0.0, None
    return float(errs[i]), b.points[i % len(b.points)]


def propagate_symbol(
    bundle: EquivariantSampleBundle,
    seed_values: Mapping[str, np.ndarray],
) -> SymbolField:
    """Extend stabilizer-invariant values on orbit representatives equivariantly.

    seed_values must contain one matrix per orbit (keyed by any point in it);
    each seed must commute with the stabilizer action at its point, to
    LAW_TOL relative to max(1, |seed|).
    """
    values: dict[str, np.ndarray] = {}
    for p0, raw in seed_values.items():
        raw = np.asarray(raw, dtype=complex)
        require_intertwining(
            f"seed at {p0!r} is not stabilizer-invariant", fiber_rep(bundle, p0), raw,
            tol=LAW_TOL,
        )
        for g in bundle.group.elements:
            q = bundle.act(g, p0)
            if q in values:
                continue
            t = bundle.transport_matrix(g, p0)
            values[q] = t @ raw @ t.conj().T
    missing = [p for p in bundle.points if p not in values]
    if missing:
        raise ValueError(f"seeds cover no orbit containing {missing[0]!r}")
    return symbol_field(bundle, values)


def gamma_symbol_eval(sym: SymbolField, xp: XPoint) -> np.ndarray:
    """The symbol block on one isotype: compress sigma(point) to the rho-subspace."""
    b = sym.bundle
    rep = fiber_rep(b, xp.point)
    if xp.rho.subgroup != rep.carrier:
        raise ValueError("isotype does not belong to the stabilizer at this point")
    basis = isotypical_basis(rep, xp.rho)
    if basis.shape[1] == 0:
        raise ValueError(
            f"isotype {xp.rho.exponents} is absent from the fiber at {xp.point!r}"
        )
    return basis.conj().T @ sym.value(xp.point) @ basis


def _require_margin(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def pointwise_invertible(sym: SymbolField, *, tol: float = 1e-8) -> bool:
    """Plain invertibility of the symbol at every point, same margin rule
    (and ValueError for the same tol) as `alpha_elliptic_check`."""
    _require_margin(tol)
    for p in sym.bundle.points:
        s = np.linalg.svd(sym.value(p), compute_uv=False)
        if s[-1] < tol * max(1.0, float(s[0])):
            return False
    return True


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
    a warning.  A symbol whose equivariance defect exceeds
    COMMUTE_TOL * max(1, max_p |sigma(p)|) raises InputDocumentError at
    /symbol/<p> for the point p where the defect is largest.  A tol that is
    not finite and positive raises ValueError.
    """
    _require_margin(tol)
    b = sym.bundle
    require_valid(b)
    norms = [np.linalg.norm(s, 2, axis=(-2, -1)) for s in sym._stacked.stacks]
    scale = max([1.0] + [float(x) for n in norms for x in n])
    if any(_norms_over(d, COMMUTE_TOL * scale)[0].size for _, d in _symbol_defects(sym)):
        defect, where = _worst_symbol_defect(sym)
        raise InputDocumentError(
            f"/symbol/{where}", f"symbol is not equivariant (defect {defect:.3e})"
        )
    g0 = minimal_isotropy(b)
    x_alpha = build_X_alpha(build_X(b), alpha, g0)

    warnings: list[str] = []
    entries: list[EllipticityEntry] = []
    verdict = True
    if not x_alpha:
        warnings.append(
            "vacuous: no sample isotype is associated to alpha over the minimal isotropy"
        )
    for orb in x_alpha:
        rep_point = orb[0].point
        mins: list[float] = []
        rep_ok = True
        for xp in orb:
            block = gamma_symbol_eval(sym, xp)
            s = np.linalg.svd(block, compute_uv=False)
            smin, smax = float(s[-1]), float(s[0])
            cond = smax / smin if smin > 0 else float("inf")
            entries.append(
                EllipticityEntry(
                    xp.point, xp.rho, rep_point, block.shape[0], smin, cond
                )
            )
            mins.append(smin)
            if xp.point == rep_point:
                rep_ok = smin >= tol * max(1.0, smax)
        spread = max(mins) - min(mins)
        if spread > 1e-9 * max(1.0, max(mins)):
            warnings.append(
                f"orbit of {rep_point!r}: singular values spread by {spread:.3e}"
            )
        verdict = verdict and rep_ok
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
    x_orbits = build_X(b)
    by_orbit: dict[tuple[str, ...], list[SubgroupCharacter]] = {}
    for orb in x_orbits:
        key = tuple(xp.point for xp in orb)
        by_orbit.setdefault(key, []).append(orb[0].rho)
    records = [
        PrimRecord(key, key[0], tuple(rhos)) for key, rhos in by_orbit.items()
    ]
    records.sort(key=lambda r: r.representative)
    return tuple(records)


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

    points: list[str] = []
    base: dict[str, str] = {}
    action: dict = {}
    fdim: dict[str, int] = {}
    transport: dict = {}
    for o in range(count):
        stab = g0 if o == 0 else containing[int(rng.integers(len(containing)))]
        v = random_rep(stab, int(rng.integers(1, max_fiber_dim + 1)), rng)
        reps_, locate = coset_table(group, stab)
        ids = [f"o{o}p{j}" for j in range(len(reps_))]
        for j, pid in enumerate(ids):
            points.append(pid)
            base[pid] = pid
            fdim[pid] = v.dim
        for g in group.elements:
            for j, pid in enumerate(ids):
                tgt_j, h = locate[group.op(g, reps_[j])]
                action[(g, pid)] = ids[tgt_j]
                transport[(g, pid)] = v.matrix(h)
    return sample_bundle(group, points, base, action, fdim, transport)


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
    first = True
    for orb in orbits(bundle):
        p0 = orb[0]
        rep = fiber_rep(bundle, p0)
        d = rep.dim
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        sym0 = _group_average(rep, raw, rep) + shift * np.eye(d)
        if kill_isotype and first:
            mv = decompose(rep)
            chars = mv.characters()
            rho = chars[int(rng.integers(len(chars)))]
            p = isotypical_projector(rep, rho)
            sym0 = sym0 @ (np.eye(d) - p)
            first = False
        seeds[p0] = sym0
    return propagate_symbol(bundle, seeds)
