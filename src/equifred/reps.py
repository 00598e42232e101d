"""Unitary representations of finite abelian groups and their isotypical calculus.

Provides character projectors (a decomposition's from one DFT of the stack,
one chosen character's from one weighted sum), multiplicities by numerical
rank, isotypical blocks in a reproducible basis, induction from a subgroup on
a fixed coset transversal, the Frobenius reciprocity map `frobenius_hom_map`
from subgroup intertwiners to maps into the induction, and the kernel/image
split of the isotypical compression on induced endomorphism algebras.

A representation is either dense (`UnitaryRep`, one matrix per element) or
monomial (`MonomialRep`, one permutation with unit phases per element).  The
isotypical basis of a monomial representation is its exact orbit sums; a dense
one goes through its projector and a pivoted Gram-Schmidt.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .groups import (
    Character,
    ElementT,
    Group,
    Subgroup,
    SubgroupCharacter,
    associated,
    character_table,
    characters_of_subgroup,
    coset_table,
    coset_transversal,
    dual_characters,
    element_index,
    full_subgroup,
    trivial_subgroup,
)

CarrierT = Group | Subgroup

# The package's fixed tolerances, one value per decision; `bundles` and `lab`
# import them.
RANK_TOL = 1e-8  # the rank cut of `numerical_rank`, with its x10 refuse band
LAW_TOL = 1e-10  # the structure and law checks of what a constructor is given
COMMUTE_TOL = 1e-8  # the commutation gate of a compression or a symbol, times max(1, norm)


class AmbiguousRankError(ArithmeticError):
    """A singular value fell too close to the rank cut to decide a multiplicity."""


class InternalInconsistencyError(RuntimeError):
    """Two routes to the same quantity disagreed; the result cannot be trusted."""


def carrier_dual(carrier: CarrierT):
    """Characters of a group, or canonical characters of a subgroup."""
    if isinstance(carrier, Group):
        return dual_characters(carrier)
    return characters_of_subgroup(carrier.parent, carrier)


@np.errstate(over="ignore", invalid="ignore")  # a huge or infinite matrix is over every cut
def _norms_over(stack: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the matrices in a stack whose 2-norm exceeds tol, and those norms.

    This is the one Frobenius prefilter: every defect threshold of the
    representation and bundle checks goes through here.  The whole stack gets
    Frobenius norms; only matrices whose Frobenius norm exceeds tol/2 get an
    SVD.  Since |A|_2 <= |A|_F, a matrix below that cut is below tol with room
    to spare for rounding in either norm, so the answer is exactly that of one
    SVD per matrix.  A non-finite matrix is over the cut, at its Frobenius norm.
    """
    fro = np.linalg.norm(stack, axis=(-2, -1))
    cand = _over_half(fro, tol)
    if not cand.size:  # the common case, a valid input
        return cand, fro[cand]
    norms, finite = fro[cand], np.isfinite(stack[cand]).all(axis=(-2, -1))
    norms[finite] = np.linalg.norm(stack[cand[finite]], 2, axis=(-2, -1))
    over = ~finite | (norms > tol)
    return cand[over], norms[over]


def _over_half(fro: np.ndarray, tol: float) -> np.ndarray:
    """Positions of the Frobenius norms above tol/2 (NaN included): the only
    matrices whose 2-norm can exceed tol."""
    return np.flatnonzero(~(fro <= tol / 2))


def _trace_multiplicity(chi: Character | SubgroupCharacter, value: complex) -> int:
    """chi's trace-oracle value (1/|G|) sum_g conj(chi(g)) tr U(g), which
    must be an integer: every route to a multiplicity hands it in here."""
    mult = round(value.real)
    if abs(value - mult) > 1e-8:
        raise InternalInconsistencyError(f"non-integral multiplicity {value}")
    return mult


@dataclass(frozen=True, eq=False)
class UnitaryRep:
    """Unitary representation given by one matrix per carrier element.

    The matrices are held once, as the read-only (|carrier|, dim, dim) `stack`
    in carrier order; `matrices` maps each element to its view into it.
    """

    carrier: CarrierT
    dim: int
    stack: np.ndarray

    @cached_property
    def matrices(self) -> Mapping[ElementT, np.ndarray]:
        return dict(zip(self.carrier.elements, self.stack))

    def matrix(self, g: ElementT) -> np.ndarray:
        return self.matrices[g]

    @property
    def elements(self) -> tuple[ElementT, ...]:
        return self.carrier.elements

    @property
    def traces(self) -> np.ndarray:
        """tr U(g) in carrier order."""
        return np.trace(self.stack, axis1=1, axis2=2)


def unitary_rep(carrier: CarrierT, matrices: Mapping[ElementT, np.ndarray]) -> UnitaryRep:
    """Build a UnitaryRep from one matrix per carrier element, checking them.

    The matrices are copied into one read-only (|carrier|, d, d) stack.
    U(identity) must be I, every U(g) unitary and U(g) U(h) = U(g + h), all to
    tol = LAW_TOL in operator norm; the first failure is raised, in that
    order, the pairs (g, h) in carrier order.  The law is that of a bundle
    over one point, checked by `_law_failures` with the norm bound
    c = sqrt(1 + tol) that unitarity gives.
    """
    elems = carrier.elements
    missing = [g for g in elems if g not in matrices]
    if missing:
        raise ValueError(f"representation is missing matrices for {missing[:3]}...")
    first = np.shape(matrices[elems[0]])
    if len(first) != 2 or first[0] != first[1]:
        raise ValueError(f"matrix for {elems[0]} has shape {first}, expected a square matrix")
    dim = first[0]
    stack = np.empty((len(elems), dim, dim), dtype=complex)
    for i, g in enumerate(elems):
        m = np.asarray(matrices[g], dtype=complex)
        if m.shape != (dim, dim):
            raise ValueError(f"matrix for {g} has shape {m.shape}, expected {(dim, dim)}")
        stack[i] = m
    return _checked_rep(carrier, _ShapeStacks.of(stack))


def _checked_rep(carrier: CarrierT, transports: _ShapeStacks) -> UnitaryRep:
    """`unitary_rep`'s checks, in its order, of the one (|carrier|, d, d) stack
    of transports in carrier order, which the UnitaryRep then keeps."""
    elems = carrier.elements
    if _off_identity(transports, element_index(carrier, [carrier.identity]), LAW_TOL):
        raise ValueError("matrix at the identity is not the identity")
    bad = _non_unitary(transports, LAW_TOL)
    if bad:
        raise ValueError(f"matrix for {elems[bad[0][0]]} is not unitary to {LAW_TOL}")
    one_point = np.zeros((len(elems), 1), dtype=np.intp)
    _require_law(carrier, one_point, transports, math.sqrt(1 + LAW_TOL))
    return _from_stack(carrier, transports.stacks[0])


def _from_stack(carrier: CarrierT, stack: np.ndarray) -> UnitaryRep:
    """The builders' constructor: a UnitaryRep on a fresh (|carrier|, d, d)
    stack in carrier order, made read-only and not checked."""
    stack = np.asarray(stack, dtype=complex)
    stack.setflags(write=False)
    return UnitaryRep(carrier, stack.shape[1], stack)


# ---------------------------------------------------------------------------
# the composition and cocycle laws of an action with transports

# the most matrix entries any one temporary of the law check holds
_LAW_CELLS = 1 << 14


class _ShapeStacks:
    """A list of matrices held as one read-only stack per shape class: the one
    grouping of matrices by shape.  kind[i] names the class of matrix i (one
    kind, one shape); classes are numbered by first appearance.  Matrix i is
    stacks[cls[i]][pos[i]]; members[k] lists, in increasing order, the
    indices that stacks[k] holds, and stack(members[k]) builds it."""

    def __init__(self, kind: Sequence, stack: Callable[[np.ndarray], np.ndarray]):
        # one sort numbers the kinds (integers, or shape tuples as rows)
        _, first, cls = np.unique(np.asarray(kind), axis=0, return_index=True, return_inverse=True)
        self.cls = np.argsort(np.argsort(first))[cls.reshape(-1)]
        self.members = [np.flatnonzero(self.cls == k) for k in range(first.size)]
        self.pos = np.empty(len(self.cls), dtype=np.intp)
        for idx in self.members:
            self.pos[idx] = np.arange(idx.size)
        self.stacks = [stack(idx) for idx in self.members]
        for arr in (self.cls, self.pos, *self.members, *self.stacks):
            arr.setflags(write=False)

    @classmethod
    def of(cls, mats: Sequence[np.ndarray]) -> _ShapeStacks:
        """The matrices of a list, or of an (n, a, b) array, by shape."""
        if isinstance(mats, np.ndarray):  # one stack, taken as it is
            return cls([0] * len(mats), lambda idx: mats)
        return cls([m.shape for m in mats], lambda idx: np.stack([mats[i] for i in idx]))

    def take(self, idx: np.ndarray) -> np.ndarray:
        """The matrices at the (non-empty) indices idx, which must share one shape."""
        return self.stacks[self.cls[idx[0]]].take(self.pos[idx], axis=0)


def _law_failures(
    carrier: CarrierT, table: np.ndarray, transports: _ShapeStacks, bound: float | None
) -> tuple[list, list]:
    """Where an action of the carrier on points, with transports between
    fibers, breaks the composition law or the cocycle law.

    table[g, p] is the index of g·p, g indexing carrier.elements; transports
    holds T(g, p) at g * points + p; bound is a c >= |T(g, p)|_2 for all
    (g, p), or None.  Returns the sorted composition failures (g, h, p, g+h),
    where g·(h·p) != (g+h)·p, and the sorted cocycle failures (g, h, p, g+h,
    what), where the two sides of T(g, h·p) T(h, p) = T(g+h, p) differ in
    shape or by over LAW_TOL in 2-norm.  A representation is a bundle over
    one point; a monomial one is a bundle of lines over its basis indices.

    The Cayley edges (g, e_i, p), e_i the standard generators, go first.
    Take h = h' + e_i on a path of L <= sum_i (n_i - 1) steps and q = e_i·p.
    If 0·p = p and every edge keeps the action law, g·(h·p) = g·(h'·q) =
    (g+h')·q = (g+h)·p by induction, so the integer edge check is exact.
    For D(g, h, p) = T(g, h·p) T(h, p) - T(g+h, p) the same step gives
    D(g, h, p) = D(g+h', e_i, p) + D(g, h', q) T(e_i, p) - T(g, h·p) D(h', e_i, p);
    with d0 = max_p |T(0, p) - I|_2 and e the largest edge defect,

        |D(g, h, p)|_2 <= c^(L+1) d0 + (1 + c) e sum_{j<L} c^j
                       <= c^(L+1) (d0 + 2 L e).

    So when d0 and e are at most tol / (2 (1 + 2L) c^(L+1)), about
    tol / (4 sum_i n_i) for c near 1, every pair is within tol/2, too far
    from tol for rounding to flip a decision, and both laws hold.  Otherwise,
    and always on a Subgroup carrier (no standard generators) or without a
    bound, every pair is checked.  Every threshold goes through `_norms_over`.
    """
    order, n_pts = table.shape
    residues = carrier.residues

    def plus(h: int) -> np.ndarray:  # carrier index of g + h for every g
        return element_index(carrier, residues + residues[h])

    if isinstance(carrier, Group) and bound is not None:
        steps = sum(n - 1 for n in carrier.orders)
        # tol / (2 (1 + 2L) c^(L+1)), without overflow
        cut = LAW_TOL / (2 * (1 + 2 * steps)) * math.exp(-(steps + 1) * math.log(bound))
        e, *gens = element_index(carrier, np.eye(carrier.rank + 1, carrier.rank, -1))
        fixed = e * n_pts + np.arange(n_pts)
        if (table[e] == np.arange(n_pts)).all() and not _off_identity(transports, fixed, cut):
            if not any(_pair_failures(table, transports, plus, gens, cut)):
                return [], []
    composition, cocycle = _pair_failures(table, transports, plus, range(order), LAW_TOL)
    return sorted(composition), sorted(cocycle)


@np.errstate(over="ignore", invalid="ignore")  # a huge or infinite T is over every cut
def _pair_failures(table: np.ndarray, transports: _ShapeStacks, plus, hs, tol: float):
    """The failures of `_law_failures` at (g, h) for every g and every h in
    hs, unsorted, the cocycle decided at tol.  One h at a time, the (g, p)
    are batched in runs whose three transports each share one shape, and
    each run is cut so that no stack holds more than _LAW_CELLS entries."""
    order, n_pts = table.shape
    composition, cocycle = [], []
    for h in hs:
        gh = plus(h)
        moved = table.take(table[h], axis=1) != table.take(gh, axis=0)
        composition += [(g, h, p, gh[g]) for g, p in np.argwhere(moved)]
        # T(g, h·p), T(h, p) and T(g+h, p), at position g * n_pts + p
        left = (np.arange(order)[:, None] * n_pts + table[h]).ravel()
        right = np.tile(h * n_pts + np.arange(n_pts), order)
        whole = (gh[:, None] * n_pts + np.arange(n_pts)).ravel()
        n_cls, cls = len(transports.stacks), transports.cls
        if n_cls == 1:  # one shape (a representation, a monomial one): one run
            runs = [np.arange(order * n_pts)]
        else:
            run = (cls[left] * n_cls + cls[right]) * n_cls + cls[whole]
            runs = (np.flatnonzero(run == r) for r in np.flatnonzero(np.bincount(run)))
        for sel in runs:
            shapes = [transports.stacks[cls[x[sel[0]]]].shape[1:] for x in (left, right, whole)]
            product = (shapes[0][0], shapes[1][1])
            if product != shapes[2]:
                what = f"cocycle shapes {product} and {shapes[2]} differ"
                hits = [(j, what) for j in sel]
            else:
                step = max(1, _LAW_CELLS // max(1, *(math.prod(s) for s in shapes)))
                hits = []
                for part in (sel[i:i + step] for i in range(0, sel.size, step)):
                    defect = transports.take(left[part]) @ transports.take(right[part])
                    defect -= transports.take(whole[part])
                    at, err = _norms_over(defect, tol)
                    hits += [(j, f"cocycle defect {x:.3e}") for j, x in zip(part[at], err)]
            cocycle += [(j // n_pts, h, j % n_pts, gh[j // n_pts], what) for j, what in hits]
    return composition, cocycle


def _off_identity(transports: _ShapeStacks, idx: np.ndarray, tol: float) -> list:
    """The indices among idx whose transport is not square or is farther
    than tol from I, in increasing order."""
    off = []
    for k, t in enumerate(transports.stacks):
        sel = idx[transports.cls[idx] == k]
        if t.shape[1] != t.shape[2]:
            off += list(sel)
        elif sel.size:
            off += list(sel[_norms_over(t[transports.pos[sel]] - np.eye(t.shape[1]), tol)[0]])
    return sorted(off)


@np.errstate(over="ignore", invalid="ignore")  # a huge or infinite T is over every cut
def _non_unitary(transports: _ShapeStacks, tol: float) -> list:
    """(index, |T^* T - I|_2) of every transport over tol, by index, in
    batches of at most _LAW_CELLS entries."""
    out = []
    for idx, t in zip(transports.members, transports.stacks):
        step = max(1, _LAW_CELLS // max(1, *t.shape[1:]) ** 2)  # T and T^* T both fit
        for i in range(0, len(t), step):
            part = t[i:i + step]
            at, err = _norms_over(part.conj().transpose(0, 2, 1) @ part - np.eye(t.shape[2]), tol)
            out += zip(idx[i + at], err)
    return sorted(out)


def _require_law(carrier: CarrierT, table: np.ndarray, transports: _ShapeStacks, c: float):
    """Raise the representation laws' ValueError at the first failing (g, h)
    in carrier order, composition and cocycle alike."""
    failures = [x[:2] for found in _law_failures(carrier, table, transports, c) for x in found]
    if failures:
        g, h = (carrier.elements[i] for i in min(failures))
        raise ValueError(f"homomorphism law fails at ({g}, {h}) beyond {LAW_TOL}")


class MonomialRep:
    """Representation in which every element permutes the basis up to unit phases.

    Row i of `perm` and `phase` belongs to the i-th carrier element g:
    U(g) e_j = phase[i, j] e_{perm[i, j]}.  Dense matrices are built only on
    request by `matrix`.  Construction checks that each row of `perm` is a
    permutation, the phases unit modulus to LAW_TOL (a NaN has none), and
    the homomorphism law by `_law_failures`, for lines over the indices:
    the permutations compose exactly, the phases to LAW_TOL.
    """

    def __init__(self, carrier: CarrierT, perm: np.ndarray, phase: np.ndarray):
        elems = carrier.elements
        perm = np.array(perm, dtype=np.intp)
        phase = np.array(phase, dtype=complex)
        if perm.ndim != 2 or perm.shape[0] != len(elems) or phase.shape != perm.shape:
            raise ValueError(
                f"perm and phase need shape ({len(elems)}, d), got {perm.shape} and {phase.shape}"
            )
        if (np.sort(perm, axis=1) != np.arange(perm.shape[1])).any():
            raise ValueError("every row of perm must be a permutation of range(d)")
        if not (np.abs(np.abs(phase) - 1.0) <= LAW_TOL).all():
            raise ValueError(f"phases are not unit modulus to {LAW_TOL}")
        # U(g) U(h) e_j = phase[h, j] phase[g, perm[h, j]] e_{perm[g, perm[h, j]]}
        _require_law(carrier, perm, _ShapeStacks.of(phase.reshape(-1, 1, 1)), 1 + LAW_TOL)
        perm.setflags(write=False)
        phase.setflags(write=False)
        self.carrier, self.perm, self.phase = carrier, perm, phase
        self._row = {g: i for i, g in enumerate(elems)}

    @property
    def dim(self) -> int:
        return self.perm.shape[1]

    @property
    def elements(self) -> tuple[ElementT, ...]:
        return self.carrier.elements

    def matrix(self, g: ElementT) -> np.ndarray:
        i = self._row[g]
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[self.perm[i], np.arange(self.dim)] = self.phase[i]
        return m

    @property
    def traces(self) -> np.ndarray:
        """tr U(g) in carrier order: the sum of the phases at the indices g fixes."""
        return np.where(self.perm == np.arange(self.dim), self.phase, 0.0).sum(axis=1)

    def multiplicity(self, chi: Character | SubgroupCharacter) -> int:
        """Multiplicity of chi by the trace oracle (1/|G|) sum_g conj(chi(g)) tr U(g)."""
        value = np.vdot(_character_row(self, chi), self.traces) / len(self.elements)
        return _trace_multiplicity(chi, value)


RepT = UnitaryRep | MonomialRep


@dataclass(frozen=True, eq=False)
class CooMatrix:
    """A size x size matrix as COO triplets: vals[i] sits at (rows[i], cols[i]),
    and the values at a repeated position add up, in triplet order."""

    size: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def dense(self) -> np.ndarray:
        out = np.zeros((self.size, self.size), dtype=complex)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out


# ---------------------------------------------------------------------------
# builders


def character_rep(chi: Character | SubgroupCharacter) -> UnitaryRep:
    """One-dimensional representation with the given character."""
    if isinstance(chi, SubgroupCharacter):
        carrier: CarrierT = chi.subgroup
    else:
        carrier = chi.group
    return _from_stack(carrier, character_table([chi], carrier.elements).reshape(-1, 1, 1))


def diagonal_rep(carrier: CarrierT, chars: Sequence[Character | SubgroupCharacter]) -> UnitaryRep:
    """Direct sum of one-dimensional representations, as diagonal matrices."""
    k = len(chars)
    stack = np.zeros((len(carrier.elements), k, k), dtype=complex)
    if k:  # the table needs a character to find its group
        stack[:, np.arange(k), np.arange(k)] = character_table(chars, carrier.elements).T
    return _from_stack(carrier, stack)


def regular_rep(group: Group) -> UnitaryRep:
    """Permutation representation of the group on itself by translation: the
    induction of the trivial character of the trivial subgroup."""
    return induce(character_rep(carrier_dual(trivial_subgroup(group))[0]), group)


def conjugate_rep(rep: UnitaryRep, u: np.ndarray) -> UnitaryRep:
    """Conjugate every matrix by a fixed unitary u."""
    return _from_stack(rep.carrier, u @ rep.stack @ u.conj().T)


def restrict_rep(rep: UnitaryRep, sub: Subgroup) -> UnitaryRep:
    """Restriction of a group representation to a subgroup carrier."""
    if not isinstance(rep.carrier, Group) or sub.parent != rep.carrier:
        raise ValueError("can only restrict a full-group representation to its subgroup")
    return _from_stack(sub, rep.stack[element_index(rep.carrier, sub.residues)])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_rep(carrier: CarrierT, dim: int, rng: np.random.Generator) -> UnitaryRep:
    """Random representation: random character multiset conjugated by a Haar unitary."""
    dual = carrier_dual(carrier)
    chars = [dual[int(i)] for i in rng.integers(0, len(dual), size=dim)]
    return conjugate_rep(diagonal_rep(carrier, chars), haar_unitary(dim, rng))


# ---------------------------------------------------------------------------
# rank decisions and the reproducible range basis


def _rank_cut(s: np.ndarray) -> int:
    """The rank cut of `numerical_rank`, on descending singular values."""
    if not s.size:
        return 0
    thresh = RANK_TOL * max(1.0, float(s[0]))
    near = s[(s >= thresh / 10) & (s <= thresh * 10)]
    if near.size:
        raise AmbiguousRankError(
            f"singular value {near[0]:.3e} within a factor 10 of cut {thresh:.3e}"
        )
    return int(np.count_nonzero(s > thresh))


def numerical_rank(a: np.ndarray) -> int:
    """Rank by singular values, refusing to decide ambiguous cases.

    Values below RANK_TOL * max(1, s_max) count as zero.  A singular value
    within a factor 10 of that threshold (either side) raises
    AmbiguousRankError instead of silently choosing.  An empty matrix has rank 0.
    """
    return _rank_cut(np.linalg.svd(a, compute_uv=False))


def deterministic_range_basis(a: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of the column range, reproducible across runs.

    Pivoted modified Gram-Schmidt over the columns of `a`: at each step the
    lowest-index column whose residual norm is within a relative 1e-12 of the
    largest is taken, normalized, re-orthogonalized once, and removed from the
    rest.  The tie band keeps the pivot independent of rounding, so serialized
    output built on this basis is byte-stable.  A residual norm at most
    RANK_TOL before `rank` columns are taken raises AmbiguousRankError.

    Returns an (n, rank) array.
    """
    work = np.array(a, dtype=complex)
    n = work.shape[0]
    basis = np.zeros((n, rank), dtype=complex)
    for step in range(rank):
        norms = np.linalg.norm(work, axis=0)
        j = int(np.argmax(norms >= norms.max() * (1.0 - 1e-12)))
        if norms[j] <= RANK_TOL:
            raise AmbiguousRankError(
                f"range collapsed after {step} columns, expected rank {rank}"
            )
        q = work[:, j] / norms[j]
        if step:
            prev = basis[:, :step]
            q = q - prev @ (prev.conj().T @ q)
            q = q / np.linalg.norm(q)
        basis[:, step] = q
        work -= np.outer(q, q.conj() @ work)
    return basis


# ---------------------------------------------------------------------------
# isotypical calculus


def _character_row(rep: RepT, chi: Character | SubgroupCharacter) -> np.ndarray:
    """chi's row of the character table: chi at every carrier element, in
    carrier order; chi must live on the carrier."""
    if isinstance(chi, SubgroupCharacter):
        if chi.subgroup != rep.carrier:
            raise ValueError("character belongs to a different subgroup than the carrier")
    elif chi.group != rep.carrier:
        raise ValueError("character belongs to a different group than the carrier")
    return character_table([chi], rep.elements)[0]


def isotypical_projector(rep: RepT, chi: Character | SubgroupCharacter) -> np.ndarray:
    """Orthogonal projector onto the chi-isotypical subspace.

    The character coefficient enters conjugated, so the projector averages the
    action against chi and is idempotent and Hermitian for unitary input.
    """
    return _projectors(rep, _character_row(rep, chi)[None])[0]


def _projectors(rep: RepT, table: np.ndarray) -> np.ndarray:
    """The projectors sum_g conj(chi(g)) U(g) / |G|, one per row chi of a
    (k, |G|) block of character values in carrier order, as (k, d, d).

    A dense stack takes one matrix product.  A MonomialRep takes one g-major
    scatter of the weighted phases, so each entry adds its terms in carrier
    order, as a loop over the elements would, and no dense stack is built."""
    n, d = len(rep.elements), rep.dim
    if isinstance(rep, MonomialRep):
        out = np.zeros((len(table), d, d), dtype=complex)
        at = (np.arange(len(table))[:, None, None], rep.perm, np.arange(d))
        np.add.at(out, at, table.conj()[:, :, None] * rep.phase)
    else:
        out = (table.conj() @ rep.stack.reshape(n, d * d)).reshape(len(table), d, d)
    out /= n
    return out


def _orbit_sums(rep: MonomialRep, chi: Character | SubgroupCharacter):
    """Normalized chi-weighted orbit sums of a monomial representation, one
    nonzero per index: (leads, col, coef).

    On the stabilizer H of an orbit's least index j the phases at j form a
    character of H.  The orbit carries a chi-isotypical vector exactly when
    chi agrees with that character on H, and the vector is
    sum_g conj(chi(g)) U(g) e_j, whose coefficient at j is real and positive.
    The orbits partition the indices, so index i has the coefficient coef[i]
    in column col[i] of the basis, or col[i] = -1 off the isotype.  Columns
    come smaller orbits first, then by least index (leads[c] is column c's):
    the order in which pivoted Gram-Schmidt picks the projector's columns.
    The count is checked against the trace oracle.
    """
    order, d = rep.perm.shape
    values = _character_row(rep, chi)
    weights = np.conj(values)[:, None] * rep.phase
    fixed = rep.perm == np.arange(d)
    stabilizer = fixed.sum(axis=0)
    on_stabilizer = np.where(fixed, weights, 0.0).sum(axis=0)  # |H| or 0
    leads = np.flatnonzero(rep.perm.min(axis=0) == np.arange(d))
    leads = leads[np.abs(on_stabilizer[leads]) > stabilizer[leads] / 2]
    expected = _trace_multiplicity(chi, np.vdot(values, rep.traces) / order)
    if leads.size != expected:
        raise InternalInconsistencyError(
            f"{leads.size} orbit sums carry the character, the trace oracle says {expected}"
        )
    leads = leads[np.lexsort((leads, order // stabilizer[leads]))]
    col = np.full(d, -1)
    col[rep.perm[:, leads]] = np.arange(leads.size)
    coef = np.zeros(d, dtype=complex)
    np.add.at(coef, rep.perm[:, leads], weights[:, leads])
    on = col >= 0
    norms = np.sqrt(np.bincount(col[on], (coef[on].conj() * coef[on]).real, leads.size))
    coef[on] /= norms[col[on]]
    return leads, col, coef


def _orbit_sum_basis(rep: MonomialRep, chi: Character | SubgroupCharacter) -> np.ndarray:
    """The orbit sums of `_orbit_sums` as a dense (d, k) basis."""
    leads, col, coef = _orbit_sums(rep, chi)
    basis = np.zeros((rep.dim, leads.size), dtype=complex)
    on = np.flatnonzero(col >= 0)
    basis[on, col[on]] = coef[on]
    return basis


def monomial_block(
    rep: MonomialRep, op: CooMatrix, chi: Character | SubgroupCharacter
) -> tuple[np.ndarray, CooMatrix]:
    """Compress a sparse operator to the chi-isotypical block of a monomial rep.

    Returns (leads, block): the block B^H A B in the orbit-sum basis B of
    `isotypical_basis`, as triplets in its column order, and the least index
    of each column's orbit.  Since B has one nonzero per row, an entry v of A
    at (i, j) lands at (col[i], col[j]) as conj(coef[i]) v coef[j]; this is
    O(nnz) work and builds no dense basis.  The operator is taken as given:
    check it commutes with the action first (`require_intertwining`).
    """
    leads, col, coef = _orbit_sums(rep, chi)
    on = (col[op.rows] >= 0) & (col[op.cols] >= 0)
    r, c = op.rows[on], op.cols[on]
    vals = coef[r].conj() * op.vals[on] * coef[c]
    return leads, CooMatrix(leads.size, col[r], col[c], vals)


def isotypical_basis(rep: RepT, chi: Character | SubgroupCharacter) -> np.ndarray:
    """Reproducible orthonormal basis of the chi-isotypical subspace.

    A MonomialRep gets its exact orbit sums; a dense UnitaryRep gets the
    pivoted Gram-Schmidt basis of its projector at the numerical rank.
    """
    if isinstance(rep, MonomialRep):
        return _orbit_sum_basis(rep, chi)
    p = isotypical_projector(rep, chi)
    return deterministic_range_basis(p, numerical_rank(p))


@dataclass(frozen=True)
class MultiplicityVector:
    """Multiplicities of the characters appearing in a representation.

    Only characters with positive multiplicity are stored; lookups of absent
    characters return 0.  The total always equals the dimension.
    """

    entries: tuple
    dim: int

    def __getitem__(self, chi) -> int:
        for key, mult in self.entries:
            if key == chi:
                return mult
        return 0

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def characters(self) -> tuple:
        return tuple(k for k, _ in self.entries)


def _dual_projectors(rep: RepT) -> np.ndarray:
    """Every projector sum_h conj(chi(h)) U(h) / |H| of the carrier H, in dual
    order: one in-place forward DFT (numpy's sign is conj chi) of the grid of
    H's group holding U(h), or a MonomialRep's phases, at h and zeros elsewhere,
    read in group order for a Group and at the representatives for a Subgroup."""
    carrier, d = rep.carrier, rep.dim
    group = getattr(carrier, "parent", carrier)
    out = np.zeros((group.order, d, d), dtype=complex)
    at = element_index(group, carrier.residues)
    if isinstance(rep, UnitaryRep):
        out[at] = rep.stack
    else:
        out[at[:, None], rep.perm, np.arange(d)] = rep.phase
    grid = out.reshape(group.orders + (d, d))
    np.fft.fftn(grid, axes=tuple(range(group.rank)), out=grid)
    if group is not carrier:
        out = out[element_index(group, [chi.exponents for chi in carrier_dual(carrier)])]
    out /= carrier.order
    return out


def _isotypes(rep: RepT) -> list[tuple]:
    """(chi, multiplicity, projector) of each carrier character present, in
    dual order.  The projectors come from `_dual_projectors`, and each
    trace-oracle value (1/|G|) sum_g conj(chi(g)) tr U(g) is its projector's
    trace.  Each rank is cut by `numerical_rank`'s rule on the descending
    moduli of the projector's eigenvalues (an orthogonal projector's singular
    values): an ambiguous rank raises AmbiguousRankError, and a rank other
    than the (integral) trace oracle's, or a total other than the dimension,
    raises InternalInconsistencyError."""
    out = []
    projectors = _dual_projectors(rep)
    moduli = np.sort(np.abs(np.linalg.eigvalsh(projectors)), axis=1)[:, ::-1]
    oracle = np.trace(projectors, axis1=1, axis2=2)
    for chi, p, s, value in zip(carrier_dual(rep.carrier), projectors, moduli, oracle):
        mult = _rank_cut(s)
        expected = _trace_multiplicity(chi, value)
        if mult != expected:
            raise InternalInconsistencyError(f"projector rank {mult} for the character "
                                             f"{chi.exponents}, the trace oracle says {expected}")
        if mult:
            out.append((chi, mult, p))
    total = sum(k for _, k, _ in out)
    if total != rep.dim:
        raise InternalInconsistencyError(f"multiplicities sum to {total}, dimension is {rep.dim}")
    return out


def decompose(rep: RepT) -> MultiplicityVector:
    """Multiplicity of every carrier character: the ranks `_isotypes` cuts."""
    return MultiplicityVector(tuple((chi, k) for chi, k, _ in _isotypes(rep)), rep.dim)


def _group_average(target: RepT, x: np.ndarray, source: RepT) -> np.ndarray:
    """The two-sided average sum_h T(h) x S(h)^* / |H| over the elements h of
    T's carrier, summed one matrix at a time in carrier order; S = source may
    act on a larger carrier."""
    return sum(
        target.matrix(h) @ x @ source.matrix(h).conj().T for h in target.elements
    ) / len(target.elements)


def require_intertwining(
    what: str,
    target: RepT,
    f: np.ndarray | CooMatrix,
    source: RepT | None = None,
    *,
    tol: float,
) -> None:
    """Raise ValueError(f"{what} (defect ...)") when the intertwining defect of f
    exceeds tol * max(1, |f|_2).

    Each commutator goes through the Frobenius prefilter `_norms_over`, so an
    SVD norm is taken only of a commutator whose Frobenius norm exceeds tol/2,
    and |f|_2 only when the defect exceeds tol.  The decision and the printed
    defect are those of one SVD norm per commutator, max_g |T(g) f - f S(g)|_2.

    A sparse f (a CooMatrix commuting with a MonomialRep target) is
    prefiltered without densifying: for unitary U, |U A - A U|_F equals
    |U A U^-1 - A|_F, and U A U^-1 has the entry phase[i] v conj(phase[j]) at
    (perm[i], perm[j]) for each entry v of A at (i, j).  If no such norm
    exceeds tol/2 every defect is below tol and f passes; otherwise f is
    densified and decided as above."""
    if isinstance(f, CooMatrix):
        if not _over_half(_sparse_commutator_norms(target, f), tol).size:
            return
        f = f.dense()
    source = target if source is None else source
    # only the elements of T's carrier are visited; S may act on a larger one
    over = [
        x for g in target.elements
        for x in _norms_over((target.matrix(g) @ f - f @ source.matrix(g))[None], tol)[1]
    ]
    if over and max(over) > tol * max(1.0, float(np.linalg.norm(f, 2))):
        raise ValueError(f"{what} (defect {max(over):.3e})")


def _sparse_commutator_norms(rep: MonomialRep, a: CooMatrix) -> np.ndarray:
    """|U(g) A U(g)^-1 - A|_F for every g, from the triplets of A."""
    order, d = rep.perm.shape
    g = np.arange(order)[:, None]
    moved = (g * d + rep.perm[:, a.rows]) * d + rep.perm[:, a.cols]
    kept = np.broadcast_to((g * d + a.rows) * d + a.cols, moved.shape)
    vals = rep.phase[:, a.rows] * a.vals * rep.phase[:, a.cols].conj()
    vals = np.concatenate([vals, np.broadcast_to(-a.vals, vals.shape)], axis=1).ravel()
    keys, at = np.unique(np.concatenate([moved, kept], axis=1), return_inverse=True)
    at = at.ravel()
    summed = np.bincount(at, vals.real) + 1j * np.bincount(at, vals.imag)
    return np.sqrt(np.bincount(keys // (d * d), (summed.conj() * summed).real, order))


def pi_alpha_restrict(
    rep: RepT, m: np.ndarray, chi: Character | SubgroupCharacter
) -> np.ndarray:
    """Compress an equivariant matrix to the chi-isotypical block.

    The matrix must commute with the representation; the defect is measured
    relative to max(1, |m|) and rejected beyond COMMUTE_TOL.  The block is
    expressed in the reproducible isotypical basis, so repeated runs give
    identical entries.
    """
    m = np.asarray(m, dtype=complex)
    require_intertwining("matrix does not commute with the action", rep, m, tol=COMMUTE_TOL)
    basis = isotypical_basis(rep, chi)
    return basis.conj().T @ m @ basis


# ---------------------------------------------------------------------------
# induction


def _as_subgroup(carrier: CarrierT, gamma: Group) -> Subgroup:
    if isinstance(carrier, Group):
        if carrier != gamma:
            raise ValueError("carrier group differs from the induction target")
        return full_subgroup(gamma)
    if carrier.parent != gamma:
        raise ValueError("carrier subgroup does not sit inside the induction target")
    return carrier


def induce(rep: UnitaryRep, gamma: Group) -> UnitaryRep:
    """Induced representation on a fixed coset transversal.

    The underlying space is indexed by (coset, fiber) pairs over the
    lexicographically least coset representatives, in that order.  Each group
    element acts as a block permutation of the cosets twisted by the subgroup
    representation; the dimension is the index times dim(rep).
    """
    reps_, table = coset_table(gamma, _as_subgroup(rep.carrier, gamma))
    n, r, d = gamma.order, len(reps_), rep.dim
    j, h = np.moveaxis(table, 2, 0)  # g + x_i = x_j + h: block (j, i) of U(g) is rep(h)
    stack = np.zeros((n, r, d, r, d), dtype=complex)
    stack[np.arange(n)[:, None], j, :, np.arange(r), :] = rep.stack[h]
    return _from_stack(gamma, stack.reshape(n, r * d, r * d))


def frobenius_hom_map(
    f: np.ndarray,
    source: UnitaryRep,
    target: UnitaryRep,
) -> np.ndarray:
    """Turn a subgroup-equivariant map source -> target into a full-group map
    source -> induced(target).

    `source` is a representation of the full group, `target` one of the
    subgroup; `f` maps the source space to the target space and must intertwine
    the subgroup actions to LAW_TOL relative to max(1, |f|).  The result averages f against the subgroup and
    composes with the transversal translates, blocked per coset in the same
    indexing that `induce` uses.
    """
    if not isinstance(source.carrier, Group):
        raise ValueError("source must be a representation of the full group")
    gamma = source.carrier
    sub = _as_subgroup(target.carrier, gamma)
    f = np.asarray(f, dtype=complex)
    if f.shape != (target.dim, source.dim):
        raise ValueError(
            f"map has shape {f.shape}, expected {(target.dim, source.dim)}"
        )
    require_intertwining(
        "map does not intertwine the subgroup actions", target, f, source, tol=LAW_TOL
    )
    averaged = _group_average(target, f, source)
    minus = element_index(gamma, -np.array(coset_transversal(gamma, sub)))
    return np.vstack([averaged @ m for m in source.stack[minus]])


# ---------------------------------------------------------------------------
# commutants and the induced-endomorphism split


def null_space_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis with the same rank cut as numerical_rank."""
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a)
    return vh[_rank_cut(s):].conj().T


def intertwiner_basis(source: UnitaryRep, target: UnitaryRep) -> list[np.ndarray]:
    """Basis of maps f with f source(g) = target(g) f, by a direct linear solve.

    This is the independent route to homomorphism-space dimensions: it stacks
    the commutation constraints for every carrier element and extracts the
    null space, never touching character projectors.
    """
    if source.carrier.elements != target.carrier.elements:
        raise ValueError("intertwiners need a common carrier element set")
    ds, dt = source.dim, target.dim
    eye_s, eye_t = np.eye(ds), np.eye(dt)
    # row-major vec: vec(A f B) = (A kron B^T) vec(f)
    rows = [np.kron(eye_t, s.T) - np.kron(t, eye_s) for s, t in zip(source.stack, target.stack)]
    null = null_space_basis(np.vstack(rows))
    return [null[:, i].reshape(dt, ds) for i in range(null.shape[1])]


def commutant_factors(rep: UnitaryRep) -> tuple:
    """The isotypes present in a representation with their multiplicities.

    For an abelian carrier the commutant is a direct sum of full matrix
    algebras, one k_j x k_j block per isotype present with multiplicity k_j;
    this returns the (character, k_j) list sorted by character.
    """
    return tuple(decompose(rep).entries)


@dataclass(frozen=True)
class KerImSplit:
    """Which commutant factors die and which survive under an isotypical
    compression of the induced endomorphism algebra."""

    factors: tuple  # (SubgroupCharacter, multiplicity) pairs
    ker_indices: tuple[int, ...]
    im_indices: tuple[int, ...]


def ker_im_pi_alpha(
    sub: Subgroup,
    gamma: Group,
    beta: UnitaryRep,
    alpha: Character,
) -> KerImSplit:
    """Split the commutant factors of beta by the alpha-compression on the induction.

    Predicts that a factor survives exactly when its isotype agrees with alpha
    on the subgroup, then verifies the prediction by brute force: every factor
    is spanned inside the induced endomorphism algebra and compressed to the
    alpha-block, and the observed kernel must match.  A mismatch raises
    InternalInconsistencyError.
    """
    if beta.carrier != sub:
        raise ValueError("beta must be a representation of the given subgroup")
    factors = commutant_factors(beta)
    predicted_im = tuple(
        j for j, (rho, _) in enumerate(factors) if associated(alpha, rho, sub)
    )
    predicted_ker = tuple(
        j for j in range(len(factors)) if j not in predicted_im
    )

    ind = induce(beta, gamma)
    basis_a = isotypical_basis(ind, alpha)
    index = gamma.order // sub.order
    eye_cosets = np.eye(index)

    observed_im = []
    observed_ker = []
    for j, (rho, k) in enumerate(factors):
        bj = isotypical_basis(beta, rho)
        compressed = []
        for a, b in itertools.product(range(k), repeat=2):
            t = np.outer(bj[:, a], bj[:, b].conj())
            big = np.kron(eye_cosets, t)
            block = basis_a.conj().T @ big @ basis_a
            compressed.append(block.reshape(-1))
        rank = numerical_rank(np.array(compressed))
        if rank == k * k:
            observed_im.append(j)
        elif rank == 0:
            observed_ker.append(j)
        else:
            raise InternalInconsistencyError(
                f"factor {j} compressed to rank {rank}, expected 0 or {k * k}"
            )
    if tuple(observed_im) != predicted_im or tuple(observed_ker) != predicted_ker:
        raise InternalInconsistencyError(
            f"association predicted im={predicted_im}, observed im={tuple(observed_im)}"
        )
    return KerImSplit(factors, predicted_ker, predicted_im)
