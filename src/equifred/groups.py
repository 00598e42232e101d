"""Finite abelian groups, their subgroups, characters, and character restriction.

A group is a product of cyclic factors Z_{n_1} x ... x Z_{n_k}; elements are
tuples of residues or int64 rows, placed by `element_index` alone: at their
mixed-radix ravel in a group, among the sorted ravels in a subgroup.  A
subgroup derives everything from the Hermite normal form of its lattice
(Cohen, A Course in Computational Algebraic Number Theory, 2.4): its elements
are sums of multiples of the rows, its coset transversal is the box of the
leading entries, and a coset's least member is k reduction steps.  Characters
are compared in exact integer arithmetic; complex values appear only when a
numeric evaluation is requested.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, cached_property
from typing import Iterable, Sequence

import numpy as np

ElementT = tuple  # residue tuple, one entry per cyclic factor


@dataclass(frozen=True)
class Group:
    """Direct product of cyclic groups, written additively."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.orders, tuple):
            object.__setattr__(self, "orders", tuple(self.orders))
        if len(self.orders) == 0:
            raise ValueError("group needs at least one cyclic factor")
        for n in self.orders:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"cyclic factor orders must be positive integers, got {n!r}")

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @cached_property
    def elements(self) -> tuple[ElementT, ...]:
        """All elements in lexicographic order."""
        return tuple(itertools.product(*(range(n) for n in self.orders)))

    @cached_property
    def residues(self) -> np.ndarray:
        """The elements as one read-only (|G|, k) int64 array, in the same order."""
        out = np.indices(self.orders, dtype=np.int64).reshape(self.rank, -1).T
        out.setflags(write=False)
        return out

    @property
    def identity(self) -> ElementT:
        return (0,) * len(self.orders)

    def element(self, residues: Sequence[int]) -> ElementT:
        """Canonicalize a residue tuple (componentwise reduction)."""
        if len(residues) != len(self.orders):
            raise ValueError(
                f"element has {len(residues)} coordinates, group has {len(self.orders)} factors"
            )
        return tuple(int(r) % n for r, n in zip(residues, self.orders))

    def contains(self, g: ElementT) -> bool:
        return (
            len(g) == len(self.orders)
            and all(isinstance(x, int) and 0 <= x < n for x, n in zip(g, self.orders))
        )

    def op(self, a: ElementT, b: ElementT) -> ElementT:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def inv(self, a: ElementT) -> ElementT:
        return tuple((-x) % n for x, n in zip(a, self.orders))


def make_group(orders: Sequence[int]) -> Group:
    """Build Z_{n_1} x ... x Z_{n_k} from a list of cyclic orders."""
    return Group(tuple(int(n) for n in orders))


@dataclass(frozen=True)
class Subgroup:
    """Subgroup stored as its canonical sorted element list."""

    parent: Group
    elements: tuple[ElementT, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.elements, tuple):
            object.__setattr__(self, "elements", tuple(self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> ElementT:
        return self.parent.identity

    @cached_property
    def residues(self) -> np.ndarray:
        """The elements as one read-only (|H|, k) int64 array, in the same order."""
        out = np.array(self.elements, dtype=np.int64).reshape(self.order, self.parent.rank)
        out.setflags(write=False)
        return out

    @cached_property
    def basis(self) -> np.ndarray:
        """The read-only Hermite normal form of the elements' lattice (`_hnf`)."""
        return _hnf(self.parent.orders, self.residues)

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.elements)

    def __hash__(self) -> int:
        # a frozenset keeps its hash, so a subgroup as a cache key costs O(1)
        return hash((self.parent, self._member_set))

    def contains(self, g: ElementT) -> bool:
        return g in self._member_set

    def op(self, a: ElementT, b: ElementT) -> ElementT:
        return self.parent.op(a, b)

    def inv(self, a: ElementT) -> ElementT:
        return self.parent.inv(a)

    def is_subgroup_of(self, other: "Subgroup") -> bool:
        return self.parent == other.parent and self._member_set <= other._member_set


def element_index(carrier: Group | Subgroup, residues) -> np.ndarray:
    """Where each residue row (the last axis, reduced modulo the orders) sits
    in carrier.elements: its mixed-radix ravel in a group, its place among the
    sorted ravels of a subgroup's members (-1 off the subgroup)."""
    group = carrier.parent if isinstance(carrier, Subgroup) else carrier
    rows = np.moveaxis(np.asarray(residues, dtype=np.int64), -1, 0)
    at = np.ravel_multi_index(tuple(rows), group.orders, mode="wrap")
    if carrier is group:
        return at
    ravels = element_index(group, carrier.residues)  # increasing, as the elements are sorted
    place = np.searchsorted(ravels, at)
    return np.where(ravels.take(place, mode="clip") == at, place, -1)


def _hnf(orders: Sequence[int], rows) -> np.ndarray:
    """The Hermite normal form of the lattice the integer rows and the n_i e_i
    span: the upper-triangular basis whose leading entries d_i divide the n_i
    and whose entry j > i lies in [0, d_j), one per lattice.  Column i is
    cleared by Euclid's steps on all rows at once, modulo the orders."""
    n = np.array(orders, dtype=np.int64)
    pool, basis = np.asarray(rows, dtype=np.int64).reshape(-1, n.size) % n, np.diag(n)
    for i in range(n.size):
        pool = np.vstack([pool, basis[i]])
        while True:
            col = pool[:, i]
            p = np.argmin(np.where(col > 0, col, n[i] + 1))  # the least positive entry
            q = np.where(np.arange(col.size) == p, 0, col // col[p])
            if not q.any():
                break
            pool = (pool - q[:, None] * pool[p]) % n
        basis[i], pool = pool[p], np.delete(pool, p, axis=0)
    for i, j in itertools.combinations(range(n.size), 2):
        basis[i] -= basis[i, j] // basis[j, j] * basis[j]
    basis.setflags(write=False)
    return basis


def _least(basis: np.ndarray, residues) -> np.ndarray:
    """The least member of the coset of each residue row: k steps
    g <- g - floor(g_i / d_i) row_i, after which 0 <= g_i < d_i."""
    out = np.array(residues, dtype=np.int64)
    for i, row in enumerate(basis):
        out -= (out[..., i] // row[i])[..., None] * row
    return out


def _spanned(group: Group, basis: np.ndarray) -> Subgroup:
    """The subgroup with this basis: the sums of c_i row_i, 0 <= c_i < n_i / d_i."""
    counts = np.array(group.orders) // np.diagonal(basis)
    ravels = np.sort(element_index(group, np.indices(counts).reshape(group.rank, -1).T @ basis))
    members = np.unravel_index(ravels, group.orders)
    sub = Subgroup(group, tuple(zip(*(x.tolist() for x in members))))
    vars(sub)["basis"] = basis  # the `basis` cache: one normal form per lattice
    return sub


def subgroup_from_generators(group: Group, generators: Iterable[Sequence[int]]) -> Subgroup:
    """The subgroup the generators span, from the normal form of their lattice.

    Raises ValueError if any generator has the wrong length.  The result is
    canonical: its element tuple is sorted, so equal subgroups compare equal.
    """
    return _spanned(group, _hnf(group.orders, [group.element(g) for g in generators]))


def trivial_subgroup(group: Group) -> Subgroup:
    return Subgroup(group, (group.identity,))


def full_subgroup(group: Group) -> Subgroup:
    return Subgroup(group, group.elements)


def all_subgroups(group: Group) -> tuple[Subgroup, ...]:
    """Every subgroup, found by adjoining to a found H the least member x of
    each other coset: <H, x> has the normal form of H's basis and x, and equal
    subgroups have equal normal forms.

    Intended for small groups (the lattice is walked exhaustively).  Output is
    sorted by (order, element list) so it is deterministic.
    """
    first = trivial_subgroup(group)
    found, frontier = {first.basis.tobytes(): first}, [first]
    while frontier:
        sub = frontier.pop()
        for x in coset_transversal(group, sub)[1:]:
            basis = _hnf(group.orders, np.vstack([sub.basis, x]))
            if basis.tobytes() not in found:
                found[basis.tobytes()] = bigger = _spanned(group, basis)
                frontier.append(bigger)
    return tuple(sorted(found.values(), key=lambda s: (s.order, s.elements)))


def coset_transversal(group: Group, sub: Subgroup) -> tuple[ElementT, ...]:
    """The least member of each coset of `sub`, in increasing order: the box
    [0, d_1) x ... x [0, d_k) of its basis's leading entries."""
    if sub.parent != group:
        raise ValueError("subgroup does not belong to this group")
    return tuple(itertools.product(*(range(d) for d in np.diagonal(sub.basis).tolist())))


def coset_table(group: Group, sub: Subgroup) -> tuple[tuple[ElementT, ...], np.ndarray]:
    """The transversal x_0, x_1, ... of `coset_transversal` and how G moves it:
    the (|G|, [G:H], 2) table of (j, h) with g + x_i = x_j + h at [g, i]."""
    reps = coset_transversal(group, sub)
    moved = group.residues[:, None] + np.array(reps, dtype=np.int64)
    least = _least(sub.basis, moved)
    j = np.ravel_multi_index(tuple(np.moveaxis(least, -1, 0)), np.diagonal(sub.basis))
    return reps, np.stack([j, element_index(sub, moved - least)], axis=-1)


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True)
class Character:
    """Character of the full group, stored as an exponent tuple.

    The value at g is exp(2*pi*i * sum_j a_j g_j / n_j); two characters are
    equal iff their exponent tuples are, so equality never touches floats.
    """

    group: Group
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(int(a) % n for a, n in zip(self.exponents, self.group.orders))
        if len(self.exponents) != len(self.group.orders):
            raise ValueError(
                f"character has {len(self.exponents)} exponents, group has "
                f"{len(self.group.orders)} factors"
            )
        object.__setattr__(self, "exponents", exps)

    def value(self, g: ElementT) -> complex:
        return char_eval(self, g)


def character(group: Group, exponents: Sequence[int]) -> Character:
    return Character(group, tuple(int(a) for a in exponents))


def char_eval(chi: Character, g: ElementT) -> complex:
    """Evaluate chi at g.  The phase is reduced exactly before exponentiating."""
    group = chi.group
    if not group.contains(g):
        g = group.element(g)
    lcm, num = math.lcm(*group.orders), 0
    for a, x, n in zip(chi.exponents, g, group.orders):
        num += a * x * (lcm // n)
    return cmath.exp(2j * cmath.pi * (num % lcm) / lcm)


def character_table(
    chars: Sequence[Character | SubgroupCharacter], elements: Sequence[ElementT]
) -> np.ndarray:
    """chi(g) for every chi in `chars` (rows) and every g in `elements` (columns).

    The characters share one parent group and the elements are reduced
    residue tuples of it (a subgroup character is read through its
    representative).  The exact phase numerators (E R^T) mod lcm(orders) come
    from one integer product, and the exponential is taken once per distinct
    numerator, exactly as `char_eval` takes it, so every entry has the bits
    of `Character.value` / `SubgroupCharacter.value`.  The product cannot
    overflow int64: a numerator is below |G|^2, and a group with
    |G|^2 > 2^63 has no element list that fits in memory.
    """
    reps = [c.representative if isinstance(c, SubgroupCharacter) else c for c in chars]
    group = reps[0].group
    lcm = math.lcm(*group.orders)
    scale = np.array([lcm // n for n in group.orders], dtype=np.int64)
    exps = np.array([c.exponents for c in reps], dtype=np.int64).reshape(len(reps), group.rank)
    res = np.array(elements, dtype=np.int64).reshape(len(elements), group.rank)
    num = (exps * scale) @ res.T % lcm
    distinct, at = np.unique(num, return_inverse=True)
    values = np.array([cmath.exp(2j * cmath.pi * k / lcm) for k in distinct.tolist()])
    return values[at.reshape(num.shape)]


def char_mul(a: Character, b: Character) -> Character:
    if a.group != b.group:
        raise ValueError("characters live on different groups")
    return Character(a.group, tuple(x + y for x, y in zip(a.exponents, b.exponents)))


def dual_characters(group: Group) -> tuple[Character, ...]:
    """All |G| characters, in lexicographic exponent order."""
    return tuple(Character(group, exps) for exps in group.elements)


@lru_cache(maxsize=None)
def _perp(group: Group, sub: Subgroup) -> Subgroup:
    """The annihilator of H, as the subgroup of the exponent tuples of the
    characters trivial on H (they add like elements).  With H's basis B and
    N = diag(orders), these are the e with B N^-1 e integral: the columns of
    the integer upper-triangular C with C B = N span them.  Its transversal
    names the characters of H."""
    if sub.parent != group:
        raise ValueError("subgroup does not belong to this group")
    basis, dual = sub.basis, np.diag(group.orders).astype(object)  # Python ints: exact
    for j in range(group.rank):  # C column by column, B being upper triangular
        dual[:, j] = (dual[:, j] - dual[:, :j] @ basis[:j, j]) // basis[j, j]
    return _spanned(group, _hnf(group.orders, dual.T % np.array(group.orders)))


def annihilator(group: Group, sub: Subgroup) -> tuple[Character, ...]:
    """Characters of the group that are identically 1 on the subgroup."""
    return tuple(Character(group, e) for e in _perp(group, sub).elements)


@dataclass(frozen=True)
class SubgroupCharacter:
    """Character of a subgroup H, named by a parent-group representative: the
    least exponent tuple of its coset of the annihilator of H (kept when it
    lies in the transversal's box, else reduced by the annihilator's basis).
    Equality and hashing are canonical: two characters agree on H exactly when
    they are equal.
    """

    subgroup: Subgroup
    representative: Character

    def __post_init__(self) -> None:
        group = self.subgroup.parent
        if self.representative.group != group:
            raise ValueError("representative must be a character of the parent group")
        basis, exps = _perp(group, self.subgroup).basis, self.representative.exponents
        if any(e >= d for e, d in zip(exps, np.diagonal(basis).tolist())):
            least = _least(basis, exps).tolist()
            object.__setattr__(self, "representative", Character(group, tuple(least)))

    @property
    def exponents(self) -> tuple[int, ...]:
        return self.representative.exponents

    def value(self, h: ElementT) -> complex:
        if not self.subgroup.contains(h):
            raise ValueError(f"{h!r} is not in the subgroup")
        return char_eval(self.representative, h)


@lru_cache(maxsize=None)
def characters_of_subgroup(group: Group, sub: Subgroup) -> tuple[SubgroupCharacter, ...]:
    """The |H| distinct characters of a subgroup H, one per coset of its
    annihilator: the annihilator's transversal, each coset named by its least
    member, in increasing order."""
    names = coset_transversal(group, _perp(group, sub))
    out = tuple(SubgroupCharacter(sub, Character(group, e)) for e in names)
    if len(out) != sub.order:
        raise RuntimeError(
            f"subgroup dual has {len(out)} members, expected {sub.order}"
        )
    return out


def restrict_character(chi: Character, sub: Subgroup) -> SubgroupCharacter:
    """Restriction of a parent character to a subgroup, as a SubgroupCharacter."""
    return SubgroupCharacter(sub, chi)


def associated(alpha: Character, rho: SubgroupCharacter, gamma0: Subgroup) -> bool:
    """Do alpha and rho agree on every element of gamma0?

    gamma0 must sit inside rho's subgroup.  The comparison is exact: the two
    restrictions to gamma0 are the same annihilator coset.
    """
    group = alpha.group
    if gamma0.parent != group or rho.subgroup.parent != group:
        raise ValueError("all arguments must refer to the same parent group")
    if not gamma0._member_set <= rho.subgroup._member_set:
        raise ValueError("gamma0 must be contained in the subgroup of rho")
    return restrict_character(alpha, gamma0) == restrict_character(rho.representative, gamma0)
