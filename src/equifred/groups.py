"""Finite abelian groups, their subgroups, characters, and character restriction.

A group is a product of cyclic factors Z_{n_1} x ... x Z_{n_k}; elements are
tuples of residues.  Everything that decides equality of characters (duals,
annihilators, restriction agreement) is done in exact integer arithmetic;
complex character values only appear when a numeric evaluation is requested.
A subgroup character is named by one lookup in its annihilator's coset table.
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


def subgroup_from_generators(group: Group, generators: Iterable[Sequence[int]]) -> Subgroup:
    """Close a generator list under the group operation.

    Raises ValueError if any generator has the wrong length.  The result is
    canonical: its element tuple is sorted, so equal subgroups compare equal.
    """
    gens = [group.element(g) for g in generators]
    closure = {group.identity}
    frontier = [group.identity]
    while frontier:
        current = frontier.pop()
        for g in gens:
            nxt = group.op(current, g)
            if nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)
    return Subgroup(group, tuple(sorted(closure)))


def trivial_subgroup(group: Group) -> Subgroup:
    return Subgroup(group, (group.identity,))


def full_subgroup(group: Group) -> Subgroup:
    return Subgroup(group, group.elements)


def all_subgroups(group: Group) -> tuple[Subgroup, ...]:
    """Every subgroup, found by adjoining one element g at a time to a found
    H: the cosets H + k g for k = 0, 1, ... until k g lands in H.

    Intended for small groups (the lattice is walked exhaustively).  Output is
    sorted by (order, element list) so it is deterministic.
    """
    seen = {trivial_subgroup(group).elements}
    frontier = [trivial_subgroup(group)]
    while frontier:
        sub = frontier.pop()
        for g in group.elements:
            if sub.contains(g):
                continue
            members, step = set(sub.elements), g
            while not sub.contains(step):
                members.update(group.op(h, step) for h in sub.elements)
                step = group.op(step, g)
            bigger = Subgroup(group, tuple(sorted(members)))
            if bigger.elements not in seen:
                seen.add(bigger.elements)
                frontier.append(bigger)
    subs = [Subgroup(group, els) for els in seen]
    subs.sort(key=lambda s: (s.order, s.elements))
    return tuple(subs)


def coset_transversal(group: Group, sub: Subgroup) -> tuple[ElementT, ...]:
    """Lexicographically least representative of each coset of `sub`, in order.

    Walking the group in lexicographic order guarantees the first element met
    in each coset is its least member, so the choice is reproducible.
    """
    if sub.parent != group:
        raise ValueError("subgroup does not belong to this group")
    reps = []
    covered: set = set()
    for g in group.elements:
        if g in covered:
            continue
        reps.append(g)
        covered.update(group.op(g, h) for h in sub.elements)
    return tuple(reps)


def coset_table(group: Group, sub: Subgroup) -> tuple[tuple[ElementT, ...], dict]:
    """The transversal (x_0, x_1, ...) of `coset_transversal` and the table
    g -> (j, h) with g = x_j + h, h in `sub`."""
    reps = coset_transversal(group, sub)
    locate = {group.op(x, h): (j, h) for j, x in enumerate(reps) for h in sub.elements}
    return reps, locate


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


def _phase_lcm(group: Group) -> int:
    return math.lcm(*group.orders)


def _phase_numerator(group: Group, exponents: Sequence[int], g: ElementT) -> int:
    """Exact phase of chi(g) as a multiple of 1/lcm(orders), reduced mod lcm."""
    lcm = _phase_lcm(group)
    total = 0
    for a, x, n in zip(exponents, g, group.orders):
        total += a * x * (lcm // n)
    return total % lcm


def char_eval(chi: Character, g: ElementT) -> complex:
    """Evaluate chi at g.  The phase is reduced exactly before exponentiating."""
    if not chi.group.contains(g):
        g = chi.group.element(g)
    lcm = _phase_lcm(chi.group)
    num = _phase_numerator(chi.group, chi.exponents, g)
    return cmath.exp(2j * cmath.pi * num / lcm)


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
    lcm = _phase_lcm(group)
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
    return tuple(
        Character(group, exps)
        for exps in itertools.product(*(range(n) for n in group.orders))
    )


@lru_cache(maxsize=None)
def _perp_table(group: Group, sub: Subgroup) -> tuple[Subgroup, tuple[ElementT, ...], dict]:
    """The annihilator of H, as the subgroup of the exponent tuples of the
    characters trivial on H (they add like elements), and its `coset_table`,
    whose transversal names the characters of H, each by its least member."""
    if sub.parent != group:
        raise ValueError("subgroup does not belong to this group")
    perp = Subgroup(group, tuple(e for e in group.elements
                                 if all(_phase_numerator(group, e, h) == 0 for h in sub.elements)))
    return (perp, *coset_table(group, perp))


def annihilator(group: Group, sub: Subgroup) -> tuple[Character, ...]:
    """Characters of the group that are identically 1 on the subgroup."""
    return tuple(Character(group, e) for e in _perp_table(group, sub)[0].elements)


@dataclass(frozen=True)
class SubgroupCharacter:
    """Character of a subgroup, named by a parent-group representative.

    The dual of H is the quotient of the parent dual by the annihilator of H;
    the stored representative is the lexicographically least exponent tuple in
    its annihilator coset (one lookup in `_perp_table`), so equality and hashing
    are canonical, and two characters agree on H exactly when they are equal.
    """

    subgroup: Subgroup
    representative: Character

    def __post_init__(self) -> None:
        group = self.subgroup.parent
        if self.representative.group != group:
            raise ValueError("representative must be a character of the parent group")
        _, reps, locate = _perp_table(group, self.subgroup)
        least = reps[locate[self.representative.exponents][0]]
        if least != self.representative.exponents:
            object.__setattr__(self, "representative", Character(group, least))

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
    annihilator: the transversal of the annihilator's coset table, each
    coset named by its least member, in increasing order."""
    out = tuple(SubgroupCharacter(sub, Character(group, e)) for e in _perp_table(group, sub)[1])
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
