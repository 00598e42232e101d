"""Numerical laboratory on circle grids: invariant operators, isotypical
blocks, Fredholm proxy sweeps, and interval boundary-value problems realized
by doubling into a symmetric circle problem.

Grid functions live on n equispaced points of the circle; the symmetry is a
cyclic rotation group or the order-two reflection.  Boundary conditions on an
interval are encoded by doubling: reflections act on the doubled circle, with
a sign twist on every Dirichlet double, and the boundary-value spectrum is the
spectrum of the doubled operator compressed to the fully invariant subspace.

Every symmetry here permutes grid points up to a sign, so it is stored as a
`MonomialRep` (index arrays, no dense matrices), and isotypical bases are the
exact character-weighted orbit sums rather than a Gram-Schmidt of a dense
projector.  The operators themselves stay dense.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .groups import Character, Group, character
from .reps import (
    MonomialRep,
    RepT,
    isotypical_basis,
    isotypical_projector,
    pi_alpha_restrict,
    require_intertwining,
)


def rotation_circle_rep(n: int, m: int) -> MonomialRep:
    """Z_m acting on n circle points by rotation (shift by n/m)."""
    if n % m != 0:
        raise ValueError(f"rotation order {m} must divide the grid size {n}")
    perm = (np.arange(n) + (n // m) * np.arange(m)[:, None]) % n
    return MonomialRep(Group((m,)), perm, np.ones((m, n)))


def reflection_circle_rep(n: int) -> MonomialRep:
    """Z_2 acting on n circle points by the angle flip j -> -j."""
    perm = np.stack([np.arange(n), -np.arange(n) % n])
    return MonomialRep(Group((2,)), perm, np.ones((2, n)))


@dataclass(frozen=True, eq=False)
class GridOperator:
    """A matrix on circle grid functions together with its symmetry action."""

    n: int
    matrix: np.ndarray
    group_rep: RepT
    kind: str


def _circle_angles(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


def _periodic_laplacian(size: int, h: float, shift: float) -> np.ndarray:
    """Periodic second difference (2u_j - u_{j+1} - u_{j-1}) / h^2 plus shift * u_j."""
    lap = np.zeros((size, size), dtype=complex)
    j = np.arange(size)
    lap[j, j] = 2.0 / h**2 + shift
    lap[j, (j + 1) % size] += -1.0 / h**2
    lap[j, (j - 1) % size] += -1.0 / h**2
    return lap


def _trivial(group: Group) -> Character:
    return character(group, (0,) * group.rank)


def build_invariant_circle_operator(
    n: int,
    m: int,
    kind: str,
    *,
    action: str = "rotation",
    potential: Callable[[np.ndarray], np.ndarray] | Sequence[float] | None = None,
    tol: float = 1e-10,
) -> GridOperator:
    """Assemble an invariant operator on the n-point circle.

    kind is one of "shifted_laplacian" (second-difference Laplacian plus one),
    "potential" (multiplication by a sampled potential), or "composite" (their
    sum).  The action is the order-m rotation or, with action="reflection",
    the angle flip (m must then be 2).  Non-invariant potentials are rejected:
    the operator must commute with the action to `tol` relative to its norm.
    """
    if action == "rotation":
        rep = rotation_circle_rep(n, m)
    elif action == "reflection":
        if m != 2:
            raise ValueError("reflection symmetry has order 2")
        rep = reflection_circle_rep(n)
    else:
        raise ValueError(f"unknown action {action!r}")

    lap = _periodic_laplacian(n, 2.0 * np.pi / n, 1.0)

    if kind == "shifted_laplacian":
        mat = lap
    elif kind in ("potential", "composite"):
        if potential is None:
            raise ValueError(f"kind {kind!r} needs a potential")
        if callable(potential):
            samples = np.asarray(potential(_circle_angles(n)), dtype=complex)
        else:
            samples = np.asarray(potential, dtype=complex)
        if samples.shape != (n,):
            raise ValueError(f"potential samples have shape {samples.shape}, expected ({n},)")
        mat = np.diag(samples)
        if kind == "composite":
            mat = mat + lap
    else:
        raise ValueError(f"unknown operator kind {kind!r}")

    require_intertwining(f"operator does not commute with the {action} action", rep, mat, tol=tol)
    return GridOperator(n, mat, rep, kind)


def isotypical_block(op: GridOperator, alpha: Character, *, rel_tol: float = 1e-8) -> np.ndarray:
    """Compress an invariant grid operator to one isotypical block."""
    return pi_alpha_restrict(op.group_rep, op.matrix, alpha, rel_tol=rel_tol)


def build_fixed_point_degenerate_operator(n: int) -> GridOperator:
    """Reflection-invariant operator that is singular exactly on the even isotype.

    Multiplication by sin^2(theta) on the even (trivial-isotype) part, the
    identity on the odd (sign-isotype) part.  The multiplier vanishes at both
    reflection fixed points, so the even blocks degenerate under refinement
    while the odd blocks stay unit size.
    """
    if n % 2 != 0:
        raise ValueError("needs an even grid so both reflection fixed points are nodes")
    rep = reflection_circle_rep(n)
    p_even = isotypical_projector(rep, _trivial(rep.carrier))
    p_odd = np.eye(n) - p_even
    mat = (np.sin(_circle_angles(n)) ** 2)[:, None] * p_even + p_odd
    return GridOperator(n, mat, rep, "fixed_point_degenerate")


# ---------------------------------------------------------------------------
# refinement sweeps


@dataclass(frozen=True)
class RefinementSweep:
    """k-th smallest singular value of one isotypical block across grid sizes."""

    alpha: Character
    k: int
    sizes: tuple[int, ...]
    values: tuple[float, ...]
    verdict: str


def _sweep_verdict(values: Sequence[float]) -> str:
    """Stable / degenerating decision from the swept values.

    All values numerically zero, or an overall fall to at most a fifth of the
    peak, counts as degenerating; staying within 20 percent of the peak counts
    as stable; anything in between is inconclusive.
    """
    vmax = max(values)
    if vmax <= 1e-12:
        return "degenerating"
    ratio = min(values) / vmax
    if ratio <= 0.2:
        return "degenerating"
    if ratio >= 0.8:
        return "stable"
    return "inconclusive"


def fredholm_proxy_sweep(
    family: Callable[[int], GridOperator],
    alpha: Character,
    sizes: Sequence[int],
    *,
    k: int = 4,
    rel_tol: float = 1e-8,
) -> RefinementSweep:
    """Track the k-th smallest singular value of the alpha-block under refinement.

    The k-th smallest (default 4) discounts a possible finite-dimensional
    kernel.  A block that stays bounded below signals a Fredholm-stable
    family; decay toward zero signals the opposite.  Sizes are processed in
    increasing order.
    """
    if k < 1:
        raise ValueError("k must be positive")
    sizes = tuple(sorted(int(n) for n in sizes))
    if len(sizes) < 2:
        raise ValueError("a sweep needs at least two sizes")
    values = []
    for n in sizes:
        op = family(n)
        block = isotypical_block(op, alpha, rel_tol=rel_tol)
        if block.shape[0] < k:
            raise ValueError(
                f"alpha-block at n={n} has dimension {block.shape[0]} < k={k}"
            )
        s = np.linalg.svd(block, compute_uv=False)
        values.append(float(np.sort(s)[k - 1]))
    return RefinementSweep(alpha, k, sizes, tuple(values), _sweep_verdict(values))


# ---------------------------------------------------------------------------
# interval boundary-value problems by doubling


_BC_ALIASES = {
    "d": "dirichlet",
    "dirichlet": "dirichlet",
    "n": "neumann",
    "neumann": "neumann",
}


def _normalize_bc(bc: Sequence[str]) -> tuple[str, str]:
    if len(bc) != 2:
        raise ValueError("boundary conditions are a (left, right) pair")
    out = []
    for side in bc:
        key = str(side).strip().lower()
        if key not in _BC_ALIASES:
            raise ValueError(f"unknown boundary condition {side!r}")
        out.append(_BC_ALIASES[key])
    return tuple(out)  # type: ignore[return-value]


@dataclass(frozen=True, eq=False)
class DoubledProblem:
    """Interval problem encoded on a doubled circle with reflection symmetry.

    The interval [0, pi] is discretized with n subintervals; the circle has
    grid_size points with the same spacing.  One involution per doubled
    boundary part acts on circle functions, sign-twisted when that part is
    Dirichlet; the boundary-value problem is the doubled operator on the fully
    invariant subspace.  free_nodes are the base-interval node indices that
    parametrize that subspace (Dirichlet endpoints drop out).
    """

    base_n: int
    bc: tuple[str, str]
    grid_size: int
    h: float
    group: Group
    rep: MonomialRep
    operator: np.ndarray
    free_nodes: tuple[int, ...]
    invariant_dim: int


def _identity(size: int) -> tuple[np.ndarray, np.ndarray]:
    return np.arange(size), np.ones(size)


def _signed_flip(size: int, center_doubled: int, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) of u_j -> sign * u_{center_doubled - j (mod size)}."""
    return (center_doubled - np.arange(size)) % size, np.full(size, sign)


def double_interval_bvp(n: int, bc: Sequence[str]) -> DoubledProblem:
    """Double the interval across its boundary parts into a symmetric circle.

    Matching boundary conditions double once (circle of 2n points, one
    involution); mixed conditions double twice (4n points, a Z_2 x Z_2
    action, doubling across the Dirichlet part first).  Every Dirichlet
    double carries the sign twist, so the invariant functions vanish there;
    Neumann doubles are untwisted, matching the even (ghost-point) extension.
    """
    if n < 4:
        raise ValueError("grid must have at least 4 subintervals")
    left, right = _normalize_bc(bc)
    h = math.pi / n

    if left == right:
        size = 2 * n
        group = Group((2,))
        sign = -1.0 if left == "dirichlet" else 1.0
        rows = [_identity(size), _signed_flip(size, 0, sign)]
        if left == "dirichlet":
            free = tuple(range(1, n))
        else:
            free = tuple(range(0, n + 1))
    else:
        size = 4 * n
        group = Group((2, 2))
        # first involution doubles across the Dirichlet endpoint, with the
        # sign twist; the second doubles across the Neumann endpoint
        if left == "dirichlet":
            a = _signed_flip(size, 0, -1.0)      # fixes theta = 0
            b = _signed_flip(size, 2 * n, 1.0)   # fixes theta = pi
            free = tuple(range(1, n + 1))
        else:
            a = _signed_flip(size, 2 * n, -1.0)  # Dirichlet at theta = pi
            b = _signed_flip(size, 0, 1.0)
            free = tuple(range(0, n))
        # elements in order (0,0), (0,1), (1,0), (1,1); U(a) U(b) e_j =
        # phase_b[j] phase_a[perm_b[j]] e_{perm_a[perm_b[j]]}
        ab = (a[0][b[0]], b[1] * a[1][b[0]])
        rows = [_identity(size), b, a, ab]
    rep = MonomialRep(group, *(np.stack(part) for part in zip(*rows)))
    lap = _periodic_laplacian(size, h, 0.0)
    inv_dim = rep.multiplicity(_trivial(group))
    return DoubledProblem(
        n, (left, right), size, h, group, rep, lap, free, inv_dim
    )


def invariant_subspace_basis(problem: DoubledProblem) -> np.ndarray:
    """Reproducible orthonormal basis of the fully invariant circle functions."""
    return isotypical_basis(problem.rep, _trivial(problem.group))


def restriction_to_base(problem: DoubledProblem) -> np.ndarray:
    """Selection matrix reading off doubled functions at the free base nodes.

    Base node i sits at doubled index i (the first copy of the interval).
    """
    rows = np.zeros((len(problem.free_nodes), problem.grid_size), dtype=complex)
    rows[np.arange(len(problem.free_nodes)), problem.free_nodes] = 1.0
    return rows


def mixed_bvp_spectrum(problem: DoubledProblem, count: int) -> np.ndarray:
    """Lowest eigenvalues of the boundary-value problem, via the doubled circle.

    Compresses the doubled second-difference Laplacian to the invariant
    subspace and diagonalizes; the result approximates the interval spectrum
    under the requested boundary conditions with second-order accuracy.
    """
    if count < 1 or count > problem.invariant_dim:
        raise ValueError(
            f"can return between 1 and {problem.invariant_dim} eigenvalues, got {count}"
        )
    basis = invariant_subspace_basis(problem)
    compressed = basis.conj().T @ problem.operator @ basis
    compressed = (compressed + compressed.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(compressed)
    return eigs[:count]


def analytic_bvp_spectrum(bc: Sequence[str], count: int) -> np.ndarray:
    """Continuum eigenvalues of -u'' on [0, pi] under the boundary conditions."""
    left, right = _normalize_bc(bc)
    k = np.arange(count, dtype=float)
    if left == right == "dirichlet":
        return (k + 1.0) ** 2
    if left == right == "neumann":
        return k**2
    return (k + 0.5) ** 2


def convergence_order(sizes: Sequence[int], errors: Sequence[float]) -> float:
    """Least-squares slope of error against grid size on log-log axes, negated."""
    logs_n = np.log(np.asarray(sizes, dtype=float))
    logs_e = np.log(np.asarray(errors, dtype=float))
    slope = np.polyfit(logs_n, logs_e, 1)[0]
    return float(-slope)
