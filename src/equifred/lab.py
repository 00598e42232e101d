"""Numerical laboratory on circle grids: invariant operators, isotypical
blocks, Fredholm proxy sweeps, and interval boundary-value problems realized
by doubling into a symmetric circle problem.

Grid functions live on n equispaced points of the circle; the symmetry is a
cyclic rotation group or the order-two reflection.  Boundary conditions on an
interval are encoded by doubling: reflections act on the doubled circle, with
a sign twist on every Dirichlet double, and the boundary-value spectrum is the
spectrum of the doubled operator compressed to the fully invariant subspace.

Every symmetry here permutes grid points up to a sign, so it is stored as a
`MonomialRep` (index arrays), and every operator as COO triplets (the
Laplacian is three diagonals, a potential one); dense matrices are built only
on request.  The isotypical basis is the exact character-weighted orbit sums,
one nonzero per grid point, so an isotypical block is one O(nnz) scatter
(`reps.monomial_block`).  The blocks of the built-in operators are Hermitian
tridiagonal in lead-index order, and their eigenvalues and singular values
come from Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9, 1967)
with no n^2 array; any other block gets a dense SVD.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .groups import Character, Group, character
from .reps import (
    LAW_TOL,
    CooMatrix,
    InternalInconsistencyError,
    MonomialRep,
    isotypical_basis,
    monomial_block,
    require_intertwining,
)


def rotation_circle_rep(n: int, m: int) -> MonomialRep:
    """Z_m acting on n circle points by rotation (shift by n/m)."""
    if n < 1:
        raise ValueError(f"grid size n must be positive, got {n}")
    if m < 1:
        raise ValueError(f"rotation order m must be positive, got {m}")
    if n % m != 0:
        raise ValueError(f"rotation order {m} must divide the grid size {n}")
    perm = (np.arange(n) + (n // m) * np.arange(m)[:, None]) % n
    return MonomialRep(Group((m,)), perm, np.ones((m, n)))


def reflection_circle_rep(n: int) -> MonomialRep:
    """Z_2 acting on n circle points by the angle flip j -> -j."""
    if n < 1:
        raise ValueError(f"grid size n must be positive, got {n}")
    perm = np.stack([np.arange(n), -np.arange(n) % n])
    return MonomialRep(Group((2,)), perm, np.ones((2, n)))


@dataclass(frozen=True, eq=False)
class GridOperator:
    """An operator on circle grid functions, as COO triplets, together with its
    symmetry action.  It must commute with that action: the defect is checked
    once, here, to LAW_TOL relative to max(1, |operator|)."""

    n: int
    coo: CooMatrix
    group_rep: MonomialRep
    kind: str

    def __post_init__(self):
        require_intertwining(f"{self.kind} operator does not commute with its action",
                             self.group_rep, self.coo, tol=LAW_TOL)

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix, built on request."""
        return self.coo.dense()


def _circle_angles(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


def _periodic_laplacian(size: int, h: float, shift: float) -> CooMatrix:
    """Periodic second difference (2u_j - u_{j+1} - u_{j-1}) / h^2 plus shift * u_j."""
    j = np.arange(size)
    vals = np.repeat([2.0 / h**2 + shift, -1.0 / h**2, -1.0 / h**2], size)
    cols = np.concatenate([j, (j + 1) % size, (j - 1) % size])
    return CooMatrix(size, np.tile(j, 3), cols, vals)


def _trivial(group: Group) -> Character:
    return character(group, (0,) * group.rank)


def build_invariant_circle_operator(
    n: int,
    m: int,
    kind: str,
    *,
    action: str = "rotation",
    potential: Callable[[np.ndarray], np.ndarray] | Sequence[float] | None = None,
) -> GridOperator:
    """Assemble an invariant operator on the n-point circle.

    kind is one of "shifted_laplacian" (second-difference Laplacian plus one),
    "potential" (multiplication by a sampled potential), or "composite" (their
    sum).  The action is the order-m rotation or, with action="reflection",
    the angle flip (m must then be 2).  Non-invariant potentials are rejected
    by `GridOperator`.
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
        op = lap
    elif kind in ("potential", "composite"):
        if potential is None:
            raise ValueError(f"kind {kind!r} needs a potential")
        if callable(potential):
            samples = np.asarray(potential(_circle_angles(n)), dtype=complex)
        else:
            samples = np.asarray(potential, dtype=complex)
        if samples.shape != (n,):
            raise ValueError(f"potential samples have shape {samples.shape}, expected ({n},)")
        j = np.arange(n)
        op = CooMatrix(n, j, j, samples)
        if kind == "composite":
            op = CooMatrix(n, np.r_[j, lap.rows], np.r_[j, lap.cols], np.r_[samples, lap.vals])
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    return GridOperator(n, op, rep, kind)


def isotypical_block(op: GridOperator, alpha: Character) -> np.ndarray:
    """Compress an invariant grid operator to one isotypical block (dense)."""
    return monomial_block(op.group_rep, op.coo, alpha)[1].dense()


def build_fixed_point_degenerate_operator(n: int) -> GridOperator:
    """Reflection-invariant operator that is singular exactly on the even isotype.

    Multiplication by sin^2(theta) on the even (trivial-isotype) part, the
    identity on the odd (sign-isotype) part: diag(sin^2) (I + R)/2 + (I - R)/2
    for the reflection R.  The multiplier vanishes at both reflection fixed
    points, so the even blocks degenerate under refinement while the odd
    blocks stay unit size.
    """
    if n < 2:
        raise ValueError(f"grid size n must be at least 2, got {n}")
    if n % 2 != 0:
        raise ValueError("needs an even grid so both reflection fixed points are nodes")
    rep = reflection_circle_rep(n)
    j, flip = np.arange(n), rep.perm[1]
    half = np.full(n, 0.5)
    s = np.sin(_circle_angles(n)) ** 2
    # (I - R)/2 comes first, so at the two fixed points its halves cancel
    # exactly before sin^2 is added
    op = CooMatrix(
        n, np.tile(j, 4), np.concatenate([j, flip, j, flip]),
        np.concatenate([half, -half, s / 2, s / 2]),
    )
    return GridOperator(n, op, rep, "fixed_point_degenerate")


# ---------------------------------------------------------------------------
# Sturm counts on Hermitian tridiagonal blocks


def _hermitian_tridiagonal(leads: np.ndarray, block: CooMatrix):
    """(diagonal, squared off-diagonal moduli) of a block taken in lead-index
    order, or None unless it is Hermitian tridiagonal there up to 64 ulps of
    its largest entry."""
    k = leads.size
    rank = np.empty(k, dtype=np.intp)
    rank[np.argsort(leads)] = np.arange(k)
    r, c = rank[block.rows], rank[block.cols]
    if np.abs(r - c).max(initial=0) > 1:
        return None
    parts = []
    for on, at, size in ((r == c, r, k), (c == r + 1, r, k - 1), (r == c + 1, c, k - 1)):
        part = np.zeros(max(size, 0), dtype=complex)
        np.add.at(part, at[on], block.vals[on])
        parts.append(part)
    diag, upper, lower = parts
    scale = max(np.abs(diag).max(initial=0.0), np.abs(upper).max(initial=0.0))
    skew = max(np.abs(diag.imag).max(initial=0.0), np.abs(upper - lower.conj()).max(initial=0.0))
    if skew > 64 * np.finfo(float).eps * scale:
        return None
    off = (upper + lower.conj()) / 2
    return diag.real, (off.conj() * off).real


_STURM_SHIFTS = 256  # shifts per multisection pass
_STURM_CELLS = 1 << 20  # pivots held at once


def _sturm_counts(diag: np.ndarray, off2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift in x of the symmetric tridiagonal
    with this diagonal and these squared off-diagonals.

    The count is the number of negative pivots q_i = diag_i - x - off2_{i-1} /
    q_{i-1}, taken by sign bit.  A zero off-diagonal counts as the smallest
    normal float, so a pivot that is exactly +-0 gives an infinite quotient,
    the next pivot is -+inf and the one after is finite again: the count of a
    matrix with that pivot perturbed by a tiny amount (Demmel, Dhillon & Ren,
    ETNA 3, 1995).  A quotient that overflows acts the same way.  Division by
    zero and overflow are therefore expected here and raise no warning.
    """
    off2 = np.maximum(off2, np.finfo(float).tiny)
    rows = max(1, _STURM_CELLS // max(x.size, 1))
    pivots = np.empty((min(rows, diag.size), x.size))
    quotient = np.empty(x.size)
    counts = np.zeros(x.size, dtype=np.intp)
    q = None
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, diag.size, rows):
            chunk = pivots[: min(rows, diag.size - start)]
            np.subtract(diag[start : start + len(chunk), None], x, out=chunk)
            for i, row in enumerate(chunk):
                if q is not None:
                    np.divide(off2[start + i - 1], q, out=quotient)
                    np.subtract(row, quotient, out=row)
                q = row
            counts += np.signbit(chunk).sum(axis=0)
            q = chunk[-1].copy()
    return counts


def _multisection(count_below, targets: np.ndarray, lo: float, hi: float, floor: float):
    """Brackets [lo_j, hi_j] of the points where count_below first exceeds
    targets[j], by multisection: every pass evaluates count_below at about
    _STURM_SHIFTS shifts spread over the open brackets, which share shifts
    when they coincide, until each bracket is at most `floor` wide or stops
    shrinking.  count_below must be nondecreasing, at most targets[j] at lo
    and above it at hi."""
    lo = np.full(targets.size, float(lo))
    hi = np.full(targets.size, float(hi))
    open_ = np.flatnonzero(hi - lo > floor)
    while open_.size:
        brackets, which = np.unique(np.stack([lo[open_], hi[open_]], axis=1), axis=0,
                                    return_inverse=True)
        per = max(2, _STURM_SHIFTS // len(brackets))
        steps = np.arange(1, per + 1) / (per + 1)
        shifts = brackets[:, :1] + (brackets[:, 1:] - brackets[:, :1]) * steps
        counts = count_below(shifts.ravel()).reshape(shifts.shape)
        width = hi[open_] - lo[open_]
        for j, b in zip(open_, which.ravel()):
            below = counts[b] <= targets[j]
            lo[j] = max(lo[j], shifts[b][below].max(initial=-np.inf))
            hi[j] = min(hi[j], shifts[b][~below].min(initial=np.inf))
        shrank = hi[open_] - lo[open_] < width
        open_ = open_[shrank & (hi[open_] - lo[open_] > floor)]
    return lo, hi


def _spectral_radius_bound(diag: np.ndarray, off2: np.ndarray) -> float:
    """Gershgorin bound on the largest |eigenvalue|."""
    off = np.sqrt(off2)
    radius = np.abs(diag)
    radius[1:] += off
    radius[:-1] += off
    return float(radius.max(initial=0.0))


def _tridiagonal_eigenvalues(diag: np.ndarray, off2: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The eigenvalues of ranks `index` (0 the lowest), each the midpoint of a
    Sturm bracket at most eps * |T| wide (of width 0 when T = 0)."""
    bound = _spectral_radius_bound(diag, off2)
    lo, hi = _multisection(
        lambda x: _sturm_counts(diag, off2, x), index, -bound, bound, np.finfo(float).eps * bound
    )
    return (lo + hi) / 2


def _kth_smallest_modulus(diag: np.ndarray, off2: np.ndarray, k: int) -> float:
    """k-th smallest |eigenvalue| (singular value), one of the k eigenvalues on
    either side of 0: one Sturm count at 0 gives their ranks."""
    below = int(_sturm_counts(diag, off2, np.zeros(1))[0])
    ranks = np.arange(max(below - k, 0), min(below + k, diag.size))
    return float(np.sort(np.abs(_tridiagonal_eigenvalues(diag, off2, ranks)))[k - 1])


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
) -> RefinementSweep:
    """Track the k-th smallest singular value of the alpha-block under refinement.

    The k-th smallest (default 4) discounts a possible finite-dimensional
    kernel.  A block that stays bounded below signals a Fredholm-stable
    family; decay toward zero signals the opposite.  Sizes are processed in
    increasing order, and at least two must differ.  A block that is
    Hermitian tridiagonal in lead-index order gets the value from Sturm
    counts, to eps times its norm; any other gets a dense SVD.
    """
    if k < 1:
        raise ValueError("k must be positive")
    sizes = tuple(sorted(int(n) for n in sizes))
    if len(set(sizes)) < 2:
        raise ValueError("a sweep needs at least two distinct sizes")
    values = []
    for n in sizes:
        op = family(n)
        leads, block = monomial_block(op.group_rep, op.coo, alpha)
        if block.size < k:
            raise ValueError(f"alpha-block at n={n} has dimension {block.size} < k={k}")
        tri = _hermitian_tridiagonal(leads, block)
        if tri is None:
            s = np.linalg.svd(block.dense(), compute_uv=False)
            values.append(float(np.sort(s)[k - 1]))
        else:
            values.append(_kth_smallest_modulus(*tri, k))
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
    coo: CooMatrix
    free_nodes: tuple[int, ...]
    invariant_dim: int

    @property
    def operator(self) -> np.ndarray:
        """The dense doubled Laplacian, built on request."""
        return self.coo.dense()


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


def mixed_bvp_spectrum(problem: DoubledProblem, count: int) -> np.ndarray:
    """Lowest eigenvalues of the boundary-value problem, via the doubled circle.

    Compresses the doubled second-difference Laplacian to the invariant
    subspace, where in lead-index order it is real symmetric tridiagonal, and
    takes the eigenvalues from Sturm counts, each to eps times the norm of
    that block; the result approximates the interval spectrum under the
    requested boundary conditions with second-order accuracy.
    """
    if count < 1 or count > problem.invariant_dim:
        raise ValueError(
            f"can return between 1 and {problem.invariant_dim} eigenvalues, got {count}"
        )
    leads, block = monomial_block(problem.rep, problem.coo, _trivial(problem.group))
    tri = _hermitian_tridiagonal(leads, block)
    if tri is None:
        raise InternalInconsistencyError("the compressed doubled Laplacian is not tridiagonal")
    return _tridiagonal_eigenvalues(*tri, np.arange(count))


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
