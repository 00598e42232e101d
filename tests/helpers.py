"""Shared helpers: group enumeration, trace-based multiplicity oracles and
loop references for the batched representation and bundle checks."""

import itertools

import numpy as np

from equifred import carrier_dual
from equifred.bundles import BundleValidation, Violation


def _partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def _prime_factorization(n):
    factors = {}
    m, p = n, 2
    while m > 1:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    return factors


def abelian_orders(max_order):
    """Order tuples covering every abelian group of order <= max_order.

    One canonical tuple per isomorphism class: each prime-power factor is
    split according to an integer partition of its exponent.
    """
    out = []
    for n in range(1, max_order + 1):
        factors = _prime_factorization(n)
        if not factors:
            out.append((1,))
            continue
        per_prime = [
            [tuple(p**e for e in part) for part in _partitions(k)]
            for p, k in sorted(factors.items())
        ]
        for combo in itertools.product(*per_prime):
            out.append(tuple(sorted(itertools.chain.from_iterable(combo))))
    return out


def multiplicity_oracle(rep, chi):
    """Multiplicity of chi in rep by the character inner product.

    Independent of projector ranks: averages conj(chi(g)) * trace(U(g)) and
    rounds to the nearest integer, rejecting anything that is not close to
    an integer.
    """
    total = 0.0 + 0.0j
    for g in rep.elements:
        total += np.conj(chi.value(g)) * np.trace(rep.matrix(g))
    value = total / len(rep.elements)
    nearest = round(value.real)
    assert abs(value - nearest) < 1e-8, f"non-integral multiplicity {value}"
    return int(nearest)


def decompose_oracle(rep):
    """Full multiplicity table of a representation, by character traces."""
    out = {}
    for chi in carrier_dual(rep.carrier):
        mult = multiplicity_oracle(rep, chi)
        if mult:
            out[chi] = mult
    return out


def reference_unitary_rep(carrier, matrices, *, tol=1e-10):
    """The loop validation that `unitary_rep` replaced, as an oracle.

    Returns the ValueError message the loops raised, or None when they
    accepted: one SVD 2-norm for the identity, one per element for
    unitarity and one per pair (g, h) for the homomorphism law.
    """
    elems = carrier.elements
    dim = np.asarray(matrices[elems[0]]).shape[0]
    store = {g: np.array(matrices[g], dtype=complex) for g in elems}
    eye = np.eye(dim)
    if np.linalg.norm(store[carrier.identity] - eye, 2) > tol:
        return "matrix at the identity is not the identity"
    for g in elems:
        if np.linalg.norm(store[g].conj().T @ store[g] - eye, 2) > tol:
            return f"matrix for {g} is not unitary to {tol}"
    for g in elems:
        for h in elems:
            if np.linalg.norm(store[g] @ store[h] - store[carrier.op(g, h)], 2) > tol:
                return f"homomorphism law fails at ({g}, {h}) beyond {tol}"
    return None


def reference_validate_bundle(b, *, tol=1e-10):
    """The pair-by-pair bundle validator that `validate_bundle` replaced.

    Kept only as an oracle: the batched validator must return the same
    violations, in the same order.  One SVD 2-norm per (g, p) or (g, h, p).
    On a composition failure between fibers of different dimensions the
    cocycle subtraction raises (numpy cannot broadcast the two sides).
    """
    out = []
    pts = set(b.points)
    elems = b.group.elements

    def key(g):
        return ",".join(str(x) for x in g)

    def bad(kind, loc, detail):
        out.append(Violation(kind, loc, detail))

    for g in elems:
        for p in b.points:
            if (g, p) not in b.action:
                bad("action", f"/action/{key(g)}/{p}", "missing")
                continue
            q = b.action[(g, p)]
            if q not in pts:
                bad("action", f"/action/{key(g)}/{p}", f"image {q!r} is not a point")
    if out:
        return BundleValidation(tuple(out))

    for p in b.points:
        if b.act(b.group.identity, p) != p:
            bad("action", f"/action/{key(b.group.identity)}/{p}", "identity must fix every point")
    for g, h, p in itertools.product(elems, elems, b.points):
        if b.act(g, b.act(h, p)) != b.act(b.group.op(g, h), p):
            bad(
                "action",
                f"/action/{key(g)}/{b.act(h, p)}",
                f"composition law fails against {key(b.group.op(g, h))} at {p}",
            )

    for p in b.points:
        if p not in b.base:
            bad("base", f"/base/{p}", "missing label")
    if not any(v.kind == "base" for v in out):
        for g in elems:
            seen = {}
            for p in b.points:
                lbl, img = b.base[p], b.base[b.act(g, p)]
                if lbl in seen and seen[lbl] != img:
                    bad(
                        "base",
                        f"/base/{b.act(g, p)}",
                        f"label {lbl!r} moves inconsistently under {key(g)}",
                    )
                seen.setdefault(lbl, img)

    for p in b.points:
        if p not in b.fiber_dim or b.fiber_dim[p] < 1:
            bad("fiber", f"/fiber_dim/{p}", "missing or non-positive")
    if any(v.kind == "fiber" for v in out):
        return BundleValidation(tuple(out))

    for g in elems:
        for p in b.points:
            if (g, p) not in b.transport:
                bad("transport", f"/transport/{key(g)}/{p}", "missing")
                continue
            m = b.transport[(g, p)]
            want = (b.fiber_dim[b.act(g, p)], b.fiber_dim[p])
            if m.shape != want:
                bad("transport", f"/transport/{key(g)}/{p}", f"shape {m.shape}, expected {want}")
    if any(v.kind == "transport" for v in out):
        return BundleValidation(tuple(out))

    for g in elems:
        for p in b.points:
            m = b.transport[(g, p)]
            err = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[1]), 2)
            if err > tol:
                bad("transport", f"/transport/{key(g)}/{p}", f"not unitary ({err:.3e})")
    for p in b.points:
        m = b.transport[(b.group.identity, p)]
        if np.linalg.norm(m - np.eye(m.shape[0]), 2) > tol:
            bad("transport", f"/transport/{key(b.group.identity)}/{p}", "identity transport != I")
    for g, h, p in itertools.product(elems, elems, b.points):
        lhs = b.transport[(g, b.act(h, p))] @ b.transport[(h, p)]
        rhs = b.transport[(b.group.op(g, h), p)]
        err = np.linalg.norm(lhs - rhs, 2)
        if err > tol:
            bad(
                "transport",
                f"/transport/{key(g)}/{b.act(h, p)}",
                f"cocycle defect {err:.3e} against {key(b.group.op(g, h))} at {p}",
            )
    return BundleValidation(tuple(out))


def reference_symbol_defect(sym):
    """Pair-by-pair largest |sigma(g p) - T(g, p) sigma(p) T(g, p)^*|_2 and the
    first point attaining it (the loop `symbol_equivariance_defect` replaced)."""
    b = sym.bundle
    worst, where = 0.0, None
    for g in b.group.elements:
        for p in b.points:
            t = b.transport_matrix(g, p)
            err = float(np.linalg.norm(sym.value(b.act(g, p)) - t @ sym.value(p) @ t.conj().T, 2))
            if err > worst:
                worst, where = err, p
    return worst, where
