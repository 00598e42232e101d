"""Shared helpers: group enumeration, trace-based multiplicity oracles and
loop references for the batched representation, monomial and bundle checks,
the orbit and stabilizer walks, the stack builders, projectors and group
averages, the subgroup lattice, the subgroup dual and the restriction test,
and the flat report writer."""

import itertools
import json
import math

import numpy as np

import equifred.reps
from equifred import (
    InternalInconsistencyError,
    ModelInconsistencyError,
    MultiplicityVector,
    Subgroup,
    annihilator,
    carrier_dual,
    char_mul,
    character,
    dual_characters,
    full_subgroup,
    numerical_rank,
    subgroup_from_generators,
    trivial_subgroup,
)
from equifred.bundles import BundleValidation, Violation
from equifred.groups import coset_table


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


def reference_monomial_rep(carrier, perm, phase, *, tol=1e-10):
    """The row loop that `MonomialRep` construction replaced, as an oracle.

    Returns the ValueError message it raised, or None when it accepted: the
    shapes, each row a permutation, unit phases, then one row g at a time
    the permutations composed as integers and the phases multiplied against
    every h, the first failing (g, h) in carrier order.
    """
    elems = carrier.elements
    perm = np.array(perm, dtype=np.intp)
    phase = np.array(phase, dtype=complex)
    if perm.ndim != 2 or perm.shape[0] != len(elems) or phase.shape != perm.shape:
        return f"perm and phase need shape ({len(elems)}, d), got {perm.shape} and {phase.shape}"
    if (np.sort(perm, axis=1) != np.arange(perm.shape[1])).any():
        return "every row of perm must be a permutation of range(d)"
    if np.abs(np.abs(phase) - 1.0).max(initial=0.0) > tol:
        return f"phases are not unit modulus to {tol}"
    index = {g: i for i, g in enumerate(elems)}
    for i, g in enumerate(elems):
        prod = [index[carrier.op(g, h)] for h in elems]
        # U(g) U(h) e_j = phase[h, j] phase[g, perm[h, j]] e_{perm[g, perm[h, j]]}
        bad = ~(perm[i, perm] == perm[prod]).all(axis=1)
        defect = np.abs(phase * phase[i, perm] - phase[prod])
        bad |= defect.max(axis=1, initial=0.0) > tol
        if bad.any():
            return f"homomorphism law fails at ({g}, {elems[int(np.argmax(bad))]}) beyond {tol}"
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


def reference_orbits(b):
    """The `act` walks that the action-table `orbits` replaced: the orbit of
    each point not yet seen, sorted, in point order."""
    done, out = set(), []
    for p in b.points:
        if p not in done:
            orb = tuple(sorted({b.act(g, p) for g in b.group.elements}))
            done.update(orb)
            out.append(orb)
    return tuple(out)


def reference_isotropy(b, p):
    """The stabilizer of p by one `act` call per element (ValueError off the bundle)."""
    if p not in b.base:
        raise ValueError(f"{p!r} is not a point of the bundle")
    return Subgroup(b.group, tuple(sorted(g for g in b.group.elements if b.act(g, p) == p)))


def reference_minimal_isotropy(b):
    """The least of the walked stabilizers by (order, elements), which must lie
    in every other one; the full group on an empty bundle."""
    stabs = {reference_isotropy(b, p) for p in b.points}
    if not stabs:
        return full_subgroup(b.group)
    least = min(stabs, key=lambda s: (s.order, s.elements))
    if not all(least.is_subgroup_of(s) for s in stabs):
        raise ModelInconsistencyError(f"stabilizer {least.elements} is not minimal")
    return least


def equivariance_defect(rep, m):
    """Largest commutator norm max_g |U(g) m - m U(g)|_2 over the carrier."""
    return max(float(np.linalg.norm(rep.matrix(g) @ m - m @ rep.matrix(g), 2))
               for g in rep.elements)


def reference_symbol_defect(sym):
    """Pair-by-pair largest |sigma(g p) - T(g, p) sigma(p) T(g, p)^*|_2 and the
    first point attaining it (the loop that `bundles._worst_symbol_defect` replaced)."""
    b = sym.bundle
    worst, where = 0.0, None
    for g in b.group.elements:
        for p in b.points:
            t = b.transport_matrix(g, p)
            err = float(np.linalg.norm(sym.value(b.act(g, p)) - t @ sym.value(p) @ t.conj().T, 2))
            if err > worst:
                worst, where = err, p
    return worst, where


def reference_decompose(rep):
    """The per-character loop that the batched `decompose` replaced, as an oracle.

    For each character in dual order: its values one element at a time, the
    projector accumulated one matrix at a time, its rank by `numerical_rank`,
    then the trace oracle (`reps._trace_multiplicity`, looked up at call time
    so a test can patch it for both routes).  Raises what `decompose` raised.
    """
    entries = []
    traces = rep.traces
    for chi in carrier_dual(rep.carrier):
        values = np.array([chi.value(g) for g in rep.elements], dtype=complex)
        acc = np.zeros((rep.dim, rep.dim), dtype=complex)
        for g, value in zip(rep.elements, values):
            acc += np.conj(value) * rep.matrix(g)
        mult = numerical_rank(acc / len(rep.elements))
        expected = equifred.reps._trace_multiplicity(values, traces)
        if mult != expected:
            raise InternalInconsistencyError(
                f"projector rank {mult} for the character {chi.exponents}, "
                f"the trace oracle says {expected}"
            )
        if mult:
            entries.append((chi, mult))
    entries.sort(key=lambda pair: pair[0].exponents)
    mv = MultiplicityVector(tuple(entries), rep.dim)
    if mv.total != rep.dim:
        raise InternalInconsistencyError(
            f"multiplicities sum to {mv.total}, dimension is {rep.dim}"
        )
    return mv


def reference_canonical_json(obj):
    """The recursive writer that `canonical_json` replaced for matrices, as an
    oracle: one `_write` call and one isinstance chain per node."""
    out = []
    _reference_write(obj, out, 0)
    return "".join(out) + "\n"


def _reference_write(obj, out, indent):
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            out.append('"nan"')
        elif math.isinf(x):
            out.append('"inf"' if x > 0 else '"-inf"')
        else:
            out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            _reference_write(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        keys = sorted(obj)
        if not all(isinstance(k, str) for k in keys):
            raise TypeError("canonical documents use string keys only")
        out.append("{\n")
        for i, k in enumerate(keys):
            out.append(pad + "  " + json.dumps(k, ensure_ascii=True) + ": ")
            _reference_write(obj[k], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_projector(rep, chi):
    """The per-element loop that `reps._projectors` replaced: the projector of
    chi accumulated one matrix at a time in carrier order, then divided by |G|."""
    acc = np.zeros((rep.dim, rep.dim), dtype=complex)
    for g in rep.elements:
        acc += np.conj(chi.value(g)) * rep.matrix(g)
    return acc / len(rep.elements)


def reference_induce(rep, gamma):
    """The double loop that the one-gather `induce` replaced, as a (|G|, n, n)
    stack in carrier order: block (j, i) of U(g) is rep(h) where g x_i = x_j h."""
    sub = rep.carrier if isinstance(rep.carrier, Subgroup) else full_subgroup(gamma)
    reps_, locate = coset_table(gamma, sub)
    r, d = len(reps_), rep.dim
    out = np.zeros((gamma.order, r * d, r * d), dtype=complex)
    for k, g in enumerate(gamma.elements):
        for i, x in enumerate(reps_):
            j, h = locate[gamma.op(g, x)]
            out[k, j * d : (j + 1) * d, i * d : (i + 1) * d] = rep.matrix(h)
    return out


def reference_symbol_average(rep, raw):
    """The average `random_symbol` wrote out: sum_h U(h) raw U(h)^* / |H|, one
    matrix at a time in carrier order."""
    return sum(rep.matrix(h) @ raw @ rep.matrix(h).conj().T for h in rep.elements) / len(
        rep.elements
    )


def reference_frobenius_average(f, source, target):
    """The average `frobenius_hom_map` wrote out, with S(-h) for S(h)^*:
    sum_h T(h) f S(-h) / |H| over the subgroup carrier of T."""
    gamma = source.carrier
    return sum(
        target.matrix(h) @ f @ source.matrix(gamma.inv(h)) for h in target.elements
    ) / len(target.elements)


def reference_all_subgroups(group):
    """The closure that `groups.all_subgroups` replaced: each H + g closed by
    `subgroup_from_generators` over every element of H and g."""
    seen = {trivial_subgroup(group).elements}
    frontier = [trivial_subgroup(group)]
    while frontier:
        sub = frontier.pop()
        for g in group.elements:
            if sub.contains(g):
                continue
            bigger = subgroup_from_generators(group, sub.elements + (g,))
            if bigger.elements not in seen:
                seen.add(bigger.elements)
                frontier.append(bigger)
    subs = [Subgroup(group, els) for els in seen]
    subs.sort(key=lambda s: (s.order, s.elements))
    return tuple(subs)


def reference_characters_of_subgroup(group, sub):
    """The enumeration that `groups.characters_of_subgroup` replaced, as the
    representatives' exponent tuples: every character of the group, named by
    the least exponent tuple of its coset (one `char_mul` per annihilator
    member), deduplicated and sorted."""
    return tuple(sorted({
        min(char_mul(chi, psi).exponents for psi in annihilator(group, sub))
        for chi in dual_characters(group)
    }))


def reference_associated(alpha, rho, gamma0):
    """The exponent-difference test that `groups.associated` replaced: alpha
    times the inverse of rho's representative is trivial on gamma0."""
    inverse = character(alpha.group, [-x for x in rho.representative.exponents])
    return char_mul(alpha, inverse).is_trivial_on(gamma0.elements)
