"""Shared helpers: group enumeration, trace-based multiplicity oracles and
loop references for the batched representation, monomial and bundle checks,
the orbit and stabilizer walks, the stack builders, projectors and group
averages, the subgroup lattice, the subgroup dual and the restriction test
(on their own annihilator walk), and the flat report writer; raw bundle data
from the old `random_bundle` loop and from a plain walk of a bundle
document; the dense section oracle for alpha-ellipticity, a symbol with an
isotype killed on any orbit, and the per-XPoint loop that the batched
ellipticity verdict replaced; a numpy-only writer of valid free-orbit bundle
documents."""

import functools
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
    build_X,
    carrier_dual,
    char_mul,
    character,
    decompose,
    deterministic_range_basis,
    dual_characters,
    fiber_rep,
    full_subgroup,
    isotypical_projector,
    make_group,
    minimal_isotropy,
    numerical_rank,
    orbits,
    propagate_symbol,
    random_rep,
    subgroup_from_generators,
    trivial_subgroup,
)
from equifred.bundles import BundleValidation, Violation
from equifred.groups import all_subgroups, coset_table


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


def reference_random_bundle(group, rng, *, n_orbits=None, max_fiber_dim=3, min_isotropy=None):
    """The dict loop `random_bundle` was written as, drawing from rng in the
    same order: its raw (group, points, base, action, fiber_dim, transport)."""
    subs = all_subgroups(group)
    if min_isotropy is not None:
        g0 = min_isotropy
    else:
        g0 = subs[int(rng.integers(len(subs)))]
    containing = [s for s in subs if g0.is_subgroup_of(s)]
    count = n_orbits if n_orbits is not None else int(rng.integers(1, 4))

    points, base, action, fdim, transport = [], {}, {}, {}, {}
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
    return group, points, base, action, fdim, transport


def _plain_matrix(node):
    return np.array([[complex(re, im) for re, im in row] for row in node], dtype=complex)


def raw_bundle_document(doc):
    """A bundle document walked plainly into raw (group, points, base, action,
    fiber_dim, transport) dicts keyed by (element, point); a two-fiber
    document's transports are folded block-diagonally, as `load_bundle` does."""
    group = make_group(doc["group"]["orders"])

    def element(key):
        return tuple(int(x) for x in key.split(","))

    action = {(element(k), p): q for k, row in doc["action"].items() for p, q in row.items()}

    def transports(field):
        return {(element(k), p): _plain_matrix(m)
                for k, row in doc[field].items() for p, m in row.items()}

    transport, fiber_dim = transports("transport"), dict(doc["fiber_dim"])
    if "transport_out" in doc:
        out = transports("transport_out")
        for key, a in transport.items():
            b = out[key]
            m = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
            m[: a.shape[0], : a.shape[1]], m[a.shape[0] :, a.shape[1] :] = a, b
            transport[key] = m
        fiber_dim = {p: d + doc["fiber_dim_out"][p] for p, d in fiber_dim.items()}
    return group, doc["points"], doc["base"], action, fiber_dim, transport


def is_structural(v):
    """Whether a reference violation says that the data cannot fill the
    tables: an action entry or transport missing, an image off the points,
    a label missing, a bad fiber dimension or a transport of the wrong shape."""
    return (v.detail in ("missing", "missing label", "missing or non-positive")
            or v.detail.endswith("is not a point") or v.detail.startswith("shape ("))


def reference_validate_bundle(group, points, base, action, fiber_dim, transport, *, tol=1e-10):
    """The pair-by-pair bundle validator that `validate_bundle` replaced, on
    the raw dicts keyed by (element, point) that `sample_bundle` takes.

    Kept only as an oracle: `sample_bundle` must refuse the first structural
    violation it lists, and `validate_bundle` must return the others, in
    the same order.  One SVD 2-norm per (g, p) or (g, h, p).  On a
    composition failure between fibers of different dimensions the cocycle
    subtraction raises (numpy cannot broadcast the two sides).
    """
    out = []
    points = sorted(str(p) for p in points)
    pts = set(points)
    elems = group.elements
    fiber_dim = {p: int(d) for p, d in fiber_dim.items()}
    transport = {k: np.array(m, dtype=complex) for k, m in transport.items()}

    def act(g, p):
        return action[(g, p)]

    def key(g):
        return ",".join(str(x) for x in g)

    def bad(kind, loc, detail):
        out.append(Violation(kind, loc, detail))

    for g in elems:
        for p in points:
            if (g, p) not in action:
                bad("action", f"/action/{key(g)}/{p}", "missing")
                continue
            q = action[(g, p)]
            if q not in pts:
                bad("action", f"/action/{key(g)}/{p}", f"image {q!r} is not a point")
    if out:
        return BundleValidation(tuple(out))

    for p in points:
        if act(group.identity, p) != p:
            bad("action", f"/action/{key(group.identity)}/{p}", "identity must fix every point")
    for g, h, p in itertools.product(elems, elems, points):
        if act(g, act(h, p)) != act(group.op(g, h), p):
            bad(
                "action",
                f"/action/{key(g)}/{act(h, p)}",
                f"composition law fails against {key(group.op(g, h))} at {p}",
            )

    for p in points:
        if p not in base:
            bad("base", f"/base/{p}", "missing label")
    if not any(v.kind == "base" for v in out):
        for g in elems:
            seen = {}
            for p in points:
                lbl, img = base[p], base[act(g, p)]
                if lbl in seen and seen[lbl] != img:
                    bad(
                        "base",
                        f"/base/{act(g, p)}",
                        f"label {lbl!r} moves inconsistently under {key(g)}",
                    )
                seen.setdefault(lbl, img)

    for p in points:
        if p not in fiber_dim or fiber_dim[p] < 1:
            bad("fiber", f"/fiber_dim/{p}", "missing or non-positive")
    if any(v.kind == "fiber" for v in out):
        return BundleValidation(tuple(out))

    for g in elems:
        for p in points:
            if (g, p) not in transport:
                bad("transport", f"/transport/{key(g)}/{p}", "missing")
                continue
            m = transport[(g, p)]
            want = (fiber_dim[act(g, p)], fiber_dim[p])
            if m.shape != want:
                bad("transport", f"/transport/{key(g)}/{p}", f"shape {m.shape}, expected {want}")
    if any(v.kind == "transport" for v in out):
        return BundleValidation(tuple(out))

    for g in elems:
        for p in points:
            m = transport[(g, p)]
            err = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[1]), 2)
            if err > tol:
                bad("transport", f"/transport/{key(g)}/{p}", f"not unitary ({err:.3e})")
    for p in points:
        m = transport[(group.identity, p)]
        if np.linalg.norm(m - np.eye(m.shape[0]), 2) > tol:
            bad("transport", f"/transport/{key(group.identity)}/{p}", "identity transport != I")
    for g, h, p in itertools.product(elems, elems, points):
        lhs = transport[(g, act(h, p))] @ transport[(h, p)]
        rhs = transport[(group.op(g, h), p)]
        err = np.linalg.norm(lhs - rhs, 2)
        if err > tol:
            bad(
                "transport",
                f"/transport/{key(g)}/{act(h, p)}",
                f"cocycle defect {err:.3e} against {key(group.op(g, h))} at {p}",
            )
    return BundleValidation(tuple(out))


def reference_orbits(group, points, action):
    """The walks that the action-table `orbits` replaced: the orbit of each
    point not yet seen, sorted, in sorted point order."""
    done, out = set(), []
    for p in sorted(points):
        if p not in done:
            orb = tuple(sorted({action[(g, p)] for g in group.elements}))
            done.update(orb)
            out.append(orb)
    return tuple(out)


def reference_isotropy(group, points, action, p):
    """The stabilizer of p by one action lookup per element (ValueError off the points)."""
    if p not in points:
        raise ValueError(f"{p!r} is not a point of the bundle")
    return Subgroup(group, tuple(sorted(g for g in group.elements if action[(g, p)] == p)))


def reference_minimal_isotropy(group, points, action):
    """The least of the walked stabilizers by (order, elements), which must lie
    in every other one; the full group on an empty bundle."""
    stabs = {reference_isotropy(group, points, action, p) for p in points}
    if not stabs:
        return full_subgroup(group)
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
    first point attaining it: what the equivariance gate of
    `alpha_elliptic_check` prints when it refuses a symbol."""
    b = sym.bundle
    worst, where = 0.0, None
    for g in range(b.group.order):
        for i, p in enumerate(b.points):
            t = b.transports.take(np.array([g * len(b.points) + i]))[0]
            q = b.points[b.table[g, i]]
            err = float(np.linalg.norm(sym.value(q) - t @ sym.value(p) @ t.conj().T, 2))
            if err > worst:
                worst, where = err, p
    return worst, where


def reference_decompose(rep):
    """The per-character loop that the batched `decompose` replaced, as an oracle.

    For each character in dual order: its values one element at a time, the
    projector accumulated one matrix at a time, its rank by `numerical_rank`,
    then the trace oracle's value from the same values, handed to the hook
    `reps._trace_multiplicity` (looked up at call time so a test can patch
    it for both routes).  Raises what `decompose` raised.
    """
    entries = []
    traces = rep.traces
    for chi in carrier_dual(rep.carrier):
        values = np.array([chi.value(g) for g in rep.elements], dtype=complex)
        acc = np.zeros((rep.dim, rep.dim), dtype=complex)
        for g, value in zip(rep.elements, values):
            acc += np.conj(value) * rep.matrix(g)
        mult = numerical_rank(acc / len(rep.elements))
        expected = equifred.reps._trace_multiplicity(chi, np.vdot(values, traces) / len(values))
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


def _trivial_on(chi, elements):
    """chi is 1 at every element: each phase numerator sum_i a_i x_i L/n_i,
    L = lcm(orders), vanishes mod L."""
    orders = chi.group.orders
    lcm = math.lcm(*orders)
    return all(sum(a * x * (lcm // n) for a, x, n in zip(chi.exponents, g, orders)) % lcm == 0
               for g in elements)


@functools.lru_cache(maxsize=None)
def reference_annihilator(group, sub):
    """The walk `groups.annihilator` replaced: every character of the group
    that is trivial on each element of sub."""
    return tuple(chi for chi in dual_characters(group) if _trivial_on(chi, sub.elements))


def reference_subgroup_character(sub, chi):
    """The `min` walk that `SubgroupCharacter` replaced: the least exponent
    tuple of chi's coset of the annihilator (one `char_mul` per member)."""
    return min(char_mul(chi, psi).exponents for psi in reference_annihilator(sub.parent, sub))


def reference_characters_of_subgroup(group, sub):
    """The enumeration that `groups.characters_of_subgroup` replaced, as the
    representatives' exponent tuples: every character of the group, named by
    the least exponent tuple of its coset, deduplicated and sorted."""
    return tuple(sorted({reference_subgroup_character(sub, chi) for chi in dual_characters(group)}))


def reference_associated(alpha, rho, gamma0):
    """The exponent-difference test that `groups.associated` replaced: alpha
    times the inverse of rho's representative is trivial on gamma0."""
    inverse = character(alpha.group, [-x for x in rho.representative.exponents])
    return _trivial_on(char_mul(alpha, inverse), gamma0.elements)


def section_rep(b):
    """The bundle's group on its sections, the direct sum of the fibers in
    point order: (U(g)s)(g.p) = T(g, p) s(p), as a (|G|, N, N) stack, and
    the offset of each fiber (its last entry is N)."""
    n = len(b.points)
    off = np.concatenate([[0], np.cumsum([b.fiber_dim[p] for p in b.points])])
    u = np.zeros((b.group.order, off[-1], off[-1]), dtype=complex)
    for g in range(b.group.order):
        for i in range(n):
            j, t = b.table[g, i], b.transports.take(np.array([g * n + i]))[0]
            u[g, off[j] : off[j + 1], off[i] : off[i + 1]] = t
    return u, off


def section_blocks_invertible(sym, alphas, *, tol=1e-8):
    """Whether pi_alpha(S), S the direct sum of the symbol values, is
    invertible on the sections for every alpha given: its compression to an
    eigh basis of the dense isotypical projector of `section_rep`, judged
    orbit by orbit (each orbit's sections are invariant) by the margin rule
    smin >= tol * max(1, smax) of `alpha_elliptic_check`.  An empty
    isotype is vacuously invertible."""
    b = sym.bundle
    u, off = section_rep(b)
    s = np.zeros(u.shape[1:], dtype=complex)
    for i, p in enumerate(b.points):
        s[off[i] : off[i + 1], off[i] : off[i + 1]] = sym.value(p)
    lead = b.table.min(axis=0)  # the least point of each point's orbit
    for alpha in alphas:
        values = np.array([alpha.value(g) for g in b.group.elements])
        proj = np.einsum("g,gij->ij", values.conj(), u) / len(values)
        for first in np.unique(lead):
            orbit = np.flatnonzero(lead == first)
            idx = np.concatenate([np.arange(off[i], off[i + 1]) for i in orbit])
            w, v = np.linalg.eigh(proj[np.ix_(idx, idx)])
            basis = v[:, w > 0.5]
            if basis.shape[1]:
                sv = np.linalg.svd(basis.conj().T @ s[np.ix_(idx, idx)] @ basis, compute_uv=False)
                if sv[-1] < tol * max(1.0, sv[0]):
                    return False
    return True


def reference_alpha_elliptic(sym, alpha, *, tol=1e-8):
    """alpha-ellipticity as the invertibility of pi_alpha'(S) on the sections
    for every alpha' that agrees with alpha on the minimal isotropy (the
    stabilizer with the fewest elements, read off the table).  By Frobenius
    reciprocity the alpha'-isotype of an orbit's sections is the
    alpha'|stabilizer isotype of one fiber, and restriction onto a
    stabilizer's dual is onto, so these alpha' reach every isotype over
    alpha restricted to the minimal isotropy."""
    b = sym.bundle
    fixes = b.table == np.arange(len(b.points))
    gamma0 = [b.group.elements[g] for g in np.flatnonzero(fixes[:, np.argmin(fixes.sum(axis=0))])]
    coset = [a for a in dual_characters(b.group)
             if all(np.isclose(a.value(h), alpha.value(h)) for h in gamma0)]
    return section_blocks_invertible(sym, coset, tol=tol)


def kill_isotype(sym, rng):
    """sym with one isotype zeroed on an orbit drawn from all of them: the
    value at the orbit's least point times I - P_rho, for a rho of its
    stabilizer drawn from the fiber's isotypes, propagated equivariantly.
    Returns the new symbol, the orbit and rho."""
    b = sym.bundle
    orbs = orbits(b)
    orb = orbs[int(rng.integers(len(orbs)))]
    rep = fiber_rep(b, orb[0])
    chars = decompose(rep).characters()
    rho = chars[int(rng.integers(len(chars)))]
    seeds = {o[0]: sym.value(o[0]) for o in orbs}
    seeds[orb[0]] = seeds[orb[0]] @ (np.eye(rep.dim) - isotypical_projector(rep, rho))
    return propagate_symbol(b, seeds), orb, rho


def reference_elliptic_loop(sym, alpha, *, tol=1e-8):
    """The loop `alpha_elliptic_check` ran before its blocks were batched per
    X-orbit: the orbits of X associated to alpha over the minimal isotropy
    (by the exponent-difference test), then for every XPoint its own basis
    (pivoted Gram-Schmidt of the isotype's projector at the multiplicity
    `decompose` decides), its own block and its own SVD, the verdict read at
    each orbit's first point.  Returns the entries as (point, rho,
    representative, block_dim, smallest singular value, condition estimate,
    largest singular value), the verdict and the warnings."""
    b = sym.bundle
    g0 = minimal_isotropy(b)
    part = [orb for orb in build_X(b) if reference_associated(alpha, orb[0].rho, g0)]
    entries, verdict = [], True
    warnings = [] if part else [
        "vacuous: no sample isotype is associated to alpha over the minimal isotropy"]
    for orb in part:
        rep_point, mins, rep_ok = orb[0].point, [], True
        for xp in orb:
            rep = fiber_rep(b, xp.point)
            k = dict(decompose(rep).entries)[xp.rho]
            basis = deterministic_range_basis(isotypical_projector(rep, xp.rho), k)
            block = basis.conj().T @ sym.value(xp.point) @ basis
            s = np.linalg.svd(block, compute_uv=False)
            smin, smax = float(s[-1]), float(s[0])
            cond = smax / smin if smin > 0 else float("inf")
            entries.append((xp.point, xp.rho, rep_point, block.shape[0], smin, cond, smax))
            mins.append(smin)
            if xp.point == rep_point:
                rep_ok = smin >= tol * max(1.0, smax)
        spread = max(mins) - min(mins)
        if spread > 1e-9 * max(1.0, max(mins)):
            warnings.append(f"orbit of {rep_point!r}: singular values spread by {spread:.3e}")
        verdict = verdict and rep_ok
    return entries, verdict, warnings


def free_orbit_bundle_doc(orders, dim, rng):
    """A valid bundle document, written with numpy alone: G acting on itself
    by translation, with dense transports T(g, p) = U(g + p) U(p)^* and the
    symbol U(p) S U(p)^*, for a random unitary U(p) per point and one random
    S, so the cocycle and equivariance laws hold up to rounding.  Points are
    listed in reverse order, so the document order is not the sorted one."""
    elems = list(itertools.product(*(range(n) for n in orders)))
    key = lambda g: ",".join(map(str, g))  # noqa: E731
    name = {g: "p" + "_".join(map(str, g)) for g in elems}
    unitary = {g: np.linalg.qr(rng.standard_normal((dim, dim))
                               + 1j * rng.standard_normal((dim, dim)))[0] for g in elems}
    s = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    node = lambda m: np.stack([m.real, m.imag], axis=-1).tolist()  # noqa: E731
    plus = lambda g, h: tuple((a + b) % n for a, b, n in zip(g, h, orders))  # noqa: E731
    return {
        "group": {"orders": list(orders)},
        "points": [name[g] for g in reversed(elems)],
        "base": {name[g]: name[g] for g in elems},
        "fiber_dim": {name[g]: dim for g in elems},
        "action": {key(g): {name[h]: name[plus(g, h)] for h in elems} for g in elems},
        "transport": {key(g): {name[h]: node(unitary[plus(g, h)] @ unitary[h].conj().T)
                               for h in elems} for g in elems},
        "symbol": {name[g]: node(unitary[g] @ s @ unitary[g].conj().T) for g in elems},
    }


def fixed_point_bundle_doc(n):
    """The Z_n fixed-point bundle document, written with numpy alone: one
    point that every element fixes, a 1-dimensional fiber, and every
    transport and the symbol [[1]], each node its own list."""
    one = np.stack([np.ones((1, 1)), np.zeros((1, 1))], axis=-1)
    return {"group": {"orders": [n]}, "points": ["p"], "base": {"p": "p"}, "fiber_dim": {"p": 1},
            "action": {str(g): {"p": "p"} for g in range(n)},
            "transport": {str(g): {"p": one.tolist()} for g in range(n)},
            "symbol": {"p": one.tolist()}}
