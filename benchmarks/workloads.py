"""Seeded inputs, job lists and correctness oracles for the three workloads.

Everything here uses numpy and the standard library only.  The generators do
not import equifred, so a change to the package cannot change the inputs, and
every oracle derives its expected answer from the generator's construction (or
from closed-form analysis), never from the package.

A job is one ``python -m equifred <verb> ...`` invocation.  Its oracle gets the
exit code, the parsed report (None when the job writes none) and stderr, and
returns None when the job is correct or a one-line reason when it is not.
"""
from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

Oracle = Callable[[int, object, str], "str | None"]


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]  # arguments after ``python -m equifred``
    report: Path | None  # where the job writes its report (--out), if it writes one
    oracle: Oracle


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    top_job: str  # name prefix of the jobs whose time is top_job_s


# ---------------------------------------------------------------------------
# finite abelian group arithmetic, written independently of equifred.groups


def elements(orders):
    return list(itertools.product(*(range(n) for n in orders)))


def add(a, b, orders):
    return tuple((x + y) % n for x, y, n in zip(a, b, orders))


def key(g):
    return ",".join(str(x) for x in g)


def closure(gens, orders):
    out = {tuple(0 for _ in orders)}
    frontier = list(out)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = add(cur, g, orders)
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return sorted(out)


def phase(exps, g, orders):
    """chi(g) as an exact multiple of 1/lcm(orders), reduced."""
    lcm = math.lcm(*orders)
    return sum(a * x * (lcm // n) for a, x, n in zip(exps, g, orders)) % lcm


def char_value(exps, g, orders):
    return np.exp(2j * np.pi * phase(exps, g, orders) / math.lcm(*orders))


def agree_on(a, b, sub, orders):
    """Do characters a and b take equal values on every element of sub?"""
    diff = tuple(x - y for x, y in zip(a, b))
    return all(phase(diff, h, orders) == 0 for h in sub)


def canonical(exps, sub, orders):
    """Least exponent tuple whose character agrees with exps on sub."""
    for cand in elements(orders):
        if agree_on(cand, exps, sub, orders):
            return list(cand)
    raise AssertionError("unreachable: exps itself agrees")


def haar_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def cdoc(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# small oracle helpers


def resolve_pointer(doc, pointer):
    node = doc
    for part in pointer.strip("/").split("/") if pointer.strip("/") else []:
        part = part.replace("~1", "/").replace("~0", "~")
        if isinstance(node, dict) and part in node:
            node = node[part]
        elif isinstance(node, list) and part.isdigit() and int(part) < len(node):
            node = node[int(part)]
        else:
            return False
    return True


def rejected_with_pointer(doc):
    """Oracle for a corrupted document: exit 1, every pointer resolves."""

    def oracle(rc, _report, err):
        if rc != 1:
            return f"exit {rc}, expected 1"
        pointers = [
            line[len("input error at "):].split(": ", 1)[0]
            for line in err.splitlines()
            if line.startswith("input error at ")
        ]
        if not pointers:
            return "no document pointer on stderr"
        bad = [p for p in pointers if not resolve_pointer(doc, p)]
        return f"pointer {bad[0]} does not resolve" if bad else None

    return oracle


# ---------------------------------------------------------------------------
# grid: bvp and sweep on the built-in families

GRID_SIZES = (64, 128, 256)
BC_PAIRS = ("dirichlet,neumann", "dirichlet,dirichlet", "neumann,neumann")
COUNT = 5


def analytic_spectrum(bc, count):
    k = np.arange(count, dtype=float)
    left, right = bc.split(",")
    if left == right == "dirichlet":
        return (k + 1.0) ** 2
    if left == right == "neumann":
        return k**2
    return (k + 0.5) ** 2


def bvp_oracle(bc):
    exact = analytic_spectrum(bc, COUNT)

    def oracle(rc, report, _err):
        if rc != 0:
            return f"exit {rc}, expected 0"
        tables = {t["n"]: np.array(t["eigenvalues"]) for t in report["tables"]}
        if sorted(tables) != list(GRID_SIZES):
            return f"tables for {sorted(tables)}, expected {list(GRID_SIZES)}"
        top = tables[GRID_SIZES[-1]]
        for e, x in zip(top, exact):
            off = abs(e) if x == 0.0 else abs(e - x) / x
            if off > (1e-8 if x == 0.0 else 0.01):
                return f"eigenvalue {e} vs analytic {x} at n={GRID_SIZES[-1]}"
        errs = [np.max(np.abs(tables[n] - exact)) for n in GRID_SIZES]
        order = -np.polyfit(np.log(GRID_SIZES), np.log(errs), 1)[0]
        return None if abs(order - 2.0) <= 0.3 else f"observed order {order:.3f}"

    return oracle


# family -> alpha -> (verdict, exit code), from the operators' construction:
# the shifted Laplacian is bounded below by 1 on both isotypes; the
# degenerate family multiplies the even isotype by sin^2, which vanishes at the
# reflection's fixed points, and is the identity on the odd isotype.
SWEEP_EXPECT = {
    "reflection_laplacian": {0: ("stable", 0), 1: ("stable", 0)},
    "degenerate_even": {0: ("degenerating", 2), 1: ("stable", 0)},
}


def sweep_oracle(family, alpha):
    verdict, code = SWEEP_EXPECT[family][alpha]

    def oracle(rc, report, _err):
        if rc != code:
            return f"exit {rc}, expected {code}"
        if report["verdict"] != verdict:
            return f"verdict {report['verdict']}, expected {verdict}"
        if report["sizes"] != list(GRID_SIZES) or report["alpha"] != [alpha]:
            return "report echoes the wrong sizes or alpha"
        return None

    return oracle


def grid_workload(work: Path, rng: np.random.Generator) -> Workload:
    """The grid workload has no documents: its flags are fixed, so --seed has no effect."""
    sizes = ",".join(str(n) for n in GRID_SIZES)
    jobs = []
    for bc in BC_PAIRS:
        out = work / f"bvp_{bc.replace(',', '_')}.json"
        argv = ("bvp", "--bc", bc, "--sizes", sizes, "--count", str(COUNT), "--out", str(out))
        jobs.append(Job(f"bvp:{bc}", argv, out, bvp_oracle(bc)))
    for family, alphas in SWEEP_EXPECT.items():
        for alpha in alphas:
            out = work / f"sweep_{family}_{alpha}.json"
            argv = ("sweep", "--family", family, "--alpha", str(alpha), "--sizes", sizes,
                    "--out", str(out))
            jobs.append(Job(f"sweep:{family}:{alpha}", argv, out, sweep_oracle(family, alpha)))
    return Workload(tuple(jobs), top_job="bvp:dirichlet,neumann")


# ---------------------------------------------------------------------------
# bundle: induced sample bundles with equivariant symbols


@dataclass(frozen=True)
class OrbitSpec:
    stabilizer_gens: tuple  # generators of the stabilizer subgroup
    fiber_dim: int


@dataclass(frozen=True)
class BundleSpec:
    """Fixed structure of one bundle document; the seed fills in the numbers.

    The first orbit realizes the minimal isotropy; every other stabilizer
    contains it.  ``alphas`` is how many characters ``check`` is run for
    (None: all of them).
    """

    name: str
    orders: tuple
    orbits: tuple
    alphas: int | None


BUNDLES = (
    BundleSpec("g4", (2, 2), (OrbitSpec((), 2), OrbitSpec(((1, 0), (0, 1)), 2)), None),
    BundleSpec(
        "g8", (2, 2, 2),
        (OrbitSpec((), 1), OrbitSpec(((1, 0, 0),), 2), OrbitSpec(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 2)),
        None,
    ),
    BundleSpec("g16", (4, 4), (OrbitSpec(((2, 0), (0, 2)), 2), OrbitSpec(((1, 0), (0, 1)), 3)), 4),
    BundleSpec("g32", (8, 4), (OrbitSpec(((2, 0), (0, 2)), 2), OrbitSpec(((1, 0), (0, 1)), 2)), 2),
    BundleSpec("g64", (8, 8), (OrbitSpec(((2, 0), (0, 2)), 3), OrbitSpec(((1, 0), (0, 1)), 2)), 3),
)
SHIFT = 1.0  # symbol = SHIFT * I + a perturbation of 2-norm at most PERTURB
PERTURB = 0.5


@dataclass
class BundleTruth:
    """What the generator knows about a document it wrote."""

    orders: tuple
    g0: list  # minimal isotropy, sorted elements
    killed: list | None  # exponents of a character of G whose class on g0 was zeroed
    orbits: list  # (sorted point ids, stabilizer elements, fiber character exps)


def make_bundle(spec: BundleSpec, rng: np.random.Generator, kill: bool):
    """Induced bundle: each orbit is G/H with fiber V = U diag(chi_i|H) U*.

    g acts on the coset point x_j H by g + x_j = x_k + h, with transport V(h),
    which satisfies the cocycle law exactly.  The symbol on an orbit is the
    constant U B U*, where B couples only fiber indices whose characters agree
    on H, so it commutes with every V(h) and with the transports.
    """
    orders = spec.orders
    G = elements(orders)
    doc = {"group": {"orders": list(orders)}, "points": [], "base": {}, "action": {},
           "fiber_dim": {}, "transport": {}, "symbol": {}}
    for g in G:
        doc["action"][key(g)] = {}
        doc["transport"][key(g)] = {}
    truth_orbits = []
    killed = None
    g0 = None
    for o, orbit in enumerate(spec.orbits):
        H = closure(orbit.stabilizer_gens, orders)
        if g0 is None:
            g0 = H
        reps_, covered = [], set()
        for g in G:
            if g not in covered:
                reps_.append(g)
                covered.update(add(g, h, orders) for h in H)
        locate = {add(x, h, orders): (j, h) for j, x in enumerate(reps_) for h in H}
        d = orbit.fiber_dim
        chars = [G[int(i)] for i in rng.integers(0, len(G), size=d)]
        u = haar_unitary(d, rng)
        same = np.array([[agree_on(a, b, H, orders) for b in chars] for a in chars])
        noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        noise = np.where(same, noise, 0.0)
        b = SHIFT * np.eye(d) + PERTURB * noise / max(np.linalg.norm(noise, 2), 1.0)
        if kill and o == 0:
            killed = list(chars[0])
            dead = [i for i, c in enumerate(chars) if agree_on(c, chars[0], H, orders)]
            b[dead, :] = 0.0
            b[:, dead] = 0.0
        sym = cdoc(u @ b @ u.conj().T)
        ids = [f"o{o}p{j:02d}" for j in range(len(reps_))]

        def v(h):
            return u @ np.diag([char_value(c, h, orders) for c in chars]) @ u.conj().T

        mats = {h: cdoc(v(h)) for h in H}
        for j, pid in enumerate(ids):
            doc["points"].append(pid)
            doc["base"][pid] = pid
            doc["fiber_dim"][pid] = d
            doc["symbol"][pid] = sym
            for g in G:
                k, h = locate[add(g, reps_[j], orders)]
                doc["action"][key(g)][pid] = ids[k]
                doc["transport"][key(g)][pid] = mats[h]
        truth_orbits.append((sorted(ids), H, chars))
    return doc, BundleTruth(orders, g0, killed, truth_orbits)


def check_oracle(truth: BundleTruth, alpha):
    # On a free orbit g0 is trivial, every alpha is associated with every
    # isotype, and the verdict is pointwise invertibility.  Otherwise only the
    # killed class can fail, and it is checked exactly for the alpha that
    # agree with it on g0.
    bad = truth.killed is not None and agree_on(alpha, truth.killed, truth.g0, truth.orders)
    verdict, code = ("not-elliptic", 2) if bad else ("elliptic", 0)

    def oracle(rc, report, _err):
        if rc != code:
            return f"exit {rc}, expected {code}"
        if report["verdict"] != verdict:
            return f"verdict {report['verdict']}, expected {verdict}"
        if sorted(map(tuple, report["gamma0"])) != truth.g0:
            return "gamma0 is not the minimal isotropy"
        return None

    return oracle


def prim_oracle(truth: BundleTruth):
    want = []
    for ids, H, chars in truth.orbits:
        classes = sorted({tuple(canonical(c, H, truth.orders)) for c in chars})
        want.append((ids[0], ids, [list(c) for c in classes]))
    want.sort()

    def oracle(rc, report, _err):
        if rc != 0:
            return f"exit {rc}, expected 0"
        got = sorted(
            (r["representative"], r["orbit"], r["isotypes"]) for r in report["records"]
        )
        if got != want:
            return "orbit/isotype records differ from the construction"
        if any(r["fiber_size"] != len(r["isotypes"]) for r in report["records"]):
            return "fiber_size differs from the isotype count"
        return None

    return oracle


def corrupt(doc, rng, what):
    """Break one entry of a valid bundle document (a deep copy)."""
    bad = json.loads(json.dumps(doc))
    group = [k for k in bad["action"] if any(x != "0" for x in k.split(","))]
    g = group[int(rng.integers(len(group)))]
    orbit0 = [p for p in bad["points"] if p.startswith("o0")]
    p = orbit0[int(rng.integers(len(orbit0)))]
    if what == "transport":
        # a unit phase keeps the matrix unitary but breaks the cocycle law
        m = np.array(bad["transport"][g][p])
        z = (m[..., 0] + 1j * m[..., 1]) * np.exp(0.7j)
        bad["transport"][g][p] = cdoc(z)
    else:
        # send p to another point of its own orbit (same fiber dimension)
        q = bad["action"][g][p]
        others = [x for x in orbit0 if x != q]
        bad["action"][g][p] = others[int(rng.integers(len(others)))]
    return bad


def bundle_workload(work: Path, rng: np.random.Generator) -> Workload:
    jobs = []
    for spec in BUNDLES:
        doc, truth = make_bundle(spec, rng, kill=bool(rng.integers(2)))
        path = write_json(work / f"bundle_{spec.name}.json", doc)
        G = elements(spec.orders)
        if spec.alphas is None:
            alphas = G
        elif truth.killed is not None:
            # half the alphas fail (associated with the killed class), half pass
            hit = [a for a in G if agree_on(a, truth.killed, truth.g0, spec.orders)]
            miss = [a for a in G if a not in hit]
            half = spec.alphas // 2
            alphas = [hit[int(i)] for i in rng.choice(len(hit), half, replace=False)]
            alphas += [miss[int(i)] for i in rng.choice(len(miss), spec.alphas - half, replace=False)]
        else:
            alphas = [G[int(i)] for i in rng.choice(len(G), spec.alphas, replace=False)]
        for a in alphas:
            out = work / f"check_{spec.name}_{key(a).replace(',', '_')}.json"
            argv = ("check", "--input", str(path), "--alpha", key(a), "--out", str(out))
            jobs.append(Job(f"check:{spec.name}", argv, out, check_oracle(truth, a)))
        out = work / f"prim_{spec.name}.json"
        argv = ("prim", "--input", str(path), "--out", str(out))
        jobs.append(Job(f"prim:{spec.name}", argv, out, prim_oracle(truth)))
        if spec.name == "g16":
            for what in ("transport", "action"):
                bad = corrupt(doc, rng, what)
                bad_path = write_json(work / f"bundle_{spec.name}_bad_{what}.json", bad)
                argv = ("check", "--input", str(bad_path), "--alpha", key(G[1]),
                        "--out", str(work / f"bad_{what}.json"))
                jobs.append(Job(f"reject:{what}", argv, None, rejected_with_pointer(bad)))
    return Workload(tuple(jobs), top_job="check:g64")


# ---------------------------------------------------------------------------
# dense-reps: decompose user matrices, induce from small subgroups

# (name, orders, dimension); dimension None is the regular representation
DENSE_REPS = (("regular_z8xz8", (8, 8), None), ("haar_z8xz8", (8, 8), 24),
              ("haar_z4xz4", (4, 4), 64))
# (orders, generator sets of order-4 subgroups)
INDUCTIONS = (
    ((8, 8), (((2, 0),), ((4, 0), (0, 4)))),
    ((16, 4), (((0, 1),), ((8, 0), (0, 2)))),
)


def dense_rep_doc(orders, dim, rng):
    G = elements(orders)
    if dim is None:
        index = {g: i for i, g in enumerate(G)}
        mats = {}
        for g in G:
            m = np.zeros((len(G), len(G)))
            for h in G:
                m[index[add(g, h, orders)], index[h]] = 1.0
            mats[key(g)] = cdoc(m)
        return {"group": {"orders": list(orders)}, "dim": len(G), "matrices": mats}, G
    chars = [G[int(i)] for i in rng.integers(0, len(G), size=dim)]
    u = haar_unitary(dim, rng)
    mats = {
        key(g): cdoc(u @ np.diag([char_value(c, g, orders) for c in chars]) @ u.conj().T)
        for g in G
    }
    return {"group": {"orders": list(orders)}, "dim": dim, "matrices": mats}, chars


def decompose_oracle(chars):
    want = Counter(tuple(c) for c in chars)

    def oracle(rc, report, _err):
        if rc != 0:
            return f"exit {rc}, expected 0"
        got = Counter({tuple(e["character"]): e["multiplicity"]
                       for e in report["multiplicities"]["entries"]})
        return None if got == want else "multiplicities differ from the generated multiset"

    return oracle


def induce_oracle(orders, gens, rho):
    G = elements(orders)
    H = closure(gens, orders)
    index = len(G) // len(H)
    # Frobenius reciprocity for a character induced from H: chi appears once
    # when it restricts to rho on H, and not at all otherwise
    want = Counter(g for g in G if agree_on(g, rho, H, orders))

    def oracle(rc, report, _err):
        if rc != 0:
            return f"exit {rc}, expected 0"
        if report["dim"] != index or sorted(map(tuple, report["subgroup"])) != H:
            return "dimension or subgroup differs from the construction"
        got = Counter({tuple(e["character"]): e["multiplicity"]
                       for e in report["multiplicities"]["entries"]})
        if got != want:
            return "multiplicities break the Frobenius law"
        # induced character: [G:H] rho(g) on H, zero off H
        for g in G:
            m = report["induced"]["matrices"][key(g)]
            trace = sum(complex(*m[i][i]) for i in range(index))
            exact = index * char_value(rho, g, orders) if g in H else 0.0
            if abs(trace - exact) > 1e-9:
                return f"induced character wrong at {key(g)}"
        return None

    return oracle


def dense_workload(work: Path, rng: np.random.Generator) -> Workload:
    jobs = []
    for name, orders, dim in DENSE_REPS:
        doc, chars = dense_rep_doc(orders, dim, rng)
        path = write_json(work / f"rep_{name}.json", doc)
        out = work / f"decompose_{name}.json"
        jobs.append(Job(f"decompose:{name}", ("decompose", "--input", str(path), "--out", str(out)),
                        out, decompose_oracle(chars)))
    for orders, candidates in INDUCTIONS:
        for gens in candidates:
            rho = tuple(int(rng.integers(n)) for n in orders)
            doc = {"group": {"orders": list(orders)}, "subgroup_generators": [list(g) for g in gens],
                   "character_exponents": list(rho)}
            tag = "x".join(map(str, orders)) + "_" + "_".join(key(g).replace(",", "") for g in gens)
            path = write_json(work / f"induce_{tag}.json", doc)
            out = work / f"induced_{tag}.json"
            jobs.append(Job(f"induce:{tag}", ("induce", "--input", str(path), "--out", str(out)),
                            out, induce_oracle(orders, gens, rho)))
    return Workload(tuple(jobs), top_job="decompose:regular_z8xz8")


WORKLOADS = {"grid": grid_workload, "bundle": bundle_workload, "dense-reps": dense_workload}
