"""Same results, a parent revision against the working tree.

    python tests/compare_trees.py [--parent REV]

The parent (default HEAD) is checked out with ``git worktree add`` into a
temporary directory, and one corpus of jobs runs on each tree, one job at a
time, with one BLAS thread and PYTHONHASHSEED=0:

- every job of the three benchmark workloads at seeds 11 and 23, from
  ``benchmarks/workloads.py``, which writes its documents without the package;
- ``check --alpha`` 0, 1, -1, 2, 0,0, 1,0, 0,1, 1,1 and ``prim`` on the four
  ``tests/data/bundle_*.json``, ``decompose`` and ``induce`` on the other
  fixtures;
- ``check --alpha 1,0`` on the three baseline bundle documents of ROADMAP.md
  (``make_bundle`` at seed 5, a killed isotype), ``check --alpha 1`` and
  ``prim`` on the Z_4000 and Z_8000 fixed points, and ``induce`` of (Z_2)^12
  and of Z_4096 from a subgroup of index 2 and of index 8;
- refusal rows of ``tests/test_cli.py``;
- the six demos' stdout.

A job's exit code, stdout and stderr must be identical.  Its report (the
``--out`` file, or stdout when there is none) must be byte-identical, or
differ only in the leaves ``smallest_singular_value`` and
``condition_estimate``: a move of at most 1e-15 relative counts as moved, and
a block whose smallest singular value is at most 1e-8 on both sides (under the
rank cut) counts its moves as noise.  Anything else is a difference.  The
table printed at the end is what a CHANGES entry quotes; the exit code is 1
when any job differs.

The script uses the standard library and numpy only, and pytest does not
collect it (its name does not start with ``test_``).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
ALLOWED = ("smallest_singular_value", "condition_estimate")
MOVE = 1e-15  # the largest relative move of an allowed leaf
CUT = 1e-8  # a smallest singular value at most this on both sides is noise

sys.path.insert(0, str(ROOT / "benchmarks"))
import workloads  # noqa: E402  (numpy and the standard library only)


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _fixed_point(n: int) -> dict:
    """G = Z_n fixing one point, a 1-dimensional fiber, every transport and
    the symbol [[1]]."""
    one = [[[1.0, 0.0]]]
    return {"group": {"orders": [n]}, "points": ["p"], "base": {"p": "p"}, "fiber_dim": {"p": 1},
            "action": {str(g): {"p": "p"} for g in range(n)},
            "transport": {str(g): {"p": one} for g in range(n)}, "symbol": {"p": one}}


def corpus(docs: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every job; "{out}" in an argv is the job's report path."""
    jobs = []

    def report(name: str, *argv: str) -> None:  # a job that writes its report to {out}
        jobs.append((name, [*argv, "--out", "{out}"]))

    for seed in (11, 23):
        for wname, make in workloads.WORKLOADS.items():
            work = docs / f"{wname}-{seed}"
            work.mkdir()
            for i, job in enumerate(make(work, np.random.default_rng(seed)).jobs):
                argv = list(job.argv)
                if "--out" in argv:
                    argv[argv.index("--out") + 1] = "{out}"
                jobs.append((f"{wname}:{seed}:{i}:{job.name}", argv))

    for path in sorted(DATA.glob("bundle_*.json")):
        for alpha in ("0", "1", "-1", "2", "0,0", "1,0", "0,1", "1,1"):
            report(f"fixture:{path.stem}:check {alpha}",
                   "check", "--input", str(path), "--alpha", alpha)
        report(f"fixture:{path.stem}:prim", "prim", "--input", str(path))
    for verb, stem in (("decompose", "rep_z3_regular"), ("induce", "induce_z4_sign")):
        report(f"fixture:{stem}", verb, "--input", str(DATA / f"{stem}.json"))

    spec, orbit = workloads.BundleSpec, workloads.OrbitSpec
    fixed = orbit(((1, 0), (0, 1)), 2)
    for name, orders, first in (("z32xz32-65", (32, 32), orbit(((8, 0), (0, 8)), 2)),
                                ("z16xz16-free", (16, 16), orbit((), 2)),
                                ("z32xz32-free", (32, 32), orbit((), 1))):
        doc, _ = workloads.make_bundle(spec(name, orders, (first, fixed), None),
                                       np.random.default_rng(5), kill=True)
        path = _write(docs / f"baseline-{name}.json", doc)
        report(f"baseline:{name}", "check", "--input", path, "--alpha", "1,0")
        del doc
    for n in (4000, 8000):
        path = _write(docs / f"fixed-{n}.json", _fixed_point(n))
        report(f"fixed:{n}:check", "check", "--input", path, "--alpha", "1")
        report(f"fixed:{n}:prim", "prim", "--input", path)
    unit = [[1 if j == i else 0 for j in range(12)] for i in range(1, 12)]
    for name, orders, gens, exps in (("z2^12-index2", [2] * 12, unit, [1] * 12),
                                     ("z4096-index2", [4096], [[2]], [3]),
                                     ("z4096-index8", [4096], [[8]], [5])):
        path = _write(docs / f"induce-{name}.json", {
            "group": {"orders": orders}, "subgroup_generators": gens, "character_exponents": exps})
        report(f"induce:{name}", "induce", "--input", path)

    free, fixed_doc = str(DATA / "bundle_free_orbit.json"), str(DATA / "bundle_fixed_points.json")
    refusals = [
        ["sweep", "--family", "reflection_laplacian", "--alpha", "0", "--sizes", "0,64"],
        ["sweep", "--family", "degenerate_even", "--alpha", "0", "--sizes", "64,63"],
        ["sweep", "--family", "reflection_laplacian", "--alpha", "0", "--sizes", "64,64"],
        ["sweep", "--family", "reflection_laplacian", "--alpha", "0", "--sizes", f"64,{10**12}"],
        ["sweep", "--family", "mystery", "--alpha", "0"],
        ["sweep", "--family", "zero", "--alpha", "0", "--k", "0"],
        ["bvp", "--bc", "d,n", "--sizes", "16,3"],
        ["bvp", "--bc", "d,n", "--sizes", "64,1000000000000"],
        ["bvp", "--bc", "d,n", "--count", "0"],
        ["bvp", "--bc", "d,n", "--sizes", "512,8", "--count", "100"],
        ["bvp", "--bc", "d,n", "--sizes", "8,16", "--tol", "0.5"],
        ["decompose", "--input", str(DATA / "rep_z3_regular.json"), "--tol", "0.5"],
        ["check", "--input", free, "--alpha", "0", "--frob"],
        ["check", "--input", free, "--alpha", "0", "--tol", "nan"],
        ["check", "--input", fixed_doc, "--alpha", "0", "--out", str(docs / "absent" / "x.json")],
        ["frobnicate"],
    ]
    for name, doc in (
        ("induce-1e12", {"group": {"orders": [10**12]}, "subgroup_generators": [[2]],
                         "character_exponents": [1]}),
        ("induce-2e6", {"group": {"orders": [2000000]}, "subgroup_generators": [[0]],
                        "character_exponents": [0]}),
        ("induce-ceiling", {"group": {"orders": [256]}, "subgroup_generators": [[0]],
                            "character_exponents": [0]}),
        ("induce-not-integer", {"group": {"orders": [4]}, "subgroup_generators": [[2.7]],
                                "character_exponents": [1]}),
        ("rep-huge-entry", {"group": {"orders": [2]}, "dim": 1,
                            "matrices": {"0": [[[1, 0]]], "1": [[[1e200, 0]]]}}),
    ):
        verb = "decompose" if name.startswith("rep") else "induce"
        refusals.append([verb, "--input", _write(docs / f"refuse-{name}.json", doc)])
    bad = json.loads(Path(free).read_text())
    bad["transport"]["1"]["q0"][0][0] = [1e200, 0]
    bad_path = _write(docs / "refuse-huge-transport.json", bad)
    refusals.append(["check", "--input", bad_path, "--alpha", "0"])
    jobs += [(f"refuse:{i}:{argv[0]}", argv) for i, argv in enumerate(refusals)]

    jobs += [(f"demo:{p.stem}", ["demo", p.name]) for p in sorted((ROOT / "demos").glob("*.py"))]
    return jobs


def run(tree: Path, argv: list[str], out: Path) -> tuple[int, bytes, bytes, bytes | None]:
    """(exit code, stdout, stderr, report bytes or None) of one job on one tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if argv[0] == "demo":
        cmd = [sys.executable, str(tree / "demos" / argv[1])]
    else:
        cmd = [sys.executable, "-m", "equifred", *(str(out) if a == "{out}" else a for a in argv)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=600)
    report = out.read_bytes() if out.exists() else None
    return proc.returncode, proc.stdout, proc.stderr, report


def leaves(a, b, tally: dict, parent=None, key=None) -> bool:
    """Walk two parsed reports together; False at the first difference that
    the rule does not allow.  tally counts moved and noise leaves and keeps
    the largest relative move."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(leaves(a[k], b[k], tally, (a, b), k) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(leaves(x, y, tally, parent, key) for x, y in zip(a, b))
    if a == b and type(a) is type(b):
        return True
    if key not in ALLOWED or not all(isinstance(x, (int, float)) for x in (a, b)):
        return False
    low = [p.get("smallest_singular_value") for p in parent]
    if all(isinstance(x, (int, float)) and x <= CUT for x in low):
        tally["noise"] += 1
        return True
    rel = abs(a - b) / max(abs(a), abs(b))
    tally["largest"] = max(tally["largest"], rel)
    tally["moved"] += 1
    return rel <= MOVE


def compare(old, new, tally: dict) -> str | None:
    """None when two runs of a job agree under the rule, else what differs."""
    for what, x, y in zip(("exit code", "stdout", "stderr"), old[:3], new[:3]):
        if x != y and not (what == "stdout" and old[3] is None and _same_json(x, y, tally)):
            return what
    if old[3] != new[3]:
        if old[3] is None or new[3] is None or not _same_json(old[3], new[3], tally):
            return "report"
    return None


def _same_json(x: bytes, y: bytes, tally: dict) -> bool:
    try:
        a, b = json.loads(x), json.loads(y)
    except ValueError:
        return False
    return leaves(a, b, tally)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="the revision to compare against")
    args = parser.parse_args(argv)

    rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    scratch = Path(tempfile.mkdtemp(prefix="compare_trees-"))
    parent = scratch / "parent"
    subprocess.run(["git", "worktree", "add", "--detach", str(parent), rev], cwd=ROOT,
                   capture_output=True, check=True)
    try:
        docs = scratch / "docs"
        docs.mkdir()
        jobs = corpus(docs)
        tally = {"moved": 0, "noise": 0, "largest": 0.0}
        identical, different, took = 0, [], {"parent": 0.0, "tree": 0.0}
        for i, (name, job) in enumerate(jobs):
            results, out = [], scratch / f"report-{i}.json"  # one path: a message may name it
            for side, tree in (("parent", parent), ("tree", ROOT)):
                start = time.perf_counter()
                results.append(run(tree, job, out))
                took[side] += time.perf_counter() - start
                out.unlink(missing_ok=True)
            old, new = results
            if old == new:
                identical += 1
            else:
                what = compare(old, new, tally)
                if what is not None:
                    different.append((name, what))
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(parent)], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)

    parts: dict[str, int] = {}
    for name, _ in jobs:
        parts[name.split(":")[0]] = parts.get(name.split(":")[0], 0) + 1
    print(f"parent {rev} against the working tree, {len(jobs)} runs each side: "
          + ", ".join(f"{part} {count}" for part, count in parts.items()))
    print("| runs | identical | moved values | largest relative move | noise values | different |")
    print("| --- | --- | --- | --- | --- | --- |")
    print(f"| {len(jobs)} | {identical} | {tally['moved']} | {tally['largest']:.3g} | "
          f"{tally['noise']} | {len(different)} |")
    print(f"job time: parent {took['parent']:.1f} s, working tree {took['tree']:.1f} s")
    for name, what in different:
        print(f"different: {name} ({what})")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
