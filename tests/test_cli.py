"""End-to-end tests of the command line front end.

Each command is run in-process through ``main(argv)`` so exit codes, stdout
documents, and stderr diagnostics can all be asserted; one test also goes
through ``python3 -m equifred`` to pin the installed entry point.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import equifred.bundles
import equifred.cli
import equifred.groups
import equifred.lab
import equifred.reps
from equifred import InternalInconsistencyError
from equifred.cli import main

DATA = Path(__file__).parent / "data"
FIXED = str(DATA / "bundle_fixed_points.json")
FREE = str(DATA / "bundle_free_orbit.json")
TWO_FIBER = str(DATA / "bundle_two_fiber.json")
BAD_TRANSPORT = str(DATA / "bundle_bad_transport.json")
REP_Z3 = str(DATA / "rep_z3_regular.json")
INDUCE_Z4 = str(DATA / "induce_z4_sign.json")


def run(capsys, *argv):
    try:
        rc = main(list(argv))
    except SystemExit as exc:  # argparse errors and validation bail-outs
        rc = int(exc.code or 0)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert out.endswith("\n") and not err, err
    return rc, json.loads(out)


def resolves(doc, pointer, detail):
    """Does a stderr pointer name a node of doc?  A "missing" error names the
    absent member of a node that exists."""
    parts = pointer.strip("/").split("/") if pointer.strip("/") else []
    node = doc
    for i, part in enumerate(parts):
        if isinstance(node, dict) and part in node:
            node = node[part]
        elif isinstance(node, list) and part.isdigit() and int(part) < len(node):
            node = node[int(part)]
        else:
            return i == len(parts) - 1 and detail.startswith("missing")
    return True


def pointer_lines(err):
    """(pointer, detail) of every "input error at <pointer>: <detail>" line."""
    return [
        tuple(line[len("input error at "):].split(": ", 1))
        for line in err.splitlines()
        if line.startswith("input error at ")
    ]


def _src_env():
    """The environment of a child process that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def mults(doc_node):
    return {tuple(e["character"]): e["multiplicity"] for e in doc_node["entries"]}


# ---------------------------------------------------------------------------
# check


def test_check_fixed_points_trivial_isotype_fails(capsys):
    rc, doc = run_json(capsys, "check", "--input", FIXED, "--alpha", "0")
    assert rc == 2
    assert doc["verdict"] == "not-elliptic"
    assert doc["alpha"] == [0]
    assert sorted(map(tuple, doc["gamma0"])) == [(0,), (1,)]
    bad = next(e for e in doc["entries"] if e["point"] == "p0")
    assert bad["isotype"] == [0]
    assert bad["smallest_singular_value"] < 1e-12
    good = next(e for e in doc["entries"] if e["point"] == "p1")
    assert good["smallest_singular_value"] > 0.9


def test_check_fixed_points_sign_isotype_passes(capsys):
    rc, doc = run_json(capsys, "check", "--input", FIXED, "--alpha", "1")
    assert rc == 0
    assert doc["verdict"] == "elliptic"
    assert doc["warnings"] == []
    assert {e["point"] for e in doc["entries"]} == {"p0", "p1"}
    assert all(e["isotype"] == [1] for e in doc["entries"])


def test_check_free_orbit_elliptic_for_every_alpha(capsys):
    for alpha in ("0", "1"):
        rc, doc = run_json(capsys, "check", "--input", FREE, "--alpha", alpha)
        assert rc == 0
        assert doc["verdict"] == "elliptic"
        # free action: the isotropy is trivial, so nothing is filtered out
        assert doc["gamma0"] == [[0]]
        assert len(doc["entries"]) == 2


def test_check_two_fiber_document_folds_and_passes(capsys):
    rc, doc = run_json(capsys, "check", "--input", TWO_FIBER, "--alpha", "1")
    assert rc == 0
    assert doc["verdict"] == "elliptic"
    assert all(e["block_dim"] == 2 for e in doc["entries"])


def test_check_tol_can_flip_the_verdict(capsys):
    # the free-orbit symbol is 0.5 everywhere; an absurd tolerance fails it
    rc, doc = run_json(capsys, "check", "--input", FREE, "--alpha", "0", "--tol", "0.9")
    assert rc == 2
    assert doc["verdict"] == "not-elliptic"


# ---------------------------------------------------------------------------
# decompose / induce


def test_decompose_regular_z3(capsys):
    rc, doc = run_json(capsys, "decompose", "--input", REP_Z3)
    assert rc == 0
    assert doc["group"] == {"orders": [3]}
    assert doc["multiplicities"]["dim"] == 3
    assert mults(doc["multiplicities"]) == {(0,): 1, (1,): 1, (2,): 1}


def test_induce_z4_sign_character(capsys):
    rc, doc = run_json(capsys, "induce", "--input", INDUCE_Z4)
    assert rc == 0
    assert doc["group"] == {"orders": [4]}
    assert sorted(map(tuple, doc["subgroup"])) == [(0,), (2,)]
    assert doc["character"] == [1]  # lex-least extension of the restriction
    assert doc["dim"] == 2
    assert doc["induced"]["dim"] == 2
    assert set(doc["induced"]["matrices"]) == {"0", "1", "2", "3"}
    assert mults(doc["multiplicities"]) == {(1,): 1, (3,): 1}


# ---------------------------------------------------------------------------
# prim


def test_prim_fixed_points(capsys):
    rc, doc = run_json(capsys, "prim", "--input", FIXED)
    assert rc == 0
    recs = doc["records"]
    assert [r["representative"] for r in recs] == ["p0", "p1"]
    for r in recs:
        assert r["orbit"] == [r["representative"]]
        assert r["fiber_size"] == 2
        assert sorted(map(tuple, r["isotypes"])) == [(0,), (1,)]


def test_prim_free_orbit(capsys):
    rc, doc = run_json(capsys, "prim", "--input", FREE)
    assert rc == 0
    (rec,) = doc["records"]
    assert sorted(rec["orbit"]) == ["q0", "q1"]
    assert rec["fiber_size"] == 1


# ---------------------------------------------------------------------------
# bvp / sweep


def test_bvp_mixed_conditions(capsys):
    rc, doc = run_json(
        capsys, "bvp", "--bc", "dirichlet,neumann", "--sizes", "32,64", "--count", "2"
    )
    assert rc == 0
    assert doc["bc"] == ["dirichlet", "neumann"]
    assert doc["analytic"] == [0.25, 2.25]
    assert [t["n"] for t in doc["tables"]] == [32, 64]
    finest = doc["tables"][-1]["eigenvalues"]
    assert abs(finest[0] - 0.25) < 0.05
    assert abs(finest[1] - 2.25) < 0.05
    # refinement shrinks the error
    coarse = doc["tables"][0]["eigenvalues"]
    assert abs(finest[0] - 0.25) < abs(coarse[0] - 0.25)


def test_sweep_reflection_laplacian_stable(capsys):
    rc, doc = run_json(
        capsys, "sweep", "--family", "reflection_laplacian",
        "--alpha", "1", "--sizes", "16,32,64",
    )
    assert rc == 0
    assert doc["verdict"] == "stable"
    assert doc["k"] == 4
    assert len(doc["values"]) == 3
    assert min(doc["values"]) / max(doc["values"]) >= 0.8


def test_sweep_degenerate_family_fails_on_trivial_isotype(capsys):
    rc, doc = run_json(
        capsys, "sweep", "--family", "degenerate_even",
        "--alpha", "0", "--sizes", "32,64,128",
    )
    assert rc == 2
    assert doc["verdict"] == "degenerating"
    assert doc["values"][0] / doc["values"][-1] >= 10


def test_sweep_zero_family_degenerates(capsys):
    rc, doc = run_json(
        capsys, "sweep", "--family", "zero", "--alpha", "0", "--sizes", "8,16"
    )
    assert rc == 2
    assert doc["verdict"] == "degenerating"
    assert all(v <= 1e-12 for v in doc["values"])


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--family", "reflection_laplacian", "--alpha", "0", "--sizes", "0,64"),
        ("sweep", "--family", "reflection_laplacian", "--alpha", "0", "--sizes", "1,64"),
        ("sweep", "--family", "degenerate_even", "--alpha", "0", "--sizes", "64,63"),
        ("sweep", "--family", "zero", "--alpha", "0", "--sizes", "0,8"),
        ("bvp", "--bc", "d,n", "--sizes", "16,3"),
    ],
    ids=["laplacian-0", "laplacian-1", "degenerate-odd", "zero-0", "bvp-3"],
)
def test_grid_sizes_below_the_family_grid_are_refused(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and not out
    assert err.startswith("input error: --sizes: ")
    assert "Traceback" not in err


def test_sweep_needs_two_distinct_sizes(capsys):
    rc, out, err = run(
        capsys, "sweep", "--family", "reflection_laplacian", "--alpha", "0", "--sizes", "64,64"
    )
    assert rc == 1 and not out
    assert "two distinct sizes" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bvp", "--bc", "d,n", "--sizes", "64,1000000000000"),
        ("sweep", "--family", "reflection_laplacian", "--alpha", "0",
         "--sizes", "64,1000000000000"),
    ],
    ids=lambda argv: argv[0],
)
def test_grid_sizes_over_the_memory_ceiling_are_refused_at_once(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and not out
    assert err.startswith("input error: --sizes: 1000000000000 needs about ")
    assert "ceiling" in err and "Traceback" not in err


def test_every_verb_emits_no_warnings():
    """bvp for every boundary pair and sweep for every family and isotype at
    their default sizes, check and prim on the bundle fixtures, decompose and
    induce on theirs, with every warning an error.  Only the corrupted
    bundle writes to stderr, and only its input-error lines."""
    jobs = [["bvp", "--bc", bc] for bc in ("d,d", "n,n", "d,n", "n,d")] + [
        ["sweep", "--family", family, "--alpha", alpha]
        for family in ("reflection_laplacian", "degenerate_even", "zero")
        for alpha in ("0", "1")
    ]
    bundles = ("bundle_bad_transport", "bundle_fixed_points", "bundle_free_orbit",
               "bundle_two_fiber")
    for name in bundles:
        doc = str(DATA / f"{name}.json")
        jobs += [["check", "--input", doc, "--alpha", "0"],
                 ["check", "--input", doc, "--alpha", "1"], ["prim", "--input", doc]]
    jobs += [["decompose", "--input", str(DATA / "rep_z3_regular.json")],
             ["induce", "--input", str(DATA / "induce_z4_sign.json")]]
    script = (
        "import contextlib, io, json, sys\n"
        "from equifred.cli import main\n"
        "runs = []\n"
        f"for argv in {jobs!r}:\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = main(argv)\n"
        "        except SystemExit as exc:  # a bundle that fails validation\n"
        "            code = exc.code\n"
        "    runs.append((code, err.getvalue()))\n"
        "print(json.dumps(runs))\n"
    )
    env = _src_env()
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.stderr == ""
    codes, errs = zip(*json.loads(proc.stdout))
    # per bundle: check --alpha 0, check --alpha 1, prim
    assert list(codes) == [0] * 4 + [0, 0, 2, 0, 2, 2] + [1, 1, 1] + [2, 0, 0] + [0] * 6 + [0, 0]
    bad, rest = errs[10:13], errs[:10] + errs[13:]
    assert all(e and all(line.startswith("input error at /transport/") for line in e.splitlines())
               for e in bad)
    assert not any(rest)


# ---------------------------------------------------------------------------
# input problems exit with 1 and a pointer on stderr


def test_missing_file(capsys):
    rc, out, err = run(capsys, "check", "--input", "/no/such/file.json", "--alpha", "0")
    assert rc == 1 and not out
    assert "cannot read" in err


def test_malformed_json_names_the_line(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"group": {"orders": [2]\n  "points": []}')
    rc, out, err = run(capsys, "check", "--input", str(bad), "--alpha", "0")
    assert rc == 1 and not out
    assert "line 2" in err


@pytest.mark.parametrize("verb", ["check", "prim", "decompose", "induce"])
def test_a_deeply_nested_document_is_refused_at_the_root(tmp_path, capsys, verb):
    # json.loads raises RecursionError here, not JSONDecodeError
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    alpha = ("--alpha", "0") if verb == "check" else ()
    rc, out, err = run(capsys, verb, "--input", str(path), *alpha)
    assert rc == 1 and not out and "Traceback" not in err
    assert pointer_lines(err) == [("/", "document nests too deeply")]


def test_invalid_bundle_points_at_the_transport(capsys):
    rc, out, err = run(capsys, "check", "--input", BAD_TRANSPORT, "--alpha", "0")
    assert rc == 1 and not out
    assert "/transport/1/p0" in err


def test_missing_symbol_field(tmp_path, capsys):
    doc = json.loads(Path(FIXED).read_text())
    del doc["symbol"]
    path = tmp_path / "nosymbol.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "check", "--input", str(path), "--alpha", "0")
    assert rc == 1 and not out
    assert "/symbol" in err


def test_nan_in_symbol_is_pointered(tmp_path, capsys):
    doc = json.loads(Path(FIXED).read_text())
    doc["symbol"]["p0"][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "check", "--input", str(path), "--alpha", "1")
    assert rc == 1 and not out
    assert "input error at /symbol/p0/0/0" in err


def test_non_equivariant_symbol_points_at_the_worst_point(tmp_path, capsys):
    doc = json.loads(Path(FREE).read_text())
    doc["symbol"]["q0"][0][0] = [5, 0]
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "check", "--input", str(path), "--alpha", "0")
    assert rc == 1 and not out
    assert err == "input error at /symbol/q0: symbol is not equivariant (defect 4.500e+00)\n"
    node = doc
    for part in err.split()[3].rstrip(":").split("/")[1:]:
        node = node[part]  # the pointer resolves in the mutated document
    assert node == [[[5, 0]]]


def mixed_fiber_composition_doc():
    """Z3 on a, b, c, e (fiber dimensions 1, 1, 2, 3) moving a -> b -> c under 1
    but a -> e under 2: 1·(1·a) and 2·a have fibers of different dimension."""
    dims = {"a": 1, "b": 1, "c": 2, "e": 3}
    moves = {"1": {"a": "b", "b": "c"}, "2": {"a": "e"}}

    def eye(rows, cols):
        return [[[1 if i == j else 0, 0] for j in range(cols)] for i in range(rows)]

    action = {x: {p: moves.get(x, {}).get(p, p) for p in dims} for x in ("0", "1", "2")}
    return {
        "group": {"orders": [3]},
        "points": list(dims),
        "base": {p: p for p in dims},
        "fiber_dim": dims,
        "action": action,
        "transport": {
            x: {p: eye(dims[q], dims[p]) for p, q in table.items()} for x, table in action.items()
        },
        "symbol": {p: eye(d, d) for p, d in dims.items()},
    }


@pytest.mark.parametrize("verb", [("check", "--alpha", "0"), ("prim",)], ids=lambda v: v[0])
def test_composition_failure_across_fiber_dimensions_is_pointered(tmp_path, capsys, verb):
    doc = mixed_fiber_composition_doc()
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, verb[0], "--input", str(path), *verb[1:])
    assert rc == 1 and not out
    assert "broadcast" not in err
    lines = pointer_lines(err)
    assert ("/transport/1/b", "cocycle shapes (2, 1) and (3, 1) differ against 2 at a") in lines
    assert len(lines) == len(err.splitlines()) == 10
    assert all(resolves(doc, ptr, detail) for ptr, detail in lines)


def test_induce_document_missing_generators(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"group": {"orders": [4]}, "character_exponents": [1]}))
    rc, out, err = run(capsys, "induce", "--input", str(path))
    assert rc == 1 and not out
    assert "/subgroup_generators" in err


def test_induce_over_the_memory_ceiling_is_refused_at_the_group(tmp_path, capsys):
    # the induced stack would be 4096 matrices of side 4096, at 384 bytes an
    # entry for the stack and its report text
    doc = {"group": {"orders": [4096]}, "subgroup_generators": [[0]], "character_exponents": [0]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    rc, out, err = run(capsys, "induce", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and not out and "Traceback" not in err
    [(pointer, detail)] = pointer_lines(err)
    assert pointer == "/group/orders" and resolves(doc, pointer, detail)
    assert detail == "inducing from order 1 to order 4096 needs about 2.46e+04 GiB, over the 1 GiB ceiling"


def test_induce_checks_the_ceiling_before_naming_a_character_of_the_subgroup(
    tmp_path, capsys, monkeypatch
):
    # naming a character of H builds the annihilator of H, here all
    # 2,000,000 exponent tuples of G; the order of G is over induce's limit first
    doc = {"group": {"orders": [2000000]}, "subgroup_generators": [[0]], "character_exponents": [0]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))

    def refuse(*_):
        raise AssertionError("the annihilator table was built")

    monkeypatch.setattr(equifred.groups, "_perp", refuse)
    rc, out, err = run(capsys, "induce", "--input", str(path))
    assert rc == 1 and not out
    assert err == "input error at /group/orders: induce takes order at most 4096, got 2000000\n"


def _induce_from_the_trivial_subgroup(tmp_path, capsys, order):
    doc = {"group": {"orders": [order]}, "subgroup_generators": [[0]], "character_exponents": [0]}
    path, out = tmp_path / f"induce{order}.json", tmp_path / f"report{order}.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    rc, stdout, err = run(capsys, "induce", "--input", str(path), "--out", str(out))
    return rc, stdout, err, out, time.perf_counter() - start


def test_induce_counts_the_report_text_against_the_ceiling(tmp_path, capsys):
    # a 268 MB stack passes a stack-only estimate, but its report text would
    # peak near 6 GB: it is refused before anything is induced
    rc, stdout, err, out, took = _induce_from_the_trivial_subgroup(tmp_path, capsys, 256)
    assert rc == 1 and not stdout and not out.exists() and took < 1.0
    assert err == ("input error at /group/orders: inducing from order 1 to order 256 "
                   "needs about 6 GiB, over the 1 GiB ceiling\n")


def test_induce_under_the_ceiling_still_writes_its_report(tmp_path, capsys):
    rc, _, err, out, _ = _induce_from_the_trivial_subgroup(tmp_path, capsys, 64)
    assert rc == 0 and not err
    report = json.loads(out.read_text())
    assert report["dim"] == 64 and len(report["induced"]["matrices"]) == 64


def test_decompose_reports_a_missing_matrix_without_listing_the_group(
    tmp_path, capsys, monkeypatch
):
    doc = {"group": {"orders": [2000000]}, "dim": 1, "matrices": {"0": [[[1.0, 0.0]]]}}
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(doc))

    def refuse(self):
        raise AssertionError("Group.elements was computed")

    monkeypatch.setattr(equifred.groups.Group, "elements", property(refuse))
    rc, out, err = run(capsys, "decompose", "--input", str(path))
    assert (rc, out, err) == (1, "", "input error at /matrices/1: missing\n")


def _fixed_point_bundle(n):
    """One point fixed by Z_n, a 1-dimensional trivial fiber, symbol 2."""
    return {"group": {"orders": [n]}, "points": ["p"], "base": {"p": "p"}, "fiber_dim": {"p": 1},
            "action": {str(g): {"p": "p"} for g in range(n)},
            "transport": {str(g): {"p": [[[1.0, 0.0]]]} for g in range(n)},
            "symbol": {"p": [[[2.0, 0.0]]]}}


@pytest.mark.parametrize("verb", ["decompose", "induce", "check", "prim"])
def test_z8000_is_answered_and_only_induce_refuses_its_order(tmp_path, capsys, verb):
    # decompose (a 1-dimensional representation), check and prim (a point that
    # Z_8000 fixes) answer Z_8000 from one DFT of the stack, with no table
    # quadratic in the order; induce (from the index-2 subgroup) refuses the
    # order before it closes the subgroup
    n = 8000
    doc = {
        "decompose": {"group": {"orders": [n]}, "dim": 1,
                      "matrices": {str(g): [[[1.0, 0.0]]] for g in range(n)}},
        "induce": {"group": {"orders": [n]}, "subgroup_generators": [[2]],
                   "character_exponents": [0]},
    }.get(verb) or _fixed_point_bundle(n)
    path = tmp_path / "z8000.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    alpha = ["--alpha", "0"] if verb == "check" else []
    rc, out, err = run(capsys, verb, "--input", str(path), *alpha)
    assert time.perf_counter() - start < 2.0
    if verb == "induce":
        assert rc == 1 and not out
        [(pointer, detail)] = pointer_lines(err)
        assert pointer == "/group/orders" and resolves(doc, pointer, detail)
        assert detail == "induce takes order at most 4096, got 8000"
        return
    assert rc == 0 and not err
    report = json.loads(out)
    if verb == "decompose":
        assert report["multiplicities"]["entries"] == [{"character": [0], "multiplicity": 1}]
    elif verb == "check":
        assert report["verdict"] == "elliptic"
        assert [e["smallest_singular_value"] for e in report["entries"]] == [2.0]
    else:
        assert report["records"][0]["isotypes"] == [[0]]


# Starts argv[1:] and prints its exit code and its peak RSS in KiB from
# wait4.  Linux counts the resident size of the process that forked a child
# in that child's peak, so the job is forked from this bare interpreter, not
# from the test process.
_PEAK_OF_CHILD = (
    "import os, sys; pid = os.spawnv(os.P_NOWAIT, sys.argv[1], sys.argv[1:]);"
    " _, status, usage = os.wait4(pid, 0);"
    " print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


@pytest.mark.parametrize("verb", ["check", "prim"])
def test_a_z4000_fixed_point_peaks_under_100_mb(tmp_path, verb):
    # the stabilizer Z_4000 has 4000 characters; a 4000 x 4000 table of them
    # once took this job to 785 MB
    path, out = tmp_path / "z4000.json", tmp_path / "report.json"
    path.write_text(json.dumps(_fixed_point_bundle(4000)))
    alpha = ["--alpha", "0"] if verb == "check" else []
    job = [sys.executable, "-m", "equifred", verb, "--input", str(path), "--out", str(out), *alpha]
    proc = subprocess.run([sys.executable, "-c", _PEAK_OF_CHILD, *job],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    code, peak_kib = map(int, proc.stdout.split())
    assert (code, proc.stderr) == (0, "")
    report = json.loads(out.read_text())
    if verb == "check":
        assert report["verdict"] == "elliptic"
    else:
        assert report["records"][0]["isotypes"] == [[0]]
    assert peak_kib < 100 * 1024


def test_a_large_declared_fiber_is_refused_without_a_stack_of_its_size(tmp_path):
    # Z_65536 fixes one point with a 64-dimensional fiber: /transport/0/p is
    # the 64 x 64 identity and every later row holds [].  A transport stack
    # sized from the declared dims would take 65536 * 64 * 64 * 16 B = 4.3 GB.
    n = 1 << 16
    eye = [[[float(i == j), 0.0] for j in range(64)] for i in range(64)]
    doc = {"group": {"orders": [n]}, "points": ["p"], "base": {"p": "p"}, "fiber_dim": {"p": 64},
           "action": {str(g): {"p": "p"} for g in range(n)},
           "transport": {str(g): [] if g else {"p": eye} for g in range(n)}}
    path = tmp_path / "z65536.json"
    path.write_text(json.dumps(doc))
    job = [sys.executable, "-m", "equifred", "check", "--input", str(path), "--alpha", "0"]
    # untouched pages of a stack that size would not show in the peak RSS, so
    # the job's address space is capped at 1 GiB too (one BLAS thread, so the
    # job itself reserves about 150 MB)
    capped = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2); "
    env = {**_src_env(), **dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")}
    proc = subprocess.run([sys.executable, "-c", capped + _PEAK_OF_CHILD, *job],
                          capture_output=True, text=True, env=env, timeout=60)
    code, peak_kib = map(int, proc.stdout.split())
    [(pointer, detail)] = pointer_lines(proc.stderr)
    assert (code, pointer, detail) == (1, "/transport/1", "expected an object, got list")
    assert resolves(doc, pointer, detail)
    assert peak_kib < 300 * 1024


@pytest.mark.parametrize("order", [10**12, 2**63], ids=["1e12", "2^63"])
def test_induce_refuses_a_huge_group_before_closing_the_subgroup(tmp_path, order):
    # the subgroup spanned by 2 has order/2 elements, closed one at a time
    doc = {"group": {"orders": [order]}, "subgroup_generators": [[2]], "character_exponents": [1]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "equifred", "induce", "--input", str(path)],
                          capture_output=True, text=True, env=_src_env(), timeout=30)
    assert proc.returncode == 1 and not proc.stdout
    [(pointer, detail)] = pointer_lines(proc.stderr)
    assert pointer == "/group/orders" and resolves(doc, pointer, detail)
    assert detail == f"induce takes order at most 4096, got {order}"


def _with_orders(path, orders):
    """A fixture document over another group, its residue lists widened to
    the group's rank."""
    doc = json.loads(Path(path).read_text())
    doc["group"]["orders"] = orders
    pad = [0] * (len(orders) - 1)  # the fixtures are over one cyclic factor
    if "subgroup_generators" in doc:
        doc["subgroup_generators"] = [g + pad for g in doc["subgroup_generators"]]
        doc["character_exponents"] += pad
    return doc


@pytest.mark.parametrize("orders", [[2**63], [2, 10**30], [2] * 70], ids=["2^63", "2x1e30", "70x2"])
def test_huge_orders_and_ranks_keep_the_input_contract(tmp_path, orders):
    alpha = ",".join("0" * len(orders))
    cases = [
        (FIXED, [["check", "--alpha", alpha], ["prim"]]),
        (REP_Z3, [["decompose"]]),
        (INDUCE_Z4, [["induce"]]),
    ]
    for fixture, verbs in cases:
        doc, path = _with_orders(fixture, orders), tmp_path / Path(fixture).name
        argvs = [[verb[0], "--input", str(path), *verb[1:]] for verb in verbs]
        assert_input_contract(path, doc, argvs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(dim=0)
@example(dim=-3)
@example(dim=2**63)
@example(dim=10**30)
@given(dim=st.one_of(st.integers().filter(lambda n: n != 3), st.booleans(), st.floats()))
def test_a_dim_other_than_the_matrices_is_refused_with_one_pointer(tmp_path_factory, dim):
    # the Z3 regular representation has 3 x 3 matrices; a dim below 1 is
    # refused at /dim itself, not blamed on the first matrix
    doc = json.loads(Path(REP_Z3).read_text())
    doc["dim"] = dim
    path = tmp_path_factory.mktemp("dim") / "rep.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["decompose", "--input", str(path)])
    assert rc == 1 and not out.getvalue() and len(err.getvalue().splitlines()) == 1
    [(pointer, detail)] = pointer_lines(err.getvalue())
    assert resolves(doc, pointer, detail)
    if type(dim) is int and dim < 1:
        assert (pointer, detail) == ("/dim", "dimensions are positive")


def test_a_stabilizer_table_under_the_ceiling_is_answered(tmp_path, capsys):
    path = tmp_path / "z1000.json"
    path.write_text(json.dumps(_fixed_point_bundle(1000)))
    rc, doc = run_json(capsys, "check", "--input", str(path), "--alpha", "0")
    assert rc == 0 and doc["verdict"] == "elliptic"
    assert [e["smallest_singular_value"] for e in doc["entries"]] == [2.0]
    rc, doc = run_json(capsys, "prim", "--input", str(path))
    assert rc == 0 and doc["records"][0]["isotypes"] == [[0]]


@pytest.mark.parametrize("bad", ["2.7", '"2"', "true", "null", "1e400", '"x"'])
@pytest.mark.parametrize("field", ["subgroup_generators", "character_exponents"])
def test_induce_residues_and_exponents_must_be_integers(tmp_path, capsys, field, bad):
    gens, exps = ("[[%s]]" % bad, "[1]") if field == "subgroup_generators" else ("[[2]]", "[%s]" % bad)
    path = tmp_path / "induce.json"
    path.write_text(
        '{"group": {"orders": [4]}, "subgroup_generators": %s, "character_exponents": %s}'
        % (gens, exps)
    )
    rc, out, err = run(capsys, "induce", "--input", str(path))
    assert rc == 1 and not out
    pointer = "/subgroup_generators/0/0" if field == "subgroup_generators" else "/character_exponents/0"
    assert err.startswith(f"input error at {pointer}: expected an integer, got ")
    assert len(err.splitlines()) == 1


def test_bvp_block_that_is_not_tridiagonal_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(equifred.lab, "_hermitian_tridiagonal", lambda leads, block: None)
    rc, out, err = run(capsys, "bvp", "--bc", "dirichlet,neumann", "--sizes", "32", "--count", "2")
    assert rc == 3 and out == ""
    assert err == "internal: the compressed doubled Laplacian is not tridiagonal\n"


def test_induce_reduces_integer_residues_and_exponents(tmp_path, capsys):
    path = tmp_path / "induce.json"
    path.write_text(json.dumps(
        {"group": {"orders": [4]}, "subgroup_generators": [[-2]], "character_exponents": [4 * 10**30 + 1]}
    ))
    rc, report = run_json(capsys, "induce", "--input", str(path))
    _, want = run_json(capsys, "induce", "--input", INDUCE_Z4)
    assert rc == 0 and report == want


def test_decompose_rank_against_trace_oracle_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(equifred.reps, "_rank_cut", lambda s: 1 + (s.sum() > 0.5))
    rc, out, err = run(capsys, "decompose", "--input", REP_Z3)
    assert rc == 3 and out == ""
    assert err == "internal: projector rank 2 for the character (0,), the trace oracle says 1\n"


def test_decompose_ambiguous_rank_exits_2(capsys, monkeypatch):
    def ambiguous(s):
        raise equifred.reps.AmbiguousRankError("singular value 1.000e-09 near the cut")

    monkeypatch.setattr(equifred.reps, "_rank_cut", ambiguous)
    rc, out, err = run(capsys, "decompose", "--input", REP_Z3)
    assert rc == 2 and out == ""
    assert err == "indeterminate: singular value 1.000e-09 near the cut\n"


def test_alpha_length_mismatch(capsys):
    rc, out, err = run(capsys, "check", "--input", FREE, "--alpha", "0,1")
    assert rc == 1 and not out
    assert "--alpha" in err


def test_alpha_must_be_integers(capsys):
    rc, out, err = run(capsys, "check", "--input", FREE, "--alpha", "zero")
    assert rc == 1 and not out


def test_tol_must_be_positive(capsys):
    rc, out, err = run(capsys, "check", "--input", FREE, "--alpha", "0", "--tol", "-1")
    assert rc == 1 and not out
    assert "--tol" in err


@pytest.mark.parametrize("bundle", [FREE, FIXED, TWO_FIBER], ids=lambda p: Path(p).stem)
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_tol_must_be_finite(capsys, bundle, tol):
    # a NaN margin compares false everywhere and once turned an elliptic
    # symbol into "not-elliptic" with "tol": "nan" in the report
    rc, out, err = run(capsys, "check", "--input", bundle, "--alpha", "1", f"--tol={tol}")
    assert rc == 1 and not out
    assert err.startswith("input error: --tol must be ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--input", REP_Z3),
        ("induce", "--input", INDUCE_Z4),
        ("prim", "--input", FIXED),
        ("bvp", "--bc", "d,n", "--sizes", "8,16"),
        ("sweep", "--family", "zero", "--alpha", "0"),
    ],
    ids=lambda argv: argv[0],
)
def test_tol_is_refused_where_it_would_be_ignored(capsys, argv):
    rc, out, err = run(capsys, *argv, "--tol", "0.5")
    assert rc == 1 and not out
    assert err.startswith("usage: ")
    assert "unrecognized arguments: --tol 0.5" in err
    assert "Traceback" not in err


def test_internal_inconsistency_exits_3_without_traceback(capsys, monkeypatch):
    def broken(rep):
        raise InternalInconsistencyError("multiplicities sum to 2, dimension is 3")

    monkeypatch.setattr(equifred.cli, "decompose", broken)
    rc, out, err = run(capsys, "decompose", "--input", REP_Z3)
    assert rc == 3 and out == ""
    assert err.startswith("internal: multiplicities sum to 2")
    assert "Traceback" not in err


def test_unknown_flag(capsys):
    rc, out, err = run(capsys, "check", "--input", FREE, "--alpha", "0", "--frob")
    assert rc == 1 and not out


def test_unknown_verb(capsys):
    rc, out, err = run(capsys, "frobnicate")
    assert rc == 1 and not out


def test_unknown_sweep_family(capsys):
    rc, out, err = run(capsys, "sweep", "--family", "mystery", "--alpha", "0")
    assert rc == 1 and not out
    assert "mystery" in err


def _with(doc, pointer, value):
    """doc with value set at pointer, whose last key is new."""
    *parents, last = pointer.strip("/").split("/")
    node = doc
    for part in parents:
        node = node[part]
    assert last not in node
    node[last] = value
    return doc


@pytest.mark.parametrize(
    "fixture, pointer, detail",
    [
        (FIXED, "/action/9", "element key '9' is not reduced modulo (2,)"),
        (FIXED, "/action/x", "element key 'x' is not a residue tuple"),
        (FIXED, "/action/01", "element key '01' repeats '1'"),
        (FIXED, "/transport/9", "element key '9' is not reduced modulo (2,)"),
        (FIXED, "/transport/x", "element key 'x' is not a residue tuple"),
        (TWO_FIBER, "/transport_out/9", "element key '9' is not reduced modulo (2,)"),
        (TWO_FIBER, "/transport_out/x", "element key 'x' is not a residue tuple"),
        (TWO_FIBER, "/transport_out/01", "element key '01' repeats '1'"),
        (FIXED, "/base/z", "'z' is not a point"),
        (FIXED, "/fiber_dim/z", "'z' is not a point"),
        (TWO_FIBER, "/fiber_dim_out/z", "'z' is not a point"),
        (FIXED, "/symbol/z", "'z' is not a point"),
        (FIXED, "/action/1/z", "'z' is not a point"),
        (FIXED, "/transport/1/z", "'z' is not a point"),
        (TWO_FIBER, "/transport_out/0/z", "'z' is not a point"),
    ],
)
@pytest.mark.parametrize("verb", [("check", "--alpha", "0"), ("prim",)], ids=lambda v: v[0])
def test_unknown_bundle_keys_are_refused_at_their_pointer(tmp_path, capsys, fixture, pointer,
                                                          detail, verb):
    doc = _with(json.loads(Path(fixture).read_text()), pointer, "p0")
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, verb[0], "--input", str(path), *verb[1:])
    assert rc == 1 and not out
    assert err == f"input error at {pointer}: {detail}\n"


def test_check_and_prim_do_not_load_numpy_ma():
    script = (
        "import contextlib, io, sys\n"
        "from equifred.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['check', '--input', {FIXED!r}, '--alpha', '1']),\n"
        f"             main(['prim', '--input', {FIXED!r}])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    env = _src_env()
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.stdout == "[0, 0] False\n", proc.stderr


@pytest.mark.parametrize(
    "argv, flag, built",
    [
        (("bvp", "--bc", "d,n", "--count", "0"), "--count", []),
        (("bvp", "--bc", "d,n", "--count", "-2"), "--count", []),
        (("sweep", "--family", "zero", "--alpha", "0", "--k", "0"), "--k", []),
        (("sweep", "--family", "reflection_laplacian", "--alpha", "0", "--k", "-1"), "--k", []),
        # over the invariant dimension: only the smallest size is built, to read it
        (("bvp", "--bc", "d,n", "--sizes", "512,8", "--count", "100"), "--count", [8]),
    ],
)
def test_counts_below_one_are_refused_before_anything_is_built(
    capsys, monkeypatch, argv, flag, built
):
    def refuse(*_args, **_kwargs):
        raise AssertionError("built a grid")

    sizes = []
    real = equifred.cli.double_interval_bvp
    monkeypatch.setattr(
        equifred.cli, "double_interval_bvp", lambda n, bc: sizes.append(n) or real(n, bc)
    )
    monkeypatch.setattr(equifred.cli, "reflection_circle_rep", refuse)
    monkeypatch.setattr(equifred.cli, "mixed_bvp_spectrum", refuse)
    monkeypatch.setattr(equifred.lab, "require_intertwining", refuse)
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and not out and sizes == built
    if built:
        assert err == (
            f"input error: {flag} must be at most 8 (the invariant dimension at size 8), "
            f"got {argv[-1]}\n"
        )
    else:
        assert err == f"input error: {flag} must be at least 1, got {argv[-1]}\n"


def test_sweep_families_act_through_the_sweep_group():
    for name, family in equifred.cli._SWEEP_FAMILIES.items():
        assert family(8).group_rep.carrier == equifred.cli._SWEEP_GROUP, name


def test_bad_boundary_condition_name(capsys):
    rc, out, err = run(capsys, "bvp", "--bc", "mystery,neumann", "--sizes", "16")
    assert rc == 1 and not out


def test_single_boundary_condition_rejected(capsys):
    rc, out, err = run(capsys, "bvp", "--bc", "dirichlet", "--sizes", "16")
    assert rc == 1 and not out
    assert "left,right" in err


# ---------------------------------------------------------------------------
# reports are byte-stable


def test_stdout_is_canonical_and_deterministic(capsys):
    rc1, out1, _ = run(capsys, "check", "--input", FIXED, "--alpha", "1")
    rc2, out2, _ = run(capsys, "check", "--input", FIXED, "--alpha", "1")
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert list(doc) == sorted(doc)
    assert out1.endswith("\n") and not out1.endswith("\n\n")


def test_out_flag_writes_the_same_bytes_as_stdout(tmp_path, capsys):
    rc, out, _ = run(capsys, "check", "--input", FIXED, "--alpha", "1")
    assert rc == 0
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    rc1, silent, _ = run(capsys, "check", "--input", FIXED, "--alpha", "1", "--out", str(f1))
    rc2, _, _ = run(capsys, "check", "--input", FIXED, "--alpha", "1", "--out", str(f2))
    assert rc1 == rc2 == 0
    assert silent == ""  # --out suppresses stdout
    assert f1.read_bytes() == f2.read_bytes() == out.encode()


def test_out_flag_still_reports_failure_code(tmp_path, capsys):
    target = tmp_path / "verdict.json"
    rc, out, _ = run(capsys, "check", "--input", FIXED, "--alpha", "0", "--out", str(target))
    assert rc == 2 and out == ""
    assert json.loads(target.read_text())["verdict"] == "not-elliptic"


@pytest.mark.parametrize("argv", [
    ("bvp", "--bc", "d,n", "--sizes", "8,16", "--count", "3"),
    ("check", "--input", FIXED, "--alpha", "0"),  # the report is made, then refused
], ids=["bvp", "check"])
@pytest.mark.parametrize("target", ["missing-parent", "directory"])
def test_an_unwritable_out_is_refused_in_one_line(tmp_path, capsys, argv, target):
    path = tmp_path / "absent" / "x.json" if target == "missing-parent" else tmp_path
    rc, out, err = run(capsys, *argv, "--out", str(path))
    assert rc == 1 and out == "" and "Traceback" not in err
    assert err.startswith(f"input error: cannot write {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("check", "--input", FIXED, "--alpha", "1"),
    ("check", "--input", FIXED, "--alpha", "0"),
    ("bvp", "--bc", "d,n", "--sizes", "8,16,32", "--count", "3"),
], ids=["check-elliptic", "check-not-elliptic", "bvp"])
def test_module_entry_point_matches_in_process_run(capsys, argv):
    rc, out, err = run(capsys, *argv)
    env = _src_env()
    proc = subprocess.run([sys.executable, "-m", "equifred", *argv], capture_output=True, env=env)
    assert proc.returncode == rc
    assert proc.stdout == out.encode() and proc.stderr == err.encode() == b""


def test_a_huge_rep_entry_is_one_stderr_line(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"group": {"orders": [2]}, "dim": 1,
                                "matrices": {"0": [[[1, 0]]], "1": [[[1e200, 0]]]}}))
    proc = subprocess.run([sys.executable, "-m", "equifred", "decompose", "--input", str(path)],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "input error at /matrices: matrix for (1,) is not unitary to 1e-10\n"


def test_a_huge_transport_entry_gives_its_violations_only(tmp_path):
    doc = json.loads(Path(FREE).read_text())
    doc["transport"]["1"]["q0"][0][0] = [1e200, 0]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "equifred", "check", "--input", str(path), "--alpha", "0"],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "input error at /transport/1/q0: not unitary (inf)\n"
        "input error at /transport/1/q1: cocycle defect 1.000e+200 against 0 at q0\n"
        "input error at /transport/1/q0: cocycle defect 1.000e+200 against 0 at q1\n"
    )


def test_cli_import_loads_no_scipy():
    env = _src_env()
    probe = "import sys, equifred.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# bundle jobs validate once


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--input", FIXED, "--alpha", "0"),
        ("check", "--input", FREE, "--alpha", "1", "--tol", "0.3"),
        ("check", "--input", TWO_FIBER, "--alpha", "1"),
        ("prim", "--input", FIXED),
    ],
    ids=lambda argv: argv[0],
)
def test_each_bundle_job_validates_once(capsys, monkeypatch, argv):
    entries, checks = [], []
    entry, check = equifred.bundles.validate_bundle, equifred.bundles._check_bundle

    def counted_entry(b, **kw):
        entries.append(kw)
        return entry(b, **kw)

    def counted_check(b):
        checks.append(b)
        return check(b)

    monkeypatch.setattr(equifred.cli, "validate_bundle", counted_entry)
    monkeypatch.setattr(equifred.bundles, "validate_bundle", counted_entry)
    monkeypatch.setattr(equifred.bundles, "_check_bundle", counted_check)
    rc, _, err = run(capsys, *argv)
    assert rc in (0, 2) and not err
    assert len(entries) == 1 and len(checks) == 1


# ---------------------------------------------------------------------------
# the input contract holds on mutated bundle documents

BUNDLE_FIXTURES = (FIXED, FREE, TWO_FIBER, BAD_TRANSPORT)


def _nodes(node, at=()):
    yield at
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, at + (key,))


_DROP = object()


def _set(doc, at, value):
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[at[-1]]
    else:
        parent[at[-1]] = value


def _mutate(draw, doc, how):
    """Drop one node of doc, retype it, or make it non-finite, a bool or a huge
    integer.  A huge cyclic order would make the loader enumerate the group:
    there is no size guard yet, so huge integers go everywhere but /group."""
    sections = [k for k in sorted(doc) if not (how == "huge" and k == "group")]
    section = draw(st.sampled_from(sections))
    at = draw(st.sampled_from(list(_nodes(doc[section], (section,)))))
    value = {
        "drop": st.just(_DROP),
        "retype": st.sampled_from(["x", [], {}, None, 3, 0.5, -1, [[[1, 0]]]]),
        "nonfinite": st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        "bool": st.booleans(),
        "huge": st.sampled_from([10**400, -(10**400), 2**64]),
    }[how]
    _set(doc, at, draw(value))
    return doc


NODE_MUTATIONS = ["drop", "retype", "nonfinite", "bool", "huge"]


def _rescaled(draw, matrix):
    factor = draw(st.sampled_from([0.0, 0.5, -1.0, 1 + 1e-9, 2.0]))
    return [[[factor * x for x in z] for z in row] for row in matrix]


@st.composite
def mutated_bundle_documents(draw):
    """A bundle fixture with one node mutated, one action image moved, or one
    transport scaled."""
    doc = json.loads(Path(draw(st.sampled_from(BUNDLE_FIXTURES))).read_text())
    how = draw(st.sampled_from(NODE_MUTATIONS + ["swap", "rescale"]))
    if how == "swap":
        g = draw(st.sampled_from(sorted(doc["action"])))
        p = draw(st.sampled_from(sorted(doc["action"][g])))
        others = [q for q in doc["points"] if q != doc["action"][g][p]]
        if others:
            doc["action"][g][p] = draw(st.sampled_from(others))
        return doc
    if how == "rescale":
        g = draw(st.sampled_from(sorted(doc["transport"])))
        p = draw(st.sampled_from(sorted(doc["transport"][g])))
        doc["transport"][g][p] = _rescaled(draw, doc["transport"][g][p])
        return doc
    return _mutate(draw, doc, how)


@st.composite
def mutated_rep_documents(draw):
    """The Z3 regular representation with one node mutated or one matrix scaled."""
    doc = json.loads(Path(REP_Z3).read_text())
    how = draw(st.sampled_from(NODE_MUTATIONS + ["rescale"]))
    if how == "rescale":
        g = draw(st.sampled_from(sorted(doc["matrices"])))
        doc["matrices"][g] = _rescaled(draw, doc["matrices"][g])
        return doc
    return _mutate(draw, doc, how)


@st.composite
def mutated_induce_documents(draw):
    """The Z4 sign-character induction with one node mutated."""
    return _mutate(draw, json.loads(Path(INDUCE_Z4).read_text()), draw(st.sampled_from(NODE_MUTATIONS)))


def assert_input_contract(path, doc, argvs):
    """Exit 0, 1 or 2, no traceback, and every exit-1 pointer resolves in doc."""
    path.write_text(json.dumps(doc))
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv + ["--out", str(path.with_suffix(".out"))])
            except SystemExit as exc:
                rc = int(exc.code or 0)
        err = err.getvalue()
        assert rc in (0, 1, 2), (argv[0], rc, err)
        assert "Traceback" not in err
        if rc == 1:
            lines = pointer_lines(err)
            assert lines, err
            assert all(resolves(doc, ptr, detail) for ptr, detail in lines), err


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=mutated_bundle_documents())
def test_mutated_bundle_documents_keep_the_input_contract(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    # every bundle fixture is over Z2, so one exponent is the right --alpha
    argvs = (["check", "--input", str(path), "--alpha", "0"], ["prim", "--input", str(path)])
    assert_input_contract(path, doc, argvs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=mutated_rep_documents())
def test_mutated_rep_documents_keep_the_input_contract(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    assert_input_contract(path, doc, (["decompose", "--input", str(path)],))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=mutated_induce_documents())
def test_mutated_induce_documents_keep_the_input_contract(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    assert_input_contract(path, doc, (["induce", "--input", str(path)],))
