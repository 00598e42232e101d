"""The process policy of the command line: `main` pauses the cyclic garbage
collector and gives it back as it found it, a job leaves the same cyclic
garbage whatever its input, and `equifred` and `python -m equifred` share
one entry."""

import ast
import contextlib
import gc
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

import equifred.cli
from equifred import Group, InternalInconsistencyError, regular_rep
from equifred.cli import main
from equifred.serialize import rep_doc

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
FIXED = str(DATA / "bundle_fixed_points.json")
BAD_TRANSPORT = str(DATA / "bundle_bad_transport.json")
REP_Z3 = str(DATA / "rep_z3_regular.json")


@contextlib.contextmanager
def collector(enabled):
    """Run the body with the collector on or off, and restore it after."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


def quiet_main(argv):
    """main's exit code, a SystemExit's included, with stdout and stderr swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def free_orbit_doc(orders):
    """A bundle document: the group acting on itself by translation, one
    trivial line over each point, and the symbol 2 everywhere (elliptic)."""
    elems = list(itertools.product(*(range(n) for n in orders)))
    key = lambda g: ",".join(map(str, g))  # noqa: E731
    point = {g: "p" + "_".join(map(str, g)) for g in elems}
    pts = list(point.values())
    return {
        "group": {"orders": list(orders)},
        "points": pts,
        "base": {p: p for p in pts},
        "fiber_dim": {p: 1 for p in pts},
        "action": {
            key(g): {point[h]: point[tuple((a + b) % n for a, b, n in zip(g, h, orders))]
                     for h in elems}
            for g in elems
        },
        "transport": {key(g): {p: [[[1, 0]]] for p in pts} for g in elems},
        "symbol": {p: [[[2, 0]]] for p in pts},
    }


@pytest.fixture(scope="module")
def too_big_induction(tmp_path_factory):
    path = tmp_path_factory.mktemp("induce") / "big.json"
    path.write_text(json.dumps(
        {"group": {"orders": [4096]}, "subgroup_generators": [[0]], "character_exponents": [0]}
    ))
    return str(path)


# ---------------------------------------------------------------------------
# main gives the collector back on every exit path


def _broken_decompose(rep):
    raise InternalInconsistencyError("multiplicities sum to 2, dimension is 3")


EXIT_PATHS = {
    "report": (0, ("decompose", "--input", REP_Z3)),
    "criterion-fails": (2, ("check", "--input", FIXED, "--alpha", "0")),
    "pointer-error": (1, ("induce", "--input", None)),
    "bundle-fails-validation": (1, ("check", "--input", BAD_TRANSPORT, "--alpha", "0")),
    "argparse-error": (1, ("check", "--input", FIXED, "--alpha", "0", "--frob")),
    "internal": (3, ("decompose", "--input", REP_Z3)),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("path", list(EXIT_PATHS))
def test_main_restores_the_collector(monkeypatch, too_big_induction, path, enabled):
    code, argv = EXIT_PATHS[path]
    argv = [too_big_induction if a is None else a for a in argv]
    if path == "internal":
        monkeypatch.setattr(equifred.cli, "decompose", _broken_decompose)
    seen = []
    verb = getattr(equifred.cli, f"cmd_{argv[0]}")
    monkeypatch.setattr(equifred.cli, f"cmd_{argv[0]}",
                        lambda args: seen.append(gc.isenabled()) or verb(args))
    with collector(enabled):
        assert quiet_main(argv) == code
        assert gc.isenabled() is enabled
    # the verb ran with the collector paused (argparse stops before it runs)
    assert seen == ([] if path == "argparse-error" else [False])


def test_decompose_of_a_regular_document_runs_no_collection(tmp_path, monkeypatch):
    """A deterministic guard, not a timing: while the verb parses, decomposes
    and writes a regular Z8 x Z8 document (262 144 matrix entries), the
    collector makes no pass of any generation."""
    path = tmp_path / "regular.json"
    path.write_text(json.dumps(rep_doc(regular_rep(Group((8, 8))))))
    counts, verb = [], equifred.cli.cmd_decompose

    def counted(args):
        counts.append([s["collections"] for s in gc.get_stats()])
        try:
            return verb(args)
        finally:
            counts.append([s["collections"] for s in gc.get_stats()])

    monkeypatch.setattr(equifred.cli, "cmd_decompose", counted)
    with collector(True):
        assert quiet_main(["decompose", "--input", str(path), "--out", str(tmp_path / "r")]) == 0
    assert len(counts) == 2 and counts[0] == counts[1]


# ---------------------------------------------------------------------------
# the cyclic garbage a job leaves does not grow with its input


def cyclic_garbage(argv):
    """(exit code, objects of cyclic garbage) of one main call: the
    collector stays off through the call, so all of it is still there."""
    with collector(False):
        gc.collect()
        code = quiet_main(argv)
        return code, gc.collect()


def test_cyclic_garbage_does_not_grow_with_the_bundle(tmp_path):
    sizes = {}
    for orders in [(2,), (8, 8)]:
        path = tmp_path / f"free-{len(orders)}.json"
        path.write_text(json.dumps(free_orbit_doc(orders)))
        argv = ["check", "--input", str(path), "--alpha", ",".join("0" * len(orders))]
        cyclic_garbage(argv)  # first calls fill the package's caches
        sizes[orders] = cyclic_garbage(argv)
    assert sizes[(2,)] == sizes[(8, 8)]
    assert sizes[(2,)][0] == 0 and sizes[(2,)][1] < 1000


def test_cyclic_garbage_does_not_grow_with_the_grid():
    small = ["bvp", "--bc", "d,n", "--sizes", "8,16"]
    large = ["bvp", "--bc", "d,n", "--sizes", "1024,2048"]
    cyclic_garbage(small)
    assert cyclic_garbage(small) == cyclic_garbage(large)


# ---------------------------------------------------------------------------
# one process entry


def test_console_script_is_what_the_module_entry_calls():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, name = scripts["equifred"].split(":")
    tree = ast.parse((ROOT / "src" / "equifred" / "__main__.py").read_text())
    imported = {alias.asname or alias.name: f"equifred{'.' + node.module if node.module else ''}"
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    called = [node.value.func.id for node in tree.body
              if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]
    assert called == [name] and imported[name] == module
    assert getattr(sys.modules[module], name) is equifred.cli.run


@pytest.mark.parametrize("argv", [
    ("decompose", "--input", REP_Z3),
    ("check", "--input", BAD_TRANSPORT, "--alpha", "0"),
], ids=["report", "bundle-fails-validation"])
def test_run_exits_with_the_code_of_main_and_freezes_the_heap(monkeypatch, argv):
    """run is a process entry: it leaves the collector paused and the heap
    frozen for the interpreter's exit, which this test undoes."""
    code = quiet_main(list(argv))
    monkeypatch.setattr(sys, "argv", ["equifred", *argv])
    try:
        with collector(True):
            with pytest.raises(SystemExit) as exit_, contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                equifred.cli.run()
            paused, frozen = not gc.isenabled(), gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert paused and frozen and exit_.value.code == code

