"""Batch front end over the library, with stable exit codes and byte-stable reports.

Verbs
-----
check      alpha-ellipticity verdict for a bundle+symbol document
decompose  isotypical multiplicities of a representation document
induce     induce a subgroup character and tabulate the multiplicities
prim       orbit/isotype enumeration for a bundle document
bvp        interval boundary-value spectra via the doubled circle
sweep      Fredholm proxy sweep of a named operator family

Exit codes: 0 report written and the checked criterion holds; 2 report written
but the criterion fails (not elliptic, degenerating sweep, undecidable rank);
1 malformed input, with a document pointer on stderr; 3 internal
inconsistency (two routes to the same quantity disagreed), with an
"internal:" line on stderr.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bundles import (
    alpha_elliptic_check,
    prim_enumerate,
    validate_bundle,
)
from .groups import Group, SubgroupCharacter, character, subgroup_from_generators
from .lab import (
    analytic_bvp_spectrum,
    build_fixed_point_degenerate_operator,
    build_invariant_circle_operator,
    double_interval_bvp,
    fredholm_proxy_sweep,
    mixed_bvp_spectrum,
    reflection_circle_rep,
    GridOperator,
)
from .reps import (
    AmbiguousRankError,
    CooMatrix,
    InternalInconsistencyError,
    character_rep,
    decompose,
    induce,
)
from .serialize import (
    InputDocumentError,
    _induction_parts,
    canonical_json,
    character_doc,
    group_doc,
    load_bundle,
    load_rep,
    multiplicity_doc,
    rep_doc,
)


# the memory ceiling of one job, against which the grid sizes and an induced
# representation are estimated before they are built
_CEILING_BYTES = 1 << 30
# induce writes its stack into the report as text: at the peak a stack entry
# cost about 332 bytes (from the trivial subgroup, order 64..128), so 384 bounds it
_INDUCE_BYTES_PER_ENTRY = 384
# induce lists H and its cosets as integer arrays and writes |G| matrices: its
# memory stays far under the ceiling, its time grows with |G|.  End to end, the
# slowest shape measured, (Z_2)^k from an index-2 subgroup, took 0.31 s at
# order 4096, 0.66 s at 16384 and 2.5 s at 65536 (one BLAS thread, 2-core VM),
# so 4096 keeps induce under a second
_INDUCE_MAX_ORDER = 4096


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags by default; 2 is reserved for
    # "criterion fails", so flag problems are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._exit_with(message))

    def _exit_with(self, message: str) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _bc_pair(text: str) -> tuple[str, str]:
    parts = tuple(p.strip() for p in text.split(","))
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected left,right boundary conditions")
    return parts  # type: ignore[return-value]


def _load_json(path: str):
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputDocumentError(f"/(line {exc.lineno})", f"invalid JSON: {exc.msg}")
    except RecursionError:
        raise InputDocumentError("/", "document nests too deeply")


def _emit(args, doc) -> None:
    text = canonical_json(doc)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(text)


def _alpha_for(group, exponents):
    if len(exponents) != len(group.orders):
        raise ValueError(
            f"--alpha has {len(exponents)} exponents, group has {len(group.orders)} factors"
        )
    return character(group, exponents)


def _checked_bundle(args):
    doc = _load_json(args.input)
    bundle, symbol = load_bundle(doc)
    validation = validate_bundle(bundle)
    if not validation.ok:
        for v in validation.violations[:10]:
            print(f"input error at {v.location}: {v.detail}", file=sys.stderr)
        raise SystemExit(1)
    return bundle, symbol


def cmd_check(args) -> int:
    if args.tol <= 0:
        raise ValueError("--tol must be positive")
    if not math.isfinite(args.tol):
        raise ValueError(f"--tol must be finite, got {args.tol}")
    bundle, symbol = _checked_bundle(args)
    if symbol is None:
        raise InputDocumentError("/symbol", "missing (check needs a symbol field)")
    alpha = _alpha_for(bundle.group, args.alpha)
    report = alpha_elliptic_check(symbol, alpha, tol=args.tol)
    doc = {
        "alpha": character_doc(report.alpha),
        "gamma0": [list(g) for g in report.gamma0.elements],
        "tol": report.tol,
        "verdict": "elliptic" if report.verdict else "not-elliptic",
        "warnings": list(report.warnings),
        "entries": [
            {
                "point": e.point,
                "isotype": character_doc(e.rho),
                "orbit_representative": e.orbit_representative,
                "block_dim": e.block_dim,
                "smallest_singular_value": e.smallest_singular_value,
                "condition_estimate": e.condition_estimate,
            }
            for e in report.entries
        ],
    }
    _emit(args, doc)
    return 0 if report.verdict else 2


def cmd_decompose(args) -> int:
    rep = load_rep(_load_json(args.input))
    mv = multiplicity_doc(decompose(rep))
    _emit(args, {"group": group_doc(rep.carrier), "multiplicities": mv})
    return 0


def cmd_induce(args) -> int:
    group, gens, chi = _induction_parts(_load_json(args.input))
    order = group.order
    if order > _INDUCE_MAX_ORDER:
        raise InputDocumentError("/group/orders",
                                 f"induce takes order at most {_INDUCE_MAX_ORDER}, got {order}")
    sub = subgroup_from_generators(group, gens)
    # the report writes out the induced stack, |G| matrices of side [G:H],
    # checked from H's normal form before any member or character of H is listed
    need = order * (order // sub.order) ** 2 * _INDUCE_BYTES_PER_ENTRY
    if need > _CEILING_BYTES:
        raise InputDocumentError("/group/orders", f"inducing from order {sub.order} to order {order}"
                                 f" needs about {need / 2**30:.3g} GiB, over the 1 GiB ceiling")
    rho = SubgroupCharacter(sub, chi)
    ind = induce(character_rep(rho), group)
    mv = decompose(ind)
    doc = {
        "group": group_doc(group),
        "subgroup": [list(h) for h in sub.elements],
        "character": character_doc(rho),
        "dim": ind.dim,
        "induced": rep_doc(ind),
        "multiplicities": multiplicity_doc(mv),
    }
    _emit(args, doc)
    return 0


def cmd_prim(args) -> int:
    bundle, _ = _checked_bundle(args)
    records = prim_enumerate(bundle)
    doc = {
        "group": group_doc(bundle.group),
        "records": [
            {
                "representative": r.representative,
                "orbit": list(r.orbit),
                "isotypes": [character_doc(rho) for rho in r.isotypes],
                "fiber_size": len(r.isotypes),
            }
            for r in records
        ],
    }
    _emit(args, doc)
    return 0


# bvp and sweep hold O(n) arrays: at the peak a grid point cost at most 1.3 KB
# (a sweep's invariance check; a point of bvp's doubled circle about 0.5 KB), so
# 2 KB per point bounds a size's memory
_GRID_BYTES_PER_POINT = 2048


def _check_sizes(sizes, smallest: int, step: int, points_per_n: int) -> None:
    """Refuse, before anything is built, a size below the family's smallest
    grid, off its step, or over the memory ceiling."""
    for n in sizes:
        if n < smallest or n % step:
            rule = f"at least {smallest}" + (f" and a multiple of {step}" if step > 1 else "")
            raise ValueError(f"--sizes: {n} is not a grid size here (must be {rule})")
        if n * points_per_n * _GRID_BYTES_PER_POINT > _CEILING_BYTES:
            need = n * points_per_n * _GRID_BYTES_PER_POINT / 2**30
            raise ValueError(f"--sizes: {n} needs about {need:.3g} GiB, over the 1 GiB ceiling")


def _check_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")


def cmd_bvp(args) -> int:
    _check_positive("--count", args.count)
    _check_sizes(args.sizes, 4, 1, 4)  # the doubled circle has 4n points
    smallest = double_interval_bvp(min(args.sizes), args.bc)  # the least invariant dimension
    if args.count > smallest.invariant_dim:
        most = f"{smallest.invariant_dim} (the invariant dimension at size {smallest.base_n})"
        raise ValueError(f"--count must be at most {most}, got {args.count}")
    tables = []
    for n in args.sizes:
        problem = smallest if n == smallest.base_n else double_interval_bvp(n, args.bc)
        eigs = mixed_bvp_spectrum(problem, args.count)
        tables.append({"n": n, "eigenvalues": [float(x) for x in eigs]})
    doc = {
        "bc": list(problem.bc),
        "count": args.count,
        "analytic": [float(x) for x in analytic_bvp_spectrum(args.bc, args.count)],
        "tables": tables,
    }
    _emit(args, doc)
    return 0


_SWEEP_FAMILIES = {
    "reflection_laplacian": lambda n: build_invariant_circle_operator(
        n, 2, "shifted_laplacian", action="reflection"
    ),
    "degenerate_even": build_fixed_point_degenerate_operator,
    "zero": lambda n: GridOperator(
        n, CooMatrix(n, *np.empty((3, 0), dtype=int)), reflection_circle_rep(n), "zero"
    ),
}
# the smallest grid of each family and the step between its sizes: the
# three-point stencil needs three nodes, and both reflection fixed points are
# nodes only on an even grid
_SWEEP_GRIDS = {"reflection_laplacian": (3, 1), "degenerate_even": (2, 2), "zero": (1, 1)}
# every family acts through reflection_circle_rep
_SWEEP_GROUP = Group((2,))


def cmd_sweep(args) -> int:
    if args.family not in _SWEEP_FAMILIES:
        raise ValueError(
            f"unknown family {args.family!r}; choose from {sorted(_SWEEP_FAMILIES)}"
        )
    _check_positive("--k", args.k)
    _check_sizes(args.sizes, *_SWEEP_GRIDS[args.family], 1)
    alpha = _alpha_for(_SWEEP_GROUP, args.alpha)
    sweep = fredholm_proxy_sweep(_SWEEP_FAMILIES[args.family], alpha, args.sizes, k=args.k)
    doc = {
        "family": args.family,
        "alpha": character_doc(sweep.alpha),
        "k": sweep.k,
        "sizes": list(sweep.sizes),
        "values": list(sweep.values),
        "verdict": sweep.verdict,
    }
    _emit(args, doc)
    return 0 if sweep.verdict == "stable" else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="equifred", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, with_alpha=False):
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        if with_alpha:
            p.add_argument(
                "--alpha", type=_csv_ints, required=True,
                help="character exponents, comma-separated",
            )

    p = sub.add_parser("check", help="alpha-ellipticity of a bundle+symbol document")
    p.add_argument("--input", required=True)
    # the other verbs have no tolerance they could honour, so they refuse --tol
    p.add_argument("--tol", type=float, default=1e-8, help="invertibility margin of the blocks")
    common(p, with_alpha=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="isotypical multiplicities of a representation")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("induce", help="induce a subgroup character to the full group")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("prim", help="orbit/isotype enumeration of a bundle")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_prim)

    p = sub.add_parser("bvp", help="interval boundary-value spectra by doubling")
    p.add_argument("--bc", type=_bc_pair, required=True, help="left,right (dirichlet/neumann)")
    p.add_argument("--sizes", type=_csv_ints, default=(64, 128, 256))
    p.add_argument("--count", type=int, default=5, help="how many eigenvalues")
    common(p)
    p.set_defaults(func=cmd_bvp)

    p = sub.add_parser("sweep", help="Fredholm proxy sweep of a named operator family")
    p.add_argument("--family", required=True, help=f"one of {sorted(_SWEEP_FAMILIES)}")
    p.add_argument("--sizes", type=_csv_ints, default=(32, 64, 128))
    p.add_argument("--k", type=int, default=4, help="which smallest singular value to track")
    common(p, with_alpha=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one verb; return its exit code (argparse and a bundle that fails
    validation raise SystemExit instead).

    The cyclic garbage collector is paused for the whole call and restored as
    the caller left it on every way out.  Documents and reports are trees of
    dicts and lists, so reference counting frees them; a collection pass
    would only walk them again, over and over as they grow.  A call leaves
    the same few hundred objects of cyclic garbage whatever its input.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_verb(build_parser().parse_args(argv))
    finally:
        if enabled:
            gc.enable()


def run() -> None:
    """The process entry of `equifred` and `python -m equifred`: exit with
    `main`'s code.  The collector stays paused to the end and the heap is
    frozen, so the interpreter's collections at exit do not walk every
    object the job left alive."""
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


def _run_verb(args) -> int:
    try:
        return args.func(args)
    except InputDocumentError as exc:
        print(f"input error at {exc}", file=sys.stderr)
        return 1
    except AmbiguousRankError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except InternalInconsistencyError as exc:
        print(f"internal: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    run()
