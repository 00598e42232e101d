"""Traced in-process run: per-layer self times and counts.

The package is not edited.  Public functions of each module (and the two CLI
helpers that read and write documents) are wrapped from outside, in every
``equifred`` module namespace that holds a reference to them, so calls between
modules are seen too.  Each wrapped call records a span (name, start, end,
parent span, job id) in memory; spans are written out once, at the end.

A layer metric ``<layer>.<what>_s`` is the summed self time of its spans: a
span's duration minus the time covered by its direct child spans.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import Job, Workload

# (module, function, span name).  cli._load_json reads and parses the input
# document and cli._emit writes the report, so they count as serialization.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "_load_json", "serialize.load"),
    ("serialize", "load_group", "serialize.load"),
    ("serialize", "load_rep", "serialize.load"),
    ("serialize", "load_bundle", "serialize.load"),
    ("serialize", "rep_doc", "serialize.emit"),
    ("serialize", "canonical_json", "serialize.emit"),
    ("cli", "_emit", "serialize.emit"),
    ("groups", "characters_of_subgroup", "groups.subgroup_chars"),
    ("groups", "coset_transversal", "groups.transversal"),
    ("reps", "unitary_rep", "reps.validate"),
    ("reps", "decompose", "reps.decompose"),
    ("reps", "induce", "reps.induce"),
    ("reps", "isotypical_basis", "reps.iso_basis"),
    ("bundles", "validate_bundle", "bundles.validate"),
    ("bundles", "build_X", "bundles.build_X"),
    ("bundles", "alpha_elliptic_check", "bundles.alpha_check"),
    ("bundles", "prim_enumerate", "bundles.prim"),
    ("lab", "double_interval_bvp", "lab.build"),
    ("lab", "build_invariant_circle_operator", "lab.build"),
    ("lab", "build_fixed_point_degenerate_operator", "lab.build"),
    ("lab", "invariant_subspace_basis", "lab.subspace_basis"),
    ("lab", "mixed_bvp_spectrum", "lab.spectrum"),
    ("lab", "isotypical_block", "lab.block"),
    ("lab", "fredholm_proxy_sweep", "lab.sweep"),
)
SELF_TIMES = sorted({name for _, _, name in WRAPPED} - {"cli.main"})
SPECTRUM_SIZES = (64, 128, 256)
VALIDATE_ORDERS = (4, 8, 16, 32, 64)
C09_BUDGET_S = 30.0  # the runtime limit tests/test_acceptance.py pins on criterion 09

PER_LAYER = (
    [("cli.import_s", "s")]
    + [(f"{name}_s", "s") for name in SELF_TIMES]
    + [("serialize.load_bytes", "bytes"), ("serialize.emit_bytes", "bytes"),
       ("reps.validate_pairs", "count"), ("bundles.validate_pairs", "count"),
       ("lab.dense_bytes", "bytes")]
    + [(f"lab.spectrum_s.n{n}", "s") for n in SPECTRUM_SIZES]
    + [(f"bundles.validate_s.g{g}", "s") for g in VALIDATE_ORDERS]
    + [("lab.c09_budget_frac", "1"), ("trace.overhead_s", "s")]
)
# derived from arguments and array shapes, not measured
COMPUTED = ("reps.validate_pairs", "bundles.validate_pairs", "lab.dense_bytes")


@dataclasses.dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    count: int = 0  # bytes or pairs, depending on the span
    tag: int = 0  # grid size of a spectrum, group order of a validation

    @property
    def duration(self) -> float:
        return self.end - self.start


def _dense_bytes(obj) -> int:
    """Bytes of the dense arrays a lab builder returns (computed from shapes)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    total = 0
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif hasattr(value, "matrices"):
                total += sum(m.nbytes for m in value.matrices.values())
    return total


def _annotate(span: Span, args, result) -> None:
    if span.name == "serialize.load" and args and isinstance(args[0], str):
        span.count = Path(args[0]).stat().st_size
    elif span.name == "serialize.emit" and isinstance(result, str):
        span.count = len(result.encode())
    elif span.name == "reps.validate":
        span.count = len(args[0].elements) ** 2
    elif span.name == "bundles.validate":
        b = args[0]
        span.tag = b.group.order
        span.count = b.group.order ** 2 * len(b.points)
    elif span.name == "lab.spectrum":
        span.tag = args[0].base_n
    elif span.name in ("lab.build", "lab.subspace_basis"):
        span.count = _dense_bytes(result)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "equifred" or name.startswith("equifred.")]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = ""

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # builders pass validate=False; only validating calls are a span
            if name == "reps.validate" and not kwargs.get("validate", True):
                return fn(*args, **kwargs)
            span = Span(name, self.job, self.stack[-1] if self.stack else None,
                        time.perf_counter())
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span.end = time.perf_counter()
            _annotate(span, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every reference to a wrapped function for its traced form."""
        swaps = {}
        for mod, fn, name in WRAPPED:
            orig = getattr(sys.modules[f"equifred.{mod}"], fn)
            swaps[id(orig)] = (orig, self.wrap(name, orig))
        undo = []
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in swaps and value is swaps[id(value)][0]:
                    setattr(module, attr, swaps[id(value)][1])
                    undo.append((module.__dict__, attr, value))
                elif isinstance(value, dict):  # e.g. the CLI's sweep family table
                    for k, v in list(value.items()):
                        if id(v) in swaps and v is swaps[id(v)][0]:
                            value[k] = swaps[id(v)][1]
                            undo.append((value, k, v))
        try:
            yield
        finally:
            for table, k, v in undo:
                table[k] = v

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dataclasses.asdict(s)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list[Span], workload_jobs: set[str]) -> dict[str, float]:
    own = [s for s in spans if s.job in workload_jobs]
    out: dict[str, float] = {f"{n}_s": 0.0 for n in SELF_TIMES}
    for s, own_time in zip(spans, self_times(spans)):
        if s.job in workload_jobs and s.name != "cli.main":
            out[f"{s.name}_s"] += own_time
    # canonical_json carries the emitted size; the spans around it count 0
    out["serialize.load_bytes"] = sum(s.count for s in own if s.name == "serialize.load")
    out["serialize.emit_bytes"] = sum(s.count for s in own if s.name == "serialize.emit")
    out["reps.validate_pairs"] = sum(s.count for s in own if s.name == "reps.validate")
    out["bundles.validate_pairs"] = sum(s.count for s in own if s.name == "bundles.validate")
    per_job: dict[str, int] = {}
    for s in own:
        if s.name in ("lab.build", "lab.subspace_basis"):
            per_job[s.job] = per_job.get(s.job, 0) + s.count
    out["lab.dense_bytes"] = max(per_job.values(), default=0)
    # the series are inclusive times: a whole spectrum, a whole validation
    for n in SPECTRUM_SIZES:
        out[f"lab.spectrum_s.n{n}"] = sum(
            s.duration for s in own if s.name == "lab.spectrum" and s.tag == n)
    for g in VALIDATE_ORDERS:
        per_call = [s.duration for s in own if s.name == "bundles.validate" and s.tag == g]
        out[f"bundles.validate_s.g{g}"] = statistics.median(per_call) if per_call else 0.0
    return out


def _clear_caches() -> None:
    """Forget memoized results, so each in-process job starts as cold as a CLI process."""
    for module in _package_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _run_inprocess(job: Job) -> tuple[int, str]:
    cli = sys.modules["equifred.cli"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, err.getvalue()


def _replay_c09() -> None:
    """The public-function calls of acceptance criterion 09 (interval spectra)."""
    lab = sys.modules["equifred.lab"]
    for bc in (("dirichlet", "neumann"), ("dirichlet", "dirichlet"), ("neumann", "neumann")):
        exact = lab.analytic_bvp_spectrum(bc, 5)
        lab.mixed_bvp_spectrum(lab.double_interval_bvp(256, bc), 5)
        errs = [
            max(abs(e - x) for e, x in zip(
                lab.mixed_bvp_spectrum(lab.double_interval_bvp(n, bc), 5), exact))
            for n in (64, 128, 256)
        ]
        lab.convergence_order((64, 128, 256), errs)


def import_seconds(env: dict, repeats: int) -> float:
    """Median in-process import time of equifred.cli in fresh interpreters."""
    probe = ("import time; t = time.perf_counter(); import equifred.cli; "
             "print(time.perf_counter() - t)")
    times = [
        float(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(repeats)
    ]
    return statistics.median(times)


def traced_run(workload: Workload, env: dict, check, trace_path: Path):
    """Run each job untraced and then traced, then replay criterion 09 traced.

    Running the two forms of a job back to back lets slow drift of the machine
    cancel in the tracing overhead.  One untraced run of the first job comes
    first, so both forms see a warm allocator and loaded numpy internals.
    ``check(job, rc, err)`` returns a failure reason or None.  Returns the
    per-layer metrics and the number of jobs attempted and failed.
    """
    metrics = {"cli.import_s": import_seconds(env, repeats=5)}
    import equifred.cli  # noqa: F401  (loads every module the wrappers patch)

    tracer = Tracer()

    def run(job: Job) -> tuple[float, str | None]:
        _clear_caches()
        if job.report is not None:
            job.report.unlink(missing_ok=True)
        t0 = time.perf_counter()
        rc, err = _run_inprocess(job)
        return time.perf_counter() - t0, check(job, rc, err)

    run(workload.jobs[0])
    attempted = failed = 0
    walls = [0.0, 0.0]
    for i, job in enumerate(workload.jobs):
        tracer.job = f"{i}:{job.name}"
        for traced in (False, True):
            with tracer.installed() if traced else contextlib.nullcontext():
                wall, reason = run(job)
            walls[traced] += wall
            attempted += 1
            if reason is not None:
                failed += 1
                print(f"FAIL {job.name}: {reason}", file=sys.stderr)
    tracer.job = "c09"
    with tracer.installed():
        t0 = time.perf_counter()
        _replay_c09()
        metrics["lab.c09_budget_frac"] = (time.perf_counter() - t0) / C09_BUDGET_S
    jobs = {f"{i}:{job.name}" for i, job in enumerate(workload.jobs)}
    metrics.update(layer_metrics(tracer.spans, jobs))
    metrics["trace.overhead_s"] = walls[1] - walls[0]
    tracer.dump(trace_path)
    return metrics, attempted, failed
