"""In-memory spans around the benchmark's calls into ncgabor, and the per-layer table.

A span records name, start, end, parent span, op id and the sizes of the op it
belongs to (N, |L|, |L°|, window count).  Spans stay in memory until the run
ends; the per-layer metrics are computed from them afterwards.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

# (module.function, per-layer end-to-end target) for every traced call site.
# A ".first"/".repeat" suffix separates the call that fills an lru_cache from
# the calls that hit it.
LAYERS = (
    ("lattice.lattice_from_generators", "setup_s on frame-design/algebra-module; op_p50_ms on cli-cold"),
    ("lattice.adjoint_lattice.first", "setup_s on frame-design/algebra-module; op_p50_ms on cli-cold"),
    ("lattice.adjoint_lattice.repeat", "ops_per_s on frame-design/algebra-module"),
    ("algebra.twisted_conv.first", "setup_s on algebra-module; multiwindow verb on cli-cold"),
    ("algebra.twisted_conv.repeat", "ops_per_s on algebra-module"),
    ("algebra.involution", "ops_per_s on algebra-module"),
    ("algebra.represent", "ops_per_s on algebra-module and frame-design"),
    ("algebra.coefficients_of", "ops_per_s on algebra-module"),
    ("algebra.invert_in_algebra", "ops_per_s on algebra-module"),
    ("frames.frame_bounds", "ops_per_s, op_tail_ms on frame-design"),
    ("frames.canonical_dual", "ops_per_s, op_tail_ms on frame-design"),
    ("frames.canonical_tight", "ops_per_s, op_tail_ms on frame-design"),
    ("frames.reconstruct", "ops_per_s, op_tail_ms on frame-design"),
    ("frames.janssen_representation", "ops_per_s, op_tail_ms on frame-design"),
    ("frames.figa_check", "ops_per_s on algebra-module"),
    ("module.inner_left", "ops_per_s on algebra-module"),
    ("module.inner_right", "ops_per_s on algebra-module"),
    ("module.act_left", "ops_per_s on algebra-module"),
    ("module.act_right", "ops_per_s on algebra-module"),
    ("module.tight_multiwindow", "ops_per_s on frame-design"),
    ("core.stft", "ops_per_s on algebra-module"),
    ("modspaces.mod_norm", "ops_per_s on algebra-module"),
    ("cli.import", "op_p50_ms, setup_s on cli-cold"),
    ("cli.adjoint", "op_p50_ms on cli-cold"),
    ("cli.bounds", "op_p50_ms on cli-cold"),
    ("cli.dual", "op_p50_ms on cli-cold"),
    ("cli.tight", "op_p50_ms on cli-cold"),
    ("cli.janssen", "op_p50_ms on cli-cold"),
    ("cli.figa", "op_p50_ms on cli-cold"),
    ("cli.multiwindow", "op_p50_ms on cli-cold"),
    ("cli.modnorm", "op_p50_ms on cli-cold"),
    ("cli.grs", "op_p50_ms on cli-cold"),
    ("cli.invalid", "op_p50_ms on cli-cold"),
)

# Calls made only while setting up have no share of op time.
SETUP_ONLY = {"lattice.lattice_from_generators", "lattice.adjoint_lattice.first", "algebra.twisted_conv.first"}

# Numerical health, reported as the worst value seen; never gates a run.
HEALTH = (
    "frames.frame_bounds.ratio_max",
    "frames.canonical_dual.residual_max",
    "frames.canonical_tight.residual_max",
    "frames.janssen_representation.residual_max",
    "algebra.invert_in_algebra.residual_max",
    "module.associativity_residual.max",
    "frames.figa_check.max",
)

OVERHEAD = "trace.overhead_frac"


def plain_call(name, fn, *args, **kwargs):
    """The untraced call path: no bookkeeping at all."""
    return fn(*args, **kwargs)


class Tracer:
    """Collects spans in memory; `call` has the same signature as plain_call."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._context: dict = {"op": None}

    def _begin(self, name: str, n=None) -> int:
        parent = self._open[-1] if self._open else None
        span = {"name": name, "start": None, "end": None, "parent": parent, "n": n, **self._context}
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span["start"] = time.perf_counter()
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        # outside an op (set-up), N comes from the lattice or signal passed first
        index = self._begin(name, getattr(args[0], "n", None) if args else None)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(index)

    @contextmanager
    def span(self, name: str, **context):
        """A root span (an op or the set-up); its context tags every child span."""
        saved = self._context
        self._context = {"op": None, **context}
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)
            self._context = saved


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """calls, busy_s and p50_ms per traced call site, plus its share of op time."""
    durations: dict[str, list[float]] = {}
    in_ops: dict[str, float] = {}
    op_time = 0.0
    for s in spans:
        d = s["end"] - s["start"]
        if s["parent"] is None:
            if s["name"].startswith("op."):
                op_time += d
            continue
        durations.setdefault(s["name"], []).append(d)
        if spans[s["parent"]]["name"].startswith("op."):
            in_ops[s["name"]] = in_ops.get(s["name"], 0.0) + d
    out = {}
    for name, _target in LAYERS:
        ds = durations.get(name, [])
        out[f"{name}.calls"] = len(ds)
        out[f"{name}.busy_s"] = float(sum(ds))
        out[f"{name}.p50_ms"] = 1e3 * statistics.median(ds) if ds else 0.0
        if not name.startswith("cli.") and name not in SETUP_ONLY:
            out[f"{name}.share"] = in_ops.get(name, 0.0) / op_time if op_time else 0.0
    return out
