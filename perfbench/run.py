"""Run one ncgabor benchmark workload and print its metrics.

    python3 perfbench/run.py --workload frame-design --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ncgabor is imported from its src/.  The
load is a closed loop with one caller: one process, one thread, BLAS pinned
to one thread, and in cli-cold one subprocess at a time.  Whole cycles of
ops run until --seconds have passed; every op is checked against the dense
oracles afterwards, outside its timed region.  Times are reported at one
reference host speed (see Reference); the raw times are in the run record.

--trace 0 prints the end-to-end metrics.  --trace 1 traces the set-up, then
runs every cycle twice on the same inputs, untraced and traced, and prints
the per-layer metrics, the numerical health and the tracing overhead.  The
last line of stdout is the result object; lines before it start with '#'.
"""
from __future__ import annotations

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)  # before numpy loads BLAS; subprocesses inherit it
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # ops and reference timings on one CPU; subprocesses inherit it

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import spans
from workloads import OUT, ROOT, SRC, WORKLOADS, run_child

SETUP_REPEATS = 3
TAIL_SAMPLES_ABOVE = 10
MAX_REPORTED_FAILURES = 5
REFERENCE_TASK = """
import numpy as np
m = np.random.default_rng(0).standard_normal((160, 160))
sum(i * i for i in range(30_000))
np.linalg.eigh(m @ m.T)
"""

# ROADMAP Baseline, N=128 column (ms), against this run's frame-design spans at N=128.
BASELINE_128 = {
    "lattice.adjoint_lattice.first": 259.0,
    "frames.frame_bounds": 17.0,
    "frames.canonical_dual": 31.0,
    "frames.canonical_tight": 37.0,
    "frames.janssen_representation+algebra.represent": 2.0,
    "frames.reconstruct": 13.0,
}


class Reference:
    """A fixed task, timed between ops, that tells how fast the host runs right now.

    The benchmark runs on a slice of a shared machine whose speed drifts by up
    to 2x within minutes: other tenants load the same cores and caches, and
    the process is not descheduled (its CPU time equals its wall time), so
    CPU time does not help.  Each op's time is multiplied by nominal_s / r,
    where r is the mean of the two reference timings around it: the op's
    time on a host that runs the reference in nominal_s.  The task mixes a
    pure-Python loop with a dense eigensolve, like the ops themselves, and
    depends on neither the seed nor ncgabor, so it is the same work on every
    commit.

    In this process a timing is the median of three runs of the task, so
    that one interrupted run does not rescale the ops around it, and one is
    taken after every 5 times its cost in op time.  Where every op is a
    fresh process, the reference is one too, started and awaited the same
    way, so that it also pays interpreter start-up and the numpy import; a
    reference in this process tracked those ops worse than none.  One such
    timing varies more than an op does, so one is taken only after every 20
    times its cost: about a cycle of ops shares one scale.
    """

    def __init__(self, fresh_process: bool):
        self.fresh_process = fresh_process
        self.nominal_s = 0.2 if fresh_process else 0.005
        self.every = 20 if fresh_process else 5
        namespace: dict = {}
        exec(REFERENCE_TASK, namespace)
        self.matrix = namespace["m"] @ namespace["m"].T
        self.time()  # first touch: LAPACK, and the file cache for a fresh process
        self.last = self.time()
        self.samples = [self.last]

    def time(self) -> float:
        start = time.perf_counter()
        if self.fresh_process:
            child = run_child([sys.executable, "-c", REFERENCE_TASK], "reference")
            if child.code != 0:
                raise RuntimeError(f"reference task exited {child.code}: {child.stderr.strip()[-500:]}")
            runs = [time.perf_counter() - start]
        else:
            runs = []
            for _ in range(3):
                t0 = time.perf_counter()
                sum(i * i for i in range(30_000))
                np.linalg.eigh(self.matrix)
                runs.append(time.perf_counter() - t0)
        self.cost = time.perf_counter() - start
        return statistics.median(runs)

    def scale(self, before: float, after: float) -> float:
        return self.nominal_s / (0.5 * (before + after))

    def settle(self, tallies: list["Tally"]) -> None:
        """Time the reference and scale every op timed since the previous timing."""
        after = self.time()
        for tally in tallies:
            tally.scale_pending(self.scale(self.last, after))
        self.last = after
        self.samples.append(after)


@dataclass
class Tally:
    latencies: list = field(default_factory=list)  # seconds as timed
    scaled: list = field(default_factory=list)  # seconds at the reference speed
    kinds: list = field(default_factory=list)
    verified: int = 0
    failed: int = 0
    cycles: int = 0
    child_rss_mb: float = 0.0
    health: dict = field(default_factory=dict)

    @property
    def pending_s(self) -> float:
        return sum(self.latencies[len(self.scaled):])

    def scale_pending(self, factor: float) -> None:
        self.scaled += [factor * latency for latency in self.latencies[len(self.scaled):]]

    @property
    def ops_per_s(self) -> float:
        return self.verified / sum(self.scaled)

    def kind_p50_ms(self, latencies: list) -> dict:
        by_kind: dict[str, list[float]] = {}
        for kind, latency in zip(self.kinds, latencies):
            by_kind.setdefault(kind, []).append(latency)
        return {kind: 1e3 * statistics.median(ls) for kind, ls in sorted(by_kind.items())}


def run_op(op, call, tally: Tally, tracer) -> None:
    context = tracer.span(f"op.{op.kind}", op=len(tally.latencies), **op.sizes()) if tracer else nullcontext()
    with context:
        t0 = time.perf_counter()
        try:
            out, error = op.run(call), None
        except Exception as exc:  # an op that raises is a failed op, never an aborted run
            out, error = None, exc
        tally.latencies.append(time.perf_counter() - t0)
    tally.kinds.append(f"{op.kind}@{op.n}")
    tally.child_rss_mb = max(tally.child_rss_mb, getattr(out, "rss_mb", 0.0))
    if error is None:
        try:
            health = op.check(out)
        except Exception as exc:
            error = exc
    if error is not None:
        tally.failed += 1
        if tally.failed <= MAX_REPORTED_FAILURES:
            print(f"op {op.kind} (N={op.n}) failed: {type(error).__name__}: {error}", file=sys.stderr)
        return
    tally.verified += 1
    for name, value in health.items():
        tally.health[name] = max(tally.health.get(name, 0.0), float(value))


def measure(wl, seed: int, seconds: float, tracer=None) -> tuple[list[Tally], list[float]]:
    """Whole cycles of ops until `seconds` have passed, and at least wl.min_cycles.

    Inputs depend on the seed only.  Returns a tally per mode and the
    reference timings.  With a tracer, each cycle runs twice on the same
    inputs, untraced and traced in alternating order, so both tallies see the
    same machine state.
    """
    rng = np.random.default_rng([seed, 3])
    modes = [(spans.plain_call, None)] + ([(tracer.call, tracer)] if tracer else [])
    tallies = [Tally() for _ in modes]
    reference = Reference(wl.fresh_processes)
    start = time.perf_counter()
    cycles = 0
    while cycles < wl.min_cycles or time.perf_counter() - start < seconds:
        ops = wl.cycle(rng)
        for mode in range(len(modes)) if cycles % 2 == 0 else reversed(range(len(modes))):
            call, traced = modes[mode]
            if traced and hasattr(wl, "probe"):
                with traced.span("probe"):
                    wl.probe(traced.call)
            for op in ops:
                run_op(op, call, tallies[mode], traced)
                if max(t.pending_s for t in tallies) >= reference.every * reference.cost:
                    reference.settle(tallies)
            tallies[mode].cycles += 1
        cycles += 1
    reference.settle(tallies)
    return tallies, reference.samples


def timed_setup(wl, seed: int, call=spans.plain_call, tracer=None) -> tuple[float, float]:
    """Seconds from before `import ncgabor` to the first timed op, scaled and as timed.

    Covers lattice builds, first-touch adjoints and tables, and one untraced
    warm-up per op kind.  A warm-up that raises is reported but not counted:
    the same op fails again, counted, in the measured cycles.
    """
    rng = np.random.default_rng([seed, 4])
    reference = Reference(wl.fresh_processes)
    t0 = time.perf_counter()
    with tracer.span("setup") if tracer else nullcontext():
        wl.setup(call)
        for op in wl.warmups(rng):
            try:
                op.run(spans.plain_call)
            except Exception as exc:
                print(f"warm-up {op.kind} (N={op.n}) raised {type(exc).__name__}: {exc}", file=sys.stderr)
    seconds = time.perf_counter() - t0
    return seconds * reference.scale(reference.last, reference.time()), seconds


def setup_samples(args, first: tuple[float, float]) -> list[tuple[float, float]]:
    """The in-process set-up plus fresh-process repeats, each importing ncgabor anew."""
    samples = [first]
    for i in range(SETUP_REPEATS - 1):
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "0", "--setup-only"] + (["--tiny"] if args.tiny else [])
        child = run_child(argv, f"setup{i}", timeout=170)
        if child.code != 0:
            raise RuntimeError(f"set-up repeat exited {child.code}: {child.stderr.strip()[-500:]}")
        samples.append(tuple(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples above it."""
    ordered = sorted(latencies)
    i = max(len(ordered) - TAIL_SAMPLES_ABOVE - 1, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(wl, tally: Tally, latencies: list[float], setups: list[float]) -> dict:
    tail_ms, _ = tail(latencies)
    if wl.name == "cli-cold":
        rss_mb = tally.child_rss_mb
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ops_per_s": (tally.verified / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_ms, "ms"),
        "verified_frac": (tally.verified / len(tally.latencies), "frac"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def unit_of(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".busy_s", "s"), (".p50_ms", "ms"), (".share", "frac")):
        if name.endswith(suffix):
            return unit
    return "frac" if name == spans.OVERHEAD else "ratio"


def per_layer(tracer, plain: Tally, traced: Tally) -> dict:
    values = spans.layer_metrics(tracer.spans)
    for name in spans.HEALTH:
        values[name] = max(plain.health.get(name, 0.0), traced.health.get(name, 0.0))
    values[spans.OVERHEAD] = 1.0 - traced.ops_per_s / plain.ops_per_s
    return {name: (value, unit_of(name)) for name, value in values.items()}


def baseline_lines(tracer) -> list[str]:
    """frame-design spans at N=128 beside the ROADMAP Baseline's N=128 column."""
    by_name: dict[str, list[float]] = {}
    for s in tracer.spans:
        if s.get("n") == 128 and s["parent"] is not None:
            by_name.setdefault(s["name"], []).append(1e3 * (s["end"] - s["start"]))
    lines = ["# N=128 layer, this run's median (ms) | ROADMAP Baseline (ms)"]
    for key, base in BASELINE_128.items():
        parts = [by_name.get(name) for name in key.split("+")]
        here = f"{sum(statistics.median(p) for p in parts):9.2f}" if all(parts) else "  not run"
        lines.append(f"#   {key:52s} {here} | {base:7.1f}")
    return lines


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def record(args, **extra) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_threads": BLAS_PIN,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **extra,
    }


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=lambda text: int(text) % (1 << 63), required=True,
                   help="any integer; inputs are drawn from it (negative seeds wrap)")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small sizes, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help="time one set-up and print it")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "ncgabor" / "__init__.py").is_file():
        print(f"error: no ncgabor sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(wl, args.seed)}))
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    lines = []
    if args.trace:
        tracer = spans.Tracer()
        timed_setup(wl, args.seed, tracer.call, tracer)
        (plain, traced), _ = measure(wl, args.seed, args.seconds, tracer)
        metrics = per_layer(tracer, plain, traced)
        attempted = len(plain.latencies) + len(traced.latencies)
        failed = plain.failed + traced.failed
        info = record(args, cycles=plain.cycles + traced.cycles,
                      ops_per_s_untraced=plain.ops_per_s, ops_per_s_traced=traced.ops_per_s)
        targets = dict(spans.LAYERS)
        for name, _ in spans.LAYERS:
            lines.append(f"# {name:36s} calls {metrics[name + '.calls'][0]:6d}  busy {metrics[name + '.busy_s'][0]:9.4f} s"
                         f"  p50 {metrics[name + '.p50_ms'][0]:9.3f} ms  -> {targets[name]}")
        if wl.name == "frame-design":
            lines += baseline_lines(tracer)
        trace_dump = tracer.spans
    else:
        setup_first = timed_setup(wl, args.seed)
        (tally,), references = measure(wl, args.seed, args.seconds)
        setups = setup_samples(args, setup_first)
        metrics = end_to_end(wl, tally, tally.scaled, [scaled for scaled, _ in setups])
        raw = end_to_end(wl, tally, tally.latencies, [seconds for _, seconds in setups])
        attempted, failed = len(tally.latencies), tally.failed
        _, percentile = tail(tally.latencies)
        info = record(args, cycles=tally.cycles, samples=attempted, tail_percentile=percentile,
                      setup_samples_s=setups, kind_p50_ms=tally.kind_p50_ms(tally.scaled),
                      kind_p50_ms_as_timed=tally.kind_p50_ms(tally.latencies),
                      as_timed={name: value for name, (value, _) in raw.items()},
                      reference_ms=[1e3 * min(references), 1e3 * statistics.median(references), 1e3 * max(references)])
        trace_dump = None

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": info, "result": result, "spans": trace_dump}))
    print("# record " + json.dumps(info))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
