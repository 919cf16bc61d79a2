"""The three benchmark workloads: what each op calls and how it is checked.

Every workload draws lattices, windows, signals and coefficients from the
seed.  Sizes are fixed per workload, so a seed changes the inputs but not
the amount of work.  An op's `run` is the timed part; its `check` runs
afterwards against the dense oracles and raises Mismatch on a wrong result.
"""
from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import oracle as O

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


class Mismatch(AssertionError):
    """An op's output disagrees with the oracle."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def within(value: float, tol: float, what: str) -> float:
    require(bool(value <= tol), f"{what} {value:.3e} exceeds {tol:.0e}")
    return value


@dataclass
class Op:
    kind: str
    n: int
    run: Callable[[Callable], Any]
    check: Callable[[Any], dict]
    lattice: int = 0
    adjoint: int = 0
    windows: int = 0

    def sizes(self) -> dict:
        return {"n": self.n, "lattice": self.lattice, "adjoint": self.adjoint, "windows": self.windows}


def load_ncgabor() -> SimpleNamespace:
    """Import ncgabor from this checkout's src/, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("core", "lattice", "algebra", "frames", "module", "modspaces", "weights")
    mods = {name: importlib.import_module(f"ncgabor.{name}") for name in names}
    origin = Path(mods["core"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"ncgabor was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def cnormal(rng: np.random.Generator, size) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def sheared(n: int, a: int, b: int, rng: np.random.Generator | None) -> tuple:
    """Generators (a, s), (0, b): separable for s = 0, else a seed-chosen shear.

    Only shears with b | (N/a) s are drawn, so |L| = (N/a)(N/b) for every seed
    and the seed changes the lattice's shape but not its size.
    """
    if rng is None:
        return ((a, 0), (0, b))
    shears = [s for s in range(1, b) if (n // a * s) % b == 0]
    return ((a, int(rng.choice(shears))), (0, b))


@dataclass
class Lat:
    """A lattice built by the library plus its oracle points."""

    n: int
    gens: tuple
    pts: np.ndarray
    adj: np.ndarray
    obj: Any = None

    @classmethod
    def of(cls, n: int, gens) -> "Lat":
        pts = O.lattice_points(n, gens)
        return cls(n, gens, pts, O.adjoint_points(n, pts))


def build(lats: list[Lat], call, nc) -> None:
    for lat in lats:
        lat.obj = call("lattice.lattice_from_generators", nc.lattice.lattice_from_generators, lat.n, lat.gens)
        call("lattice.adjoint_lattice.first", nc.lattice.adjoint_lattice, lat.obj)


def same_points(got: np.ndarray, expected: np.ndarray, what: str) -> None:
    require(got.shape == expected.shape and bool(np.all(got == expected)), f"{what} points differ from the oracle")


# ---------------------------------------------------------------- frame-design

class FrameDesign:
    """Design one frame per op: bounds, dual, tight, reconstruction, Janssen.

    Dense O(N^3) frame work dominates.  Sizes N = 128..384 at redundancy 2,
    separable (including the N=128 <(8,0),(0,8)> lattice of the ROADMAP
    Baseline) and sheared; N=384 appears twice per cycle.  One op in seven
    tightens two windows at covolume 4/3 and one in seven is an undersampled
    single-window system that must raise NotAFrame.
    """

    name = "frame-design"
    fresh_processes = False
    min_cycles = 6  # twelve N=384 designs, so op_tail_ms stays in that class

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 1])
        if tiny:
            design = [(16, (2, 0), (0, 4)), (24, 4, 3)]
            sparse = (48, 8, 8)
        else:
            design = [(128, (8, 0), (0, 8)), (192, 8, 12), (256, (16, 0), (0, 8)), (384, 12, 16)]
            sparse = (192, 16, 16)
        self.design = []
        for n, *spec in design:
            gens = spec if isinstance(spec[0], tuple) else sheared(n, spec[0], spec[1], rng)
            self.design.append(Lat.of(n, tuple(map(tuple, gens))))
        n, a, b = sparse
        self.sparse = Lat.of(n, sheared(n, a, b, rng))
        self.schedule = [*self.design, self.design[-1]]

    def setup(self, call) -> None:
        self.nc = load_ncgabor()
        build([*self.design, self.sparse], call, self.nc)

    def warmups(self, rng) -> list[Op]:
        return [self._design(self.design[0], rng), self._multiwindow(rng), self._reject(rng)]

    def cycle(self, rng) -> list[Op]:
        ops = [self._design(lat, rng) for lat in self.schedule]
        ops += [self._multiwindow(rng), self._reject(rng)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def _design(self, lat: Lat, rng) -> Op:
        nc, n = self.nc, lat.n
        g, f = cnormal(rng, n), cnormal(rng, n)
        gs, fs = nc.core.Signal(n, g), nc.core.Signal(n, f)
        system = nc.frames.GaborSystem((gs,), lat.obj)

        def run(call):
            adj = call("lattice.adjoint_lattice.repeat", nc.lattice.adjoint_lattice, lat.obj)
            bounds = call("frames.frame_bounds", nc.frames.frame_bounds, system)
            duals = call("frames.canonical_dual", nc.frames.canonical_dual, system)
            tight = call("frames.canonical_tight", nc.frames.canonical_tight, system)
            rec = call("frames.reconstruct", nc.frames.reconstruct, fs, system, duals)
            jan = call("frames.janssen_representation", nc.frames.janssen_representation, gs, gs, lat.obj)
            mat = call("algebra.represent", nc.algebra.represent, jan)
            return adj, bounds, duals, tight, rec, jan, mat

        def check(out):
            adj, bounds, duals, tight, rec, jan, mat = out
            same_points(adj.as_array(), lat.adj, "adjoint lattice")
            S = O.frame_operator([g], lat.pts)
            eigs = np.linalg.eigvalsh(S)
            within(abs(bounds.lower - eigs[0]) / eigs[-1], O.TOL_RECONSTRUCT, "lower frame bound error")
            within(abs(bounds.upper - eigs[-1]) / eigs[-1], O.TOL_RECONSTRUCT, "upper frame bound error")
            require(bounds.is_frame, "redundancy-2 system reported as no frame")
            dual = duals[0].values
            within(O.rel(S @ dual, g), O.TOL_RECONSTRUCT, "S applied to the dual misses the window by")
            dual_res = within(O.reconstruction_residual(f, [g], [dual], lat.pts), O.TOL_RECONSTRUCT, "dual reconstruction residual")
            within(O.rel(rec.values, f), O.TOL_RECONSTRUCT, "reconstruct() residual")
            tight_res = within(O.parseval_residual([tight[0].values], lat.pts), O.TOL_RECONSTRUCT, "tight Parseval residual")
            same_points(jan.lattice.as_array(), lat.adj, "Janssen coefficient lattice")
            jan_res = within(O.rel(O.shift_sum(jan.coeffs, lat.adj, n), S), O.TOL_IDENTITY, "Janssen expansion residual")
            within(O.rel(mat.entries, S), O.TOL_IDENTITY, "represent(Janssen) residual")
            return {
                "frames.frame_bounds.ratio_max": bounds.upper / bounds.lower,
                "frames.canonical_dual.residual_max": dual_res,
                "frames.canonical_tight.residual_max": tight_res,
                "frames.janssen_representation.residual_max": jan_res,
            }

        return Op("design", n, run, check, len(lat.pts), len(lat.adj), 1)

    def _multiwindow(self, rng) -> Op:
        nc, lat = self.nc, self.sparse
        ws = [cnormal(rng, lat.n) for _ in range(2)]
        signals = [nc.core.Signal(lat.n, w) for w in ws]

        def run(call):
            return call("module.tight_multiwindow", nc.module.tight_multiwindow, signals, lat.obj)

        def check(tight):
            require(len(tight) == 2, "tight_multiwindow changed the window count")
            res = within(O.parseval_residual([t.values for t in tight], lat.pts), O.TOL_RECONSTRUCT, "multi-window Parseval residual")
            return {"frames.canonical_tight.residual_max": res}

        return Op("multiwindow", lat.n, run, check, len(lat.pts), len(lat.adj), 2)

    def _reject(self, rng) -> Op:
        nc, lat = self.nc, self.sparse
        g = cnormal(rng, lat.n)
        system = nc.frames.GaborSystem((nc.core.Signal(lat.n, g),), lat.obj)

        def run(call):
            bounds = call("frames.frame_bounds", nc.frames.frame_bounds, system)
            try:
                call("frames.canonical_dual", nc.frames.canonical_dual, system)
            except nc.frames.NotAFrame as exc:
                return bounds, exc
            return bounds, None

        def check(out):
            bounds, exc = out
            eigs = np.linalg.eigvalsh(O.frame_operator([g], lat.pts))
            require(eigs[0] <= 1e-10 * eigs[-1], "oracle says the undersampled system is a frame")
            require(not bounds.is_frame, "undersampled system reported as a frame")
            require(exc is not None, "canonical_dual accepted an undersampled system")
            return {}

        return Op("reject", lat.n, run, check, len(lat.pts), len(lat.adj), 1)


# -------------------------------------------------------------- algebra-module

MODNORM_VARIANTS = [
    (p, q, w)
    for p, q in ((1.0, 1.0), (2.0, 2.0), (1.0, math.inf))
    for w in (("polynomial", {"s": 2.0}), ("subexponential", {"b": 0.5, "beta": 0.5}))
]


class AlgebraModule:
    """Many small identity ops on a warm set of lattices, N in 48..96.

    Python loops over lattice points (tf_shift per point, the N^2 weight
    table of mod_norm) dominate, not BLAS.  Each cycle runs every op kind on
    a separable and a sheared redundancy-2 lattice at each N.  Six sizes
    rather than three: an op kind's time grows with N, so the op latencies
    then form many classes close together, and the median op moves little
    when noise reorders two neighbouring classes.  With N in {48, 64, 96}
    it sat between classes 20% apart and jumped between them.
    """

    name = "algebra-module"
    fresh_processes = False
    min_cycles = 1
    KINDS = ("product", "invert", "coeffs", "assoc", "figa", "stft", "modnorm")

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 2])
        specs = [(8, 2, 2), (12, 3, 2)] if tiny else [(48, 4, 6), (56, 4, 7), (64, 4, 8), (72, 6, 6), (80, 8, 5), (96, 8, 6)]
        self.lats = []
        for n, a, b in specs:
            self.lats.append(Lat.of(n, sheared(n, a, b, None)))
            self.lats.append(Lat.of(n, sheared(n, b, a, rng)))
        self.variant = 0

    def setup(self, call) -> None:
        nc = self.nc = load_ncgabor()
        build(self.lats, call, nc)
        rng = np.random.default_rng(0)
        for lat in self.lats:
            a = nc.algebra.CoeffSeq(lat.obj, cnormal(rng, len(lat.pts)))
            call("algebra.twisted_conv.first", nc.algebra.twisted_conv, a, a)
            call("algebra.involution", nc.algebra.involution, a)

    def warmups(self, rng) -> list[Op]:
        return [getattr(self, f"_{kind}")(self.lats[-1], rng) for kind in self.KINDS]

    def cycle(self, rng) -> list[Op]:
        ops = [getattr(self, f"_{kind}")(lat, rng) for lat in self.lats for kind in self.KINDS]
        return [ops[i] for i in rng.permutation(len(ops))]

    def _op(self, kind, lat, run, check, windows=0) -> Op:
        return Op(kind, lat.n, run, check, len(lat.pts), len(lat.adj), windows)

    def _coeffs_seq(self, lat, rng):
        c = cnormal(rng, len(lat.pts)) / len(lat.pts)
        return c, self.nc.algebra.CoeffSeq(lat.obj, c)

    def _signal(self, lat, rng):
        v = cnormal(rng, lat.n)
        v /= np.linalg.norm(v)
        return v, self.nc.core.Signal(lat.n, v)

    def _product(self, lat, rng) -> Op:
        A = self.nc.algebra
        (a, sa), (b, sb) = self._coeffs_seq(lat, rng), self._coeffs_seq(lat, rng)

        def run(call):
            return call("algebra.twisted_conv.repeat", A.twisted_conv, sa, sb), call("algebra.involution", A.involution, sa)

        def check(out):
            prod, inv = out
            Ma, Mb = O.shift_sum(a, lat.pts, lat.n), O.shift_sum(b, lat.pts, lat.n)
            within(O.rel(O.shift_sum(prod.coeffs, lat.pts, lat.n), Ma @ Mb), O.TOL_IDENTITY, "twisted convolution residual")
            within(O.rel(O.shift_sum(inv.coeffs, lat.pts, lat.n), Ma.conj().T), O.TOL_IDENTITY, "involution residual")
            return {}

        return self._op("product", lat, run, check)

    def _invert(self, lat, rng) -> Op:
        A = self.nc.algebra
        noise = cnormal(rng, len(lat.pts))
        e = 0.5 * noise / np.abs(noise).sum()
        e[np.flatnonzero((lat.pts == 0).all(axis=1))[0]] += 1.0  # unit + l1-small: invertible
        seq = A.CoeffSeq(lat.obj, e)

        def run(call):
            return call("algebra.invert_in_algebra", A.invert_in_algebra, seq)

        def check(inv):
            prod = O.shift_sum(e, lat.pts, lat.n) @ O.shift_sum(inv.coeffs, lat.pts, lat.n)
            res = O.rel(prod, np.eye(lat.n))
            return {"algebra.invert_in_algebra.residual_max": within(res, O.TOL_SUPPORT, "inverse residual")}

        return self._op("invert", lat, run, check)

    def _coeffs(self, lat, rng) -> Op:
        A = self.nc.algebra
        a, sa = self._coeffs_seq(lat, rng)

        def run(call):
            mat = call("algebra.represent", A.represent, sa)
            return mat, call("algebra.coefficients_of", A.coefficients_of, mat, lat.obj)

        def check(out):
            mat, (back, residual) = out
            within(O.rel(mat.entries, O.shift_sum(a, lat.pts, lat.n)), O.TOL_IDENTITY, "represent residual")
            within(O.rel(back.coeffs, a), O.TOL_IDENTITY, "recovered coefficients residual")
            within(residual, O.TOL_SUPPORT, "span residual")
            return {}

        return self._op("coeffs", lat, run, check)

    def _assoc(self, lat, rng) -> Op:
        M, L = self.nc.module, self.nc.lattice
        (f, sf), (g, sg), (h, sh) = (self._signal(lat, rng) for _ in range(3))

        def run(call):
            call("lattice.adjoint_lattice.repeat", L.adjoint_lattice, lat.obj)
            left = call("module.inner_left", M.inner_left, sf, sg, lat.obj)
            lhs = call("module.act_left", M.act_left, left, sh)
            right = call("module.inner_right", M.inner_right, sg, sh, lat.obj)
            rhs = call("module.act_right", M.act_right, sf, right)
            return left, lhs, right, rhs

        def check(out):
            left, lhs, right, rhs = out
            coeffs = O.shifted(lat.pts, g).conj().T @ f
            within(O.rel(left.coeffs, coeffs), O.TOL_IDENTITY, "inner_left residual")
            expect = O.shifted(lat.pts, h) @ coeffs
            scale = 1.0 + np.linalg.norm(expect)
            within(np.linalg.norm(lhs.values - expect) / scale, O.TOL_IDENTITY, "act_left residual")
            same_points(right.lattice.as_array(), lat.adj, "inner_right lattice")
            within(np.linalg.norm(rhs.values - expect) / scale, O.TOL_IDENTITY, "act_right residual")
            gap = np.linalg.norm(lhs.values - rhs.values) / (1.0 + np.linalg.norm(lhs.values))
            return {"module.associativity_residual.max": within(gap, O.TOL_IDENTITY, "associativity residual")}

        return self._op("assoc", lat, run, check, windows=2)

    def _figa(self, lat, rng) -> Op:
        F = self.nc.frames
        vals, sigs = zip(*(self._signal(lat, rng) for _ in range(4)))

        def run(call):
            return call("frames.figa_check", F.figa_check, *sigs, lat.obj)

        def check(residual):
            within(O.figa_residual(*vals, lat.pts, lat.adj), O.TOL_IDENTITY, "oracle FIGA residual")
            return {"frames.figa_check.max": within(residual, O.TOL_IDENTITY, "figa_check residual")}

        return self._op("figa", lat, run, check, windows=2)

    def _stft(self, lat, rng) -> Op:
        C = self.nc.core
        (f, sf), (g, sg) = self._signal(lat, rng), self._signal(lat, rng)

        def run(call):
            return call("core.stft", C.stft, sf, sg)

        def check(out):
            within(O.rel(out.values, O.stft(f, g)), O.TOL_IDENTITY, "STFT residual")
            return {}

        return self._op("stft", lat, run, check, windows=1)

    def _modnorm(self, lat, rng) -> Op:
        nc = self.nc
        p, q, (family, params) = MODNORM_VARIANTS[self.variant % len(MODNORM_VARIANTS)]
        self.variant += 1
        (f, sf), (g, sg) = self._signal(lat, rng), self._signal(lat, rng)
        weight = getattr(nc.weights.Weight, family)(*params.values())
        spec = nc.modspaces.ModNormSpec(p, q, weight, sg)

        def run(call):
            return call("modspaces.mod_norm", nc.modspaces.mod_norm, sf, spec)

        def check(value):
            table = O.weight_table(lat.n, family, **params)
            expect = O.mixed_norm(np.abs(O.stft(f, g)) * table, p, q)
            within(abs(value - expect) / expect, O.TOL_IDENTITY, "mod_norm relative error")
            return {}

        return self._op("modnorm", lat, run, check, windows=1)


# -------------------------------------------------------------------- cli-cold

@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    rss_mb: float


def run_child(argv: list[str], name: str, timeout: float = 120.0) -> Child:
    """Run one subprocess to completion; its peak RSS comes from wait4."""
    OUT.mkdir(parents=True, exist_ok=True)
    out_path, err_path = OUT / f"{name}.out", OUT / f"{name}.err"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=OUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss / 1024.0)


def signal_json(v: np.ndarray) -> dict:
    return {"n": len(v), "re": v.real.tolist(), "im": v.imag.tolist()}


def gens_arg(gens) -> str:
    return ",".join(f"({k},{l})" for k, l in gens)


def parsed_points(d: dict) -> np.ndarray:
    return O.lattice_points(int(d["n"]), [tuple(g) for g in d["generators"]])


# Ray directions of the acceptance suite; at n_max = 4096 the verdicts are settled.
GRS_POINTS = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 0), (0, 3), (2, 2), (3, 4), (-1, 2), (5, 0))


class CliCold:
    """One `python -m ncgabor.cli` subprocess per op, N in 96..160.

    Import, serialize, argument parsing, cold lattice closure, adjoint_lattice
    and _conv_tables run on every op.  Each request draws a fresh lattice;
    two ops in thirteen are invalid requests that must exit 2.  Sizes keep
    every verb between about 1x and 2x the import time: at N=192, adjoint
    and janssen took 2.5x to 3x the rest, and with some forty ops a run the
    median and the tail fell on the edge between the two classes and jumped
    between them from run to run.  adjoint and janssen, the slowest verbs,
    run twice per cycle, and a run has at least four cycles: the tail point,
    eleven ops from the top, then falls inside their class.
    """

    name = "cli-cold"
    fresh_processes = True
    min_cycles = 4
    VERBS = ("adjoint", "bounds", "dual", "tight", "janssen", "figa", "multiwindow", "modnorm", "grs")
    KINDS = VERBS + ("bad-gens", "bad-window", "adjoint", "janssen")

    def __init__(self, seed: int, tiny: bool):
        self.tiny = tiny
        self.requests = 0
        self.sizes = dict(adjoint=128, bounds=160, dual=144, tight=128, janssen=128, figa=96, multiwindow=96, modnorm=128)
        if tiny:
            self.sizes = {verb: 48 for verb in self.sizes}

    def setup(self, call) -> None:
        OUT.mkdir(parents=True, exist_ok=True)

    def warmups(self, rng) -> list[Op]:
        # Every op is a fresh process: one warm-up fills the file cache for all kinds.
        return [self._op("grs", rng)]

    def cycle(self, rng) -> list[Op]:
        ops = [self._op(kind, rng) for kind in self.KINDS]
        return [ops[i] for i in rng.permutation(len(ops))]

    def probe(self, call) -> None:
        call("cli.import", run_child, [sys.executable, "-c", "import ncgabor"], "probe")

    def _lattice(self, n: int, size: int, rng) -> Lat:
        """A fresh lattice <(a, s), (0, b)> with |L| = size and a, b >= 4."""
        shapes = [(a, b) for a in range(4, n) for b in range(4, n)
                  if n % a == 0 and n % b == 0 and (n // a) * (n // b) == size]
        a, b = shapes[rng.integers(len(shapes))]
        shears = [s for s in range(b) if (n // a * s) % b == 0]
        return Lat.of(n, ((a, int(rng.choice(shears))), (0, b)))

    def _write(self, payload: dict) -> str:
        self.requests += 1
        path = OUT / f"in{self.requests % 64}.json"
        OUT.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
        return str(path)

    def _op(self, kind: str, rng) -> Op:
        base = [sys.executable, "-m", "ncgabor.cli"]
        verb = kind if kind in self.VERBS else "invalid"
        n = self.sizes.get(kind, self.sizes["tight"])
        lat = self._lattice(n, 2 * n // 3 if kind == "multiwindow" else 2 * n, rng) if kind not in ("modnorm", "grs") else None
        lattice_args = ["--n", str(n), "--gens", gens_arg(lat.gens)] if lat else []
        windows = [cnormal(rng, n) for _ in range(2 if kind == "multiwindow" else 1)]
        files = [self._write(signal_json(w)) for w in windows]
        window_args = [a for path in files for a in ("--window", path)]
        argv, check = base + [kind] + lattice_args, None

        if kind == "adjoint":
            def check(out):
                same_points(parsed_points(json.loads(out.stdout)), lat.adj, "adjoint")
        elif kind == "bounds":
            argv += window_args

            def check(out):
                got = json.loads(out.stdout)
                eigs = np.linalg.eigvalsh(O.frame_operator(windows, lat.pts))
                within(abs(got["A"] - eigs[0]) / eigs[-1], O.TOL_RECONSTRUCT, "lower bound error")
                within(abs(got["B"] - eigs[-1]) / eigs[-1], O.TOL_RECONSTRUCT, "upper bound error")
                require(got["is_frame"] is True, "frame reported as no frame")
                return {"frames.frame_bounds.ratio_max": got["B"] / got["A"]}
        elif kind in ("dual", "tight"):
            argv += window_args

            def check(out):
                got = [window_values(w) for w in json.loads(out.stdout)["windows"]]
                if kind == "tight":
                    res = O.parseval_residual(got, lat.pts)
                    return {"frames.canonical_tight.residual_max": within(res, O.TOL_RECONSTRUCT, "tight Parseval residual")}
                f = cnormal(np.random.default_rng(n), n)
                res = O.reconstruction_residual(f, windows, got, lat.pts)
                return {"frames.canonical_dual.residual_max": within(res, O.TOL_RECONSTRUCT, "dual reconstruction residual")}
        elif kind == "janssen":
            argv += window_args

            def check(out):
                got = json.loads(out.stdout)
                same_points(parsed_points(got["lattice"]), lat.adj, "Janssen lattice")
                coeffs = np.array([complex(re, im) for re, im in got["coeffs"]])
                res = O.rel(O.shift_sum(coeffs, lat.adj, n), O.frame_operator(windows, lat.pts))
                return {"frames.janssen_representation.residual_max": within(res, O.TOL_IDENTITY, "Janssen residual")}
        elif kind == "figa":
            trials = 3 if self.tiny else 20
            argv += ["--trials", str(trials), "--seed", str(int(rng.integers(1 << 30)))]

            def check(out):
                got = json.loads(out.stdout)
                require(got["trials"] == trials, "figa ran another number of trials")
                return {"frames.figa_check.max": within(got["max_residual"], O.TOL_IDENTITY, "FIGA residual")}
        elif kind == "multiwindow":
            argv += window_args + ["--emit-windows"]

            def check(out):
                got = json.loads(out.stdout)
                require(got["is_module_frame"] is True and got["window_count"] == 2, "module frame rejected")
                require(got["vol"] == "3/2", f"covolume {got['vol']} instead of 3/2")
                within(got["residual"], O.TOL_RECONSTRUCT, "reported tightening residual")
                res = O.parseval_residual([window_values(w) for w in got["tight_windows"]], lat.pts)
                return {"frames.canonical_tight.residual_max": within(res, O.TOL_RECONSTRUCT, "multi-window Parseval residual")}
        elif kind == "modnorm":
            p, q, (family, params) = MODNORM_VARIANTS[int(rng.integers(len(MODNORM_VARIANTS)))]
            f = cnormal(rng, n)
            argv += ["--signal", self._write(signal_json(f)), "--window", files[0],
                     "--p", "inf" if p == math.inf else str(p), "--q", "inf" if q == math.inf else str(q),
                     "--weight", json.dumps({"family": family, **params}), "--s", "1"]

            def check(out):
                table = O.weight_table(n, family, **params)
                expect = O.mixed_norm(np.abs(O.stft(f, windows[0])) * table, p, q)
                within(abs(json.loads(out.stdout)["value"] - expect) / expect, O.TOL_IDENTITY, "mod_norm relative error")
        elif kind == "grs":
            family = ("polynomial", "subexponential", "exponential")[int(rng.integers(3))]
            params = {"polynomial": {"s": 2.0}, "subexponential": {"b": 1.0, "beta": 0.5}, "exponential": {"b": 1.0}}[family]
            point = GRS_POINTS[int(rng.integers(len(GRS_POINTS)))]
            argv += ["--weight", json.dumps({"family": family, **params}), "--point", gens_arg([point]), "--nmax", "4096"]

            def check(out):
                rows = [line.split(",") for line in out.stdout.strip().splitlines()[1:]]
                require(len(rows) == 13, f"{len(rows)} ray samples instead of 13")
                for m, value in rows:
                    r = int(m) * math.hypot(*point)
                    logv = {"polynomial": math.log1p(r * r), "subexponential": r**0.5, "exponential": r}[family]
                    within(abs(float(value) / math.exp(logv / int(m)) - 1.0), 1e-12, "ray sample error")
                verdict = "violates-GRS" if family == "exponential" else "consistent-with-GRS"
                require(f"verdict: {verdict}" in out.stderr, f"verdict is not {verdict}")
        elif kind == "bad-gens":
            argv = base + ["bounds", "--n", str(n), "--gens", gens_arg(lat.gens)[:-1]] + window_args
        else:  # bad-window: a window one sample short of the lattice order
            short = self._write(signal_json(windows[0][:-1]))
            argv = base + ["dual"] + lattice_args + ["--window", short]

        expect = 2 if verb == "invalid" else 0

        def run(call):
            return call(f"cli.{verb}", run_child, argv, "req")

        def judge(out: Child):
            require(out.code == expect, f"{kind} exited {out.code}, expected {expect}: {out.stderr.strip()[-200:]}")
            require("Traceback" not in out.stderr, f"{kind} printed a traceback")
            if expect:
                require(out.stderr.startswith("error:") and not out.stdout, f"{kind} rejection is not a one-line error")
                return {}
            return (check(out) or {}) if check else {}

        return Op(kind, n, run, judge, len(lat.pts) if lat else 0, len(lat.adj) if lat else 0, len(windows))


def window_values(d: dict) -> np.ndarray:
    return np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)


WORKLOADS = {w.name: w for w in (FrameDesign, AlgebraModule, CliCold)}
