"""Command-line front end.

Verbs operate on JSON artifacts (signals, lattices, weights) given inline or
as file paths, and emit machine-readable JSON or CSV on stdout or to --out.
Exit codes: 0 success, 2 input validation error, 3 numerical failure (not a
frame, singular element, overflow, failed selftest): every ArithmeticError
a verb raises exits 3 with one error line.  JSON output refuses NaN and
infinity, so a result past the float range is an overflow too, never
non-JSON output.  A request too large for memory exits 2 with one error line
when its allocation fails; no budget refuses it before it allocates.

main parses the arguments and, for the verbs that take --n/--gens, builds
the lattice.  Each verb then reads and checks all its inputs before numpy
loads: signal JSON (fields, types, lengths, finite samples), each window's
order against the lattice or --signal, window counts, weight JSON and
parameters, --p/--q/--s, --trials and --seed.  So a request refused for any
of them exits 2 without numpy.  adjoint, vol and grs compute nothing with
arrays and never load it.  The other verbs compute in a `with _numeric()`
block, under np.errstate(over="raise", invalid="raise"), so numpy overflow
and invalid operations raise; the scope is the block, numpy's global error
state is left alone.  figa and modnorm report such an error as their
quantity (the fundamental-identity residual, the modulation norm) leaving
the float range, and figa does so too for a non-finite residual, which an
overflow inside BLAS leaves unflagged.  Each verb imports only the modules
it computes with.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from . import serialize
from .lattice import _check_same_n, adjoint_lattice, lattice_from_generators, volume

if TYPE_CHECKING:
    from .frames import GaborSystem
    from .lattice import Lattice
    from .serialize import SignalParts
    from .weights import Weight

VALIDATION_ERROR = 2
NUMERICAL_ERROR = 3

_GENS_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def _parse_gens(text: str) -> list[tuple[int, int]]:
    if text.strip() == "":
        return []
    pairs = _GENS_RE.findall(text)
    cleaned = _GENS_RE.sub("", text).replace(",", "").strip()
    if not pairs or cleaned:
        raise ValueError(
            f"malformed generator list {text!r}, expected e.g. \"(2,0),(0,3)\""
        )
    return [(int(k), int(l)) for k, l in pairs]


def _load_json_arg(text: str, what: str) -> dict:
    """Accept inline JSON or a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            return json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(f"inline {what} JSON is malformed: {exc}") from exc
    path = Path(text)
    if not path.exists():
        raise ValueError(f"{what} file {text!r} does not exist")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {text!r} is malformed JSON: {exc}") from exc


def _read_signal(text: str) -> SignalParts:
    """Signal JSON, read and checked without numpy (serialize._signal_parts)."""
    return serialize._signal_parts(_load_json_arg(text, "signal"))


def _is_zero(signal: SignalParts) -> bool:
    _, real, imag = signal
    return not (any(real) or any(imag))


def _load_weight(text: str | None) -> Weight:
    if text is None:
        from .weights import Weight

        return Weight.one()
    return serialize.weight_from_dict(_load_json_arg(text, "weight"))


def _lattice_from_args(args) -> Lattice:
    if args.n is None:
        raise ValueError("missing required --n")
    if args.gens is None:
        raise ValueError("missing required --gens")
    return lattice_from_generators(args.n, _parse_gens(args.gens))


@contextmanager
def _numeric(quantity: str | None = None):
    """numpy, loaded on entry, raising on overflow and invalid operations
    within the with block; its global error state is left alone.  Given the
    verb's quantity, such an error becomes an OverflowError that names it."""
    import numpy as np

    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            if quantity is None:
                raise
            raise OverflowError(f"the {quantity} leaves the float range ({exc})") from None


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(args, payload) -> None:
    """Strict JSON only: a NaN or infinity in the payload is an overflow."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise OverflowError(f"the result leaves the float range ({exc})") from None
    _emit(args, text)


def _cmd_adjoint(args) -> int:
    adj = adjoint_lattice(args.lattice)
    _emit_json(args, serialize.lattice_to_dict(adj))
    return 0


def _cmd_vol(args) -> int:
    lat = args.lattice
    _emit_json(
        args,
        {
            "n": lat.n,
            "size": lat.size,
            "vol": serialize.fraction_to_str(volume(lat)),
        },
    )
    return 0


def _read_windows(args) -> list[SignalParts]:
    """The --window signals, checked as a Gabor system on the lattice checks them."""
    if not args.window:
        raise ValueError("missing required --window")
    windows = [_read_signal(w) for w in args.window]
    _check_same_n(args.lattice.n, *(n for n, _, _ in windows))
    if all(map(_is_zero, windows)):
        raise ValueError("at least one window must be nonzero")
    return windows


def _system(args, windows: list[SignalParts]) -> GaborSystem:
    from .frames import GaborSystem

    return GaborSystem(tuple(map(serialize._signal, windows)), args.lattice)


def _cmd_bounds(args) -> int:
    windows = _read_windows(args)
    with _numeric():
        from .frames import frame_bounds

        b = frame_bounds(_system(args, windows))
        _emit_json(args, serialize.bounds_to_dict(b))
    return 0


def _cmd_design(args) -> int:
    """dual and tight: the canonical dual or tight windows of the system."""
    windows = _read_windows(args)
    with _numeric():
        from . import frames

        design = frames.canonical_dual if args.verb == "dual" else frames.canonical_tight
        designed = design(_system(args, windows))
        _emit_json(args, {"windows": [serialize.signal_to_dict(w) for w in designed]})
    return 0


def _cmd_janssen(args) -> int:
    windows = _read_windows(args)
    if len(windows) != 1:
        raise ValueError("janssen takes exactly one --window")
    with _numeric():
        from .frames import janssen_representation

        g = serialize._signal(windows[0])
        seq = janssen_representation(g, g, args.lattice)
        _emit_json(args, serialize.coeffseq_to_dict(seq))
    return 0


def _cmd_figa(args) -> int:
    lat = args.lattice
    explicit = [args.f1, args.f2, args.g1, args.g2]
    if any(x is not None for x in explicit):
        if any(x is None for x in explicit):
            raise ValueError("figa needs all four of --f1 --f2 --g1 --g2, or none")
        sigs = [_read_signal(x) for x in explicit]
        _check_same_n(lat.n, *(n for n, _, _ in sigs))
        with _numeric("fundamental-identity residual"):
            from .frames import figa_check

            residual = figa_check(*map(serialize._signal, sigs), lat)
            if not math.isfinite(residual):  # an overflow inside BLAS sets no numpy flag
                raise OverflowError("the fundamental-identity residual leaves the float range"
                                    " (a sum of products overflows inside BLAS)")
            _emit_json(args, {"residual": residual})
        return 0
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    with _numeric("fundamental-identity residual"):
        import numpy as np

        from .core import random_signal
        from .frames import figa_check

        rng = np.random.default_rng(args.seed)
        worst = 0.0
        for _ in range(args.trials):
            sigs = [random_signal(lat.n, rng) for _ in range(4)]
            worst = max(worst, figa_check(*sigs, lat))
        _emit_json(args, {"max_residual": worst, "trials": args.trials, "seed": args.seed})
    return 0


def _cmd_multiwindow(args) -> int:
    windows = _read_windows(args)
    with _numeric():
        from .module import module_frame_check

        report = module_frame_check(list(map(serialize._signal, windows)), args.lattice)
        payload = serialize.module_report_to_dict(report)
        if report.is_module_frame and args.emit_windows:
            payload["tight_windows"] = [serialize.signal_to_dict(t) for t in report.tight_windows]
        _emit_json(args, payload)
    return 0


def _cmd_modnorm(args) -> int:
    if args.signal is None:
        raise ValueError("missing required --signal")
    f = _read_signal(args.signal)
    if not args.window or len(args.window) != 1:
        raise ValueError("modnorm takes exactly one --window")
    window = _read_signal(args.window[0])
    weight = _load_weight(args.weight).power(args.s)
    p, q = float(args.p), float(args.q)
    for name, e in (("p", p), ("q", q)):  # ModNormSpec's checks, before numpy loads
        if not (e >= 1.0 or e == math.inf):
            raise ValueError(f"exponent {name} must be >= 1 or infinity, got {e}")
    if _is_zero(window):
        raise ValueError("analysis window must be nonzero")
    _check_same_n(f[0], window[0])
    with _numeric("modulation norm"):
        from .modspaces import ModNormSpec, mod_norm

        spec = ModNormSpec(p, q, weight, serialize._signal(window))
        value = mod_norm(serialize._signal(f), spec)
        _emit_json(args, {"p": args.p, "q": args.q, "s": args.s, "value": value})
    return 0


def _parse_point(text: str) -> tuple[int, int]:
    pairs = _parse_gens(text)
    if len(pairs) != 1:
        raise ValueError(f"expected a single point like \"(1,0)\", got {text!r}")
    return pairs[0]


def _cmd_grs(args) -> int:
    from .weights import grs_probe

    weight = _load_weight(args.weight)
    report = grs_probe(weight, _parse_point(args.point), args.nmax)
    _emit(args, serialize.grs_report_to_csv(report))
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return 0


def _cmd_selftest(args) -> int:
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    from .selftest import run_selftest  # only this verb needs the registry

    results = run_selftest(seed=args.seed)
    width = max(len(r.name) for r in results)
    lines = [
        f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  "
        + (f"raised {r.error}" if r.error else f"residual {r.residual:.2e}  tol {r.tol:g}")
        for r in results
    ]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    _emit(args, "\n".join(lines))
    return 0 if passed == len(results) else NUMERICAL_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgabor",
        description="Gabor frames and twisted group algebras on Z_N",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    shared = {
        "--n": dict(type=int, help="group order N"),
        "--gens": dict(type=str, help='lattice generators, e.g. "(2,0),(0,3)"'),
        "--window": dict(action="append", help="signal JSON (inline or file); repeatable"),
        "--weight": dict(type=str, help="weight JSON (inline or file)"),
        "--seed": dict(type=int, default=0),
        "--trials": dict(type=int, default=100),
        "--out": dict(type=str, help="write the artifact here instead of stdout"),
    }
    lattice = ("--n", "--gens")

    def add(name, fn, help_, *options):
        """A verb with --out and only those shared options it reads."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        for option in (*options, "--out"):
            p.add_argument(option, **shared[option])
        return p

    add("adjoint", _cmd_adjoint, "adjoint (commutant) lattice", *lattice)
    add("vol", _cmd_vol, "lattice covolume N/|L|", *lattice)
    add("bounds", _cmd_bounds, "frame bounds of a Gabor system", *lattice, "--window")
    add("dual", _cmd_design, "canonical dual windows", *lattice, "--window")
    add("tight", _cmd_design, "canonical tight windows", *lattice, "--window")
    add("janssen", _cmd_janssen, "adjoint-lattice expansion of the frame operator",
        *lattice, "--window")
    figa = add("figa", _cmd_figa, "fundamental-identity residual", *lattice, "--seed", "--trials")
    figa.add_argument("--f1", type=str)
    figa.add_argument("--f2", type=str)
    figa.add_argument("--g1", type=str)
    figa.add_argument("--g2", type=str)
    multi = add("multiwindow", _cmd_multiwindow, "module-frame check for several windows",
                *lattice, "--window")
    multi.add_argument("--emit-windows", action="store_true", help="include tightened windows")
    modnorm = add("modnorm", _cmd_modnorm, "mixed weighted STFT norm", "--window", "--weight")
    modnorm.add_argument("--signal", type=str, help="signal JSON (inline or file)")
    modnorm.add_argument("--p", type=str, default="2")
    modnorm.add_argument("--q", type=str, default="2")
    modnorm.add_argument("--s", type=float, default=0.0)
    grs = add("grs", _cmd_grs, "growth-rate probe along a ray", "--weight")
    grs.add_argument("--point", type=str, default="(1,0)")
    grs.add_argument("--nmax", type=int, default=1024)
    add("selftest", _cmd_selftest, "run the full invariant suite", "--seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "gens" in vars(args):
            args.lattice = _lattice_from_args(args)
        return args.fn(args)
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, KeyError, OSError) as exc:
        # a KeyError's str is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return VALIDATION_ERROR
    except MemoryError as exc:
        print(f"error: the request is too large for the available memory ({exc})", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
