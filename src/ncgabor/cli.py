"""Command-line front end.

Verbs operate on JSON artifacts (signals, lattices, weights) given inline or
as file paths, and emit machine-readable JSON or CSV on stdout or to --out.
Exit codes: 0 success, 2 input validation error, 3 numerical failure (not a
frame, singular element, overflow, failed selftest): every ArithmeticError
a verb raises exits 3 with one error line.  Verbs run with numpy overflow and
invalid operations raising, and JSON output refuses NaN and infinity, so a
result past the float range is an overflow too, never non-JSON output.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .core import DimensionMismatch, Signal, random_signal
from .frames import (
    GaborSystem,
    canonical_dual,
    canonical_tight,
    figa_check,
    frame_bounds,
    janssen_representation,
)
from .lattice import adjoint_lattice, lattice_from_generators, volume
from .modspaces import ModNormSpec, mod_norm
from .module import module_frame_check
from .weights import Weight, grs_probe

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


def _load_signal(text: str) -> Signal:
    return serialize.signal_from_dict(_load_json_arg(text, "signal"))


def _load_weight(text: str | None) -> Weight:
    if text is None:
        return Weight.one()
    return serialize.weight_from_dict(_load_json_arg(text, "weight"))


def _lattice_from_args(args) -> "Lattice":
    if args.n is None:
        raise ValueError("missing required --n")
    if args.gens is None:
        raise ValueError("missing required --gens")
    return lattice_from_generators(args.n, _parse_gens(args.gens))


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
    adj = adjoint_lattice(_lattice_from_args(args))
    _emit_json(args, serialize.lattice_to_dict(adj))
    return 0


def _cmd_vol(args) -> int:
    lat = _lattice_from_args(args)
    _emit_json(
        args,
        {
            "n": lat.n,
            "size": lat.size,
            "vol": serialize.fraction_to_str(volume(lat)),
        },
    )
    return 0


def _system_from_args(args) -> GaborSystem:
    lat = _lattice_from_args(args)
    if not args.window:
        raise ValueError("missing required --window")
    windows = tuple(_load_signal(w) for w in args.window)
    return GaborSystem(windows, lat)


def _cmd_bounds(args) -> int:
    b = frame_bounds(_system_from_args(args))
    _emit_json(args, serialize.bounds_to_dict(b))
    return 0


def _cmd_dual(args) -> int:
    sys_ = _system_from_args(args)
    duals = canonical_dual(sys_)
    _emit_json(args, {"windows": [serialize.signal_to_dict(d) for d in duals]})
    return 0


def _cmd_tight(args) -> int:
    sys_ = _system_from_args(args)
    tight = canonical_tight(sys_)
    _emit_json(args, {"windows": [serialize.signal_to_dict(t) for t in tight]})
    return 0


def _cmd_janssen(args) -> int:
    sys_ = _system_from_args(args)
    if len(sys_.windows) != 1:
        raise ValueError("janssen takes exactly one --window")
    seq = janssen_representation(sys_.windows[0], sys_.windows[0], sys_.lattice)
    _emit_json(args, serialize.coeffseq_to_dict(seq))
    return 0


def _cmd_figa(args) -> int:
    lat = _lattice_from_args(args)
    explicit = [args.f1, args.f2, args.g1, args.g2]
    if any(x is not None for x in explicit):
        if any(x is None for x in explicit):
            raise ValueError("figa needs all four of --f1 --f2 --g1 --g2, or none")
        sigs = [_load_signal(x) for x in explicit]
        residual = figa_check(*sigs, lat)
        _emit_json(args, {"residual": residual})
        return 0
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        sigs = [random_signal(lat.n, rng) for _ in range(4)]
        worst = max(worst, figa_check(*sigs, lat))
    _emit_json(args, {"max_residual": worst, "trials": args.trials, "seed": args.seed})
    return 0


def _cmd_multiwindow(args) -> int:
    sys_ = _system_from_args(args)
    report = module_frame_check(list(sys_.windows), sys_.lattice)
    payload = serialize.module_report_to_dict(report)
    if report.is_module_frame and args.emit_windows:
        payload["tight_windows"] = [serialize.signal_to_dict(t) for t in report.tight_windows]
    _emit_json(args, payload)
    return 0


def _cmd_modnorm(args) -> int:
    if args.signal is None:
        raise ValueError("missing required --signal")
    f = _load_signal(args.signal)
    if not args.window or len(args.window) != 1:
        raise ValueError("modnorm takes exactly one --window")
    window = _load_signal(args.window[0])
    weight = _load_weight(args.weight).power(args.s)
    p = float("inf") if args.p == "inf" else float(args.p)
    q = float("inf") if args.q == "inf" else float(args.q)
    value = mod_norm(f, ModNormSpec(p, q, weight, window))
    _emit_json(args, {"p": args.p, "q": args.q, "s": args.s, "value": value})
    return 0


def _parse_point(text: str) -> tuple[int, int]:
    pairs = _parse_gens(text)
    if len(pairs) != 1:
        raise ValueError(f"expected a single point like \"(1,0)\", got {text!r}")
    return pairs[0]


def _cmd_grs(args) -> int:
    weight = _load_weight(args.weight)
    report = grs_probe(weight, _parse_point(args.point), args.nmax)
    _emit(args, serialize.grs_report_to_csv(report))
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest  # only this verb needs the registry

    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
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
    add("dual", _cmd_dual, "canonical dual windows", *lattice, "--window")
    add("tight", _cmd_tight, "canonical tight windows", *lattice, "--window")
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
        with np.errstate(over="raise", invalid="raise"):
            return args.fn(args)
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, KeyError, DimensionMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
