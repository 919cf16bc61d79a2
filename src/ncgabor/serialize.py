"""JSON and CSV schemas for every value the toolkit emits or ingests.

Complex numbers serialize as [re, im] pairs and rationals (emitted, never
read) as exact "p/q" strings, so integer data round-trip bit-exactly and
floats survive at full double precision.  Parsers raise ValueError naming
the offending field, also when a field has the wrong JSON type or the
document is not an object.
The module loads without numpy: the parsers that build arrays import it and
their types when called, so a lattice round-trips without it.  Signal JSON is
read and checked in full by _signal_parts, as a Signal would check it, before
_signal builds the array, so a front end can refuse a request without numpy.
"""
from __future__ import annotations

import io
import math
from typing import TYPE_CHECKING

from .lattice import Lattice, _group_order, lattice_from_generators

if TYPE_CHECKING:
    from fractions import Fraction

    from .algebra import CoeffSeq
    from .core import Signal
    from .frames import FrameBounds
    from .module import ModuleFrameReport
    from .weights import GrsReport, Weight

SignalParts = tuple[int, list[float], list[float]]  # a signal's order, real and imaginary samples

__all__ = [
    "signal_to_dict",
    "signal_from_dict",
    "lattice_to_dict",
    "lattice_from_dict",
    "coeffseq_to_dict",
    "coeffseq_from_dict",
    "weight_to_dict",
    "weight_from_dict",
    "bounds_to_dict",
    "module_report_to_dict",
    "fraction_to_str",
    "grs_report_to_csv",
]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_list_of(ok, length=None):
    """A test for a JSON list of items passing ok, of the given length if any."""
    return lambda x: isinstance(x, list) and length in (None, len(x)) and all(map(ok, x))


def _require(mapping, field: str, context: str, what: str = "", ok=None):
    """mapping[field]; ValueError naming the field when mapping is not a JSON
    object, lacks the field, or ok rejects the value (which is not `what`)."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{context} JSON must be an object, got {type(mapping).__name__}")
    if field not in mapping:
        raise ValueError(f"{context} JSON is missing field {field!r}")
    value = mapping[field]
    if ok is not None and not ok(value):
        raise ValueError(f"{context} field {field!r} must be {what}, got {value!r:.60}")
    return value


def _number(mapping, field: str, context: str) -> float:
    return float(_require(mapping, field, context, "a number", _is_number))


def fraction_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def signal_to_dict(f: Signal) -> dict:
    return {
        "n": f.n,
        "re": [float(x) for x in f.values.real],
        "im": [float(x) for x in f.values.imag],
    }


def _signal_parts(d: dict) -> SignalParts:
    """The order and the real and imaginary samples of signal JSON, checked
    as Signal checks them, without numpy."""
    n = _require(d, "n", "signal", "an integer", _is_int)
    re = _require(d, "re", "signal", "a list of numbers", _is_list_of(_is_number))
    im = _require(d, "im", "signal", "a list of numbers", _is_list_of(_is_number))
    if len(re) != n or len(im) != n:
        raise ValueError(f"signal field 're'/'im' length must equal n={n}")
    re, im = [float(x) for x in re], [float(x) for x in im]
    n = _group_order(n)
    if not all(map(math.isfinite, re + im)):
        raise ValueError("signal contains non-finite entries")
    return n, re, im


def _signal(parts: SignalParts) -> Signal:
    """The Signal of checked parts (_signal_parts)."""
    import numpy as np

    from .core import Signal

    n, re, im = parts
    return Signal(n, np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float))


def signal_from_dict(d: dict) -> Signal:
    return _signal(_signal_parts(d))


def lattice_to_dict(lat: Lattice) -> dict:
    return {"n": lat.n, "generators": [[p.k, p.l] for p in lat.generators]}


def lattice_from_dict(d: dict) -> Lattice:
    n = _require(d, "n", "lattice", "an integer", _is_int)
    pairs = _is_list_of(_is_list_of(_is_int, 2))
    gens = _require(d, "generators", "lattice", "a list of integer pairs", pairs)
    return lattice_from_generators(n, [tuple(g) for g in gens])


def coeffseq_to_dict(a: CoeffSeq) -> dict:
    return {
        "lattice": lattice_to_dict(a.lattice),
        "coeffs": [[float(c.real), float(c.imag)] for c in a.coeffs],
    }


def coeffseq_from_dict(d: dict) -> CoeffSeq:
    import numpy as np

    from .algebra import CoeffSeq

    lat = lattice_from_dict(_require(d, "lattice", "coefficient sequence"))
    raw = _require(d, "coeffs", "coefficient sequence", "a list of [re, im] pairs",
                   _is_list_of(_is_list_of(_is_number, 2)))
    if len(raw) != lat.size:
        raise ValueError(
            f"coefficient sequence field 'coeffs' has {len(raw)} entries, lattice has {lat.size} points"
        )
    coeffs = np.array([complex(re, im) for re, im in raw])
    return CoeffSeq(lat, coeffs)


def weight_to_dict(v: Weight) -> dict:
    if v.family == "polynomial":
        return {"family": "polynomial", "s": v.s}
    if v.family == "subexponential":
        return {"family": "subexponential", "b": v.b, "beta": v.beta}
    if v.family == "exponential":
        return {"family": "exponential", "b": v.b}
    d = {
        "family": "custom",
        "table": [[x, y, val] for (x, y), val in sorted(v.table.items())],
    }
    if v.outer_power != 1.0:
        d["power"] = v.outer_power
    return d


def weight_from_dict(d: dict) -> Weight:
    from .weights import Weight

    family = _require(d, "family", "weight")
    if family == "polynomial":
        return Weight.polynomial(_number(d, "s", "weight"))
    if family == "subexponential":
        return Weight.subexponential(_number(d, "b", "weight"), _number(d, "beta", "weight"))
    if family == "exponential":
        return Weight.exponential(_number(d, "b", "weight"))
    if family == "custom":
        entry = lambda e: _is_list_of(_is_number, 3)(e) and _is_int(e[0]) and _is_int(e[1])
        what = "a list of [x, y, value] entries"
        table = _require(d, "table", "weight", what, _is_list_of(entry))
        w = Weight.custom({(x, y): float(val) for x, y, val in table})
        power = _number(d, "power", "weight") if "power" in d else 1.0
        return w.power(power) if power != 1.0 else w
    raise ValueError(f"weight field 'family' has unknown value {family!r}")


def bounds_to_dict(b: FrameBounds) -> dict:
    return {"A": b.lower, "B": b.upper, "is_frame": b.is_frame}


def module_report_to_dict(r: ModuleFrameReport) -> dict:
    residual = None if not math.isfinite(r.residual) else float(r.residual)
    return {
        "is_module_frame": r.is_module_frame,
        "residual": residual,
        "window_count": r.window_count,
        "vol": fraction_to_str(r.vol),
    }


def grs_report_to_csv(report: GrsReport) -> str:
    out = io.StringIO()
    out.write("n,sample\n")
    for n, val in report.samples:
        out.write(f"{n},{float(val)!r}\n")
    return out.getvalue()
