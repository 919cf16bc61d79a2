"""End-to-end CLI behavior: verbs, exit codes, artifact round trips."""
import io
import json
import os
import pkgutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgabor import Signal, lattice_from_generators, random_signal, tight_multiwindow
import ncgabor
from ncgabor import frames
from ncgabor.cli import main
from ncgabor.serialize import lattice_from_dict, signal_from_dict, signal_to_dict
from conftest import traced_memory


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def delta_json(n):
    return json.dumps(signal_to_dict(Signal.delta(n)))


def window_json(re, im=None):
    return json.dumps({"n": len(re), "re": list(re), "im": list(im or [0] * len(re))})


BIG = window_json([1e160, 1e160] + [0] * 6)  # |g|^2 ~ 1e320
WIDE = window_json([1e100] * 8)  # every sample in range, their sums of products not
LATTICE = ["--n", "8", "--gens", "(2,0),(0,2)"]


def test_adjoint_example(capsys):
    code, out, _ = run(capsys, "adjoint", "--n", "12", "--gens", "(2,0),(0,3)")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 12
    assert {tuple(g) for g in payload["generators"]} == {(4, 0), (0, 6)}
    # emitted JSON re-parses to the expected lattice
    lat = lattice_from_dict(payload)
    assert lat.size == 6


def test_vol_verb(capsys):
    code, out, _ = run(capsys, "vol", "--n", "12", "--gens", "(2,0),(0,3)")
    assert code == 0
    assert json.loads(out) == {"n": 12, "size": 24, "vol": "1/2"}


@pytest.mark.parametrize(
    "verb, expect",
    [
        ("adjoint", {"n": 10**6, "generators": []}),
        ("vol", {"n": 10**6, "size": 10**12, "vol": "1/1000000"}),
    ],
)
def test_basis_verbs_allocate_no_points(capsys, verb, expect):
    # the full lattice mod 10^6 has 10^12 points; adjoint and vol need only its basis
    with traced_memory() as memory:
        code, out, err = run(capsys, verb, "--n", "1000000", "--gens", "(1,0),(0,1)")
    assert code == 0 and "Traceback" not in err
    assert json.loads(out) == expect
    assert memory.peak < 2**20


def test_bounds_translation_basis(capsys):
    code, out, _ = run(
        capsys, "bounds", "--n", "4", "--gens", "(1,0)", "--window", delta_json(4)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["A"] == pytest.approx(1.0)
    assert payload["B"] == pytest.approx(1.0)
    assert payload["is_frame"] is True


def test_figa_zero_window_exit_zero(capsys):
    zero = json.dumps(signal_to_dict(Signal.zero(6)))
    sig = delta_json(6)
    code, out, _ = run(
        capsys,
        "figa",
        "--n", "6", "--gens", "(2,0),(0,2)",
        "--f1", sig, "--f2", sig, "--g1", zero, "--g2", sig,
    )
    assert code == 0
    assert json.loads(out)["residual"] == 0.0


def test_figa_random_trials(capsys):
    code, out, _ = run(
        capsys, "figa", "--n", "8", "--gens", "(2,0),(0,2)", "--trials", "5", "--seed", "9"
    )
    assert code == 0
    assert json.loads(out)["max_residual"] < 1e-10


def test_janssen_full_lattice(capsys):
    code, out, _ = run(
        capsys, "janssen", "--n", "4", "--gens", "(1,0),(0,1)", "--window", delta_json(4)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == [[4.0, 0.0]]


def test_dual_verb_and_reconstruction(capsys, rng, tmp_path):
    g = random_signal(12, rng)
    gfile = tmp_path / "window.json"
    gfile.write_text(json.dumps(signal_to_dict(g)))
    out_file = tmp_path / "duals.json"
    code, _, _ = run(
        capsys,
        "dual",
        "--n", "12", "--gens", "(2,0),(0,3)",
        "--window", str(gfile),
        "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    dual = signal_from_dict(payload["windows"][0])
    assert dual.n == 12


def test_tight_verb_is_parseval(capsys, rng):
    from ncgabor import janssen_representation, represent

    g = random_signal(8, rng)
    code, out, _ = run(
        capsys,
        "tight",
        "--n", "8", "--gens", "(2,0),(0,2)",
        "--window", json.dumps(signal_to_dict(g)),
    )
    assert code == 0
    tight = signal_from_dict(json.loads(out)["windows"][0])
    lat = lattice_from_generators(8, [(2, 0), (0, 2)])
    S = represent(janssen_representation(tight, tight, lat)).entries
    assert np.linalg.norm(S - np.eye(8)) < 1e-9


def test_dual_rejects_non_frame(capsys):
    code, _, err = run(
        capsys, "dual", "--n", "8", "--gens", "(4,0),(0,4)", "--window", delta_json(8)
    )
    assert code == 3
    assert "lower bound" in err


def test_malformed_signal_exits_two(capsys):
    code, _, err = run(
        capsys, "bounds", "--n", "4", "--gens", "(1,0)",
        "--window", '{"n": 4, "re": [1, 0, 0, 0]}',
    )
    assert code == 2
    assert "'im'" in err


# runs main on the given argv in a fresh interpreter and reports, last on
# stderr, whether numpy, dataclasses and fractions were ever imported and
# which ncgabor modules were
IMPORT_PROBE = (
    "import json, sys\n"
    "from ncgabor.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "modules = sorted(m[8:] for m in sys.modules if m.startswith('ncgabor.'))\n"
    "loaded = {m: m in sys.modules for m in ('numpy', 'dataclasses', 'fractions')}\n"
    "print(json.dumps({**loaded, 'modules': modules}), file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)


def fresh_process(*argv, cwd=None):
    src = os.path.dirname(os.path.dirname(ncgabor.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60,
                          cwd=cwd)


@pytest.mark.parametrize(
    "argv, code, stdout, fractions",
    [
        (["adjoint", "--n", "12", "--gens", "(2,0),(0,3)"], 0,
         json.dumps({"n": 12, "generators": [[4, 0], [0, 6]]}, indent=2) + "\n", False),
        (["vol", "--n", "12", "--gens", "(2,0),(0,3)"], 0,
         json.dumps({"n": 12, "size": 24, "vol": "1/2"}, indent=2) + "\n", True),
        (["bounds", "--n", "12", "--gens", "(2,0),(0,3", "--window", delta_json(12)], 2, "", False),
    ],
    ids=["adjoint", "vol", "bad-gens"],
)
def test_lattice_verbs_and_malformed_requests_never_import_numpy(argv, code, stdout, fractions):
    done = fresh_process("-c", IMPORT_PROBE, *argv)
    *lines, last = done.stderr.splitlines()
    assert (done.returncode, done.stdout) == (code, stdout)
    assert json.loads(last) == {"numpy": False, "dataclasses": False, "fractions": fractions,
                                "modules": ["cli", "lattice", "serialize"]}
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: malformed generator list")


# one request for each input a verb checks before numpy loads, with today's
# message; five.json is a file that holds the JSON number 5
MODNORM = ["modnorm", "--signal", delta_json(4), "--window", delta_json(4)]
ZERO = window_json([0] * 8)
REJECTIONS = {
    "gens": (["adjoint", "--n", "4", "--gens", "garbage"],
             'malformed generator list \'garbage\', expected e.g. "(2,0),(0,3)"'),
    "signal-file": (["bounds", *LATTICE, "--window", "no-such-file.json"],
                    "signal file 'no-such-file.json' does not exist"),
    "signal-file-number": (["bounds", *LATTICE, "--window", "five.json"],
                           "signal JSON must be an object, got int"),
    "signal-field": (["bounds", *LATTICE, "--window", '{"n": 8, "re": [1, 0]}'],
                     "signal JSON is missing field 'im'"),
    "signal-type": (["bounds", *LATTICE, "--window", '{"n":8,"re":5,"im":5}'],
                    "signal field 're' must be a list of numbers, got 5"),
    "signal-length": (["tight", *LATTICE, "--window", '{"n": 8, "re": [1, 1, 1], "im": [0, 0, 0]}'],
                      "signal field 're'/'im' length must equal n=8"),
    "signal-non-finite": (["bounds", *LATTICE, "--window", window_json([1] * 7 + [float("nan")])],
                          "signal contains non-finite entries"),
    "window-order": (["dual", *LATTICE, "--window", window_json([1] * 7)], "group orders differ: (8, 7)"),
    "zero-windows": (["multiwindow", *LATTICE, "--window", ZERO, "--window", ZERO],
                     "at least one window must be nonzero"),
    "janssen-count": (["janssen", *LATTICE, "--window", delta_json(8), "--window", delta_json(8)],
                      "janssen takes exactly one --window"),
    "figa-explicit": (["figa", *LATTICE, "--f1", delta_json(8), "--g2", delta_json(8)],
                      "figa needs all four of --f1 --f2 --g1 --g2, or none"),
    "figa-order": (["figa", *LATTICE, *(a for flag in ("--f1", "--f2", "--g1", "--g2")
                                        for a in (flag, delta_json(6)))],
                   "group orders differ: (8, 6, 6, 6, 6)"),
    "trials": (["figa", *LATTICE, "--trials", "0"], "--trials must be >= 1, got 0"),
    "trials-negative": (["figa", *LATTICE, "--trials", "-5"], "--trials must be >= 1, got -5"),
    "modnorm-count": ([*MODNORM, "--window", delta_json(4)], "modnorm takes exactly one --window"),
    "modnorm-order": (["modnorm", "--signal", delta_json(4), "--window", delta_json(6)],
                      "group orders differ: (4, 6)"),
    "modnorm-zero-window": (["modnorm", "--signal", delta_json(4), "--window", window_json([0] * 4)],
                            "analysis window must be nonzero"),
    "weight-field": ([*MODNORM, "--weight", '{"family":"polynomial"}'], "weight JSON is missing field 's'"),
    "weight-parameter": ([*MODNORM, "--weight", '{"family":"subexponential","b":1,"beta":2}'],
                         "subexponential beta must lie in (0, 1)"),
    "weight-s-nan": ([*MODNORM, "--weight", '{"family":"polynomial","s":NaN}'],
                     "weight parameter s must be finite"),
    "p": ([*MODNORM, "--p", "0.5"], "exponent p must be >= 1 or infinity, got 0.5"),
    "q": ([*MODNORM, "--q", "x"], "could not convert string to float: 'x'"),
    "s": ([*MODNORM, "--s", "-1"], "weight powers must be finite and >= 0"),
    "s-nan": ([*MODNORM, "--s", "nan"], "weight powers must be finite and >= 0"),
    "s-inf": ([*MODNORM, "--s", "inf"], "weight powers must be finite and >= 0"),
    "weight-s-null": (["grs", "--weight", '{"family":"polynomial","s":null}'],
                      "weight field 's' must be a number, got None"),
    "weight-s-list": (["grs", "--weight", '{"family":"polynomial","s":[1]}'],
                      "weight field 's' must be a number, got [1]"),
    "weight-b-nan": (["grs", "--weight", '{"family":"exponential","b":NaN}'],
                     "weight parameter b must be finite"),
    "weight-beta-inf": (["grs", "--weight", '{"family":"subexponential","b":1,"beta":Infinity}'],
                        "weight parameter beta must be finite"),
    "weight-table-number": (["grs", "--weight", '{"family":"custom","table":5}'],
                            "weight field 'table' must be a list of [x, y, value] entries, got 5"),
    "weight-table-entry-number": (["grs", "--weight", '{"family":"custom","table":[5]}'],
                                  "weight field 'table' must be a list of [x, y, value] entries, got [5]"),
    "weight-table-inf": (["grs", "--weight", '{"family":"custom","table":[[0,0,1],[1,0,Infinity]]}'],
                         "weight value at (1,0) must be positive and finite"),
    "weight-power-nan": (["grs", "--weight", '{"family":"custom","table":[[0,0,1],[1,0,2]],"power":NaN}'],
                         "weight powers must be finite and >= 0"),
    "weight-file-number": (["grs", "--weight", "five.json"], "weight JSON must be an object, got int"),
    "seed": (["selftest", "--seed", "-1"], "--seed must be >= 0"),
}


@pytest.mark.parametrize("argv, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_rejected_requests_never_import_numpy(tmp_path, argv, message):
    (tmp_path / "five.json").write_text("5")
    done = fresh_process("-c", IMPORT_PROBE, *argv, cwd=tmp_path)
    *lines, last = done.stderr.splitlines()
    assert (done.returncode, done.stdout, lines) == (2, "", [f"error: {message}"])
    assert json.loads(last)["numpy"] is False


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["grs", "--weight", '{"family":"polynomial","s":1}', "--nmax", "16"], ["weights"]),
        (["modnorm", "--signal", delta_json(4), "--window", delta_json(4)],
         ["core", "modspaces", "weights"]),
        (["bounds", "--n", "4", "--gens", "(1,0)", "--window", delta_json(4)],
         ["algebra", "core", "frames"]),
        (["figa", "--n", "4", "--gens", "(1,0)", "--trials", "1"], ["algebra", "core", "frames"]),
        (["multiwindow", *LATTICE, "--window", delta_json(8), "--window", delta_json(8)],
         ["algebra", "core", "frames", "module"]),
    ],
    ids=["grs", "modnorm", "bounds", "figa", "multiwindow"],
)
def test_each_verb_imports_only_the_modules_it_computes_with(argv, modules):
    # no verb generates code at import; only multiwindow prints a covolume
    done = fresh_process("-c", IMPORT_PROBE, *argv)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stderr.splitlines()[-1])
    # grs evaluates its weight at one point at a time, with math
    assert loaded == {"numpy": modules != ["weights"], "dataclasses": False,
                      "fractions": "module" in modules,
                      "modules": sorted(["cli", "lattice", "serialize", *modules])}


def test_importing_the_package_loads_no_numpy():
    # resolving a lattice name imports lattice.py, which needs no numpy either
    done = fresh_process("-c", "import sys, ncgabor; f = ncgabor.volume; print('numpy' in sys.modules, f.__name__)")
    assert (done.returncode, done.stdout) == (0, "False volume\n")


def test_importing_every_module_loads_no_dataclasses_or_fractions():
    names = sorted(m.name for m in pkgutil.iter_modules(ncgabor.__path__))
    assert {"cli", "selftest", "serialize"} <= set(names)
    probe = (f"import sys, {', '.join('ncgabor.' + name for name in names)}\n"
             "print('dataclasses' in sys.modules, 'fractions' in sys.modules)")
    done = fresh_process("-c", probe)
    assert (done.returncode, done.stdout) == (0, "False False\n"), done.stderr


def test_multiwindow_verb(capsys, rng):
    ws = [random_signal(8, rng), random_signal(8, rng)]
    code, out, _ = run(
        capsys,
        "multiwindow",
        "--n", "8", "--gens", "(4,0),(0,4)",
        "--window", json.dumps(signal_to_dict(ws[0])),
        "--window", json.dumps(signal_to_dict(ws[1])),
        "--emit-windows",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["is_module_frame"] is True
    assert payload["window_count"] == 2
    assert payload["vol"] == "2/1"
    assert payload["residual"] < 1e-9
    # the windows the check tightened, emitted as they are
    expect = tight_multiwindow(ws, lattice_from_generators(8, [(4, 0), (0, 4)]))
    emitted = [signal_from_dict(d).values for d in payload["tight_windows"]]
    assert all(np.array_equal(e, t.values) for e, t in zip(emitted, expect, strict=True))


def test_multiwindow_single_window_not_frame(capsys, rng):
    g = json.dumps(signal_to_dict(random_signal(8, rng)))
    code, out, _ = run(
        capsys, "multiwindow", "--n", "8", "--gens", "(4,0),(0,4)", "--window", g
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["is_module_frame"] is False
    assert payload["residual"] is None


def test_modnorm_delta_case(capsys):
    code, out, _ = run(
        capsys,
        "modnorm",
        "--signal", delta_json(4), "--window", delta_json(4),
        "--p", "1", "--q", "1", "--s", "0",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(4.0)


def test_modnorm_infinite_exponent(capsys):
    code, out, _ = run(
        capsys,
        "modnorm",
        "--signal", delta_json(4), "--window", delta_json(4),
        "--p", "inf", "--q", "1", "--s", "0",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(4.0)


def test_grs_verb_csv_and_verdict(capsys):
    code, out, err = run(
        capsys,
        "grs",
        "--weight", '{"family": "exponential", "b": 1.0}',
        "--point", "(1,0)", "--nmax", "64",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,sample"
    for ln in lines[1:]:
        _, val = ln.split(",")
        assert float(val) == pytest.approx(np.e, rel=1e-12)
    assert "violates-GRS" in err


def test_output_to_file_round_trips(capsys, tmp_path):
    out_file = tmp_path / "lattice.json"
    code, out, _ = run(
        capsys, "adjoint", "--n", "12", "--gens", "(2,0),(0,3)", "--out", str(out_file)
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["n"] == 12


def test_selftest_smoke(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "1")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_selftest_failure_contract(capsys, monkeypatch):
    from ncgabor import selftest

    def boom(rng):
        raise ZeroDivisionError("boom")

    registry = (
        ("passes", 1e-12, lambda rng: [0.0]),
        ("fails", 0, lambda rng: [1]),
        ("raises", 0, boom),
        ("nan", 1e-12, lambda rng: [0.0, np.nan, 0.0]),
        ("empty", 1e-12, lambda rng: []),
    )
    monkeypatch.setattr(selftest, "REGISTRY", registry)
    code, out, err = run(capsys, "selftest")
    assert code == 3
    fails = [line for line in out.splitlines() if "FAIL" in line]
    assert len(fails) == 4
    assert fails[0].startswith("fails ") and "residual 1.00e+00" in fails[0]
    assert fails[1].startswith("raises ") and "raised ZeroDivisionError: boom" in fails[1]
    assert fails[2].startswith("nan ") and "residual nan" in fails[2]
    assert fails[3].startswith("empty ") and "raised ValueError: the entry checked nothing" in fails[3]
    assert out.splitlines()[-1] == "1/5 checks passed"
    assert "Traceback" not in out + err


def test_selftest_rejects_negative_seed(capsys):
    code, out, err = run(capsys, "selftest", "--seed", "-1")
    assert code == 2
    assert out == "" and err.startswith("error:") and "--seed" in err


@pytest.mark.parametrize("trials", ["-5", "0"])
def test_figa_rejects_no_trials(capsys, trials):
    code, out, err = run(capsys, "figa", "--n", "8", "--gens", "(2,0),(0,2)", "--trials", trials)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--trials" in err
    assert len(err.strip().splitlines()) == 1

def test_modnorm_weight_overflow_exits_three(capsys, rng, tmp_path):
    path = tmp_path / "signal.json"
    path.write_text(json.dumps(signal_to_dict(random_signal(16, rng))))
    code, out, err = run(
        capsys,
        "modnorm", "--signal", str(path), "--window", str(path),
        "--weight", '{"family":"exponential","b":1000}', "--s", "1",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["bounds", "dual"])
def test_frame_element_overflow_exits_three(capsys, verb):
    # a finite window whose frame element leaves the float range;
    # pytest turns any RuntimeWarning into an error, so this also asserts none is raised
    code, out, err = run(capsys, verb, *LATTICE, "--window", BIG)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "float range" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["figa", *LATTICE, "--f1", BIG, "--f2", BIG, "--g1", delta_json(8), "--g2", delta_json(8)],
        ["modnorm", "--signal", BIG, "--window", BIG],
        # overflows inside a BLAS dot product, which sets no numpy flag
        ["figa", *LATTICE, "--f1", WIDE, "--f2", WIDE, "--g1", WIDE, "--g2", WIDE],
        # a log-weight past the float range, evaluated without numpy
        ["grs", "--weight", '{"family":"exponential","b":1e308}', "--point", "(5,0)"],
        ["grs", "--weight", '{"family":"polynomial","s":1e308}', "--point", "(5,0)"],
        # a finite log-weight whose sample exp(log v) is past the float range
        ["grs", "--weight", '{"family":"exponential","b":1000}'],
    ],
    ids=["figa", "modnorm", "figa-blas", "grs-exponential", "grs-polynomial", "grs-sample"],
)
def test_results_past_the_float_range_exit_three(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    if argv[0] == "grs":  # the probe names the weight that overflows
        assert err == f"error: weight {json.loads(argv[2])['family']} exceeds the float range\n"
    elif WIDE in argv:  # the CLI names the overflow that BLAS leaves unflagged
        assert err == ("error: the fundamental-identity residual leaves the float range"
                       " (a sum of products overflows inside BLAS)\n")
    else:  # numpy's overflow, named by the verb's quantity
        quantity = {"figa": "fundamental-identity residual", "modnorm": "modulation norm"}[argv[0]]
        assert err == f"error: the {quantity} leaves the float range (overflow encountered in multiply)\n"


CUSTOM = '{"family":"custom","table":[[0,0,1],[1,0,2]]}'  # no entry at (0,1)


@pytest.mark.parametrize(
    "argv",
    [
        ["modnorm", "--signal", delta_json(4), "--window", delta_json(4), "--weight", CUSTOM],
        ["grs", "--weight", CUSTOM, "--point", "(0,1)"],
    ],
    ids=["modnorm", "grs"],
)
def test_custom_weight_without_an_entry_exits_two_with_its_message(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: custom weight has no entry at (0,1)\n")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


_finite = st.floats(min_value=-1e200, max_value=1e200, allow_nan=False, allow_infinity=False)
_wrong = st.sampled_from([None, 5, [5], "5"])  # null, number, list and string
_gens = st.lists(st.tuples(st.integers(-30, 50), st.integers(-30, 50)), max_size=3).map(
    lambda pairs: ",".join(f"({k},{l})" for k, l in pairs)
)
_WEIGHTS = (
    {"family": "polynomial", "s": 2},
    {"family": "subexponential", "b": 1, "beta": 0.5},
    {"family": "exponential", "b": 1},
    {"family": "custom", "table": [[0, 0, 1], [1, 0, 2], [0, 1, 2]]},
)


def _spoiled(draw, doc):
    """doc as JSON, one in four times with one field replaced by a wrong-typed value."""
    doc = dict(doc)
    if draw(st.integers(0, 3)) == 0:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_wrong)
    return json.dumps(doc)


@st.composite
def _window(draw, n):
    values = draw(st.lists(draw(st.sampled_from([st.floats(-4, 4), _finite])),
                           min_size=2 * n, max_size=2 * n))
    return _spoiled(draw, {"n": n, "re": values[:n], "im": values[n:]})


@st.composite
def _requests(draw):
    n = draw(st.integers(2, 24))
    verb = draw(st.sampled_from(
        ["adjoint", "vol", "bounds", "dual", "tight", "janssen", "multiwindow", "figa", "modnorm"]
    ))
    lattice = [verb, "--n", str(n), "--gens", draw(_gens)]
    if verb in ("adjoint", "vol"):
        return lattice
    if verb == "figa":
        if draw(st.booleans()):
            return [*lattice, "--trials", "2"]
        return lattice + [a for flag in ("--f1", "--f2", "--g1", "--g2")
                          for a in (flag, draw(_window(n)))]
    if verb == "modnorm":
        return [verb, "--signal", draw(_window(n)), "--window", draw(_window(n)),
                "--weight", _spoiled(draw, draw(st.sampled_from(_WEIGHTS)))]
    count = 2 if verb == "multiwindow" else 1
    return lattice + [a for _ in range(count) for a in ("--window", draw(_window(n)))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_requests())
def test_cli_contract_on_any_finite_windows(argv):
    # over N in 2..24, 0-3 generators of any sign and size, finite windows and
    # wrong-typed JSON fields: exit 0 with strict JSON, or exit 2 or 3 with
    # one error line and no output
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in out + err
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["grs", "--weight", '{"family":"polynomial","s":null}'],
        ["grs", "--weight", '{"family":"polynomial","s":[1]}'],
        ["grs", "--weight", '{"family":"custom","table":5}'],
        ["grs", "--weight", '{"family":"custom","table":[5]}'],
        ["bounds", "--n", "4", "--gens", "(1,0)", "--window", '{"n":4,"re":5,"im":5}'],
        ["grs", "--weight", "FIVE"],
        ["bounds", "--n", "4", "--gens", "(1,0)", "--window", "FIVE"],
    ],
    ids=["s-null", "s-list", "table-number", "table-entry-number", "re-number",
         "weight-file-number", "window-file-number"],
)
def test_malformed_json_fields_exit_two(capsys, tmp_path, argv):
    # FIVE stands for a file that holds the JSON number 5
    five = tmp_path / "five.json"
    five.write_text("5")
    code, out, err = run(capsys, *(str(five) if a == "FIVE" else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_allocation_failure_exits_two(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(frames, "figa_check", exhausted)
    code, out, err = run(capsys, "figa", "--n", "8", "--gens", "(1,0),(0,1)", "--trials", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "too large" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "4", "--gens", "(1,0)", "--window", delta_json(4), "--reference"],
        ["selftest", "--threads", "2"],
        ["vol", "--n", "8", "--gens", "(2,0),(0,2)", "--window", "missing.json",
         "--trials", "-5", "--seed", "-3"],
        ["grs", "--n", "-1", "--gens", "garbage"],
        ["multiwindow", "--n", "8", "--gens", "(4,0),(0,4)", "--window", delta_json(8),
         "--seed", "1"],
    ],
    ids=["reference", "threads", "vol-unread-options", "grs-lattice", "multiwindow-seed"],
)
def test_removed_options_rejected_by_argparse(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
