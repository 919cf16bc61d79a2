"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest -q perfbench/checks.py

The file name keeps these out of the repository's default pytest run: they
start benchmark subprocesses and take about half a minute.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Child, CliCold, FrameDesign, Mismatch  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
            "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_benchmark_metric_is_reported(workload, trace):
    result = bench(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    assert {m["name"] for m in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_every_op_is_scaled_once_by_the_reference_timings_around_it():
    tally = run.Tally(latencies=[0.1, 0.2])
    tally.scale_pending(2.0)
    tally.latencies.append(0.3)
    assert tally.pending_s == 0.3
    tally.scale_pending(0.5)
    assert tally.scaled == pytest.approx([0.2, 0.4, 0.15])
    reference = run.Reference.__new__(run.Reference)
    reference.nominal_s = 0.005
    assert reference.scale(0.004, 0.006) == pytest.approx(1.0)
    assert reference.scale(0.010, 0.010) == pytest.approx(0.5)  # a host at half speed: times halve


def test_perturbed_dual_window_is_counted_as_failed():
    wl = FrameDesign(seed=3, tiny=True)
    run.timed_setup(wl, 3)
    exact = wl.nc.frames.canonical_dual

    def perturbed(system, **kwargs):
        duals = exact(system, **kwargs)
        return [type(d)(d.n, d.values * (1 + 1e-6)) for d in duals]

    wl.nc.frames.canonical_dual = perturbed
    try:
        (tally,), _ = run.measure(wl, 3, 0.0)
    finally:
        wl.nc.frames.canonical_dual = exact
    designs = len(wl.schedule)
    assert tally.failed == designs * tally.cycles
    assert tally.verified == len(tally.latencies) - designs * tally.cycles  # multiwindow and NotAFrame ops still pass


def test_invalid_cli_request_succeeds_only_by_exiting_2():
    wl = CliCold(seed=4, tiny=True)
    wl.setup(spans.plain_call)
    rng = np.random.default_rng(4)
    for kind in ("bad-gens", "bad-window"):
        op = wl._op(kind, rng)
        tally = run.Tally()
        run.run_op(op, spans.plain_call, tally, None)
        assert (tally.verified, tally.failed) == (1, 0), kind
        op.check(Child(2, "", "error: malformed input\n", 1.0))
        for wrong in (Child(0, "{}", "", 1.0), Child(1, "", "error: x\n", 1.0),
                      Child(2, "", "Traceback (most recent call last):\nerror: x\n", 1.0)):
            with pytest.raises(Mismatch):
                op.check(wrong)


def test_bare_benchmark_directory_fails_without_a_result():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        (bare / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        argv = [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=bare, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert "correct" not in done.stdout
