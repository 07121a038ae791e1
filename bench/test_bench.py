"""Tests of the benchmark's own code.  Run with ``python3 -m pytest bench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracing import Tracer, untraced
from workloads import mm

BENCH = Path(__file__).resolve().parent


def _first_cycle(make, seed):
    wl = make(seed)
    return [wl.next_input() for _ in range(wl.cycle)]


def _arrays(inputs):
    out = []
    for inp in inputs:
        target = inp.get("target", inp)
        out += [np.asarray(target[key]) for key in ("c", "d", "gamma", "b") if key in target]
    return out


@pytest.mark.parametrize("make", [
    workloads.Census,
    workloads.SynthPrepare,
    lambda seed: workloads.CliRoundtrip(seed, Path("unused")),
], ids=["census", "synth_prepare", "cli_roundtrip"])
def test_generators_are_deterministic_per_seed(make):
    first, again, other = (_arrays(_first_cycle(make, s)) for s in (5, 5, 6))
    assert all(np.array_equal(x, y) for x, y in zip(first, again))
    assert not all(np.array_equal(x, y) for x, y in zip(first, other))


def test_generated_inputs_are_physical_and_feasible():
    rng = np.random.default_rng(0)
    for n in (4, 8, 48):
        c, d = workloads.feasible_pair(rng, n)
        assert np.all(d >= 1.0) and np.all(np.diff(c) >= 0)
        assert np.min(workloads.pair_slacks(c, d)) > 0
        b = workloads.pure_excitations(rng, n)
        assert np.all(b >= 0) and b[-1] <= np.sum(b[:-1])
        gamma, d_in = workloads.random_state(rng, n)
        assert np.allclose(workloads.symplectic_spectrum(gamma), d_in, atol=1e-9)


def test_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def _flip_off_diagonal(matrix):
    """Flip the sign of the largest off-diagonal entry (and its mirror)."""
    out = np.array(matrix, dtype=float)
    off = np.abs(np.triu(out, k=1))
    i, j = np.unravel_index(np.argmax(off), off.shape)
    out[i, j], out[j, i] = -out[i, j], -out[j, i]
    return out


def test_corrupted_census_result_fails():
    wl = workloads.Census(3)
    for _ in range(3):
        wl.next_input()
    inp = wl.next_input()  # n = 5
    res = wl.run(inp, untraced)
    assert all(chk.ok for chk in wl.check(inp, res))
    res["S"] = _flip_off_diagonal(res["S"])
    failed = [chk.health for chk in wl.check(inp, res) if not chk.ok]
    assert failed == ["health.williamson_defect_max", "health.euler_defect_max"]


@pytest.mark.parametrize("key", ["gamma", "circuit_replay", "trace_replay"])
def test_corrupted_synthesis_result_fails(key):
    wl = workloads.SynthPrepare(3)
    inp = wl.next_input()  # n = 8, mixed
    res = wl.run(inp, untraced)
    assert all(chk.ok for chk in wl.check(inp, res))
    res[key] = _flip_off_diagonal(res[key])
    assert not all(chk.ok for chk in wl.check(inp, res))


def test_corrupted_cli_output_fails(tmp_path):
    wl = workloads.CliRoundtrip(3, tmp_path)
    inp = {"step": "replay", "target": wl._target(np.random.default_rng(1), 4, "t")}
    t = inp["target"]
    gamma = mm.synthesize(t["c"], t["d"]).final_matrix.entries
    ok = {"returncode": 0, "record": {"command": "replay"}, "maxrss_kib": 1}
    for matrix, expected in ((gamma, True), (_flip_off_diagonal(gamma), False)):
        t["replayed"].write_text("n 4\nordering xpxp\nkind covariance\n"
                                 + "\n".join(" ".join(f"{v:.17g}" for v in row) for row in matrix))
        assert all(chk.ok for chk in wl.check(inp, ok)) is expected
    crashed = {"returncode": 3, "record": None, "maxrss_kib": 1}
    assert not all(chk.ok for chk in wl.check(inp, crashed))


def test_failures_are_counted_never_dropped():
    wl = workloads.Census(4)
    outcome = run.Outcome()
    inp = wl.next_input()
    res = wl.run(inp, untraced)
    assert outcome.record(wl, inp, res, None)
    res["S"] = _flip_off_diagonal(res["S"])
    assert not outcome.record(wl, inp, res, None)
    assert not outcome.record(wl, inp, None, "NumericalFailure: boom")
    assert (outcome.attempted, outcome.failed) == (3, 2)
    assert outcome.health["health.williamson_defect_max"] > workloads.RECON


def test_tracer_nests_library_calls_and_restores_them():
    wl = workloads.SynthPrepare(3)
    inp = wl.next_input()
    tracer = Tracer()
    with tracer.intercept():
        wl.run(inp, tracer.call)
    assert mm.synthesis.williamson is mm.williamson
    parents = {(name, parent) for _, name, parent, _, _ in tracer.spans}
    assert ("core.williamson", "synthesis.synthesize") in parents
    assert ("core.euler_decompose", "circuits.circuit_from_mixed") in parents
    metrics = tracer.call_metrics()
    assert metrics["synthesis.synthesize.calls"] == 1
    assert metrics["synthesis.trace_steps"] > 0 and metrics["circuits.passive_ops"] > 0


def test_hd_quantile_matches_order_statistics_on_smooth_data():
    x = np.random.default_rng(0).normal(size=2001)
    assert run.hd_quantile(x, 0.5) == pytest.approx(np.median(x), abs=0.03)
    assert run.hd_quantile(x, 0.9) == pytest.approx(np.percentile(x, 90), abs=0.05)


def test_throughput_is_one_cycle_at_median_class_cost():
    # two classes of 10 ms and 90 ms: a cycle of two instances takes 100 ms
    positions = [0, 1] * 9
    walls = [(10 + 80 * pos) * 10**6 for pos in positions]
    assert run.latency_summary(positions, walls)["throughput_per_s"] == pytest.approx(20.0)
    # a slowed stretch covering a third of the run leaves it in place
    slowed = walls[:12] + [3 * wall for wall in walls[12:]]
    assert run.latency_summary(positions, slowed)["throughput_per_s"] == pytest.approx(20.0)


def test_census_run_prints_result_line():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "census",
                          "--seed", "1", "--seconds", "0.5", "--trace", "0"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "census",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_run_that_times_too_few_instances_fails(monkeypatch, capsys):
    monkeypatch.setattr(run, "MAX_MEASURE_S", 0.001)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.main(["--workload", "census", "--seed", "1", "--seconds", "0.001"]) == 1
    out = capsys.readouterr()
    assert "instances timed" in out.err and '"metrics"' not in out.out
