import importlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from modematch import random_symplectic, sample_feasible_pair
from modematch.cli import main
from modematch.core import interleaved_diagonal
from modematch.errors import Infeasible, NumericalFailure
from modematch.matrixio import read_matrix, write_matrix


def _reject_constant(constant):
    raise ValueError(f"record is not strict JSON: {constant}")


def run_cli(capsys, *argv):
    """Exit code and last record of a CLI call; the record must be strict
    JSON, with no NaN or Infinity."""
    code = main(list(argv))
    captured = capsys.readouterr()
    record = json.loads(captured.out.strip().splitlines()[-1], parse_constant=_reject_constant)
    return code, record


BIG_C = "27423685.726860113,54752607.93759835,64934905.95098197"
BIG_D = "11079553.538331844,23347944.6194696,33530242.632853225"


class TestCheck:
    def test_feasible_pair(self, capsys):
        code, record = run_cli(capsys, "check", "--c", "1.5,1.5", "--d", "1,2")
        assert code == 0
        assert record["feasible"] is True
        slacks = {s["constraint"]: s["slack"] for s in record["slacks"]}
        assert slacks["partial_sum(1)"] == pytest.approx(0.5)
        assert slacks["last_condition"] == pytest.approx(1.0)

    def test_pure_infeasible(self, capsys):
        code, record = run_cli(capsys, "check", "--pure", "--b", "1,1,3")
        assert code == 1
        assert record["feasible"] is False
        assert record["slacks"][0]["constraint"] == "last_condition(j=2)"

    def test_scale_of_a_large_pair_is_its_largest_value(self, capsys):
        # a pair of unit size times 2^23: the tolerance is relative to its largest c
        code, record = run_cli(capsys, "check", "--c", BIG_C, "--d", BIG_D)
        assert code == 0 and record["feasible"]
        assert record["scale"] == 64934905.95098197
        assert record["tolerances"]["tol_ineq"] == 1e-9

    def test_unsorted_input_is_sorted_internally(self, capsys):
        code, record = run_cli(capsys, "check", "--c", "1.5,1.5", "--d", "2,1")
        assert code == 0

    def test_matrix_self_check(self, capsys, tmp_path):
        path = tmp_path / "g.mat"
        code, _ = run_cli(capsys, "synth", "--c", "2,2", "--d", "1,1",
                          "--out", str(path))
        assert code == 0
        code, record = run_cli(capsys, "check", "--matrix", str(path))
        assert code == 0 and record["feasible"]

    def test_squeezed_vacuum_matrix(self, capsys, tmp_path):
        # smallest eigenvalue 1e-12: positive, whatever its units
        path = tmp_path / "g.mat"
        write_matrix(path, np.diag([1.0, 1.0, 1e-12, 1e12]), "covariance")
        code, record = run_cli(capsys, "check", "--matrix", str(path))
        assert code == 0 and record["feasible"]

    def test_digests_are_pinned(self, capsys, tmp_path):
        # values from the hashlib/numpy digest: the builtin SHA-256 and the
        # float64 bytes of a list must reproduce them
        path = tmp_path / "g.mat"
        write_matrix(path, np.array([[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0],
                                     [0.0, 0.0, 1.5, 0.0], [0.0, 0.0, 0.0, 1.5]]), "covariance")
        cases = [
            (["check", "--matrix", str(path)], "8841df46f97cba0b"),
            (["check", "--c", "2,1.5,1.25", "--d", "1,1.5,2"], "c24d3ed9187b7516"),
            (["check", "--pure", "--b", "0.25,1,0.5"], "3d467ccf8b092a46"),
            (["entropy", "--c", "1.5,2"], "118310c223de3961"),
        ]
        for argv, digest in cases:
            assert run_cli(capsys, *argv)[1]["digest"] == digest

    def test_malformed_vector(self, capsys):
        code, record = run_cli(capsys, "check", "--c", "1,x", "--d", "1,1")
        assert code == 2
        assert "error" in record

    def test_missing_arguments(self, capsys):
        code, _ = run_cli(capsys, "check", "--c", "1,2")
        assert code == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_vector_is_an_input_error(self, capsys, token):
        # "--c=-inf,1" keeps argparse from reading the value as an option
        code, record = run_cli(capsys, "check", f"--c={token},1", "--d", "1,1")
        assert code == 2
        assert "non-finite" in record["error"]
        code, _ = run_cli(capsys, "check", "--pure", f"--b={token},1")
        assert code == 2
        code, _ = run_cli(capsys, "entropy", f"--c={token},2")
        assert code == 2

    # b_max equals the sum of the others, so the pure pair is feasible, but
    # a gate that doubles an infinite total would report a NaN slack
    @pytest.mark.parametrize("argv, vector", [
        (("--pure", "--b", "1e308,1e308"), "b"),
        (("--c", "1e308,1e308", "--d", "1,1"), "c"),
    ], ids=["pure", "mixed"])
    def test_overflowing_total_is_an_input_error(self, capsys, argv, vector):
        code, record = run_cli(capsys, "check", *argv)
        assert code == 2
        assert record["error"].startswith(f"{vector} is too large")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_file_is_an_input_error(self, capsys, tmp_path, value):
        path = tmp_path / "g.mat"
        bad = np.eye(4)
        bad[1, 2] = bad[2, 1] = value
        # written by hand: the library's writer refuses a non-finite matrix
        rows = [" ".join(f"{v:.17g}" for v in row) for row in bad]
        path.write_text("\n".join(["n 2", "ordering xpxp", "kind covariance", *rows]) + "\n")
        code, record = run_cli(capsys, "check", "--matrix", str(path))
        assert code == 2
        assert "non-finite" in record["error"]


class TestSynth:
    def test_writes_matrix_and_trace(self, capsys, tmp_path):
        out = tmp_path / "g.mat"
        trace_path = tmp_path / "g.trace"
        code, record = run_cli(capsys, "synth", "--c", "2,2", "--d", "1,1",
                               "--out", str(out), "--emit-trace", str(trace_path))
        assert code == 0
        values = read_matrix(out).values
        expected = np.array([
            [2, 0, np.sqrt(3), 0],
            [0, 2, 0, -np.sqrt(3)],
            [np.sqrt(3), 0, 2, 0],
            [0, -np.sqrt(3), 0, 2],
        ])
        np.testing.assert_allclose(values, expected, atol=1e-12)
        steps = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert steps[0]["step"] == "direct_sum"
        assert steps[1]["step"] == "two_mode"

    def test_trace_of_many_modes_stays_small(self, capsys, tmp_path):
        # a seed record plus at most n - 1 gates of 16 numbers each
        n = 64
        c, d = sample_feasible_pair(np.random.default_rng(5), n)
        trace_path = tmp_path / "big.trace"
        code, _ = run_cli(capsys, "synth", "--c", ",".join(f"{v:.17g}" for v in c),
                          "--d", ",".join(f"{v:.17g}" for v in d),
                          "--out", str(tmp_path / "big.mat"), "--emit-trace", str(trace_path))
        assert code == 0
        assert trace_path.stat().st_size < 100_000
        steps = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert steps[0]["step"] == "direct_sum" and len(steps[0]["values"]) == n
        assert 1 <= len(steps) <= n
        for step in steps[1:]:
            assert step["step"] == "two_mode" and len(step["modes"]) == 2
            assert np.array(step["transform"], dtype=float).shape == (4, 4)

    def test_large_pair_passes_its_relative_self_check(self, capsys, tmp_path):
        code, record = run_cli(capsys, "synth", "--c", BIG_C, "--d", BIG_D,
                               "--out", str(tmp_path / "big.mat"))
        assert code == 0
        assert record["verification_defect"] <= 1e-8

    def test_check_and_synth_agree_near_the_threshold(self, capsys, tmp_path):
        # partial_sum(1) is half a threshold below zero: check accepts the pair,
        # so synth must build it and pass its self-check
        c, d = "1.9995,3.0005,1e6", "2,3,1e6"
        code, record = run_cli(capsys, "check", "--c", c, "--d", d)
        assert code == 0 and record["feasible"]
        code, record = run_cli(capsys, "synth", "--c", c, "--d", d,
                               "--out", str(tmp_path / "near.mat"))
        assert code == 0
        assert record["verification_defect"] <= 1e-8

    def test_identity_case(self, capsys, tmp_path):
        out = tmp_path / "id.mat"
        code, _ = run_cli(capsys, "synth", "--c", "1,1", "--d", "1,1", "--out", str(out))
        assert code == 0
        assert np.array_equal(read_matrix(out).values, np.eye(4))

    def test_infeasible(self, capsys, tmp_path):
        code, record = run_cli(capsys, "synth", "--c", "1,5", "--d", "1,1",
                               "--out", str(tmp_path / "no.mat"))
        assert code == 1
        assert record["feasible"] is False


class TestWilliamsonEuler:
    def test_williamson_files(self, capsys, tmp_path):
        src = tmp_path / "g.mat"
        run_cli(capsys, "synth", "--c", "1.5,1.5,2", "--d", "1,1,1", "--out", str(src))
        code, record = run_cli(capsys, "williamson", "--matrix", str(src),
                               "--out-prefix", str(tmp_path / "w"))
        assert code == 0
        assert record["reconstruction_defect"] <= 1e-8
        np.testing.assert_allclose(record["d"], [1, 1, 1], atol=1e-7)
        S = read_matrix(tmp_path / "w.S.mat")
        assert S.kind == "symplectic"

    def test_euler_files(self, capsys, tmp_path):
        src = tmp_path / "g.mat"
        run_cli(capsys, "synth", "--c", "2,2", "--d", "1,1", "--out", str(src))
        run_cli(capsys, "williamson", "--matrix", str(src),
                "--out-prefix", str(tmp_path / "w"))
        code, record = run_cli(capsys, "euler", "--matrix", str(tmp_path / "w.S.mat"),
                               "--out-prefix", str(tmp_path / "e"))
        assert code == 0
        assert record["reconstruction_defect"] <= 1e-8
        assert all(z >= 1.0 for z in record["z"])

    def test_kind_mismatch(self, capsys, tmp_path):
        src = tmp_path / "g.mat"
        run_cli(capsys, "synth", "--c", "2,2", "--d", "1,1", "--out", str(src))
        code, _ = run_cli(capsys, "euler", "--matrix", str(src),
                          "--out-prefix", str(tmp_path / "e"))
        assert code == 2

    def test_williamson_defect_exits_three(self, capsys, tmp_path, monkeypatch):
        import modematch.core as core

        real = core.williamson

        def perturbed(cov):
            S, d = real(cov)
            return S, core.SpectrumVector(d.values * (1.0 + 1e-4))

        monkeypatch.setattr(core, "williamson", perturbed)
        src = tmp_path / "g.mat"
        write_matrix(src, np.diag([2.0, 2.0, 3.0, 3.0]), "covariance")
        code, record = run_cli(capsys, "williamson", "--matrix", str(src),
                               "--out-prefix", str(tmp_path / "w"))
        assert code == 3
        assert "reconstruction check failed" in record["error"]
        assert not (tmp_path / "w.S.mat").exists()

    def test_euler_defect_exits_three(self, capsys, tmp_path, monkeypatch):
        import modematch.core as core

        real = core.euler_decompose

        def perturbed(S):
            factors = real(S)
            factors.z = factors.z * (1.0 + 1e-4)
            return factors

        monkeypatch.setattr(core, "euler_decompose", perturbed)
        src = tmp_path / "s.mat"
        write_matrix(src, np.diag([2.0, 0.5, 1.0, 1.0]), "symplectic")
        code, record = run_cli(capsys, "euler", "--matrix", str(src),
                               "--out-prefix", str(tmp_path / "e"))
        assert code == 3
        assert "reconstruction check failed" in record["error"]
        assert not (tmp_path / "e.O.mat").exists()

    def test_nan_defect_exits_three(self, capsys, tmp_path, monkeypatch):
        import modematch.core as core

        real = core.euler_decompose

        def nan_factors(S):
            factors = real(S)
            factors.z = factors.z * np.nan
            return factors

        monkeypatch.setattr(core, "euler_decompose", nan_factors)
        src = tmp_path / "s.mat"
        write_matrix(src, np.diag([2.0, 0.5, 1.0, 1.0]), "symplectic")
        code, record = run_cli(capsys, "euler", "--matrix", str(src),
                               "--out-prefix", str(tmp_path / "e"))
        assert code == 3
        assert record["error"] == "reconstruction check failed: defect nan"
        assert not (tmp_path / "e.O.mat").exists()

    def test_strongly_squeezed_state(self, capsys, tmp_path):
        d = np.sort(np.random.default_rng(2).uniform(1.0, 3.0, 6))
        S = random_symplectic(6, 1e4, seed=2).entries
        src = tmp_path / "g.mat"
        write_matrix(src, S @ interleaved_diagonal(d) @ S.T, "covariance")
        code, record = run_cli(capsys, "williamson", "--matrix", str(src),
                               "--out-prefix", str(tmp_path / "w"))
        assert code == 0
        assert record["reconstruction_defect"] <= 1e-8

    def test_rejects_asymmetric_matrix_file(self, capsys, tmp_path):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        path = tmp_path / "bad.mat"
        write_matrix(path, bad, "covariance")
        code, record = run_cli(capsys, "check", "--matrix", str(path))
        assert code == 2
        assert "symmetric" in record["error"]


class TestEntropy:
    def test_bound_value(self, capsys):
        code, record = run_cli(capsys, "entropy", "--c", "1.5,1.5,2")
        assert code == 0
        assert record["global_upper_bound_bits"] == pytest.approx(
            3 * np.log2(3) - 2, abs=1e-12)

    def test_pure_vector(self, capsys):
        code, record = run_cli(capsys, "entropy", "--c", "1,1")
        assert code == 0
        assert record["global_upper_bound_bits"] == pytest.approx(entropy_of_two())

    def test_matrix_input_reports_gaussian_entropy(self, capsys, tmp_path):
        src = tmp_path / "g.mat"
        run_cli(capsys, "synth", "--c", "2,2", "--d", "1,1", "--out", str(src))
        code, record = run_cli(capsys, "entropy", "--matrix", str(src))
        assert code == 0
        assert record["gaussian_global_entropy_bits"] == pytest.approx(0.0, abs=1e-7)
        assert record["global_upper_bound_bits"] >= 0.0

    def test_rejects_below_one(self, capsys):
        code, record = run_cli(capsys, "entropy", "--c", "0.5,2")
        assert code == 2
        assert "lies below 1" in record["error"]

    def test_largest_values_give_finite_bits(self, capsys):
        code, record = run_cli(capsys, "entropy", "--c", "1e308")
        assert code == 0
        assert record["per_mode_bits"][0] == pytest.approx(np.log2(0.5e308) + 1 / np.log(2))

    def test_overflowing_aggregate_is_an_input_error(self, capsys):
        code, record = run_cli(capsys, "entropy", "--c", "1e308,1e308")
        assert code == 2
        assert "not finite" in record["error"]


def entropy_of_two():
    return 1.5 * np.log2(1.5) + 0.5


class TestPrepare:
    def test_pure_target(self, capsys, tmp_path):
        out = tmp_path / "circ.txt"
        code, record = run_cli(capsys, "prepare", "--c", "2,2", "--d", "1,1",
                               "--out", str(out))
        assert code == 0
        assert record["source"] == "pure_OPO"
        assert record["replay_defect"] <= 1e-7
        text = out.read_text()
        assert "squeezer" in text and "rotation" in text

    def test_identity_target(self, capsys, tmp_path):
        out = tmp_path / "circ.txt"
        code, record = run_cli(capsys, "prepare", "--c", "1,1,1", "--d", "1,1,1",
                               "--out", str(out))
        assert code == 0
        assert record["passive_elements"] == 0

    def test_infeasible_target(self, capsys, tmp_path):
        code, record = run_cli(capsys, "--tol-ineq", "1e-6", "prepare", "--c", "1,5",
                               "--d", "1,1", "--out", str(tmp_path / "c.txt"))
        assert code == 1
        assert record["feasible"] is False
        # the verdict depends on tol_ineq, so the record reports it, as synth's does
        assert record["tolerances"]["tol_ineq"] == 1e-6

    def test_mixed_matrix_target_and_replay(self, capsys, tmp_path):
        src = tmp_path / "g.mat"
        run_cli(capsys, "synth", "--c", "1.5,1.5", "--d", "1,2", "--out", str(src))
        out = tmp_path / "circ.txt"
        code, record = run_cli(capsys, "prepare", "--matrix", str(src), "--out", str(out))
        assert code == 0
        assert record["source"] == "mixed_OQV"
        replayed = tmp_path / "r.mat"
        code, _ = run_cli(capsys, "replay", "--circuit", str(out), "--out", str(replayed))
        assert code == 0
        np.testing.assert_allclose(read_matrix(replayed).values,
                                   read_matrix(src).values, atol=1e-7)


    def test_mixed_matrix_is_prepared_as_itself(self, capsys, tmp_path):
        # not a synthesis witness: the witness of its (c, d) is another matrix
        S = random_symplectic(4, 2.0, np.random.default_rng(5))
        gamma = S.entries @ interleaved_diagonal([1.2, 1.5, 2.0, 2.5]) @ S.entries.T
        src, out, replayed = tmp_path / "g.mat", tmp_path / "circ.txt", tmp_path / "r.mat"
        write_matrix(src, gamma, "covariance")
        code, record = run_cli(capsys, "prepare", "--matrix", str(src), "--out", str(out))
        assert code == 0
        assert record["source"] == "mixed_OQV" and len(record["squeezers"]) == 4
        code, _ = run_cli(capsys, "replay", "--circuit", str(out), "--out", str(replayed))
        assert code == 0
        defect = np.max(np.abs(read_matrix(replayed).values - gamma)) / np.max(np.abs(gamma))
        assert defect <= 1e-8

    def test_unphysical_matrix_is_an_input_error(self, capsys, tmp_path):
        src, out = tmp_path / "g.mat", tmp_path / "circ.txt"
        write_matrix(src, np.diag([0.5, 0.5, 2.0, 2.0]), "covariance")
        code, record = run_cli(capsys, "prepare", "--matrix", str(src), "--out", str(out))
        assert code == 2
        assert "uncertainty bound" in record["error"]
        assert not out.exists()

    def test_spectrum_below_the_vacuum_is_an_input_error(self, capsys, tmp_path):
        out = tmp_path / "circ.txt"
        code, record = run_cli(capsys, "prepare", "--c", "1,1.5", "--d", "0.5,2",
                               "--out", str(out))
        assert code == 2
        assert "uncertainty bound" in record["error"]
        assert not out.exists()

    def test_witness_missing_its_locals_exits_three(self, capsys, tmp_path, monkeypatch):
        import modematch.synthesis as synthesis

        real = synthesis.synthesize

        def shifted(c, d, tol_ineq):
            # a feasible witness for locals 0.1 above the requested ones
            return real(np.asarray(c) + 0.1, d, tol_ineq=tol_ineq)

        monkeypatch.setattr(synthesis, "synthesize", shifted)
        out = tmp_path / "circ.txt"
        code, record = run_cli(capsys, "prepare", "--c", "1.5,1.5", "--d", "1,2",
                               "--out", str(out))
        assert code == 3
        assert "self-verification failed" in record["error"]
        assert not out.exists()

    @pytest.mark.parametrize("element", [
        "squeezer mode=0 z=-4",
        "rotation modes=0,5 theta=0.1 phi=0",
        "phase mode=-1 alpha=0.3",
        "squeezer mode=0 z=2 orientation=q",
        "n 1",
        "seed 2 2",
    ])
    def test_invalid_circuit_file_is_an_input_error(self, capsys, tmp_path, element):
        circ = tmp_path / "c.txt"
        circ.write_text(f"n 2\nsource mixed_OQV\nseed 1 1\n{element}\n")
        out = tmp_path / "r.mat"
        code, record = run_cli(capsys, "replay", "--circuit", str(circ), "--out", str(out))
        assert code == 2
        assert "circuit line 4" in record["error"]
        assert not out.exists()


# the paper's n + 1 conditions are sufficient, so a slack suite beyond
# necessity could only repeat it
SUITES = {"necessity", "williamson_euler_reconstruction", "synthesis_roundtrip",
          "circuit_replay"}


class TestVerify:
    def test_smoke_run(self, capsys):
        code, record = run_cli(capsys, "verify", "--trials", "1", "--n-max", "2",
                               "--seed", "3")
        assert code == 0
        assert record["violations"] == 0
        assert record["elapsed_s"] < 1.0

    def test_healthy_run(self, capsys):
        code, record = run_cli(capsys, "verify", "--trials", "40", "--n-max", "6",
                               "--seed", "7")
        assert code == 0
        assert record["violations"] == 0
        assert {s["suite"] for s in record["suites"]} == SUITES

    def test_corrupted_pipeline_is_detected(self, capsys):
        code, record = run_cli(capsys, "verify", "--trials", "40", "--n-max", "6",
                               "--seed", "7", "--self-check-corrupt")
        assert code == 1
        assert record["violations"] > 0

    def test_nan_defect_is_a_violation(self, capsys, monkeypatch):
        import modematch.verify as verify

        real = verify.euler_decompose

        def nan_factors(S):
            factors = real(S)
            factors.z = factors.z * np.nan
            return factors

        monkeypatch.setattr(verify, "euler_decompose", nan_factors)
        code, record = run_cli(capsys, "verify", "--trials", "4", "--n-max", "3", "--seed", "7")
        recon = next(s for s in record["suites"]
                     if s["suite"] == "williamson_euler_reconstruction")
        assert code == 1
        assert recon["violations"] == 4 and recon["worst"] is None

    def test_suites_report_raw_worst_beside_bound(self, capsys):
        code, record = run_cli(capsys, "verify", "--trials", "40", "--n-max", "6",
                               "--seed", "7")
        assert code == 0
        suites = {s["suite"]: s for s in record["suites"]}
        assert suites.keys() == SUITES
        for suite in suites.values():
            assert {"worst", "bound"} <= suite.keys() and "worst_margin" not in suite
        for name in ("williamson_euler_reconstruction", "synthesis_roundtrip",
                     "circuit_replay"):
            assert suites[name]["bound"] == 1e-8
            assert 0.0 <= suites[name]["worst"] <= 1e-12
        assert suites["necessity"]["bound"] == -1e-9
        assert suites["necessity"]["worst"] >= 0.0

    def test_slack_bound_follows_the_tolerance_flag(self, capsys):
        code, record = run_cli(capsys, "--tol-ineq", "1e-3", "verify", "--trials", "5",
                               "--n-max", "3", "--seed", "7")
        assert code == 0
        bounds = {s["suite"]: s["bound"] for s in record["suites"]}
        assert bounds.keys() == SUITES
        assert bounds["necessity"] == -1e-3

    def test_rejects_bad_parameters(self, capsys):
        code, _ = run_cli(capsys, "verify", "--trials", "0")
        assert code == 2

    @pytest.mark.parametrize("bound", ["nan", "inf"])
    def test_rejects_non_finite_squeeze_bound(self, capsys, bound):
        code, record = run_cli(capsys, "verify", "--trials", "1", "--squeeze-bound", bound)
        assert code == 2
        assert "squeeze_bound must be finite and >= 1" in record["error"]


class TestToleranceOverride:
    def test_env_variable_applies_to_slack_tolerance(self, capsys, monkeypatch):
        # a pair violated by 1e-4 becomes feasible under a loose tolerance
        monkeypatch.setenv("MODEMATCH_TOL_INEQ", "1e-3")
        code, record = run_cli(capsys, "check", "--c", "0.9999,2.0001",
                               "--d", "1,2")
        assert code == 0
        assert record["tolerances"]["tol_ineq"] == pytest.approx(1e-3)

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MODEMATCH_TOL_INEQ", "1e-3")
        code, _ = run_cli(capsys, "--tol-ineq", "1e-9", "check",
                          "--c", "0.9999,2.0001", "--d", "1,2")
        assert code == 1

    def test_invalid_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("MODEMATCH_TOL_INEQ", "abc")
        code, _ = run_cli(capsys, "check", "--c", "1,1", "--d", "1,1")
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("argv", [
        ["check", "--c", "1.5,1.5", "--d", "1,2"],
        ["check", "--c", "1,1", "--d", "5,9"],
        ["synth", "--c", "1,1", "--d", "5,9", "--out", "{out}"],
    ], ids=["feasible", "infeasible", "synth"])
    def test_non_finite_tolerance_is_an_input_error(self, capsys, monkeypatch, tmp_path,
                                                    value, source, argv):
        out = tmp_path / "g.mat"
        argv = [arg.format(out=out) for arg in argv]
        if source == "flag":
            argv = ["--tol-ineq", value, *argv]
        else:
            monkeypatch.setenv("MODEMATCH_TOL_INEQ", value)
        code, record = run_cli(capsys, *argv)
        assert code == 2
        assert "must be finite and positive" in record["error"]
        assert not out.exists()


class TestInternalFailures:
    """A numerical breakdown inside the library exits 3, never 2."""

    CASES = [
        (["check", "--matrix", "{cov}"], "marginals", "check_matrix_consistency"),
        (["synth", "--c", "2,2", "--d", "1,1", "--out", "{out}"], "synthesis", "synthesize"),
        (["williamson", "--matrix", "{cov}", "--out-prefix", "{out}"], "core", "williamson"),
        (["euler", "--matrix", "{sym}", "--out-prefix", "{out}"], "core", "euler_decompose"),
        (["entropy", "--c", "1.5,2"], "entropy", "entropy_report"),
        (["prepare", "--c", "1.5,1.5", "--d", "1,2", "--out", "{out}"], "circuits",
         "circuit_from_mixed"),
        (["replay", "--circuit", "{circ}", "--out", "{out}"], "circuits", "parse_circuit"),
        (["verify", "--trials", "1"], "verify", "run_verification"),
    ]

    @pytest.mark.parametrize("argv, module, name", CASES, ids=[case[0][0] for case in CASES])
    def test_exit_code_three(self, capsys, tmp_path, monkeypatch, argv, module, name):
        files = {"cov": tmp_path / "g.mat", "sym": tmp_path / "s.mat",
                 "circ": tmp_path / "c.txt", "out": tmp_path / "out"}
        write_matrix(files["cov"], 2.0 * np.eye(4), "covariance")
        write_matrix(files["sym"], np.eye(4), "symplectic")
        files["circ"].write_text("n 1\n")

        def broken(*args, **kwargs):
            raise NumericalFailure("injected failure")

        monkeypatch.setattr(importlib.import_module(f"modematch.{module}"), name, broken)
        code, record = run_cli(capsys, *(arg.format(**files) for arg in argv))
        assert code == 3
        assert record == {"command": argv[0], "error": "injected failure"}
        assert not files["out"].exists()

    def test_infeasible_gate_of_a_feasible_pair_exits_three(self, capsys, tmp_path,
                                                             monkeypatch):
        # the pair passes the gate, so an Infeasible from a two-mode gate is a
        # broken construction, not an infeasible request
        def broken(*args, **kwargs):
            raise Infeasible("injected failure")

        monkeypatch.setattr(importlib.import_module("modematch.synthesis"), "_couplings",
                            broken)
        out = tmp_path / "out"
        code, record = run_cli(capsys, "synth", "--c", "1.2,1.7,2.4", "--d", "1,1.5,2.3",
                               "--out", str(out))
        assert code == 3
        assert record == {"command": "synth",
                          "error": "reduced subproblem lost feasibility: injected failure"}
        assert not out.exists()

    def test_failed_check_of_a_two_mode_gate_exits_three(self, capsys, tmp_path):
        # a feasible pair whose 4x4 block's Williamson transform misses
        # TOL_SYMPL: the library built the block, so the failure is its own
        out = tmp_path / "out"
        argv = ("--c", "1.5,1e7", "--d", "1.2,9999999.99")
        assert run_cli(capsys, "check", *argv)[0] == 0
        code, record = run_cli(capsys, "synth", *argv, "--out", str(out))
        assert code == 3
        assert record["error"].startswith("two-mode gate failed its check: symplectic defect")
        assert not out.exists()


class TestRecordShape:
    """Every record lays out its keys in one order: command, digest, the
    command's own fields, tolerances, elapsed_s; a failure's record is the
    command and its error, and an infeasible pair's also its verdict.
    ``TestInternalFailures`` pins the record of a ``NumericalFailure``."""

    VERDICT = ["command", "digest", "feasible", "slacks", "scale", "tolerances", "elapsed_s"]
    ENTROPY = ["command", "digest", "per_mode_bits", "total_local_sum_bits",
               "global_upper_bound_bits", "purity_consistent", "tolerances", "elapsed_s"]
    PREPARE = ["command", "digest", "out", "source", "squeezers", "passive_elements",
               "replay_defect", "tolerances", "elapsed_s"]

    def test_success_records(self, capsys, tmp_path):
        mat, circ = str(tmp_path / "g.mat"), str(tmp_path / "c.txt")
        cases = [
            (["check", "--c", "1.5,1.5", "--d", "1,2"], self.VERDICT),
            (["check", "--pure", "--b", "1,1,2"], self.VERDICT),
            (["synth", "--c", "1.5,1.5", "--d", "1,2", "--out", mat],
             ["command", "digest", "feasible", "out", "n", "verification_defect",
              "tolerances", "elapsed_s"]),
            (["check", "--matrix", mat], self.VERDICT),
            (["williamson", "--matrix", mat, "--out-prefix", str(tmp_path / "w")],
             ["command", "digest", "d", "reconstruction_defect", "files", "tolerances",
              "elapsed_s"]),
            (["euler", "--matrix", str(tmp_path / "w.S.mat"), "--out-prefix",
              str(tmp_path / "e")],
             ["command", "digest", "z", "reconstruction_defect", "files", "tolerances",
              "elapsed_s"]),
            (["entropy", "--c", "1.5,2"], self.ENTROPY),
            (["entropy", "--matrix", mat],
             self.ENTROPY[:-2] + ["gaussian_global_entropy_bits", "tolerances", "elapsed_s"]),
            (["prepare", "--c", "1.5,1.5", "--d", "1,2", "--out", circ], self.PREPARE),
            (["prepare", "--matrix", mat, "--out", circ], self.PREPARE),
            (["replay", "--circuit", circ, "--out", str(tmp_path / "r.mat")],
             ["command", "out", "n", "elapsed_s"]),
            (["verify", "--trials", "2", "--n-max", "2"],
             ["command", "trials", "n_max", "seed", "squeeze_bound", "violations", "suites",
              "tolerances", "elapsed_s"]),
        ]
        for argv, keys in cases:
            code, record = run_cli(capsys, *argv)
            assert code == 0, argv
            assert list(record) == keys, argv
            assert record["command"] == argv[0]
            if "elapsed_s" in record:
                assert list(record)[-1] == "elapsed_s", argv
            if "tolerances" in record:
                assert list(record["tolerances"]) == ["tol_ineq", "tol_recon", "tol_psd"]

    @pytest.mark.parametrize("command", ["synth", "prepare"])
    def test_infeasible_pair(self, capsys, tmp_path, command):
        out = tmp_path / "out"
        code = main([command, "--c", "1,5", "--d", "1,1", "--out", str(out)])
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert code == 1
        assert list(record) == ["command", "feasible", "error", "tolerances"]
        assert record["command"] == command and record["feasible"] is False
        assert record["error"].startswith("(c, d) pair is infeasible")
        assert captured.err == ""
        assert not out.exists()

    def test_failed_self_check(self, capsys, tmp_path, monkeypatch):
        import modematch.core as core

        monkeypatch.setattr(core, "williamson_defect", lambda *args: 1.0)
        src = tmp_path / "g.mat"
        write_matrix(src, np.diag([2.0, 2.0, 3.0, 3.0]), "covariance")
        code = main(["williamson", "--matrix", str(src), "--out-prefix", str(tmp_path / "w")])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out) == {"command": "williamson",
                                            "error": "reconstruction check failed: defect 1"}
        assert captured.err == "error: reconstruction check failed: defect 1\n"
        assert not (tmp_path / "w.S.mat").exists()

    def test_input_error(self, capsys):
        code = main(["check", "--c", "1,x", "--d", "1,2"])
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert code == 2
        assert list(record) == ["command", "error"] and record["command"] == "check"
        assert captured.err == f"error: {record['error']}\n"

    @pytest.mark.parametrize("argv, error", [
        (["check", "--c", ",", "--d", "1"], "empty vector ','"),
        (["check", "--pure"], "--pure requires --b"),
        (["entropy"], "provide --c or --matrix"),
        (["prepare", "--out", "c.txt"], "provide --matrix, or --c and --d"),
    ], ids=["empty-vector", "pure-without-b", "entropy-without-input", "prepare-without-target"])
    def test_missing_input_is_an_input_error(self, capsys, tmp_path, monkeypatch, argv, error):
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {"command": argv[0], "error": error}
        assert captured.err == f"error: {error}\n"
        assert not list(tmp_path.iterdir())


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_block_runs_as_written(capsys, tmp_path, monkeypatch):
    """The README's command-line block runs in order in an empty directory,
    each line exiting with the code its comment marks."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MODEMATCH_TOL_INEQ", raising=False)
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.strip()]
    assert lines
    for line in lines:
        command, _, comment = line.partition("#")
        marked = re.match(r"\s*exit (\d)\b", comment)
        assert marked, f"no exit code marked: {line}"
        argv = shlex.split(command)
        assert argv[0] == "modematch"
        assert main(argv[1:]) == int(marked.group(1)), line
        capsys.readouterr()
