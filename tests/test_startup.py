"""Start-up contract: a process loads only what it runs.

Every test starts a fresh interpreter with an explicit PYTHONPATH, so what
the test process has already imported cannot hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modematch.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy.random", "modematch.synthesis", "modematch.circuits", "modematch.entropy",
         "modematch.verify")
# the gate and the entropy functions run on Python floats: none of these may
# load for check_mixed, check_pure, ``check --c --d``, ``check --pure --b``,
# entropy_report, sharing_feasible or ``entropy --c``
MATRIX_SIDE = ("numpy", "modematch.core", "modematch.marginals", "modematch.matrixio", "_hashlib")
# nor these: the gate's records are plain classes, since dataclasses imports inspect
INTROSPECTION = ("dataclasses", "inspect")


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # a block-buffered stdout shows whether the CLI flushes before it exits
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _python(*args, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_env(), cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def _cli(*argv, cwd=None) -> subprocess.CompletedProcess:
    return _python("-m", "modematch.cli", *argv, cwd=cwd)


def _imported(stderr: str) -> set[str]:
    """Module names from the ``-X importtime`` lines of a child's stderr."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def _last_record(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestLazyImports:
    def test_check_mixed_after_bare_import(self):
        code = ("import json, sys, modematch; "
                "v = modematch.check_mixed([1.5, 1.5], [1, 2]); "
                "w = modematch.check_pure([0.5, 0.5, 1.0]); "
                "print(json.dumps([v.feasible, w.feasible, sorted(sys.modules)]))")
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        mixed, pure, modules = json.loads(proc.stdout)
        assert mixed is True and pure is True
        assert "modematch.gate" in modules
        assert not set(HEAVY + MATRIX_SIDE + INTROSPECTION) & set(modules)

    @pytest.mark.parametrize("argv", [
        ["check", "--c", "1.5,1.5", "--d", "1,2"],
        ["check", "--pure", "--b", "0.5,0.5,1"],
    ], ids=["mixed", "pure"])
    def test_cli_check_loads_only_the_gate(self, argv):
        proc = _python("-X", "importtime", "-m", "modematch.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        imported = _imported(proc.stderr)
        assert "modematch.gate" in imported
        assert not set(HEAVY + MATRIX_SIDE + INTROSPECTION) & imported
        assert _last_record(proc)["feasible"] is True

    def test_cli_entropy_on_local_values_loads_no_matrix_side(self):
        proc = _python("-X", "importtime", "-m", "modematch.cli", "entropy", "--c", "1.5,1.5,2")
        assert proc.returncode == 0, proc.stderr
        imported = _imported(proc.stderr)
        assert "modematch.entropy" in imported
        assert not set(MATRIX_SIDE) & imported
        assert _last_record(proc)["purity_consistent"] is True

    def test_entropy_functions_after_bare_import(self):
        code = ("import json, sys, modematch; "
                "r = modematch.entropy_report([1.5, 1.5, 2.0]); "
                "s = modematch.entropy_s(2.0); "
                "v = modematch.sharing_feasible([1.0, 1.0]); "
                "print(json.dumps([r.per_mode_entropies, s, v.feasible, sorted(sys.modules)]))")
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        per_mode, s, feasible, modules = json.loads(proc.stdout)
        assert len(per_mode) == 3 and s > 0 and feasible is True
        assert "modematch.entropy" in modules
        assert not set(MATRIX_SIDE) & set(modules)

    def test_check_matrix_digests_without_openssl(self, tmp_path):
        path = tmp_path / "g.mat"
        assert _cli("synth", "--c", "1.5,1.5", "--d", "1,2", "--out", str(path)).returncode == 0
        proc = _python("-X", "importtime", "-m", "modematch.cli", "check", "--matrix", str(path))
        assert proc.returncode == 0, proc.stderr
        imported = _imported(proc.stderr)
        assert "modematch.marginals" in imported
        assert "_hashlib" not in imported

    def test_matrix_prepare_and_replay_skip_synthesis(self, tmp_path):
        matrix, circuit = tmp_path / "g.mat", tmp_path / "c.txt"
        assert _cli("synth", "--c", "1.5,1.5", "--d", "1,2", "--out", str(matrix)).returncode == 0
        for argv in (["prepare", "--matrix", str(matrix), "--out", str(circuit)],
                     ["replay", "--circuit", str(circuit), "--out", str(tmp_path / "r.mat")]):
            proc = _python("-X", "importtime", "-m", "modematch.cli", *argv)
            assert proc.returncode == 0, proc.stderr
            imported = _imported(proc.stderr)
            assert "modematch.circuits" in imported
            assert not {"modematch.synthesis", "modematch.marginals"} & imported, argv[0]

    def test_every_export_resolves_and_is_listed(self):
        code = ("import json, modematch; listed = dir(modematch); "
                "missing = [n for n in modematch.__all__ if n not in listed]; "
                "unresolved = [n for n in modematch.__all__ if getattr(modematch, n) is None]; "
                "print(json.dumps([missing, unresolved, len(modematch.__all__), "
                "modematch.__version__]))")
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        missing, unresolved, count, version = json.loads(proc.stdout)
        assert missing == [] and unresolved == []
        assert count == 38 and version == "0.1.0"

    def test_submodules_and_unknown_names(self):
        code = ("import modematch; "
                "assert modematch.core.williamson is modematch.williamson; "
                "assert modematch.errors.ModeMatchError.__name__ == 'ModeMatchError'\n"
                "try:\n    modematch.no_such_name\n"
                "except AttributeError as exc:\n    print(exc)")
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert "no_such_name" in proc.stdout

    def test_resolved_name_is_a_plain_attribute(self):
        import modematch

        first = modematch.check_pure
        assert vars(modematch)["check_pure"] is first is modematch.check_pure


class TestEarlyExit:
    """``run`` (``python -m modematch.cli``) matches an in-process ``main``."""

    C = "1.2,1.7,2.4"
    D = "1,1.5,2.3"

    @pytest.mark.parametrize("step", ["synth", "prepare"])
    def test_files_match_in_process_run(self, step, tmp_path, capsys):
        outputs = {}
        for mode in ("child", "in_process"):
            base = tmp_path / mode
            base.mkdir()
            argv = [step, "--c", self.C, "--d", self.D, "--out", str(base / "out")]
            if step == "synth":
                argv += ["--emit-trace", str(base / "trace")]
            if mode == "child":
                proc = _cli(*argv)
                code, record = proc.returncode, _last_record(proc)
            else:
                code = main(argv)
                record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert code == 0
            record.pop("elapsed_s")
            outputs[mode] = (record, {p.name: p.read_bytes() for p in base.iterdir()})
        child, in_process = outputs["child"], outputs["in_process"]
        assert sorted(child[1]) == (["out", "trace"] if step == "synth" else ["out"])
        assert child[1] == in_process[1]
        assert child[0]["digest"] == in_process[0]["digest"]

    @pytest.mark.parametrize("argv, code", [
        (["check", "--c", "1.5,1.5", "--d", "1,2"], 0),
        (["check", "--c", "1,1", "--d", "1,3"], 1),
        (["check", "--c", "1,x", "--d", "1,1"], 2),
    ])
    def test_exit_codes_and_last_record(self, argv, code):
        proc = _cli(*argv)
        assert proc.returncode == code
        record = _last_record(proc)
        assert ("error" in record) == (code == 2)
        assert proc.stderr.strip()
