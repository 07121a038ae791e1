"""Command-line interface.

Subcommands: check, synth, williamson, euler, entropy, prepare, verify.
Machine-readable output is one JSON object per line on stdout; a short
human-readable table goes to stderr.  Exit codes: 0 success or feasible,
1 infeasible (the gate, or ``Infeasible`` from synth or prepare) or
violations found, 2 input error (``InvalidInput``, any other library error,
``ValueError`` or ``OSError``), 3 internal failure (a failed self-check in
synth, prepare, williamson or euler, or ``NumericalFailure``).  A self-check
measures its defect with the function next to the kernel it checks and
fails unless the defect is at most ``TOL_RECON``, so a NaN defect fails.
``--tol-ineq``, or else MODEMATCH_TOL_INEQ, sets the inequality tolerance,
which must be finite and positive.

Each subcommand imports the matrix-side modules it calls, numpy and the
matrix file code included, when it runs, so a process loads only what its
subcommand needs: ``check --c --d`` and ``check --pure --b`` load no numpy.
``run`` is the console entry point: it exits through ``os._exit`` once the
output is flushed.
"""

import argparse
import importlib
import json
import os
import sys
import time
from array import array

from . import config
from .errors import Infeasible, InvalidInput, ModeMatchError, NumericalFailure
from .gate import at_vacuum, below_vacuum, check_mixed, check_pure

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _parse_vector(raw: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidInput(f"could not parse vector {raw!r}: {exc}") from None
    if not values:
        raise InvalidInput(f"empty vector {raw!r}")
    return values


def _sha256():
    """A SHA-256 hash object from the interpreter's builtin module, which
    loads no OpenSSL; ``hashlib`` is the fallback."""
    for name in ("_sha2", "_sha256", "hashlib"):  # 3.12+, up to 3.11
        try:
            return importlib.import_module(name).sha256()
        except ImportError:
            pass
    raise ImportError("no SHA-256 implementation")


def _digest(*parts) -> str:
    """Hash of strings and float vectors: a list of floats and an array
    contribute the same float64 bytes."""
    h = _sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        elif isinstance(part, list):
            h.update(array("d", part).tobytes())
        else:
            h.update(part.astype(float, copy=False).tobytes())
        h.update(b"|")
    return h.hexdigest()[:16]


def _failed(command: str, check: str, defect: float) -> int:
    _emit({"command": command, "error": f"{check} failed: defect {defect:.3g}"})
    return EXIT_INTERNAL


def _emit(record: dict, table_lines=None):
    print(json.dumps(record))
    if table_lines:
        print("\n".join(table_lines), file=sys.stderr)


def _tol_dict(tol_ineq: float) -> dict:
    return {
        "tol_ineq": tol_ineq,
        "tol_recon": config.TOL_RECON,
        "tol_psd": config.TOL_PSD,
    }


def _verdict_record(command: str, verdict, digest: str, elapsed: float) -> dict:
    return {
        "command": command,
        "digest": digest,
        "feasible": verdict.feasible,
        "slacks": [{"constraint": s.label(), "slack": s.slack} for s in verdict.slacks],
        "tolerances": _tol_dict(verdict.tol_ineq),
        "elapsed_s": round(elapsed, 6),
    }


def _verdict_table(verdict) -> list[str]:
    lines = [f"{'constraint':<20} {'slack':>24} status"]
    for s in verdict.slacks:
        status = "ok" if s.slack >= -verdict.tol_ineq else "VIOLATED"
        lines.append(f"{s.label():<20} {s.slack:>24.17g} {status}")
    lines.append("feasible" if verdict.feasible else "infeasible")
    return lines


def _load(path, kind):
    """A covariance matrix or symplectic transform read from a matrix file."""
    from .core import CovarianceMatrix, SymplecticTransform
    from .matrixio import read_matrix

    mf = read_matrix(path)
    if mf.kind != kind:
        raise InvalidInput(f"{path}: expected kind {kind}, found {mf.kind}")
    cls = CovarianceMatrix if kind == "covariance" else SymplecticTransform
    try:
        return cls(mf.values)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from None


def cmd_check(args) -> int:
    if args.matrix:
        # the matrix side, numpy included, loads before the clock starts, as
        # in the other subcommands; _load reads the file through matrixio
        from . import matrixio  # noqa: F401
        from .marginals import check_matrix_consistency

    start = time.perf_counter()
    if args.matrix:
        cov = _load(args.matrix, "covariance")
        verdict = check_matrix_consistency(cov, tol_ineq=args.tol_ineq)
        digest = _digest("check", cov.entries)
    elif args.pure:
        if args.b is None:
            raise InvalidInput("--pure requires --b")
        b = sorted(_parse_vector(args.b))
        verdict = check_pure(b, tol_ineq=args.tol_ineq)
        digest = _digest("check-pure", b)
    else:
        if args.c is None or args.d is None:
            raise InvalidInput("provide --c and --d, or --b with --pure, or --matrix")
        c = sorted(_parse_vector(args.c))
        d = sorted(_parse_vector(args.d))
        verdict = check_mixed(c, d, tol_ineq=args.tol_ineq)
        digest = _digest("check-mixed", c, d)
    record = _verdict_record("check", verdict, digest, time.perf_counter() - start)
    _emit(record, _verdict_table(verdict))
    return EXIT_OK if verdict.feasible else EXIT_INFEASIBLE


def _synthesized(command: str, args, physical: bool = False):
    """Sort --c and --d, synthesize their witness and self-check it: returns
    (c, d, trace, defect), or the exit code of an infeasible pair or a
    failed self-check once its record is emitted.  With ``physical``, a
    spectrum below one is an input error."""
    from .synthesis import synthesis_defect, synthesize

    c = sorted(_parse_vector(args.c))
    d = sorted(_parse_vector(args.d))
    if physical and below_vacuum(d[0]):
        raise InvalidInput(f"target violates the uncertainty bound: smallest "
                           f"symplectic eigenvalue {d[0]:.17g} is below 1")
    try:
        trace = synthesize(c, d, tol_ineq=args.tol_ineq)
    except Infeasible as exc:
        _emit({"command": command, "feasible": False, "error": str(exc),
               "tolerances": _tol_dict(args.tol_ineq)})
        return EXIT_INFEASIBLE
    # self-verification before anything is written
    defect = synthesis_defect(trace, c, d)
    if not defect <= config.TOL_RECON:
        return _failed(command, "self-verification", defect)
    return c, d, trace, defect


def cmd_synth(args) -> int:
    # the synthesis side, numpy included, loads before the clock starts
    from . import synthesis  # noqa: F401
    from .matrixio import write_matrix

    start = time.perf_counter()
    result = _synthesized("synth", args)
    if isinstance(result, int):
        return result
    c, d, trace, defect = result
    write_matrix(args.out, trace.final_matrix.entries, "covariance")
    if args.emit_trace:
        with open(args.emit_trace, "w") as fh:
            fh.write(json.dumps({"step": "direct_sum", "modes": list(range(trace.n)),
                                 "values": [f"{v:.17g}" for v in trace.seed]}) + "\n")
            for step in trace.steps:
                fh.write(json.dumps({"step": "two_mode", "modes": list(step.modes),
                                     "transform": [[f"{v:.17g}" for v in row]
                                                   for row in step.transform]}) + "\n")
    record = {
        "command": "synth",
        "digest": _digest("synth", c, d),
        "feasible": True,
        "out": args.out,
        "n": len(c),
        "verification_defect": defect,
        "tolerances": _tol_dict(args.tol_ineq),
        "elapsed_s": round(time.perf_counter() - start, 6),
    }
    _emit(record, [f"wrote {args.out} (n={len(c)}, defect {defect:.3g})"])
    return EXIT_OK


def cmd_williamson(args) -> int:
    from .core import interleaved_diagonal, williamson, williamson_defect
    from .matrixio import write_matrix

    start = time.perf_counter()
    cov = _load(args.matrix, "covariance")
    S, d = williamson(cov)
    defect = williamson_defect(cov, S, d)
    if not defect <= config.TOL_RECON:
        return _failed("williamson", "reconstruction check", defect)
    write_matrix(f"{args.out_prefix}.S.mat", S.entries, "symplectic")
    write_matrix(f"{args.out_prefix}.D.mat", interleaved_diagonal(d.values), "covariance")
    record = {
        "command": "williamson",
        "digest": _digest("williamson", cov.entries),
        "d": list(d.values),
        "reconstruction_defect": defect,
        "files": [f"{args.out_prefix}.S.mat", f"{args.out_prefix}.D.mat"],
        "tolerances": _tol_dict(args.tol_ineq),
        "elapsed_s": round(time.perf_counter() - start, 6),
    }
    _emit(record, [f"d = {d.values}", f"defect {defect:.3g}"])
    return EXIT_OK


def cmd_euler(args) -> int:
    from .core import euler_decompose, euler_defect
    from .matrixio import write_matrix

    start = time.perf_counter()
    S = _load(args.matrix, "symplectic")
    factors = euler_decompose(S)
    defect = euler_defect(S, factors)
    if not defect <= config.TOL_RECON:
        return _failed("euler", "reconstruction check", defect)
    write_matrix(f"{args.out_prefix}.O.mat", factors.O.entries, "symplectic")
    write_matrix(f"{args.out_prefix}.Q.mat", factors.q_matrix(), "symplectic")
    write_matrix(f"{args.out_prefix}.V.mat", factors.V.entries, "symplectic")
    record = {
        "command": "euler",
        "digest": _digest("euler", S.entries),
        "z": list(factors.z),
        "reconstruction_defect": defect,
        "files": [f"{args.out_prefix}.{part}.mat" for part in ("O", "Q", "V")],
        "tolerances": _tol_dict(args.tol_ineq),
        "elapsed_s": round(time.perf_counter() - start, 6),
    }
    _emit(record, [f"z = {factors.z}", f"defect {defect:.3g}"])
    return EXIT_OK


def cmd_entropy(args) -> int:
    from .core import symplectic_eigenvalues
    from .entropy import entropy_report, entropy_s

    start = time.perf_counter()
    gaussian_entropy = None
    if args.matrix:
        cov = _load(args.matrix, "covariance")
        report = entropy_report(gamma=cov, tol_ineq=args.tol_ineq)
        gaussian_entropy = sum(map(entropy_s, symplectic_eigenvalues(cov).values.tolist()))
        digest = _digest("entropy", cov.entries)
    else:
        if args.c is None:
            raise InvalidInput("provide --c or --matrix")
        c = sorted(_parse_vector(args.c))
        # entropy_report rejects local values below the vacuum
        report = entropy_report(c=c, tol_ineq=args.tol_ineq)
        digest = _digest("entropy", c)
    record = {
        "command": "entropy",
        "digest": digest,
        "per_mode_bits": list(report.per_mode_entropies),
        "total_local_sum_bits": report.total_local_sum,
        "global_upper_bound_bits": report.global_upper_bound,
        "purity_consistent": report.purity_consistent,
        "tolerances": _tol_dict(args.tol_ineq),
        "elapsed_s": round(time.perf_counter() - start, 6),
    }
    table = [f"per-mode entropies (bits): {report.per_mode_entropies}",
             f"paper's aggregate s(sum c), not a bound for mixed states (bits): "
             f"{report.global_upper_bound:.12g}"]
    if gaussian_entropy is not None:
        record["gaussian_global_entropy_bits"] = gaussian_entropy
        table.append(f"Gaussian global entropy (bits): {gaussian_entropy:.12g}")
    _emit(record, table)
    return EXIT_OK


def cmd_prepare(args) -> int:
    from .circuits import (
        circuit_from_matrix,
        circuit_from_mixed,
        replay_defect,
        serialize_circuit,
    )

    if not args.matrix:
        from . import synthesis  # noqa: F401

    start = time.perf_counter()
    if args.matrix:
        cov = _load(args.matrix, "covariance")
        circuit, target = circuit_from_matrix(cov), cov.entries
        digest = _digest("prepare", target)
    else:
        if args.c is None or args.d is None:
            raise InvalidInput("provide --matrix, or --c and --d")
        result = _synthesized("prepare", args, physical=True)
        if isinstance(result, int):
            return result
        c, d, trace, _ = result
        target = trace.final_matrix.entries
        if all(map(at_vacuum, d)):
            circuit = circuit_from_matrix(trace.final_matrix)
        else:
            circuit = circuit_from_mixed(trace)
        digest = _digest("prepare", c, d)

    defect = replay_defect(circuit, target)
    if not defect <= config.TOL_RECON:
        return _failed("prepare", "replay verification", defect)
    with open(args.out, "w") as fh:
        fh.write(serialize_circuit(circuit))
    record = {
        "command": "prepare",
        "digest": digest,
        "out": args.out,
        "source": circuit.source,
        "squeezers": [sq.z for sq in circuit.squeezers],
        "passive_elements": len(circuit.passive_ops),
        "replay_defect": defect,
        "tolerances": _tol_dict(args.tol_ineq),
        "elapsed_s": round(time.perf_counter() - start, 6),
    }
    _emit(record, [f"wrote {args.out} ({len(circuit.passive_ops)} passive elements, "
                   f"replay defect {defect:.3g})"])
    return EXIT_OK


def cmd_replay(args) -> int:
    from .circuits import parse_circuit, replay_circuit
    from .matrixio import write_matrix

    start = time.perf_counter()
    with open(args.circuit) as fh:
        circuit = parse_circuit(fh.read())
    result = replay_circuit(circuit)
    write_matrix(args.out, result, "covariance")
    record = {
        "command": "replay",
        "out": args.out,
        "n": circuit.n,
        "elapsed_s": round(time.perf_counter() - start, 6),
    }
    _emit(record, [f"wrote {args.out}"])
    return EXIT_OK


def _flip_sign_corruption(matrix):
    import numpy as np

    out = matrix.copy()
    off = np.abs(np.triu(out, k=1))
    i, j = np.unravel_index(np.argmax(off), off.shape)
    if off[i, j] > 0:
        out[i, j] = -out[i, j]
        out[j, i] = -out[j, i]
    else:
        out[0, 0] *= 2.0
    return out


def cmd_verify(args) -> int:
    from .verify import run_verification

    corrupt = _flip_sign_corruption if args.self_check_corrupt else None
    summary = run_verification(args.trials, args.n_max, seed=args.seed,
                               squeeze_bound=args.squeeze_bound, corrupt=corrupt,
                               tol_ineq=args.tol_ineq)
    record = {
        "command": "verify",
        "trials": args.trials,
        "n_max": args.n_max,
        "seed": args.seed,
        "squeeze_bound": args.squeeze_bound,
        "violations": summary.total_violations,
        "suites": [
            {"suite": s.name, "trials": s.trials, "violations": s.violations,
             "worst": s.worst, "bound": s.bound}
            for s in summary.suites
        ],
        "tolerances": _tol_dict(args.tol_ineq),
        "elapsed_s": round(summary.elapsed_s, 6),
    }
    table = [f"{'suite':<34} {'trials':>7} {'violations':>11} {'worst':>10} {'bound':>10}"]
    for s in summary.suites:
        worst = "-" if s.worst is None else f"{s.worst:.3g}"
        table.append(f"{s.name:<34} {s.trials:>7} {s.violations:>11} {worst:>10} "
                     f"{s.bound:>10.3g}")
    table.append(f"total violations: {summary.total_violations}")
    _emit(record, table)
    return EXIT_OK if summary.total_violations == 0 else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modematch",
        description="Feasibility, synthesis, and preparation of Gaussian "
                    "covariance matrices with prescribed symplectic spectra "
                    "and local mode data.",
    )
    parser.add_argument("--tol-ineq", type=float, default=None,
                        help="override the inequality slack tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="feasibility of (c, d), a pure b vector, or a matrix file")
    p.add_argument("--c", help="comma-separated local values")
    p.add_argument("--d", help="comma-separated symplectic spectrum")
    p.add_argument("--b", help="comma-separated local excitations (with --pure)")
    p.add_argument("--pure", action="store_true", help="check b against a pure global state")
    p.add_argument("--matrix", help="covariance matrix file to self-check")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synth", help="construct a matrix realising (c, d)")
    p.add_argument("--c", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--out", required=True, help="output matrix file")
    p.add_argument("--emit-trace", help="write the build step log to this path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("williamson", help="normal-mode decomposition of a covariance file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_williamson)

    p = sub.add_parser("euler", help="passive-squeeze-passive factorisation of a symplectic file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("entropy", help="per-mode entropies and the global bound")
    p.add_argument("--c")
    p.add_argument("--matrix")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("prepare", help="emit a preparation circuit for a target")
    p.add_argument("--matrix")
    p.add_argument("--c")
    p.add_argument("--d")
    p.add_argument("--out", required=True, help="output circuit file")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("replay", help="replay a circuit file to a covariance matrix")
    p.add_argument("--circuit", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("verify", help="run the sampled property suites")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--squeeze-bound", type=float, default=5.0)
    p.add_argument("--self-check-corrupt", action="store_true",
                   help="inject a known corruption; the run must then exit 1")
    p.set_defaults(func=cmd_verify)
    return parser


def _error(exc, code: int) -> int:
    print(json.dumps({"error": str(exc)}))
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol_ineq = config.from_environment()
        if args.tol_ineq is not None:
            tol_ineq = config.valid_tol_ineq(args.tol_ineq, "--tol-ineq")
        args.tol_ineq = tol_ineq
        return args.func(args)
    except NumericalFailure as exc:
        return _error(exc, EXIT_INTERNAL)
    except (ModeMatchError, ValueError, OSError) as exc:
        return _error(exc, EXIT_INPUT)


def run() -> None:
    """Run ``main`` on the process arguments and exit with its code.

    Every output file is closed before ``main`` returns, so once stdout and
    stderr are flushed nothing is left to write, and ``os._exit`` skips the
    interpreter teardown.  Exceptions, argparse's exits included, propagate
    and end the process the ordinary way.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
