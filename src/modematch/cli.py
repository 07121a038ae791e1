"""Command-line interface.

Subcommands: check, synth, williamson, euler, entropy, prepare, replay,
verify.  Machine-readable output is one JSON object per line on stdout; a
short human-readable table goes to stderr.  ``_record`` lays out every
record: ``command``, ``digest``, the subcommand's own fields (``entropy
--matrix`` ends them with ``gaussian_global_entropy_bits``), ``tolerances``,
then ``elapsed_s``, each key present only where the subcommand has it.

A subcommand reads one input source, a matrix file, a pure b vector or a
(c, d) pair, and returns its exit code, record, stderr table and (path, text)
files: 0 on success or a feasible verdict, 1 on an infeasible verdict from
``check`` or violations from ``verify``.  ``main`` alone writes the files,
all or none, and prints, and turns every other outcome, a second source's
flags included, from an exception into a record and an exit code:
``Infeasible`` (an infeasible pair in synth or prepare) exits 1 with a record
of ``command``, ``feasible``, ``error`` and the ``tolerances`` its verdict
used; ``InvalidInput``, any other library error, ``ValueError`` or
``OSError`` exit 2, ``NumericalFailure`` and any other exception, a bug named
by its type, exit 3, each with a record of ``command`` and ``error`` and an
``error:`` line on stderr.  A self-check raises ``NumericalFailure`` unless
its defect, measured by the function next to the kernel it checks, is at most
``TOL_RECON``, so a NaN defect fails.  ``--tol-ineq``, before the subcommand,
or else MODEMATCH_TOL_INEQ, sets the inequality tolerance, which must be
finite and positive and is relative to max(1, the largest value judged).

Each subcommand imports the matrix-side modules it calls, numpy and the
matrix file code included, when it runs, so a process loads only what its
subcommand needs: ``check --c --d`` and ``check --pure --b`` load no numpy.
``run`` is the console entry point: it exits through ``os._exit`` once the
output is flushed.
"""

import argparse
import contextlib
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
        return [config.number(tok) for tok in raw.split(",")]
    except ValueError as exc:
        raise InvalidInput(f"could not parse vector {raw!r}: {exc}") from None


def integer(raw: str) -> int:
    """An integer option's value, under the text rule (``config.number``)."""
    return config.number(raw, int)


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


def _record(command: str, digest=None, *, tol_ineq=None, elapsed=None, **fields) -> dict:
    """A record in the one key order: command, digest, the command's own
    fields, tolerances, elapsed_s.  A digest, tolerance or elapsed time left
    None leaves its key out."""
    record = {"command": command}
    if digest is not None:
        record["digest"] = digest
    record.update(fields)
    if tol_ineq is not None:
        record["tolerances"] = {"tol_ineq": tol_ineq, "tol_recon": config.TOL_RECON,
                                "tol_psd": config.TOL_PSD}
    if elapsed is not None:
        record["elapsed_s"] = round(elapsed, 6)
    return record


def _self_checked(check: str, defect: float) -> float:
    """The defect of a self-check, which fails unless it is at most
    ``TOL_RECON``, so a NaN defect fails."""
    if not defect <= config.TOL_RECON:
        raise NumericalFailure(f"{check} failed: defect {defect:.3g}")
    return defect


def _verdict_table(verdict) -> list[str]:
    lines = [f"{'constraint':<20} {'slack':>24} status"]
    violated = verdict.violated
    for s in verdict.slacks:
        status = "VIOLATED" if s in violated else "ok"
        lines.append(f"{s.label():<20} {s.slack:>24.17g} {status}")
    lines.append(f"{'scale':<20} {verdict.scale:>24.17g}")
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


def cmd_check(args) -> tuple[int, dict, list[str], list]:
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
    slacks = [{"constraint": s.label(), "slack": s.slack} for s in verdict.slacks]
    return (EXIT_OK if verdict.feasible else EXIT_INFEASIBLE,
            _record("check", digest, feasible=verdict.feasible, slacks=slacks, scale=verdict.scale,
                    tol_ineq=verdict.tol_ineq, elapsed=time.perf_counter() - start),
            _verdict_table(verdict), [])


def _synthesized(args, physical: bool = False):
    """Sort --c and --d, synthesize their witness and self-check it before
    anything is written: returns (c, d, trace, defect).  An infeasible pair
    raises ``Infeasible``; with ``physical``, a spectrum below one is an
    input error."""
    from .synthesis import synthesis_defect, synthesize

    c = sorted(_parse_vector(args.c))
    d = sorted(_parse_vector(args.d))
    if physical and below_vacuum(d[0]):
        raise InvalidInput(f"target violates the uncertainty bound: smallest "
                           f"symplectic eigenvalue {d[0]:.17g} is below 1")
    trace = synthesize(c, d, tol_ineq=args.tol_ineq)
    defect = _self_checked("self-verification", synthesis_defect(trace.final_matrix, c, d))
    return c, d, trace, defect


def cmd_synth(args) -> tuple[int, dict, list[str], list]:
    # the synthesis side, numpy included, loads before the clock starts
    from . import synthesis  # noqa: F401
    from .matrixio import format_matrix

    start = time.perf_counter()
    c, d, trace, defect = _synthesized(args)
    files = [(args.out, format_matrix(trace.final_matrix.entries, "covariance"))]
    if args.emit_trace:
        steps = [{"step": "direct_sum", "modes": list(range(trace.n)),
                  "values": [f"{v:.17g}" for v in trace.seed]}]
        steps += [{"step": "two_mode", "modes": list(step.modes),
                   "transform": [[f"{v:.17g}" for v in row] for row in step.transform]}
                  for step in trace.steps]
        files.append((args.emit_trace, "".join(json.dumps(step) + "\n" for step in steps)))
    return (EXIT_OK,
            _record("synth", _digest("synth", c, d), feasible=True, out=args.out, n=len(c),
                    verification_defect=defect, tol_ineq=args.tol_ineq,
                    elapsed=time.perf_counter() - start),
            [f"wrote {args.out} (n={len(c)}, defect {defect:.3g})"], files)


def cmd_williamson(args) -> tuple[int, dict, list[str], list]:
    from .core import interleaved_diagonal, williamson, williamson_defect
    from .matrixio import format_matrix

    start = time.perf_counter()
    cov = _load(args.matrix, "covariance")
    S, d = williamson(cov)
    defect = _self_checked("reconstruction check", williamson_defect(cov, S, d))
    files = [(f"{args.out_prefix}.{part}.mat", format_matrix(values, kind))
             for part, values, kind in (("S", S.entries, "symplectic"),
                                        ("D", interleaved_diagonal(d.values), "covariance"))]
    return (EXIT_OK,
            _record("williamson", _digest("williamson", cov.entries), d=list(d.values),
                    reconstruction_defect=defect, files=[path for path, _ in files],
                    tol_ineq=args.tol_ineq, elapsed=time.perf_counter() - start),
            [f"d = {d.values}", f"defect {defect:.3g}"], files)


def cmd_euler(args) -> tuple[int, dict, list[str], list]:
    from .core import euler_decompose, euler_defect
    from .matrixio import format_matrix

    start = time.perf_counter()
    S = _load(args.matrix, "symplectic")
    factors = euler_decompose(S)
    defect = _self_checked("reconstruction check", euler_defect(S, factors))
    files = [(f"{args.out_prefix}.{part}.mat", format_matrix(values, "symplectic")) for part, values
             in (("O", factors.O.entries), ("Q", factors.q_matrix()), ("V", factors.V.entries))]
    return (EXIT_OK,
            _record("euler", _digest("euler", S.entries), z=list(factors.z),
                    reconstruction_defect=defect, files=[path for path, _ in files],
                    tol_ineq=args.tol_ineq, elapsed=time.perf_counter() - start),
            [f"z = {factors.z}", f"defect {defect:.3g}"], files)


def cmd_entropy(args) -> tuple[int, dict, list[str], list]:
    from .entropy import entropy_report, entropy_s
    if args.matrix:
        from .core import symplectic_eigenvalues
        from .marginals import local_diagonal

    start = time.perf_counter()
    gaussian = {}
    if args.matrix:
        cov = _load(args.matrix, "covariance")
        report = entropy_report(local_diagonal(cov).values, tol_ineq=args.tol_ineq)
        gaussian["gaussian_global_entropy_bits"] = sum(
            map(entropy_s, symplectic_eigenvalues(cov).values.tolist()))
        digest = _digest("entropy", cov.entries)
    else:
        if args.c is None:
            raise InvalidInput("provide --c or --matrix")
        c = sorted(_parse_vector(args.c))
        # entropy_report rejects local values below the vacuum
        report = entropy_report(c, tol_ineq=args.tol_ineq)
        digest = _digest("entropy", c)
    record = _record("entropy", digest, per_mode_bits=list(report.per_mode_entropies),
                     total_local_sum_bits=report.total_local_sum,
                     global_upper_bound_bits=report.global_upper_bound,
                     purity_consistent=report.purity_consistent, **gaussian,
                     tol_ineq=args.tol_ineq, elapsed=time.perf_counter() - start)
    per_mode = ", ".join(f"{v:.12g}" for v in report.per_mode_entropies)
    table = [f"per-mode entropies (bits): {per_mode}",
             f"paper's aggregate s(sum c), not a bound for mixed states (bits): "
             f"{report.global_upper_bound:.12g}"]
    table += [f"Gaussian global entropy (bits): {v:.12g}" for v in gaussian.values()]
    return EXIT_OK, record, table, []


def cmd_prepare(args) -> tuple[int, dict, list[str], list]:
    from .circuits import circuit_from_matrix, circuit_from_mixed, replay_defect, serialize_circuit

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
        c, d, trace, _ = _synthesized(args, physical=True)
        target = trace.final_matrix.entries
        circuit = (circuit_from_matrix(trace.final_matrix) if all(map(at_vacuum, d))
                   else circuit_from_mixed(trace))
        digest = _digest("prepare", c, d)

    defect = _self_checked("replay verification", replay_defect(circuit, target))
    return (EXIT_OK,
            _record("prepare", digest, out=args.out, source=circuit.source,
                    squeezers=[sq.z for sq in circuit.squeezers],
                    passive_elements=len(circuit.passive_ops), replay_defect=defect,
                    tol_ineq=args.tol_ineq, elapsed=time.perf_counter() - start),
            [f"wrote {args.out} ({len(circuit.passive_ops)} passive elements, "
             f"replay defect {defect:.3g})"], [(args.out, serialize_circuit(circuit))])


def cmd_replay(args) -> tuple[int, dict, list[str], list]:
    from .circuits import parse_circuit, replay_circuit
    from .matrixio import format_matrix

    start = time.perf_counter()
    with open(args.circuit) as fh:
        circuit = parse_circuit(fh.read())
    files = [(args.out, format_matrix(replay_circuit(circuit), "covariance"))]
    return (EXIT_OK,
            _record("replay", out=args.out, n=circuit.n, elapsed=time.perf_counter() - start),
            [f"wrote {args.out}"], files)


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


def cmd_verify(args) -> tuple[int, dict, list[str], list]:
    from .verify import run_verification

    corrupt = _flip_sign_corruption if args.self_check_corrupt else None
    summary = run_verification(args.trials, args.n_max, seed=args.seed,
                               squeeze_bound=args.squeeze_bound, corrupt=corrupt,
                               tol_ineq=args.tol_ineq)
    suites = [{"suite": s.name, "trials": s.trials, "violations": s.violations,
               "worst": s.worst, "bound": s.bound} for s in summary.suites]
    record = _record("verify", trials=args.trials, n_max=args.n_max, seed=args.seed,
                     squeeze_bound=args.squeeze_bound, violations=summary.total_violations,
                     suites=suites, tol_ineq=args.tol_ineq, elapsed=summary.elapsed_s)
    table = [f"{'suite':<34} {'trials':>7} {'violations':>11} {'worst':>10} {'bound':>10}"]
    for s in summary.suites:
        worst = "-" if s.worst is None else f"{s.worst:.3g}"
        table.append(f"{s.name:<34} {s.trials:>7} {s.violations:>11} {worst:>10} "
                     f"{s.bound:>10.3g}")
    table.append(f"total violations: {summary.total_violations}")
    return EXIT_OK if summary.total_violations == 0 else EXIT_INFEASIBLE, record, table, []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modematch",
        description="Feasibility, synthesis, and preparation of Gaussian "
                    "covariance matrices with prescribed symplectic spectra "
                    "and local mode data.",
    )
    parser.add_argument("--tol-ineq", type=config.number, default=None,
                        help="inequality slack tolerance, relative to max(1, largest value)")
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
    p.add_argument("--trials", type=integer, default=200)
    p.add_argument("--n-max", type=integer, default=6)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--squeeze-bound", type=config.number, default=5.0)
    p.add_argument("--self-check-corrupt", action="store_true",
                   help="inject a known corruption; the run must then exit 1")
    p.set_defaults(func=cmd_verify)
    return parser


def _write_all(files: list) -> None:
    """Write each (path, text), all the files or none: two paths that resolve to one file,
    unless it is a device or a pipe, are an input error, every path is opened, without
    truncating it, before any is written, and an error removes the files this run made."""
    real = [os.path.realpath(p) for p, _ in files if not os.path.exists(p) or os.path.isfile(p)]
    if len(set(real)) < len(real):
        raise InvalidInput(f"two outputs name one file: {max(real, key=real.count)}")
    made = [path for path, _ in files if not os.path.lexists(path)]
    try:
        with contextlib.ExitStack() as stack:
            handles = [stack.enter_context(open(path, "a")) for path, _ in files]
            for fh, (_, text) in zip(handles, files):
                if os.path.isfile(fh.name):  # a device or a pipe is written as it is
                    fh.truncate(0)
                fh.write(text)
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def main(argv=None) -> int:
    """Run one subcommand, write its files and return its exit code,
    printing the record and table of every outcome, an exception's included."""
    args = build_parser().parse_args(argv)
    try:
        tol_ineq = config.from_environment()
        if args.tol_ineq is not None:
            tol_ineq = config.valid_tol_ineq(args.tol_ineq, "--tol-ineq")
        args.tol_ineq = tol_ineq
        # a subcommand reads one input source: a matrix file, a pure b vector or a (c, d) pair
        given = [", ".join(f"--{f}" for f in source if vars(args).get(f) not in (None, False))
                 for source in (("matrix",), ("pure", "b"), ("c", "d"))]
        if len(clash := [flags for flags in given if flags]) > 1:
            raise InvalidInput(f"{' and '.join(clash)} are separate inputs: give one")
        code, record, table, files = args.func(args)
        _write_all(files)
    except Infeasible as exc:
        code, table = EXIT_INFEASIBLE, []
        record = _record(args.command, feasible=False, error=str(exc), tol_ineq=args.tol_ineq)
    except (ModeMatchError, ValueError, OSError) as exc:
        code = EXIT_INTERNAL if isinstance(exc, NumericalFailure) else EXIT_INPUT
        record, table = _record(args.command, error=str(exc)), [f"error: {exc}"]
    except Exception as exc:  # a bug: its traceback goes to stderr above its error line
        import traceback
        error = f"{type(exc).__name__}: {exc}"
        code, record = EXIT_INTERNAL, _record(args.command, error=error)
        table = [traceback.format_exc().rstrip(), f"error: {error}"]
    print(json.dumps(record))
    if table:
        print("\n".join(table), file=sys.stderr)
    return code


def run() -> None:
    """Run ``main`` on the process arguments and exit with its code.

    Every output file is closed before ``main`` returns, so once stdout and
    stderr are flushed nothing is left to write, and ``os._exit`` skips the
    interpreter teardown.  Only argparse's exits and ``KeyboardInterrupt``
    escape ``main``, and end the process the ordinary way.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
