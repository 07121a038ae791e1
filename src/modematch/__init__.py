"""Feasibility and synthesis of Gaussian covariance matrices with prescribed
symplectic spectra and local mode data.

The public names below are loaded on first access (PEP 562): ``import
modematch`` costs nothing beyond the package itself, and
``modematch.check_mixed`` imports only the submodules it needs.  A resolved
name is cached as a plain module attribute.
"""

import importlib

__version__ = "0.1.0"

# exported name -> submodule that defines it
_EXPORTS = {
    "CovarianceMatrix": "core",
    "EntropyReport": "entropy",
    "EulerFactors": "core",
    "FeasibilityVerdict": "gate",
    "LocalDiagonal": "marginals",
    "PreparationCircuit": "circuits",
    "SpectrumVector": "core",
    "SymplecticTransform": "core",
    "SynthesisTrace": "synthesis",
    "b_to_temperature": "marginals",
    "check_matrix_consistency": "marginals",
    "check_mixed": "gate",
    "check_pure": "gate",
    "circuit_from_matrix": "circuits",
    "circuit_from_mixed": "circuits",
    "circuit_from_pure": "circuits",
    "entanglement_profile": "entropy",
    "entropy_report": "entropy",
    "entropy_s": "entropy",
    "entropy_s_inverse": "entropy",
    "euler_decompose": "core",
    "local_diagonal": "marginals",
    "parse_circuit": "circuits",
    "passive_to_two_mode_rotations": "circuits",
    "random_symplectic": "core",
    "replay_circuit": "circuits",
    "replay_trace": "synthesis",
    "sample_feasible_pair": "synthesis",
    "serialize_circuit": "circuits",
    "sharing_feasible": "entropy",
    "solve_two_mode": "synthesis",
    "symplectic_eigenvalues": "core",
    "symplectic_form": "core",
    "synthesize": "synthesis",
    "synthesize_pure": "synthesis",
    "temperature_to_b": "marginals",
    "two_mode_eigenvalues_closed_form": "synthesis",
    "williamson": "core",
}

_SUBMODULES = frozenset({
    "circuits", "cli", "config", "core", "entropy", "errors", "gate",
    "marginals", "matrixio", "synthesis", "verify",
})

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # importing a submodule binds it on the package as a side effect
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
