"""Exception types raised by the library.

Input-validation failures (bad vectors, malformed matrices) and numerical
failures (decompositions that cannot be stabilised) are kept distinct so the
CLI can map them to different exit codes.
"""


class ModeMatchError(Exception):
    """Base class for all library errors."""


class NotPositive(ModeMatchError):
    """Matrix is not strictly positive definite."""


class NotSymplectic(ModeMatchError):
    """Matrix does not preserve the symplectic form within tolerance."""


class SpectralPairingFailure(ModeMatchError):
    """Eigenvalues of the skew spectral problem do not pair into doublets."""


class DegenerateSubspaceFailure(ModeMatchError):
    """Canonical form of the skew kernel could not be stabilised."""


class LengthMismatch(ModeMatchError):
    """Paired vectors have different lengths."""


class NotSorted(ModeMatchError):
    """Vector is not in non-decreasing order."""


class NonPositive(ModeMatchError):
    """Vector entry is not strictly positive."""


class NegativeEntry(ModeMatchError):
    """Vector entry is negative where a non-negative value is required."""


class NonPositiveTemperature(ModeMatchError):
    """Temperature entry is zero or negative."""


class InfeasiblePair(ModeMatchError):
    """The requested local values and spectrum violate the feasibility gate."""


class InfeasibleInput(ModeMatchError):
    """Synthesis input fails the feasibility conditions."""


class ToleranceCollapse(ModeMatchError):
    """A synthesis step lost feasibility by more than the working tolerance.

    The construction keeps every reduced subproblem feasible, so this
    signals a bug or severely ill-conditioned input rather than a bad
    request.
    """


class NumericalFailure(ModeMatchError):
    """An internal numerical consistency check failed."""


class NotPure(ModeMatchError):
    """Matrix is not the covariance of a pure state within tolerance."""


class NotPhysical(ModeMatchError):
    """Matrix violates the uncertainty bound (gamma + i*sigma >= 0)."""


class InvalidTrace(ModeMatchError):
    """A synthesis trace does not replay to its recorded final matrix."""


class NotPassive(ModeMatchError):
    """Matrix is not orthogonal-symplectic within tolerance."""


class BelowOne(ModeMatchError):
    """Entropy argument lies below the physical threshold c = 1."""


class InversionFailure(ModeMatchError):
    """Monotone inversion of the entropy function failed to bracket."""
