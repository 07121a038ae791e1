"""Exception types raised by the library, one per outcome.

A request is invalid (``InvalidInput``, also a ``ValueError``), or it is
infeasible (``Infeasible``), or the construction broke on a valid request
(``NumericalFailure``).  The CLI exits 2 on the first, 1 on the second
where synth and prepare report it as a verdict (2 elsewhere), and 3 on the
third.
"""


class ModeMatchError(Exception):
    """Base class for all library errors."""


class InvalidInput(ModeMatchError, ValueError):
    """The input is malformed or violates a precondition: a matrix that is
    not symmetric, positive, symplectic, passive, physical or pure, or a
    vector of the wrong length, order, sign or range."""


class Infeasible(ModeMatchError):
    """Valid local values and spectrum violate the feasibility gate."""


class NumericalFailure(ModeMatchError):
    """A valid request broke an internal numerical consistency check.

    The construction keeps every step well posed, so this signals a bug or
    severely ill-conditioned input rather than a bad request.
    """
