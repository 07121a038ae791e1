"""Numerical tolerances and the input rules.

Six tolerances are fixed constants.  One, the feasibility slack
``tol_ineq``, is settable: the functions that evaluate the feasibility
inequalities take it as a keyword, defaulting to ``TOL_INEQ``, and the CLI
reads it from ``--tol-ineq`` or the ``MODEMATCH_TOL_INEQ`` environment
variable (a decimal value).  Wherever it enters, ``valid_tol_ineq`` requires
it to be finite and positive.

The input rules state once what the library accepts, and the modules that
take input apply them: ``real_float`` for real numbers, of which a bool,
Python's or numpy's, scalar, entry or dtype, is none; ``number`` for
numbers read from text, ASCII decimals without ``_``; ``_as_vector`` for
per-mode vectors, ``_square_input`` for matrices, ``_mode_input`` for mode
counts, circuits and traces, ``_generator`` for random seeds and ``_finite``
for circuit element values.  ``check --c --d`` loads this module, so numpy
is imported only inside the functions that need it.
"""

import math
import numbers
import os

from .errors import InvalidInput

ENV_TOL_INEQ = "MODEMATCH_TOL_INEQ"

# symmetry defect, relative to max(1, matrix max-norm)
TOL_SYM = 1e-10
# max-norm of S sigma S^T - sigma, relative to max(1, max|S|^2), since the
# form is quadratic in S
TOL_SYMPL = 1e-10
# slack of a symplectic or local mode value against the vacuum value 1
TOL_PSD = 1e-9
# allowed self-check defect, relative to max(1, the largest entry checked)
TOL_RECON = 1e-8
# relative tolerance for pairing the skew spectrum into doublets, scaled by
# the largest symplectic eigenvalue
TOL_PAIR_REL = 1e-8
# max-norm of Q Q^T - I, absolute since Q's entries are at most 1, for the
# skew kernel's basis, and each of a passive transform's three defects
TOL_ORTH = 1e-8
# default slack below which a feasibility inequality counts as violated, as a
# fraction of max(1, the largest value of the pair judged)
TOL_INEQ = 1e-9


def real_float(value, what: str) -> float:
    """A real number, by type, as a Python float: a ``float``, or any other
    ``numbers.Real`` but a bool (ints, fractions, numpy's real scalars)
    through ``float()``, an int or fraction past the float range as +/-inf.
    Bools, complex values, text, ``Decimal``, None, sequences, numpy's bool
    and 0-d arrays are not."""
    if value.__class__ is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInput(f"{what} must be real, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def valid_tol_ineq(value, what: str = "tol_ineq") -> float:
    """The feasibility slack tolerance, which must be finite and positive."""
    value = real_float(value, what)
    if not 0.0 < value < math.inf:
        raise InvalidInput(f"{what} must be finite and positive, got {value}")
    return value


def number(text: str, kind=float):
    """The number a text spells, read by ``kind``, ``float`` or ``int``: the
    text rule.  Python's readers also take ``_`` between digits (``1_5`` as
    15) and non-ASCII digits, so a text holding either raises InvalidInput;
    ``kind=str`` applies the rule alone, to a whole text.  Any other text
    ``kind`` refuses raises its ``ValueError``; nan and inf are read, for
    the caller's finiteness check."""
    if "_" in text or not text.isascii():
        raise InvalidInput(f"{text!r} is not an ASCII decimal without '_'")
    return kind(text)


def from_environment() -> float:
    """The feasibility slack tolerance, from the environment if it is set."""
    raw = os.environ.get(ENV_TOL_INEQ)
    if raw is None:
        return TOL_INEQ
    try:
        value = number(raw)
    except ValueError:
        raise InvalidInput(f"{ENV_TOL_INEQ} must be a decimal value, got {raw!r}") from None
    return valid_tol_ineq(value, ENV_TOL_INEQ)


def _as_vector(values, what: str) -> list:
    """The vector rule: a non-empty 1-d vector of finite values, as a list
    of Python floats.

    Vectors here have one entry per mode, so checks and reductions run on
    floats: at these sizes each numpy dispatch costs more than the work.  An
    array goes through ``tolist()``; any other iterable of reals, a
    spectrum's Python floats included, goes through ``real_float``.
    """
    ndim = getattr(values, "ndim", None)
    if ndim is None:
        if isinstance(values, (str, bytes)):
            raise InvalidInput(f"{what} must be a non-empty 1-d vector")
        try:
            out = list(values)
        except TypeError:  # a scalar or None
            raise InvalidInput(f"{what} must be a non-empty 1-d vector") from None
        out = _real_entries(out, what)
    elif ndim == 1:
        out = values.tolist()
        # a float64 array lists Python floats already
        if values.dtype.char != "d":
            out = _real_entries(out, what)
    else:
        raise InvalidInput(f"{what} must be a non-empty 1-d vector")
    if not out:
        raise InvalidInput(f"{what} must be a non-empty 1-d vector")
    if not all(map(math.isfinite, out)):
        raise InvalidInput(f"{what} has non-finite entries")
    return out


def _real_entries(items: list, what: str) -> list:
    """The entries as Python floats (``real_float``); a nested sequence makes
    the vector not 1-d, and any other entry that is no real number not real."""
    try:
        return [real_float(v, what) for v in items]
    except InvalidInput:
        nested = any(hasattr(v, "__iter__") and not isinstance(v, (str, bytes)) for v in items)
        raise InvalidInput(f"{what} must be a non-empty 1-d vector" if nested
                           else f"{what} must have real entries") from None


def _check_positive_sorted(values: list, what: str):
    """Require a list of floats to be strictly positive and non-decreasing."""
    if min(values) <= 0:
        raise InvalidInput(f"{what} must be strictly positive")
    if any(b < a for a, b in zip(values, values[1:])):
        raise InvalidInput(f"{what} must be non-decreasing")


def _check_total(total: float, what: str):
    """Require twice a total to be finite: no slack forms more than that."""
    if not math.isfinite(2.0 * total):
        raise InvalidInput(f"{what} is too large: its total must stay below 8.99e+307")


def _square_input(entries, what: str):
    """The matrix rule: real entries, square, of positive even size and
    finite.  An array is real by dtype kind: integer and float arrays are
    cast, an object array is read entry by entry under ``real_float``, and
    other kinds, bool, complex and string included, are not real.  Any other
    container is read as an object array, since numpy would cast a bool or
    a 0-d array among numbers; a ragged nesting is no array.  Returns
    (array, n, scale) with scale = max(1, max-norm); NaN and +/-inf
    propagate through the max, so one reduction serves both the finiteness
    check and the scale.  An empty matrix has no max, so size 0 is rejected
    with the odd sizes."""
    import numpy as np
    if entries.__class__ is not np.ndarray or entries.dtype.char != "d":
        try:
            arr = np.asarray(entries)
            if not isinstance(entries, np.ndarray):
                arr = np.asarray(entries, dtype=object)
        except ValueError:  # numpy refuses a ragged nesting, unless dtype=object
            raise InvalidInput(f"{what} must be a rectangular array") from None
        if arr.dtype.kind == "O":
            try:
                arr = np.array([real_float(v, what) for v in arr.flat]).reshape(arr.shape)
            except InvalidInput:  # the message below names the array, not the entry
                pass
        if arr.dtype.kind not in "iuf":
            raise InvalidInput(f"{what} must have real entries")
        entries = arr.astype(float, copy=False)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise InvalidInput(f"{what} must be a square matrix, got shape {entries.shape}")
    if entries.shape[0] == 0 or entries.shape[0] % 2 != 0:
        raise InvalidInput(f"{what} must have positive even dimension, got {entries.shape[0]}")
    # as ``core._max_abs``: the ufunc skips ndarray.max's wrapper and propagates NaN
    scale = float(np.maximum.reduce(np.abs(entries), axis=None))
    if not math.isfinite(scale):
        raise InvalidInput(f"{what} has non-finite entries")
    return entries, entries.shape[0] // 2, max(1.0, scale)


def _int_at_least(value, low: int = 1) -> bool:
    """Whether a value is an integer by type, Python's or numpy's but not a
    bool, and at least ``low``: by default a positive integer."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def _mode_input(n, seed=None, modes=(), pairs=()):
    """The mode rule behind every mode count, circuit and trace: n is a
    positive integer (``_int_at_least``); a seed, unless None, is a vector
    (``_as_vector``) of n positive values; each entry of ``modes`` and of
    the ``pairs`` is an integer in 0..n-1, and a pair is a tuple of two
    different modes.  Returns a read-only float64 copy of the seed."""
    if not _int_at_least(n):
        raise InvalidInput(f"mode count {n} is not a positive integer")
    if seed is not None:
        values = _as_vector(seed, "seed")
        if len(values) != n:
            raise InvalidInput(f"seed has {len(values)} values for {n} modes")
        if min(values) <= 0:
            raise InvalidInput(f"seed values must be finite and positive, got {values}")
        import numpy as np
        seed = np.array(values)
        seed.setflags(write=False)
    bad = [p for p in pairs if not (isinstance(p, tuple) and len(p) == 2 and p[0] != p[1])]
    if bad:
        raise InvalidInput(f"modes {bad[0]!r} are not a tuple of two distinct modes")
    bad = [m for group in (modes, *pairs) for m in group if not (_int_at_least(m, 0) and m < n)]
    if bad:
        raise InvalidInput(f"mode {bad[0]} is outside 0..{n - 1}")
    return seed


def _generator(seed) -> "np.random.Generator":
    """The random generator of a seed: a Generator is used as it is, and
    anything else goes to ``np.random.default_rng``.  A bool, or a list,
    tuple or array seed with an entry that is no non-negative integer
    (``_int_at_least``), a bool or a nested sequence among them, raises
    InvalidInput, and so does a seed numpy refuses, such as a fraction or a
    negative integer."""
    import numpy as np
    if isinstance(seed, np.random.Generator):
        return seed
    entries = seed.tolist() if isinstance(seed, np.ndarray) else seed
    if isinstance(entries, bool):
        raise InvalidInput(f"seed {seed!r} is not a valid random seed: a bool is no integer")
    if isinstance(entries, (list, tuple)):
        bad = [v for v in entries if not _int_at_least(v, 0)]
        if bad:
            raise InvalidInput(f"seed {seed!r} is not a valid random seed: entry {bad[0]!r} "
                               "is no non-negative integer")
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"seed {seed!r} is not a valid random seed: {exc}") from None


def _finite(value) -> bool:
    """Whether a circuit element's value is a finite real number (``real_float``)."""
    try:
        return math.isfinite(real_float(value, "element value"))
    except InvalidInput:
        return False
