"""Property tests for the feasibility gate near the boundary of its cone.

d is a sorted spectrum with clusters of equal values and entries spread
over 1e-3 .. 1e3.  c starts at d, which sits on every boundary at once,
and is moved 0, +-1/2, +-1 or +-3 thresholds off one partial-sum condition
or off the last condition, where the threshold is tol_ineq times
max(1, c_n, d_n) (1 + max b for a pure pair).  Half a threshold below the
boundary tells that threshold from an absolute tol_ineq once the scale
exceeds 2; one and three thresholds fall on the same side of both.  The
gate must reproduce a numpy reference:
the partial-sum slacks bitwise (both are running sums in index order), the
last slack within 4 ulp of sum(c + d), since its totals may be summed in
another order, and the verdict everywhere outside that rounding band.
The entropy report's purity test must be the pure gate's verdict exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from modematch import SpectrumVector, check_mixed, check_pure, entropy_report
from modematch.config import TOL_INEQ as TOL

OFFSETS = (0.0, 0.5 * TOL, -0.5 * TOL, TOL, -TOL, 3.0 * TOL, -3.0 * TOL)
EPS = np.finfo(float).eps


@st.composite
def spectra(draw):
    """Sorted d, n = 1..8, each entry a repeat of the last (a cluster) or
    log-uniform in [1e-3, 1e3]."""
    n = draw(st.integers(1, 8))
    values = []
    for _ in range(n):
        if values and draw(st.booleans()):
            values.append(values[-1])
        else:
            values.append(10.0 ** draw(st.floats(-3.0, 3.0)))
    return np.sort(values)


@st.composite
def boundary_pairs(draw):
    """(c, d) with c a few thresholds from one chosen boundary of the cone."""
    d = draw(spectra())
    n = d.size
    offset = draw(st.sampled_from(OFFSETS)) * max(1.0, d[-1])
    c = d.copy()
    if draw(st.booleans()):
        # partial sum k gains the offset, and so do all later ones
        c[draw(st.integers(0, n - 1))] += offset
    else:
        # the last slack (2 d_n - sum d) - (2 c_n - sum c) becomes the offset
        c[-1] -= offset
    return np.sort(c), d


def reference_slacks(c, d):
    partial = np.cumsum(c) - np.cumsum(d)
    last = (2.0 * d[-1] - np.sum(d)) - (2.0 * c[-1] - np.sum(c))
    return partial, float(last)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pair=boundary_pairs(), wrapped=st.booleans())
def test_slacks_and_verdict_match_numpy_reference(pair, wrapped):
    c, d = pair
    args = (SpectrumVector(c), SpectrumVector(d)) if wrapped else (c, d)
    verdict = check_mixed(*args)
    partial, last = reference_slacks(c, d)
    band = 4.0 * EPS * float(np.sum(c + d))

    values = [s.slack for s in verdict.slacks]
    assert len(values) == c.size + 1
    assert np.array_equal(values[:-1], partial)
    assert abs(values[-1] - last) <= band

    reference = np.append(partial, last)
    threshold = TOL * max(1.0, c[-1], d[-1])
    assert verdict.scale == max(1.0, c[-1], d[-1])
    if np.all(np.abs(reference + threshold) > band):
        assert verdict.feasible == bool(np.all(reference >= -threshold))
    assert verdict.feasible == (not verdict.violated)
    assert verdict.min_slack == min(values)


@st.composite
def pure_boundary(draw, offsets=OFFSETS):
    """Sorted b >= 0 whose largest entry sits a few thresholds from the sum
    of the others."""
    rest = draw(spectra())
    offset = draw(st.sampled_from(offsets)) * (1.0 + float(np.sum(rest)))
    top = max(float(np.sum(rest)) - offset, float(rest[-1]))
    return np.append(rest, top)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(b=pure_boundary())
def test_pure_slack_and_verdict_match_numpy_reference(b):
    verdict = check_pure(b)
    slack = float(np.sum(b) - 2.0 * np.max(b))
    band = 4.0 * EPS * float(np.sum(b))

    threshold = TOL * (1.0 + float(np.max(b)))

    (only,) = verdict.slacks
    assert only.index == int(np.argmax(b))
    assert abs(only.slack - slack) <= band
    assert verdict.scale == 1.0 + float(np.max(b))
    if abs(slack + threshold) > band:
        assert verdict.feasible == (slack >= -threshold)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(b=pure_boundary((0.0, TOL, -TOL, 2.0 * TOL, -2.0 * TOL)))
def test_entropy_purity_is_the_pure_gate_verdict(b):
    c = b + 1.0
    assert entropy_report(c=c).purity_consistent == check_pure(c - 1.0).feasible
