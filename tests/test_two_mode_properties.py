"""Property tests for solve_two_mode on its two special cases.

c = d sits on both pair-inequality boundaries at once, and the couplings
must be exactly zero.  A pair on one boundary, the sum one
(c1 + c2 = d1 + d2) or the spread one (d2 - d1 = c2 - c1), is a double
root for (e^2, f^2): e = f or e = -f, as in a beam splitter or a two-mode
squeezer, and the couplings must have bitwise equal magnitudes.  In both
cases the closed form maps the couplings back to d within 1e-10 relative.
An ordered pair outside the pair inequalities raises Infeasible, a
misordered or non-positive one InvalidInput.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modematch import solve_two_mode, two_mode_eigenvalues_closed_form
from modematch.config import TOL_INEQ
from modematch.errors import Infeasible, InvalidInput

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

magnitudes = st.floats(-2.0, 2.0).map(lambda t: 10.0 ** t)
fractions = st.floats(0.0, 0.99)


@st.composite
def ordered_pairs(draw):
    """(v1, v2) with v1 <= v2, equal half the time."""
    v1 = draw(magnitudes)
    return (v1, v1) if draw(st.booleans()) else tuple(sorted((v1, draw(magnitudes))))


@st.composite
def boundary_pairs(draw):
    """(c1, c2, d1, d2) with d1 = c1 (1 - t) on the sum or spread boundary."""
    c1, c2 = draw(ordered_pairs())
    d1 = c1 * (1.0 - draw(fractions))
    d2 = (c1 + c2) - d1 if draw(st.booleans()) else d1 + (c2 - c1)
    return c1, c2, d1, d2


def assert_reproduces(c1, c2, d1, d2, block):
    got = two_mode_eigenvalues_closed_form(c1, c2, block.e, block.f)
    np.testing.assert_allclose(got, (d1, d2), rtol=1e-10, atol=0)


@SETTINGS
@given(c=ordered_pairs())
def test_equal_targets_are_exactly_uncoupled(c):
    block = solve_two_mode(*c, *c)
    assert block.e == 0.0 and block.f == 0.0
    assert_reproduces(*c, *c, block)


@SETTINGS
@given(args=boundary_pairs())
def test_boundary_couplings_have_equal_magnitudes(args):
    block = solve_two_mode(*args)
    assert abs(block.e) == abs(block.f)
    assert_reproduces(*args, block)


@SETTINGS
@given(a=magnitudes, c=ordered_pairs(), t=st.floats(1e-6, 0.99), spread=st.booleans())
def test_violated_pair_inequality_is_infeasible(a, c, t, spread):
    if spread:
        # equal sums, but c spreads by 2 a t while d = (a, a) does not
        c, d = (a - a * t, a + a * t), (a, a)
    else:
        # d is c scaled up: the spread condition holds, the sum one fails
        d = (c[0] * (1.0 + t), c[1] * (1.0 + t))
    assert min(sum(c) - sum(d), (d[1] - d[0]) - (c[1] - c[0])) < -TOL_INEQ
    with pytest.raises(Infeasible, match="pair inequalities violated"):
        solve_two_mode(*c, *d)


@SETTINGS
@given(c=ordered_pairs(), d=ordered_pairs(), which=st.sampled_from(["c", "d", "zero"]))
def test_misordered_or_non_positive_input_is_invalid(c, d, which):
    if which == "zero":
        c = (0.0, c[1])
    elif which == "c":
        c = (2.0 * c[1], c[1])
    else:
        d = (2.0 * d[1], d[1])
    with pytest.raises(InvalidInput, match="0 < c1 <= c2"):
        solve_two_mode(*c, *d)
