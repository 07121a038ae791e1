"""(c, d) and (lambda c, lambda d) are one question, and get one answer.

The paper's conditions are linear and homogeneous in (c, d): if gamma has
local values c and spectrum d, then lambda gamma has lambda c and lambda d.
Scaling by a power of 4 is exact in floating point and keeps square roots
exact, and every tolerance is relative to max(1, the largest value), so on
pairs whose largest value is at least 1 the verdict, the witness and the
self-check defect of (4^k c, 4^k d) are those of (c, d), scaled bitwise.
An exact oracle in fractions holds the gate to the scaled criterion
everywhere outside a rounding band of its threshold, and ``synthesize``
accepts exactly the pairs the gate accepts, however near its threshold.
"""

from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modematch import check_mixed, sample_feasible_pair, synthesize
from modematch.config import TOL_INEQ, TOL_RECON
from modematch.errors import Infeasible
from modematch.synthesis import synthesis_defect

EPS = np.finfo(float).eps
POWERS = (0, 5, 10, 20, 23)

# a pair of unit size, and the same pair times 2^23: at 2^23 an absolute
# tolerance failed its self-check with defect 5.96e-08
NAMED_C = np.array([3.2691580923628942, 6.527019493293565, 7.740844005463358])
NAMED_D = np.array([1.3207857058443837, 2.783291890557957, 3.99711640272775])


def answers(c, d):
    """The verdict, the witness and its self-check defect for (c, d)."""
    witness = synthesize(c, d).final_matrix
    return check_mixed(c, d), witness.entries, synthesis_defect(witness, c, d)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_scaled_pairs_get_scaled_answers(seed, n):
    c, d = sample_feasible_pair(np.random.default_rng(seed), n, physical=True)
    verdict, witness, defect = answers(c, d)
    for k in POWERS:
        scale = 4.0 ** k
        scaled_verdict, scaled_witness, scaled_defect = answers(scale * c, scale * d)
        assert scaled_verdict.feasible == verdict.feasible
        assert [s.slack for s in scaled_verdict.slacks] == [scale * s.slack
                                                           for s in verdict.slacks]
        assert scaled_verdict.scale == scale * verdict.scale
        assert np.array_equal(scaled_witness, scale * witness)
        assert scaled_defect == defect


def test_named_pair_times_two_to_the_23_passes_its_self_check():
    scale = 2.0 ** 23
    verdict, _, defect = answers(scale * NAMED_C, scale * NAMED_D)
    assert verdict.feasible
    assert verdict.scale == scale * NAMED_C[-1]
    assert defect <= TOL_RECON


def exact_slacks(c, d):
    """The gate's slacks and threshold, in exact arithmetic on the floats."""
    c, d = [Fraction(v) for v in c], [Fraction(v) for v in d]
    sum_c, sum_d = list(accumulate(c)), list(accumulate(d))
    slacks = [a - b for a, b in zip(sum_c, sum_d)]
    slacks.append((2 * d[-1] - sum_d[-1]) - (2 * c[-1] - sum_c[-1]))
    return slacks, Fraction(TOL_INEQ) * max(1, c[-1], d[-1])


@st.composite
def threshold_pairs(draw):
    """(c, d) with d spread over three decades at a unit from 1e-3 to 1e14,
    and c moved 0, +-1/2, +-1 or +-2 thresholds off one partial-sum
    condition or off the last condition."""
    n, unit = draw(st.integers(1, 8)), 10.0 ** draw(st.floats(-3.0, 14.0))
    d = np.sort([unit * 10.0 ** draw(st.floats(0.0, 3.0)) for _ in range(n)])
    offset = draw(st.sampled_from((0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)))
    offset *= TOL_INEQ * max(1.0, d[-1])
    c = d.copy()
    if draw(st.booleans()):
        c[draw(st.integers(0, n - 1))] += offset
    else:
        c[-1] -= offset
    return np.sort(c), d


def assert_exact_verdict(c, d):
    verdict = check_mixed(c, d)
    slacks, threshold = exact_slacks(c, d)
    # running sums of k terms err by at most about 2 k^2 eps max
    band = 2 * (len(c) + 1) ** 2 * EPS * max(1.0, c[-1], d[-1])
    for computed, exact in zip(verdict.slacks, slacks):
        assert abs(Fraction(computed.slack) - exact) <= band
    if all(abs(s + threshold) > band for s in slacks):
        assert verdict.feasible == all(s >= -threshold for s in slacks)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pair=threshold_pairs())
def test_verdict_is_the_exact_scaled_criterion(pair):
    assert_exact_verdict(*pair)


@pytest.mark.parametrize("power", [0, 23])
def test_named_pair_verdict_is_the_exact_scaled_criterion(power):
    assert_exact_verdict(NAMED_C * 2.0 ** power, NAMED_D * 2.0 ** power)


# partial_sum(1) half a threshold below zero: the two-mode step that pairs
# c_1 with d_1 sees twice that in its spread gap
NEAR_C = np.array([1.9995, 3.0005, 1e6])
NEAR_D = np.array([2.0, 3.0, 1e6])


def assert_synthesize_agrees(c, d):
    """synthesize builds a witness that passes its self-check for every pair
    the gate accepts, and raises Infeasible for every pair it rejects."""
    if check_mixed(c, d).feasible:
        assert synthesis_defect(synthesize(c, d).final_matrix, c, d) <= TOL_RECON
    else:
        with pytest.raises(Infeasible):
            synthesize(c, d)


@st.composite
def near_threshold_pairs(draw):
    """(c, d) with d spread over up to six decades, and c moved a fraction of
    a threshold, or one and a half, off the boundary c = d: one entry up or
    down, or a transfer from one entry to another."""
    n = draw(st.integers(2, 8))
    d = np.sort([10.0 ** draw(st.floats(0.0, 6.0)) for _ in range(n)])
    offset = TOL_INEQ * d[-1] * draw(st.sampled_from((0.25, 0.5, 0.75, 0.9, 1.0, 1.5)))
    c = d.copy()
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        c[i] += draw(st.sampled_from((-1.0, 1.0))) * offset
    else:
        c[i], c[j] = c[i] - offset, c[j] + offset
    return np.sort(c), d


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pair=near_threshold_pairs())
def test_synthesize_accepts_what_the_gate_accepts(pair):
    assert_synthesize_agrees(*pair)


@pytest.mark.parametrize("power", [0, 5, 10])
def test_near_pair_is_accepted_by_gate_and_synthesize(power):
    c, d = NEAR_C * 4.0 ** power, NEAR_D * 4.0 ** power
    assert check_mixed(c, d).feasible
    assert_synthesize_agrees(c, d)
