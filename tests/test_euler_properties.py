"""Property tests for euler_decompose on the spectra that stress it.

S = O Q V is built from Haar passive O, V around squeezing spectra with
equal values, values 1e-9 apart, near-unit planes (z - 1 down to 1e-13),
exact unit planes and squeezing up to 1e4.  Every factorisation must meet
the reconstruction contract relative to ||S||, return exactly passive
factors and a non-decreasing z >= 1 that matches the drawn spectrum; the
unit planes, the complement of the squeezed ones, come out at z = 1
exactly, and each of O's columns with its exact partner.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modematch import euler_decompose, symplectic_form
from modematch.core import _sigma_left, haar_orthogonal_symplectic

NEAR_UNIT = (1e-6, 1e-10, 1e-13)
PLANE_KINDS = ("equal", "close", "near_unit", "unit", "free")


@st.composite
def spectra(draw):
    """Per-plane squeezing magnitudes mixing the kinds above, n = 1..6."""
    n = draw(st.integers(1, 6))
    base = draw(st.floats(1.0, 3e3))
    z = []
    for j, kind in enumerate(draw(st.lists(st.sampled_from(PLANE_KINDS),
                                           min_size=n, max_size=n))):
        if kind == "equal":
            z.append(base)
        elif kind == "close":
            z.append(base + 1e-9 * (j + 1))
        elif kind == "near_unit":
            z.append(1.0 + draw(st.sampled_from(NEAR_UNIT)))
        elif kind == "unit":
            z.append(1.0)
        else:
            z.append(draw(st.floats(1.0, 3e3)))
    return np.array(z)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(z=spectra(), seed=st.integers(0, 2**32 - 1))
def test_factorisation_contract(z, seed):
    rng = np.random.default_rng(seed)
    n = z.size
    O = haar_orthogonal_symplectic(n, rng)
    V = haar_orthogonal_symplectic(n, rng)
    S = (O * np.column_stack([z, 1.0 / z]).ravel()) @ V
    norm = np.linalg.norm(S, 2)

    factors = euler_decompose(S)

    assert np.max(np.abs(factors.reconstruct() - S)) <= 1e-8 * norm
    sig = symplectic_form(n)
    for block in (factors.O.entries, factors.V.entries):
        assert np.max(np.abs(block @ block.T - np.eye(2 * n))) <= 1e-9
        assert np.max(np.abs(block @ sig @ block.T - sig)) <= 1e-9
    assert np.all(factors.z >= 1.0)
    assert np.all(np.diff(factors.z) >= 0.0)
    np.testing.assert_allclose(factors.z, np.sort(z), rtol=0.0, atol=1e-8 * norm)


def _squeezings(rng, k):
    """k squeezing magnitudes, each near the floor, repeated or strong."""
    kinds = rng.integers(0, 3, k)
    near_floor = 1.0 + rng.uniform(2e-12, 1e-9, k)
    repeated = rng.choice([2.0, 5.0], k)
    strong = rng.uniform(1e3, 1e4, k)
    return np.choose(kinds, [near_floor, repeated, strong])


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 8) for k in range(n + 1)])
def test_unit_planes_complete_the_squeezed_ones(n, k):
    rng = np.random.default_rng([n, k])
    for _ in range(8):
        z = np.concatenate([np.ones(n - k), _squeezings(rng, k)])
        O = haar_orthogonal_symplectic(n, rng)
        V = haar_orthogonal_symplectic(n, rng)
        S = (O * np.column_stack([z, 1.0 / z]).ravel()) @ V

        factors = euler_decompose(S)

        O_f = factors.O.entries
        assert np.max(np.abs(O_f[:, 1::2] + _sigma_left(O_f[:, 0::2]))) <= 1e-15
        assert np.all(np.diff(factors.z) >= 0.0)
        assert np.all(factors.z[: n - k] == 1.0)
        assert np.max(np.abs(factors.reconstruct() - S)) <= 1e-8 * np.linalg.norm(S, 2)
