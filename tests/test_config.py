"""One settable tolerance: the feasibility slack ``tol_ineq``.

The other tolerances are constants in ``modematch.config``.  Only the
functions that evaluate the feasibility inequalities take ``tol_ineq``, as a
keyword, and each rejects a value that is not finite and positive.
"""

import inspect
import math

import numpy as np
import pytest

import modematch
from modematch import config
from modematch.errors import InvalidInput
from modematch.verify import run_verification

TAKES_TOL_INEQ = {
    "check_mixed": lambda tol: modematch.check_mixed([1.5, 1.5], [1.0, 2.0], tol_ineq=tol),
    "check_pure": lambda tol: modematch.check_pure([0.5, 0.5], tol_ineq=tol),
    "check_matrix_consistency": lambda tol: modematch.check_matrix_consistency(
        np.eye(4), tol_ineq=tol),
    "solve_two_mode": lambda tol: modematch.solve_two_mode(1.5, 1.5, 1.0, 2.0, tol_ineq=tol),
    "synthesize": lambda tol: modematch.synthesize([1.5, 1.5], [1.0, 2.0], tol_ineq=tol),
    "synthesize_pure": lambda tol: modematch.synthesize_pure([0.5, 0.5], tol_ineq=tol),
    "entropy_report": lambda tol: modematch.entropy_report(c=[1.5, 1.5], tol_ineq=tol),
    "sharing_feasible": lambda tol: modematch.sharing_feasible([0.5, 0.5], tol_ineq=tol),
    "run_verification": lambda tol: run_verification(1, 2, seed=0, tol_ineq=tol),
}


def test_defaults():
    assert (config.TOL_SYM, config.TOL_SYMPL, config.TOL_PSD,
            config.TOL_RECON, config.TOL_PAIR_REL, config.TOL_INEQ) == (
        1e-10, 1e-10, 1e-9, 1e-8, 1e-8, 1e-9)


def test_only_the_feasibility_functions_take_a_tolerance():
    functions = {name: getattr(modematch, name) for name in modematch.__all__}
    functions["run_verification"] = run_verification
    taking = set()
    for name, fn in functions.items():
        if not callable(fn) or inspect.isclass(fn):
            continue
        params = inspect.signature(fn).parameters
        assert "tol" not in params, name
        if "tol_ineq" in params:
            taking.add(name)
            assert params["tol_ineq"].kind is inspect.Parameter.KEYWORD_ONLY, name
            assert params["tol_ineq"].default == config.TOL_INEQ, name
    assert taking == set(TAKES_TOL_INEQ)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
@pytest.mark.parametrize("name", TAKES_TOL_INEQ)
def test_rejects_a_tolerance_that_is_not_finite_and_positive(name, value):
    with pytest.raises(InvalidInput, match="tol_ineq must be finite and positive"):
        TAKES_TOL_INEQ[name](value)


@pytest.mark.parametrize("name", TAKES_TOL_INEQ)
def test_accepts_a_finite_positive_tolerance(name):
    TAKES_TOL_INEQ[name](1e-6)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-1", "abc"])
def test_environment_value_must_be_finite_and_positive(raw, monkeypatch):
    monkeypatch.setenv(config.ENV_TOL_INEQ, raw)
    with pytest.raises(InvalidInput, match=config.ENV_TOL_INEQ):
        config.from_environment()


def test_environment_default_and_override(monkeypatch):
    monkeypatch.delenv(config.ENV_TOL_INEQ, raising=False)
    assert config.from_environment() == config.TOL_INEQ
    monkeypatch.setenv(config.ENV_TOL_INEQ, "1e-3")
    assert config.from_environment() == 1e-3


@pytest.mark.parametrize("text", ["1_5", "1_5.0", "1e1_0", "\u0661", "\uff11.5"])
@pytest.mark.parametrize("kind", [float, int])
def test_number_text_is_an_ascii_decimal_without_underscores(text, kind):
    # Python's float and int read each of these: 1_5 as 15, the non-ASCII digits as digits
    with pytest.raises(InvalidInput, match="is not an ASCII decimal without '_'"):
        config.number(text, kind)


def test_number_reads_what_float_and_int_read():
    assert config.number("1.5") == 1.5 and config.number("-2e3") == -2000.0
    assert config.number(" 7 ", int) == 7
    assert math.isnan(config.number("nan")) and config.number("-inf") == -math.inf
    # kind=str applies the rule alone, to a whole text
    assert config.number("1 2.5\n3", str) == "1 2.5\n3"
    with pytest.raises(InvalidInput):
        config.number("1 2\n1_5", str)
    with pytest.raises(ValueError, match="could not convert string to float: ''"):
        config.number("")
    with pytest.raises(ValueError, match="invalid literal for int"):
        config.number("1.5", int)


def test_environment_value_is_read_under_the_text_rule(monkeypatch):
    monkeypatch.setenv(config.ENV_TOL_INEQ, "1_0e-9")
    with pytest.raises(InvalidInput, match=f"{config.ENV_TOL_INEQ} must be a decimal value"):
        config.from_environment()
