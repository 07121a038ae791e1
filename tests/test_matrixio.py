import numpy as np
import pytest

from modematch import random_symplectic
from modematch.matrixio import (
    MatrixParseError,
    format_matrix,
    parse_matrix,
    read_matrix,
)


class TestRoundTrip:
    def test_values_identical(self):
        rng = np.random.default_rng(73)
        for n in (1, 3, 6):
            values = rng.standard_normal((2 * n, 2 * n))
            parsed = parse_matrix(format_matrix(values, "covariance"))
            assert parsed.n == n
            assert parsed.kind == "covariance"
            assert np.array_equal(parsed.values, values)

    def test_serialize_is_stable(self):
        values = random_symplectic(2, 3.0, seed=1).entries
        text = format_matrix(values, "symplectic")
        assert format_matrix(parse_matrix(text).values, "symplectic") == text

    def test_file_round_trip(self, tmp_path):
        values = np.diag([1.0, 1.0, 2.5, 2.5])
        path = tmp_path / "g.mat"
        path.write_text(format_matrix(values, "covariance"))
        assert np.array_equal(read_matrix(path).values, values)


class TestValidation:
    def test_reports_offending_row_and_column(self):
        text = "n 1\nordering xpxp\nkind covariance\n1 0\n0 x\n"
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(text)
        assert err.value.row == 2
        assert err.value.column == 2

    def test_reports_short_row(self):
        text = "n 1\nordering xpxp\nkind covariance\n1 0\n0\n"
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(text)
        assert err.value.row == 2

    def test_rejects_wrong_row_count(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("n 2\nordering xpxp\nkind covariance\n1 0 0 0\n")

    def test_rejects_unknown_kind(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("n 1\nordering xpxp\nkind foo\n1 0\n0 1\n")

    def test_rejects_unknown_ordering(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("n 1\nordering xxpp\nkind covariance\n1 0\n0 1\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_value(self, token):
        text = f"n 1\nordering xpxp\nkind covariance\n1 0\n0 {token}\n"
        with pytest.raises(ValueError, match="non-finite") as err:
            parse_matrix(text)
        assert isinstance(err.value, MatrixParseError)
        assert (err.value.row, err.value.column) == (2, 2)

    @pytest.mark.parametrize("token", ["1_5", "\u0661", "2.5_0"])
    def test_rejects_a_value_outside_the_text_rule(self, token):
        # float() reads each of these; the file format holds ASCII decimals without '_'
        text = f"n 1\nordering xpxp\nkind covariance\n1 0\n0 {token}\n"
        with pytest.raises(MatrixParseError, match=f"could not parse value '{token}'") as err:
            parse_matrix(text)
        assert (err.value.row, err.value.column) == (2, 2)

    def test_rejects_a_mode_count_outside_the_text_rule(self):
        with pytest.raises(MatrixParseError, match="header n is not an integer: '1_0'"):
            parse_matrix("n 1_0\nordering xpxp\nkind covariance\n1 0\n0 1\n")

    def test_comment_lines_stay_outside_the_text_rule(self):
        text = "# \u03b3 for mode_0\nn 1\nordering xpxp\nkind covariance\n2 0\n0 2\n"
        assert np.array_equal(parse_matrix(text).values, 2.0 * np.eye(2))

    @pytest.mark.parametrize("gap", ["\u00a0", "\u2003", "\u3000"])
    def test_values_parted_by_non_ascii_whitespace_are_read(self, gap):
        # the text rule holds each value; the whitespace between values is not one
        text = f"n 1\nordering xpxp\nkind covariance\n2{gap}0\n0{gap}2.5\n"
        assert parse_matrix(text).values.tolist() == [[2.0, 0.0], [0.0, 2.5]]

    def test_rejects_missing_header(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("1 0\n0 1\n")

    @pytest.mark.parametrize("header, message", [
        ("n\nordering xpxp\nkind covariance", "malformed header line 'n'"),
        ("n 1\nordering xpxp\nshape covariance", "header is missing 'kind'"),
        ("n one\nordering xpxp\nkind covariance", "header n is not an integer: 'one'"),
        ("n 0\nordering xpxp\nkind covariance", "mode count must be positive, got 0"),
    ], ids=["malformed-line", "missing-key", "non-integer-n", "no-modes"])
    def test_rejects_a_bad_header(self, header, message):
        with pytest.raises(MatrixParseError, match=message):
            parse_matrix(f"{header}\n1 0\n0 1\n")
