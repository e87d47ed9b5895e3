import random
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rendezvous import (
    BoolMatrix,
    MatrixSet,
    SetFileError,
    builtin_set,
    parse_set_file,
    parse_set_text,
    serialize_set,
)
from rendezvous.cli import main

from helpers import digit_row_mask

DATA = Path(__file__).parent / "data"


class TestRoundTrip:
    def test_builtins_round_trip(self):
        for name in ("example", "cpr", "kari"):
            mset = builtin_set(name)
            assert parse_set_text(serialize_set(mset)) == mset

    def test_drawn_sets_round_trip(self):
        # Widths on both sides of a machine word; rows of plain 0/1 take
        # the parser's base-2 path.
        rng = random.Random(17)
        for n in (1, 2, 7, 63, 64, 65, 130):
            for _ in range(4):
                gens = [
                    BoolMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
                    for _ in range(rng.randint(1, 3))
                ]
                mset = MatrixSet.of(gens)
                assert parse_set_text(serialize_set(mset)) == mset

    def test_golden_files_match_builtins(self):
        for name in ("example", "cpr", "kari"):
            parsed = parse_set_file(DATA / f"{name}.set")
            assert parsed == builtin_set(name)


class TestGoldenEntries:
    def test_example_matrices_entry_for_entry(self):
        mset = builtin_set("example")
        assert mset.generators[0] == BoolMatrix.from_rows(
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        )
        assert mset.generators[1] == BoolMatrix.from_rows(
            [[0, 1, 0], [1, 0, 1], [0, 0, 1]]
        )

    def test_cpr_matrices_entry_for_entry(self):
        mset = builtin_set("cpr")
        assert mset.generators[0] == BoolMatrix.from_rows(
            [[0, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]
        )
        assert mset.generators[1] == BoolMatrix.from_rows(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]]
        )

    def test_kari_matrices_entry_for_entry(self):
        mset = builtin_set("kari")
        assert mset.generators[0] == BoolMatrix.from_rows(
            [
                [1, 0, 0, 1, 0, 0],
                [0, 1, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 1, 0],
                [0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 0, 1],
            ]
        )
        assert mset.generators[1] == BoolMatrix.from_rows(
            [
                [0, 0, 0, 0, 1, 0],
                [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 1, 0, 0],
                [0, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 1],
                [1, 0, 0, 0, 0, 0],
            ]
        )

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_set("cerny")


class TestParsing:
    def test_magnitudes_normalize_to_one(self):
        mset = parse_set_text("2 1\n\n29\n70\n")
        assert mset.generators[0] == BoolMatrix.from_rows([[1, 1], [1, 0]])

    def test_short_row_reports_line_number(self):
        text = "4 1\n\n0010\n110\n1000\n0001\n"
        with pytest.raises(SetFileError) as err:
            parse_set_text(text)
        assert err.value.line == 4
        assert "3 characters" in str(err.value)

    def test_bad_character_reports_line_number(self):
        with pytest.raises(SetFileError) as err:
            parse_set_text("2 1\n\n10\nx1\n")
        assert err.value.line == 4

    def test_mixed_rows_parse_entry_by_entry(self):
        # Plain 0/1 rows beside rows with magnitudes and non-ASCII digits.
        text = "3 2\n\n# a\n101\n301\n010\n\n# b\n0\u00b20\n001\n110\n"
        mset = parse_set_text(text)
        assert mset.generators == (
            BoolMatrix.from_rows([[1, 0, 1], [1, 0, 1], [0, 1, 0]]),
            BoolMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 1, 0]]),
        )
        assert mset.labels == ("a", "b")

    @pytest.mark.parametrize("row, char", [("0x1", "x"), ("1_0", "_"), ("1 0", " ")])
    def test_bad_character_after_plain_rows(self, row, char):
        # ``int(_, 2)`` would take "1_0"; such rows must keep the digit check.
        text = f"3 2\n\n# a\n101\n301\n010\n\n# b\n011\n{row}\n001\n"
        with pytest.raises(SetFileError) as err:
            parse_set_text(text)
        assert err.value.line == 10
        assert str(err.value) == f"line 10: invalid character {char!r} in matrix row"

    def test_matrix_count_mismatch(self):
        with pytest.raises(SetFileError) as err:
            parse_set_text("2 2\n\n10\n01\n")
        assert "promises 2" in str(err.value)

    def test_incomplete_matrix(self):
        with pytest.raises(SetFileError):
            parse_set_text("3 1\n\n010\n001\n")

    def test_missing_header(self):
        with pytest.raises(SetFileError):
            parse_set_text("# only a comment\n")

    def test_bad_header(self):
        with pytest.raises(SetFileError):
            parse_set_text("3\n")

    def test_crlf_tolerated(self):
        text = "2 1\r\n\r\n# a\r\n10\r\n01\r\n"
        mset = parse_set_text(text)
        assert mset.generators[0] == BoolMatrix.identity(2)
        assert mset.labels == ("a",)

    def test_labels_default_when_no_comments(self):
        mset = parse_set_text("2 2\n\n10\n01\n\n01\n10\n")
        assert mset.labels == ("M1", "M2")

    def test_comment_labels_only_the_next_matrix(self):
        mset = parse_set_text("2 2\n\n10\n01\n\n# swap\n01\n10\n")
        assert mset.labels == ("M1", "swap")

    def test_blank_line_between_matrices_optional(self):
        mset = parse_set_text("2 2\n10\n01\n01\n10\n")
        assert mset.m == 2

    def test_missing_file(self):
        with pytest.raises(SetFileError):
            parse_set_file(DATA / "does-not-exist.set")


class TestDigitRule:
    @pytest.mark.parametrize("row", ["1\u0660", "\uff101", "\u20701"])
    def test_zero_in_any_script_reads_as_zero(self, row):
        # ARABIC-INDIC DIGIT ZERO, FULLWIDTH DIGIT ZERO, SUPERSCRIPT ZERO.
        mset = parse_set_text(f"2 1\n\n{row}\n11\n")
        assert mset.generators[0].rows == (digit_row_mask(row), 0b11)
        assert digit_row_mask(row) in (0b01, 0b10)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        text = (DATA / "cpr.set").read_text(encoding="utf-8")
        path = tmp_path / "bom.set"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert parse_set_file(path) == parse_set_text(text) == builtin_set("cpr")
        assert parse_set_text("\ufeff" + text) == builtin_set("cpr")

    @pytest.mark.parametrize("header", ["1_0 1", "+2 1", "-2 1", "\u00b2 1"])
    def test_header_fields_are_digits_only(self, header):
        with pytest.raises(SetFileError) as err:
            parse_set_text(f"{header}\n\n10\n01\n")
        assert str(err.value) == "line 1: header must be two integers: n m"

    def test_header_reads_digits_of_any_script_by_value(self):
        mset = parse_set_text("\u0662 \uff11\n\n10\n01\n")
        assert (mset.n, mset.m) == (2, 1)

    def test_file_that_is_not_utf8_fails_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.set"
        path.write_bytes(b"2 1\n\n# caf\xe9\n10\n01\n")
        assert main(["check", "--file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"set-file: cannot read {path}: ")
        assert captured.err.count("\n") == 1


# Every character with a digit value: the decimal digits of each script and
# the other digits (superscripts, circled digits and the like).
DIGIT_CHARACTERS = st.characters(categories=("Nd", "No")).filter(
    lambda ch: unicodedata.digit(ch, None) is not None
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.text(DIGIT_CHARACTERS, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_digit_rows_parse_to_their_nonzero_values(rows):
    n = len(rows)
    mset = parse_set_text(f"{n} 1\n\n" + "\n".join(rows) + "\n")
    assert mset.generators[0] == BoolMatrix(n, tuple(map(digit_row_mask, rows)))
