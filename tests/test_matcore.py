import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perron import matcore


class TestNorms:
    def test_one_norm_vec_examples(self):
        assert matcore.one_norm_vec([1.0, -2.0, 3.0]) == 6.0
        assert matcore.one_norm_vec([0.0, 0.0]) == 0.0
        assert matcore.one_norm_vec([0.25, 0.75]) == 1.0

    def test_frobenius_norm_examples(self):
        assert matcore.frobenius_norm([[0.0, 0.0], [0.0, 0.0]]) == 0.0
        assert matcore.frobenius_norm([[3.0, 0.0], [0.0, 4.0]]) == 5.0
        assert matcore.frobenius_norm([[1.0, 1.0], [1.0, 1.0]]) == 2.0

    def test_frobenius_norm_zero_only_for_zero_matrix(self, rng):
        for _ in range(50):
            e = rng.normal(size=(3, 3))
            assert matcore.frobenius_norm(e) > 0.0
        assert matcore.frobenius_norm(np.zeros((4, 4))) == 0.0

    def test_frobenius_norm_of_tiny_entries(self):
        # the squares, about 1e-400, underflow unscaled
        e = 1e-200 * np.array([[1.0, 2.0], [3.0, 4.0]])
        assert matcore.frobenius_norm(e) == math.ldexp(
            matcore.frobenius_norm(np.ldexp(e, 700)), -700)
        assert matcore.frobenius_norm([[5e-324, 0.0], [0.0, 0.0]]) == 5e-324

    def test_frobenius_norm_of_huge_entries(self):
        # the squares, about 1e400, overflow unscaled; the norm does not,
        # and numpy warns of nothing (tier-1 turns warnings into errors)
        e = np.full((3, 3), 1e200)
        assert matcore.frobenius_norm(e) == math.ldexp(
            matcore.frobenius_norm(np.ldexp(e, -700)), 700)
        assert matcore.frobenius_norm(np.full((3, 3), 1.5e308)) == math.inf

    def test_one_norm_mat_examples(self):
        assert matcore.one_norm_mat(np.eye(3)) == 1.0
        assert matcore.one_norm_mat([[1.0, 2.0], [3.0, 4.0]]) == 6.0
        assert matcore.one_norm_mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1.0

    def test_one_norm_is_consistent(self, rng):
        # submultiplicative up to the rounding of the float product
        for _ in range(300):
            n = int(rng.integers(1, 7))
            x = rng.normal(size=(n, n))
            y = rng.normal(size=(n, n))
            lhs = matcore.one_norm_mat(x @ y)
            rhs = matcore.one_norm_mat(x) * matcore.one_norm_mat(y)
            assert lhs <= rhs * (1.0 + 1e-12)


class TestPermutations:
    def test_identity_permutation_is_noop(self, rng):
        a = rng.uniform(size=(5, 5))
        p = np.arange(5)
        assert np.array_equal(matcore.apply_symmetric_permutation(a, p), a)

    def test_swap_example(self):
        out = matcore.apply_symmetric_permutation([[1.0, 2.0], [3.0, 4.0]], [1, 0])
        assert np.array_equal(out, [[4.0, 3.0], [2.0, 1.0]])

    def test_relabeling_preserves_entry_multiset_and_diagonal(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 8))
            a = rng.uniform(size=(n, n))
            p = rng.permutation(n)
            b = matcore.apply_symmetric_permutation(a, p)
            assert sorted(a.ravel()) == sorted(b.ravel())
            # diagonal goes to diagonal, so the trace is preserved exactly
            assert sorted(np.diag(a)) == sorted(np.diag(b))
            # column sums are re-summed in a new order, so allow rounding
            np.testing.assert_allclose(
                sorted(np.abs(a).sum(axis=0)),
                sorted(np.abs(b).sum(axis=0)),
                rtol=1e-13,
            )

    def test_permutation_validation(self):
        assert np.array_equal(matcore.permutation([2, 0, 1]), [2, 0, 1])
        with pytest.raises(ValueError):
            matcore.permutation([0, 0, 1])
        with pytest.raises(ValueError):
            matcore.permutation([0, 2])
        with pytest.raises(ValueError):
            matcore.permutation([-1, 0])


class TestValidation:
    def test_square_matrix_shape_checks(self):
        with pytest.raises(ValueError):
            matcore.square_matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            matcore.square_matrix([1.0, 2.0])
        with pytest.raises(ValueError):
            matcore.square_matrix(np.zeros((0, 0)))

    def test_square_matrix_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matcore.square_matrix([[1.0, math.inf], [0.0, 0.0]])
        with pytest.raises(ValueError):
            matcore.square_matrix([[math.nan, 0.0], [0.0, 0.0]])

    def test_nonneg_matrix_names_offending_entry(self):
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            matcore.nonneg_matrix([[1.0, 2.0], [-3.0, 4.0]])

    def test_validators_copy_their_input(self):
        src = np.ones((2, 2))
        out = matcore.nonneg_matrix(src)
        src[0, 0] = 7.0
        assert out[0, 0] == 1.0


# Tokens the C reader and float() may disagree on, or that must be refused
_ODD_TOKENS = ["nan", "inf", "-inf", "1e999", "-1e999", "1e-400", "-0", "-2.5",
               "1_000", "0x10", "0x1p3", "oops", "1,5", "+.5", "\uff11\uff12", "#"]
_SEPARATORS = [" ", "  ", "\t", "\xa0", " \xa0 "]
_FILLER_LINES = ["# comment", "   # indented", "", "   ", "\t"]
_DECIMAL = st.from_regex(r"\A[+-]?[0-9]{1,20}(\.[0-9]{0,20})?([eE][+-]?[0-9]{1,3})?\Z")
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _matrix_text(draw):
    """Matrix text, mostly well formed, with every kind of defect mixed in."""
    n = draw(st.integers(1, 4))
    odd = st.integers(0, 19).map(lambda k: k == 0)  # one draw in twenty
    dim = draw(st.sampled_from(["x", "0", "-1", "2.5", "1_0"])) if draw(odd) else str(n)
    valid = st.one_of(_FINITE.map(repr), _DECIMAL, st.integers(-999, 999).map(str))
    token = odd.flatmap(lambda bad: st.sampled_from(_ODD_TOKENS) if bad else valid)
    near_n = odd.flatmap(lambda bad: st.sampled_from([n - 1, n + 1]) if bad else st.just(n))
    lines = [dim]
    for _ in range(draw(near_n)):
        count = draw(near_n)
        tokens = draw(st.lists(token, min_size=count, max_size=count))
        lines.append(draw(st.sampled_from(_SEPARATORS)).join(tokens))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(_FILLER_LINES)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _outcome(parse, text, nonneg):
    try:
        a = parse(text, nonneg)
    except matcore.MatrixFormatError as exc:
        return ("error", str(exc), exc.line, exc.column)
    return ("array", a.dtype, a.shape, a.tobytes())


class TestBulkParse:
    @settings(max_examples=400, deadline=None)
    @given(_matrix_text(), st.booleans())
    def test_agrees_with_token_loop(self, text, nonneg):
        reference = _outcome(matcore._parse_tokens, text, nonneg)
        bulk = matcore._parse_bulk(text, nonneg)
        if bulk is not None:
            assert ("array", bulk.dtype, bulk.shape, bulk.tobytes()) == reference
        assert _outcome(matcore.parse_matrix, text, nonneg) == reference

    def test_well_formed_text_takes_the_bulk_path(self, rng):
        for n in (1, 3, 40):
            a = rng.uniform(0.0, 10.0, (n, n))
            text = "# generated\n" + matcore.render_matrix(a)
            bulk = matcore._parse_bulk(text, nonneg=True)
            assert bulk is not None and bulk.tobytes() == a.tobytes()

    def test_defects_fall_back_to_the_token_loop(self):
        for text in ("2\n1 2\n3 1_000\n", "2\n1 2\n3 nan\n", "2\n1 2\n",
                     "2\n1 2 # note\n3 4\n", "2\n1\xa02\n3 4\n5 6\n"):
            assert matcore._parse_bulk(text, nonneg=False) is None
        assert matcore._parse_bulk("2\n1 2\n-3 4\n", nonneg=True) is None
        assert matcore.parse_matrix("2\n1 2\n3 1_000\n")[1, 1] == 1000.0


class TestTextFormat:
    def test_round_trip_handpicked_values(self):
        a = np.array(
            [
                [0.1, 1.0 / 3.0, math.pi],
                [1e-300, 1e300, 5e-324],
                [9007199254740993.0, -0.0, 123456789.123456789],
            ]
        )
        assert np.array_equal(matcore.parse_matrix(matcore.render_matrix(a)), a)

    def test_round_trip_random_magnitudes(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            mag = rng.uniform(-300, 300, size=(n, n))
            sign = rng.choice([-1.0, 1.0], size=(n, n))
            a = sign * 10.0**mag
            parsed = matcore.parse_matrix(matcore.render_matrix(a))
            assert np.array_equal(parsed, a)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=4,
            max_size=4,
        )
    )
    def test_round_trip_hypothesis(self, values):
        a = np.array(values).reshape(2, 2)
        assert np.array_equal(matcore.parse_matrix(matcore.render_matrix(a)), a)

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\n2\n# middle\n1 2\n\n3 4\n# trailing\n"
        assert np.array_equal(
            matcore.parse_matrix(text), [[1.0, 2.0], [3.0, 4.0]]
        )

    def test_file_round_trip(self, tmp_path, rng):
        a = rng.uniform(size=(4, 4))
        path = tmp_path / "m.txt"
        matcore.write_matrix_file(path, a)
        assert np.array_equal(matcore.read_matrix_file(path), a)

    def test_bad_dimension_line(self):
        with pytest.raises(matcore.MatrixFormatError) as exc:
            matcore.parse_matrix("x\n1\n")
        assert exc.value.line == 1

    def test_dimension_must_be_positive(self):
        with pytest.raises(matcore.MatrixFormatError):
            matcore.parse_matrix("0\n")

    def test_wrong_entry_count_names_line(self):
        with pytest.raises(matcore.MatrixFormatError) as exc:
            matcore.parse_matrix("2\n1 2\n3\n")
        assert exc.value.line == 3

    def test_bad_token_names_line_and_column(self):
        with pytest.raises(matcore.MatrixFormatError) as exc:
            matcore.parse_matrix("2\n1 2\n3 oops\n")
        assert exc.value.line == 3 and exc.value.column == 2

    def test_non_finite_tokens_rejected(self):
        with pytest.raises(matcore.MatrixFormatError):
            matcore.parse_matrix("2\n1 nan\n3 4\n")
        with pytest.raises(matcore.MatrixFormatError):
            matcore.parse_matrix("2\n1 inf\n3 4\n")

    def test_negative_entry_rejected_in_nonneg_mode(self):
        text = "2\n1 2\n-3 4\n"
        assert matcore.parse_matrix(text)[1, 0] == -3.0
        with pytest.raises(matcore.MatrixFormatError) as exc:
            matcore.parse_matrix(text, nonneg=True)
        assert exc.value.line == 3 and exc.value.column == 1

    def test_row_count_checked_both_ways(self):
        with pytest.raises(matcore.MatrixFormatError):
            matcore.parse_matrix("2\n1 2\n")
        with pytest.raises(matcore.MatrixFormatError):
            matcore.parse_matrix("2\n1 2\n3 4\n5 6\n")

    def test_empty_input_rejected(self):
        with pytest.raises(matcore.MatrixFormatError):
            matcore.parse_matrix("# nothing here\n")

    def test_format_float_round_trips(self):
        for x in (0.1, 1.0 / 3.0, 1e-308, 5e-324, 1e308, -math.pi, 2.0):
            assert float(matcore.format_float(x)) == x
