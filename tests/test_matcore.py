import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perron import _kernels, matcore


class TestNorms:
    def test_one_norm_vec_examples(self):
        assert matcore.one_norm_vec([1.0, -2.0, 3.0]) == 6.0
        assert matcore.one_norm_vec([0.0, 0.0]) == 0.0
        assert matcore.one_norm_vec([0.25, 0.75]) == 1.0
        with pytest.raises(ValueError, match="1-d"):
            matcore.one_norm_vec([[1.0, 2.0]])
        with pytest.raises(ValueError, match="non-finite"):
            matcore.one_norm_vec([1.0, math.inf])

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

    def test_norms_match_the_abs_copy(self, monkeypatch, rng):
        # the largest |entry| taken as max(max, -min) gives the norms, and
        # the kernel's bounds on them, that an np.abs copy gave, bit for bit
        def with_abs_copy(a):
            flat = a.reshape(len(a), -1)
            k = np.frexp(np.abs(flat).max(axis=1))[1]
            scaled = np.ldexp(flat, -k[:, None])
            with np.errstate(over="ignore"):
                return np.ldexp(np.sqrt(np.vecdot(scaled, scaled)), k)

        big, tiny = np.finfo(np.float64).max, 5e-324
        signs = rng.choice([-1.0, 1.0], (8, 5, 5))
        d = signs * np.stack([
            np.zeros((5, 5)), rng.uniform(0.0, 1.0, (5, 5)),
            tiny * rng.integers(0, 2**20, (5, 5)),  # subnormal
            np.ldexp(rng.uniform(0.5, 1.0, (5, 5)), 1023),  # near overflow
            np.full((5, 5), big),
            np.ldexp(rng.uniform(0.0, 1.0, (5, 5)), rng.integers(-1074, 1000, (5, 5))),
            np.eye(5), np.ones((5, 5))])
        d[1, 2, 3] = -4.0  # the largest |entry| negative
        d[6] = np.abs(d[6])
        d[6, 0, 0] = -1.0  # -1 beside 1s
        d[7] = -np.abs(d[7])  # all negative
        d[0, 1, 1] = -0.0
        got = [matcore.frobenius_norm(m) for m in d]
        up = _kernels._frobenius_up(d)
        monkeypatch.setattr(matcore, "_frobenius_norms", with_abs_copy)
        monkeypatch.setattr(_kernels, "_frobenius_norms", with_abs_copy)
        assert np.array(got).tobytes() == np.array(
            [matcore.frobenius_norm(m) for m in d]).tobytes()
        assert up.tobytes() == _kernels._frobenius_up(d).tobytes()
        assert math.isinf(got[4]) and got[0] == 0.0 and 0.0 < got[2] < 1e-300

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
        for shape in ([], [[0, 1], [1, 0]]):
            with pytest.raises(ValueError, match="non-empty 1-d"):
                matcore.permutation(shape)
        with pytest.raises(ValueError, match="permutation size 3 != matrix dimension 2"):
            matcore.apply_symmetric_permutation(np.eye(2), [2, 0, 1])


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

    @pytest.mark.parametrize("validate", [matcore.square_matrix, matcore.nonneg_matrix])
    @pytest.mark.parametrize("entries, message", [
        ([[1.0, math.nan], [0.0, 0.0]], r"non-finite entry at \(0, 1\)"),
        ([[1.0, 0.0], [math.inf, -1.0]], r"non-finite entry at \(1, 0\)"),
        ([[-1.0, 0.0], [0.0, -math.inf]], r"non-finite entry at \(1, 1\)"),
        ([[1.0, 2.0]], r"expected a square matrix, got shape \(1, 2\)"),
        ([1.0, 2.0], r"expected a square matrix, got shape \(2,\)"),
        (np.zeros((0, 0)), r"matrix dimension must be at least 1"),
    ])
    def test_messages_name_the_first_defect(self, validate, entries, message):
        # a non-finite entry is reported before a negative one
        with pytest.raises(ValueError, match=rf"^{message}$"):
            validate(entries)

    def test_negative_entry_message(self):
        with pytest.raises(ValueError, match=r"^negative entry \S*-3\.0\S* at \(1, 0\)$"):
            matcore.nonneg_matrix([[1.0, 2.0], [-3.0, -4.0]])
        assert matcore.square_matrix([[1.0, 2.0], [-3.0, 4.0]])[1, 0] == -3.0
        # -0.0 is not negative
        assert matcore.nonneg_matrix([[-0.0]])[0, 0] == 0.0

    @pytest.mark.parametrize("validate", [matcore.square_matrix, matcore.nonneg_matrix])
    @pytest.mark.parametrize("entries", [
        np.array([[1 + 5j, 1], [1, 1]]),  # numpy alone only warns, keeping 1
        [[1 + 5j, 1], [1, 1]],  # numpy alone raises TypeError
        [[np.complex128(1 + 5j), 1], [1, 1]],
        np.array([[np.complex64(1 + 5j), 1], [1, 1]], dtype=object),
        np.array([[1 + 0j, 2], [3, 4]]),
    ])
    def test_complex_entries_rejected(self, validate, entries):
        with pytest.raises(ValueError, match="complex"):
            validate(entries)

    @pytest.mark.parametrize("entries", [[[{}, 1], [1, 1]], [[object(), 1], [1, 1]]])
    def test_entries_that_are_not_numbers_rejected(self, entries):
        with pytest.raises(ValueError, match="expected real entries"):
            matcore.square_matrix(entries)

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

    @pytest.mark.parametrize("token, nonneg, message", [
        ("nan", False, "non-finite entry 'nan'"),
        ("NaN", True, "non-finite entry 'NaN'"),
        ("inf", False, "non-finite entry 'inf'"),
        ("-inf", True, "non-finite entry '-inf'"),
        ("1e999", False, "non-finite entry '1e999'"),
        ("-2.5", True, "negative entry '-2.5'"),
    ])
    def test_bad_entries_get_the_token_loops_error(self, token, nonneg, message):
        # a text the bulk reader takes, but for one entry that fails the
        # min/max check: the token loop words the error, line and column
        rows = [["1", "2", "3"], ["4", "5", "6"], ["7", "8", "9"]]
        rows[1][2] = token
        text = "# m\n3\n" + "\n".join(" ".join(r) for r in rows) + "\n"
        assert matcore._parse_bulk(text, nonneg) is None
        with pytest.raises(matcore.MatrixFormatError) as exc:
            matcore.parse_matrix(text, nonneg=nonneg)
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            f"line 4, column 3: {message}", 4, 3)

    def test_negative_zero_and_signs_stay_on_the_bulk_path(self):
        text = "2\n-0.0 2\n3 4\n"
        bulk = matcore._parse_bulk(text, nonneg=True)
        assert bulk is not None and math.copysign(1.0, bulk[0, 0]) == -1.0
        assert matcore._parse_bulk("2\n-1 2\n3 4\n", nonneg=False)[0, 0] == -1.0


# Spellings near the zero route's two zeros, and strays it must refuse or
# read as the token loop does
_NEAR_ZEROS = ["-0", "00", "0.", ".0", "0e0", "-0.0", "0.00", "+0"]
_STRAYS = ["\x00", "\x01", "\x0b", "\x0c", "\x1c", "\x1f", "\x7f", "\xa0", "\r", "\n",
           "\t", "#", "_"]


@st.composite
def _sparse_text(draw):
    """Mostly-zero matrix text at n = 100 to 130, zeros spelled 0 (as
    render_matrix writes them) or 0.0 (as repr does), in any layout the
    zero route reads, with a few defects mixed in.  Returns the text and
    whether a defect went in."""
    n = draw(st.integers(100, 130))
    zero = draw(st.sampled_from(["0", "0.0"]))
    rows = [[zero] * n for _ in range(n)]
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    # and tokens that end or start as a zero does
    valid = st.one_of(_FINITE.map(repr), _DECIMAL, st.integers(0, 999).map(str),
                      st.sampled_from(["10", "100.0", "0.05", "0.0e0", "00.0"]))
    for i, j in draw(st.lists(cell, max_size=30)):
        rows[i][j] = draw(valid)
    defects = draw(st.lists(st.integers(0, 6), max_size=3))
    for kind in defects:
        # from the rows as they stand: an earlier defect may have popped
        # a row or a row's last token
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        if kind == 0:
            rows[i][j] = draw(st.sampled_from(_ODD_TOKENS + _NEAR_ZEROS))
        elif kind == 1:  # one token too many or too few
            rows[i].append(zero) if draw(st.booleans()) else rows[i].pop()
        elif kind == 2:  # one row too many or too few
            rows.append([zero] * n) if draw(st.booleans()) else rows.pop()
    separator = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = [draw(st.sampled_from([str(n), f"0{n}", f"+{n}", f" {n}\t"]))]
    lines += [draw(separator).join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    for kind in defects:
        at = draw(st.integers(0, len(lines) - 1))
        if kind == 3:
            lines.insert(at, draw(st.sampled_from(["# comment", "  # 0 0"])))
        elif kind == 4:
            i = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:i] + draw(st.sampled_from(_STRAYS)) + lines[at][i:]
        elif kind == 5:  # a control byte the token loop reads into the last token
            lines[at] += draw(st.sampled_from(["\x00", "\x01", "\x08", "\x1b"]))
        else:  # two lines as one, often the dimension and the first row
            at = draw(st.sampled_from([0, at]))
            lines[at:at + 2] = [" ".join(lines[at:at + 2])]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol])), bool(defects)


def _repr_text(a):
    """The matrix text with repr's spelling of every entry (0.0 for zero)."""
    return "\n".join([str(len(a))] + [" ".join(map(repr, row)) for row in a.tolist()]) + "\n"


def _sparse_ring(rng, n, density=0.01):
    a = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density)
    a[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.5, 1.5, n)
    return a


class TestZeroRoute:
    @settings(max_examples=300, deadline=None)
    @given(_sparse_text(), st.booleans(), st.sampled_from([1 << 18, 4096, 64]))
    def test_agrees_with_token_loop(self, drawn, nonneg, block):
        # small blocks put rows, the dimension line and line breaks at
        # block edges
        text, defective = drawn
        reference = _outcome(matcore._parse_tokens, text, nonneg)
        with mock.patch.object(matcore, "_BLOCK", block):
            zeros = matcore._parse_zeros(text)
            bulk = matcore._parse_bulk(text, nonneg)
            assert _outcome(matcore.parse_matrix, text, nonneg) == reference
        if not defective:
            assert zeros is not None
        if zeros is not None and reference[0] == "array":
            assert zeros.tobytes() == reference[3]
        if bulk is not None:
            assert ("array", bulk.dtype, bulk.shape, bulk.tobytes()) == reference

    @staticmethod
    def _loadtxt_calls(monkeypatch, text, a):
        calls = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        assert matcore.parse_matrix(text, nonneg=True).tobytes() == a.tobytes()
        return len(calls)

    @pytest.mark.parametrize("render", [_repr_text, matcore.render_matrix])
    def test_sparse_text_skips_loadtxt(self, monkeypatch, rng, render):
        # zeros spelled 0.0 (repr) and 0 (render_matrix); repr text with
        # 10% nonzeros takes about 5.6 bytes per entry
        for density in (0.01, 0.10):
            a = _sparse_ring(rng, 300, density)
            assert self._loadtxt_calls(monkeypatch, render(a), a) == 0

    def test_underscores_read_as_in_the_token_loop(self, monkeypatch, rng):
        # both call float(), so the route need not refuse 1_000
        a = _sparse_ring(rng, 300)
        a[0, 0] = 1000.0
        text = _repr_text(a).replace("1000.0", "1_000", 1)
        assert self._loadtxt_calls(monkeypatch, text, a) == 0

    def test_refused_token_is_worded_by_the_token_loop(self, rng):
        # the ring entry of row 37, at token 39 of line 39, spelled 1.0.0
        a = _sparse_ring(rng, 100)
        rows = _repr_text(a).splitlines()
        tokens = rows[38].split()
        tokens[38] = "1.0.0"
        rows[38] = " ".join(tokens)
        text = "\n".join(rows) + "\n"
        assert matcore._parse_zeros(text) is None
        with pytest.raises(matcore.MatrixFormatError) as info:
            matcore.parse_matrix(text)
        assert str(info.value) == "line 39, column 39: invalid number '1.0.0'"

    def test_temporaries_stay_within_ten_blocks(self, rng):
        # the route's masks, token starts and gathers, the previous
        # block's included, beside its result and the encoded text
        text = _repr_text(_sparse_ring(rng, 800))
        matcore._parse_zeros(text)  # warm up
        tracemalloc.start()
        try:
            a = matcore._parse_zeros(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - a.nbytes - len(text) < 10 * matcore._BLOCK

    @pytest.mark.parametrize("case", ["dense 300", "sparse 50", "commented 300"])
    def test_other_text_takes_loadtxt(self, monkeypatch, rng, case):
        a = rng.uniform(0.5, 1.5, (300, 300)) if case == "dense 300" else _sparse_ring(
            rng, int(case.split()[1]))
        text = ("# ring\n" if case == "commented 300" else "") + _repr_text(a)
        assert matcore._parse_zeros(text) is None
        assert self._loadtxt_calls(monkeypatch, text, a) == 1


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

    def test_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf2\n1 2\n3 4\n")
        assert np.array_equal(matcore.read_matrix_file(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_file_not_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"2\n1 2\n3 4\xff\n")
        with pytest.raises(matcore.MatrixFormatError, match="not UTF-8 text"):
            matcore.read_matrix_file(path)

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
