"""End-to-end command tests, run in process through cli.main."""

import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from perron import cli, harness, matcore, perturb, solver
from oracles import cw_exact


@pytest.fixture
def run(capsys, fixtures_dir):
    def invoke(*args):
        argv = [str(fixtures_dir / a) if a.endswith(".txt") else a for a in args]
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def _value(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no {key!r} line in output:\n{out}")


class TestAnalyze:
    def test_irreducible_matrix(self, run):
        code, out, err = run("analyze", "cycle3.txt")
        assert code == 0 and err == ""
        assert _value(out, "n") == "3"
        assert _value(out, "irreducible") == "yes"
        assert _value(out, "nilpotent") == "no"
        assert _value(out, "block_count") == "1"
        assert _value(out, "converged") == "yes"
        assert float(_value(out, "rho_lo")) <= 1.0 <= float(_value(out, "rho_hi"))
        vec = [float(v) for v in _value(out, "right_vector").split()]
        assert len(vec) == 3 and abs(sum(vec) - 1.0) <= 1e-12
        assert abs(float(_value(out, "q_star")) - 1.0 / 3.0) <= 1e-12

    def test_radius_above_largest_float(self, run, tmp_path):
        # rho = 2e308: a finite lo, hi infinite, no residual line
        path = tmp_path / "huge.txt"
        path.write_text("2\n1e308 1e308\n1e308 1e308\n")
        code, out, err = run("analyze", str(path))
        assert code == 0 and err == ""
        assert float(_value(out, "rho_lo")) == 1.7976931348623157e308
        assert _value(out, "rho_hi") == "inf"
        assert _value(out, "converged") == "no"
        assert "residual" not in out

    def test_reducible_matrix(self, run):
        code, out, err = run("analyze", "triangular2.txt")
        assert code == 0
        assert _value(out, "irreducible") == "no"
        assert _value(out, "block_sizes") == "1 1"
        assert _value(out, "rho_lo") == "2"
        assert _value(out, "rho_hi") == "2"
        assert "right_vector" not in out

    def test_nilpotent_matrix(self, run):
        code, out, _ = run("analyze", "nilpotent2.txt")
        assert code == 0
        assert _value(out, "nilpotent") == "yes"
        assert _value(out, "nilpotency_index") == "2"
        assert _value(out, "rho_hi") == "0"

    def test_nilpotency_index_survives_underflow(self, run, tmp_path):
        # A^2 holds the real entry 1e-400, which float64 rounds to zero
        path = tmp_path / "tiny_chain3.txt"
        path.write_text("3\n0 1e-200 0\n0 0 1e-200\n0 0 0\n")
        code, out, _ = run("analyze", str(path))
        assert code == 0
        assert _value(out, "nilpotent") == "yes"
        assert _value(out, "nilpotency_index") == "3"

    def test_csv_format(self, run):
        code, out, _ = run("analyze", "triangular2.txt", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert "n,2" in lines
        assert "block_sizes,1;1" in lines
        assert "permutation,0;1" in lines

    def test_rejects_negative_entries(self, run):
        code, out, err = run("analyze", "negative.txt")
        assert code == 2 and out == ""
        assert "line 2" in err

    def test_rejects_malformed_token(self, run):
        code, _, err = run("analyze", "bad_token.txt")
        assert code == 2
        assert "line 2" in err and "column 2" in err

    def test_missing_file(self, run, tmp_path):
        code, out, err = run("analyze", str(tmp_path / "nope.txt"))
        assert code == 2 and out == ""
        assert err.startswith("error:")


class TestCertify:
    def test_passes_on_small_bump(self, run):
        code, out, err = run("certify", "cycle2.txt", "cycle2_perturbed.txt")
        assert code == 0 and err == ""
        assert _value(out, "soundness") == "PASS"
        assert _value(out, "norm") == "frobenius"
        assert abs(float(_value(out, "bound")) - 0.02) <= 1e-12
        lo = float(_value(out, "enclosure_lo"))
        hi = float(_value(out, "enclosure_hi"))
        assert lo <= float(_value(out, "rho_prime_lo"))
        assert float(_value(out, "rho_prime_hi")) <= hi

    def test_passes_at_tiny_scale(self, run, tmp_path):
        # the squares of ||A' - A||_F underflow unless scaled: a norm and
        # a bound of 0 left an enclosure that missed rho(A')
        base, bumped = tmp_path / "tiny.txt", tmp_path / "tiny15.txt"
        a = 1e-200 * np.array([[1.0, 2.0], [3.0, 4.0]])
        matcore.write_matrix_file(base, a)
        matcore.write_matrix_file(bumped, 1.5 * a)
        code, out, err = run("certify", str(base), str(bumped))
        assert code == 0 and err == ""
        assert _value(out, "soundness") == "PASS"
        assert float(_value(out, "e_norm")) > 0.0
        assert float(_value(out, "enclosure_hi")) >= float(_value(out, "rho_prime_hi"))

    def test_reducible_base_refused(self, run):
        code, out, err = run("certify", "triangular2.txt", "triangular2.txt")
        assert code == 3 and out == ""
        assert "analyze" in err

    def test_unconverged_base_refused(self, run, tmp_path, fixtures_dir):
        # no longer refused: the enclosure is centred on the unconverged
        # left witness's own bracket, and holds rho(A'), bracketed exactly
        base = tmp_path / "slow2.txt"
        base.write_text("2\n1 1\n1e-8 1\n")
        code, out, err = run("certify", str(base), "cycle2_perturbed.txt",
                             "--max-iter", "1")
        assert code == 0 and err == ""
        assert _value(out, "soundness") == "PASS"
        a_prime = matcore.read_matrix_file(fixtures_dir / "cycle2_perturbed.txt")
        least, greatest = cw_exact(a_prime, solver.perron_root(a_prime, tol=1e-15).right_witness)
        assert Fraction(float(_value(out, "enclosure_lo"))) <= least
        assert greatest <= Fraction(float(_value(out, "enclosure_hi")))

    def test_shape_mismatch(self, run):
        code, _, err = run("certify", "cycle2.txt", "cycle3.txt")
        assert code == 3
        assert "shape" in err

    @pytest.mark.parametrize("zeroed_row", [False, True])
    def test_one_kernel_call_certifies_both(self, run, tmp_path, monkeypatch, zeroed_row):
        # a positive A' is certified in A's kernel call, one (2, n, n)
        # stack; one with a zeroed row is reducible and goes through its
        # normal form.  Either way pb.perturbed is perron_root(A') bit for bit
        n, rng = 16, np.random.default_rng(16)
        paths = tmp_path / "a.txt", tmp_path / "a_prime.txt"
        a = rng.uniform(0.5, 1.5, (n, n))
        a_prime = a + rng.uniform(0.0, 1e-3, (n, n))
        if zeroed_row:
            a_prime[3] = 0.0
        for path, m in zip(paths, (a, a_prime)):
            matcore.write_matrix_file(path, m)
        a, a_prime = (matcore.read_matrix_file(p) for p in paths)
        calls, stack = [], solver.collatz_wielandt_stack

        def counting(bs, *args):
            calls.append(bs.shape)
            return stack(bs, *args)

        monkeypatch.setattr(solver, "collatz_wielandt_stack", counting)
        code, out, err = run("certify", *map(str, paths))
        assert code == 0 and err == "" and _value(out, "soundness") == "PASS"
        if not zeroed_row:
            assert calls == [(2, n, n)]
        monkeypatch.undo()

        def fields(c):
            return (c.lo, c.hi, c.iterations, c.converged) + tuple(
                None if w is None else w.tobytes() for w in (c.right_witness, c.left_witness))

        got = perturb.continuity_certificate(a, a_prime).perturbed
        want = solver.perron_root(a_prime)
        assert fields(got) == fields(want)
        assert (got.right_witness is None) == zeroed_row
        assert _value(out, "rho_prime_lo") == matcore.format_float(want.lo)
        assert _value(out, "rho_prime_hi") == matcore.format_float(want.hi)

    @pytest.mark.parametrize("perturbed", ["cycle2_perturbed.txt", "ones2.txt", "cycle2.txt"])
    def test_verdict_is_the_bounds_ok(self, run, fixtures_dir, perturbed):
        code, out, _ = run("certify", "cycle2.txt", perturbed)
        pb = perturb.continuity_certificate(
            *(matcore.read_matrix_file(fixtures_dir / f) for f in ("cycle2.txt", perturbed)))
        assert _value(out, "soundness") == ("PASS" if pb.ok else "FAIL")
        assert code == (0 if pb.ok else 1) and pb.ok

    def test_csv_format(self, run):
        code, out, _ = run(
            "certify", "cycle2.txt", "cycle2_perturbed.txt", "--format", "csv"
        )
        assert code == 0
        assert "soundness,PASS" in out.splitlines()


class TestMatrixFileEncoding:
    """Matrix files are UTF-8 with or without a byte-order mark; any
    other bytes are malformed input, exit 2, in every command."""

    @pytest.mark.parametrize("argv", [("analyze", "cycle3.txt"),
                                      ("converge", "cycle2.txt", "dir_lowerleft2.txt")])
    def test_byte_order_mark_prints_the_same_bytes(self, run, tmp_path, fixtures_dir, argv):
        marked = tmp_path / argv[1]
        marked.write_bytes(b"\xef\xbb\xbf" + (fixtures_dir / argv[1]).read_bytes())
        code, out, err = run(argv[0], str(marked), *argv[2:])
        assert code == 0 and err == ""
        assert (code, out, err) == run(*argv)

    @pytest.mark.parametrize("argv", [("analyze", "BAD"),
                                      ("certify", "cycle2.txt", "BAD"),
                                      ("converge", "BAD", "dir_lowerleft2.txt")])
    def test_bytes_not_utf8_exit_2(self, run, tmp_path, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"2\n0 1\n1 0\xff\n")
        code, out, err = run(*(str(bad) if a == "BAD" else a for a in argv))
        assert code == 2 and out == ""
        assert err == "error: not UTF-8 text: invalid start byte\n"


class TestConverge:
    def test_irreducible_kind(self, run):
        code, out, err = run("converge", "cycle2.txt", "dir_lowerleft2.txt")
        assert code == 0 and err == ""
        assert _value(out, "kind") == "irreducible"
        assert _value(out, "result") == "PASS"
        header = out.splitlines()[0].split()
        assert header == ["k", "s_k", "r_lo", "r_hi", "deviation", "bound", "status"]
        assert sum("pass" in line for line in out.splitlines()) == 20

    def test_reducible_kind(self, run):
        code, out, _ = run("converge", "reducible3.txt", "direction3.txt")
        assert code == 0
        assert _value(out, "kind") == "reducible"
        assert "spectral_block" in out
        header = out.splitlines()[0].split()
        assert header[5:] == ["b_lo", "b_hi", "bound", "status"]
        assert "final_" not in out
        assert _value(out, "result") == "PASS"

    def test_reducible_rows_bounded_on_the_spectral_block(self, run, tmp_path):
        # the block [[0, 1e-12], [1, 0]] has radius 1e-6 and q* near 1e-6:
        # its radius moves by 9.05e-6 at k = 1 against a bound near 1e-4
        base, direction = tmp_path / "weak3.txt", tmp_path / "corner3.txt"
        base.write_text("3\n0 1e-12 0\n1 0 0\n0 0 0\n")
        direction.write_text("3\n0 1 0\n0 0 0\n0 0 0\n")
        code, out, err = run("converge", str(base), str(direction),
                             "--coeff", "1e-10", "--count", "3")
        assert (code, err) == (0, "")
        assert _value(out, "kind") == "reducible"
        first = out.splitlines()[1].split()
        deviation, bound = float(first[4]), float(first[7])
        assert 9.0e-6 < deviation < 9.1e-6 and 0.9e-4 < bound < 1.1e-4
        assert _value(out, "result") == "PASS"

    def test_nilpotent_kind(self, run):
        code, out, _ = run("converge", "nilpotent2.txt", "dir_lowerleft2.txt")
        assert code == 0
        assert _value(out, "kind") == "nilpotent"
        assert _value(out, "nilpotency_index") == "2"
        assert "power_bound" in out.splitlines()[0]

    @pytest.mark.parametrize("coeff", ["1e5", "1e6", "1e8", "1e300", "1.7976931348623157e308"])
    def test_nilpotent_kind_at_large_scale(self, run, coeff):
        # A_k^2 = (coeff / k) I: rho(A_k)^2 is the norm bound exactly, and
        # lo rounded outward must still pass against it, with no overflow
        code, out, err = run(
            "converge", "nilpotent2.txt", "dir_lowerleft2.txt", "--coeff", coeff)
        assert code == 0 and err == ""
        rows = out.splitlines()[1:21]
        assert all(line.split()[-1] == "pass" for line in rows)
        assert _value(out, "result") == "PASS"

    def test_one_by_one_zero_base_is_nilpotent(self, run, tmp_path):
        # [[0]] is irreducible by convention too; the nilpotent check wins
        base = tmp_path / "zero1.txt"
        base.write_text("1\n0\n")
        direction = tmp_path / "one1.txt"
        direction.write_text("1\n1\n")
        code, out, err = run("converge", str(base), str(direction), "--count", "4")
        assert code == 0 and err == ""
        assert _value(out, "kind") == "nilpotent"
        assert _value(out, "nilpotency_index") == "1"
        lines = out.splitlines()
        assert lines[0].split()[5] == "power_bound"
        for line in lines[1:5]:
            cells = line.split()
            assert cells[5] == cells[1]  # power_bound equals s_k

    def test_row_bound_is_on_the_stored_difference(self, run, tmp_path):
        # fl(1 + 1.5e-16) - 1 = 2^-52 exceeds s_1 ||d||_F / q* = 1.5e-16,
        # and the certificates of 1x1 terms have width 0
        one = tmp_path / "one1.txt"
        one.write_text("1\n1\n")
        code, out, err = run(
            "converge", str(one), str(one), "--coeff", "1.5e-16", "--count", "3")
        assert (code, err) == (0, "")
        rows = [line.split() for line in out.splitlines()[1:4]]
        assert float(rows[0][4]) == 2.0**-52 <= float(rows[0][5])
        assert [r[-1] for r in rows] == ["pass"] * 3
        assert _value(out, "result") == "PASS"

    def test_schedule_and_count_flags(self, run):
        # s_1 = coeff * 0.5 under geom:0.5, coeff / 1 and coeff / 1^2 else
        for schedule, s_1 in (("geom:0.5", 0.125), ("inv-k", 0.25), ("inv-k2", 0.25)):
            code, out, _ = run(
                "converge", "cycle2.txt", "dir_lowerleft2.txt",
                "--schedule", schedule, "--count", "5", "--coeff", "0.25",
            )
            assert code == 0
            rows = [l for l in out.splitlines() if l and l.split()[0].isdigit()]
            assert len(rows) == 5
            assert float(rows[0].split()[1]) == s_1

    def test_csv_has_no_summary_lines(self, run):
        code, out, _ = run(
            "converge", "cycle2.txt", "dir_lowerleft2.txt", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,s_k,r_lo,r_hi,deviation,bound,status"
        assert len(lines) == 21
        assert "kind" not in out

    def test_bad_schedule_rejected(self, run):
        for schedule in ("linear", "geom:x", "geom:1.5"):
            code, _, err = run(
                "converge", "cycle2.txt", "dir_lowerleft2.txt", "--schedule", schedule
            )
            assert code == 2
            assert "schedule" in err

    def test_bad_count_and_coeff_rejected(self, run):
        for flags in (["--count", "x"], ["--coeff", "inf"], ["--coeff", "1e400"]):
            code, out, err = run("converge", "cycle2.txt", "dir_lowerleft2.txt", *flags)
            assert code == 2 and out == ""
            assert flags[0] in err

    def test_cone_violation(self, run):
        code, out, err = run("converge", "cycle2.txt", "dir_negcorner2.txt")
        assert code == 3 and out == ""
        assert "k=1" in err

    def test_clamp_rescues_cone_violation(self, run):
        code, out, _ = run("converge", "cycle2.txt", "dir_negcorner2.txt", "--clamp")
        assert code == 0
        assert _value(out, "result") == "PASS"

    def test_unconverged_base_refused(self, run, tmp_path):
        # no longer refused: every row passes, and each term's certified
        # interval holds its radius 1 + sqrt(x), x its stored entry (1, 0),
        # compared exactly
        base = tmp_path / "slow2.txt"
        base.write_text("2\n1 1\n1e-8 1\n")
        direction = tmp_path / "dir.txt"
        direction.write_text("2\n0 0\n1e-6 0\n")
        code, out, err = run("converge", str(base), str(direction), "--max-iter", "1",
                             "--format", "csv")
        assert code == 0 and err == ""
        header, *rows = [line.split(",") for line in out.splitlines()]
        assert len(rows) == 20 and all(row[-1] == "pass" for row in rows)
        for row in rows:
            x = Fraction(1.0 / int(row[0]) * 1e-6 + 1e-8)
            lo, hi = Fraction(float(row[2])) - 1, Fraction(float(row[3])) - 1
            assert lo <= 0 or lo * lo <= x
            assert hi >= 0 and hi * hi >= x


class TestGelfand:
    def test_positive_gap_demo(self, run):
        # ||A^m||_1^(1/m) = (2^(m+1)-1)^(1/m) stays strictly above the
        # radius 2, so the scaling table is emitted at every m
        code, out, err = run("gelfand", "triangular2.txt")
        assert code == 0 and err == ""
        assert _value(out, "rho_lo") == "2"
        assert out.splitlines()[2].split()[0] == "m"
        assert "alpha" in out
        assert _value(out, "result") == "PASS"

    def test_vacuous_demo_notes_skip(self, run):
        code, out, _ = run("gelfand", "ones2.txt")
        assert code == 0
        assert "note: scaling demo skipped" in out
        assert "alpha" not in out

    def test_csv_format(self, run):
        code, out, _ = run(
            "gelfand", "shift2.txt", "--m-max", "1", "--alphas", "10", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,f_m,residual,status"
        assert "rho_lo" not in out and "result" not in out
        assert "alpha,residual,expected,rel_err,status" in lines

    def test_csv_vacuous_comment(self, run):
        code, out, _ = run("gelfand", "ones2.txt", "--format", "csv")
        assert code == 0
        assert any(l.startswith("# scaling demo skipped") for l in out.splitlines())

    def test_alpha_list_parsing(self, run):
        code, out, _ = run("gelfand", "shift2.txt", "--m-max", "1", "--alphas", "3,,5")
        assert code == 0
        assert len([l for l in out.splitlines() if l.endswith("pass")]) >= 3

    def test_radius_above_largest_float(self, run, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("2\n1e308 1e308\n1e308 1e308\n")
        code, out, err = run("gelfand", str(path))
        assert code == 3 and out == ""
        assert "exceeds the largest float" in err

    def test_norm_above_largest_float_prints_inf(self, run, tmp_path):
        path = tmp_path / "column.txt"
        path.write_text("2\n1e308 0\n1e308 0\n")
        code, out, _ = run("gelfand", str(path), "--alphas", "0.5")
        assert code == 0
        rows = [line.split() for line in out.splitlines()[3:13]]
        assert rows[0][:2] == ["1", "inf"]
        assert all(float(r[1]) > 1e308 for r in rows[1:])
        assert _value(out, "result") == "PASS"

    def test_wide_range_prints_the_demo(self, run, tmp_path):
        # f_2 = 7.20479007327763874e16 and f_3 = 9.05439770800000462e-72
        # to 18 digits, not 0: the gap to rho = 1.43e-247 is real, and
        # the demo runs
        path = tmp_path / "wide.txt"
        path.write_text("2\n1.43e-247 3.63e280\n0 0\n")
        code, out, err = run("gelfand", str(path), "--m-max", "3")
        assert (code, err) == (0, "")
        rows = [line.split() for line in out.splitlines()[3:6]]
        assert [r[1] for r in rows] == [
            "3.6300000000000001e+280", "72047900732776384", "9.0543977080000044e-72"]
        assert "note:" not in out and "alpha" in out
        assert _value(out, "result") == "PASS"

    def test_output_at_1e200_is_pinned(self, run, tmp_path):
        # norms in [2^-500, 2^1020] take the BLAS chain, unscaled
        path = tmp_path / "big.txt"
        path.write_text("2\n1e200 1e200\n1e200 1e200\n")
        code, out, _ = run("gelfand", str(path))
        assert code == 0
        assert out == _GELFAND_1E200

    @pytest.mark.parametrize("scale", ["e200", "e-320"])
    def test_extreme_scales_pass(self, run, tmp_path, scale):
        # [[1,2],[3,4]] at 1e200 once failed the alpha = 10 and 100 rows
        # against a fixed 1e-12; at 1e-320 (subnormal) its gap, 1% of
        # f_m, was called a match by an absolute vacuity test
        path = tmp_path / "scaled.txt"
        path.write_text(f"2\n1{scale} 2{scale}\n3{scale} 4{scale}\n")
        code, out, err = run("gelfand", str(path))
        assert code == 0 and err == ""
        assert "scaling demo skipped" not in out
        table = out.split("alpha", 1)[1].splitlines()[1:4]
        assert [line.split()[0] for line in table] == ["2", "10", "100"]
        assert all(line.endswith("pass") for line in table)
        assert _value(out, "result") == "PASS"

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["ones", "uniform"])
    def test_large_scales_pass_up_to_m_30(self, run, tmp_path, n, kind):
        # a fixed 4e-14 allowance once failed rows 25-30 of 1e100 * ones:
        # the round-off in f_m grows with |log f_m|, and so does d_m
        rng = np.random.default_rng(n)
        a = np.ones((n, n)) if kind == "ones" else rng.uniform(0.5, 1.5, (n, n))
        path = tmp_path / "scaled.txt"
        for e in range(100, 301, 20):
            rows = (" ".join(repr(float(v) * 10.0**e) for v in row) for row in a)
            path.write_text(f"{n}\n" + "\n".join(rows) + "\n")
            code, out, err = run("gelfand", str(path), "--m-max", "30")
            assert (code, err) == (0, ""), e
            assert "FAIL" not in out
            assert _value(out, "result") == "PASS", e

    @pytest.mark.parametrize("n", [2, 16, 48])
    def test_one_certificate_and_norm_chain_of_x(self, run, tmp_path, monkeypatch, n):
        # the demo reuses the trace's certificate and its f_m, d_m; the
        # bytes are those of the trace and a standalone demo of X
        path = tmp_path / "x.txt"
        a = np.random.default_rng(n).uniform(0.0, 1.0, (n, n))
        matcore.write_matrix_file(path, a)
        x = matcore.read_matrix_file(path)
        certs, chains = [], []
        # X is positive, so every route certifies it as a matrix of a
        # _certify_irreducible stack
        irreducible, steps, demo = (
            solver._certify_irreducible, harness._gelfand_steps, harness.nonuniformity_demo)

        def certifying(ms, *args):
            certs.extend([ms.shape[1:]] * ms.shape[0])
            return irreducible(ms, *args)

        def stepping(ms, m_max):
            chains.extend(np.array_equal(m, x) for m in ms)
            return steps(ms, m_max)

        monkeypatch.setattr(solver, "_certify_irreducible", certifying)
        monkeypatch.setattr(harness, "_gelfand_steps", stepping)
        shared = run("gelfand", str(path), "--m-max", "12")
        assert shared[0] == 0 and "alpha" in shared[1]
        assert (len(certs), chains.count(True)) == (1, 1)
        certs.clear(), chains.clear()
        monkeypatch.setattr(
            harness, "nonuniformity_demo",
            lambda t, *args, **kwargs: demo(t.matrix, *args, **kwargs))
        assert run("gelfand", str(path), "--m-max", "12") == shared
        assert (len(certs), chains.count(True)) == (2, 2)

    def test_bad_alphas_rejected(self, run):
        for value in ("0", "x", "", "inf", "2,1e400"):
            code, _, err = run("gelfand", "shift2.txt", "--alphas", value)
            assert code == 2
        assert "must be positive and finite: 1e400" in err
        # a vacuous demo never reads its alphas, so they are checked first
        assert run("gelfand", "cycle3.txt", "--alphas", "inf")[0] == 2


class TestFormatters:
    """The grids ``cli`` builds from trace results, in both formats."""

    @pytest.fixture
    def corner(self, tmp_path):
        # direction [[0, 0], [0, 1]] for the two-cycle cycle2.txt
        path = tmp_path / "corner2.txt"
        path.write_text("2\n0 0\n0 1\n")
        return str(path)

    def test_table_layout(self, run, corner):
        code, out, _ = run("converge", "cycle2.txt", corner, "--count", "3")
        assert code == 0
        lines = out.splitlines()
        grid = lines[:4]  # the header and three rows, then the summary
        assert grid[0].split() == ["k", "s_k", "r_lo", "r_hi", "deviation", "bound", "status"]
        assert lines[4] == "kind: irreducible"
        assert not any(line.endswith(" ") for line in lines)
        assert all(line.endswith(("pass", "FAIL", "status")) for line in grid)
        # right-aligned: each cell ends where its column's header ends
        ends = [[m.end() for m in re.finditer(r"\S+", line)] for line in grid]
        assert all(e == ends[0] for e in ends)

    def test_csv_round_trips_floats(self, run, corner):
        code, out, _ = run("converge", "cycle2.txt", corner, "--count", "3", "--format", "csv")
        assert code == 0
        trace = harness.run_trace(harness.SequenceSpec(
            base=[[0.0, 1.0], [1.0, 0.0]], direction=[[0.0, 0.0], [0.0, 1.0]], count=3))
        lines = out.splitlines()
        assert lines[0] == "k,s_k,r_lo,r_hi,deviation,bound,status"
        assert len(lines) == 4
        for row, line in zip(trace.rows, lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == row.k
            assert float(cells[1]) == row.scale
            assert float(cells[2]) == row.cert.lo
            assert float(cells[3]) == row.cert.hi
            assert float(cells[4]) == row.deviation
            assert float(cells[5]) == row.extra[0]
            assert cells[6] == "pass"

    def test_kind_specific_columns(self, run, tmp_path):
        upper = tmp_path / "upper2.txt"
        upper.write_text("2\n1 1\n0 2\n")
        for base, kind in ((str(upper), "b_lo,b_hi"), ("nilpotent2.txt", "power_bound")):
            code, out, _ = run(
                "converge", base, "dir_lowerleft2.txt", "--count", "2", "--format", "csv")
            assert code == 0
            assert kind in out.splitlines()[0]

    def test_gelfand_and_demo_grids(self, run):
        code, out, _ = run(
            "gelfand", "shift2.txt", "--m-max", "1", "--alphas", "10", "--format", "csv")
        assert code == 0
        assert out == (
            "m,f_m,residual,status\n1,2,2,pass\n\n"
            "alpha,residual,expected,rel_err,status\n10,20,20,0,pass\n")

    def test_unknown_format_rejected(self, run):
        for command in (("converge", "cycle2.txt", "dir_lowerleft2.txt"),
                        ("gelfand", "shift2.txt")):
            code, out, err = run(*command, "--format", "json")
            assert (code, out) == (2, "")
            assert "--format" in err


_GELFAND_1E200 = """\
rho_lo: 1.9999999999999996e+200
rho_hi: 2.0000000000000003e+200
 m                      f_m                  residual  status
 1  1.9999999999999999e+200                         0    pass
 2  2.0000000000000479e+200   4.7929892471785063e+186    pass
 3  2.0000000000000479e+200   4.7929892471785063e+186    pass
 4  2.0000000000000479e+200   4.7929892471785063e+186    pass
 5  1.9999999999999343e+200  -6.5606164872727072e+186    pass
 6  2.0000000000000479e+200   4.7929892471785063e+186    pass
 7  2.0000000000000479e+200   4.7929892471785063e+186    pass
 8  2.0000000000000479e+200   4.7929892471785063e+186    pass
 9  1.9999999999999343e+200  -6.5606164872727072e+186    pass
10  1.9999999999999343e+200  -6.5606164872727072e+186    pass
note: scaling demo skipped: f_m matches the certified radius at m=10 (gap -6.5606164872727072e+186)
result: PASS
"""


class TestParserPlumbing:
    def test_help_exits_zero(self, run):
        code, out, _ = run("--help")
        assert code == 0
        assert "analyze" in out and "gelfand" in out

    def test_missing_command(self, capsys):
        assert cli.main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_tol_and_max_iter(self, run):
        for flags in (["--tol", "-1"], ["--tol", "x"], ["--tol", "inf"],
                      ["--tol", "1e400"], ["--max-iter", "0"]):
            code, _, err = run("analyze", "cycle2.txt", *flags)
            assert code == 2

    def test_repeated_runs_are_identical(self, run):
        first = run("analyze", "blocks4.txt", "--format", "csv")
        second = run("analyze", "blocks4.txt", "--format", "csv")
        assert first == second

    def test_parser_built_once(self, run, monkeypatch):
        # building the parser costs over ten times what parsing does
        builds = []
        build = cli.build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        monkeypatch.setattr(cli, "_parser", None)
        first = run("analyze", "cycle2.txt")
        assert run("analyze", "cycle2.txt", "--tol", "-1")[0] == 2
        assert run("analyze", "cycle2.txt") == first
        assert len(builds) == 1


_COLD_START = """
import contextlib, io, json, sys
import numpy as np
import perron, perron.cli

def layers():
    return [m for m in ("perron.harness", "perron.perturb") if m in sys.modules]

def quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return perron.cli.main(list(argv))

seen = {"import": layers()}
perron.perron_root(np.array([[1.0, 2.0], [3.0, 4.0]]))
seen["root"] = layers()
seen["analyze_code"] = quiet("analyze", sys.argv[1])
seen["analyze"] = layers()
seen["converge_code"] = quiet("converge", sys.argv[2], sys.argv[3], "--count", "3")
seen["converge"] = layers()
seen["not_in_dir"] = sorted(set(perron.__all__) - set(dir(perron)))
star = {}
exec("from perron import *", star)
seen["star"] = layers()
seen["not_bound"] = [n for n in perron.__all__ if star.get(n) is not getattr(perron, n)]
try:
    perron.no_such_name
except AttributeError as exc:
    seen["unknown"] = str(exc)
print(json.dumps(seen))
"""


class TestColdStart:
    """In a fresh interpreter, importing the package and the CLI, a
    certificate and `perron analyze` load neither the trace layer
    (harness) nor the perturbation layer (perturb); they load on first
    use, and every exported name still resolves."""

    def test_layers_load_on_first_use(self, fixtures_dir):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START, *(str(fixtures_dir / f) for f in (
                "blocks4.txt", "cycle2.txt", "dir_lowerleft2.txt"))],
            capture_output=True, text=True, cwd=src.parent,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen["import"] == seen["root"] == seen["analyze"] == []
        assert seen["analyze_code"] == seen["converge_code"] == 0
        assert seen["converge"] == ["perron.harness"]
        assert seen["not_in_dir"] == []
        assert seen["star"] == ["perron.harness", "perron.perturb"]
        assert seen["not_bound"] == []
        assert seen["unknown"] == "module 'perron' has no attribute 'no_such_name'"
