"""End-to-end command tests, run in process through cli.main."""

import numpy as np
import pytest

from perron import cli, harness, matcore, solver


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

    def test_unconverged_base_refused(self, run, tmp_path):
        base = tmp_path / "slow2.txt"
        base.write_text("2\n1 1\n1e-8 1\n")
        code, out, err = run("certify", str(base), "cycle2_perturbed.txt",
                             "--max-iter", "1")
        assert code == 3 and out == ""
        assert "did not converge" in err

    def test_shape_mismatch(self, run):
        code, _, err = run("certify", "cycle2.txt", "cycle3.txt")
        assert code == 3
        assert "shape" in err

    def test_csv_format(self, run):
        code, out, _ = run(
            "certify", "cycle2.txt", "cycle2_perturbed.txt", "--format", "csv"
        )
        assert code == 0
        assert "soundness,PASS" in out.splitlines()


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
        assert "final_deviation" in out
        assert _value(out, "result") == "PASS"

    def test_nilpotent_kind(self, run):
        code, out, _ = run("converge", "nilpotent2.txt", "dir_lowerleft2.txt")
        assert code == 0
        assert _value(out, "kind") == "nilpotent"
        assert _value(out, "nilpotency_index") == "2"
        assert "power_bound" in out.splitlines()[0]

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

    def test_schedule_and_count_flags(self, run):
        code, out, _ = run(
            "converge", "cycle2.txt", "dir_lowerleft2.txt",
            "--schedule", "geom:0.5", "--count", "5", "--coeff", "0.25",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l and l.split()[0].isdigit()]
        assert len(rows) == 5
        assert float(rows[0].split()[1]) == 0.125

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
        code, _, err = run(
            "converge", "cycle2.txt", "dir_lowerleft2.txt", "--schedule", "linear"
        )
        assert code == 2
        assert "schedule" in err

    def test_cone_violation(self, run):
        code, out, err = run("converge", "cycle2.txt", "dir_negcorner2.txt")
        assert code == 3 and out == ""
        assert "k=1" in err

    def test_clamp_rescues_cone_violation(self, run):
        code, out, _ = run("converge", "cycle2.txt", "dir_negcorner2.txt", "--clamp")
        assert code == 0
        assert _value(out, "result") == "PASS"

    def test_unconverged_base_refused(self, run, tmp_path):
        base = tmp_path / "slow2.txt"
        base.write_text("2\n1 1\n1e-8 1\n")
        direction = tmp_path / "dir.txt"
        direction.write_text("2\n0 0\n1e-6 0\n")
        code, out, err = run("converge", str(base), str(direction), "--max-iter", "1")
        assert code == 3 and out == ""
        assert "did not converge" in err


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

    def test_output_at_1e200_is_pinned(self, run, tmp_path):
        # norms below 2^1020 are not prescaled: these bytes predate it
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
        root, steps, demo = solver.perron_root, harness._gelfand_steps, harness.nonuniformity_demo

        def certifying(m, **kwargs):
            certs.append(np.shape(m))
            return root(m, **kwargs)

        def stepping(m, m_max):
            chains.append(np.array_equal(m, x))
            return steps(m, m_max)

        monkeypatch.setattr(solver, "perron_root", certifying)
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
        for value in ("0", "x", ""):
            code, _, err = run("gelfand", "shift2.txt", "--alphas", value)
            assert code == 2


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
        for flags in (["--tol", "-1"], ["--tol", "x"], ["--max-iter", "0"]):
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
