import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perron import cli, matcore, solver, structure
from generators import (
    planted_block_matrix,
    random_irreducible,
    random_nonneg,
    reducible_base,
)
from oracles import nilpotency_oracle, strongly_connected_bool


class TestIrreducibility:
    def test_examples(self):
        assert structure.is_irreducible([[0.0, 1.0], [1.0, 0.0]])
        assert not structure.is_irreducible([[1.0, 1.0], [0.0, 1.0]])
        assert structure.is_irreducible([[0, 1, 0], [0, 0, 1], [1, 0, 0]])

    def test_one_by_one_convention(self):
        assert structure.is_irreducible([[0.0]])
        assert structure.is_irreducible([[3.0]])

    def test_agrees_with_reachability_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 9))
            a = random_nonneg(rng, n, scale=1.0, density=0.3)
            assert structure.is_irreducible(a) == strongly_connected_bool(a)

    def test_edge_threshold_is_strict_zero(self):
        # a tiny positive entry is an edge, an exact zero is not
        assert structure.is_irreducible([[0.0, 1e-300], [1.0, 0.0]])
        assert not structure.is_irreducible([[0.0, 0.0], [1.0, 0.0]])


class TestStronglyConnectedComponents:
    def test_matches_oracle_on_each_component(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = random_nonneg(rng, n, scale=1.0, density=0.25)
            comps = structure.strongly_connected_components(a)
            flat = sorted(v for comp in comps for v in comp)
            assert flat == list(range(n))
            for comp in comps:
                assert comp == sorted(comp)
                sub = a[np.ix_(comp, comp)]
                if len(comp) > 1:
                    assert strongly_connected_bool(sub)

    def test_deterministic(self, rng):
        a = random_nonneg(rng, 7, scale=1.0, density=0.3)
        assert structure.strongly_connected_components(
            a
        ) == structure.strongly_connected_components(a)

    def test_pattern_and_signed_inputs_give_the_same_components(self, rng):
        # edges are the positive entries, whatever the input's dtype and
        # whatever its other entries hold
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = random_nonneg(rng, n, scale=1.0, density=0.3)
            signed = np.where(a > 0.0, a, -rng.uniform(0.0, 1.0, (n, n)))
            want = structure.strongly_connected_components(a)
            assert structure.strongly_connected_components(a > 0.0) == want
            assert structure.strongly_connected_components(signed) == want


class TestFrobeniusNormalForm:
    def test_irreducible_matrix_is_a_single_block(self, rng):
        # through Tarjan and through the positive-pattern shortcut; the
        # block is the read-only matrix itself, not a second copy
        for a in (random_irreducible(rng, 5), rng.uniform(0.1, 1.0, (5, 5))):
            fnf = structure.frobenius_normal_form(a)
            assert fnf.block_sizes == (5,)
            assert np.array_equal(fnf.perm, np.arange(5))
            assert np.array_equal(fnf.block_matrices[0], a)
            assert np.shares_memory(fnf.block_matrices[0], fnf.matrix)
            assert not fnf.block_matrices[0].flags.writeable

    def test_already_triangular_example(self):
        fnf = structure.frobenius_normal_form([[1.0, 1.0], [0.0, 2.0]])
        assert np.array_equal(fnf.perm, [0, 1])
        assert fnf.blocks == ((0, 1), (1, 2))
        assert fnf.block_matrices[0][0, 0] == 1.0
        assert fnf.block_matrices[1][0, 0] == 2.0

    def test_strictly_upper_triangular_gives_zero_blocks(self):
        a = np.triu(np.ones((3, 3)), k=1)
        fnf = structure.frobenius_normal_form(a)
        assert fnf.block_sizes == (1, 1, 1)
        for mat in fnf.block_matrices:
            assert mat[0, 0] == 0.0

    def _check_form(self, a):
        fnf = structure.frobenius_normal_form(a)
        permuted = matcore.apply_symmetric_permutation(a, fnf.perm)
        assert sum(fnf.block_sizes) == a.shape[0]
        for i, (si, ei) in enumerate(fnf.blocks):
            assert np.array_equal(permuted[si:ei, si:ei], fnf.block_matrices[i])
            assert structure.is_irreducible(fnf.block_matrices[i])
            for j, (sj, ej) in enumerate(fnf.blocks):
                if j < i:
                    assert not permuted[si:ei, sj:ej].any()
        return fnf

    def test_block_triangular_invariants_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            self._check_form(random_nonneg(rng, n, scale=1.0, density=0.3))

    def test_recovers_planted_block_sizes(self, rng):
        for _ in range(100):
            a, sizes = planted_block_matrix(rng)
            fnf = self._check_form(a)
            assert sorted(fnf.block_sizes) == sizes

    def test_single_block_iff_irreducible(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            a = random_nonneg(rng, n, scale=1.0, density=0.35)
            fnf = structure.frobenius_normal_form(a)
            assert (len(fnf.blocks) == 1) == structure.is_irreducible(a)

    def test_structure_invariant_under_relabeling(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 8))
            a = random_nonneg(rng, n, scale=1.0, density=0.3)
            p = rng.permutation(n)
            b = matcore.apply_symmetric_permutation(a, p)
            assert structure.is_irreducible(a) == structure.is_irreducible(b)
            assert structure.is_nilpotent(a) == structure.is_nilpotent(b)
            sa = sorted(structure.frobenius_normal_form(a).block_sizes)
            sb = sorted(structure.frobenius_normal_form(b).block_sizes)
            assert sa == sb

    def test_carries_irreducibility_and_nilpotency(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 8))
            a = random_nonneg(rng, n, scale=1.0, density=0.3)
            if rng.random() < 0.5:
                a = np.triu(a, k=1)
            fnf = structure.frobenius_normal_form(a)
            assert fnf.irreducible == (n == 1 or strongly_connected_bool(a))
            assert fnf.nilpotency_index == nilpotency_oracle(a)
            assert np.array_equal(fnf.matrix, a)
            assert not fnf.matrix.flags.writeable

    @staticmethod
    def _tarjan_form(a):
        # the normal form as built from Tarjan's components
        m = matcore.nonneg_matrix(a)
        comps = structure.strongly_connected_components(m)
        perm = np.array([v for comp in comps for v in comp], dtype=np.intp)
        ends = np.cumsum([len(comp) for comp in comps]).tolist()
        blocks = tuple(zip([0] + ends[:-1], ends))
        permuted = matcore.apply_symmetric_permutation(m, perm)
        return structure.FrobeniusNormalForm(
            matrix=m, perm=perm, blocks=blocks,
            block_matrices=tuple(permuted[s:e, s:e] for s, e in blocks),
            irreducible=len(comps) == 1, nilpotency_index=nilpotency_oracle(m),
        )

    def _assert_tarjan_form(self, a):
        fnf = structure.frobenius_normal_form(a)
        ref = self._tarjan_form(a)
        for f in dataclasses.fields(fnf):
            got, want = getattr(fnf, f.name), getattr(ref, f.name)
            if f.name == "block_matrices":
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert g.tobytes() == w.tobytes() and not g.flags.writeable
            elif isinstance(got, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert not got.flags.writeable
            else:
                assert got == want, f.name
        return fnf

    def test_positive_shortcut_matches_tarjan(self, rng):
        cases = [np.zeros((1, 1)), np.full((1, 1), 3.0), np.ones((2, 2))]
        for n in range(2, 9):
            a = rng.uniform(0.1, 1.0, (n, n))
            cases.append(a)
            cases.append(a - np.diag(np.diag(a)))  # zero diagonal
        cases.append(np.full((3, 3), 5e-324))
        for a in cases:
            self._assert_tarjan_form(a)

    @staticmethod
    def _pattern(kind, n, seed):
        # a relabelled matrix of the kind; "cycle" and "chain" have long
        # paths, which take the vectorized searches one level per vertex
        rng = np.random.default_rng(seed)
        if kind == "sparse":
            a = random_nonneg(rng, n, scale=1.0, density=rng.uniform(0.0, 0.3))
        elif kind in ("ring", "cycle"):
            a = random_irreducible(
                rng, n, density=rng.uniform(0.0, 0.1) if kind == "ring" else 0.0)
        elif kind in ("star at 0", "star"):
            a = random_nonneg(rng, n, scale=1.0, density=rng.uniform(0.0, 0.05))
            v = 0 if kind == "star at 0" else int(rng.integers(n))
            a[v, :] = rng.uniform(0.5, 1.5, n)
            a[:, v] = rng.uniform(0.5, 1.5, n)
            if rng.random() < 0.5:
                a[v, v] = 0.0
            return a  # not relabelled: the star's center stays put
        elif kind == "planted":
            # irreducible diagonal blocks, sparse coupling above them, and
            # trailing vertices with no out-edge (zero rows)
            zero = int(rng.integers(0, n // 4 + 1))
            cuts = np.unique(rng.integers(0, n - zero + 1, int(rng.integers(1, 6))))
            bounds = list(zip(np.r_[0, cuts], np.r_[cuts, n - zero]))
            a = np.zeros((n, n))
            for s, e in bounds:
                if e > s:
                    a[s:e, s:e] = random_irreducible(rng, e - s, density=0.05)
                    a[s:e, e:] = random_nonneg(rng, n, 1.0, 0.02)[s:e, e:]
        else:  # "dag", "chain": strictly upper triangular, relabelled
            a = np.triu(random_nonneg(rng, n, scale=1.0, density=rng.uniform(0.0, 0.5)), 1)
            if kind == "chain":
                a[np.arange(n - 1), np.arange(1, n)] = 1.0
        p = rng.permutation(n)
        return a[np.ix_(p, p)]

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["sparse", "ring", "cycle", "star at 0", "star", "planted",
                         "dag", "chain"]),
        st.integers(1, 8) | st.integers(structure._REACH_N - 4, 2 * structure._REACH_N),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example("dag", 1, 0)  # [[0]]
    @example("star at 0", 1, 0)  # [[x]], x > 0
    @example("cycle", 2 * structure._REACH_N, 0)
    @example("chain", 2 * structure._REACH_N, 0)
    def test_matches_tarjan_on_both_sides_of_the_cut_over(self, kind, n, seed):
        # whichever path settles it (first level, breadth-first search,
        # Tarjan), every field is what Tarjan's components give;
        # nilpotency_index, by the longest-path loop, is the oracle's
        a = self._pattern(kind, n, seed)
        fnf = self._assert_tarjan_form(a)
        if kind in ("dag", "chain"):
            assert fnf.nilpotency_index == nilpotency_oracle(a) is not None
        if kind in ("ring", "cycle", "star at 0", "star"):
            assert fnf.irreducible

    def test_deterministic(self, rng):
        a = random_nonneg(rng, 8, scale=1.0, density=0.3)
        f1 = structure.frobenius_normal_form(a)
        f2 = structure.frobenius_normal_form(a)
        assert np.array_equal(f1.perm, f2.perm)
        assert f1.blocks == f2.blocks


class TestNilpotency:
    def test_examples(self):
        assert structure.nilpotency_index([[0.0, 1.0], [0.0, 0.0]]) == 2
        assert structure.nilpotency_index([[0.0, 1.0], [1.0, 0.0]]) is None
        assert structure.nilpotency_index(np.zeros((3, 3))) == 1
        assert structure.is_nilpotent([[0.0, 1.0], [0.0, 0.0]])
        assert not structure.is_nilpotent([[0.0, 1.0], [1.0, 0.0]])

    def test_full_shift_has_index_n(self):
        a = np.diag(np.ones(4), k=1)  # 5x5, single superdiagonal
        assert structure.nilpotency_index(a) == 5

    def test_agrees_with_power_oracle(self, rng):
        for _ in range(150):
            n = int(rng.integers(1, 8))
            if rng.random() < 0.5:
                base = np.triu(random_nonneg(rng, n, scale=1.0, density=0.5), k=1)
            else:
                base = random_nonneg(rng, n, scale=1.0, density=0.3)
            p = rng.permutation(n)
            a = matcore.apply_symmetric_permutation(base, p)
            assert structure.nilpotency_index(a) == nilpotency_oracle(a)

    def test_index_is_exact_when_float_powers_underflow(self):
        # the real a^2 has the entry 1e-400, which is 0.0 in float64
        a = np.array([[0.0, 1e-200, 0.0], [0.0, 0.0, 1e-200], [0.0, 0.0, 0.0]])
        assert not (a @ a).any()
        assert structure.nilpotency_index(a) == 3
        assert nilpotency_oracle(a) == 3

    def test_tiny_weights_agree_with_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            base = 1e-120 * np.triu(random_nonneg(rng, n, scale=1.0, density=0.6), k=1)
            a = matcore.apply_symmetric_permutation(base, rng.permutation(n))
            assert structure.nilpotency_index(a) == nilpotency_oracle(a)


class TestSpectralBlock:
    def test_diagonal_matrix_picks_the_max(self):
        fnf = structure.frobenius_normal_form(np.diag([1.0, 3.0, 2.0]))
        idx = solver.spectral_block(np.diag([1.0, 3.0, 2.0]))
        assert fnf.block_matrices[idx][0, 0] == 3.0

    def test_irreducible_matrix_is_block_zero(self, rng):
        a = random_irreducible(rng, 4)
        assert solver.spectral_block(a) == 0

    def test_two_block_example(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0  # 2-cycle, radius 1
        a[2, 2] = 2.0
        idx = solver.spectral_block(a)
        fnf = structure.frobenius_normal_form(a)
        assert fnf.block_matrices[idx].shape == (1, 1)
        assert fnf.block_matrices[idx][0, 0] == 2.0

    def test_tie_breaks_to_lowest_index(self):
        assert solver.spectral_block(np.diag([2.0, 2.0])) == 0


class TestOneAnalysisPerMatrix:
    """Every consumer reuses one normal form: at most one SCC run per
    matrix, and none where reachability from vertex 0 settles
    irreducibility: a positive row 0 and column 0 at any size, and a
    breadth-first search from ``_REACH_N`` vertices up."""

    @pytest.fixture
    def scc_calls(self, monkeypatch):
        # Tarjan's walk, which the public function and the normal form
        # both run; records the vertex count
        calls = []
        original = structure._tarjan

        def counting(adj):
            calls.append(len(adj))
            return original(adj)

        monkeypatch.setattr(structure, "_tarjan", counting)
        return calls

    @pytest.mark.parametrize("n, seed", [(40, 3), (200, 4)])
    def test_one_adjacency_per_normal_form(self, monkeypatch, scc_calls, n, seed):
        # a DAG's out-neighbor lists serve Tarjan and the longest path
        dag = TestFrobeniusNormalForm._pattern("dag", n, seed)
        comps = structure.strongly_connected_components(dag)
        calls, adjacency = [], structure._adjacency

        def counting(p):
            calls.append(p.shape)
            return adjacency(p)

        monkeypatch.setattr(structure, "_adjacency", counting)
        scc_calls.clear()
        fnf = structure.frobenius_normal_form(dag)
        assert calls == [(n, n)] and scc_calls == [n]
        assert len(comps) == n
        assert fnf.perm.tolist() == [v for comp in comps for v in comp]
        assert fnf.blocks == tuple((v, v + 1) for v in range(n))
        assert fnf.nilpotency_index == nilpotency_oracle(dag) is not None

    def test_perron_root_irreducible(self, scc_calls, rng):
        solver.perron_root(random_irreducible(rng, 6))
        assert len(scc_calls) == 1

    def test_positive_matrix_skips_tarjan(self, scc_calls, rng):
        a = rng.uniform(0.1, 1.0, (6, 6))
        a[np.diag_indices(6)] = 0.0
        assert structure.frobenius_normal_form(a).irreducible
        solver.perron_root(a)
        assert scc_calls == []

    @pytest.mark.parametrize("zero", [(0, 5), (4, 2)])
    def test_one_zero_off_diagonal_runs_tarjan(self, scc_calls, rng, zero):
        # a zero in row 0 fails the first level of the search (Tarjan runs
        # below _REACH_N); one elsewhere leaves row 0 and column 0 positive
        # off the diagonal, which settles irreducibility
        a = rng.uniform(0.1, 1.0, (6, 6))
        a[zero] = 0.0
        fnf = structure.frobenius_normal_form(a)
        assert len(scc_calls) <= (1 if zero[0] == 0 else 0)
        assert fnf.irreducible and fnf.block_sizes == (6,)
        TestFrobeniusNormalForm()._assert_tarjan_form(a)

    @pytest.mark.parametrize("reducible", [False, True])
    def test_sparse_ring_at_scale(self, scc_calls, rng, reducible):
        # n = 200: breadth-first search settles the irreducible ring, and
        # one Tarjan run the ring whose vertex 0 has lost its in-edges
        n = 200
        a = np.zeros((n, n))
        a[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        a[rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)] = 0.5
        if reducible:
            a[:, 0] = 0.0
        fnf = structure.frobenius_normal_form(a)
        assert len(scc_calls) == (1 if reducible else 0)
        assert fnf.irreducible == (not reducible)
        assert structure.is_irreducible(a) == (not reducible)
        assert len(scc_calls) == (1 if reducible else 0)

    def test_long_paths_at_scale(self, scc_calls):
        # a 200-cycle takes 400 search levels and no Tarjan run; the
        # 200-shift fails the backward search, runs Tarjan once, and its
        # index of 200 is one pass over its edges
        cycle = np.roll(np.eye(200), 1, axis=1)
        assert structure.frobenius_normal_form(cycle).irreducible
        assert len(scc_calls) == 0
        fnf = structure.frobenius_normal_form(np.eye(200, k=1))
        assert len(scc_calls) == 1
        assert not fnf.irreducible and fnf.nilpotency_index == 200

    def test_perron_root_reducible(self, scc_calls, rng):
        a = reducible_base(rng)
        solver.perron_root(a)
        assert len(scc_calls) == 1

    def test_perron_root_reuses_a_given_normal_form(self, scc_calls, rng):
        for a in (random_irreducible(rng, 5), reducible_base(rng)):
            fnf = structure.frobenius_normal_form(a)
            scc_calls.clear()
            from_fnf = solver.perron_root(fnf)
            assert scc_calls == []
            direct = solver.perron_root(a)
            assert (from_fnf.lo, from_fnf.hi) == (direct.lo, direct.hi)
            assert from_fnf.iterations == direct.iterations

    @pytest.mark.parametrize("name", ["cycle3.txt", "blocks4.txt"])
    def test_cli_analyze(self, scc_calls, fixtures_dir, capsys, name):
        assert cli.main(["analyze", str(fixtures_dir / name)]) == 0
        capsys.readouterr()
        assert len(scc_calls) == 1

    def test_cli_certify_one_normal_form_per_matrix(
        self, monkeypatch, fixtures_dir, capsys
    ):
        # every normal form, the public function's included, is built by
        # _normal_form; the CLI hands it the parsed arrays directly
        calls = []
        original = structure._normal_form

        def counting(a):
            calls.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(structure, "_normal_form", counting)
        argv = ["certify", str(fixtures_dir / "cycle2.txt"),
                str(fixtures_dir / "cycle2_perturbed.txt")]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(calls) == 2
