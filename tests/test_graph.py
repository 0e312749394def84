"""Neighbor graph construction and Laplacian identities."""

import hashlib
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from oracles import distance_oracle, mutual_knn_oracle
from scipy import sparse

import tring.graph
from tring.graph import NeighborGraph, neighbor_graph
from tring.solver import SolverConfig, fit
from tring.tensor_ops import spectral_norm, unfold_tr


def kernel_distances(x):
    """All-pairs distances between the sample slices of ``x`` from the
    graph's own distance kernel, in one call."""
    flat = unfold_tr(x, x.ndim - 1)
    sq = tring.graph._sq_norms(flat)
    return np.sqrt(tring.graph._squared_distances(flat, flat, sq, sq))


def quadratic(graph, g):
    """``tr(g.T @ h @ g)`` for the Laplacian ``h`` that ``graph`` applies."""
    return float(np.vdot(g, graph @ g))


def two_node_graph(lap):
    """The hand-built graph of one edge that applies the Laplacian ``lap``."""
    return NeighborGraph(w=np.array([[0.0, 1.0], [1.0, 0.0]]), degree=np.ones(2), laplacian=lap)


def tied_samples(n, seed):
    """Samples on a 3x3x3 integer lattice: distances are exact, and most
    rows have many samples tied at their p-th distance."""
    return np.random.default_rng(seed).integers(0, 3, size=(3, n)).astype(np.float64)


def grouped_samples(n, seed):
    """Noisy copies of 4 prototypes, each prototype's samples contiguous,
    so most of a row's nearest samples lie in its own row block."""
    rng = np.random.default_rng(seed)
    protos = rng.random((6, 4))
    return protos[:, np.arange(n) * 4 // n] + 0.3 * rng.random((6, n))


def oracle_case(kind, n):
    if kind == "grouped":
        return grouped_samples(n, 0)
    if kind == "shuffled":
        return grouped_samples(n, 0)[:, np.random.default_rng(1).permutation(n)]
    return tied_samples(n, 2)


# Builds a colour-sized graph and prints a digest of its adjacency.
_THREADED_GRAPH = """
import hashlib
from tring.graph import neighbor_graph
from tring.synthetic import blob_tensor
x, _ = blob_tensor((16, 16, 3), 20, 150, noise=1.3, seed=0)
w = neighbor_graph(x, 5).adjacency
print(hashlib.sha256(w.indptr.tobytes() + w.indices.tobytes()).hexdigest())
"""


def quadratic_oracle(w, g):
    n = w.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += 0.5 * w[i, j] * np.sum((g[i] - g[j]) ** 2)
    return total


class TestPairwiseDistances:
    def test_duplicate_samples_have_zero_distance(self):
        x = np.stack([np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2))], axis=-1)
        d = kernel_distances(x)
        assert d[0, 1] == 0.0
        assert d[0, 2] == pytest.approx(2.0)

    def test_scalar_samples_are_absolute_differences(self):
        x = np.array([[0.0, 3.0, 4.0]])  # three samples of one value each
        d = kernel_distances(x)
        assert np.allclose(d, [[0, 3, 4], [3, 0, 1], [4, 1, 0]], atol=1e-12)

    def test_matches_loop_oracle(self):
        x = np.random.default_rng(0).random((4, 4, 6))
        assert np.allclose(kernel_distances(x), distance_oracle(x), atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_named(self, bad):
        # Named up front, before any distance is taken.
        x = np.random.default_rng(0).random((4, 4, 5))
        x[1, 2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            neighbor_graph(x, 2)

    def test_single_sample_rejected(self):
        for x in (np.ones((3, 1)), np.float64(3.0)):
            with pytest.raises(ValueError, match="at least 2 samples"):
                neighbor_graph(x, 1)


class TestKnnGraph:
    def test_hand_enumerated_three_samples(self):
        # samples 0, 1, 10 with p=1: nearest sets are {1}, {0}, {1};
        # only the 0-1 pair is mutual.
        g = neighbor_graph(np.array([[0.0, 1.0, 10.0]]), 1)
        assert np.array_equal(g.w, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert np.array_equal(g.degree, [1, 1, 0])
        assert np.allclose(g.laplacian.sum(axis=1), 0.0)

    def test_equidistant_simplex_gives_complete_graph(self):
        # Unit vectors: every pair of samples lies sqrt(2) apart.
        n = 4
        g = neighbor_graph(np.eye(n), n - 1)
        assert np.array_equal(g.w, np.ones((n, n)) - np.eye(n))
        assert np.allclose(g.laplacian, n * np.eye(n) - np.ones((n, n)))

    def test_symmetric_binary_zero_diagonal(self):
        x = np.random.default_rng(2).random((3, 3, 8))
        g = neighbor_graph(x, 3)
        assert np.array_equal(g.w, g.w.T)
        assert np.all(np.diagonal(g.w) == 0.0)
        assert set(np.unique(g.w)) <= {0.0, 1.0}

    def test_scale_invariance(self):
        # A power-of-two factor scales every computed distance exactly.
        x = np.random.default_rng(3).random((4, 7))
        a = neighbor_graph(x, 2)
        b = neighbor_graph(4.0 * x, 2)
        assert np.array_equal(a.w, b.w)

    def test_monotone_growth_in_p(self):
        x = np.random.default_rng(4).random((5, 9))
        prev = np.zeros((9, 9))
        for p in range(1, 9):
            w = neighbor_graph(x, p).w
            assert np.all(w >= prev)
            prev = w

    def test_tie_break_prefers_lower_index(self):
        # Samples at 0, 1, -1 and 2.5: sample 0 is exactly 1 from both 1 and
        # 2, and with p=1 it must pick 1.  Picking 2 would join 0 and 2.
        g = neighbor_graph(np.array([[0.0, 1.0, -1.0, 2.5]]), 1)
        assert g.w[0, 1] == 1.0 and g.w[0, 2] == 0.0

    def test_arrays_read_only_so_cached_operator_cannot_go_stale(self):
        g = neighbor_graph(np.random.default_rng(3).random((2, 6)), 2)
        lap = np.array(g.laplacian)
        hand = NeighborGraph(w=np.array(g.w), degree=np.array(g.degree), laplacian=lap)
        for graph in (g, hand):
            for arr in (graph.w, graph.degree, graph.laplacian):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0
        lap *= 100.0  # the graph holds its own copy
        np.testing.assert_array_equal(hand @ np.eye(6), g.laplacian)
        np.testing.assert_array_equal(hand.laplacian, g.laplacian)

    def test_hand_built_graph_ignores_later_edits_of_its_inputs(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        degree = np.ones(2)
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        g = NeighborGraph(w=w, degree=degree, laplacian=sparse.csr_array(lap))
        norm = g.norm
        for arr in (w, degree, lap):
            arr *= 7.0
        assert np.array_equal(g.w, [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(g.degree, [1.0, 1.0])
        assert np.array_equal(g @ np.eye(2), [[1.0, -1.0], [-1.0, 1.0]])
        assert g.norm == norm
        assert w.flags.writeable and degree.flags.writeable and lap.flags.writeable


class TestLaplacianQuadratic:
    def test_constant_rows_in_nullspace(self):
        g = neighbor_graph(np.random.default_rng(7).random((3, 6)), 2)
        const = np.full((6, 3), 2.5)
        assert abs(quadratic(g, const)) <= 1e-12

    def test_two_node_hand_value(self):
        h = np.array([[1.0, -1.0], [-1.0, 1.0]])
        v = np.array([[0.0], [2.0]])
        assert quadratic(two_node_graph(h), v) == pytest.approx(4.0)

    def test_matches_pairwise_difference_oracle(self):
        rng = np.random.default_rng(8)
        g = neighbor_graph(rng.random((4, 10)), 3)
        feats = rng.standard_normal((10, 3))
        assert quadratic(g, feats) == pytest.approx(
            quadratic_oracle(g.w, feats), abs=1e-10
        )


class TestImmutableOperator:
    def test_caller_edits_leave_products_and_norm_unchanged(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        csr = sparse.csr_array(lap)
        graph = two_node_graph(csr)
        norm = graph.norm
        csr.data *= 100.0
        assert np.array_equal(graph @ np.eye(2), lap)
        assert graph.norm == norm == spectral_norm(sparse.csr_array(lap))

    def test_matrix_read_only_and_not_reassignable(self):
        hand = two_node_graph(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        g = neighbor_graph(np.random.default_rng(4).random((2, 5)), 2)
        for graph in (hand, g):
            for arr in (graph.matrix.data, graph.matrix.indices, graph.matrix.indptr):
                assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                graph.matrix.data[0] = 5.0
            with pytest.raises(AttributeError, match="immutable"):
                graph.matrix = sparse.csr_array(np.eye(graph.n_samples))


class TestBlockedBuild:
    @pytest.mark.parametrize("block", [None, 997])
    @pytest.mark.parametrize("p", [1, 5, 12])
    def test_ties_at_pth_distance_match_stable_argsort(self, monkeypatch, block, p):
        # 240 samples on 27 lattice points: a row's p-th distance is shared
        # by dozens of samples, and the lower indices among them must win.
        # block=997 splits the rows into uneven blocks of 4.
        if block is not None:
            monkeypatch.setattr(tring.graph, "_BLOCK", block)
        x = tied_samples(240, p)
        expected = mutual_knn_oracle(kernel_distances(x), p)
        assert np.array_equal(neighbor_graph(x, p).w, expected)

    def test_random_data_matches_dense_oracle_across_blocks(self):
        # 1100 samples: more than 2**20 distances, so the rows come in blocks.
        x = np.random.default_rng(11).random((6, 1100))
        expected = mutual_knn_oracle(kernel_distances(x), 5)
        g = neighbor_graph(x, 5)
        assert np.array_equal(g.w, expected)
        assert np.array_equal(g.degree, expected.sum(axis=1))

    @pytest.mark.parametrize("kind", ["grouped", "shuffled", "lattice"])
    @pytest.mark.parametrize("p", [1, 5, 199])
    @pytest.mark.parametrize("block", [None, 300, 1400])
    def test_upper_triangle_build_matches_full_row_oracle(self, monkeypatch, kind, p, block):
        # 200 samples are one block by default.  block=300 gives blocks of
        # one row (one-row products, and no bound from a diagonal block);
        # block=1400 gives 28 blocks of 7 rows and a last one of 4, fewer
        # than p + 1 for p >= 5.  With p = n - 1 no diagonal block bounds.
        n = 200
        if block is not None:
            monkeypatch.setattr(tring.graph, "_BLOCK", block)
            blocks = tring.graph._row_blocks(n, n)
            assert blocks[-1] == ((199, 200) if block == 300 else (196, 200))
        x = oracle_case(kind, n)
        expected = mutual_knn_oracle(kernel_distances(x), p)
        g = neighbor_graph(x, p)
        assert np.array_equal(g.w, expected)
        assert np.array_equal(g.degree, expected.sum(axis=1))
        assert np.array_equal(g.laplacian, np.diag(expected.sum(axis=1)) - expected)

    def test_blas_thread_count_keeps_the_graph_bitwise(self):
        # Each upper block is a GEMM of its own shape, which OpenBLAS splits
        # across threads its own way; the adjacency must not depend on it.
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run([sys.executable, "-c", _THREADED_GRAPH], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(out.stdout.strip())
        assert len(digests[0]) == len(hashlib.sha256().hexdigest())
        assert digests[0] == digests[1]

    def test_operator_stores_the_dense_laplacian_csr_entries_in_order(self):
        # Sample 12 sits far away, so the graph has an isolated node.
        x = np.random.default_rng(12).random((4, 13))
        x[:, 12] += 50.0
        g = neighbor_graph(x, 3)
        assert g.degree[12] == 0
        lap = np.diag(g.degree) - g.w
        assert np.array_equal(g.laplacian, lap)
        for ref, got in ((sparse.csr_array(lap), g.matrix), (sparse.csr_array(g.w), g.adjacency)):
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, attr), getattr(ref, attr))

    def test_dense_views_are_built_on_access_not_kept(self):
        g = neighbor_graph(np.random.default_rng(13).random((3, 9)), 2)
        assert isinstance(g.adjacency, sparse.csr_array)
        assert g.w is not g.w and g.laplacian is not g.laplacian
        assert not g.adjacency.data.flags.writeable
        with pytest.raises(AttributeError):
            g.degree = np.zeros(9)

    def test_hand_built_graph_applies_the_laplacian_given(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        lap = np.array([[2.0, -1.0], [-1.0, 3.0]])
        g = NeighborGraph(w=w, degree=np.ones(2), laplacian=lap)
        assert np.array_equal(g.laplacian, lap)
        assert np.array_equal(g @ np.eye(2), lap)
        assert np.array_equal(g.w, w)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_hand_built_laplacian_must_be_square(self, shape):
        message = re.escape(f"Laplacian must be square, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            NeighborGraph(w=np.zeros((2, 2)), degree=np.zeros(2), laplacian=np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("as_sparse", [False, True])
    def test_hand_built_laplacian_must_be_finite(self, bad, as_sparse):
        # Left to the norm, scipy's eigensolver would fail on it mid-fit.
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        lap[0, 1] = bad
        message = re.escape("Laplacian must be finite (no NaN or Inf)")
        with pytest.raises(ValueError, match=message):
            two_node_graph(sparse.csr_array(lap) if as_sparse else lap)

    def test_overflowing_distances_named(self):
        x = np.random.default_rng(14).random((3, 8)) * 1e200
        with pytest.raises(ValueError, match="too large for float64"):
            neighbor_graph(x, 2)

    def test_memory_scales_with_samples_times_p(self):
        # One dense 8000 x 8000 float64 array would take 488 MiB; neither the
        # build nor a graph fit may form one.
        x = np.random.default_rng(15).random((8, 8000))
        tracemalloc.start()
        try:
            g = neighbor_graph(x, 5)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            fit(x, (2, 2), SolverConfig(beta=0.1, seed=0, max_sweeps=2), g)
            fit_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n_samples == 8000
        assert build_peak < 64 * 2**20
        assert fit_peak < 64 * 2**20
