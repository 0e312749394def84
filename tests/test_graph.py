"""Neighbor graph construction and Laplacian identities."""

import numpy as np
import pytest

from tring.graph import (
    NeighborGraph,
    knn_graph,
    laplacian_quadratic,
    neighbor_graph,
    pairwise_distances,
)


def distance_oracle(x):
    n = x.shape[-1]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d[i, j] = np.linalg.norm((x[..., i] - x[..., j]).ravel())
    return d


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
        d = pairwise_distances(x)
        assert d[0, 1] == 0.0
        assert d[0, 2] == pytest.approx(2.0)

    def test_scalar_samples_are_absolute_differences(self):
        x = np.array([[0.0, 3.0, 4.0]])  # three samples of one value each
        d = pairwise_distances(x)
        assert np.allclose(d, [[0, 3, 4], [3, 0, 1], [4, 1, 0]], atol=1e-12)

    def test_matches_loop_oracle(self):
        x = np.random.default_rng(0).random((4, 4, 6))
        assert np.allclose(pairwise_distances(x), distance_oracle(x), atol=1e-10)

    def test_symmetric_zero_diagonal(self):
        x = np.random.default_rng(1).random((3, 5))
        d = pairwise_distances(x)
        assert np.array_equal(d, d.T)
        assert np.all(np.diagonal(d) == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_named(self, bad):
        # NaN distances compare unequal to themselves; without the up-front
        # check the graph build failed as "distance matrix must be symmetric".
        x = np.random.default_rng(0).random((4, 4, 5))
        x[1, 2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            neighbor_graph(x, 2)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.ones((3, 1)))


class TestKnnGraph:
    def test_hand_enumerated_three_samples(self):
        # samples 0, 1, 10 with p=1: nearest sets are {1}, {0}, {1};
        # only the 0-1 pair is mutual.
        d = pairwise_distances(np.array([[0.0, 1.0, 10.0]]))
        g = knn_graph(d, 1)
        assert np.array_equal(g.w, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert np.array_equal(g.degree, [1, 1, 0])
        assert np.allclose(g.laplacian.sum(axis=1), 0.0)

    def test_equidistant_simplex_gives_complete_graph(self):
        n = 4
        d = np.ones((n, n)) - np.eye(n)
        g = knn_graph(d, n - 1)
        assert np.array_equal(g.w, np.ones((n, n)) - np.eye(n))
        assert np.allclose(g.laplacian, n * np.eye(n) - np.ones((n, n)))

    def test_symmetric_binary_zero_diagonal(self):
        x = np.random.default_rng(2).random((3, 3, 8))
        g = knn_graph(pairwise_distances(x), 3)
        assert np.array_equal(g.w, g.w.T)
        assert np.all(np.diagonal(g.w) == 0.0)
        assert set(np.unique(g.w)) <= {0.0, 1.0}

    def test_scale_invariance(self):
        d = pairwise_distances(np.random.default_rng(3).random((4, 7)))
        a = knn_graph(d, 2)
        b = knn_graph(10.0 * d, 2)
        assert np.array_equal(a.w, b.w)

    def test_monotone_growth_in_p(self):
        d = pairwise_distances(np.random.default_rng(4).random((5, 9)))
        prev = np.zeros((9, 9))
        for p in range(1, 9):
            w = knn_graph(d, p).w
            assert np.all(w >= prev)
            prev = w

    def test_rows_of_laplacian_sum_to_zero_exactly(self):
        d = pairwise_distances(np.random.default_rng(5).random((4, 12)))
        g = knn_graph(d, 4)
        assert np.all(g.laplacian.sum(axis=1) == 0.0)
        assert np.all(g.laplacian @ np.ones(12) == 0.0)

    def test_p_out_of_range(self):
        d = pairwise_distances(np.random.default_rng(6).random((2, 5)))
        with pytest.raises(ValueError):
            knn_graph(d, 0)
        with pytest.raises(ValueError):
            knn_graph(d, 5)

    def test_asymmetric_input_rejected(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            knn_graph(d, 1)

    def test_tie_break_prefers_lower_index(self):
        # sample 0 is equidistant from 1 and 2; with p=1 it must pick 1.
        d = np.array(
            [[0.0, 1.0, 1.0, 5.0],
             [1.0, 0.0, 5.0, 1.5],
             [1.0, 5.0, 0.0, 9.0],
             [5.0, 1.5, 9.0, 0.0]]
        )
        g = knn_graph(d, 1)
        assert g.w[0, 1] == 1.0 and g.w[0, 2] == 0.0

    def test_arrays_read_only_so_cached_operator_cannot_go_stale(self):
        g = knn_graph(pairwise_distances(np.random.default_rng(3).random((2, 6))), 2)
        lap = np.array(g.laplacian)
        hand = NeighborGraph(w=np.array(g.w), degree=np.array(g.degree), laplacian=lap)
        for graph in (g, hand):
            for arr in (graph.w, graph.degree, graph.laplacian):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0
        assert not lap.flags.writeable
        np.testing.assert_array_equal(hand.operator @ np.eye(6), g.laplacian)


class TestLaplacianQuadratic:
    def test_constant_rows_in_nullspace(self):
        d = pairwise_distances(np.random.default_rng(7).random((3, 6)))
        g = knn_graph(d, 2)
        const = np.full((6, 3), 2.5)
        assert abs(laplacian_quadratic(g.laplacian, const)) <= 1e-12

    def test_two_node_hand_value(self):
        h = np.array([[1.0, -1.0], [-1.0, 1.0]])
        v = np.array([[0.0], [2.0]])
        assert laplacian_quadratic(h, v) == pytest.approx(4.0)

    def test_matches_pairwise_difference_oracle(self):
        rng = np.random.default_rng(8)
        g = knn_graph(pairwise_distances(rng.random((4, 10))), 3)
        feats = rng.standard_normal((10, 3))
        assert laplacian_quadratic(g.laplacian, feats) == pytest.approx(
            quadratic_oracle(g.w, feats), abs=1e-10
        )

    def test_nonnegative_on_random_vectors(self):
        rng = np.random.default_rng(9)
        g = knn_graph(pairwise_distances(rng.random((5, 8))), 3)
        for _ in range(200):
            v = rng.standard_normal(8)
            assert laplacian_quadratic(g.laplacian, v) >= -1e-10


def test_neighbor_graph_convenience_matches_two_step():
    x = np.random.default_rng(10).random((4, 4, 7))
    a = neighbor_graph(x, 3)
    b = knn_graph(pairwise_distances(x), 3)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.laplacian, b.laplacian)
