"""Metrics against brute-force assignment, probability-table, and
exhaustive-search oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest
from oracles import accuracy_oracle, entropy_oracle, knn_oracle, mi_oracle, nmi_oracle

import tring.graph
from tring.metrics import (
    _lloyd,
    accuracy,
    entropy,
    kmeans,
    knn_classify,
    mutual_information,
    nmi,
    sparseness,
)


def squared_distances(x, centers):
    """The distance kernel k-means and k-NN share, with its row norms."""
    return tring.graph._squared_distances(
        x, centers, tring.graph._sq_norms(x), tring.graph._sq_norms(centers)
    )


def lloyd_oracle(x, k, rng, max_iter=300):
    """k-means run with per-cluster loops for the empty-cluster scan and
    the centre means.  Returns (labels, wcss, history, re-seed count)."""
    n = x.shape[0]
    centers = x[rng.choice(n, size=k, replace=False)].copy()
    labels = None
    history = []
    reseeds = 0
    for _ in range(max_iter):
        d2 = squared_distances(x, centers)
        new_labels = d2.argmin(axis=1)
        cost = d2[np.arange(n), new_labels]
        for c in range(k):
            if not np.any(new_labels == c):
                # Never the last member of an earlier cluster.
                lone = [new_labels[i] < c and np.sum(new_labels == new_labels[i]) == 1
                        for i in range(n)]
                far = int(np.argmax(np.where(lone, -np.inf, cost)))
                centers[c] = x[far]
                new_labels[far] = c
                cost[far] = 0.0
                reseeds += 1
        history.append(float(cost.sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = x[labels == c].mean(axis=0)
    d2 = squared_distances(x, centers)
    return labels, float(d2[np.arange(n), labels].sum()), history, reseeds


def wcss_of_partition(x, labels):
    total = 0.0
    for c in np.unique(labels):
        pts = x[labels == c]
        total += np.sum((pts - pts.mean(axis=0)) ** 2)
    return total


class TestSparseness:
    def test_one_hot_is_one(self):
        assert sparseness(np.array([0.0, 0.0, 3.0, 0.0])) == pytest.approx(1.0)

    def test_constant_is_zero(self):
        assert sparseness(np.full(4, 2.5)) == pytest.approx(0.0, abs=1e-12)

    def test_half_active_vector(self):
        # (sqrt(4) - 2/sqrt(2)) / (sqrt(4) - 1)
        v = np.array([1.0, 1.0, 0.0, 0.0])
        assert sparseness(v) == pytest.approx((2 - np.sqrt(2)) / 1, rel=1e-12)

    def test_scale_invariance(self):
        # At 1e200 and 1e-200 the squares of the entries leave float64.
        vs = (np.random.default_rng(0).random((3, 4)), np.array([1.0, 1.0]),
              np.array([0.0, 0.0, 5.0, 0.0]))
        for v, c in itertools.product(vs, (0.5, -2.0, 100.0, 1e200, 1e-200)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert sparseness(c * v) == pytest.approx(sparseness(v), abs=1e-12)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            val = sparseness(rng.standard_normal(rng.integers(2, 30)))
            assert 0.0 <= val <= 1.0 + 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            sparseness(np.zeros(5))


class TestAccuracy:
    def test_identical_labelings(self):
        y = np.array([0, 1, 2, 1, 0])
        assert accuracy(y, y) == 1.0

    def test_relabeling_absorbed(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([5, 5, 9, 9, 7, 7])  # bijective relabeling
        assert accuracy(pred, truth) == 1.0

    def test_hand_worked_three_cluster_case(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([1, 1, 1, 0, 0, 2])
        assert accuracy(pred, truth) == pytest.approx(4 / 6)
        assert accuracy_oracle(pred, truth) == pytest.approx(4 / 6)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_permutation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        n = int(rng.integers(5, 40))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        assert accuracy(pred, truth) == pytest.approx(accuracy_oracle(pred, truth))

    def test_invariant_under_relabeling_either_side(self):
        rng = np.random.default_rng(99)
        pred = rng.integers(0, 4, size=30)
        truth = rng.integers(0, 4, size=30)
        base = accuracy(pred, truth)
        perm = rng.permutation(4)
        assert accuracy(perm[pred], truth) == pytest.approx(base)
        assert accuracy(pred, perm[truth]) == pytest.approx(base)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0, 1, 2])


class TestMutualInformation:
    def test_identical_two_class_labelings(self):
        a = np.array([0, 0, 1, 1])
        assert mutual_information(a, a) == pytest.approx(1.0)  # H = 1 bit
        assert nmi(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_independent_uniform_labelings(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        assert mutual_information(a, b) == pytest.approx(0.0, abs=1e-12)
        assert nmi(a, b) == 0.0

    def test_hand_worked_asymmetric_case(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 0, 0, 1])
        # joint counts: (0,0)=2, (1,0)=1, (1,1)=1
        expected = (
            0.5 * math.log2(0.5 / (0.5 * 0.75))
            + 0.25 * math.log2(0.25 / (0.5 * 0.75))
            + 0.25 * math.log2(0.25 / (0.5 * 0.25))
        )
        assert mutual_information(a, b) == pytest.approx(expected, rel=1e-12)
        assert entropy(a) == pytest.approx(1.0)
        assert entropy(b) == pytest.approx(entropy_oracle(b), rel=1e-12)
        assert nmi(a, b) == pytest.approx(expected / 1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_probability_table_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        a = rng.integers(0, rng.integers(2, 6), size=n)
        b = rng.integers(0, rng.integers(2, 6), size=n)
        assert mutual_information(a, b) == pytest.approx(mi_oracle(a, b), abs=1e-10)
        assert nmi(a, b) == pytest.approx(nmi_oracle(a, b), abs=1e-10)

    def test_nmi_symmetric_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.integers(0, 4, size=25)
            b = rng.integers(0, 3, size=25)
            assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
            assert 0.0 <= nmi(a, b) <= 1.0

    def test_single_cluster_gives_zero(self):
        a = np.zeros(6, dtype=int)
        b = np.array([0, 1, 2, 0, 1, 2])
        assert nmi(a, b) == 0.0
        assert nmi(b, a) == 0.0


class TestKmeans:
    def test_two_separated_scalar_blobs(self):
        x = np.array([0.0, 0.1, 10.0, 10.1])
        labels = kmeans(x, 2, restarts=10, seed=0)
        assert accuracy(labels, np.array([0, 0, 1, 1])) == 1.0
        # A 1-D input is one feature per sample, the rule knn_classify shares.
        assert np.array_equal(labels, kmeans(x[:, None], 2, restarts=10, seed=0))

    def test_k_equals_samples_gives_zero_wcss(self):
        x = np.random.default_rng(1).random((6, 3))
        labels = kmeans(x, 6, restarts=5, seed=0)
        assert np.unique(labels).size == 6
        assert wcss_of_partition(x, labels) == pytest.approx(0.0, abs=1e-20)

    def test_two_tight_triads_match_exhaustive_search(self):
        rng = np.random.default_rng(2)
        x = np.vstack(
            [np.array([0.0, 0.0]) + 0.05 * rng.random((3, 2)),
             np.array([5.0, 5.0]) + 0.05 * rng.random((3, 2))]
        )
        labels = kmeans(x, 2, restarts=200, seed=3)
        best = min(
            wcss_of_partition(x, np.array(assign))
            for assign in itertools.product([0, 1], repeat=6)
            if len(set(assign)) == 2
        )
        assert wcss_of_partition(x, labels) == pytest.approx(best, rel=1e-12)

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(4).random((20, 3))
        a = kmeans(x, 4, restarts=8, seed=11)
        b = kmeans(x, 4, restarts=8, seed=11)
        assert np.array_equal(a, b)

    def test_objective_never_increases_within_a_run(self):
        x = np.random.default_rng(5).random((30, 2))
        for r in range(10):
            _, _, history = _lloyd(x, tring.graph._sq_norms(x), 4, np.random.default_rng((6, r)))
            assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    @pytest.mark.parametrize(
        "seed, shape, sites, k",
        [(0, (150, 5), None, 7), (2, (150, 5), None, 7), (1, (80, 2), 3, 12),
         (3, (80, 2), 3, 12), (4, (20, 2), 2, 6), (48, (25, 1), 6, 6)],
    )
    def test_runs_match_per_cluster_loop_oracle(self, seed, shape, sites, k):
        # Lattice data (``sites`` values per feature) puts several initial
        # centres on one point, so the empty-cluster re-seed runs; on the
        # 1-feature case a re-seed also empties a later cluster, which must
        # be re-seeded in turn.
        rng = np.random.default_rng(seed)
        x = rng.random(shape) if sites is None else rng.integers(0, sites, shape).astype(np.float64)
        reseeds, best, best_wcss = 0, None, np.inf
        for r in range(8):
            labels, wcss, history = _lloyd(x, tring.graph._sq_norms(x), k, np.random.default_rng((seed, r)))
            want = lloyd_oracle(x, k, np.random.default_rng((seed, r)))
            np.testing.assert_array_equal(labels, want[0])
            np.testing.assert_array_equal([wcss] + history, [want[1]] + want[2])
            reseeds += want[3]
            if want[1] < best_wcss:
                best, best_wcss = want[0], want[1]
        assert (reseeds > 0) == (sites is not None)
        assert np.array_equal(kmeans(x, k, restarts=8, seed=seed), best)

    def test_reseed_never_empties_an_earlier_cluster(self):
        # 9 distinct points and 12 clusters: the farthest point is often
        # the last member of a cluster already scanned.  Taking it would
        # leave that cluster empty with a 0/0 centre until max_iter.
        x = np.random.default_rng(1).integers(0, 3, (80, 2)).astype(np.float64)
        for r in range(20):
            labels, wcss, history = _lloyd(x, tring.graph._sq_norms(x), 12, np.random.default_rng((1, r)))
            assert np.array_equal(np.unique(labels), np.arange(12))
            centers = np.array([x[labels == c].mean(axis=0) for c in range(12)])
            assert np.all(np.isfinite(centers))
            assert np.isfinite(wcss) and np.all(np.isfinite(history))
            assert len(history) < 300

    def test_one_feature_matches_oracle_up_to_rounding(self):
        # With one feature numpy's mean pairs its terms, while the centre
        # sums add rows in order, so only the last bits may differ.
        x = np.random.default_rng(7).random((300, 1))
        for r in range(5):
            labels, wcss, _ = _lloyd(x, tring.graph._sq_norms(x), 6, np.random.default_rng((7, r)))
            want = lloyd_oracle(x, 6, np.random.default_rng((7, r)))
            assert np.array_equal(labels, want[0])
            assert wcss == pytest.approx(want[1], rel=1e-12)

    def test_k_out_of_range(self):
        x = np.random.default_rng(6).random((4, 2))
        with pytest.raises(ValueError):
            kmeans(x, 5, restarts=2, seed=0)
        with pytest.raises(ValueError):
            kmeans(x, 0, restarts=2, seed=0)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_no_restarts_rejected(self, restarts):
        # Zero restarts would otherwise return no labeling at all (None).
        x = np.random.default_rng(6).random((4, 2))
        with pytest.raises(ValueError, match="restarts must be an integer >= 1"):
            kmeans(x, 2, restarts=restarts, seed=0)


class TestKnnClassify:
    def test_exact_train_point_with_k1(self):
        train = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        labels = np.array([0, 1, 2])
        pred = knn_classify(train, labels, train, 1)
        assert np.array_equal(pred, labels)

    def test_one_dimensional_features_are_one_feature_per_sample(self):
        train, labels, test = [0.0, 0.1, 5.0, 5.1], [0, 0, 1, 1], [0.05, 5.05]
        assert np.array_equal(knn_classify(train, labels, test, 1), [0, 1])
        train_col, test_col = np.asarray(train)[:, None], np.asarray(test)[:, None]
        want = knn_classify(train_col, labels, test_col, 3)
        assert np.array_equal(knn_classify(train, labels, test_col, 3), want)
        assert np.array_equal(knn_classify(train_col, labels, test, 3), want)

    def test_two_versus_one_majority(self):
        train = np.array([[0.0], [0.2], [5.0]])
        labels = np.array([0, 0, 1])
        pred = knn_classify(train, labels, np.array([[0.1]]), 3)
        assert pred[0] == 0

    def test_vote_tie_breaks_by_summed_distance(self):
        # k=2, one neighbor from each class; class 1 sits closer.
        train = np.array([[0.0], [1.0]])
        labels = np.array([0, 1])
        assert knn_classify(train, labels, np.array([[0.9]]), 2)[0] == 1
        assert knn_classify(train, labels, np.array([[0.1]]), 2)[0] == 0

    def test_full_tie_breaks_by_lower_class_id(self):
        train = np.array([[-1.0], [1.0]])
        labels = np.array([3, 1])
        assert knn_classify(train, labels, np.array([[0.0]]), 2)[0] == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_scan_oracle(self, seed):
        rng = np.random.default_rng(seed)
        train = rng.random((20, 3))
        labels = rng.integers(0, 3, size=20)
        test = rng.random((8, 3))
        k = 5
        pred = knn_classify(train, labels, test, k)
        for i in range(8):
            dists = [
                (np.linalg.norm(test[i] - train[j]), j) for j in range(20)
            ]
            dists.sort()
            neigh = [j for _, j in dists[:k]]
            votes = {}
            for j in neigh:
                c = int(labels[j])
                cnt, s = votes.get(c, (0, 0.0))
                votes[c] = (cnt + 1, s + np.linalg.norm(test[i] - train[j]))
            # most votes, then smallest summed distance, then lowest id
            expected = min(votes, key=lambda c: (-votes[c][0], votes[c][1], c))
            assert pred[i] == expected

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            knn_classify(np.ones((3, 2)), [0, 1, 0], np.ones((1, 2)), 4)

    @pytest.mark.parametrize("train, test", [
        ([[np.nan], [1.0]], [[0.5]]),
        ([[0.0], [1.0]], [[np.inf]]),
    ])
    def test_non_finite_features_rejected(self, train, test):
        with pytest.raises(ValueError, match="finite"):
            knn_classify(train, [0, 1], test, 1)


class TestKnnTies:
    @pytest.mark.parametrize("block", [None, 1000])
    @pytest.mark.parametrize("k", [1, 4, 7, 10])
    def test_ties_at_kth_distance_match_stable_argsort_oracle(self, monkeypatch, block, k):
        # 240 training points on 27 lattice sites: every test row has many
        # training points tied at its k-th distance, and vote counts tie
        # often.  block=1000 splits the test rows into blocks of 4.
        if block is not None:
            monkeypatch.setattr(tring.graph, "_BLOCK", block)
        rng = np.random.default_rng(k)
        train = rng.integers(0, 3, size=(240, 3)).astype(np.float64)
        labels = rng.integers(0, 5, size=240) * 3 + 1
        test = rng.integers(0, 3, size=(60, 3)) + rng.choice([0.0, 0.5], size=(60, 3))
        pred = knn_classify(train, labels, test, k)
        assert np.array_equal(pred, knn_oracle(train, labels, test, k))


_HUGE = np.sqrt(np.finfo(np.float64).max / 8)
_OVERFLOWING = {
    # Distances of 1e155-scale rows overflow in the kernel's matmul.
    "graph": lambda: tring.graph.neighbor_graph(np.random.default_rng(0).random((3, 20)) * 1e155, 2),
    "kmeans": lambda: kmeans(np.random.default_rng(0).random((20, 3)) * 1e155, 3, restarts=3),
    "knn train": lambda: knn_classify(np.random.default_rng(0).random((20, 3)) * 1e155,
                                      np.arange(20) % 2, np.ones((4, 3)), 3),
    "knn test": lambda: knn_classify(np.ones((20, 3)), np.arange(20) % 2,
                                     np.random.default_rng(0).random((4, 3)) * 1e155, 3),
    # Every row's squared norm is M/8 and every distance finite, but the
    # k = 1 cost sums to 20 M/8: no restart's wcss would beat inf.
    "kmeans k=1 cost": lambda: kmeans(np.array([[_HUGE], [-_HUGE]] * 10), 1, restarts=2),
}


class TestKernelInputRule:
    @pytest.mark.parametrize("case", sorted(_OVERFLOWING))
    def test_overflowing_rows_rejected_before_any_distance(self, case):
        # Once k-means returned None here, and under warnings-as-errors
        # each call raised RuntimeWarning from the kernel's matmul.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite.*too large for float64"):
                _OVERFLOWING[case]()

    def test_large_rows_within_the_bound_still_cluster(self):
        x = np.random.default_rng(0).random((20, 3)) * 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = kmeans(x, 3, restarts=3)
        assert np.array_equal(np.unique(labels), np.arange(3))

    def test_no_test_rows_give_no_predictions(self):
        # A zero-row set takes the bound without dividing by zero.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert knn_classify(np.eye(3), [0, 1, 2], np.empty((0, 3)), 1).size == 0


_POINTS = np.array([[0.0], [0.1], [5.0], [5.1], [9.0]])
_COUNTS = {
    "graph p": lambda n: tring.graph.neighbor_graph(_POINTS.T, n),
    "kmeans k": lambda n: kmeans(_POINTS, n, restarts=2),
    "kmeans restarts": lambda n: kmeans(_POINTS, 2, restarts=n),
    "knn k": lambda n: knn_classify(_POINTS, [0, 0, 1, 1, 2], _POINTS, n),
}


class TestCounts:
    @pytest.mark.parametrize("value", [2.7, 1.5, np.float64(2.0), "2"])
    @pytest.mark.parametrize("count", sorted(_COUNTS))
    def test_non_integer_count_rejected_not_truncated(self, count, value):
        with pytest.raises(ValueError, match="must be an integer"):
            _COUNTS[count](value)

    @pytest.mark.parametrize("count", sorted(_COUNTS))
    def test_numpy_integer_count_accepted(self, count):
        a, b = _COUNTS[count](np.int64(2)), _COUNTS[count](2)
        assert np.array_equal(getattr(a, "w", a), getattr(b, "w", b))


_MANGLED_INPUT = {
    "accuracy fractional labels": (lambda: accuracy([0.5, 1.7, 1.2], [0, 1, 1]), "integer-valued"),
    "nmi fractional labels": (lambda: nmi([0, 1, 1], [0.0, 1.0, 0.5]), "integer-valued"),
    "entropy NaN label": (lambda: entropy([0.0, np.nan]), "integer-valued"),
    "entropy label beyond int64": (lambda: entropy([0.0, 1e19]), "integer-valued"),
    "knn fractional labels": (
        lambda: knn_classify(np.eye(3), [0.2, 1.9, 1.1], np.eye(3), 1), "integer-valued"
    ),
    "sparseness NaN": (lambda: sparseness([np.nan, 1.0]), "finite"),
    "sparseness Inf": (lambda: sparseness([np.inf, 1.0]), "finite"),
    "sparseness -Inf": (lambda: sparseness([1.0, -np.inf]), "finite"),
}

_MISSHAPEN_INPUT = {
    "sparseness one entry": (lambda: sparseness([3.0]), "at least 2 entries"),
    "kmeans 3-D features": (lambda: kmeans(np.ones((4, 2, 2)), 2), "features must be a 2-D matrix"),
    "knn 3-D train": (
        lambda: knn_classify(np.ones((6, 2, 2)), np.arange(6) % 2, np.ones((2, 4)), 1),
        "train features must be a 2-D matrix",
    ),
    "knn 3-D test": (
        lambda: knn_classify(np.ones((6, 2)), np.arange(6) % 2, np.ones((2, 2, 1)), 1),
        "test features must be a 2-D matrix",
    ),
    "knn label count": (
        lambda: knn_classify(np.eye(3), [0, 1], np.eye(3), 1), "one label per training row"
    ),
    "knn feature width": (
        lambda: knn_classify(np.eye(3), [0, 1, 2], np.ones((2, 4)), 1), "feature widths differ"
    ),
    "accuracy length": (lambda: accuracy([0, 1, 1], [0, 1]), "length mismatch: 3 vs 2"),
    "mutual information length": (
        lambda: mutual_information([0, 1], [0, 1, 1]), "length mismatch: 2 vs 3"
    ),
    "nmi length": (lambda: nmi([0, 1, 1, 0], [0, 1, 1]), "length mismatch: 4 vs 3"),
}


class TestMangledInput:
    @pytest.mark.parametrize("case", sorted(_MANGLED_INPUT))
    def test_rejected_not_truncated_or_propagated(self, case):
        # At truncation accuracy([0.5, 1.7, 1.2], [0, 1, 1]) read 1.0.
        call, message = _MANGLED_INPUT[case]
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("case", sorted(_MISSHAPEN_INPUT))
    def test_misshapen_input_named(self, case):
        call, message = _MISSHAPEN_INPUT[case]
        with pytest.raises(ValueError, match=message):
            call()

    def test_integer_valued_labels_of_any_numeric_dtype_accepted(self):
        truth = [0, 1, 1, 2]
        for pred in ([0.0, 1.0, 1.0, 2.0], np.array([0, 1, 1, 2], dtype=np.uint8),
                     np.array([0, 1, 1, 2], dtype=np.float32), [False, True, True, True]):
            assert accuracy(pred, truth) == accuracy_oracle(np.asarray(pred, dtype=int), truth)
        train = np.eye(3)
        assert np.array_equal(knn_classify(train, [0.0, 2.0, 1.0], train, 1), [0, 2, 1])
