"""Tensor algebra primitives against brute-force index-loop oracles."""

import re

import numpy as np
import pytest
from scipy import sparse

from tring.fileio import write_labels, write_tensor
from tring.graph import NeighborGraph, neighbor_graph
from tring.images import area_resize, to_uint8
from tring.metrics import accuracy, kmeans, knn_classify, nmi, sparseness
from tring.ring import (
    TRCores,
    basis_tensors,
    build_subchain,
    core_fold2,
    core_unfold2,
    feature_matrix,
    init_random,
    reconstruct,
    relative_error,
)
from tring.solver import SolverConfig, Subproblem, fit, solve_core
from tring.tensor_ops import (
    NORM_MARGIN,
    as_labels,
    as_tensor,
    fold_tr,
    spectral_norm,
    unfold_tr,
)


def unfold_oracle(x, mode):
    """Column j decodes little-endian over the remaining dims in cyclic
    order starting after ``mode``, first listed fastest."""
    d = x.ndim
    rest = [(mode + j) % d for j in range(1, d)]
    sizes = [x.shape[j] for j in rest]
    out = np.zeros((x.shape[mode], int(np.prod(sizes))))
    for r in range(x.shape[mode]):
        for col in range(out.shape[1]):
            idx = [0] * d
            idx[mode] = r
            q = col
            for j, s in zip(rest, sizes):
                idx[j] = q % s
                q //= s
            out[r, col] = x[tuple(idx)]
    return out


def jacobi_eigenvalues(a, sweeps=100):
    """Cyclic Jacobi rotations on a small symmetric matrix."""
    a = a.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sum(a**2) - np.sum(np.diag(a) ** 2)
        if off < 1e-24:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-18:
                    continue
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


class TestUnfoldings:
    def test_matrix_is_its_own_mode0_unfolding(self):
        x = np.random.default_rng(5).random((2, 3))
        assert np.array_equal(unfold_tr(x, 0), x)

    def test_cyclic_frozen_ordering(self):
        # mode 1: columns enumerate (c, a) with c fastest
        x = np.arange(8.0).reshape(2, 2, 2)
        expected = np.array([[0.0, 1.0, 4.0, 5.0], [2.0, 3.0, 6.0, 7.0]])
        assert np.array_equal(unfold_tr(x, 1), expected)

    def test_cyclic_mode0_equals_classical(self):
        # The classical mode-0 unfolding: columns enumerate the other
        # dimensions in natural order, the first one fastest.
        x = np.random.default_rng(6).random((3, 2, 4))
        assert np.array_equal(unfold_tr(x, 0), x.reshape(3, -1, order="F"))

    @pytest.mark.parametrize("mode", range(3))
    def test_both_match_enumeration_oracle(self, mode):
        # Both directions: unfold_tr gives the oracle's matrix, fold_tr
        # takes it back.
        x = np.random.default_rng(7).random((3, 2, 4))
        oracle = unfold_oracle(x, mode)
        assert np.array_equal(unfold_tr(x, mode), oracle)
        assert np.array_equal(fold_tr(oracle, mode, x.shape), x)

    @pytest.mark.parametrize("mode", range(4))
    def test_round_trips_bit_exact(self, mode):
        x = np.random.default_rng(8).random((2, 3, 2, 4))
        assert np.array_equal(fold_tr(unfold_tr(x, mode), mode, x.shape), x)

    @pytest.mark.parametrize("mode", range(4))
    def test_cyclic_is_classical_after_cycling_to_front(self, mode):
        x = np.random.default_rng(9).random((3, 2, 4, 2))
        d = x.ndim
        cycled = np.transpose(x, tuple(range(mode, d)) + tuple(range(mode)))
        assert np.array_equal(unfold_tr(x, mode), unfold_tr(cycled, 0))

    @pytest.mark.parametrize("shape", [(3, 9), (4, 6), (24,), (3, 4, 2)])
    def test_fold_shape_mismatch_named(self, shape):
        message = re.escape(f"matrix shape {shape} does not match target (2, 3, 4)")
        with pytest.raises(ValueError, match=message):
            fold_tr(np.ones(shape), 1, (2, 3, 4))

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            unfold_tr(np.ones((2, 2)), 2)
        with pytest.raises(ValueError):
            unfold_tr(np.ones((2, 2)), -1)


class TestSpectralNorm:
    """``spectral_norm``: the spectral norm of a symmetric PSD matrix, dense
    or sparse, the route every Lipschitz constant of the solver takes."""

    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        assert spectral_norm(np.diag([9.0, 1.0])) == pytest.approx(9.0, rel=1e-9)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_matches_jacobi_gram_oracle(self):
        a = np.random.default_rng(13).standard_normal((6, 4))
        gram = a.T @ a
        assert spectral_norm(gram) == pytest.approx(jacobi_eigenvalues(gram)[-1], rel=1e-8)

    def test_rank_one_with_start_orthogonal_trap(self):
        # Eigenvector (1, -1) is orthogonal to the all-ones vector.  The top
        # eigenvalue is exactly 2, and the margin keeps the result from
        # falling an ulp below it.
        gram = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert 2.0 <= spectral_norm(gram) == pytest.approx(2.0, rel=1e-9)

    def test_lower_bound_witness(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((5, 7))
        gram = a.T @ a
        top = spectral_norm(gram)
        for _ in range(20):
            v = rng.standard_normal(7)
            v /= np.linalg.norm(v)
            assert v @ gram @ v <= top + 1e-9

    def test_dense_is_top_eigenvalue_plus_margin(self):
        a = np.random.default_rng(15).standard_normal((6, 4))
        gram = a.T @ a
        assert spectral_norm(gram) == np.linalg.eigvalsh(gram)[-1] * (1.0 + NORM_MARGIN)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_sparse_without_entries_is_zero(self, n):
        assert spectral_norm(sparse.csr_array((n, n))) == 0.0

    def test_one_by_one_sparse_goes_dense(self):
        assert spectral_norm(sparse.csr_array([[3.0]])) == spectral_norm(np.array([[3.0]]))

    def test_sparse_laplacian_by_lanczos(self):
        # Path graph on 30 nodes: top Laplacian eigenvalue 2 + 2 cos(pi/30).
        n = 30
        w = sparse.diags_array([np.ones(n - 1), np.ones(n - 1)], offsets=[-1, 1])
        lap = sparse.csr_array(sparse.diags_array(w.sum(axis=1)) - w)
        top = 2.0 + 2.0 * np.cos(np.pi / n)
        assert top <= spectral_norm(lap) == pytest.approx(top, rel=1e-9)
        assert spectral_norm(lap) == pytest.approx(spectral_norm(lap.toarray()), rel=1e-12)


def _with_none(shape):
    a = np.full(shape, 1.0, dtype=object)
    a.flat[-1] = None
    return a


# Arrays of a given shape whose dtype is not real numbers.
_NOT_REAL = {
    "complex": lambda shape: np.full(shape, 1.0 + 2.0j),
    "str": lambda shape: np.full(shape, "1.0"),
    "bytes": lambda shape: np.full(shape, b"1"),
    "object": _with_none,
    "datetime64": lambda shape: np.full(shape, np.datetime64("2020-01-01")),
}

_EDGE = np.array([[0.0, 1.0], [1.0, 0.0]])
_EDGE_LAPLACIAN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _ring(core):
    return [core, np.ones((1, 4, 1))]


# Every public function that reads an array: the shape it reads there, and
# a call that passes it such an array beside valid other arguments.
_READERS = {
    "fit": ((3, 4, 5), lambda a, _: fit(a, (2, 2, 2))),
    "neighbor_graph": ((2, 5), lambda a, _: neighbor_graph(a, 2)),
    "TRCores": ((1, 3, 1), lambda a, _: TRCores(_ring(a))),
    "reconstruct": ((1, 3, 1), lambda a, _: reconstruct(_ring(a))),
    "build_subchain": ((1, 3, 1), lambda a, _: build_subchain(_ring(a), 0)),
    "feature_matrix": ((1, 3, 1), lambda a, _: feature_matrix(_ring(a))),
    "basis_tensors": ((1, 3, 1), lambda a, _: basis_tensors(_ring(a))),
    "relative_error": ((3, 4), lambda a, _: relative_error(a, init_random((3, 4), (2, 2), 0))),
    "unfold_tr": ((2, 3, 4), lambda a, _: unfold_tr(a, 0)),
    "fold_tr": ((2, 12), lambda a, _: fold_tr(a, 0, (2, 3, 4))),
    "core_unfold2": ((2, 3, 2), lambda a, _: core_unfold2(a)),
    "core_fold2": ((3, 4), lambda a, _: core_fold2(a, 2, 3, 2)),
    "Subproblem": ((3, 6), lambda a, _: Subproblem(np.ones((6, 4)), a)),
    "solve_core": (
        (3, 6), lambda a, _: solve_core(a, np.ones((6, 4)), np.ones((3, 4)), SolverConfig())
    ),
    "kmeans": ((5, 2), lambda a, _: kmeans(a, 2)),
    "knn_classify": ((5, 2), lambda a, _: knn_classify(a, np.arange(5) % 2, np.ones((5, 2)), 1)),
    "sparseness": ((4,), lambda a, _: sparseness(a)),
    "accuracy": ((3,), lambda a, _: accuracy(a, [0, 1, 1])),
    "nmi": ((3,), lambda a, _: nmi(a, [0, 1, 1])),
    "area_resize": ((4, 4), lambda a, _: area_resize(a, 2, 2)),
    "to_uint8": ((2, 2), lambda a, _: to_uint8(a)),
    "write_tensor": ((2, 3), lambda a, tmp: write_tensor(tmp / "x.ten", a)),
    "write_labels": ((3,), lambda a, tmp: write_labels(tmp / "labels.txt", a)),
    "NeighborGraph_w": (
        (2, 2), lambda a, _: NeighborGraph(w=a, degree=np.ones(2), laplacian=_EDGE_LAPLACIAN)
    ),
    "NeighborGraph_degree": (
        (2,), lambda a, _: NeighborGraph(w=_EDGE, degree=a, laplacian=_EDGE_LAPLACIAN)
    ),
    "NeighborGraph_laplacian": (
        (2, 2), lambda a, _: NeighborGraph(w=_EDGE, degree=np.ones(2), laplacian=a)
    ),
    # scipy holds no text, bytes, datetime or object sparse array; complex it does.
    "NeighborGraph_sparse_w": (
        (2, 2),
        lambda a, _: NeighborGraph(w=sparse.csr_array(a), degree=np.ones(2),
                                   laplacian=_EDGE_LAPLACIAN),
    ),
    "NeighborGraph_sparse_laplacian": (
        (2, 2),
        lambda a, _: NeighborGraph(w=_EDGE, degree=np.ones(2), laplacian=sparse.csr_array(a)),
    ),
}


def _not_real_cases():
    for reader, (shape, call) in _READERS.items():
        for kind, make in _NOT_REAL.items():
            if "sparse" in reader and kind != "complex":
                continue
            yield pytest.param(call, make(shape), id=f"{reader}-{kind}")


@pytest.mark.parametrize("call, data", _not_real_cases())
def test_data_that_is_not_real_numbers_is_refused_by_one_rule(tmp_path, call, data):
    # Complex data was cut to its real part, text parsed as numbers,
    # datetimes read as day counts and None as NaN.
    message = f"data must be real numbers (bool, integer or floating point), got dtype {data.dtype}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(data, tmp_path)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("dtype", [np.bool_, np.int32, np.uint8, np.float32, np.float16])
def test_real_numbers_are_cast_to_float64_as_numpy_casts_them(dtype):
    x = (np.arange(12) * 0.37).reshape(3, 4).astype(dtype)
    got = as_tensor(x)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.asarray(x, dtype=np.float64))


def test_float64_data_comes_back_uncopied_and_labels_keep_int64():
    x = np.ones((2, 3))
    assert as_tensor(x) is x
    # Labels are not read through float64, which holds no 2**53 + 1.
    assert as_labels(np.array([2**53 + 1, 0])).tolist() == [2**53 + 1, 0]
