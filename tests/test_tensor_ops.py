"""Tensor algebra primitives against brute-force index-loop oracles."""

import itertools

import numpy as np
import pytest

from tring import tensor_ops
from tring.tensor_ops import (
    contract_single_mode,
    fold_classical,
    fold_tr,
    frobenius_norm,
    inner_product,
    mode_n_product,
    spectral_norm,
    unfold_classical,
    unfold_tr,
)


def inner_oracle(x, y):
    total = 0.0
    for idx in itertools.product(*map(range, x.shape)):
        total += x[idx] * y[idx]
    return total


def mode_product_oracle(x, a, mode):
    out_shape = list(x.shape)
    out_shape[mode] = a.shape[0]
    out = np.zeros(out_shape)
    for idx in itertools.product(*map(range, out_shape)):
        s = 0.0
        for m in range(x.shape[mode]):
            src = list(idx)
            src[mode] = m
            s += x[tuple(src)] * a[idx[mode], m]
        out[idx] = s
    return out


def unfold_oracle(x, mode, cyclic):
    """Column j decodes little-endian over the remaining dims (natural or
    cyclic order starting after ``mode``), first listed fastest."""
    d = x.ndim
    if cyclic:
        rest = [(mode + j) % d for j in range(1, d)]
    else:
        rest = [j for j in range(d) if j != mode]
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


def contract_oracle(x, y, mode_x, mode_y):
    xs = [s for j, s in enumerate(x.shape) if j != mode_x]
    ys = [s for j, s in enumerate(y.shape) if j != mode_y]
    out = np.zeros(xs + ys)
    for idx in itertools.product(*map(range, xs + ys)):
        xi = list(idx[: len(xs)])
        yi = list(idx[len(xs) :])
        s = 0.0
        for m in range(x.shape[mode_x]):
            s += x[tuple(xi[:mode_x] + [m] + xi[mode_x:])] * y[
                tuple(yi[:mode_y] + [m] + yi[mode_y:])
            ]
        out[idx] = s
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


class TestInnerProduct:
    def test_sum_of_entries_against_ones(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert inner_product(x, np.ones((2, 2))) == 10.0

    def test_self_inner_is_squared_frobenius(self):
        x = np.random.default_rng(0).random((3, 2, 4))
        assert inner_product(x, x) == pytest.approx(frobenius_norm(x) ** 2, rel=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        x, y = rng.random((3, 4, 2)), rng.random((3, 4, 2))
        assert inner_product(x, y) == pytest.approx(inner_oracle(x, y), rel=1e-12)

    def test_symmetric_and_positive(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        assert inner_product(x, y) == inner_product(y, x)
        assert inner_product(x, x) > 0
        assert inner_product(np.zeros((2, 3)), np.zeros((2, 3))) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            inner_product(np.ones((2, 2)), np.ones((2, 3)))


class TestModeProduct:
    def test_identity_leaves_tensor_unchanged(self):
        rng = np.random.default_rng(3)
        x = rng.random((3, 4, 2))
        for mode in range(3):
            eye = np.eye(x.shape[mode])
            assert np.allclose(mode_n_product(x, eye, mode), x, rtol=1e-14)

    def test_column_sums_via_ones_row(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(mode_n_product(x, np.array([[1.0, 1.0]]), 0), [[4.0, 6.0]])

    def test_matches_index_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.random((3, 4, 2))
        a = rng.random((5, 4))
        got = mode_n_product(x, a, 1)
        assert got.shape == (3, 5, 2)
        assert np.allclose(got, mode_product_oracle(x, a, 1), rtol=1e-12)

    def test_errors(self):
        x = np.ones((3, 4))
        with pytest.raises(ValueError):
            mode_n_product(x, np.ones((2, 4)), 2)
        with pytest.raises(ValueError):
            mode_n_product(x, np.ones((2, 3)), 1)


class TestUnfoldings:
    def test_matrix_is_its_own_mode0_unfolding(self):
        x = np.random.default_rng(5).random((2, 3))
        assert np.array_equal(unfold_classical(x, 0), x)
        assert np.array_equal(unfold_tr(x, 0), x)

    def test_classical_frozen_ordering(self):
        # x[a, b, c] = 4a + 2b + c; columns enumerate (b, c) with b fastest
        x = np.arange(8.0).reshape(2, 2, 2)
        expected = np.array([[0.0, 2.0, 1.0, 3.0], [4.0, 6.0, 5.0, 7.0]])
        assert np.array_equal(unfold_classical(x, 0), expected)

    def test_cyclic_frozen_ordering(self):
        # mode 1: columns enumerate (c, a) with c fastest
        x = np.arange(8.0).reshape(2, 2, 2)
        expected = np.array([[0.0, 1.0, 4.0, 5.0], [2.0, 3.0, 6.0, 7.0]])
        assert np.array_equal(unfold_tr(x, 1), expected)

    def test_cyclic_mode0_equals_classical(self):
        x = np.random.default_rng(6).random((3, 2, 4))
        assert np.array_equal(unfold_tr(x, 0), unfold_classical(x, 0))

    @pytest.mark.parametrize("mode", range(3))
    def test_both_match_enumeration_oracle(self, mode):
        x = np.random.default_rng(7).random((3, 2, 4))
        assert np.array_equal(unfold_classical(x, mode), unfold_oracle(x, mode, False))
        assert np.array_equal(unfold_tr(x, mode), unfold_oracle(x, mode, True))

    @pytest.mark.parametrize("mode", range(4))
    def test_round_trips_bit_exact(self, mode):
        x = np.random.default_rng(8).random((2, 3, 2, 4))
        assert np.array_equal(fold_classical(unfold_classical(x, mode), mode, x.shape), x)
        assert np.array_equal(fold_tr(unfold_tr(x, mode), mode, x.shape), x)

    @pytest.mark.parametrize("mode", range(4))
    def test_cyclic_is_classical_after_cycling_to_front(self, mode):
        x = np.random.default_rng(9).random((3, 2, 4, 2))
        d = x.ndim
        cycled = np.transpose(x, tuple(range(mode, d)) + tuple(range(mode)))
        assert np.array_equal(unfold_tr(x, mode), unfold_classical(cycled, 0))

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            unfold_classical(np.ones((2, 2)), 2)
        with pytest.raises(ValueError):
            unfold_tr(np.ones((2, 2)), -1)


class TestContraction:
    def test_matrix_multiply_specialization(self):
        rng = np.random.default_rng(10)
        a, b = rng.random((2, 3)), rng.random((3, 2))
        assert np.allclose(contract_single_mode(a, b, 1, 0), a @ b, rtol=1e-14)

    def test_dot_product_as_scalar_shaped_tensor(self):
        v = np.arange(1.0, 5.0)
        out = contract_single_mode(v.reshape(1, 4), v.reshape(4, 1), 1, 0)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(v @ v)

    def test_matches_index_loop_oracle(self):
        rng = np.random.default_rng(11)
        x, y = rng.random((2, 3, 4)), rng.random((4, 5))
        got = contract_single_mode(x, y, 2, 0)
        assert got.shape == (2, 3, 5)
        assert np.allclose(got, contract_oracle(x, y, 2, 0), rtol=1e-12)

    def test_chain_special_case_against_loop_oracle(self):
        rng = np.random.default_rng(12)
        x, y = rng.random((3, 2, 4)), rng.random((4, 3, 2))
        got = contract_single_mode(x, y, 2, 0)
        assert np.allclose(got, contract_oracle(x, y, 2, 0), rtol=1e-12)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            contract_single_mode(np.ones((2, 3)), np.ones((4, 2)), 1, 0)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-9)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 2))) == 0.0

    def test_matches_jacobi_gram_oracle(self):
        a = np.random.default_rng(13).standard_normal((6, 4))
        top = jacobi_eigenvalues(a.T @ a)[-1]
        assert spectral_norm(a) == pytest.approx(np.sqrt(top), rel=1e-8)

    def test_rank_one_with_start_orthogonal_trap(self):
        # gram eigenvector (1, -1) is orthogonal to the all-ones vector
        assert spectral_norm(np.array([[1.0, -1.0]])) == pytest.approx(
            np.sqrt(2.0), rel=1e-9
        )

    def test_lower_bound_witness(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((5, 7))
        sigma = spectral_norm(a)
        for _ in range(20):
            v = rng.standard_normal(7)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(a @ v) <= sigma + 1e-9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            spectral_norm(np.zeros((0, 3)))

    def test_wide_matrix_uses_the_small_gram(self, monkeypatch):
        a = np.random.default_rng(15).standard_normal((3, 400))
        sizes = []
        real = tensor_ops.gram_norm

        def recording(gram):
            sizes.append(gram.shape)
            return real(gram)

        monkeypatch.setattr(tensor_ops, "gram_norm", recording)
        sigma = spectral_norm(a)
        assert sizes == [(3, 3)]
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert top <= sigma == pytest.approx(top, rel=1e-9)
        assert spectral_norm(a.T) == pytest.approx(sigma, rel=1e-12)
