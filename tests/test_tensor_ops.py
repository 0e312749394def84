"""Tensor algebra primitives against brute-force index-loop oracles."""

import numpy as np
import pytest

from tring.tensor_ops import (
    fold_tr,
    gram_norm,
    unfold_classical,
    unfold_tr,
)


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


class TestSpectralNorm:
    """``gram_norm``: the spectral norm of a symmetric PSD matrix, the
    route every Lipschitz constant of the solver takes."""

    def test_identity(self):
        assert gram_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        assert gram_norm(np.diag([9.0, 1.0])) == pytest.approx(9.0, rel=1e-9)

    def test_zero_matrix(self):
        assert gram_norm(np.zeros((4, 4))) == 0.0

    def test_matches_jacobi_gram_oracle(self):
        a = np.random.default_rng(13).standard_normal((6, 4))
        gram = a.T @ a
        assert gram_norm(gram) == pytest.approx(jacobi_eigenvalues(gram)[-1], rel=1e-8)

    def test_rank_one_with_start_orthogonal_trap(self):
        # Eigenvector (1, -1) is orthogonal to the all-ones vector.  The top
        # eigenvalue is exactly 2, and the margin keeps the result from
        # falling an ulp below it.
        gram = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert 2.0 <= gram_norm(gram) == pytest.approx(2.0, rel=1e-9)

    def test_lower_bound_witness(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((5, 7))
        gram = a.T @ a
        top = gram_norm(gram)
        for _ in range(20):
            v = rng.standard_normal(7)
            v /= np.linalg.norm(v)
            assert v @ gram @ v <= top + 1e-9
