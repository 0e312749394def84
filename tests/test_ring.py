"""Ring model: subchains, unfoldings, and reconstruction vs trace oracles."""

import itertools

import numpy as np
import pytest

from tring.ring import (
    TRCores,
    build_subchain,
    core_fold2,
    core_unfold2,
    feature_matrix,
    init_random,
    reconstruct,
    relative_error,
    subchain_unfold2,
)
from tring.tensor_ops import fold_tr, unfold_tr


def trace_oracle(cores):
    """Elementwise reconstruction: trace of the product of lateral slices."""
    cores = list(cores)
    dims = tuple(c.shape[1] for c in cores)
    out = np.empty(dims)
    for idx in itertools.product(*map(range, dims)):
        m = cores[0][:, idx[0], :]
        for n in range(1, len(cores)):
            m = m @ cores[n][:, idx[n], :]
        out[idx] = np.trace(m)
    return out


def subchain_oracle(cores, mode):
    """Slice-product definition: middle index decodes little-endian over the
    cyclic dimension order starting after ``mode``."""
    cores = list(cores)
    d = len(cores)
    rest = [(mode + j) % d for j in range(1, d)]
    sizes = [cores[j].shape[1] for j in rest]
    r_head = cores[rest[0]].shape[0]
    r_tail = cores[rest[-1]].shape[2]
    out = np.empty((r_head, int(np.prod(sizes)), r_tail))
    for flat in range(out.shape[1]):
        q = flat
        idx = {}
        for j, s in zip(rest, sizes):
            idx[j] = q % s
            q //= s
        m = cores[rest[0]][:, idx[rest[0]], :]
        for j in rest[1:]:
            m = m @ cores[j][:, idx[j], :]
        out[:, flat, :] = m
    return out


class TestTRCores:
    def test_chain_validation(self):
        good = [np.ones((2, 3, 4)), np.ones((4, 2, 2))]
        assert TRCores(good).ranks == (2, 4)
        with pytest.raises(ValueError):
            TRCores([np.ones((2, 3, 4)), np.ones((3, 2, 2))])

    def test_nonneg_validation(self):
        c = [np.ones((1, 2, 1)), -np.ones((1, 3, 1))]
        with pytest.raises(ValueError):
            TRCores(c, nonneg=True)

    def test_properties(self):
        cores = init_random((3, 4, 5), (2, 3, 2), seed=0)
        assert cores.order == 3
        assert cores.dims == (3, 4, 5)
        assert cores.ranks == (2, 3, 2)
        assert len(cores) == 3
        assert cores[1].shape == (3, 4, 2)


class TestInitRandom:
    def test_same_seed_bit_identical(self):
        a = init_random((4, 4, 4), (2, 2, 2), seed=7)
        b = init_random((4, 4, 4), (2, 2, 2), seed=7)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca, cb)

    def test_nonnegative_and_valid(self):
        cores = init_random((5, 3, 2), (2, 3, 2), seed=11)
        assert cores.nonneg
        for c in cores:
            assert np.all(c >= 0)

    def test_entry_mean_close_to_half_normal_mean(self):
        # |N(0, 1)| has mean sqrt(2/pi) ~ 0.7979 and sd ~ 0.603; use enough
        # entries that a 0.1 band sits beyond 2.5 standard errors.
        cores = init_random((10, 10, 10), (3, 3, 3), seed=7)
        entries = np.concatenate([c.ravel() for c in cores])
        assert entries.size == 270
        assert abs(entries.mean() - 0.7979) < 0.1

    def test_rank_length_mismatch(self):
        with pytest.raises(ValueError):
            init_random((4, 4), (2, 2, 2), seed=0)


class TestSubchain:
    def test_two_cores_subchain_is_the_other_core(self):
        cores = init_random((3, 4), (2, 3), seed=1)
        sub = build_subchain(cores, 0)
        assert np.array_equal(sub, cores[1])
        assert sub.shape == (3, 4, 2)

    def test_rank_one_is_vectorized_outer_product(self):
        cores = init_random((3, 4, 2), (1, 1, 1), seed=2)
        vecs = [c.ravel() for c in cores]
        for mode in range(3):
            sub = build_subchain(cores, mode)
            d = len(vecs)
            rest = [(mode + j) % d for j in range(1, d)]
            fiber = vecs[rest[0]]
            for j in rest[1:]:
                fiber = np.kron(vecs[j], fiber)  # earlier dims stay fastest
            assert np.allclose(sub[0, :, 0], fiber, rtol=1e-13)

    @pytest.mark.parametrize("mode", range(3))
    def test_matches_slice_product_oracle(self, mode):
        cores = init_random((3, 4, 2), (2, 3, 2), seed=3)
        assert np.allclose(
            build_subchain(cores, mode), subchain_oracle(cores, mode), rtol=1e-12
        )

    def test_single_core_rejected(self):
        with pytest.raises(ValueError):
            build_subchain(TRCores([np.ones((2, 3, 2))]), 0)

    @pytest.mark.parametrize(
        "dims, ranks",
        [
            ((3, 4), (2, 3)),
            ((1, 4, 2), (1, 2, 3)),
            ((2, 3, 1, 2), (2, 1, 3, 2)),
            ((2, 2, 3, 1, 2), (1, 1, 1, 1, 1)),
            ((3, 70, 2), (2, 2, 3)),  # many slices in one merge
            ((2, 3, 2), (6, 6, 6)),  # wide ranks
        ],
    )
    def test_unfold2_is_a_view_matching_oracle(self, dims, ranks):
        cores = init_random(dims, ranks, seed=12)
        for mode in range(len(dims)):
            sub = build_subchain(cores, mode)
            m = subchain_unfold2(sub)
            assert np.shares_memory(m, sub)
            np.testing.assert_allclose(sub, subchain_oracle(cores, mode), rtol=1e-12)

    @pytest.mark.parametrize(
        "dims, ranks",
        [
            ((3, 4), (2, 3)),
            ((4, 1), (1, 1)),  # the transposed core is already contiguous
            ((2, 3, 1, 2), (2, 1, 3, 2)),
            ((3, 70, 2), (2, 2, 3)),
            ((2, 3, 2, 2, 3, 2), (2, 3, 1, 2, 2, 3)),
        ],
    )
    def test_workspace_build_is_bitwise_the_fresh_build(self, dims, ranks):
        # One buffer, sized to the largest subchain, serves every mode in
        # turn, as in fit; the public build is fresh memory every time.
        cores = init_random(dims, ranks, seed=13)
        d = len(dims)
        sizes = [build_subchain(cores, n).size for n in range(d)]
        workspace = np.full(max(sizes), np.nan)
        for mode in range(d):
            fresh = build_subchain(cores, mode)
            into = build_subchain(cores, mode, workspace)
            assert np.shares_memory(into, workspace)
            assert not any(np.shares_memory(fresh, c) for c in cores)
            assert not np.shares_memory(fresh, workspace)
            assert np.array_equal(into, fresh)
            assert np.array_equal(subchain_unfold2(into), subchain_unfold2(fresh))

    def test_contract_back_reproduces_reconstruction(self):
        cores = init_random((3, 2, 4), (2, 2, 3), seed=4)
        ref = reconstruct(cores)
        for mode in range(3):
            sub = build_subchain(cores, mode)
            # contract core against subchain over both shared rank modes
            xn = np.einsum("aib,bma->im", cores[mode], sub)
            assert np.allclose(fold_tr(xn, mode, ref.shape), ref, rtol=1e-12)


class TestUnfold2:
    def test_core_unfold2_frozen_enumeration(self):
        core = np.arange(12.0).reshape(2, 3, 2)
        expected = np.array(
            [[0.0, 1.0, 6.0, 7.0], [2.0, 3.0, 8.0, 9.0], [4.0, 5.0, 10.0, 11.0]]
        )
        assert np.array_equal(core_unfold2(core), expected)

    def test_core_fold2_round_trip_bit_exact(self):
        core = np.random.default_rng(5).random((3, 5, 2))
        assert np.array_equal(core_fold2(core_unfold2(core), 3, 5, 2), core)

    def test_rank_one_core_unfolds_to_column(self):
        core = np.random.default_rng(6).random((1, 4, 1))
        m = core_unfold2(core)
        assert m.shape == (4, 1)
        assert np.array_equal(m[:, 0], core[0, :, 0])

    def test_subchain_unfold2_rank_one(self):
        cores = init_random((3, 4, 2), (1, 1, 1), seed=7)
        sub = build_subchain(cores, 0)
        m = subchain_unfold2(sub)
        assert m.shape == (8, 1)
        assert np.array_equal(m[:, 0], sub[0, :, 0])

    def test_subchain_unfold2_two_cores_matches_classical_unfolding(self):
        # With two cores the subchain is the other core, and the lexical
        # column pairing coincides with its classical mode-1 unfolding.
        cores = init_random((3, 4), (2, 3), seed=8)
        sub = build_subchain(cores, 0)
        classical = np.moveaxis(cores[1], 1, 0).reshape(4, -1, order="F")
        assert np.array_equal(subchain_unfold2(sub), classical)


class TestReconstruct:
    def test_rank_one_is_outer_product(self):
        cores = init_random((3, 4, 2), (1, 1, 1), seed=10)
        a, b, c = (cr.ravel() for cr in cores)
        expected = np.einsum("i,j,k->ijk", a, b, c)
        assert np.allclose(reconstruct(cores), expected, rtol=1e-13)

    def test_two_core_trace_oracle(self):
        cores = init_random((3, 4), (2, 2), seed=11)
        got = reconstruct(cores)
        for i in range(3):
            for j in range(4):
                expected = np.trace(cores[0][:, i, :] @ cores[1][:, j, :])
                assert got[i, j] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matricized_identity_every_mode(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 5))
        dims = tuple(rng.integers(2, 6, size=d))
        ranks = tuple(rng.integers(1, 4, size=d))
        cores = init_random(dims, ranks, seed=seed + 100)
        ref = trace_oracle(cores)
        scale = np.abs(ref).max()
        for mode in range(d):
            xn = core_unfold2(cores[mode]) @ subchain_unfold2(
                build_subchain(cores, mode)
            ).T
            err = np.abs(fold_tr(xn, mode, dims) - ref).max() / scale
            assert err <= 1e-10
        assert np.abs(reconstruct(cores) - ref).max() / scale <= 1e-10

    @pytest.mark.parametrize("shift", [1, 2, 3])
    def test_circular_shift_invariance(self, shift):
        cores = init_random((2, 3, 4, 2), (2, 2, 3, 2), seed=12)
        d = 4
        shifted = TRCores(list(cores)[shift:] + list(cores)[:shift])
        perm = [(j + shift) % d for j in range(d)]
        a = np.transpose(reconstruct(cores), perm)
        b = reconstruct(shifted)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_nonnegative_cores_give_nonnegative_tensor(self):
        cores = init_random((4, 3, 5), (2, 2, 2), seed=13)
        assert np.all(reconstruct(cores) >= 0)

    def test_single_core_trace(self):
        core = np.random.default_rng(14).random((3, 5, 3))
        got = reconstruct(TRCores([core]))
        expected = np.array([np.trace(core[:, i, :]) for i in range(5)])
        assert np.allclose(got, expected, rtol=1e-14)

    def test_unfold_tr_of_reconstruction_matches_factored_form(self):
        cores = init_random((3, 2, 4), (2, 2, 2), seed=15)
        x = reconstruct(cores)
        for mode in range(3):
            lhs = unfold_tr(x, mode)
            rhs = core_unfold2(cores[mode]) @ subchain_unfold2(
                build_subchain(cores, mode)
            ).T
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


class TestRelativeError:
    def test_exact_cores_give_zero(self):
        cores = init_random((4, 3, 2), (2, 2, 2), seed=16)
        x = reconstruct(cores)
        assert relative_error(x, cores) <= 1e-12

    def test_zero_cores_give_one(self):
        cores = init_random((4, 3, 2), (2, 2, 2), seed=17)
        x = reconstruct(cores)
        zeros = TRCores([np.zeros_like(c) for c in cores])
        assert relative_error(x, zeros) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_perturbation_size(self):
        cores = init_random((4, 3, 2), (2, 2, 2), seed=18)
        x = reconstruct(cores)
        rng = np.random.default_rng(19)
        noise = [rng.standard_normal(c.shape) for c in cores]
        errs = []
        for eps in (1e-4, 1e-3, 1e-2):
            bumped = TRCores([c + eps * n for c, n in zip(cores, noise)])
            errs.append(relative_error(x, bumped))
        assert errs[0] < errs[1] < errs[2]
        assert errs[0] > 0

    def test_zero_tensor_rejected(self):
        cores = init_random((2, 2), (1, 1), seed=20)
        with pytest.raises(ValueError):
            relative_error(np.zeros((2, 2)), cores)


def test_feature_matrix_is_last_core_unfolding():
    cores = init_random((3, 4, 6), (2, 3, 2), seed=21)
    f = feature_matrix(cores)
    assert f.shape == (6, 2 * 2)  # samples x (r_d * r_1)
    assert np.array_equal(f, core_unfold2(cores[2]))
