"""Ring model: subchains, unfoldings, and reconstruction vs trace oracles."""

import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import trace_oracle

from tring.ring import (
    TRCores,
    _merge,
    basis_tensors,
    build_subchain,
    core_fold2,
    core_unfold2,
    feature_matrix,
    init_random,
    reconstruct,
    relative_error,
)
from tring.cli import default_ranks
from tring.graph import neighbor_graph
from tring.images import area_resize, montage
from tring.metrics import kmeans, knn_classify
from tring.solver import SolverConfig, fit
from tring.synthetic import blob_tensor, ring_tensor
from tring.tensor_ops import fold_tr, unfold_tr


def subchain_oracle(cores, mode):
    """Slice-product definition, as the mode-2 unfolding: the row index
    decodes little-endian over the cyclic dimension order starting after
    ``mode``, and column ``a * r_{mode+1} + b`` holds entry ``(b, a)`` of the
    slice product (``r_mode`` slow, ``r_{mode+1}`` fast)."""
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
    return out.transpose(1, 2, 0).reshape(out.shape[1], -1)


# Chains that are not rings: core 0's trailing rank 2 is not core 1's
# leading 3; a rank of 0; a dimension of 0.
_NOT_RINGS = [
    ([np.ones((2, 3, 2)), np.ones((3, 4, 2))],
     "rank chain broken: core 0 trailing rank 2 != core 1 leading rank 3"),
    ([np.ones((0, 3, 2)), np.ones((2, 4, 0))], "rank must be an integer >= 1, got 0"),
    ([np.ones((2, 0, 2)), np.ones((2, 4, 2))], "dimension must be an integer >= 1, got 0"),
]


class TestTRCores:
    def test_chain_validation(self):
        good = [np.ones((2, 3, 4)), np.ones((4, 2, 2))]
        assert TRCores(good).ranks == (2, 4)
        with pytest.raises(ValueError):
            TRCores([np.ones((2, 3, 4)), np.ones((3, 2, 2))])

    @pytest.mark.parametrize("cores, message", [
        ([], "need at least one core"),
        ([np.ones((2, 3, 2)), np.ones((2, 3))], "core 1 must be third order, got 2"),
        ([np.ones((1, 2, 1, 1))], "core 0 must be third order, got 4"),
        *_NOT_RINGS,
    ])
    def test_ring_of_third_order_cores_required(self, cores, message):
        with pytest.raises(ValueError, match=message):
            TRCores(cores)

    @pytest.mark.parametrize("read", [
        lambda c: build_subchain(c, 0), reconstruct, lambda c: relative_error(np.ones((3, 4)), c),
        feature_matrix, basis_tensors,
    ], ids=["build_subchain", "reconstruct", "relative_error", "feature_matrix", "basis_tensors"])
    @pytest.mark.parametrize("cores, message", _NOT_RINGS, ids=["broken_chain", "rank_0", "dim_0"])
    def test_every_ring_function_reads_cores_by_the_one_rule(self, read, cores, message):
        # Read without the ring rule, such chains give made-up bases or
        # features, a numpy error, or a rank-0 relative error of 1.0.
        with pytest.raises(ValueError, match=re.escape(message)):
            read(cores)

    def test_checked_ring_passes_through_and_a_sequence_is_copied(self):
        cores = init_random((3, 4), (2, 2), seed=0)
        assert TRCores(cores) is cores
        for seq in (list(cores), tuple(cores)):
            copy = TRCores(seq)
            assert copy is not cores
            assert not any(np.shares_memory(c, s) for c, s in zip(copy, cores))

    def test_core_replaced_without_copies_keeps_the_ring(self):
        # fit's update step: no core is copied, so no subchain build copies one.
        cores = init_random((3, 4), (2, 2), seed=0)
        core = -np.ones((2, 4, 2))
        new = cores._replace(1, core)
        assert type(new) is TRCores and new[0] is cores[0] and new[1] is core
        assert cores.nonneg and not new.nonneg
        assert new._replace(1, cores[1]).nonneg

    def test_nonneg_validation(self):
        # A reading, not a check: a negative or NaN entry reads False.
        c = [np.ones((1, 2, 1)), np.ones((1, 3, 1))]
        assert TRCores(c).nonneg is True
        for bad in (-1.0, np.nan):
            c[1][0, 1, 0] = bad
            assert TRCores(c).nonneg is False

    def test_ring_records_nothing_beside_its_cores(self):
        # nonneg is read from the cores on each access, not kept.
        cores = init_random((3, 4), (2, 2), seed=0)
        assert not hasattr(cores, "__dict__")
        cores[1][0, 1, 0] = -1.0
        assert cores.nonneg is False

    def test_cores_copied_to_float64(self):
        src = [np.ones((1, 2, 1), dtype=np.float32), np.ones((1, 3, 1))]
        cores = TRCores(src)
        assert all(c.dtype == np.float64 for c in cores)
        assert not any(np.shares_memory(c, s) for c, s in zip(cores, src))

    def test_properties(self):
        cores = init_random((3, 4, 5), (2, 3, 2), seed=0)
        assert cores.dims == (3, 4, 5)
        assert cores.ranks == (2, 3, 2)
        assert len(cores) == 3
        assert cores[1].shape == (3, 4, 2)

    def test_repr_names_dims_ranks_and_nonneg(self):
        cores = TRCores([np.ones((2, 3, 4)), -np.ones((4, 5, 2))])
        assert repr(cores) == "TRCores(dims=(3, 5), ranks=(2, 4), nonneg=False)"

    def test_checked_chain_cannot_be_reassigned(self):
        cores = init_random((3, 4), (2, 2), seed=0)
        with pytest.raises(TypeError):
            cores[0] = np.ones((2, 3, 2, 1))
        assert len(cores) == 2 and isinstance(cores, tuple)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pickle_round_trip_keeps_type_cores_and_nonneg(self, sign):
        cores = TRCores([sign * np.ones((1, 2, 2)), np.ones((2, 3, 1))])
        back = pickle.loads(pickle.dumps(cores))
        assert type(back) is TRCores
        assert back.nonneg is cores.nonneg is (sign > 0)
        assert len(back) == 2 and all(np.array_equal(a, b) for a, b in zip(back, cores))

    def test_equality_and_hash_by_identity(self):
        # Element-wise tuple comparison would ask an array for its truth value.
        cores = init_random((3, 4), (2, 2), seed=0)
        twin = TRCores(list(cores))
        assert (cores == twin) is False and (cores != twin) is True
        assert cores == cores and {cores: 1}[cores] == 1


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

    @pytest.mark.parametrize("value", [2.7, 4.9, np.float64(2.0), "2"])
    @pytest.mark.parametrize("size", ["dimension", "rank", "fit_rank"])
    def test_non_integer_size_rejected_not_truncated(self, size, value):
        x, _ = ring_tensor((3, 4, 5), (2, 2, 2), seed=0)
        calls = {
            "dimension": lambda: init_random((3, value), (2, 2), seed=0),
            "rank": lambda: init_random((3, 4), (2, value), seed=0),
            "fit_rank": lambda: fit(x, (value, 2, 2), SolverConfig(max_sweeps=1, beta=0.0)),
        }
        name = "dimension" if size == "dimension" else "rank"
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            calls[size]()


_SIZES_AND_MODES = {
    "blob_float_dimension": (lambda: blob_tensor((4.9, 4), 2, 3), "slice dimension must be"),
    "blob_zero_dimension": (
        lambda: blob_tensor((0, 4), 2, 3), "slice dimension must be an integer >= 1"
    ),
    "blob_float_classes": (lambda: blob_tensor((4, 4), 2.5, 3), "n_classes must be"),
    "fold_float_dimension": (
        lambda: fold_tr(np.ones((2, 12)), 0, (2.9, 3, 4)), "dimension must be"
    ),
    "fold_float_mode": (lambda: fold_tr(np.ones((2, 12)), 0.0, (2, 3, 4)), "mode must be"),
    "unfold_float_mode": (lambda: unfold_tr(np.ones((2, 3, 4)), 1.0), "mode must be"),
    "subchain_float_mode": (
        lambda: build_subchain(init_random((2, 3, 4), (2, 2, 2), seed=0), 1.0), "mode must be"
    ),
    "montage_float_rows": (
        lambda: montage([np.zeros((2, 2), dtype=np.uint8)], 1.5, 2), "rows must be"
    ),
}


@pytest.mark.parametrize("case", sorted(_SIZES_AND_MODES))
def test_sizes_and_modes_rejected_not_truncated(case):
    # 4.9 is not read as 4, nor a float mode raised as a TypeError.
    call, message = _SIZES_AND_MODES[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("noise", [-5.0, -1e-300, np.nan, np.inf, None, "0.1"])
def test_blob_noise_must_be_finite_and_nonnegative(noise):
    # A negative amplitude gives negative data; NaN or Inf gives data that
    # only fit would reject, later.  A value that is not a real number
    # fails by the same rule, not with a TypeError.
    with pytest.raises(ValueError, match="noise must be finite and >= 0"):
        blob_tensor((2, 2), 2, 2, noise=noise)


_FEATURES = np.arange(10.0).reshape(5, 2)
_TILES = [np.zeros((2, 2), dtype=np.uint8)]

# Every count an entry point takes: the name its message gives, the
# bounds lo and hi (None: no upper bound), and a call taking the count.
_COUNTS = {
    "unfold_tr_mode": ("mode", 0, 2, lambda v: unfold_tr(np.ones((2, 3, 4)), v)),
    "fold_tr_mode": ("mode", 0, 2, lambda v: fold_tr(np.ones((2, 12)), v, (2, 3, 4))),
    "build_subchain_mode": (
        "mode", 0, 2, lambda v: build_subchain(init_random((2, 3, 4), (2, 2, 2), seed=0), v)
    ),
    "init_random_dimension": ("dimension", 1, None, lambda v: init_random((3, v), (2, 2), 0)),
    "init_random_rank": ("rank", 1, None, lambda v: init_random((3, 4), (2, v), seed=0)),
    "init_random_seed": ("seed", 0, None, lambda v: init_random((3, 4), (2, 2), v)),
    "ring_tensor_seed": ("seed", 0, None, lambda v: ring_tensor((3, 4), (2, 2), v)),
    "fit_rank": (
        "rank", 1, None,
        lambda v: fit(np.ones((3, 4, 5)), (v, 2, 2), SolverConfig(max_sweeps=1, beta=0.0)),
    ),
    "neighbor_graph_p": ("neighbor count p", 1, 4, lambda v: neighbor_graph(np.ones((2, 5)), v)),
    "kmeans_k": ("k", 1, 5, lambda v: kmeans(_FEATURES, v, restarts=1, seed=0)),
    "kmeans_restarts": ("restarts", 1, None, lambda v: kmeans(_FEATURES, 2, restarts=v, seed=0)),
    "kmeans_seed": ("seed", 0, None, lambda v: kmeans(_FEATURES, 2, restarts=1, seed=v)),
    "knn_classify_k": (
        "k", 1, 5, lambda v: knn_classify(_FEATURES, np.arange(5) % 2, _FEATURES, v)
    ),
    "area_resize_height": ("output height", 1, None, lambda v: area_resize(np.ones((4, 4)), v, 2)),
    "area_resize_width": ("output width", 1, None, lambda v: area_resize(np.ones((4, 4)), 2, v)),
    "montage_rows": ("rows", 1, None, lambda v: montage(_TILES, v, 2)),
    "montage_cols": ("cols", 1, None, lambda v: montage(_TILES, 2, v)),
    "blob_slice_dimension": ("slice dimension", 1, None, lambda v: blob_tensor((v, 4), 2, 3)),
    "blob_n_classes": ("n_classes", 1, None, lambda v: blob_tensor((4, 4), v, 3)),
    "blob_per_class": ("per_class", 1, None, lambda v: blob_tensor((4, 4), 2, v)),
    "blob_seed": ("seed", 0, None, lambda v: blob_tensor((4, 4), 2, 3, seed=v)),
    "config_t_max": ("t_max", 1, None, lambda v: SolverConfig(t_max=v)),
    "config_max_sweeps": ("max_sweeps", 1, None, lambda v: SolverConfig(max_sweeps=v)),
    "config_seed": ("seed", 0, None, lambda v: SolverConfig(seed=v)),
    "default_ranks_order": ("tensor order", 2, None, lambda v: default_ranks(v, 4)),
    "default_ranks_classes": ("class count", 1, None, lambda v: default_ranks(3, v)),
}


def _count_cases():
    for case, (name, lo, hi, call) in sorted(_COUNTS.items()):
        for value in [lo - 1, 2.5, None, "3"] + ([] if hi is None else [hi + 1]):
            yield pytest.param(name, lo, hi, call, value, id=f"{case}={value!r}")


@pytest.mark.parametrize("name, lo, hi, call, value", _count_cases())
def test_counts_out_of_range_rejected_by_one_rule(name, lo, hi, call, value):
    # Below lo, a fraction, no number, a numeral string, and above hi: each
    # message in the one form of as_count.
    if not isinstance(value, int):
        message = f"{name} must be an integer, got {value!r}"
    elif hi is None:
        message = f"{name} must be an integer >= {lo}, got {value}"
    else:
        message = f"{name}={value} out of range [{lo}, {hi}]"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)


@pytest.mark.parametrize("slice_dims, n_classes, per_class, seed", [
    ((4, 4), 2, 6, 0), ((3,), 1, 1, 5), ((2, 3, 4), 3, 2, 1),
    ((12, 12), 4, 10, 7), ((16, 16, 3), 4, 350, 2),
])
def test_blob_tensor_is_its_per_sample_draws(slice_dims, n_classes, per_class, seed):
    # One draw for every sample is the same stream as one draw per sample.
    rng = np.random.default_rng(seed)
    prototypes = rng.random((n_classes,) + slice_dims)
    want = np.empty(slice_dims + (n_classes * per_class,))
    for idx in range(want.shape[-1]):
        want[..., idx] = prototypes[idx // per_class] + 0.05 * rng.random(slice_dims)
    x, labels = blob_tensor(slice_dims, n_classes, per_class, noise=0.05, seed=seed)
    assert x.flags.c_contiguous and x.tobytes() == want.tobytes()
    assert labels.dtype == np.int64
    assert labels.tolist() == [idx // per_class for idx in range(want.shape[-1])]


class TestSubchain:
    def test_two_cores_subchain_is_the_other_core(self):
        cores = init_random((3, 4), (2, 3), seed=1)
        sub = build_subchain(cores, 0)
        assert np.array_equal(sub.reshape(4, 2, 3), cores[1].transpose(1, 2, 0))
        assert sub.shape == (4, 6)

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
            assert np.allclose(sub[:, 0], fiber, rtol=1e-13)

    @pytest.mark.parametrize("mode", range(3))
    def test_matches_slice_product_oracle(self, mode):
        cores = init_random((3, 4, 2), (2, 3, 2), seed=3)
        assert np.allclose(
            build_subchain(cores, mode), subchain_oracle(cores, mode), rtol=1e-12
        )

    def test_single_core_rejected(self):
        with pytest.raises(ValueError):
            build_subchain(TRCores([np.ones((2, 3, 2))]), 0)

    def test_merge_costs_a_contiguous_core_what_its_view_twin_costs(self):
        # fit's updated cores are transposed views (core_fold2), init_random's
        # are C-contiguous.  Left in the core's layout, the block matrix of a
        # contiguous core is copied again by its reshape: 256000 bytes more
        # here.  The peaks read equal; only the view's side may grow, by a read buffer.
        rng = np.random.default_rng(0)
        core = rng.random((2, 200, 5))
        twin = core_fold2(core_unfold2(core), *core.shape)
        assert core.flags.c_contiguous and not twin.flags.c_contiguous
        acc = rng.random((6, 2, 4))
        peaks = {}
        for name, c in [("view", twin), ("contiguous", core)] * 2:  # the first pair warms up
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                merged = _merge(acc, c)
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert np.array_equal(merged, _merge(acc, np.array(core)))
        assert peaks["contiguous"] <= peaks["view"]

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
        # The unfolding is the merged chain's own buffer read as a matrix.
        cores = init_random(dims, ranks, seed=12)
        for mode in range(len(dims)):
            sub = build_subchain(cores, mode)
            assert sub.base is not None and sub.flags.c_contiguous
            assert not any(np.shares_memory(sub, c) for c in cores)
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

    def test_contract_back_reproduces_reconstruction(self):
        cores = init_random((3, 2, 4), (2, 2, 3), seed=4)
        ref = reconstruct(cores)
        for mode in range(3):
            core = cores[mode]
            sub = build_subchain(cores, mode).reshape(-1, core.shape[0], core.shape[2])
            # contract core against subchain over both shared rank modes
            xn = np.einsum("aib,mab->im", core, sub)
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

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2, 3, 1)])
    def test_core_unfold2_needs_a_third_order_core(self, shape):
        with pytest.raises(ValueError, match="core must be third order"):
            core_unfold2(np.ones(shape))

    @pytest.mark.parametrize("shape", [(5, 5), (6, 5), (30,)])
    def test_core_fold2_shape_mismatch_named(self, shape):
        message = re.escape(f"matrix shape {shape} does not match core (3, 5, 2)")
        with pytest.raises(ValueError, match=message):
            core_fold2(np.ones(shape), 3, 5, 2)

    def test_rank_one_core_unfolds_to_column(self):
        core = np.random.default_rng(6).random((1, 4, 1))
        m = core_unfold2(core)
        assert m.shape == (4, 1)
        assert np.array_equal(m[:, 0], core[0, :, 0])

    def test_subchain_rank_one(self):
        cores = init_random((3, 4, 2), (1, 1, 1), seed=7)
        m = build_subchain(cores, 0)
        assert m.shape == (8, 1)
        assert np.array_equal(m[:, 0], np.kron(cores[2].ravel(), cores[1].ravel()))

    def test_subchain_two_cores_matches_classical_unfolding(self):
        # With two cores the subchain is the other core, and the lexical
        # column pairing coincides with its classical mode-1 unfolding.
        cores = init_random((3, 4), (2, 3), seed=8)
        classical = np.moveaxis(cores[1], 1, 0).reshape(4, -1, order="F")
        assert np.array_equal(build_subchain(cores, 0), classical)


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
            xn = core_unfold2(cores[mode]) @ build_subchain(cores, mode).T
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
            rhs = core_unfold2(cores[mode]) @ build_subchain(cores, mode).T
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

    @pytest.mark.parametrize("shape", [(1, 3), (2, 3, 1), (3, 2)])
    def test_tensor_not_shaped_like_the_ring_rejected(self, shape):
        # A (1, 3) tensor used to broadcast against the (2, 3) ring.
        cores = init_random((2, 3), (1, 1), seed=0)
        message = re.escape(f"tensor shape {shape} does not match the ring's shape (2, 3)")
        with pytest.raises(ValueError, match=message):
            relative_error(np.ones(shape), cores)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, bad):
        # A NaN entry used to give a relative error of nan.
        cores = init_random((2, 3), (1, 1), seed=0)
        with pytest.raises(ValueError, match="tensor must be finite"):
            relative_error(np.array([[bad, 1.0, 1.0], [1.0, 1.0, 1.0]]), cores)

    @pytest.mark.parametrize("fill", [1e308, 8e307])
    def test_overflowing_norm_rejected(self, fill):
        # Every entry is finite, but ||x|| is not: it used to give nan.
        cores = init_random((2, 3), (1, 1), seed=0)
        with pytest.raises(ValueError, match="norm in \\(0, inf\\).*norm inf"):
            relative_error(np.full((2, 3), fill), cores)

    @pytest.mark.parametrize("s", [1e-170, 1e160])
    def test_scaled_data_and_core_keep_the_error(self, s):
        # The squares of these entries leave float64.
        x, _ = blob_tensor((4, 3), 2, 5, noise=0.1, seed=3)
        cores = init_random(x.shape, (2, 2, 2), seed=4)
        want = relative_error(x, cores)
        scaled = TRCores([s * cores[0], *cores[1:]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relative_error(s * x, scaled)
        assert got == pytest.approx(want, rel=1e-12)


def test_feature_matrix_is_last_core_unfolding():
    cores = init_random((3, 4, 6), (2, 3, 2), seed=21)
    f = feature_matrix(cores)
    assert f.shape == (6, 2 * 2)  # samples x (r_d * r_1)
    assert np.array_equal(f, core_unfold2(cores[2]))


@pytest.mark.parametrize("dims, ranks", [((5, 4, 7), (2, 3, 2)),          # grayscale (h, w, n)
                                         ((4, 3, 3, 6), (3, 2, 2, 2))])  # colour (h, w, 3, n)
def test_basis_tensors_are_rings_with_a_unit_last_core(dims, ranks):
    # Basis f is the ring whose last core is a unit indicator on feature
    # column f, paired (r_d slow, r_1 fast) as in feature_matrix.
    cores = init_random(dims, ranks, seed=22)
    bases = basis_tensors(cores)
    assert len(bases) == ranks[-1] * ranks[0]
    for f, basis in enumerate(bases):
        unit = np.zeros((ranks[-1], 1, ranks[0]))
        unit[f // ranks[0], 0, f % ranks[0]] = 1.0
        want = reconstruct([*cores[:-1], unit])[..., 0]
        assert basis.shape == dims[:-1]
        assert np.allclose(basis, want, rtol=1e-12, atol=0)
