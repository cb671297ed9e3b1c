"""Particle system and alignment force tests.

Hand-computed force values pin the coupling normalization: with N
particles the velocity disagreement is weighted by 2/N, so a two-particle
system follows the separation equation phi'' = -2 phi' psi(|phi|) used by
the closed-form two-body analysis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocksim import (
    ClusterPartition,
    CuckerSmaleKernel,
    DomainError,
    RegularizedKernel,
    SingularEvaluationError,
    SingularKernel,
    SolverConfig,
    make_system,
    merge_clusters,
)
from flocksim.dynamics import _equal_rows, acceleration_arrays, pair_norms, pair_slots
from flocksim.integrator import _Driver


def _random_system(seed, n, d, kernel=None):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, d))
    v = rng.uniform(-1.0, 1.0, (n, d))
    return make_system(x, v, kernel or SingularKernel(alpha=0.5))


def _matrix(slots):
    """The weight matrix of the last force evaluation on ``slots``: the
    gather of its weights when the pair list holds every pair, else the
    scattered buffer's N x N view."""
    _, _, index, w, w_nn = slots[:5]
    return w_nn if index is None else w[index]


def _weights(x, pairs, kernel):
    """The weight matrix that one force evaluation leaves in its slots."""
    slots = pair_slots(pairs, len(x))
    acceleration_arrays(x, np.zeros_like(x), pairs, kernel, slots)
    return _matrix(slots)


def _acceleration(s):
    """The solver's force rows on the system's inter-cluster pairs."""
    pairs = s.partition.inter_pairs()
    return acceleration_arrays(s.x, s.v, pairs, s.kernel, pair_slots(pairs, s.n_particles))


class TestClusterPartition:
    def test_initial_singletons(self):
        p = ClusterPartition(4)
        assert p.n_clusters == 4
        np.testing.assert_array_equal(p.labels(), [0, 1, 2, 3])

    def test_union_merges(self):
        p = ClusterPartition(4)
        assert p.union(2, 0)
        np.testing.assert_array_equal(p.labels(), [0, 1, 0, 3])
        assert p.n_clusters == 3
        assert not p.union(2, 0)  # already joined

    def test_groups_sorted(self):
        # each cluster is named by its smallest member, whatever the union order
        p = ClusterPartition(5)
        p.union(3, 1)
        p.union(1, 4)
        np.testing.assert_array_equal(p.labels(), [0, 1, 2, 1, 1])

    def test_copy_is_independent(self):
        p = ClusterPartition(3)
        q = p.copy()
        q.union(0, 1)
        assert p.n_clusters == 3
        assert q.n_clusters == 2

    def test_size_validation(self):
        with pytest.raises(DomainError):
            ClusterPartition(0)

    @given(n=st.integers(1, 12), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_union_sequences_match_reference(self, n, data):
        # a plain union-find kept here is the reference, merging each member
        # list pair by pair: each label is the smallest member of its
        # component, and the pair lists follow
        index = st.integers(0, n - 1)
        ops = data.draw(st.lists(st.lists(index, min_size=1, max_size=n), max_size=2 * n))
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        p = ClusterPartition(n)
        for members in ops:
            distinct = len({find(i) for i in members}) > 1
            assert p.union(*members) == distinct
            for j in members[1:]:
                parent[find(members[0])] = find(j)
        comps: dict[int, list[int]] = {}
        for i in range(n):
            comps.setdefault(find(i), []).append(i)
        np.testing.assert_array_equal(p.labels(), [comps[find(i)][0] for i in range(n)])
        assert p.n_clusters == len(comps)
        iu, ju = np.triu_indices(n, 1)
        ref_inter = [(i, j) for i, j in zip(iu.tolist(), ju.tolist()) if find(i) != find(j)]
        pi, pj = p.inter_pairs()
        assert list(zip(pi.tolist(), pj.tolist())) == ref_inter
        first: dict[frozenset, tuple[int, int]] = {}
        for i, j in ref_inter:
            first.setdefault(frozenset((find(i), find(j))), (i, j))
        ri, rj = p.root_pairs()
        assert list(zip(ri.tolist(), rj.tolist())) == list(first.values())


class TestMakeSystem:
    def test_1d_column_shape(self):
        s = make_system([[0.0], [1.0]], [[1.0], [-1.0]], SingularKernel(alpha=0.5))
        assert s.n_particles == 2
        assert s.x.shape == s.v.shape == (2, 1)

    def test_coincident_particles_share_cluster(self):
        x = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        v = [[2.0, 0.0], [2.0, 0.0], [0.0, 0.0]]
        s = make_system(x, v, SingularKernel(alpha=0.5))
        np.testing.assert_array_equal(s.partition.labels(), [0, 0, 2])

    def test_coincident_position_distinct_velocity_stays_split(self):
        x = [[0.0], [0.0]]
        v = [[1.0], [2.0]]
        s = make_system(x, v, SingularKernel(alpha=0.5))
        np.testing.assert_array_equal(s.partition.labels(), [0, 1])

    def test_non_kernel_rejected(self):
        with pytest.raises(DomainError, match="not a weight kernel"):
            make_system([[0.0], [1.0]], [[1.0], [-1.0]], object())

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            make_system([[0.0], [1.0]], [[0.0, 1.0]], SingularKernel(alpha=0.5))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            make_system([[np.inf], [0.0]], [[0.0], [0.0]], SingularKernel(alpha=0.5))

    @staticmethod
    def _cube_labels(x, v):
        """The grouping's definition, as an N x N x d equality cube: each
        row's label is the first row equal to it in x and in v."""
        same = (x[:, None] == x[None]).all(-1) & (v[:, None] == v[None]).all(-1)
        # equality is an equivalence: each row's first equal row is its class's smallest
        return same.argmax(axis=1)

    def test_labels_match_the_equality_cube(self):
        # repeated rows drawn from a few values, zeros of both signs, every
        # N up to 128 and d up to 3: the labels equal the cube's, dtype and
        # bytes included
        rng = np.random.default_rng(20240)
        values = np.array([0.0, -0.0, 1.0, -1.0, 0.5])
        kernel = SingularKernel(alpha=0.5)
        for _ in range(3000):
            n, d = int(rng.integers(1, 129)), int(rng.integers(1, 4))
            distinct = rng.choice(values, size=(int(rng.integers(1, n + 1)), 2 * d))
            rows = distinct[rng.integers(0, len(distinct), size=n)]
            zeros = rows == 0.0
            rows[zeros] = np.where(rng.random(np.count_nonzero(zeros)) < 0.5, 0.0, -0.0)
            x, v = rows[:, :d].copy(), rows[:, d:].copy()
            labels = make_system(x, v, kernel).partition.labels()
            cube = self._cube_labels(x, v)
            assert labels.dtype == cube.dtype
            assert labels.tobytes() == cube.tobytes(), (n, d)

    def test_equal_rows_match_the_bytes_cube(self):
        # the trajectory writer's use: the columns of sample matrices of 1-6
        # rows, repeated, with NaN payloads, 5e-324 and zeros of both signs
        # kept apart; each column's label is the first column with its bytes
        rng = np.random.default_rng(20250)
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF0000000000001], np.uint64)
        values = np.concatenate([[0.0, -0.0, 1.0, 5e-324, -5e-324], nans.view(float)])
        cases = [np.array([[1.0, 1.0, 1.0, 5.0], [1.0, 2.0, 2.0, 6.0]])]
        for _ in range(2000):
            s, ncol = int(rng.integers(1, 7)), int(rng.integers(1, 40))
            templates = rng.choice(values, size=(s, int(rng.integers(1, ncol + 1))))
            cases.append(templates[:, rng.integers(0, templates.shape[1], size=ncol)])
        for samples in cases:
            cols = np.ascontiguousarray(samples.T)
            first, inverse = _equal_rows(cols)
            bits = cols.view(np.uint64)
            cube = (bits[:, None] == bits[None]).all(-1).argmax(axis=1)
            assert first[inverse].dtype == cube.dtype
            assert first[inverse].tobytes() == cube.tobytes(), samples
            assert np.array_equal(np.sort(first), np.unique(cube))
        # columns 1 and 2 differ from column 0 only after the first sample
        first, inverse = _equal_rows(np.ascontiguousarray(cases[0].T))
        assert first[inverse].tolist() == [0, 1, 1, 3]

    def test_copy_does_not_alias(self):
        s = _random_system(0, 3, 2)
        c = s.copy()
        c.x[0, 0] += 1.0
        assert s.x[0, 0] != c.x[0, 0]


def _dense_masked_weights(x, labels, kernel):
    """The kernel on the dense N x N separations, same-cluster entries zeroed."""
    diff = x[None, :, :] - x[:, None, :]
    dist = np.sqrt(np.einsum("ikd,ikd->ik", diff, diff))
    with np.errstate(divide="ignore"):
        ref = kernel.weight(dist)
    ref[labels[:, None] == labels[None, :]] = 0.0
    return ref


def _partition(labels):
    """Partition whose clusters are the equal entries of ``labels``."""
    part = ClusterPartition(len(labels))
    for i, j in zip(*np.nonzero(np.triu(np.equal.outer(labels, labels), 1))):
        part.union(int(i), int(j))
    return part


class TestPairWeights:
    def test_symmetric_zero_diagonal(self):
        s = _random_system(1, 4, 2)
        w = _weights(s.x, s.partition.inter_pairs(), s.kernel)
        np.testing.assert_array_equal(w, w.T)
        assert np.all(np.diag(w) == 0.0)

    def test_same_cluster_zeroed(self):
        x = np.array([[0.0], [0.0], [1.0]])
        w = _weights(x, _partition([0, 0, 1]).inter_pairs(), SingularKernel(alpha=0.5))
        assert w[0, 1] == 0.0
        assert w[0, 2] == 1.0

    def test_intercluster_contact_raises(self):
        x = np.array([[0.0], [0.0]])
        with pytest.raises(SingularEvaluationError):
            _weights(x, ClusterPartition(2).inter_pairs(), SingularKernel(alpha=0.5))

    def test_bounded_kernel_tolerates_contact(self):
        x = np.array([[0.0], [0.0]])
        w = _weights(x, ClusterPartition(2).inter_pairs(), CuckerSmaleKernel(K=1.0, beta=2.0))
        assert w[0, 1] == 1.0

    def test_slots_are_linear_indices(self):
        # a clustered partition scatters into a zeroed N x N buffer
        pairs = _partition([0, 1, 1, 2, 3, 3, 4]).inter_pairs()
        dist, weights, index, w, w_nn, ij, ji, _ = pair_slots(pairs, 7)
        assert index is None
        np.testing.assert_array_equal(ij, pairs[0] * 7 + pairs[1])
        np.testing.assert_array_equal(ji, pairs[1] * 7 + pairs[0])
        assert w.shape == (49,) and not w.any() and np.shares_memory(w_nn, w)
        assert dist.shape == weights.shape == (len(pairs[0]),)

    def test_slots_gather_every_pair(self):
        # every pair listed: each entry indexes its pair's weight, and the
        # diagonal a trailing zero
        pairs = _partition(np.arange(5)).inter_pairs()
        dist, weights, index, w, w_nn, ij, ji, _ = pair_slots(pairs, 5)
        assert w_nn is None and ij is None and ji is None
        assert w.shape == (11,) and not w.any() and np.shares_memory(weights, w)
        assert dist.shape == weights.shape == (10,)
        np.testing.assert_array_equal(index[pairs], np.arange(10))
        np.testing.assert_array_equal(index.T, index)
        np.testing.assert_array_equal(np.diag(index), [10] * 5)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 9),
        d=st.integers(1, 4),
        n_clusters=st.integers(1, 9),
        kernel=st.sampled_from(
            [
                SingularKernel(alpha=0.5),
                RegularizedKernel(alpha=0.25, n=50),
                CuckerSmaleKernel(K=1.0, beta=2.0),
            ]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_masked_reference(self, seed, n, d, n_clusters, kernel):
        # clusters are coincident rows; the reference evaluates the kernel
        # on the dense N x N separations and zeroes same-cluster entries
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, n_clusters, n)
        x = rng.normal(size=(n_clusters, d))[labels] * 10.0 ** rng.integers(-4, 2)
        w = _weights(x, _partition(labels).inter_pairs(), kernel)
        assert w.tobytes() == _dense_masked_weights(x, labels, kernel).tobytes()


class TestPairNorms:
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 4),
        n=st.integers(2, 9),
        d=st.integers(1, 5),
        scale=st.integers(-12, 6),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_einsum_bytes(self, seed, m, n, d, scale, data):
        # the written-out order (even axes, then odd axes) is einsum's, so
        # the norms of (M, N, d) rows equal its bytes on any subset of pairs
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(m, n, d)) * 10.0 ** scale * 10.0 ** rng.uniform(-2, 2, (m, n, d))
        pi, pj = np.triu_indices(n, k=1)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=pi.size, max_size=pi.size)))
        pairs = (pi[keep], pj[keep])
        diff = (z[:, pairs[1]] - z[:, pairs[0]]).reshape(-1, d)
        ref = np.sqrt(np.einsum("pd,pd->p", diff, diff)).reshape(m, -1)
        assert pair_norms(z, pairs).tobytes() == ref.tobytes()


class TestWeightBuffer:
    """The driver reuses one weight buffer for its fixed pair list."""

    @staticmethod
    def _state(seed, n, d):
        rng = np.random.default_rng(seed)
        return np.concatenate([rng.uniform(-1.0, 1.0, n * d), rng.uniform(-1.0, 1.0, n * d)])

    def test_reused_driver_matches_fresh_driver(self):
        # rows 0, 2 and 5 form one cluster: their entries are off the pair list
        s = merge_clusters(_random_system(3, 7, 2), (0, 2, 5))
        driver = _Driver(s, SolverConfig())
        for seed in (11, 12):
            y = self._state(seed, 7, 2)
            fresh, reused = np.empty_like(y), np.empty_like(y)
            _Driver(s, SolverConfig()).rhs(0.0, y, fresh)
            driver.rhs(0.0, y, reused)
            assert reused.tobytes() == fresh.tobytes()

    def test_returned_derivative_survives_next_call(self):
        driver = _Driver(_random_system(4, 6, 3), SolverConfig())
        first, second = np.empty(36), np.empty(36)
        driver.rhs(0.0, self._state(21, 6, 3), first)
        kept = first.copy()
        driver.rhs(0.0, self._state(22, 6, 3), second)
        assert second.tobytes() != kept.tobytes()
        assert first.tobytes() == kept.tobytes()

    def test_merged_rows_get_zero_weight_next_segment(self):
        s = _random_system(5, 6, 2)
        before = _Driver(s, SolverConfig())
        before.rhs(0.0, np.concatenate([s.x.ravel(), s.v.ravel()]), np.empty(24))
        merged = merge_clusters(s, (1, 4))
        after = _Driver(merged, SolverConfig())
        after.rhs(0.0, np.concatenate([merged.x.ravel(), merged.v.ravel()]), np.empty(24))
        w = _matrix(after.slots)
        assert w[1, 4] == 0.0 and w[4, 1] == 0.0
        ref = _dense_masked_weights(merged.x, merged.partition.labels(), after.kernel)
        assert w.tobytes() == ref.tobytes()


class TestAcceleration:
    def test_two_body_hand_value(self):
        # separation 1, psi(1)=1: a_i = (2/2) * 1 * (v_k - v_i)
        s = make_system([[0.0], [1.0]], [[1.0], [-1.0]], SingularKernel(alpha=0.5))
        a = _acceleration(s)
        np.testing.assert_allclose(a, [[-2.0], [2.0]], atol=1e-14)

    def test_stuck_pair_multiplicity(self):
        # stuck pair at 0 with speed 5, singleton at 1 at rest; the pair
        # rows feel only the singleton, the singleton feels both members
        s = make_system(
            [[0.0], [0.0], [1.0]], [[5.0], [5.0], [0.0]], SingularKernel(alpha=0.5)
        )
        a = _acceleration(s)
        np.testing.assert_allclose(a[:, 0], [-10.0 / 3.0, -10.0 / 3.0, 20.0 / 3.0], rtol=1e-14)

    def test_stuck_rows_identical(self):
        s = make_system(
            [[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]],
            [[5.0, 1.0], [5.0, 1.0], [0.0, 0.0]],
            SingularKernel(alpha=0.75),
        )
        a = _acceleration(s)
        np.testing.assert_array_equal(a[0], a[1])

    def test_equal_velocities_no_force(self):
        s = make_system([[0.0], [1.0], [3.0]], [[2.0], [2.0], [2.0]], SingularKernel(alpha=0.5))
        np.testing.assert_array_equal(_acceleration(s), 0.0)

    def test_single_cluster_no_force(self):
        s = make_system([[0.0], [1.0]], [[1.0], [-1.0]], SingularKernel(alpha=0.5))
        merged = merge_clusters(s, [0, 1])
        np.testing.assert_array_equal(_acceleration(merged), 0.0)

    @given(seed=st.integers(0, 500), n=st.integers(2, 6), d=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_mean_velocity_conserved(self, seed, n, d):
        s = _random_system(seed, n, d)
        a = _acceleration(s)
        np.testing.assert_allclose(a.mean(axis=0), 0.0, atol=1e-13)

    @given(seed=st.integers(0, 500), n=st.integers(2, 6), d=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_dispersion_decay_identity(self, seed, n, d):
        # d/dt sum_ij |v_i - v_j|^2 = -4 sum_ik psi_ik |v_i - v_k|^2
        s = _random_system(seed, n, d)
        a = _acceleration(s)
        dv = s.v[:, None, :] - s.v[None, :, :]
        da = a[:, None, :] - a[None, :, :]
        lhs = 2.0 * np.einsum("ijd,ijd->", dv, da)
        w = _weights(s.x, s.partition.inter_pairs(), s.kernel)
        rhs = -4.0 * np.einsum("ij,ijd,ijd->", w, dv, dv)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_dispersion_never_grows(self):
        for seed in range(10):
            s = _random_system(seed, 5, 2)
            a = _acceleration(s)
            dv = s.v[:, None, :] - s.v[None, :, :]
            da = a[:, None, :] - a[None, :, :]
            assert 2.0 * np.einsum("ijd,ijd->", dv, da) <= 1e-12

    def test_capped_weight_acceleration_bound(self):
        # |a_i| <= (2/N)(N-1) * n * 2 max|v| <= 4 n max|v|
        n_cap = 50
        kernel = RegularizedKernel(alpha=0.5, n=n_cap)
        rng = np.random.default_rng(7)
        x = rng.uniform(-1e-3, 1e-3, (6, 2))  # crowded, weights near the cap
        v = rng.uniform(-1.0, 1.0, (6, 2))
        s = make_system(x, v, kernel)
        a = _acceleration(s)
        vmax = np.linalg.norm(v, axis=1).max()
        assert np.linalg.norm(a, axis=1).max() <= 4.0 * n_cap * vmax


def _reference_norms(z, pairs):
    """The separations as the force computed them before its lean call
    sequence, verbatim: every d through the even-then-odd reduction."""
    from functools import reduce

    pi, pj = pairs
    sq = z.take(pj, axis=-2)
    sq -= z.take(pi, axis=-2)
    sq *= sq
    d = z.shape[-1]
    total = reduce(np.add, (sq[..., k] for k in range(0, d, 2)))
    if d > 1:
        total = total + reduce(np.add, (sq[..., k] for k in range(1, d, 2)))
    return np.sqrt(total)


def _reference_force(x, v, pairs, kernel):
    """The force before its lean call sequence, verbatim: the weight matrix
    on the pairs, then ``W @ v - W.sum(1)[:, None] * v`` scaled by 2/N."""
    n = x.shape[0]
    ij, ji = pairs[0] * n + pairs[1], pairs[1] * n + pairs[0]
    w = np.zeros(n * n)
    w[ij] = w[ji] = kernel.weight(_reference_norms(x, pairs))
    w = w.reshape(n, n)
    a = np.matmul(w, v)
    a -= w.sum(axis=1)[:, None] * v
    a *= 2.0 / x.shape[0]
    return a, w


_ORACLE_KERNEL = RegularizedKernel(alpha=0.5, n=50)  # cap to 4.0e-4, bridge to 4.16e-4
_KERNELS = [
    SingularKernel(alpha=0.5),
    _ORACLE_KERNEL,
    RegularizedKernel(alpha=0.25, n=10**6),
    CuckerSmaleKernel(K=1.5, beta=0.7),
]


class TestForceOracle:
    """Each force evaluation equals, byte for byte, the formulation it
    replaced: on every kernel and every branch of the capped weight, in
    d = 1 to 4, on singletons and on clustered partitions."""

    @staticmethod
    def _check(x, v, labels, kernel):
        pairs = _partition(labels).inter_pairs()
        n = x.shape[0]
        ref, ref_w = _reference_force(x, v, pairs, kernel)
        slots = pair_slots(pairs, n)
        out = np.empty_like(v)
        a = acceleration_arrays(x, v, pairs, kernel, slots, out=out)
        assert a is out
        assert a.tobytes() == ref.tobytes()
        assert _matrix(slots).tobytes() == ref_w.tobytes()
        assert slots[0].tobytes() == _reference_norms(x, pairs).tobytes()
        # a second call on the same slots, without out, gives the same bytes
        again = acceleration_arrays(x, v, pairs, kernel, slots)
        assert again.tobytes() == ref.tobytes()
        return slots

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        d=st.integers(1, 4),
        n_clusters=st.integers(1, 12),
        scale=st.sampled_from([1e-5, 2e-4, 4.08e-4, 1e-3, 1.0, 1e3]),
        kernel=st.sampled_from(_KERNELS),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bytes(self, seed, n, d, n_clusters, scale, kernel):
        # coincident rows form the clusters; the scales put the gaps on the
        # cap, the bridge and the power branch of the capped weights
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, min(n, n_clusters), n)
        if n_clusters >= n:
            labels = np.arange(n)
        x = rng.normal(size=(n, d))[labels] * scale * 10.0 ** rng.uniform(-0.3, 0.3, (n, 1))[labels]
        v = rng.normal(size=(n, d))[labels]
        if len(set(labels.tolist())) > 1:
            self._check(x, v, labels, kernel)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_capped_branches_in_one_call(self, d):
        # gaps on the cap, on the bridge and on the power branch in one call,
        # and a call with every gap on the power branch (the fast path)
        k = _ORACLE_KERNEL
        e = np.ones(d) / np.sqrt(d)
        offsets = np.array([0.0, 0.5 * k.cap_end, 0.5 * (k.cap_end + k.bridge_end) + 0.5 * k.cap_end,
                            1.0, 3.0])
        x = offsets[:, None] * e
        v = np.random.default_rng(d).normal(size=x.shape)
        gaps = _reference_norms(x, _partition(np.arange(5)).inter_pairs())
        assert (gaps <= k.cap_end).any() and (gaps >= k.bridge_end).any()
        assert ((gaps > k.cap_end) & (gaps < k.bridge_end)).any()
        self._check(x, v, np.arange(5), k)
        self._check(x[3:], v[3:], np.arange(2), k)
        self._check(np.concatenate([x, x[:2]]), np.concatenate([v, v[:2]]),
                    np.array([0, 1, 2, 3, 4, 0, 1]), k)

    @pytest.mark.parametrize("kernel", _KERNELS)
    @pytest.mark.parametrize("scale", [4.08e-4, 1.0])
    @pytest.mark.parametrize(
        "n, d, labels",
        [(128, 2, np.arange(128)), (64, 3, np.array([0] + [1] * 63))],
        ids=["gather-128x2-singletons", "scatter-64x3-clusters-1-63"],
    )
    def test_benchmark_sizes(self, n, d, labels, scale, kernel):
        # the sizes the benchmark runs: swarm_2d's all-singleton N = 128,
        # which gathers the matrix, and merge_2c's clusters of 1 and 63,
        # which scatter it
        rng = np.random.default_rng(n * d)
        x = rng.normal(size=(n, d))[labels] * scale
        v = rng.normal(size=(n, d))[labels]
        slots = self._check(x, v, labels, kernel)
        assert (slots[2] is None) == (len(set(labels.tolist())) < n)


class TestMergeClusters:
    def test_mean_state(self):
        s = make_system([[0.0], [1.0]], [[3.0], [1.0]], SingularKernel(alpha=0.5))
        m = merge_clusters(s, [0, 1])
        np.testing.assert_array_equal(m.x, [[0.5], [0.5]])
        np.testing.assert_array_equal(m.v, [[2.0], [2.0]])
        assert m.partition.n_clusters == 1

    def test_mean_velocity_unchanged(self):
        s = _random_system(3, 5, 3)
        m = merge_clusters(s, [1, 2, 4])
        np.testing.assert_allclose(m.v.mean(axis=0), s.v.mean(axis=0), atol=1e-15)

    def test_merge_is_idempotent(self):
        s = _random_system(4, 4, 2)
        once = merge_clusters(s, [0, 3])
        twice = merge_clusters(once, [0, 3])
        np.testing.assert_array_equal(once.x, twice.x)
        np.testing.assert_array_equal(once.v, twice.v)

    def test_original_untouched(self):
        s = make_system([[0.0], [1.0]], [[3.0], [1.0]], SingularKernel(alpha=0.5))
        merge_clusters(s, [0, 1])
        np.testing.assert_array_equal(s.x, [[0.0], [1.0]])
        assert s.partition.n_clusters == 2

    def test_group_too_small(self):
        s = _random_system(5, 3, 1)
        with pytest.raises(DomainError):
            merge_clusters(s, [1])

    def test_group_out_of_range(self):
        s = _random_system(6, 3, 1)
        with pytest.raises(DomainError):
            merge_clusters(s, [0, 3])
