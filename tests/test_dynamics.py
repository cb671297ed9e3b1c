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
    make_system,
    merge_clusters,
)
from flocksim.dynamics import acceleration_arrays, pair_slots, pair_weights


def _random_system(seed, n, d, kernel=None):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, d))
    v = rng.uniform(-1.0, 1.0, (n, d))
    return make_system(x, v, kernel or SingularKernel(alpha=0.5))


def _weights(x, pairs, kernel):
    return pair_weights(x, pairs, kernel, pair_slots(pairs, len(x)))


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

    def test_copy_does_not_alias(self):
        s = _random_system(0, 3, 2)
        c = s.copy()
        c.x[0, 0] += 1.0
        assert s.x[0, 0] != c.x[0, 0]


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
        pairs = _partition([0, 1, 1, 2, 3, 3, 4]).inter_pairs()
        slots = pair_slots(pairs, 7)
        np.testing.assert_array_equal(slots[0], pairs[0] * 7 + pairs[1])
        np.testing.assert_array_equal(slots[1], pairs[1] * 7 + pairs[0])

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 9),
        d=st.integers(1, 3),
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
        part = _partition(labels)
        diff = x[None, :, :] - x[:, None, :]
        dist = np.sqrt(np.einsum("ikd,ikd->ik", diff, diff))
        inter = labels[:, None] != labels[None, :]
        with np.errstate(divide="ignore"):
            ref = kernel.weight(dist)
        ref[~inter] = 0.0
        w = _weights(x, part.inter_pairs(), kernel)
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
