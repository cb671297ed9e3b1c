"""Particle system state and the alignment right-hand side.

A system holds positions ``x`` and velocities ``v`` as ``(N, d)`` arrays,
a weight kernel, and a cluster partition.  Particles in the same cluster
are stuck: they share identical state and exert no force on one another.
The acceleration of particle ``i`` averages the weighted velocity
disagreement over every particle in a different cluster,

    a_i = (2/N) * sum_k w(|x_k - x_i|) * (v_k - v_i),

where the sum runs over all k outside i's cluster.  Stuck particles still
count individually in the sums of others, so a cluster of size m pulls
with multiplicity m.  The 2/N coupling is chosen so that two particles
obey the separation equation ``d2(phi)/dt2 = -2 psi(|phi|) d(phi)/dt``
solved in closed form by the twobody module.  The kernel is evaluated only
on the pairs of :meth:`ClusterPartition.inter_pairs`: their rows are
gathered with ``np.take`` and subtracted in place, and the P weights are
scattered into the flattened N x N matrix through the linear indices
``i*N + j`` and ``j*N + i`` (:func:`pair_slots`, which a solver segment
builds once for its fixed pair list), and the force reduction then reads
that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularEvaluationError
from .kernels import CuckerSmaleKernel, RegularizedKernel, SingularKernel, WeightKernel

__all__ = [
    "ClusterPartition",
    "ParticleSystem",
    "make_system",
    "acceleration",
    "merge_clusters",
]


class ClusterPartition:
    """Union-find over particle indices with path compression.

    Merging is monotone: clusters only ever grow.  ``labels`` returns the
    canonical root of every index as an array; ``inter_pairs`` the pairs
    the force and the event watch act on.
    """

    def __init__(self, n: int):
        if n < 1:
            raise DomainError(f"partition size must be >= 1, got {n}")
        self._parent = list(range(n))
        self._size = [1] * n
        self.n = n

    def find(self, i: int) -> int:
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, i: int, j: int) -> bool:
        """Join the clusters of ``i`` and ``j``; returns True if they were distinct."""
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        if self._size[ri] < self._size[rj]:
            ri, rj = rj, ri
        self._parent[rj] = ri
        self._size[ri] += self._size[rj]
        return True

    def same(self, i: int, j: int) -> bool:
        return self.find(i) == self.find(j)

    def labels(self) -> np.ndarray:
        return np.array([self.find(i) for i in range(self.n)], dtype=np.intp)

    def inter_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays ``(i, j)``, ``i < j``, of the pairs in distinct
        clusters, in ``np.triu_indices`` order."""
        labels = self.labels()
        iu, ju = np.triu_indices(self.n, k=1)
        inter = labels[iu] != labels[ju]
        return iu[inter], ju[inter]

    def groups(self) -> list[list[int]]:
        by_root: dict[int, list[int]] = {}
        for i in range(self.n):
            by_root.setdefault(self.find(i), []).append(i)
        return [by_root[r] for r in sorted(by_root)]

    @property
    def n_clusters(self) -> int:
        return len({self.find(i) for i in range(self.n)})

    def copy(self) -> "ClusterPartition":
        out = ClusterPartition(self.n)
        out._parent = list(self._parent)
        out._size = list(self._size)
        return out


@dataclass
class ParticleSystem:
    x: np.ndarray
    v: np.ndarray
    kernel: WeightKernel
    partition: ClusterPartition

    @property
    def n_particles(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def copy(self) -> "ParticleSystem":
        return ParticleSystem(self.x.copy(), self.v.copy(), self.kernel, self.partition.copy())


def make_system(x, v, kernel: WeightKernel) -> ParticleSystem:
    """Build a validated system, grouping exactly coincident particles.

    Particles whose positions and velocities are bitwise equal start in one
    cluster; everyone else starts as a singleton.
    """
    x = np.ascontiguousarray(x, dtype=float)
    v = np.ascontiguousarray(v, dtype=float)
    if x.ndim != 2 or v.shape != x.shape:
        raise DomainError(f"x and v must be matching (N, d) arrays, got {x.shape} and {v.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise DomainError(f"need at least one particle and one dimension, got shape {x.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise DomainError("initial data must be finite")
    if not isinstance(kernel, (SingularKernel, RegularizedKernel, CuckerSmaleKernel)):
        raise DomainError(f"not a weight kernel: {kernel!r}")

    part = ClusterPartition(x.shape[0])
    same = (x[:, None] == x[None]).all(-1) & (v[:, None] == v[None]).all(-1)
    for i, j in zip(*np.nonzero(np.triu(same, 1))):
        part.union(int(i), int(j))
    return ParticleSystem(x, v, kernel, part)


def pair_slots(pairs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Linear indices ``(i*n + j, j*n + i)`` of ``pairs`` in a flattened
    n x n matrix; a caller that reuses one pair list builds them once."""
    pi, pj = pairs
    return pi * n + pj, pj * n + pi


def pair_weights(x: np.ndarray, pairs, kernel: WeightKernel, slots=None) -> np.ndarray:
    """Symmetric matrix of kernel weights on ``pairs`` (index arrays from
    :meth:`ClusterPartition.inter_pairs`), zero elsewhere.  ``slots`` are
    the pairs' :func:`pair_slots`, built here when not given.

    Raises :class:`SingularEvaluationError` if the singular kernel meets a
    zero separation on one of them.
    """
    pi, pj = pairs
    n = x.shape[0]
    ij, ji = pair_slots(pairs, n) if slots is None else slots
    diff = np.take(x, pj, axis=0)
    diff -= np.take(x, pi, axis=0)
    dist = np.einsum("pd,pd->p", diff, diff)
    np.sqrt(dist, out=dist)
    if isinstance(kernel, SingularKernel) and np.any(dist == 0.0):
        raise SingularEvaluationError(
            "zero separation between distinct clusters under the singular weight"
        )
    w = np.zeros(n * n)
    w[ij] = w[ji] = kernel.weight(dist)
    return w.reshape(n, n)


def acceleration_arrays(
    x: np.ndarray, v: np.ndarray, pairs, kernel: WeightKernel, slots=None
) -> np.ndarray:
    """Force rows for raw arrays; the hot path behind :func:`acceleration`."""
    w = pair_weights(x, pairs, kernel, slots)
    # a_i = (2/N) * (sum_k w_ik v_k - (sum_k w_ik) v_i); the reduction is a
    # fixed deterministic matrix product, so repeat runs agree bitwise.
    # The 2/N coupling makes the two-particle system reduce exactly to the
    # separation equation d2(phi)/dt2 = -2 psi(|phi|) d(phi)/dt that the
    # twobody module solves in closed form.
    return (w @ v - w.sum(axis=1)[:, None] * v) * (2.0 / x.shape[0])


def acceleration(system: ParticleSystem) -> np.ndarray:
    """Alignment acceleration, one row per particle.

    Rows of stuck particles are identical, and the column means vanish up
    to roundoff, so the mean velocity is a conserved quantity of the flow.
    """
    return acceleration_arrays(system.x, system.v, system.partition.inter_pairs(), system.kernel)


def merge_clusters(system: ParticleSystem, group) -> ParticleSystem:
    """Merge ``group`` into one cluster carrying the group-mean state.

    Every listed particle gets the arithmetic mean position and velocity of
    the listed rows, which leaves the mean velocity of the full system
    unchanged.  Merging an already-merged group is a no-op.
    """
    idx = sorted(set(int(i) for i in group))
    if len(idx) < 2:
        raise DomainError("a merge group needs at least two particles")
    if not all(0 <= i < system.n_particles for i in idx):
        raise DomainError(f"merge group {idx} out of range")
    out = system.copy()
    sel = np.array(idx, dtype=np.intp)
    # Skip the average when all rows already coincide, so a repeated merge
    # is bitwise a no-op.
    if not (np.all(out.x[sel] == out.x[idx[0]]) and np.all(out.v[sel] == out.v[idx[0]])):
        out.x[sel] = out.x[sel].mean(axis=0)
        out.v[sel] = out.v[sel].mean(axis=0)
    for k in idx[1:]:
        out.partition.union(idx[0], k)
    return out
