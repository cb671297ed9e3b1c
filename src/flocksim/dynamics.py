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
solved in closed form by the twobody module.

One call of :func:`acceleration_arrays` is a fixed sequence on the pairs
of :meth:`ClusterPartition.inter_pairs`: their separations from
:func:`pair_norms` (which sums the squared components in one written-out
order, the even axes, then the odd axes, and takes the root of the single
square when d = 1), the P kernel weights on them, written straight into a
weight buffer, the N x N weight matrix filled from that buffer, then the
force reduction: one matrix product of the matrix with the velocities,
less each row's weight sum times the row's velocity, scaled by 2/N in
place.  The matrix is filled one of two ways, chosen by the pair list
alone:

* when the list holds every pair of the N rows (all singletons, as in a
  run's first segment unless some rows start coincident), one gather
  reads it from the P weights and a trailing zero through a fixed
  ``(N, N)`` index of pair numbers whose diagonal names the zero;
* on a clustered partition the weights are scattered into a zeroed,
  flattened N x N buffer through the linear indices ``i*N + j`` and
  ``j*N + i``, and every entry off the list stays zero.

The gather writes N^2 entries where the scatter writes 2P.  With every
pair listed 2P = N^2 - N, and the gather writes in row order where the
scatter's lower-triangle write strides down the columns: a whole call at
N = 128, d = 2 takes about 20% less time.  On merge_2c's clusters of 1
and N - 1 (P = N - 1) a gather took 20-30% longer per call at N = 56 and
64, so clustered partitions keep the scatter.  Either way the matrix
holds the same floats.  :func:`pair_slots` builds the buffers, the index
or the scatter indices, and 2/N once for a fixed pair list (that of the
solver's driver for one partition), so a call writes only the P
separations and weights.

A cluster is named by its smallest member, its root.  A cluster's rows
coincide bitwise, so the pairs across two clusters share one gap, and the
solver's event watch follows only :meth:`ClusterPartition.root_pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, SingularEvaluationError
from .kernels import SingularKernel, WeightKernel, _check_kernel

__all__ = [
    "ClusterPartition",
    "ParticleSystem",
    "make_system",
    "acceleration_arrays",
    "merge_clusters",
]


class ClusterPartition:
    """Cluster label per particle index: its cluster's smallest index, the root.

    Merging is monotone: clusters only ever grow, and a union relabels the
    clusters with the larger roots.  ``inter_pairs`` are the pairs the force
    acts on; ``root_pairs`` holds one of them per pair of clusters.
    """

    def __init__(self, n: int):
        if n < 1:
            raise DomainError(f"partition size must be >= 1, got {n}")
        self.n = n
        self._labels = np.arange(n, dtype=np.intp)

    def union(self, *members: int) -> bool:
        """Join the clusters of ``members`` into the one with the smallest
        root; returns True if the members were in more than one cluster."""
        roots = np.unique(self._labels[list(members)])
        if roots.size < 2:
            return False
        self._labels[np.isin(self._labels, roots)] = roots[0]
        return True

    def labels(self) -> np.ndarray:
        return self._labels.copy()

    def inter_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays ``(i, j)``, ``i < j``, of the pairs in distinct
        clusters, in ``np.triu_indices`` order."""
        iu, ju = np.triu_indices(self.n, k=1)
        inter = self._labels[iu] != self._labels[ju]
        return iu[inter], ju[inter]

    def root_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs of cluster roots in ``np.triu_indices`` order: the first
        :meth:`inter_pairs` entry of each pair of clusters."""
        roots = np.flatnonzero(self._labels == np.arange(self.n))
        iu, ju = np.triu_indices(roots.size, k=1)
        return roots[iu], roots[ju]

    @property
    def n_clusters(self) -> int:
        return int(np.count_nonzero(self._labels == np.arange(self.n)))

    def copy(self) -> "ClusterPartition":
        out = ClusterPartition(self.n)
        out._labels = self._labels.copy()
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

    def copy(self) -> "ParticleSystem":
        return ParticleSystem(self.x.copy(), self.v.copy(), self.kernel, self.partition.copy())


def make_system(x, v, kernel: WeightKernel) -> ParticleSystem:
    """Build a validated system, grouping exactly coincident particles.

    Particles whose positions and velocities are equal (0.0 equals -0.0)
    start in one cluster; everyone else starts as a singleton.
    """
    x = np.ascontiguousarray(x, dtype=float)
    v = np.ascontiguousarray(v, dtype=float)
    if x.ndim != 2 or v.shape != x.shape:
        raise DomainError(f"x and v must be matching (N, d) arrays, got {x.shape} and {v.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise DomainError(f"need at least one particle and one dimension, got shape {x.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise DomainError("initial data must be finite")
    _check_kernel(kernel)

    part = ClusterPartition(x.shape[0])
    # adding 0.0 turns -0.0 into 0.0, after which finite rows are ==
    # exactly when their bytes are
    first, inverse = _equal_rows(np.hstack([x, v]) + 0.0)
    part._labels = first[inverse]
    return ParticleSystem(x, v, kernel, part)


def _equal_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of a C-contiguous 2-D array by their bytes.

    Returns ``(first, inverse)``: ``first[c]`` is the smallest index of
    class ``c`` and ``inverse[i]`` is row ``i``'s class, so ``first[inverse]``
    labels each row with the first row whose bytes equal its own.  One
    stable sort of the rows keyed by their bytes does it."""
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def pair_slots(pairs, n: int) -> tuple:
    """Buffers for :func:`acceleration_arrays` on a fixed pair list, built
    once: ``(dist, weights, index, w, w_nn, ij, ji, coupling)``.

    ``dist`` and ``weights`` take the P separations and the P kernel
    weights, and ``coupling`` is ``2/n``.  The other entries fill the
    symmetric ``(n, n)`` weight matrix, zero off the pairs, one of two
    ways, chosen by the pair list alone:

    * every pair of the n rows (P = n(n-1)/2): ``w`` is a ``(P+1,)`` buffer
      whose first P entries are ``weights`` and whose last stays zero, and
      ``index`` is an ``(n, n)`` intp array holding each entry's pair
      number and P on the diagonal, so ``w[index]`` is the matrix;
      ``w_nn``, ``ij`` and ``ji`` are None;
    * any other list (a clustered partition): ``w`` is a zeroed ``(n*n,)``
      buffer with its ``(n, n)`` view ``w_nn``, ``ij`` and ``ji`` are the
      linear indices ``i*n + j`` and ``j*n + i`` the weights are scattered
      to, so every entry off the list stays zero; ``index`` is None.

    The gather writes n^2 entries and the scatter 2P, so the gather pays
    only when every pair is listed (the module docstring has the times)."""
    pi, pj = pairs
    p = pi.size
    dist, coupling = np.empty(p), 2.0 / n
    if p == n * (n - 1) // 2:
        index = np.full((n, n), p, dtype=np.intp)
        index[pi, pj] = index[pj, pi] = np.arange(p)
        w = np.zeros(p + 1)
        return dist, w[:p], index, w, None, None, None, coupling
    w = np.zeros(n * n)
    return dist, np.empty(p), None, w, w.reshape(n, n), pi * n + pj, pj * n + pi, coupling


def pair_norms(z: np.ndarray, pairs, out=None) -> np.ndarray:
    """Norms ``|z[..., j, :] - z[..., i, :]|``, shape ``(..., P)``, over ``pairs``
    of rows ``z`` shaped ``(..., N, d)``; written into ``out`` when given.

    The squared differences are summed in one written-out order, the even
    axes first, then the odd axes: ``(s0 + s2 + ...) + (s1 + s3 + ...)``.
    For d <= 7 that is the order of numpy's ``einsum("pd,pd->p")`` (its
    two-lane loop), so these norms equal its bytes; for larger d einsum
    unrolls further and can differ in the last bit.  The sums run
    elementwise, so an entry rounds the same whatever the leading shape is
    and whichever pairs are listed beside it."""
    pi, pj = pairs
    sq = z.take(pj, axis=-2)
    sq -= z.take(pi, axis=-2)
    sq *= sq
    d = z.shape[-1]
    if d == 1:
        return np.sqrt(sq[..., 0], out=out)
    total = reduce(np.add, (sq[..., k] for k in range(0, d, 2)))
    total = total + reduce(np.add, (sq[..., k] for k in range(1, d, 2)))
    return np.sqrt(total, out=out)


def acceleration_arrays(
    x: np.ndarray, v: np.ndarray, pairs, kernel: WeightKernel, slots, out=None
) -> np.ndarray:
    """Alignment acceleration, one row per particle, from the weights on
    ``pairs`` (index arrays from :meth:`ClusterPartition.inter_pairs`) and
    their :func:`pair_slots` ``slots``; written into ``out`` (an ``(n, d)``
    array) when given, else into a new array.

    The kernel writes the P weights straight into the slots' weight
    buffer, and the symmetric ``(n, n)`` weight matrix, zero off the pairs,
    is filled from it: one gather ``w[index]`` when the list holds every
    pair of the n rows, else a scatter into the zeroed ``(n*n,)`` buffer
    (the module docstring says why both).  The call leaves the separations
    and the weights in their buffers; the next call on the same slots
    overwrites both.
    Raises :class:`SingularEvaluationError` if the singular kernel meets a
    zero separation on one of the pairs.

    Rows of stuck particles are identical, and the column means vanish up
    to roundoff, so the mean velocity is a conserved quantity of the flow.
    """
    dist, weights, index, w, w_nn, ij, ji, coupling = slots
    pair_norms(x, pairs, out=dist)
    if isinstance(kernel, SingularKernel) and (dist == 0.0).any():
        raise SingularEvaluationError(
            "zero separation between distinct clusters under the singular weight"
        )
    kernel.weight(dist, out=weights)
    if index is None:
        w[ij] = w[ji] = weights
    else:
        w_nn = w[index]
    # a_i = (2/N) * (sum_k w_ik v_k - (sum_k w_ik) v_i); the reduction is a
    # fixed deterministic matrix product, so repeat runs agree bitwise.
    # The 2/N coupling makes the two-particle system reduce exactly to the
    # separation equation d2(phi)/dt2 = -2 psi(|phi|) d(phi)/dt that the
    # twobody module solves in closed form.
    a = np.matmul(w_nn, v, out=out)
    a -= np.add.reduce(w_nn, axis=1, keepdims=True) * v
    a *= coupling
    return a


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
    out.partition.union(*idx)
    return out
