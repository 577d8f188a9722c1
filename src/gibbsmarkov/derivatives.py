"""Multilinear cluster derivatives of logarithms of reduced Gibbs weights.

Attach an independent strength parameter a_j to every element of a cluster w
(repeated term indices get separate parameters) and consider

    G(a) = log tr_out( exp(-beta * sum_j a_j h_j) )

where the trace is over the cluster sites outside the kept region and the
logarithm is the matrix logarithm on the kept sites (a plain scalar log when
nothing is kept).  The quantity computed here is the mixed first derivative

    D_w G = d^m G / (da_1 ... da_m) evaluated at a = 0.

Everything is restricted to the union of the supports: sites outside V_w
contribute additive constants to G that vanish under any first derivative.

:func:`cluster_derivative` computes it exactly, for every cluster size and
every kept region, by extracting the multilinear coefficient from the Taylor
series of log tr exp with two recurrences over subsets of the cluster
elements: one for the symmetrized operator products of each subset and one
for the ordered block products that log(I + X) sums.  An independent exact
reference that shares no combinatorics with it lives next to the suite that
uses it, in :func:`gibbsmarkov.verify.exact_derivative`.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import SupportedOperator, embed, partial_trace, scalar_operator
from .spin_model import Hamiltonian
from .clusters import Cluster, overlap_counts


def _cluster_pieces(ham: Hamiltonian, cluster: Cluster, kept_region):
    """Split V_w into kept and traced sites and embed each element's term."""
    kept_set = set(kept_region)
    support = cluster.support
    kept = tuple(v for v in support if v in kept_set)
    traced = tuple(v for v in support if v not in kept_set)
    ops = [
        embed(ham.terms[i].as_operator(ham.local_dim), support)
        for i in cluster.term_indices
    ]
    return kept, traced, ops


def cluster_derivative(ham: Hamiltonian, cluster: Cluster, kept_region) -> np.ndarray:
    """Mixed first derivative D_w G restricted to the kept sites in V_w,
    exact via the Taylor series of log tr exp.

    Returns a matrix on kept_region intersect V_w (1x1 when that is empty).

    Index subsets of the m cluster elements by bitmasks.  The multilinear
    coefficient of prod_{j in S} a_j in tr_traced exp(-beta sum a_j h_j) / d_traced
    is W_S = (-beta)^{|S|} / |S|! * tr_traced P(S) / d_traced, where P(S) is
    the sum of the products of the h_j, j in S, over all orderings of S:

        P(empty) = I,   P(S) = sum_{j in S} P(S - j) h_j,

    built one popcount level at a time from the level below.  Composing with
    log(I + X) = sum_q (-1)^(q-1) X^q / q, the coefficient of X^q is the sum
    over ordered partitions of S into q blocks, first block on the left:

        F_0(empty) = I,   F_q(S) = sum_{nonempty B subset S} W_B F_{q-1}(S - B),

    and D_w G = sum_q (-1)^(q-1) / q * F_q(all).  The products cost
    O(m 2^m) operator multiplications on V_w, the F_q O(m 3^m) on the kept
    sites.
    """
    d, m = ham.local_dim, cluster.size
    kept, traced, ops = _cluster_pieces(ham, cluster, kept_region)
    full = (1 << m) - 1
    weights = [None] * (full + 1)
    level = {0: np.eye(ops[0].matrix.shape[0], dtype=complex)}
    for size in range(1, m + 1):
        level = {
            s: sum(level[s ^ 1 << j] @ ops[j].matrix for j in range(m) if s >> j & 1)
            for s in range(1, full + 1)
            if s.bit_count() == size
        }
        coeff = (-ham.beta) ** size / math.factorial(size) / d ** len(traced)
        for s, prod in level.items():
            if kept:
                prod = partial_trace(
                    SupportedOperator(cluster.support, prod, local_dim=d), kept
                ).matrix
            else:
                prod = np.array([[np.trace(prod)]])
            weights[s] = coeff * prod

    dim = d ** len(kept)
    f = [np.eye(dim, dtype=complex)] + [None] * full
    total = np.zeros((dim, dim), dtype=complex)
    for q in range(1, m + 1):
        nxt = [None] * (full + 1)
        for s in range(1, full + 1):
            b = s
            while b:
                if f[s ^ b] is not None:
                    term = weights[b] @ f[s ^ b]
                    nxt[s] = term if nxt[s] is None else nxt[s] + term
                b = (b - 1) & s
        f = nxt
        total += ((-1.0) ** (q - 1) / q) * f[full]
    return total


# ---------------------------------------------------------------------------
# wrapped derivatives and norm bounds


def derivative_operator(ham: Hamiltonian, cluster: Cluster, kept_region) -> SupportedOperator:
    """Same as :func:`cluster_derivative` but wrapped with its support."""
    kept = tuple(v for v in cluster.support if v in set(kept_region))
    mat = cluster_derivative(ham, cluster, kept_region)
    if not kept:
        return scalar_operator(complex(mat[0, 0]), (), local_dim=ham.local_dim)
    return SupportedOperator(kept, mat, local_dim=ham.local_dim)


def derivative_norm_bound(ham: Hamiltonian, cluster: Cluster) -> float:
    """Certified ceiling on ||D_w G||: half the product over elements of
    4 * beta * N_s * ||h_s||, with N_s the number of other elements whose
    support overlaps element s."""
    counts = overlap_counts(ham, cluster)
    prod = 1.0
    for idx, n_s in zip(cluster.term_indices, counts):
        prod *= 4.0 * ham.beta * max(n_s, 1) * ham.terms[idx].norm
    return 0.5 * prod


def cmi_derivative_norm_bound(ham: Hamiltonian, cluster: Cluster) -> float:
    """Ceiling on the four-region log combination: 2 * (4 beta)^m * prod N_s ||h_s||."""
    counts = overlap_counts(ham, cluster)
    prod = 1.0
    for idx, n_s in zip(cluster.term_indices, counts):
        prod *= max(n_s, 1) * ham.terms[idx].norm
    return 2.0 * (4.0 * ham.beta) ** cluster.size * prod


def cmi_cluster_term(
    ham: Hamiltonian,
    cluster: Cluster,
    a_region,
    b_region,
    c_region,
) -> SupportedOperator:
    """Four-region combination of cluster derivatives,

        D_w[ G_AB + G_BC - G_ABC - G_B ],

    each piece kept on the respective region, embedded on
    (A u B u C) intersect V_w and summed with signs."""
    regions = {
        "ab": tuple(a_region) + tuple(b_region),
        "bc": tuple(b_region) + tuple(c_region),
        "abc": tuple(a_region) + tuple(b_region) + tuple(c_region),
        "b": tuple(b_region),
    }
    signs = {"ab": 1.0, "bc": 1.0, "abc": -1.0, "b": -1.0}
    target = tuple(
        v for v in cluster.support if v in set(regions["abc"])
    )
    if not target:
        raise ValueError("cluster does not intersect A u B u C")
    dim = ham.local_dim ** len(target)
    acc = np.zeros((dim, dim), dtype=complex)
    for key, region in regions.items():
        op = derivative_operator(ham, cluster, region)
        if op.support:
            acc += signs[key] * embed(op, target).matrix
        else:
            acc += signs[key] * complex(op.matrix[0, 0]) * np.eye(dim)
    return SupportedOperator(target, acc, local_dim=ham.local_dim)
