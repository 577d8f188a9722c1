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

Two methods are provided:

* ``beta-taylor`` (default): exact multilinear coefficient extraction from the
  Taylor series of log tr exp by two recurrences over subsets of the cluster
  elements, one for the symmetrized operator products of each subset and one
  for the ordered block products that log(I + X) sums.  It is exact for every
  cluster size and every kept region.
* ``fd``: central finite differences on the 2^m sign stencil with one
  Richardson extrapolation step, used as a black-box check on clusters of at
  most ``FD_MAX_SIZE`` = 4 elements.

An independent exact reference that shares no combinatorics with
``beta-taylor`` lives next to the suite that uses it, in
:func:`gibbsmarkov.verify.exact_derivative`.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .operators import (
    SupportedOperator,
    embed,
    expm_hermitian,
    logm_posdef,
    partial_trace,
    scalar_operator,
)
from .spin_model import Hamiltonian
from .clusters import Cluster, overlap_counts

METHODS = ("beta-taylor", "fd")

DEFAULT_FD_STEP = 1e-3

# Largest cluster fd is trusted on: at the fixed step its relative error is
# below 1e-4 at m = 4, but of order one at m = 5 and far worse at m = 6.
FD_MAX_SIZE = 4


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


# ---------------------------------------------------------------------------
# beta-Taylor method


def dw_beta_taylor(ham: Hamiltonian, cluster: Cluster, kept_region) -> np.ndarray:
    """Exact mixed derivative via the Taylor series of log tr exp.

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
# finite-difference method


_SERIES_NORM_CUTOFF = 0.25
_SERIES_TERM_FLOOR = 1e-30


def _log_reduced_weight(ham, cluster, kept, traced, ops, coeffs):
    """G(a) - G(0) on the kept sites: log of the traced Gibbs weight of
    sum_j a_j h_j restricted to V_w, less the constant log(d^{traced sites}).

    The constant cancels from any difference stencil anyway, but carrying
    it destroys the low-order bits of the tiny remainder; dropping it keeps
    the full precision of the deviation from a = 0.

    Near a = 0 the weight is evaluated as identity-plus-series (exp minus
    one, then log near one), so the returned deviation is accurate relative
    to its own small magnitude rather than to the discarded constant.
    """
    d = ham.local_dim
    total = None
    for a_j, op in zip(coeffs, ops):
        piece = a_j * op.matrix
        total = piece if total is None else total + piece
    a_mat = -ham.beta * total
    dim = a_mat.shape[0]
    traced_dim = d ** len(traced)

    if np.linalg.norm(a_mat, 2) <= _SERIES_NORM_CUTOFF:
        # E = exp(A) - I, summed until the terms fall below the noise floor
        term = a_mat.copy()
        e_mat = a_mat.copy()
        k = 1
        while np.max(np.abs(term)) > _SERIES_TERM_FLOOR:
            k += 1
            term = term @ a_mat / k
            e_mat += term
        if kept:
            full = SupportedOperator(cluster.support, e_mat, local_dim=d)
            f_mat = partial_trace(full, kept).matrix / traced_dim
            # log(I + F) by the alternating series
            out = f_mat.copy()
            power = f_mat.copy()
            k = 1
            while np.max(np.abs(power)) > _SERIES_TERM_FLOOR:
                k += 1
                power = power @ f_mat
                out += ((-1.0) ** (k + 1) / k) * power
        else:
            out = np.array([[math.log1p(np.trace(e_mat).real / dim)]])
        return out

    weight = expm_hermitian(
        SupportedOperator(cluster.support, total, local_dim=d), scale=-ham.beta
    )
    if kept:
        reduced = partial_trace(weight, kept)
        out = logm_posdef(reduced).matrix
    else:
        out = np.array([[math.log(np.trace(weight.matrix).real)]])
    const = math.log(traced_dim) if kept else math.log(dim)
    return out - const * np.eye(out.shape[0])


def dw_finite_difference(
    ham: Hamiltonian,
    cluster: Cluster,
    kept_region,
    step: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """Central-difference mixed derivative on the 2^m sign stencil.

    D(h) = (2h)^-m * sum_{s in {-1,+1}^m} (prod s_j) G(s * h); one
    Richardson pass returns (4 D(h/2) - D(h)) / 3.  A warning is issued when
    the result sits near the cancellation floor of the stencil.

    Clusters of more than ``FD_MAX_SIZE`` = 4 elements raise ``ValueError``:
    beyond that the stencil's truncation and round-off errors swamp the result.
    """
    m = cluster.size
    if m > FD_MAX_SIZE:
        raise ValueError(
            f"fd is limited to clusters of at most {FD_MAX_SIZE} elements "
            f"(got m = {m}); use beta-taylor"
        )
    kept, traced, ops = _cluster_pieces(ham, cluster, kept_region)

    max_abs = 0.0

    def stencil(h):
        nonlocal max_abs
        acc = None
        for bits in range(1 << m):
            signs = [1.0 if bits >> j & 1 else -1.0 for j in range(m)]
            val = _log_reduced_weight(ham, cluster, kept, traced, ops, [s * h for s in signs])
            max_abs = max(max_abs, float(np.max(np.abs(val))))
            signed = math.prod(signs) * val
            acc = signed if acc is None else acc + signed
        return acc / (2.0 * h) ** m

    coarse = stencil(step)
    fine = stencil(step / 2.0)
    result = (4.0 * fine - coarse) / 3.0
    floor = 1e3 * np.finfo(float).eps * max_abs / step ** m
    if float(np.max(np.abs(result))) < floor:
        warnings.warn(
            "finite-difference result is below the cancellation floor "
            f"({floor:.2e}); treat it as numerically zero",
            RuntimeWarning,
        )
    return result


# ---------------------------------------------------------------------------
# dispatch and norm bounds


def cluster_derivative(
    ham: Hamiltonian,
    cluster: Cluster,
    kept_region,
    method: str = "beta-taylor",
) -> np.ndarray:
    """Mixed first derivative D_w G restricted to the kept sites in V_w.

    Returns a matrix on kept_region intersect V_w (1x1 when that is empty).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if method == "beta-taylor":
        return dw_beta_taylor(ham, cluster, kept_region)
    return dw_finite_difference(ham, cluster, kept_region)


def derivative_operator(
    ham: Hamiltonian, cluster: Cluster, kept_region, method: str = "beta-taylor"
) -> SupportedOperator:
    """Same as :func:`cluster_derivative` but wrapped with its support."""
    kept = tuple(v for v in cluster.support if v in set(kept_region))
    mat = cluster_derivative(ham, cluster, kept_region, method=method)
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
    method: str = "beta-taylor",
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
        op = derivative_operator(ham, cluster, region, method=method)
        if op.support:
            acc += signs[key] * embed(op, target).matrix
        else:
            acc += signs[key] * complex(op.matrix[0, 0]) * np.eye(dim)
    return SupportedOperator(target, acc, local_dim=ham.local_dim)
