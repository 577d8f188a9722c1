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
  Taylor series of log tr exp, organized over ordered set partitions.  It is
  exact for every cluster size and every kept region.
* ``fd``: central finite differences on the 2^m sign stencil with one
  Richardson extrapolation step, used as a black-box check.

An independent exact reference that shares no combinatorics with
``beta-taylor`` lives next to the suite that uses it, in
:func:`gibbsmarkov.verify.exact_derivative`.
"""

from __future__ import annotations

import math
import warnings
from itertools import permutations

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


def _ordered_set_partitions(items):
    """Yield ordered partitions (tuples of disjoint nonempty blocks) of items."""
    items = tuple(items)
    if not items:
        yield ()
        return
    n = len(items)
    first = items[0]
    rest = items[1:]
    # Choose the block containing the first item, then recurse and interleave.
    for mask in range(1 << (n - 1)):
        block = [first] + [rest[i] for i in range(n - 1) if mask >> i & 1]
        remaining = [rest[i] for i in range(n - 1) if not mask >> i & 1]
        for tail in _ordered_set_partitions(remaining):
            for pos in range(len(tail) + 1):
                yield tail[:pos] + (tuple(block),) + tail[pos:]


def _moment(ops, subset, traced_axes, d, cache):
    """Average over orderings of the partial trace of the operator product.

    W_S = (1/|S|!) * sum over orderings sigma of S of
          tr_traced( h_{sigma_1} ... h_{sigma_|S|} ) / d_traced
    as a matrix on the kept sites.
    """
    key = subset
    hit = cache.get(key)
    if hit is not None:
        return hit
    n_sites = ops[0].matrix.shape[0]
    acc = None
    for order in permutations(subset):
        prod = ops[order[0]].matrix
        for j in order[1:]:
            prod = prod @ ops[j].matrix
        acc = prod if acc is None else acc + prod
    acc /= math.factorial(len(subset))
    traced_dim = d ** len(traced_axes)
    full = SupportedOperator(ops[0].support, acc, local_dim=d)
    keep = tuple(v for i, v in enumerate(full.support) if i not in traced_axes)
    if keep:
        reduced = partial_trace(full, keep).matrix / traced_dim
    else:
        reduced = np.array([[np.trace(acc) / traced_dim]])
    cache[key] = reduced
    return reduced


def dw_beta_taylor(ham: Hamiltonian, cluster: Cluster, kept_region) -> np.ndarray:
    """Exact mixed derivative via the Taylor series of log tr exp.

    Expanding exp(-beta sum a_j h_j) and composing with log(1 + x), the
    multilinear coefficient in a_1..a_m collects over ordered set partitions
    (S_1, ..., S_q) of {1..m}:

        D_w G = sum_partitions  ((-1)^(q-1) / q) *
                product_i [ (-beta)^{|S_i|} * W_{S_i} ]

    where W_S averages the partial trace of the operator product over the
    orderings of S (the 1/|S|! is folded into W_S).
    """
    beta = ham.beta
    d = ham.local_dim
    kept, traced, ops = _cluster_pieces(ham, cluster, kept_region)
    traced_axes = tuple(
        i for i, v in enumerate(cluster.support) if v not in set(kept)
    )
    m = cluster.size
    cache: dict = {}
    dim = d ** len(kept) if kept else 1
    total = np.zeros((dim, dim), dtype=complex)
    for part in _ordered_set_partitions(range(m)):
        q = len(part)
        piece = np.eye(dim, dtype=complex)
        for block in part:
            w = _moment(ops, tuple(sorted(block)), traced_axes, d, cache)
            piece = piece @ ((-beta) ** len(block) * w)
        total += ((-1.0) ** (q - 1) / q) * piece
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
    """
    kept, traced, ops = _cluster_pieces(ham, cluster, kept_region)
    m = cluster.size

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
