"""Assembly of the cluster expansion: effective Hamiltonians with truncation
certificates, log partition functions, reduced states, local observables and
entropies, and the truncated CMI operator.

The effective Hamiltonian of a region L is

    H_eff(L) = -beta^-1 log tr_{L^c} e^{-beta H}
             = H_L  +  sum_m sum_w n_w * h_w  -  beta^-1 log Z_{L^c}

where H_L collects the bare terms supported inside L, the boundary sum runs
over clusters connected to L that touch its complement, and
h_w = (-beta^-1/m!) * D_w applied to the kept-on-L cluster derivative.
Truncating the boundary sum at order m0 leaves an operator-norm error bounded
by an explicit geometric series — the truncation certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operators import (
    SupportedOperator,
    add_embedded,
    embed,
    expm_hermitian,
    operator_norms,
    sum_embedded,
)
from .spin_model import FiniteRange, Hamiltonian, ModelError, check_integer
from .clusters import _site_sets, enumerate_connected_to_region, enumerate_linking
from .derivatives import MomentTable, cluster_derivative, cmi_cluster_term
from .bounds import critical_beta, surface_region
from . import ed


@dataclass(frozen=True)
class ExpansionResult:
    """Truncated effective Hamiltonian of a region, with provenance."""

    region: tuple[int, ...]
    order: int
    bare_terms: tuple[SupportedOperator, ...]
    boundary_terms: dict  # m -> list of (Cluster, SupportedOperator h_w)
    truncation_error: float
    certificate_valid: bool
    ham: Hamiltonian
    ed_limit: int

    @cached_property
    def _scalar_channel(self) -> tuple[float, str]:
        """(-beta^-1 log Z_{L^c}, provenance), computed on first read."""
        ham = self.ham
        comp = _complement(ham, self.region)
        if not comp:
            return 0.0, "exact-empty"
        if len(comp) <= self.ed_limit:
            return -_complement_log_z_ed(ham, comp, self.ed_limit) / ham.beta, "ed"
        return -_scalar_series(ham, comp, self.order) / ham.beta, "series"

    @property
    def scalar_part(self) -> float:
        """-beta^-1 log Z_{L^c}."""
        return self._scalar_channel[0]

    @property
    def scalar_provenance(self) -> str:
        """Where the scalar came from: "ed", "series" or "exact-empty"."""
        return self._scalar_channel[1]

    def boundary_operator(self) -> SupportedOperator:
        """Sum of the multiplicity-weighted boundary terms on the region."""
        mat = sum_embedded(
            (
                (cluster.multiplicity, op)
                for m, entries in sorted(self.boundary_terms.items())
                for cluster, op in entries
            ),
            self.region,
            self.ham.local_dim,
        )
        return SupportedOperator(self.region, mat, local_dim=self.ham.local_dim)

    def _bare_plus_boundary(self) -> SupportedOperator:
        """H_eff(L) without its scalar channel, which normalizing cancels."""
        # the bare terms are summed on their own first, so every entry gets
        # the additions, in the order, of summing their padded copies
        mat = sum_embedded(((1.0, t) for t in self.bare_terms), self.region, self.ham.local_dim)
        mat += self.boundary_operator().matrix
        return SupportedOperator(self.region, mat, local_dim=self.ham.local_dim)

    def effective_operator(self) -> SupportedOperator:
        """Bare terms plus boundary terms plus scalar, on the region."""
        op = self._bare_plus_boundary()
        mat = op.matrix + self.scalar_part * np.eye(op.dim)
        return SupportedOperator(self.region, mat, local_dim=op.local_dim)

    def per_order_norms(self) -> dict:
        """m -> the sum over the order-m boundary clusters of n_w ||h_w||."""
        return {
            m: _norm_sum((cluster.multiplicity, op.matrix) for cluster, op in entries)
            for m, entries in sorted(self.boundary_terms.items())
        }


def truncation_certificate(ham: Hamiltonian, region, order: int) -> tuple[float, bool]:
    """Operator-norm ceiling on the boundary terms dropped beyond the given
    order: (e/(4 beta)) * x^(order+1)/(1-x) * |surface(L, r)| with
    x = beta/beta_c.  Rigorous only below the threshold temperature."""
    order = check_integer(order, "order", 0)
    beta_c = critical_beta(ham.k)
    x = ham.beta / beta_c
    surf = len(surface_region(ham.graph, region, ham.range_r))
    if x < 1.0:
        value = (math.e / (4.0 * ham.beta)) * x ** (order + 1) / (1.0 - x) * surf
        return value, True
    return math.inf, False


def _complement(ham: Hamiltonian, region) -> tuple[int, ...]:
    rset = set(region)
    return tuple(v for v in range(ham.graph.vertex_count) if v not in rset)


def _scalar_series(ham: Hamiltonian, region, order: int) -> float:
    """log tr e^{-beta H_region} via the cluster series on the region, a
    sequence of distinct vertex ids."""
    per_order = _scalar_terms(ham, region, order)
    return len(region) * math.log(ham.local_dim) + float(per_order.sum())


# The bytes of one stack of H_V in _scalar_terms.  On the 6x6 grid at
# order 5, stacks of 256 KB to 1 MB took the same time, and 4 MB stacks
# raised the peak RSS from 40 to 55 MB.
_STACK_BYTES = 1 << 18

# The bytes of the matrices of one size whose norms _norm_sum takes in one
# call; the stacks of operator_norms and their temporaries hold about four
# times that.  The 112 KB of order-5 CMI pieces of a 4-site chain, in one
# call, raised the peak RSS by 0.5 MB; in chunks of 64 KB by 0.1-0.3 MB, as
# one matrix at a time did.  A stacked 16x16 eigensolve costs 17 us a
# matrix in stacks of 8 and of 32 alike.
_NORM_CHUNK_BYTES = 1 << 16


def _norm_sum(weighted) -> float:
    """The sum of weight * ||matrix|| over the (weight, matrix) pairs of the
    iterable ``weighted``, in its order.  The matrices wait, by shape, until
    one more would take those of their shape past _NORM_CHUNK_BYTES, and
    then go to :func:`operator_norms` together, so the pairs are never all
    held and each call eigensolves one size."""
    weights, norms = [], []
    waiting: dict = {}  # shape -> (positions in weights, matrices)

    def flush(shape):
        positions, matrices = waiting.pop(shape)
        for position, norm in zip(positions, operator_norms(matrices)):
            norms[position] = norm

    for weight, matrix in weighted:
        positions, matrices = waiting.setdefault(matrix.shape, ([], []))
        positions.append(len(weights))
        matrices.append(matrix)
        weights.append(weight)
        norms.append(0.0)
        if (len(matrices) + 1) * matrix.nbytes > _NORM_CHUNK_BYTES:
            flush(matrix.shape)
    for shape in list(waiting):
        flush(shape)
    total = 0.0
    for weight, norm in zip(weights, norms):
        total += weight * norm
    return total


def _scalar_terms(ham: Hamiltonian, region, order: int) -> np.ndarray:
    """The order-m terms of log tr e^{-beta H_region} / d^|region|, m = 1..order.

    A cluster whose supports fall apart contributes zero, so the sum over
    clusters regroups by V_w (the linked-cluster construction): with H_V
    the terms inside V, P(V) = log tr e^{-beta H_V} / d^|V| is the sum of
    W(T) over T <= V, W(T) the sum over the clusters with V_w = T.  W(T)
    starts at order c(T), so the sets of ``clusters._site_sets`` carry
    every term, and W(V) = P(V) - sum_{T < V} W(T), smaller sets first,
    with its orders below c(V) set to exactly 0.  P(V) is taken for sets of
    one size at a time, in stacks of at most _STACK_BYTES of H_V, each
    built in one buffer per size.
    """
    d = ham.local_dim
    sets = _site_sets(ham, region, order)
    terms = _support_stacks(ham, region)
    masks = sorted(sets, key=lambda v: (v.bit_count(), v))
    index = {v: row for row, v in enumerate(masks)}
    # W_1..W_order(V) in row index[V]; the last row stays 0
    weights = np.zeros((len(masks) + 1, order))
    start = 0
    for size, group in itertools.groupby(masks, key=int.bit_count):
        group = list(group)
        step = max(1, _STACK_BYTES // (16 * d ** (2 * size)))
        buffer = np.empty((min(step, len(group)),) + (d ** size,) * 2, dtype=complex)
        for first in range(0, len(group), step):
            chunk = group[first:first + step]
            w = weights[start:start + len(chunk)]
            start += len(chunk)
            stack = _stacked_hamiltonians(ham, chunk, sets, terms, buffer[:len(chunk)])
            w[:] = _log_trace_series(stack, ham.beta, order)
            # each row's block of subsets starts with the zero row, so none is empty
            blocks, subsets = [], []
            for mask in chunk:
                blocks.append(len(subsets))
                subsets.append(-1)
                sub = (mask - 1) & mask
                while sub:
                    if sub in index:
                        subsets.append(index[sub])
                    sub = (sub - 1) & mask
            w -= np.add.reduceat(weights[subsets], blocks)
            levels = np.array([sets[v][0] for v in chunk])
            w[np.arange(1, order + 1) < levels[:, None]] = 0.0
    return weights.sum(axis=0)


def _support_stacks(ham: Hamiltonian, region) -> tuple[dict, dict]:
    """The terms inside the vertex set ``region`` summed per support
    (:func:`ed._support_sums`), stacked by support size: (term index -> the
    row of its support in the stack of its size and, per site of the
    support, the mask of the sites below it; size -> that
    (count, d^size, d^size) stack)."""
    rows: dict = {}
    stacks: dict = {}
    for support, matrix in ed._support_sums(ham, region).items():
        group = stacks.setdefault(len(support), [])
        rows[support] = len(group), tuple((1 << v) - 1 for v in support)
        group.append(matrix)
    slots = {i: rows[t.support] for i, t in enumerate(ham.terms) if t.support in rows}
    return slots, {size: np.array(group) for size, group in stacks.items()}


def _stacked_hamiltonians(ham: Hamiltonian, masks, sets, terms, out: np.ndarray) -> np.ndarray:
    """H_V for each set V of ``masks``, all of one size, from the terms
    inside it, ``sets[V][1]``, written into the (len(masks), d^n, d^n)
    array ``out``, which is returned; ``terms`` is
    :func:`_support_stacks` of a region that holds every V.

    The supports sit at the same positions in many sets: a support's
    position inside V is the number of V's sites below it, a popcount of
    the mask.  Each positions pattern is one stacked :func:`add_embedded` of
    a stack that is zero for the sets without that pattern, and is filled
    with one fancy-index assignment from the support stacks: each support
    once, its terms summed as in :func:`ed.hamiltonian_matrix`.  The
    patterns are added in sorted order, so each H_V is bitwise that
    function's, and the same in any stack.  ``out`` may be one buffer
    reused for every stack of a size."""
    d, (slots, stacks) = ham.local_dim, terms
    patterns: dict = {}  # positions inside V -> (rows of out, rows of the support stack)
    for row, mask in enumerate(masks):
        for i in sets[mask][1]:
            pick, below = slots[i]
            key = tuple([(mask & b).bit_count() for b in below])
            entry = patterns.get(key)
            if entry is None:
                entry = patterns[key] = ([], [])
            elif entry[0][-1] == row:
                continue  # another term on this support, already in its sum
            entry[0].append(row)
            entry[1].append(pick)
    n_sites = masks[0].bit_count()
    out.fill(0)
    for positions in sorted(patterns):
        rows, picks = patterns[positions]
        support_stack = stacks[len(positions)]
        local = np.zeros((len(masks),) + support_stack.shape[1:], dtype=complex)
        local[rows] = support_stack[picks]
        add_embedded(out, local, positions, n_sites, d)
    return out


def _log_trace_series(h: np.ndarray, beta: float, order: int) -> np.ndarray:
    """The t^1..t^order coefficients of log tr e^{-beta t h} / dim, one row
    for each Hermitian h of the (n, dim, dim) stack ``h``: -beta mu t, mu
    the mean of h, plus the t-series of
    log(1 + sum_q (-beta)^q tr(C^q) / (dim q!) t^q) with C = h - mu.
    ``h`` is centered in place."""
    n, dim = h.shape[:2]
    diagonal = np.einsum("nii->ni", h)  # a writable view
    mean = diagonal.real.sum(axis=1) / dim
    diagonal -= mean[:, None]
    powers = [None, h]  # C^1 .. C^ceil(order/2)
    for _ in range(2, (order + 3) // 2):
        powers.append(powers[-1] @ h)
    # tr(XY) of Hermitian X, Y is the real dot product of their entries
    flat = [None] + [p.view(float).reshape(n, -1) for p in powers[1:]]
    a = np.zeros((n, order + 1))
    for q in range(2, order + 1):
        trace = (flat[q // 2][:, None, :] @ flat[(q + 1) // 2][:, :, None]).reshape(n)
        a[:, q] = (-beta) ** q / math.factorial(q) * trace / dim
    # log(1 + A) = sum_k l_k t^k: k l_k = k a_k - sum_{0<j<k} j l_j a_{k-j},
    # where a_1 = l_1 = 0 for the centered h
    out = np.zeros((n, order + 1))
    for k in range(2, order + 1):
        out[:, k] = a[:, k] - sum(j * out[:, j] * a[:, k - j] for j in range(2, k - 1)) / k
    out[:, 1] = -beta * mean
    return out[:, 1:]


def effective_hamiltonian(
    ham: Hamiltonian,
    region,
    order: int,
    ed_limit: int = ed.DEFAULT_ED_LIMIT,
) -> ExpansionResult:
    """Truncated effective Hamiltonian of the region.

    The scalar channel -beta^-1 log Z_{L^c} is computed on first read, once
    per result: by dense diagonalization when |L^c| <= ed_limit, otherwise
    from its own cluster series at the same order; the choice is recorded.
    Normalized results (reduced states, observables, entropies) cancel it
    and never compute it.
    """
    order = check_integer(order, "order", 0)
    ed_limit = check_integer(ed_limit, "ed_limit")
    if not isinstance(ham.interaction_class, FiniteRange):
        raise ModelError("effective-Hamiltonian assembly requires a finite-range model")
    (region,) = ham.graph.check_regions(region)
    rset = set(region)

    bare = tuple(t.as_operator(ham.local_dim) for t in ham.terms if set(t.support) <= rset)

    boundary: dict = {}
    moments = MomentTable(ham)
    for m in range(1, order + 1):
        entries = []
        for cluster in enumerate_connected_to_region(ham, region, m):
            if rset.issuperset(cluster.support):
                continue  # interior clusters are exactly the bare terms
            dmat = cluster_derivative(ham, cluster, region, moments=moments)
            # every cluster meets L, so it keeps at least one site
            kept = tuple(v for v in cluster.support if v in rset)
            coeff = -1.0 / (ham.beta * math.factorial(m))
            op = SupportedOperator(kept, coeff * dmat, local_dim=ham.local_dim)
            entries.append((cluster, op))
        boundary[m] = entries

    err, valid = truncation_certificate(ham, region, order)
    return ExpansionResult(
        region=region,
        order=order,
        bare_terms=bare,
        boundary_terms=boundary,
        truncation_error=err,
        certificate_valid=valid,
        ham=ham,
        ed_limit=ed_limit,
    )


def _complement_log_z_ed(ham: Hamiltonian, comp, limit: int) -> float:
    """log tr e^{-beta H_comp}, H_comp the terms inside the sorted vertex
    tuple comp: the log Z of :func:`ed.exact_gibbs` on those sites, at most
    ``limit`` of them."""
    return ed.exact_gibbs(ham, limit, comp).log_z


def log_z_certificate(ham: Hamiltonian, order: int) -> tuple[float, bool]:
    """Ceiling on |log Z - truncated series|: the geometric tail
    (e/4) * x^(order+1)/(1-x) summed over all vertices."""
    order = check_integer(order, "order", 0)
    beta_c = critical_beta(ham.k)
    x = ham.beta / beta_c
    n = ham.graph.vertex_count
    if x < 1.0:
        return (math.e / 4.0) * x ** (order + 1) / (1.0 - x) * n, True
    return math.inf, False


def log_partition_function(ham: Hamiltonian, order: int) -> tuple[float, float, bool]:
    """Cluster series for log Z truncated at the given order.

    Returns (value, certificate, certificate_valid).
    """
    order = check_integer(order, "order", 0)
    n = ham.graph.vertex_count
    value = _scalar_series(ham, range(n), order)
    cert, valid = log_z_certificate(ham, order)
    return value, cert, valid


def reduced_state(
    ham: Hamiltonian, region, order: int
) -> tuple[SupportedOperator, ExpansionResult]:
    """Normalized e^{-beta H_eff(L)} from the truncated expansion."""
    result = effective_hamiltonian(ham, region, order)
    state = expm_hermitian(result._bare_plus_boundary(), scale=-ham.beta)
    mat = state.matrix / np.trace(state.matrix)
    return SupportedOperator(result.region, mat, local_dim=ham.local_dim), result


def trace_distance_certificate(ham: Hamiltonian, region, order: int) -> tuple[float, bool]:
    """Trace-norm error guarantee for the truncated reduced state.

    Conversion (implementation addition, not from the expansion itself): a
    perturbation of norm delta on the effective Hamiltonian shifts the
    normalized Gibbs state by at most e^(2 beta delta) - 1 in trace norm.
    """
    delta, valid = truncation_certificate(ham, region, order)
    if not math.isfinite(delta):
        return math.inf, False
    return math.expm1(2.0 * ham.beta * delta), valid


def local_observable(
    ham: Hamiltonian,
    obs: SupportedOperator,
    order: int,
    pad: int = 0,
) -> tuple[float, float, bool]:
    """tr(reduced_state * obs) on the observable's support, optionally grown
    by ``pad`` graph hops for better accuracy.

    Returns (value, error_certificate, certificate_valid); the certificate is
    ||obs|| times the trace-distance guarantee of the reduced state.
    """
    pad = check_integer(pad, "pad", 0)
    (support,) = ham.graph.check_regions(obs.support)
    region = set(support)
    if pad > 0:
        region |= {
            v
            for v in range(ham.graph.vertex_count)
            if ham.graph.distance((v,), support) <= pad
        }
    region = tuple(sorted(region))
    state, _ = reduced_state(ham, region, order)
    value = float(np.trace(state.matrix @ embed(obs, region).matrix).real)
    td, valid = trace_distance_certificate(ham, region, order)
    return value, obs.norm() * td if math.isfinite(td) else math.inf, valid


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def entropy_certificate(ham: Hamiltonian, region, order: int) -> tuple[float, bool]:
    """Entropy-error guarantee via the Fannes-Audenaert continuity bound
    (implementation addition): with T half the trace-distance certificate,
    |S1 - S2| <= T log(dim - 1) + h2(T) whenever T <= 1 - 1/dim."""
    (region,) = ham.graph.check_regions(region)
    td, valid = trace_distance_certificate(ham, region, order)
    if not math.isfinite(td):
        return math.inf, False
    t = min(td / 2.0, 1.0)
    dim = ham.local_dim ** len(region)
    value = t * math.log(max(dim - 1, 1)) + _binary_entropy(t)
    return value, valid and t <= 1.0 - 1.0 / dim


def local_entropy(ham: Hamiltonian, region, order: int) -> tuple[float, float, bool]:
    """Von Neumann entropy of the truncated reduced state, with the
    Fannes-Audenaert error certificate."""
    state, _ = reduced_state(ham, region, order)
    value = ed.entropy(state)
    cert, valid = entropy_certificate(ham, region, order)
    return value, cert, valid


@dataclass(frozen=True)
class CmiExpansionResult:
    """Truncated CMI operator for a tripartition, with per-order norm data."""

    operator: SupportedOperator  # on (A u B u C) truncated at the order
    per_order_norm_sums: dict  # m -> sum over linking clusters of n_w/m! ||.||
    cmi_estimate: float | None  # tr(rho * operator) when an ED state is given

    @property
    def operator_norm(self) -> float:
        return self.operator.norm()


def cmi_expansion(
    ham: Hamiltonian,
    a_region,
    b_region,
    c_region,
    order: int,
    gibbs_state: "ed.ExactGibbs | None" = None,
) -> CmiExpansionResult:
    """Truncated expansion of the CMI operator

        H(A:C|B) = -(log w^AB + log w^BC - log w^ABC - log w^B)

    summed over linking clusters between A and C up to the given order.
    tr(rho H) equals the CMI when the full state rho is supplied; the
    operator norm always upper-bounds the full-series CMI contribution."""
    a, b, c = ham.graph.check_regions(a_region, b_region, c_region)
    order = check_integer(order, "order", 0)
    target = tuple(sorted(a + b + c))
    d = ham.local_dim
    acc = np.zeros((d ** len(target), d ** len(target)), dtype=complex)
    per_order: dict = {}
    moments = MomentTable(ham)

    def weighted_pieces(m: int):
        """(n_w/m!, the piece) of each linking cluster of order m, each
        added to acc as it is made."""
        for cluster in enumerate_linking(ham, a, c, m):
            piece = cmi_cluster_term(ham, cluster, a, b, c, moments=moments)
            weight = cluster.multiplicity / math.factorial(m)
            positions = [target.index(v) for v in piece.support]
            add_embedded(acc, piece.matrix, positions, len(target), d, -weight)
            yield weight, piece.matrix

    for m in range(1, order + 1):
        per_order[m] = _norm_sum(weighted_pieces(m))
    op = SupportedOperator(target, acc, local_dim=ham.local_dim)
    estimate = None
    if gibbs_state is not None:
        rho_abc = ed.reduced_density(gibbs_state, target)
        estimate = float(np.trace(rho_abc.matrix @ op.matrix).real)
    return CmiExpansionResult(operator=op, per_order_norm_sums=per_order, cmi_estimate=estimate)


def cmi_order_norm_bound(ham: Hamiltonian, a_region, c_region, m: int) -> float:
    """Closed-form ceiling on the order-m norm sum of the CMI expansion:
    e * min(|dA_r|, |dC_r|) * (beta/beta_c)^m."""
    m = check_integer(m, "cluster size", 1)
    a_region, c_region = ham.graph.check_regions(a_region, c_region)
    beta_c = critical_beta(ham.k)
    r = ham.range_r
    surf_a = len(surface_region(ham.graph, a_region, r))
    surf_c = len(surface_region(ham.graph, c_region, r))
    return math.e * min(surf_a, surf_c) * (ham.beta / beta_c) ** m
