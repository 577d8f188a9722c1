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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operators import SupportedOperator, embed, expm_hermitian
from .spin_model import FiniteRange, Hamiltonian, ModelError
from .clusters import (
    enumerate_connected,
    enumerate_connected_to_region,
    enumerate_linking,
)
from .derivatives import cluster_derivative, cmi_cluster_term
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
            return -_complement_log_z_ed(ham, comp) / ham.beta, "ed"
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
        dim = self.ham.local_dim ** len(self.region)
        acc = np.zeros((dim, dim), dtype=complex)
        for m, entries in sorted(self.boundary_terms.items()):
            for cluster, op in entries:
                if op.support:
                    acc += cluster.multiplicity * embed(op, self.region).matrix
                else:
                    acc += cluster.multiplicity * complex(op.matrix[0, 0]) * np.eye(dim)
        return SupportedOperator(self.region, acc, local_dim=self.ham.local_dim)

    def _bare_plus_boundary(self) -> SupportedOperator:
        """H_eff(L) without its scalar channel, which normalizing cancels."""
        op = self.boundary_operator()
        mat = op.matrix + sum(embed(t, self.region).matrix for t in self.bare_terms)
        return SupportedOperator(self.region, mat, local_dim=op.local_dim)

    def effective_operator(self) -> SupportedOperator:
        """Bare terms plus boundary terms plus scalar, on the region."""
        op = self._bare_plus_boundary()
        mat = op.matrix + self.scalar_part * np.eye(op.dim)
        return SupportedOperator(self.region, mat, local_dim=op.local_dim)

    def per_order_norms(self) -> dict:
        out = {}
        for m, entries in sorted(self.boundary_terms.items()):
            total = 0.0
            for cluster, op in entries:
                total += cluster.multiplicity * op.norm()
            out[m] = total
        return out


def truncation_certificate(ham: Hamiltonian, region, order: int) -> tuple[float, bool]:
    """Operator-norm ceiling on the boundary terms dropped beyond the given
    order: (e/(4 beta)) * x^(order+1)/(1-x) * |surface(L, r)| with
    x = beta/beta_c.  Rigorous only below the threshold temperature."""
    beta_c = critical_beta(ham.k)
    x = ham.beta / beta_c
    surf = len(surface_region(ham.graph, region, ham.range_r))
    if x < 1.0:
        value = (math.e / (4.0 * ham.beta)) * x ** (order + 1) / (1.0 - x) * surf
        return value, True
    return math.inf, False


def _complement(ham: Hamiltonian, region) -> tuple[int, ...]:
    rset = set(int(v) for v in region)
    return tuple(v for v in range(ham.graph.vertex_count) if v not in rset)


def _scalar_series(ham: Hamiltonian, region, order: int) -> float:
    """log tr e^{-beta H_region} via the cluster series on the region."""
    sub = set(map(int, region))
    value = len(sub) * math.log(ham.local_dim)
    for m in range(1, order + 1):
        for cluster in enumerate_connected(ham, m, within=sub):
            sigma = cluster_derivative(ham, cluster, ())
            weight = cluster.multiplicity / math.factorial(m)
            value += weight * float(sigma[0, 0].real)
    return value


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
    if order < 0:
        raise ValueError("order must be >= 0")
    if not isinstance(ham.interaction_class, FiniteRange):
        raise ModelError("effective-Hamiltonian assembly requires a finite-range model")
    region = tuple(sorted(set(map(int, region))))
    rset = set(region)
    comp = _complement(ham, region)

    bare = tuple(
        embed(t.as_operator(ham.local_dim), tuple(sorted(t.support)))
        for t in ham.terms
        if set(t.support) <= rset
    )

    boundary: dict = {}
    for m in range(1, order + 1):
        entries = []
        for cluster in enumerate_connected_to_region(ham, region, m):
            if not (set(cluster.support) & set(comp)):
                continue  # interior clusters are exactly the bare terms
            dmat = cluster_derivative(ham, cluster, region)
            kept = tuple(v for v in cluster.support if v in rset)
            coeff = -1.0 / (ham.beta * math.factorial(m))
            if kept:
                op = SupportedOperator(kept, coeff * dmat, local_dim=ham.local_dim)
            else:
                op = SupportedOperator(
                    (), coeff * dmat.reshape(1, 1), local_dim=ham.local_dim
                )
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


def _complement_log_z_ed(ham: Hamiltonian, comp) -> float:
    """log tr e^{-beta H_comp} where H_comp keeps only terms inside comp."""
    cset = set(comp)
    dim = ham.local_dim ** len(comp)
    total = np.zeros((dim, dim), dtype=complex)
    for t in ham.terms:
        if set(t.support) <= cset:
            total += embed(t.as_operator(ham.local_dim), tuple(sorted(cset))).matrix
    w = np.linalg.eigvalsh(total)
    shifted = -ham.beta * (w - w[0])
    return float(np.log(np.exp(shifted).sum()) - ham.beta * w[0])


def log_z_certificate(ham: Hamiltonian, order: int) -> tuple[float, bool]:
    """Ceiling on |log Z - truncated series|: the geometric tail
    (e/4) * x^(order+1)/(1-x) summed over all vertices."""
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
    region = set(int(v) for v in obs.support)
    if pad > 0:
        region |= {
            v
            for v in range(ham.graph.vertex_count)
            if ham.graph.distance((v,), obs.support) <= pad
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
    td, valid = trace_distance_certificate(ham, region, order)
    if not math.isfinite(td):
        return math.inf, False
    t = min(td / 2.0, 1.0)
    dim = ham.local_dim ** len(tuple(region))
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

    a_region: tuple[int, ...]
    b_region: tuple[int, ...]
    c_region: tuple[int, ...]
    order: int
    operator: SupportedOperator  # on (A u B u C) truncated at the order
    per_order_norm_sums: dict  # m -> sum over linking clusters of n_w/m! ||.||
    norm_bound_accumulated: float
    cmi_estimate: float | None  # tr(rho * operator) when an ED state is given
    beta: float

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
    a = tuple(sorted(set(map(int, a_region))))
    b = tuple(sorted(set(map(int, b_region))))
    c = tuple(sorted(set(map(int, c_region))))
    target = tuple(sorted(set(a) | set(b) | set(c)))
    dim = ham.local_dim ** len(target)
    acc = np.zeros((dim, dim), dtype=complex)
    per_order: dict = {}
    norm_acc = 0.0
    for m in range(1, order + 1):
        order_sum = 0.0
        for cluster in enumerate_linking(ham, a, c, m):
            piece = cmi_cluster_term(ham, cluster, a, b, c)
            weight = cluster.multiplicity / math.factorial(m)
            acc -= weight * embed(piece, target).matrix
            order_sum += weight * piece.norm()
        per_order[m] = order_sum
        norm_acc += order_sum
    op = SupportedOperator(target, acc, local_dim=ham.local_dim)
    estimate = None
    if gibbs_state is not None:
        rho_abc = ed.reduced_density(gibbs_state, target)
        estimate = float(np.trace(rho_abc.matrix @ op.matrix).real)
    return CmiExpansionResult(
        a_region=a,
        b_region=b,
        c_region=c,
        order=order,
        operator=op,
        per_order_norm_sums=per_order,
        norm_bound_accumulated=norm_acc,
        cmi_estimate=estimate,
        beta=ham.beta,
    )


def cmi_order_norm_bound(ham: Hamiltonian, a_region, c_region, m: int) -> float:
    """Closed-form ceiling on the order-m norm sum of the CMI expansion:
    e * min(|dA_r|, |dC_r|) * (beta/beta_c)^m."""
    beta_c = critical_beta(ham.k)
    r = ham.range_r
    surf_a = len(surface_region(ham.graph, a_region, r))
    surf_c = len(surface_region(ham.graph, c_region, r))
    return math.e * min(surf_a, surf_c) * (ham.beta / beta_c) ** m
