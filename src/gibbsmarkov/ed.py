"""Exact-diagonalization reference for small systems.

Everything here is ground truth: the full Gibbs state, exact reduced density
matrices, entropies, conditional mutual information, effective Hamiltonians,
and connected correlations.  Dense matrices throughout, so the system size is
capped (default 12 qubits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    SupportedOperator,
    embed,
    logm_posdef,
    partial_trace,
)
from .spin_model import Hamiltonian

DEFAULT_ED_LIMIT = 12

EIG_FLOOR = 1e-15


class EDLimitError(RuntimeError):
    """System too large for dense diagonalization."""


@dataclass(frozen=True)
class ExactGibbs:
    """Full Gibbs state e^{-beta H}/Z with its log partition function."""

    hamiltonian: Hamiltonian
    rho: SupportedOperator
    log_z: float

    @property
    def beta(self) -> float:
        return self.hamiltonian.beta


def hamiltonian_matrix(ham: Hamiltonian) -> SupportedOperator:
    """The full Hamiltonian as a dense operator on all vertices."""
    n = ham.graph.vertex_count
    support = tuple(range(n))
    dim = ham.local_dim ** n
    total = np.zeros((dim, dim), dtype=complex)
    for term in ham.terms:
        total += embed(term.as_operator(ham.local_dim), support).matrix
    return SupportedOperator(support, total, local_dim=ham.local_dim)


def exact_gibbs(ham: Hamiltonian, limit: int = DEFAULT_ED_LIMIT) -> ExactGibbs:
    """Dense Gibbs state by eigendecomposition."""
    n = ham.graph.vertex_count
    if n > limit:
        raise EDLimitError(f"{n} sites exceeds the dense-diagonalization limit {limit}")
    h = hamiltonian_matrix(ham)
    w, v = np.linalg.eigh(h.matrix)
    # Shift by the ground energy for overflow safety; restore in log Z.
    shifted = -ham.beta * (w - w[0])
    weights = np.exp(shifted)
    z_shifted = weights.sum()
    log_z = math.log(z_shifted) - ham.beta * w[0]
    rho_mat = (v * (weights / z_shifted)) @ v.conj().T
    rho = SupportedOperator(h.support, rho_mat, local_dim=ham.local_dim)
    return ExactGibbs(ham, rho, log_z)


def _entropy_of_eigenvalues(w: np.ndarray) -> float:
    w = np.clip(w.real, EIG_FLOOR, None)
    return float(-(w * np.log(w)).sum())


def entropy(op: SupportedOperator) -> float:
    """Von Neumann entropy (natural log) of a density operator."""
    return _entropy_of_eigenvalues(np.linalg.eigvalsh(op.matrix))


def reduced_density(st: ExactGibbs, region) -> SupportedOperator:
    region = tuple(sorted(set(int(v) for v in region)))
    return partial_trace(st.rho, region)


def region_entropy(st: ExactGibbs, region) -> float:
    if not region:
        return 0.0
    return entropy(reduced_density(st, region))


def exact_cmi(st: ExactGibbs, a_region, b_region, c_region) -> float:
    """S(AB) + S(BC) - S(ABC) - S(B); with B empty this is the mutual
    information between A and C."""
    a, b, c = (tuple(sorted(set(map(int, r)))) for r in (a_region, b_region, c_region))
    if set(a) & set(b) or set(b) & set(c) or set(a) & set(c):
        raise ValueError("regions must be pairwise disjoint")
    return (
        region_entropy(st, a + b)
        + region_entropy(st, b + c)
        - region_entropy(st, a + b + c)
        - region_entropy(st, b)
    )


def exact_effective_hamiltonian(st: ExactGibbs, region) -> SupportedOperator:
    """-beta^-1 log of the un-normalized reduced Gibbs weight on the region,
    read off the Gibbs state: tr_{L^c} e^{-beta H} = Z tr_{L^c} rho."""
    log_red = logm_posdef(reduced_density(st, region))
    mat = -(log_red.matrix + st.log_z * np.eye(log_red.dim)) / st.beta
    return SupportedOperator(log_red.support, mat, local_dim=log_red.local_dim)


def operator_correlation(
    st: ExactGibbs, op_a: SupportedOperator, op_b: SupportedOperator
) -> float:
    """Connected correlation tr(rho A B) - tr(rho A) tr(rho B) for operators
    on disjoint supports."""
    if set(op_a.support) & set(op_b.support):
        raise ValueError("observables must live on disjoint supports")
    full = st.rho.support
    a = embed(op_a, full).matrix
    b = embed(op_b, full).matrix
    r = st.rho.matrix
    joint = np.trace(r @ a @ b)
    sep = np.trace(r @ a) * np.trace(r @ b)
    return float((joint - sep).real)
