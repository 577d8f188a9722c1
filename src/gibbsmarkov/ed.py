"""Exact-diagonalization reference for small systems.

Everything here is ground truth: the full Gibbs state, exact reduced density
matrices, entropies, conditional mutual information, effective Hamiltonians,
and connected correlations.  Dense matrices throughout, so the system size is
capped (default 12 qubits).

The Gibbs state is one matrix exponential, not an eigendecomposition: above
the threshold temperature beta*||H|| is small, so e^{-beta H} is a short
Taylor polynomial, taken by scaling and squaring (Higham, SIAM J. Matrix
Anal. Appl. 26, 1179 (2005)) with its degree and scaling set by the norm
bound ||beta H|| <= beta * sum_j ||h_j||.  The dense Hamiltonian is summed in
place, each term added through a diagonal view of the (d,)^{2n} tensor
(:func:`~gibbsmarkov.operators.sum_embedded`).
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
    sum_embedded,
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
    support = tuple(range(ham.graph.vertex_count))
    mat = sum_embedded(((1.0, t) for t in ham.terms), support, ham.local_dim)
    return SupportedOperator(support, mat, local_dim=ham.local_dim)


def _taylor_plan(x: float) -> tuple[int, int]:
    """(s, k) for e^A with ||A|| <= x: the smallest s >= 0 with y = x/2^s
    <= 1/2, and the smallest degree k whose Taylor remainder bound
    y^(k+1)/(k+1)! * e^y is <= 2^-53."""
    s = 0
    while x / 2.0 ** s > 0.5:
        s += 1
    y = x / 2.0 ** s
    k = 0
    while y ** (k + 1) / math.factorial(k + 1) * math.exp(y) > 2.0 ** -53:
        k += 1
    return s, k


def exact_gibbs(ham: Hamiltonian, limit: int = DEFAULT_ED_LIMIT) -> ExactGibbs:
    """Dense Gibbs state e^{-beta H}/Z by scaling and squaring.

    With x = beta * sum_j ||h_j|| >= ||beta H||, the degree-k Taylor
    polynomial of A = -beta H / 2^s is taken at the k and s of
    ``_taylor_plan`` (s = 0 and k = 5 at x ~ 4e-3), then squared s times.  The
    polynomial and every square are divided by their trace, and the logs of
    those traces are accumulated into log Z, so nothing overflows at large
    beta.  No eigensolver runs.
    """
    n = ham.graph.vertex_count
    if n > limit:
        raise EDLimitError(f"{n} sites exceeds the dense-diagonalization limit {limit}")
    x = ham.beta * sum(t.norm for t in ham.terms)
    s, k = _taylor_plan(x)
    a = hamiltonian_matrix(ham).matrix
    a *= -ham.beta / 2.0 ** s
    coeff = [1.0 / math.factorial(j) for j in range(k + 1)] + [0.0]
    step = a.shape[0] + 1  # flat stride of the diagonal

    def pair(i):  # c_{2i} I + c_{2i+1} A
        out = a * coeff[2 * i + 1]
        out.flat[::step] += coeff[2 * i]
        return out

    # sum_i pair(i) A^{2i} by Horner in A^2 (Paterson-Stockmeyer): one
    # product for A^2 and one per remaining pair, three at degree 5.  At
    # most four d^n x d^n matrices are alive at once.
    rho_mat = pair(k // 2)
    if k >= 2:
        a2 = a @ a
        for i in range(k // 2 - 1, -1, -1):
            rho_mat = a2 @ rho_mat
            rho_mat += pair(i)
        del a2
    del a
    t = np.trace(rho_mat).real
    rho_mat /= t
    log_z = math.log(t)
    for _ in range(s):
        rho_mat = rho_mat @ rho_mat
        t = np.trace(rho_mat).real
        rho_mat /= t
        log_z = 2.0 * log_z + math.log(t)
    rho = SupportedOperator(tuple(range(n)), rho_mat, local_dim=ham.local_dim)
    return ExactGibbs(ham, rho, log_z)


def _entropy_of_eigenvalues(w: np.ndarray) -> float:
    w = np.clip(w.real, EIG_FLOOR, None)
    return float(-(w * np.log(w)).sum())


def entropy(op: SupportedOperator) -> float:
    """Von Neumann entropy (natural log) of a density operator."""
    return _entropy_of_eigenvalues(np.linalg.eigvalsh(op.matrix))


def reduced_density(st: ExactGibbs, region) -> SupportedOperator:
    (region,) = st.hamiltonian.graph.check_regions(region)
    return partial_trace(st.rho, region)


def _entropy_deficit(st: ExactGibbs, region) -> float:
    """|X| log d - S(X) = D^-1 sum_i [(1 + e_i) log1p(e_i) - e_i], with
    D = d^|X| and e_i the eigenvalues of D rho_X / tr rho_X - I.

    Every summand is >= 0 and O(e_i^2), so a deficit near 0 keeps its
    relative precision where S(X) itself, of size |X| log d, would not.
    """
    if not region:
        return 0.0
    rho = reduced_density(st, region).matrix
    dim = rho.shape[0]
    dev = rho * (dim / np.trace(rho).real)
    dev.flat[:: dim + 1] -= 1.0
    e = np.linalg.eigvalsh(dev)
    # (1 + e) log1p(e) -> 0 as e -> -1: a zero (or round-off negative)
    # eigenvalue of rho_X contributes 0 log 0 = 0
    inside = e > -1.0
    spread = np.zeros_like(e)
    spread[inside] = (1.0 + e[inside]) * np.log1p(e[inside])
    return float((spread - e).sum() / dim)


def exact_cmi(st: ExactGibbs, a_region, b_region, c_region) -> float:
    """S(AB) + S(BC) - S(ABC) - S(B); with B empty this is the mutual
    information between A and C.

    Combined from entropy deficits (``_entropy_deficit``) rather than from
    the entropies: the |X| log d parts cancel exactly, leaving
    delta(ABC) + delta(B) - delta(AB) - delta(BC), so a CMI near 0 is not
    the difference of O(|X| log d) numbers.
    """
    a, b, c = st.hamiltonian.graph.check_regions(a_region, b_region, c_region)
    return (
        _entropy_deficit(st, a + b + c)
        + _entropy_deficit(st, b)
        - _entropy_deficit(st, a + b)
        - _entropy_deficit(st, b + c)
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
    on disjoint supports, read off the reduced state on supp(A) u supp(B)."""
    if set(op_a.support) & set(op_b.support):
        raise ValueError("observables must live on disjoint supports")
    sites = tuple(sorted(op_a.support + op_b.support))
    r = reduced_density(st, sites).matrix
    a = embed(op_a, sites).matrix
    b = embed(op_b, sites).matrix
    joint = np.trace(r @ a @ b)
    sep = np.trace(r @ a) * np.trace(r @ b)
    return float((joint - sep).real)
