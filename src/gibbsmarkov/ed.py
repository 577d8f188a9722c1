"""Exact-diagonalization reference for small systems.

Everything here is ground truth: the full Gibbs state, exact reduced density
matrices, entropies, conditional mutual information, effective Hamiltonians,
and connected correlations.  Dense matrices throughout, so the system size is
capped (default 12 qubits).

The Gibbs state is one matrix exponential, not an eigendecomposition: above
the threshold temperature beta*||H|| is small, so e^{-beta H} is a short
Taylor polynomial, taken by scaling and squaring (Higham, SIAM J. Matrix
Anal. Appl. 26, 1179 (2005)) with its degree and scaling set by the norm
bound ||beta H|| <= beta * sum_j ||h_j||.  It lives in two dense arrays:
the polynomial is evaluated one block of columns at a time over the
Hamiltonian's own storage, and every product whose result is Hermitian is
formed on and above the diagonal only.  The dense Hamiltonian is summed in
place, each term added through a diagonal view of the (d,)^{2n} tensor
(:func:`~gibbsmarkov.operators.sum_embedded`).  Every entropy is |X| log d
minus one deficit of the marginal on X (``_deficit``).
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

# exact_cmi combines four entropy deficits, each at most |X| log d.  Its
# round-off, measured over random local basis changes of small random
# chains, is at most 3 ulp of |A u B u C| log d; the floor allows 16.
CMI_ROUNDOFF_ULPS = 16


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


def hamiltonian_matrix(ham: Hamiltonian, sites=None) -> SupportedOperator:
    """The sum of the terms inside the sorted vertex tuple ``sites``, every
    vertex by default, as a dense operator on ``sites``."""
    sites = tuple(range(ham.graph.vertex_count)) if sites is None else sites
    inside = [(1.0, t) for t in ham.terms if set(t.support) <= set(sites)]
    mat = sum_embedded(inside, sites, ham.local_dim)
    return SupportedOperator(sites, mat, local_dim=ham.local_dim)


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


# Columns per block of the Taylor polynomial and of the Hermitian products.
# Every block re-reads all of A^2, so the width is a column count, not a
# byte budget: blocks of 256 KB, 8 columns at 11 sites, ran 2.1x slower.
# 64 to 128 columns ran alike at 9 and 10 qubits, and wider blocks ran
# faster at 12 (2-core host, one BLAS thread: 25.3, 21.7 and 18.7 s at 64,
# 96 and 128).  At 96 the two Horner buffers are at most 3/8 of a d^n x d^n
# matrix from d^n = 512 on; 128 would make them half of one there.
_BLOCK_COLUMNS = 96


def _blocks(dim: int) -> list[tuple[int, int]]:
    """(first, stop) of each block of columns of a dim x dim matrix."""
    return [(first, min(first + _BLOCK_COLUMNS, dim)) for first in range(0, dim, _BLOCK_COLUMNS)]


def _mirror_upper(m: np.ndarray) -> None:
    """Overwrite the part of the Hermitian ``m`` below its diagonal blocks
    with the conjugate transpose of the part above them."""
    for first, stop in _blocks(m.shape[0]):
        m[stop:, first:stop] = m[first:stop, stop:].conj().T


def _hermitian_product(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """out = x @ y for a product known to be Hermitian: the blocks on and
    above the diagonal are multiplied, the rest mirrored."""
    for first, stop in _blocks(x.shape[0]):
        np.matmul(x[:stop], y[:, first:stop], out=out[:stop, first:stop])
    _mirror_upper(out)


def _pair(cols: np.ndarray, out: np.ndarray, first: int, c0: float, c1: float) -> None:
    """``out`` = the columns first, first + 1, ... of c0 I + c1 A, from
    ``cols``, the same columns of A or their top rows; ``out`` may be
    ``cols``."""
    np.multiply(cols, c1, out=out)
    diag = np.einsum("ii->i", out[first:first + out.shape[1]])
    diag += c0


def _taylor_in_place(a: np.ndarray, k: int) -> np.ndarray | None:
    """Overwrite the Hermitian ``a`` with sum_{j<=k} a^j / j! and return the
    array that held a^2 (None below degree 2) for reuse.

    The polynomial is sum_i pair(i) A^{2i}, pair(i) = c_{2i} I + c_{2i+1} A,
    by Horner in A^2 (Paterson and Stockmeyer, SIAM J. Comput. 2, 60
    (1973)): one product for A^2 and one per remaining pair.  Columns J of
    the polynomial need only A^2 and A's columns J, so each block of columns
    is evaluated on its own, in two d^n x |J| buffers, and written over A's.
    A^2 and the polynomial are Hermitian: A^2 and the last Horner step are
    formed on and above the diagonal blocks only, and mirrored.
    """
    coeff = [1.0 / math.factorial(j) for j in range(k + 1)] + [0.0]
    if k < 2:
        _pair(a, a, 0, coeff[0], coeff[1])
        return None
    dim, top = a.shape[0], k // 2
    a2 = np.empty_like(a)
    _hermitian_product(a, a, a2)
    buffers = np.empty((2, dim, min(_BLOCK_COLUMNS, dim)), dtype=a.dtype)
    for first, stop in _blocks(dim):
        cols = a[:, first:stop]
        r, t = buffers[:, :, :stop - first]
        _pair(cols, r, first, coeff[2 * top], coeff[2 * top + 1])
        for i in range(top - 1, 0, -1):
            np.matmul(a2, r, out=t)
            _pair(cols, r, first, coeff[2 * i], coeff[2 * i + 1])
            t += r
            r, t = t, r
        # the last step only on and above the diagonal block: the rest of
        # these columns is mirrored from later blocks at the end
        np.matmul(a2[:stop], r, out=t[:stop])
        upper = cols[:stop]
        _pair(upper, upper, first, coeff[0], coeff[1])
        upper += t[:stop]
    # the mirror's temporary is one block: free the two buffers first
    del buffers, r, t
    _mirror_upper(a)
    return a2


def exact_gibbs(ham: Hamiltonian, limit: int = DEFAULT_ED_LIMIT) -> ExactGibbs:
    """Dense Gibbs state e^{-beta H}/Z by scaling and squaring.

    With x = beta * sum_j ||h_j|| >= ||beta H||, the degree-k Taylor
    polynomial of A = -beta H / 2^s is taken at the k and s of
    ``_taylor_plan`` (s = 0 and k = 5 at x ~ 4e-3), then squared s times.  The
    polynomial and every square are divided by their trace, and the logs of
    those traces are accumulated into log Z, so nothing overflows at large
    beta.  No eigensolver runs.

    Two d^n x d^n arrays are alive at the peak: A, which becomes rho, and
    A^2, whose array then takes every other square.  The polynomial is
    evaluated by blocks of columns (``_taylor_in_place``), and the
    temporaries of the blocks and of the squares stay below half a d^n x d^n
    array from 9 qubits on.
    """
    n = ham.graph.vertex_count
    if n > limit:
        raise EDLimitError(f"{n} sites exceeds the dense-diagonalization limit {limit}")
    x = ham.beta * sum(t.norm for t in ham.terms)
    s, k = _taylor_plan(x)
    rho_mat = hamiltonian_matrix(ham).matrix
    rho_mat *= -ham.beta / 2.0 ** s
    # s >= 1 puts x / 2^s above 1/4, where k >= 2, so spare is an array
    spare = _taylor_in_place(rho_mat, k)
    t = np.trace(rho_mat).real
    rho_mat /= t
    log_z = math.log(t)
    for _ in range(s):
        _hermitian_product(rho_mat, rho_mat, spare)
        rho_mat, spare = spare, rho_mat
        t = np.trace(rho_mat).real
        rho_mat /= t
        log_z = 2.0 * log_z + math.log(t)
    rho = SupportedOperator(tuple(range(n)), rho_mat, local_dim=ham.local_dim)
    return ExactGibbs(ham, rho, log_z)


def entropy(op: SupportedOperator) -> float:
    """Von Neumann entropy (natural log) of a density operator on X:
    |X| log d minus its deficit (``_deficit``)."""
    return len(op.support) * math.log(op.local_dim) - _deficit(op)


def reduced_density(st: ExactGibbs, region) -> SupportedOperator:
    (region,) = st.hamiltonian.graph.check_regions(region)
    return partial_trace(st.rho, region)


def _deficit(op: SupportedOperator) -> float:
    """|X| log d - S(X) of the density operator ``op`` on X:
    D^-1 sum_i [(1 + e_i) log1p(e_i) - e_i], with D = d^|X| and e_i the
    eigenvalues of D rho / tr rho - I; 0 when X is empty.

    Every summand is >= 0 and O(e_i^2), so a deficit near 0 keeps its
    relative precision where S(X) itself, of size |X| log d, would not.
    """
    if not op.support:
        return 0.0
    rho = op.matrix
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

    Combined from entropy deficits (``_deficit``) rather than from the
    entropies: the |X| log d parts cancel exactly, leaving
    delta(ABC) + delta(B) - delta(AB) - delta(BC), so a CMI near 0 is not
    the difference of O(|X| log d) numbers.  The full state is traced once,
    to A u B u C, and the other three marginals are traced from that one.
    """
    a, b, c = st.hamiltonian.graph.check_regions(a_region, b_region, c_region)
    abc = reduced_density(st, a + b + c)
    return (
        _deficit(abc)
        + _deficit(partial_trace(abc, b))
        - _deficit(partial_trace(abc, a + b))
        - _deficit(partial_trace(abc, b + c))
    )


def exact_cmi_floor(local_dim: int, n_sites: int) -> float:
    """The round-off floor of :func:`exact_cmi` on |A u B u C| = n_sites:
    CMI_ROUNDOFF_ULPS * eps * n_sites * ln d.  An ED CMI below it is
    round-off, not a measured value."""
    return CMI_ROUNDOFF_ULPS * float(np.finfo(float).eps) * n_sites * math.log(local_dim)


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
