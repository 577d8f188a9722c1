"""Dense operator arithmetic on labelled tensor-product supports.

Every operator carries the sorted list of vertex ids it acts on.  The qudit
ordering inside a matrix is always ascending vertex id; all embeddings and
permutations derive from that single rule.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
POSDEF_REL_TOL = 1e-13


class OperatorError(ValueError):
    pass


class PositivityError(OperatorError):
    """Raised when a matrix required to be positive definite is not."""


def hermiticity_defect(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T))) if matrix.size else 0.0


def operator_norm(matrix: np.ndarray) -> float:
    """Spectral norm, via Hermitian eigensolve when possible."""
    if matrix.size == 0:
        return 0.0
    if hermiticity_defect(matrix) <= HERMITICITY_TOL * max(1.0, np.abs(matrix).max()):
        w = np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))
        return float(np.max(np.abs(w)))
    return float(np.linalg.norm(matrix, 2))


@dataclass(frozen=True)
class SupportedOperator:
    """A dense matrix tagged with the sorted vertex set it acts on."""

    support: tuple[int, ...]
    matrix: np.ndarray
    local_dim: int = 2

    def __post_init__(self):
        support = tuple(int(v) for v in self.support)
        object.__setattr__(self, "support", support)
        if list(support) != sorted(set(support)):
            raise OperatorError(f"support must be sorted and duplicate-free: {support}")
        dim = self.local_dim ** len(support)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise OperatorError(
                f"matrix shape {mat.shape} does not match d^|support| = {dim}"
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm(self) -> float:
        return operator_norm(self.matrix)

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return hermiticity_defect(self.matrix) <= tol * max(1.0, np.abs(self.matrix).max() if self.matrix.size else 1.0)

    def require_hermitian(self, what: str = "operator"):
        if not self.is_hermitian():
            raise OperatorError(f"{what} is not Hermitian (defect {hermiticity_defect(self.matrix):.3e})")


def identity(support, local_dim: int = 2) -> SupportedOperator:
    support = tuple(sorted(support))
    dim = local_dim ** len(support)
    return SupportedOperator(support, np.eye(dim, dtype=complex), local_dim)


def scalar_operator(value: complex, support, local_dim: int = 2) -> SupportedOperator:
    ident = identity(support, local_dim)
    return SupportedOperator(ident.support, value * ident.matrix, local_dim)


def embed_matrix(mat: np.ndarray, positions, n_sites: int, d: int) -> np.ndarray:
    """Embed ``mat`` (acting on the qudits listed in ``positions``, in that
    order) into an ``n_sites``-qudit space, identity elsewhere.

    ``positions`` need not be sorted; the result respects the target ordering
    0..n_sites-1.
    """
    positions = list(positions)
    k = len(positions)
    rest = [p for p in range(n_sites) if p not in positions]
    full = np.kron(mat, np.eye(d ** len(rest), dtype=complex))
    order = positions + rest  # axis j of `full` lives at target site order[j]
    if order == list(range(n_sites)):
        return full
    inv = np.argsort(order)
    t = full.reshape([d] * (2 * n_sites))
    t = t.transpose(list(inv) + [int(i) + n_sites for i in inv])
    dim = d ** n_sites
    return np.ascontiguousarray(t.reshape(dim, dim))


def embed(a: SupportedOperator, target_support) -> SupportedOperator:
    """Tensor ``a`` with identities so it acts on ``target_support``."""
    target = tuple(sorted(set(int(v) for v in target_support)))
    if not set(a.support) <= set(target):
        raise OperatorError(f"support {a.support} is not a subset of target {target}")
    if a.support == target:
        return a
    positions = [target.index(v) for v in a.support]
    mat = embed_matrix(a.matrix, positions, len(target), a.local_dim)
    return SupportedOperator(target, mat, a.local_dim)


def partial_trace(a: SupportedOperator, keep) -> SupportedOperator:
    """Trace out ``a.support \\ keep``; the result acts on ``a.support & keep``.

    The full trace is preserved: tr(result) == tr(a).
    """
    keep_set = set(int(v) for v in keep)
    kept = tuple(v for v in a.support if v in keep_set)
    if kept == a.support:
        return a
    n = len(a.support)
    d = a.local_dim
    letters = string.ascii_letters
    if 2 * n > len(letters):
        raise OperatorError("support too large for partial trace")
    it = iter(letters)
    row, col, out_row, out_col = [], [], [], []
    for v in a.support:
        if v in keep_set:
            r, c = next(it), next(it)
            row.append(r)
            col.append(c)
            out_row.append(r)
            out_col.append(c)
        else:
            r = next(it)
            row.append(r)
            col.append(r)
    sub = "".join(row + col) + "->" + "".join(out_row + out_col)
    t = a.matrix.reshape([d] * (2 * n))
    dim = d ** len(kept)
    mat = np.einsum(sub, t).reshape(dim, dim)
    return SupportedOperator(kept, mat, d)


def expm_hermitian(a: SupportedOperator, scale: float = 1.0) -> SupportedOperator:
    """e^{scale * a} for Hermitian ``a`` via eigendecomposition."""
    a.require_hermitian("expm input")
    w, u = np.linalg.eigh(0.5 * (a.matrix + a.matrix.conj().T))
    mat = (u * np.exp(scale * w)) @ u.conj().T
    return SupportedOperator(a.support, mat, a.local_dim)


def logm_posdef(a: SupportedOperator) -> SupportedOperator:
    """Principal logarithm of a Hermitian positive-definite operator."""
    a.require_hermitian("logm input")
    w, u = np.linalg.eigh(0.5 * (a.matrix + a.matrix.conj().T))
    wmax = float(np.max(w)) if w.size else 0.0
    wmin = float(np.min(w)) if w.size else 0.0
    if wmin <= POSDEF_REL_TOL * max(wmax, 0.0):
        raise PositivityError(
            f"matrix not positive definite: min eigenvalue {wmin:.3e} (max {wmax:.3e})"
        )
    mat = (u * np.log(w)) @ u.conj().T
    return SupportedOperator(a.support, mat, a.local_dim)

