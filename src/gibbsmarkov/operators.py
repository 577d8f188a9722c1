"""Dense operator arithmetic on labelled tensor-product supports.

Every operator carries the sorted list of vertex ids it acts on.  The qudit
ordering inside a matrix is always ascending vertex id; all embeddings and
permutations derive from that single rule.
"""

from __future__ import annotations

import functools
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


# The plans below depend only on positions within a support and on its
# size, so the caches are bounded by the patterns the local geometry
# produces; the bound only stops pathological callers from growing them.
_PLAN_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _embed_plan(positions: tuple, n_sites: int, d: int):
    """(d^k, d^(n-k), axes) of :func:`embed_matrix`, with axes None when no
    permutation is needed."""
    rest = [p for p in range(n_sites) if p not in positions]
    order = list(positions) + rest  # axis j of mat (x) I lives at target site order[j]
    axes = None
    if order != list(range(n_sites)):
        inv = np.argsort(order)
        axes = tuple(int(i) for i in inv) + tuple(int(i) + n_sites for i in inv)
    return d ** len(positions), d ** len(rest), axes


def embed_matrix(mat: np.ndarray, positions, n_sites: int, d: int) -> np.ndarray:
    """Embed ``mat`` (acting on the qudits listed in ``positions``, in that
    order) into an ``n_sites``-qudit space, identity elsewhere.

    ``positions`` need not be sorted; the result respects the target ordering
    0..n_sites-1.
    """
    dk, dr, axes = _embed_plan(tuple(positions), n_sites, d)
    # the Kronecker product mat (x) I, without np.kron's overhead
    full = (mat.reshape(dk, 1, dk, 1) * np.eye(dr, dtype=complex).reshape(1, dr, 1, dr))
    full = full.reshape(dk * dr, dk * dr)
    if axes is None:
        return full
    t = full.reshape((d,) * (2 * n_sites)).transpose(axes)
    dim = d ** n_sites
    return np.ascontiguousarray(t.reshape(dim, dim))


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _diagonal_labels(positions: tuple, n_sites: int):
    """(input labels, output labels, number of other sites) of the einsum
    view in :func:`add_embedded`; None when the positions are 0..n-1 in
    order, where the view would be the target itself."""
    if positions == tuple(range(n_sites)):
        return None
    rest = [p for p in range(n_sites) if p not in positions]
    labels = list(range(n_sites)) + [n_sites + p if p in positions else p for p in range(n_sites)]
    out = list(positions) + [n_sites + p for p in positions] + rest
    return labels, out, len(rest)


def add_embedded(acc: np.ndarray, mat: np.ndarray, positions, n_sites: int, d: int,
                 scale: complex = 1.0) -> None:
    """acc += scale * embed_matrix(mat, positions, n_sites, d), in place,
    without forming the embedding.

    ``acc`` is a C-contiguous d^n x d^n array, n = ``n_sites``.  An einsum
    of its (d,)^{2n} tensor that pairs the row and column index of every
    site outside ``positions`` is a writable view of the entries where the
    identity factor is 1, with the positions' row and column axes first, in
    the order given; ``scale * mat`` is added there by broadcasting.  Entry
    by entry this adds the numbers the embedding would, and leaves every
    entry where the embedding is 0 untouched.
    """
    if not acc.flags.c_contiguous:
        raise OperatorError("add_embedded needs a C-contiguous target")
    positions = tuple(positions)
    plan = _diagonal_labels(positions, n_sites)
    if plan is None:
        acc += scale * mat
        return
    labels, out, n_rest = plan
    view = np.einsum(acc.reshape((d,) * (2 * n_sites)), labels, out)
    view += scale * mat.reshape((d,) * (2 * len(positions)) + (1,) * n_rest)


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


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _trace_subscripts(keep: frozenset, n_sites: int) -> str:
    """The einsum subscripts of :func:`trace_out`."""
    letters = string.ascii_letters
    if 2 * n_sites > len(letters):
        raise OperatorError("support too large for partial trace")
    it = iter(letters)
    row, col, out_row, out_col = [], [], [], []
    for p in range(n_sites):
        r = next(it)
        row.append(r)
        if p in keep:
            c = next(it)
            col.append(c)
            out_row.append(r)
            out_col.append(c)
        else:
            col.append(r)
    return "".join(row + col) + "->" + "".join(out_row + out_col)


def trace_out(mat: np.ndarray, keep, n_sites: int, d: int) -> np.ndarray:
    """Trace ``mat`` (on ``n_sites`` qudits) over every qudit whose position
    is not in ``keep``; the result acts on the kept qudits in ascending order
    (1x1 when none is kept)."""
    keep = frozenset(keep)
    if len(keep) == n_sites:
        return mat
    dim = d ** len(keep)
    sub = _trace_subscripts(keep, n_sites)
    return np.einsum(sub, mat.reshape((d,) * (2 * n_sites))).reshape(dim, dim)


def partial_trace(a: SupportedOperator, keep) -> SupportedOperator:
    """Trace out ``a.support \\ keep``; the result acts on ``a.support & keep``.

    The full trace is preserved: tr(result) == tr(a).
    """
    keep_set = set(int(v) for v in keep)
    positions = [p for p, v in enumerate(a.support) if v in keep_set]
    if len(positions) == len(a.support):
        return a
    mat = trace_out(a.matrix, positions, len(a.support), a.local_dim)
    return SupportedOperator(tuple(a.support[p] for p in positions), mat, a.local_dim)


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

