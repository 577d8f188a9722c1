"""Dense operator arithmetic on labelled tensor-product supports.

Every operator carries the sorted list of vertex ids it acts on.  The qudit
ordering inside a matrix is always ascending vertex id; all embeddings and
permutations derive from that single rule, in :func:`add_embedded`,
:func:`trace_out` and :func:`embedded_product`, whose plans are cached.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
POSDEF_REL_TOL = 1e-13


class OperatorError(ValueError):
    pass


class PositivityError(OperatorError):
    """Raised when a matrix required to be positive definite is not."""


def _vertex_ids(vertices) -> tuple[int, ...]:
    """``vertices`` as a tuple of ints; refuses, with OperatorError, an id
    that is not an integer (``operator.index`` refuses it) or is a bool,
    which it would read as 0 or 1."""
    ids = tuple(vertices)
    try:
        if not any(isinstance(v, bool) for v in ids):
            return tuple(map(operator.index, ids))
    except TypeError:
        pass
    raise OperatorError(f"vertex ids must be integers, got {vertices!r}")


def hermiticity_defect(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T))) if matrix.size else 0.0


def is_hermitian_matrix(matrix: np.ndarray) -> bool:
    """Hermitian to within HERMITICITY_TOL times the largest entry, or
    absolutely when every entry is below 1."""
    if matrix.size == 0:
        return True
    return hermiticity_defect(matrix) <= HERMITICITY_TOL * max(1.0, float(np.abs(matrix).max()))


def operator_norm(matrix: np.ndarray) -> float:
    """Spectral norm, via Hermitian eigensolve when possible."""
    if matrix.size == 0:
        return 0.0
    if is_hermitian_matrix(matrix):
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
        support = _vertex_ids(self.support)
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

    def is_hermitian(self) -> bool:
        return is_hermitian_matrix(self.matrix)

    def require_hermitian(self, what: str = "operator"):
        if not self.is_hermitian():
            raise OperatorError(f"{what} is not Hermitian (defect {hermiticity_defect(self.matrix):.3e})")


# The plans below depend only on positions within a support and on its
# size, so the caches are bounded by the patterns the local geometry
# produces; the bound only stops pathological callers from growing them.
_PLAN_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _diagonal_labels(positions: tuple, n_sites: int):
    """(input labels, output labels, number of other sites) of the einsum
    view in :func:`add_embedded`; None when the positions are 0..n-1 in
    order, where the view would be the target itself."""
    if positions == tuple(range(n_sites)):
        return None
    rest = [p for p in range(n_sites) if p not in positions]
    labels = [..., *range(n_sites), *(n_sites + p if p in positions else p for p in range(n_sites))]
    out = [..., *positions, *(n_sites + p for p in positions), *rest]
    return labels, out, len(rest)


def add_embedded(acc: np.ndarray, mat: np.ndarray, positions, n_sites: int, d: int,
                 scale: complex = 1.0) -> None:
    """acc += scale * (mat (x) I), in place, without forming the embedding:
    ``mat`` acts on the qudits listed in ``positions``, in that order (they
    need not be sorted), and the identity on the other qudits of the
    ``n_sites``, whose ordering is 0..n_sites-1.

    ``acc`` is a writable d^n x d^n array, n = ``n_sites``, in any memory
    layout.  Splitting its row and column axes into n qudit axes each never
    copies, so its (d,)^{2n} tensor is a view of it, and an einsum of that
    tensor that pairs the row and column index of every site outside
    ``positions`` is a writable view of the entries where the identity factor
    is 1, with the positions' row and column axes first, in the order given;
    ``scale * mat`` is added there by broadcasting.  Entry by entry this adds
    the numbers the embedding would, and leaves every entry where the
    embedding is 0 untouched.

    ``acc`` may be a stack of such matrices along leading axes, and ``mat``
    a stack that broadcasts against it; each slice gets, bitwise, what it
    would get alone.
    """
    positions = tuple(positions)
    plan = _diagonal_labels(positions, n_sites)
    if plan is None:
        acc += scale * mat
        return
    labels, out, n_rest = plan
    view = np.einsum(acc.reshape(acc.shape[:-2] + (d,) * (2 * n_sites)), labels, out)
    view += scale * mat.reshape(mat.shape[:-2] + (d,) * (2 * len(positions)) + (1,) * n_rest)


def embed_matrix(mat: np.ndarray, positions, n_sites: int, d: int) -> np.ndarray:
    """``mat`` on the qudits listed in ``positions`` tensored with the
    identity on the other qudits of ``n_sites``: zeros plus
    :func:`add_embedded`."""
    dim = d ** n_sites
    out = np.zeros((dim, dim), dtype=complex)
    add_embedded(out, mat, positions, n_sites, d)
    return out


def sum_embedded(weighted, sites, d: int) -> np.ndarray:
    """The dense sum of scale * op over the (scale, op) pairs ``weighted`` on
    the sorted vertex tuple ``sites``.  Each op, anything with a ``support``
    inside ``sites`` and a ``matrix``, is added in place by
    :func:`add_embedded`, so no identity-padded copy is formed."""
    n = len(sites)
    position = {v: p for p, v in enumerate(sites)}
    acc = np.zeros((d ** n, d ** n), dtype=complex)
    for scale, op in weighted:
        add_embedded(acc, op.matrix, [position[v] for v in op.support], n, d, scale)
    return acc


def embed(a: SupportedOperator, target_support) -> SupportedOperator:
    """Tensor ``a`` with identities so it acts on ``target_support``."""
    target = tuple(sorted(set(_vertex_ids(target_support))))
    if not set(a.support) <= set(target):
        raise OperatorError(f"support {a.support} is not a subset of target {target}")
    if a.support == target:
        return a
    positions = [target.index(v) for v in a.support]
    mat = embed_matrix(a.matrix, positions, len(target), a.local_dim)
    return SupportedOperator(target, mat, a.local_dim)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _trace_labels(keep: tuple, n_sites: int):
    """(input labels, output labels) of the einsum in :func:`trace_out`: a
    traced qudit's column label is its row label."""
    cols = [n_sites + p if p in keep else p for p in range(n_sites)]
    return (..., *range(n_sites), *cols), (..., *keep, *(n_sites + p for p in keep))


def trace_out(mat: np.ndarray, keep, n_sites: int, d: int) -> np.ndarray:
    """Trace ``mat`` (on ``n_sites`` qudits) over every qudit whose position
    is not in ``keep``; the result acts on the kept qudits in ascending order
    (1x1 when none is kept).

    ``mat`` may be a stack of such matrices along leading axes, traced in
    one einsum, each bitwise as it would be alone.
    """
    keep = tuple(sorted(keep))
    if len(keep) == n_sites:
        return mat
    labels, out = _trace_labels(keep, n_sites)
    lead = mat.shape[:-2]
    traced = np.einsum(mat.reshape(lead + (d,) * (2 * n_sites)), labels, out)
    return traced.reshape(lead + (d ** len(keep),) * 2)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _product_axes(a_positions: tuple, b_positions: tuple):
    """How :func:`embedded_product` lays out one pair of position tuples:
    the axis order of each factor, the number of shared qudits, and the
    axis order of the result."""
    u, k = len(a_positions), len(b_positions)
    shared = [i for i, p in enumerate(a_positions) if p in b_positions]
    rest = [i for i, p in enumerate(a_positions) if p not in b_positions]
    new = [i for i, p in enumerate(b_positions) if p not in a_positions]
    # a as (rows, columns off b | columns shared); b as (rows shared | rows
    # of its new qudits, columns)
    a_axes = list(range(u)) + [u + i for i in rest] + [u + i for i in shared]
    b_axes = [b_positions.index(a_positions[i]) for i in shared] + new + list(range(k, 2 * k))
    rows = {p: i for i, p in enumerate(a_positions)}
    rows.update({b_positions[i]: u + len(rest) + j for j, i in enumerate(new)})
    cols = {a_positions[i]: u + j for j, i in enumerate(rest)}
    cols.update({p: u + len(rest) + len(new) + i for i, p in enumerate(b_positions)})
    out_axes = [rows[p] for p in range(len(rows))] + [cols[p] for p in range(len(rows))]
    return a_axes, b_axes, len(shared), out_axes


def embedded_product(a: np.ndarray, a_positions, b: np.ndarray, b_positions,
                     n_sites: int, d: int) -> np.ndarray:
    """(a (x) I) (b (x) I) on ``n_sites`` qudits, ordered 0..n_sites-1:
    ``a`` acts on the qudits listed in ``a_positions`` and ``b`` on those in
    ``b_positions``, each in the order given, and together they list every
    qudit.

    Only the qudits that a and b share are summed over, in one matrix
    product: for a k-local b on n qudits that costs d^(2n + k), not the
    d^(3n) of a dense product, and no identity is ever formed.  With
    disjoint positions it is the tensor product a (x) b, up to the order of
    the qudits."""
    a_positions, b_positions = tuple(a_positions), tuple(b_positions)
    a_axes, b_axes, n_shared, out_axes = _product_axes(a_positions, b_positions)
    left = a.reshape((d,) * (2 * len(a_positions))).transpose(a_axes)
    right = b.reshape((d,) * (2 * len(b_positions))).transpose(b_axes)
    out = left.reshape(-1, d ** n_shared) @ right.reshape(d ** n_shared, -1)
    out = out.reshape((d,) * (2 * n_sites)).transpose(out_axes)
    return out.reshape(d ** n_sites, -1)


def partial_trace(a: SupportedOperator, keep) -> SupportedOperator:
    """Trace out ``a.support \\ keep``; the result acts on ``a.support & keep``.

    The full trace is preserved: tr(result) == tr(a).
    """
    keep_set = set(_vertex_ids(keep))
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

