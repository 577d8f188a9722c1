"""Seeded random model generators used by the verification suites and tests.

All generators draw Hermitian terms from a Gaussian ensemble and rescale so
the worst per-vertex norm sum sits at a fixed target below 1, keeping every
instance inside the hypothesis class of the bound formulas.
"""

from __future__ import annotations

import numpy as np

from .spin_model import (
    FiniteRange,
    Hamiltonian,
    PAULI,
    PowerLaw,
    ValidationError,
    build_graph,
    build_hamiltonian,
    check_alpha,
    check_beta,
)

VERTEX_BUDGET = 0.95  # the worst per-vertex norm sum of a generated model
FIELD_SCALE = 0.5  # the random on-site fields, against the random bonds
J_COUPLING, HX = 0.25, 0.5  # TFI: a per-vertex norm sum of exactly 1 in the bulk


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


def _rescaled(graph, raw_terms, beta):
    """The nearest-neighbor model of the terms scaled uniformly so that the
    max per-vertex norm sum equals VERTEX_BUDGET."""
    per_vertex = np.zeros(graph.vertex_count)
    for support, mat in raw_terms:
        norm = np.linalg.norm(mat, 2)
        for v in support:
            per_vertex[v] += norm
    worst = per_vertex.max()
    scale = VERTEX_BUDGET / worst if worst > 0 else 1.0
    terms = [(support, scale * mat) for support, mat in raw_terms]
    return build_hamiltonian(graph, terms, FiniteRange(1), beta=beta)


def random_chain(n: int, beta: float, seed: int) -> Hamiltonian:
    """Random 2-local nearest-neighbor chain with on-site fields: the
    one-row grid of :func:`random_grid`."""
    return random_grid(1, n, beta, seed)


def random_grid(rows: int, cols: int, beta: float, seed: int) -> Hamiltonian:
    """Random 2-local nearest-neighbor grid patch with on-site fields."""
    rng = np.random.default_rng(seed)
    n = rows * cols

    def vid(i, j):
        return i * cols + j

    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < rows:
                edges.append((vid(i, j), vid(i + 1, j)))
    graph = build_graph(n, edges, local_dim=2)
    raw = [(e, random_hermitian(rng, 4)) for e in edges]
    raw += [((v,), FIELD_SCALE * random_hermitian(rng, 2)) for v in range(n)]
    return _rescaled(graph, raw, beta)


def tfi_chain(n: int, beta: float) -> Hamiltonian:
    """Transverse-field Ising chain J_COUPLING*ZZ + HX*X."""
    graph = build_graph(n, [(i, i + 1) for i in range(n - 1)], local_dim=2)
    zz = np.kron(PAULI["Z"], PAULI["Z"])
    terms = [((i, i + 1), J_COUPLING * zz) for i in range(n - 1)]
    terms += [((i,), HX * PAULI["X"]) for i in range(n)]
    return build_hamiltonian(graph, terms, FiniteRange(1), beta=beta)


def power_law_chain(n: int, alpha: float, beta: float, seed: int) -> Hamiltonian:
    """All-to-all chain with couplings scaled as (distance)^-(alpha+1), then
    rescaled until both the per-vertex and every tail-sum constraint pass.
    An alpha or beta that no rescaling can fix raises ValidationError."""
    check_alpha(alpha)
    check_beta(beta)
    rng = np.random.default_rng(seed)
    graph = build_graph(n, [(i, i + 1) for i in range(n - 1)], local_dim=2)
    raw = []
    for i in range(n):
        for j in range(i + 1, n):
            dist = j - i
            raw.append(((i, j), dist ** -(alpha + 1.0) * random_hermitian(rng, 4)))
    raw += [((i,), 0.25 * random_hermitian(rng, 2)) for i in range(n)]

    # The tail-sum constraint sum_{diam>=R} ||h|| <= R^-alpha binds harder
    # than the per-vertex budget; shrink until every (v, R) pair passes.
    scale = VERTEX_BUDGET
    for _ in range(60):
        terms = [(s, scale * m) for s, m in raw]
        try:
            return build_hamiltonian(graph, terms, PowerLaw(alpha), beta=beta)
        except ValidationError:
            scale *= 0.8
    raise RuntimeError("could not scale power-law instance into the hypothesis class")
