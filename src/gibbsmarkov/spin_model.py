"""Spin graphs and k-body Hamiltonians with validated locality assumptions.

Model files are JSON with keys ``local_dim``, ``vertices``, ``edges``,
``interaction_class``, ``beta`` and ``terms``.  A term is either a Pauli
string ({"support": [...], "pauli": "ZZ", "coeff": x}) or an explicit dense
matrix ({"support": [...], "matrix": [[re, im], ...]} in row-major order).
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .operators import SupportedOperator, hermiticity_defect, operator_norm

NORM_TOL = 1e-12

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class ModelError(ValueError):
    pass


class ValidationError(ModelError):
    pass


@dataclass(frozen=True)
class FiniteRange:
    r: int


@dataclass(frozen=True)
class PowerLaw:
    alpha: float


@dataclass(frozen=True)
class SpinGraph:
    """Vertices 0..n-1, an undirected edge list, and all-pairs hop distances.

    Distances between disconnected vertices are +inf.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    local_dim: int
    dist: np.ndarray
    degree: int

    def distance(self, a, b) -> float:
        """Shortest hop distance between vertex sets a and b (0 if they meet)."""
        a, b = list(a), list(b)
        if not a or not b:
            return math.inf
        return float(min(self.dist[u, v] for u in a for v in b))

    def diameter_of(self, support) -> float:
        support = list(support)
        if len(support) <= 1:
            return 0.0
        return float(max(self.dist[u, v] for u in support for v in support))


def build_graph(vertex_count: int, edges, local_dim: int = 2) -> SpinGraph:
    if vertex_count < 1:
        raise ModelError("vertex_count must be positive")
    if local_dim < 2:
        raise ModelError("local_dim must be at least 2")
    canon = set()
    adj = [[] for _ in range(vertex_count)]
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < vertex_count and 0 <= v < vertex_count) or u == v:
            raise ModelError(f"bad edge ({u}, {v})")
        if (min(u, v), max(u, v)) in canon:
            continue
        canon.add((min(u, v), max(u, v)))
        adj[u].append(v)
        adj[v].append(u)
    dist = np.full((vertex_count, vertex_count), np.inf)
    for s in range(vertex_count):
        dist[s, s] = 0.0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if not np.isfinite(dist[s, v]):
                    dist[s, v] = dist[s, u] + 1
                    q.append(v)
    degree = max((len(a) for a in adj), default=0)
    dist.setflags(write=False)
    return SpinGraph(vertex_count, tuple(sorted(canon)), local_dim, dist, degree)


@dataclass(frozen=True)
class InteractionTerm:
    support: tuple[int, ...]
    matrix: np.ndarray
    norm: float
    diameter: float

    def as_operator(self, local_dim: int) -> SupportedOperator:
        return SupportedOperator(self.support, self.matrix, local_dim)


@dataclass(frozen=True)
class Hamiltonian:
    graph: SpinGraph
    terms: tuple[InteractionTerm, ...]
    k: int
    interaction_class: FiniteRange | PowerLaw
    beta: float

    @property
    def local_dim(self) -> int:
        return self.graph.local_dim

    @property
    def range_r(self) -> int:
        """Maximum interaction range actually present (diameter of supports)."""
        if isinstance(self.interaction_class, FiniteRange):
            return self.interaction_class.r
        diam = max((t.diameter for t in self.terms), default=0.0)
        return int(diam) if math.isfinite(diam) else self.graph.vertex_count

    def vertex_norm_sums(self) -> np.ndarray:
        sums = np.zeros(self.graph.vertex_count)
        for t in self.terms:
            for v in t.support:
                sums[v] += t.norm
        return sums

    def with_beta(self, beta: float) -> "Hamiltonian":
        return Hamiltonian(self.graph, self.terms, self.k, self.interaction_class, float(beta))


def _canonical_terms(terms):
    return tuple(sorted(terms, key=lambda t: (t.support, t.matrix.view(float).tobytes())))


def _make_term(graph: SpinGraph, support, matrix) -> InteractionTerm:
    support = tuple(sorted(int(v) for v in support))
    if len(set(support)) != len(support):
        raise ValidationError(f"term support has repeated vertices: {support}")
    for v in support:
        if not (0 <= v < graph.vertex_count):
            raise ValidationError(f"term support vertex {v} outside graph")
    matrix = np.asarray(matrix, dtype=complex)
    dim = graph.local_dim ** len(support)
    if matrix.shape != (dim, dim):
        raise ValidationError(
            f"term on {support}: matrix shape {matrix.shape}, expected {(dim, dim)}"
        )
    defect = hermiticity_defect(matrix)
    if defect > NORM_TOL * max(1.0, float(np.abs(matrix).max())):
        raise ValidationError(f"term on {support} is not Hermitian (defect {defect:.3e})")
    return InteractionTerm(support, matrix, operator_norm(matrix), graph.diameter_of(support))


def build_hamiltonian(graph: SpinGraph, terms, interaction_class, beta: float,
                      rescale: bool = False) -> Hamiltonian:
    """Validate terms against the locality and normalization assumptions.

    ``terms`` is an iterable of (support, matrix) pairs or InteractionTerm.
    With ``rescale`` the per-vertex energy scale g is divided out of the terms
    and folded into beta, so the normalized convention g = 1 holds.
    """
    built = []
    for t in terms:
        if isinstance(t, InteractionTerm):
            built.append(_make_term(graph, t.support, t.matrix))
        else:
            support, matrix = t
            built.append(_make_term(graph, support, matrix))
    built = _canonical_terms(built)
    k = max((len(t.support) for t in built), default=1)

    if isinstance(interaction_class, FiniteRange):
        if interaction_class.r < 1:
            raise ValidationError("finite range r must be >= 1")
        for t in built:
            if t.diameter > interaction_class.r:
                raise ValidationError(
                    f"term on {t.support} has diameter {t.diameter} > range {interaction_class.r}"
                )
    elif not isinstance(interaction_class, PowerLaw):
        raise ModelError(f"unknown interaction class {interaction_class!r}")

    ham = Hamiltonian(graph, built, k, interaction_class, float(beta))
    sums = ham.vertex_norm_sums()
    g = float(sums.max()) if sums.size else 0.0
    if g > 1.0 + NORM_TOL:
        if not rescale:
            worst = int(np.argmax(sums))
            raise ValidationError(
                f"per-vertex norm sum at vertex {worst} is {g:.6g} > 1; "
                "rescale the terms or pass rescale=True"
            )
        built = tuple(
            InteractionTerm(t.support, t.matrix / g, t.norm / g, t.diameter) for t in built
        )
        ham = Hamiltonian(graph, built, k, interaction_class, float(beta) * g)

    if isinstance(interaction_class, PowerLaw):
        _validate_power_law_tails(ham, interaction_class.alpha)
    return ham


def _validate_power_law_tails(ham: Hamiltonian, alpha: float):
    if alpha <= 0:
        raise ValidationError("power-law exponent alpha must be positive")
    for v, rows in locality_profile(ham).items():
        for big_r, tail in rows:
            if tail > big_r ** (-alpha) + NORM_TOL:
                raise ValidationError(
                    f"power-law tail at vertex {v}, R={big_r}: "
                    f"{tail:.6g} > R^-alpha = {big_r ** (-alpha):.6g}"
                )


def locality_profile(ham: Hamiltonian) -> dict[int, list[tuple[int, float]]]:
    """Per-vertex tail sums: for each R, the norm of all terms at vertex v
    with diameter >= R."""
    diams = [int(t.diameter) for t in ham.terms if math.isfinite(t.diameter)]
    max_r = max(diams, default=0)
    profile = {}
    for v in range(ham.graph.vertex_count):
        rows = []
        for big_r in range(1, max_r + 2):
            tail = sum(t.norm for t in ham.terms if v in t.support and t.diameter >= big_r)
            rows.append((big_r, tail))
        profile[v] = rows
    return profile


def g_tilde(ham: Hamiltonian, l: int) -> float:
    """Max over vertices of the total norm of diameter-l terms at that vertex."""
    if l < 1:
        raise ValueError("l must be >= 1")
    best = 0.0
    for v in range(ham.graph.vertex_count):
        s = sum(t.norm for t in ham.terms if v in t.support and t.diameter == l)
        best = max(best, s)
    return best


# ---------------------------------------------------------------------------
# model file I/O

def _parse_interaction_class(spec) -> FiniteRange | PowerLaw:
    if isinstance(spec, dict) and len(spec) == 1:
        try:
            if "finite_range" in spec:
                return FiniteRange(int(spec["finite_range"]))
            if "power_law" in spec:
                return PowerLaw(float(spec["power_law"]))
        except (TypeError, ValueError):
            pass
    raise ModelError(f"bad interaction_class entry: {spec!r}")


def _term_matrix(entry, support, local_dim: int) -> np.ndarray:
    try:
        if "pauli" in entry:
            if local_dim != 2:
                raise ModelError("pauli terms require local_dim = 2")
            s = entry["pauli"]
            if len(s) != len(support):
                raise ModelError(f"pauli string {s!r} does not match support {support}")
            # letter i acts on support[i]; reorder to ascending vertex id
            pairs = sorted(zip(support, s))
            mat = np.array([[1.0 + 0j]])
            for _, c in pairs:
                if c not in PAULI:
                    raise ModelError(f"unknown pauli letter {c!r}")
                mat = np.kron(mat, PAULI[c])
            return float(entry.get("coeff", 1.0)) * mat
        if "matrix" in entry:
            dim = local_dim ** len(support)
            flat = entry["matrix"]
            if len(flat) != dim * dim:
                raise ModelError(f"matrix for support {support} has {len(flat)} entries, expected {dim * dim}")
            vals = np.array([complex(re, im) for re, im in flat])
            return vals.reshape(dim, dim)
    except ModelError:
        raise
    except (TypeError, ValueError) as exc:
        raise ModelError(f"malformed term on support {support}: {exc!r}") from exc
    raise ModelError(f"term needs 'pauli' or 'matrix': {entry!r}")


def load_model(path, rescale: bool = False) -> Hamiltonian:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"cannot parse {path}: {exc}") from exc
    for key in ("local_dim", "vertices", "edges", "interaction_class", "beta", "terms"):
        if key not in data:
            raise ModelError(f"model file missing key {key!r}")
    try:
        vertices, local_dim = int(data["vertices"]), int(data["local_dim"])
        edges = [(int(u), int(v)) for u, v in data["edges"]]
        supports = [[int(v) for v in entry["support"]] for entry in data["terms"]]
        beta = float(data["beta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed field in {path}: {exc!r}") from exc
    graph = build_graph(vertices, edges, local_dim)
    klass = _parse_interaction_class(data["interaction_class"])
    terms = [
        (support, _term_matrix(entry, support, graph.local_dim))
        for entry, support in zip(data["terms"], supports)
    ]
    return build_hamiltonian(graph, terms, klass, beta, rescale=rescale)


def save_model(ham: Hamiltonian, path):
    if isinstance(ham.interaction_class, FiniteRange):
        klass = {"finite_range": ham.interaction_class.r}
    else:
        klass = {"power_law": ham.interaction_class.alpha}
    terms = []
    for t in ham.terms:
        flat = [[float(z.real), float(z.imag)] for z in t.matrix.reshape(-1)]
        terms.append({"support": list(t.support), "matrix": flat})
    data = {
        "local_dim": ham.graph.local_dim,
        "vertices": ham.graph.vertex_count,
        "edges": [list(e) for e in ham.graph.edges],
        "interaction_class": klass,
        "beta": ham.beta,
        "terms": terms,
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
