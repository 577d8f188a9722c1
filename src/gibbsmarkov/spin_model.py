"""Spin graphs and k-body Hamiltonians with validated locality assumptions.

Model files are JSON with keys ``local_dim``, ``vertices``, ``edges``,
``interaction_class``, ``beta`` and ``terms``.  A term is either a Pauli
string ({"support": [...], "pauli": "ZZ", "coeff": x}) or an explicit dense
matrix ({"support": [...], "matrix": [[re, im], ...]} in row-major order).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from .operators import SupportedOperator, hermiticity_defect, is_hermitian_matrix, operator_norm

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

    def check_regions(self, *regions) -> tuple[tuple[int, ...], ...]:
        """The ``regions`` as sorted, duplicate-free tuples of vertex ids.

        Refuses, with ValidationError, a region that is not a collection,
        a vertex id that is not an integer (``operator.index`` refuses it)
        or lies outside 0..n-1 in any of them, or a vertex that two of them
        share.
        """
        seen: set[int] = set()
        out = []
        for region in regions:
            try:
                region = list(region)
            except TypeError:
                message = f"region {region!r} is not a collection of vertex ids"
                raise ValidationError(message) from None
            region = set(map(_vertex_id, region))
            outside = {v for v in region if not 0 <= v < self.vertex_count}
            if outside:
                raise ValidationError(
                    f"vertex {min(outside)} is not in the graph (0..{self.vertex_count - 1})"
                )
            shared = seen.intersection(region)
            if shared:
                raise ValidationError(
                    f"regions must be disjoint: vertex {min(shared)} is in two of them"
                )
            seen.update(region)
            out.append(tuple(sorted(region)))
        return tuple(out)

    def diameter_of(self, support) -> float:
        support = list(support)
        if len(support) <= 1:
            return 0.0
        return float(max(self.dist[u, v] for u in support for v in support))


def check_integer(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int, by ``operator.index``: a numpy integer passes,
    and a float, a string or a bool is refused with ValidationError rather
    than truncated, parsed or read as 0 or 1.  So is a value below
    ``minimum``, when one is given.  Every integer input of the package is
    checked here, but for the vertex ids of ``operators``, which this
    module imports and which so keeps its own check."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} {value!r} is not an integer") from None
    if minimum is not None and number < minimum:
        raise ValidationError(f"{what} must be >= {minimum}, got {number}")
    return number


def _model_number(value, what: str) -> float:
    """A number of a model file as a float; a string or a bool, which
    ``float`` would parse or read as 0 or 1, is refused with ModelError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ModelError(f"{what} {value!r} is not a number")
    return float(value)


def _vertex_id(v) -> int:
    return check_integer(v, "vertex id")


def build_graph(vertex_count: int, edges, local_dim: int = 2) -> SpinGraph:
    vertex_count = check_integer(vertex_count, "vertex_count", 1)
    local_dim = check_integer(local_dim, "local_dim", 2)
    canon = set()
    adj = [[] for _ in range(vertex_count)]
    for e in edges:
        u, v = _vertex_id(e[0]), _vertex_id(e[1])
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


def check_beta(beta: float) -> None:
    """Refuse an inverse temperature that is negative or not finite."""
    # the certificates hold for 0 <= beta < beta_c, and a negative beta
    # would pass their beta < beta_c test; a nan fails both comparisons
    if not 0.0 <= beta < math.inf:
        raise ValidationError(f"beta must be finite and >= 0, got {beta}")


@dataclass(frozen=True)
class Hamiltonian:
    graph: SpinGraph
    terms: tuple[InteractionTerm, ...]
    k: int
    interaction_class: FiniteRange | PowerLaw
    beta: float

    def __post_init__(self):
        check_beta(self.beta)

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
    support = tuple(sorted(map(_vertex_id, support)))
    # a constant term would be counted in both H_L and log Z_{L^c}
    if not support:
        raise ValidationError("term support is empty")
    if len(set(support)) != len(support):
        raise ValidationError(f"term support has repeated vertices: {support}")
    graph.check_regions(support)
    matrix = np.asarray(matrix, dtype=complex)
    dim = graph.local_dim ** len(support)
    if matrix.shape != (dim, dim):
        raise ValidationError(
            f"term on {support}: matrix shape {matrix.shape}, expected {(dim, dim)}"
        )
    if not is_hermitian_matrix(matrix):
        defect = hermiticity_defect(matrix)
        raise ValidationError(f"term on {support} is not Hermitian (defect {defect:.3e})")
    return InteractionTerm(support, matrix, operator_norm(matrix), graph.diameter_of(support))


def build_hamiltonian(graph: SpinGraph, terms, interaction_class, beta: float,
                      rescale: bool = False) -> Hamiltonian:
    """Validate terms against the locality and normalization assumptions.

    ``terms`` is an iterable of (support, matrix) pairs.  With ``rescale``
    the per-vertex energy scale g is divided out of the terms and folded
    into beta, so the normalized convention g = 1 holds.
    """
    built = _canonical_terms(_make_term(graph, support, matrix) for support, matrix in terms)
    k = max((len(t.support) for t in built), default=1)

    if isinstance(interaction_class, FiniteRange):
        check_integer(interaction_class.r, "finite range r", 1)
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


def check_alpha(alpha: float) -> None:
    """Refuse a power-law exponent that is not a positive real number (a
    nan included)."""
    if isinstance(alpha, bool) or not (isinstance(alpha, numbers.Real) and alpha > 0):
        raise ValidationError(f"power-law exponent alpha must be positive, got {alpha}")


def _validate_power_law_tails(ham: Hamiltonian, alpha: float):
    check_alpha(alpha)
    # the profile stops at the largest finite diameter; a term of infinite
    # diameter stays in the tail at every R while R^-alpha falls to zero
    for t in ham.terms:
        if not math.isfinite(t.diameter) and t.norm > NORM_TOL:
            raise ValidationError(
                f"term on {t.support} (norm {t.norm:.6g}) joins disconnected vertices: "
                "its tail exceeds R^-alpha at large R"
            )
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
    l = check_integer(l, "l", 1)
    best = 0.0
    for v in range(ham.graph.vertex_count):
        s = sum(t.norm for t in ham.terms if v in t.support and t.diameter == l)
        best = max(best, s)
    return best


# ---------------------------------------------------------------------------
# model file I/O

def _parse_interaction_class(spec) -> FiniteRange | PowerLaw:
    if isinstance(spec, dict) and len(spec) == 1:
        if "finite_range" in spec:
            r = check_integer(spec["finite_range"], "interaction_class finite_range")
            return FiniteRange(r)
        if "power_law" in spec:
            return PowerLaw(_model_number(spec["power_law"], "interaction_class power_law"))
    raise ModelError(f"bad interaction_class entry: {spec!r}")


def pauli_string(support, letters: str, local_dim: int
                 ) -> tuple[tuple[int, ...], str, np.ndarray]:
    """The Pauli string ``letters`` with letter i on vertex ``support[i]``,
    as (support, letters, matrix) sorted by vertex id: the matrix acts on
    the sorted support, the qubit of the lowest vertex first.

    Refuses, with ModelError, qudits other than qubits and a string that is
    empty, has a letter outside I, X, Y, Z or a length other than the
    support's, and, with ValidationError, a vertex id that is not an
    integer or appears twice.
    """
    if local_dim != 2:
        raise ModelError("pauli terms require local_dim = 2")
    support = tuple(map(_vertex_id, support))
    if not letters or set(letters) - set(PAULI):
        raise ModelError(f"bad Pauli string {letters!r}: expected letters from I, X, Y, Z")
    if len(letters) != len(support):
        raise ModelError(f"pauli string {letters!r} does not match support {list(support)}")
    if len(set(support)) != len(support):
        raise ValidationError(f"support has repeated vertices: {list(support)}")
    support, letters = zip(*sorted(zip(support, letters)))
    mat = functools.reduce(np.kron, [PAULI[c] for c in letters], np.ones((1, 1), dtype=complex))
    return support, "".join(letters), mat


def _term_matrix(entry, support, local_dim: int) -> np.ndarray:
    try:
        if "pauli" in entry:
            _, _, mat = pauli_string(support, entry["pauli"], local_dim)
            return _model_number(entry.get("coeff", 1.0), "coeff") * mat
        if "matrix" in entry:
            dim = local_dim ** len(support)
            flat = entry["matrix"]
            if len(flat) != dim * dim:
                raise ModelError(f"matrix for support {support} has {len(flat)} entries, expected {dim * dim}")
            vals = np.array([
                complex(_model_number(re, "matrix entry"), _model_number(im, "matrix entry"))
                for re, im in flat
            ])
            return vals.reshape(dim, dim)
    except ModelError:
        raise
    except (TypeError, ValueError) as exc:
        raise ModelError(f"malformed term on support {support}: {exc!r}") from exc
    raise ModelError(f"term needs 'pauli' or 'matrix': {entry!r}")


def load_model(path, rescale: bool = False) -> Hamiltonian:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"cannot parse {path}: {exc}") from exc
    for key in ("local_dim", "vertices", "edges", "interaction_class", "beta", "terms"):
        if key not in data:
            raise ModelError(f"model file missing key {key!r}")
    for key in ("edges", "terms"):
        # a string or an object would iterate as an empty or a wrong list
        if not isinstance(data[key], list):
            raise ModelError(f"model file field {key!r} must be a JSON array, got {data[key]!r}")
    try:
        # a vertex pair per edge and a list per support; build_graph and
        # _make_term check every integer in them, and the counts
        edges = [(u, v) for u, v in data["edges"]]
        supports = [list(entry["support"]) for entry in data["terms"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed field in {path}: {exc!r}") from exc
    beta = _model_number(data["beta"], "beta")
    graph = build_graph(data["vertices"], edges, data["local_dim"])
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
