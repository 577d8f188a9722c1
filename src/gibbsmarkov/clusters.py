"""Enumeration and classification of interaction-term multisets ("clusters").

A cluster is a multiset of term indices into ``Hamiltonian.terms``.  Its
multiplicity n_w counts the ordered sequences realizing the multiset.
Connectivity is decided on the intersection graph of the supports, with
anchor regions attached as virtual nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .spin_model import Hamiltonian


@dataclass(frozen=True)
class Cluster:
    """A sorted multiset of term indices plus derived data."""

    term_indices: tuple[int, ...]
    support: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.term_indices)

    @property
    def multiplicity(self) -> int:
        """Number of ordered sequences realizing this multiset."""
        n = math.factorial(len(self.term_indices))
        run = 1
        prev = None
        for idx in self.term_indices:
            if idx == prev:
                run += 1
                n //= run
            else:
                run = 1
            prev = idx
        return n


def make_cluster(ham: Hamiltonian, term_indices) -> Cluster:
    idx = tuple(sorted(int(i) for i in term_indices))
    support = set()
    for i in idx:
        support.update(ham.terms[i].support)
    return Cluster(idx, tuple(sorted(support)))


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _components(ham: Hamiltonian, cluster: Cluster, anchors=()) -> _UnionFind:
    """Union-find over cluster elements plus optional anchor vertex sets.

    Anchor i is node size+i; an element is joined to an anchor when its
    support intersects the anchor set.
    """
    m = cluster.size
    uf = _UnionFind(m + len(anchors))
    supports = [set(ham.terms[i].support) for i in cluster.term_indices]
    for a in range(m):
        for b in range(a + 1, m):
            if supports[a] & supports[b]:
                uf.union(a, b)
    for j, anchor in enumerate(anchors):
        aset = set(anchor)
        for a in range(m):
            if supports[a] & aset:
                uf.union(a, m + j)
    return uf


def is_connected(ham: Hamiltonian, cluster: Cluster) -> bool:
    """No split w = w1 + w2 with disjoint supports exists."""
    if cluster.size == 0:
        return False
    uf = _components(ham, cluster)
    root = uf.find(0)
    return all(uf.find(i) == root for i in range(cluster.size))


def is_connected_to(ham: Hamiltonian, cluster: Cluster, region) -> bool:
    """No split w = w1 + w2 with (region u V_w1) disjoint from V_w2 exists."""
    if cluster.size == 0:
        return True
    uf = _components(ham, cluster, anchors=(region,))
    anchor = uf.find(cluster.size)
    return all(uf.find(i) == anchor for i in range(cluster.size))


def links_regions(ham: Hamiltonian, cluster: Cluster, a_region, b_region) -> bool:
    """Connected cluster whose supports carry a path from A to B.

    For a connected cluster this is equivalent to touching both regions.
    """
    if not is_connected(ham, cluster):
        return False
    a_set, b_set = set(a_region), set(b_region)
    sup = set(cluster.support)
    return bool(sup & a_set) and bool(sup & b_set)


def _max_term_diameter(ham: Hamiltonian) -> float:
    return max((t.diameter for t in ham.terms), default=0.0)


def _candidates_near(ham: Hamiltonian, anchors, m: int):
    """Indices of terms that could belong to a size-m cluster connected to the
    anchors: each support must be within (m-1) * max_diam hops of every anchor.
    """
    reach = (m - 1) * max(_max_term_diameter(ham), 1.0)
    out = []
    for i, t in enumerate(ham.terms):
        ok = True
        for anchor in anchors:
            if ham.graph.distance(t.support, anchor) > reach:
                ok = False
                break
        if ok:
            out.append(i)
    return out


def enumerate_connected_to_region(ham: Hamiltonian, region, m: int):
    """Stream the size-m clusters connected to ``region``, in canonical
    (lexicographic multiset) order, each exactly once."""
    if m < 1:
        raise ValueError("m must be >= 1")
    cand = _candidates_near(ham, (region,), m)
    for combo in combinations_with_replacement(cand, m):
        c = make_cluster(ham, combo)
        if is_connected_to(ham, c, region):
            yield c


def enumerate_connected_to_vertex(ham: Hamiltonian, v: int, m: int):
    yield from enumerate_connected_to_region(ham, (v,), m)


def enumerate_connected(ham: Hamiltonian, m: int):
    """Stream all size-m connected clusters in canonical order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    for combo in combinations_with_replacement(range(len(ham.terms)), m):
        c = make_cluster(ham, combo)
        if is_connected(ham, c):
            yield c


def enumerate_linking(ham: Hamiltonian, a_region, c_region, m: int):
    """Stream the connected size-m clusters with a support path from A to C."""
    if m < 1:
        raise ValueError("m must be >= 1")
    a_set, c_set = set(a_region), set(c_region)
    if a_set & c_set:
        raise ValueError("regions must be disjoint")
    max_diam = max(_max_term_diameter(ham), 1.0)
    d_ac = ham.graph.distance(a_region, c_region)
    if m * max_diam < d_ac:
        return
    cand = _candidates_near(ham, (a_region, c_region), m)
    for combo in combinations_with_replacement(cand, m):
        c = make_cluster(ham, combo)
        if links_regions(ham, c, a_region, c_region):
            yield c


def overlap_counts(ham: Hamiltonian, cluster: Cluster) -> tuple[int, ...]:
    """For each multiset element, the number of other elements whose support
    intersects it.  Repeated copies of the same term count toward each other
    (the conservative reading for the derivative norm bounds)."""
    supports = [set(ham.terms[i].support) for i in cluster.term_indices]
    counts = []
    for s in range(len(supports)):
        n = sum(
            1
            for t in range(len(supports))
            if t != s and supports[s] & supports[t]
        )
        counts.append(n)
    return tuple(counts)


def counting_bound(ham: Hamiltonian, complement_size: int, m: int) -> float:
    """Closed-form ceiling on the number of clusters attached to a region of
    the given size: |L^c| * (3 * 2^k * d_G^{rk})^m."""
    r = ham.range_r
    return complement_size * (3.0 * 2 ** ham.k * ham.graph.degree ** (r * ham.k)) ** m


def count_bound_check(ham: Hamiltonian, complement, m: int) -> tuple[int, float]:
    """Exhaustively count clusters that are connected with support inside the
    complement, or that link the region to its complement; compare with the
    closed-form bound."""
    comp = sorted(set(int(v) for v in complement))
    region = [v for v in range(ham.graph.vertex_count) if v not in set(comp)]
    count = 0
    for combo in combinations_with_replacement(range(len(ham.terms)), m):
        c = make_cluster(ham, combo)
        if is_connected(ham, c) and set(c.support) <= set(comp):
            count += 1
        elif links_regions(ham, c, region, comp):
            count += 1
    return count, counting_bound(ham, len(comp), m)
