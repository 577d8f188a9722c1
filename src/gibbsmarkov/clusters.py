"""Enumeration and classification of interaction-term multisets ("clusters").

A cluster is a multiset of term indices into ``Hamiltonian.terms``.  Its
multiplicity n_w counts the ordered sequences realizing the multiset.
Every enumerator runs one grower, ``_grow``, whose cost scales with the
clusters it emits; the scalar series grows connected site sets instead
(``_site_sets``).  The predicates ``is_connected``, ``is_connected_to``
and ``links_regions`` are the independent reference for the enumerators.
They split the supports into connected components with one splitter,
``_split``, an anchor region joining as one more site set; the moment
table of ``derivatives`` splits its sub-multisets with it too.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

from .spin_model import Hamiltonian, ValidationError, check_integer


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
        return _multinomial(collections.Counter(self.term_indices).values())


def _multinomial(counts) -> int:
    """(sum of counts)! / prod(count!): the orderings of a multiset with
    these multiplicities, or the ways to deal a sequence into these sizes."""
    return math.factorial(sum(counts)) // math.prod(math.factorial(k) for k in counts)


def make_cluster(ham: Hamiltonian, term_indices) -> Cluster:
    idx = tuple(sorted(check_integer(i, "term index", 0) for i in term_indices))
    if idx and idx[-1] >= len(ham.terms):
        raise ValidationError(f"term index must be < {len(ham.terms)}, got {idx[-1]}")
    support = set()
    for i in idx:
        support.update(ham.terms[i].support)
    return Cluster(idx, tuple(sorted(support)))


def _split(site_sets) -> list[tuple[set[int], list[int]]]:
    """The connected components of a sequence of site sets, two sets joined
    when they share a site: for each component, the union of its sets and
    their positions in ``site_sets``, ascending.  No set gives no
    component, and an empty set is a component of its own."""
    parts: list = []  # pairwise disjoint in sites
    for pos, sites in enumerate(site_sets):
        sites, positions = set(sites), [pos]
        apart = []
        for part in parts:
            if part[0] & sites:
                sites |= part[0]
                positions += part[1]
            else:
                apart.append(part)
        parts = apart + [(sites, positions)]
    return [(sites, sorted(positions)) for sites, positions in parts]


def _supports(ham: Hamiltonian, cluster: Cluster) -> list[tuple[int, ...]]:
    return [ham.terms[i].support for i in cluster.term_indices]


def is_connected(ham: Hamiltonian, cluster: Cluster) -> bool:
    """No split w = w1 + w2 with disjoint supports exists (and w is not
    empty)."""
    return len(_split(_supports(ham, cluster))) == 1


def is_connected_to(ham: Hamiltonian, cluster: Cluster, region) -> bool:
    """No split w = w1 + w2 with (region u V_w1) disjoint from V_w2 exists:
    the region, as one more site set, joins every element."""
    return len(_split(_supports(ham, cluster) + [region])) == 1


def links_regions(ham: Hamiltonian, cluster: Cluster, a_region, b_region) -> bool:
    """Connected cluster whose supports carry a path from A to B.

    For a connected cluster this is equivalent to touching both regions.
    """
    parts = _split(_supports(ham, cluster))
    return len(parts) == 1 and all(parts[0][0].intersection(r) for r in (a_region, b_region))


def _grow(ham: Hamiltonian, m: int, seeds=None, anchor=()) -> list[Cluster]:
    """Size-m clusters that hold a term meeting ``seeds`` (default: any
    term) and are connected to ``anchor`` (connected outright when it is
    empty), in the sorted order in which a scan over all multisets of term
    indices would meet them.

    Level j+1 is {w + t : w in level j, t whose support meets V_w u anchor}.
    This is exhaustive: root a spanning tree of a wanted cluster's
    intersection graph at the anchor (at a seed element when there is none).
    Some leaf is not the root; without it the cluster is still wanted, one
    size smaller, and the leaf meets that smaller support or the anchor.

    Each multiset of a level carries V_w as a bitmask over the vertices, so
    the terms a level reaches are found once per distinct V_w u anchor and
    each emitted cluster's support is read off its mask.
    """
    m = check_integer(m, "cluster size", 1)
    terms = ham.terms
    masks, touching = _term_index(ham, range(ham.graph.vertex_count))
    anchor_mask = sum(1 << v for v in set(anchor))
    near: dict[int, set[int]] = {}  # V_w u anchor -> the terms meeting it
    level = {
        (i,): mask for i, mask in masks.items()
        if seeds is None or seeds.intersection(terms[i].support)
    }
    for _ in range(m - 1):
        grown: dict[tuple[int, ...], int] = {}
        for w, mask in level.items():
            reach = mask | anchor_mask
            nbrs = near.get(reach)
            if nbrs is None:
                nbrs = near[reach] = {t for v in _bits(reach) for t in touching.get(v, ())}
            for t in nbrs:
                grown.setdefault(tuple(sorted(w + (t,))), mask | masks[t])
        level = grown
    support = functools.cache(_bits)  # clusters on one V_w share its tuple
    return [Cluster(w, support(level[w])) for w in sorted(level)]


def _site_sets(ham: Hamiltonian, region, order: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """The connected term unions V inside the vertex set ``region`` with a
    minimal connected cover c(V), the fewest terms of a connected cluster
    with union V, of at most ``order``: V's bitmask -> (c(V), the indices of
    the terms inside V, ascending).

    Level 1 is the supports of the terms inside ``region``; level j+1 adds
    V u supp(t) for each new V of level j and each term t meeting it.  By
    the leaf argument of :func:`_grow`, V first appears at level c(V).
    """
    masks, touching = _term_index(ham, region)
    found: dict[int, tuple[int, tuple[int, ...]]] = {}
    grown = masks.values()  # the sets of level 1
    for level in range(1, order + 1):
        frontier = []
        for mask in grown:
            if mask not in found:
                meeting = sorted({t for v in _bits(mask) for t in touching[v]})
                found[mask] = level, tuple(t for t in meeting if not masks[t] & ~mask)
                frontier.append((mask, meeting))
        # lazy, so the level after the last is never formed
        grown = (v | masks[t] for v, meeting in frontier for t in meeting)
    return found


def _term_index(ham: Hamiltonian, region) -> tuple[dict[int, int], dict[int, list[int]]]:
    """The vertex bitmask of each term inside the vertex set ``region``, by
    term index, and the indices of those terms that touch each vertex, in
    ascending order."""
    inside = sum(1 << v for v in set(region))
    masks = {i: sum(1 << v for v in t.support) for i, t in enumerate(ham.terms)}
    masks = {i: mask for i, mask in masks.items() if not mask & ~inside}
    touching: dict[int, list[int]] = {}
    for i in masks:
        for v in ham.terms[i].support:
            touching.setdefault(v, []).append(i)
    return masks, touching


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def enumerate_connected_to_region(ham: Hamiltonian, region, m: int):
    """Stream the size-m clusters connected to ``region``, in canonical
    (lexicographic multiset) order, each exactly once."""
    (region,) = ham.graph.check_regions(region)
    yield from _grow(ham, m, seeds=set(region), anchor=region)


def enumerate_connected(ham: Hamiltonian, m: int):
    """Stream all size-m connected clusters in canonical order."""
    yield from _grow(ham, m)


def enumerate_linking(ham: Hamiltonian, a_region, c_region, m: int):
    """Stream the connected size-m clusters with a support path from A to C:
    those grown from the terms meeting A that also meet C."""
    m = check_integer(m, "cluster size", 1)
    a_region, c_region = ham.graph.check_regions(a_region, c_region)
    max_diam = max([t.diameter for t in ham.terms] + [1.0])
    if m * max_diam < ham.graph.distance(a_region, c_region):
        return
    c_set = set(c_region)
    for c in _grow(ham, m, seeds=set(a_region)):
        if c_set.intersection(c.support):
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
    """Count the connected clusters that meet the complement (those inside
    it, and those linking it to the region); compare with the closed-form
    bound."""
    (complement,) = ham.graph.check_regions(complement)
    comp = set(complement)
    count = sum(1 for c in enumerate_connected(ham, m) if comp.intersection(c.support))
    return count, counting_bound(ham, len(comp), m)
