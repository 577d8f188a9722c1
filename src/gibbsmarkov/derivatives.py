"""Multilinear cluster derivatives of logarithms of reduced Gibbs weights.

Attach an independent strength parameter a_j to every element of a cluster w
(repeated term indices get separate parameters) and consider

    G(a) = log tr_out( exp(-beta * sum_j a_j h_j) )

where the trace is over the cluster sites outside the kept region and the
logarithm is the matrix logarithm on the kept sites (a plain scalar log when
nothing is kept).  The quantity computed here is the mixed first derivative

    D_w G = d^m G / (da_1 ... da_m) evaluated at a = 0.

Everything is restricted to the union of the supports: sites outside V_w
contribute additive constants to G that vanish under any first derivative.

:func:`cluster_derivative` computes it exactly, for every cluster size and
every kept region, from the Taylor series of log tr exp.  Its inputs are the
traced moments W of the sub-multisets of w.  W depends only on the
sub-multiset alpha and on which sites of V_alpha are kept (a site of
V_w - V_alpha contributes an identity), so clusters that share a
sub-multiset share its moment.  One :class:`MomentTable` per expansion call
memoizes the symmetrized products and the moments, so every cluster and all
four CMI regions read each of them from one place, along with the
log-step workspace those reads need; nothing in it outlives the call that
made it.  Every partial trace here, full ones included, is one
:func:`~gibbsmarkov.operators.trace_out` of a product, every identity
padding one :func:`~gibbsmarkov.operators.add_embedded`, and every product
one :func:`~gibbsmarkov.operators.embedded_product`.
Two kinds of derivative are exact zeros and form no moment: a cluster
whose supports fall apart (the vanishing lemma), and, at m >= 2, one where
no traced site is met by two element occurrences (the proof is in
:func:`cluster_derivative`).  The second kind is 64 of the 234 derivatives
that a seed-0 pass of ``perfbench``'s ``highorder`` workload asks for, 22
of 70 in ``wide`` and 416 of 1 396 in ``local``.
This per-cluster route serves the kept regions of the effective
Hamiltonian and the CMI; log Z and the scalar channel sum over connected
site sets instead (``expansion._scalar_terms``).  An independent
exact reference that shares no combinatorics with this module lives next
to the suite that uses it, in :func:`gibbsmarkov.verify.exact_derivative`.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .operators import SupportedOperator, add_embedded, embed_matrix, embedded_product, trace_out
from .spin_model import Hamiltonian
from .clusters import Cluster, overlap_counts


class MomentTable:
    """Symmetrized products and traced moments of sub-multisets of terms,
    memoized for the cluster derivatives of one expansion call.

    A sub-multiset alpha is keyed by its sorted tuple of term indices.  Its
    product, on V_alpha, is the sum over all orderings of its elements,

        P(empty) = I,   P(alpha) = sum_j alpha_j P(alpha - e_j) h_j,

    with j over the distinct terms of alpha and alpha_j their counts.  Its
    traced moment on a kept set K is

        W(alpha, K) = (-beta)^|alpha| / |alpha|! * tr_{V_alpha - K} P(alpha) / d^|V_alpha - K|,

    tensored with the identity on the sites of K outside V_alpha: one
    :func:`~gibbsmarkov.operators.trace_out` of P(alpha), a full trace when
    K misses V_alpha.  One storage rule holds: every connected product is
    stored once it is formed, except the product of the cluster being
    differentiated, which :meth:`_subset_moments` records.  That one is
    held in a single slot, where every kept region of the cluster (the four
    of a CMI term) reads it, and the next cluster's product replaces it.

    When the supports of alpha fall apart into components alpha_1 ... alpha_c
    (each connected), their terms commute across components, so
    P(alpha) = |alpha|! / prod |alpha_i|! * (x)_i P(alpha_i) and
    W(alpha, K) = prod_i W(alpha_i, K).  Only connected products are kept: a
    disconnected one is formed from its components when a larger product
    asks for it.  Every entry is a function of its key alone, so a shared
    table and a private one give bitwise equal derivatives.

    Besides the entries, the table holds what does not change between
    clusters: V_alpha and the components of each alpha, computed once; the
    recorded cluster and its held product; and the block matrix of
    :func:`cluster_derivative`'s log step, one per cluster size and kept
    dimension.  The last two make a table serve one thread at a time.  All
    of it goes with the table.
    """

    def __init__(self, ham: Hamiltonian):
        self.ham = ham
        self._products: dict = {}
        # kept -> {alpha: W(alpha, kept)}: one (kept, alpha) key tuple per
        # entry would take 5 MB more for H_eff of the 6x6 grid at order 5
        self._moments: dict = {}
        self._shapes: dict = {}
        self._supports: dict = {}
        self._blocks: dict = {}
        self._held: tuple = ((), None)  # (recorded cluster, its (V, P) or None)

    def _shape(self, alpha) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(V_alpha, the connected components of alpha, sorted, when it has
        two or more, else ()).  The table holds one entry per alpha it
        meets, so a connected alpha stores no copy of itself, and equal
        supports share one tuple (4 MB less for H_eff of the 6x6 grid at
        order 5)."""
        hit = self._shapes.get(alpha)
        if hit is not None:
            return hit
        terms = self.ham.terms
        parts: list = []  # (sites, elements), pairwise disjoint in sites
        for i in alpha:
            sites, elements = set(terms[i].support), [i]
            apart = []
            for part in parts:
                if part[0] & sites:
                    sites |= part[0]
                    elements = part[1] + elements
                else:
                    apart.append(part)
            parts = apart + [(sites, elements)]
        support = tuple(sorted(set().union(*(sites for sites, _ in parts))))
        support = self._supports.setdefault(support, support)
        components = tuple(sorted(tuple(sorted(e)) for _, e in parts)) if len(parts) > 1 else ()
        hit = self._shapes[alpha] = support, components
        return hit

    def _steps(self, alpha):
        """(count, V, P(alpha - e_j), h_j) for each distinct term j of alpha."""
        terms = self.ham.terms
        for pos, i in enumerate(alpha):
            if pos == 0 or alpha[pos - 1] != i:
                yield (alpha.count(i), *self._product(alpha[:pos] + alpha[pos + 1:]), terms[i])

    def _product(self, alpha) -> tuple[tuple[int, ...], np.ndarray]:
        """(V_alpha, P(alpha)) for a nonempty alpha.  A connected product is
        stored once formed, unless alpha is the recorded cluster: its
        product goes to the one-slot hold."""
        hit = self._products.get(alpha)
        if hit is not None:
            return hit
        top, held = self._held
        if alpha == top and held is not None:
            return held
        d = self.ham.local_dim
        support, parts = self._shape(alpha)
        if parts:
            sites, prod = self._product(parts[0])
            for part in parts[1:]:
                part_sites, part_prod = self._product(part)
                joint = tuple(sorted(sites + part_sites))
                prod = embedded_product(prod, _positions(sites, joint), part_prod,
                                        _positions(part_sites, joint), len(joint), d)
                sites = joint
            count = math.factorial(len(alpha))
            for part in parts:
                count //= math.factorial(len(part))
            return support, count * prod
        if len(alpha) == 1:
            hit = support, self.ham.terms[alpha[0]].matrix
        else:
            n = len(support)
            prod = np.zeros((d ** n, d ** n), dtype=complex)
            for count, sites, rest, term in self._steps(alpha):
                step = embedded_product(rest, _positions(sites, support), term.matrix,
                                        _positions(term.support, support), n, d)
                prod += count * step if count > 1 else step
            hit = support, prod
        if alpha == top:
            self._held = alpha, hit
        else:
            self._products[alpha] = hit
        return hit

    def moment(self, alpha, kept) -> np.ndarray:
        """W(alpha, kept) on the sorted site tuple ``kept``, which must hold
        every kept site of V_alpha."""
        column = self._moments.get(kept)
        if column is None:
            column = self._moments[kept] = {}
        hit = column.get(alpha)
        if hit is not None:
            return hit
        d, m = self.ham.local_dim, len(alpha)
        support, parts = self._shape(alpha)
        own = tuple(v for v in kept if v in support)
        if parts:
            # commuting pieces on disjoint sites: their product is exact
            hit = functools.reduce(np.matmul, [self.moment(p, kept) for p in parts])
        elif own != kept:
            base = self.moment(alpha, own)
            hit = embed_matrix(base, [kept.index(v) for v in own], len(kept), d)
        else:
            coeff = (-self.ham.beta) ** m / math.factorial(m) / d ** (len(support) - len(own))
            prod = self._product(alpha)[1]
            keep = [support.index(v) for v in own]
            hit = coeff * trace_out(prod, keep, len(support), d)
        column[alpha] = hit
        return hit

    def _subset_moments(self, term_indices, kept) -> list[np.ndarray]:
        """W(alpha, kept) for the sub-multisets alpha that the nonempty
        subsets of the elements select, in :func:`_subset_layout` order.
        The cluster is recorded first, so its own product is held rather
        than stored; a new cluster empties the hold."""
        if self._held[0] != term_indices:
            self._held = term_indices, None
        pickers = _subset_layout(len(term_indices))[0]
        return [self.moment(pick(term_indices), kept) for pick in pickers]

    def _log_block(self, m: int, dim: int) -> np.ndarray:
        """The block matrix of :func:`cluster_derivative`'s log step for m
        elements and kept dimension ``dim``, indexed by the subsets in
        :func:`_subset_layout` order.  Every cluster of that shape
        overwrites the same blocks, so the rest stays zero and the array is
        reused as it is."""
        block = self._blocks.get((m, dim))
        if block is None:
            n = 1 << m
            block = self._blocks[m, dim] = np.zeros((n, dim, n, dim), dtype=complex)
        return block


def _positions(sites, support) -> list[int]:
    """The position in the sorted tuple ``support`` of each of ``sites``."""
    return [support.index(v) for v in sites]


def _traced_apart(ham: Hamiltonian, term_indices, kept_set) -> bool:
    """Whether no traced site of the cluster (a site of V_w outside
    ``kept_set``) is met by two of its element occurrences, a repeated term
    counting once per occurrence.  At m >= 2 the cluster derivative is then
    exactly zero (see :func:`cluster_derivative`)."""
    traced = [v for i in term_indices for v in ham.terms[i].support if v not in kept_set]
    return len(traced) == len(set(traced))


@functools.lru_cache(maxsize=None)
def _subset_layout(m: int):
    """The 2^m subsets of m elements in order of size, so that the empty set
    is first and the full set last: for each nonempty one, an itemgetter
    that picks its elements out of a tuple as a tuple; the index arrays
    (s, t, b) of the pairs with t a nonempty proper subset of s and
    b = s - t; and the index of the first subset of each size 0..m."""
    masks = sorted(range(1 << m), key=lambda x: (x.bit_count(), x))
    index = {x: i for i, x in enumerate(masks)}
    members = (tuple(j for j in range(m) if x >> j & 1) for x in masks[1:])
    # a singleton is picked as a one-element slice, so it comes out a tuple
    pickers = tuple(
        operator.itemgetter(*e) if len(e) > 1 else operator.itemgetter(slice(e[0], e[0] + 1))
        for e in members
    )
    pairs = [
        (index[x], index[y], index[x ^ y])
        for x in masks for y in masks if y & ~x == 0 and y not in (0, x)
    ]
    s, t, b = np.array(pairs, dtype=np.intp).reshape(-1, 3).T
    for shared in (s, t, b):
        shared.setflags(write=False)
    sizes = [x.bit_count() for x in masks]
    return pickers, s, t, b, tuple(sizes.index(q) for q in range(m + 1))


def cluster_derivative(
    ham: Hamiltonian, cluster: Cluster, kept_region, moments: MomentTable | None = None
) -> np.ndarray:
    """Mixed first derivative D_w G restricted to the kept sites in V_w,
    exact via the Taylor series of log tr exp.

    Returns a matrix on kept_region intersect V_w (1x1 when that is empty).
    ``moments`` is the table of the expansion call this cluster belongs to;
    without one, a private table is made, and the result is bitwise the same.

    Let B run over the subsets of the m cluster elements.  The multilinear
    coefficient of prod_{j in B} a_j in tr_traced exp(-beta sum a_j h_j) / d_traced
    is the moment W_B of the sub-multiset that B selects, read from the
    table (see :class:`MomentTable`).  Composing with
    log(I + X) = sum_q (-1)^(q-1) X^q / q, the coefficient of X^q is the sum
    over ordered partitions of the elements into q nonempty blocks, first
    block on the left.  That is the (full, empty) block of M^q for the
    block-nilpotent matrix with M[S, S - B] = W_B for nonempty B in S, so

        D_w G = sum_{q=1..m} (-1)^(q-1) / q * (M^q)[full, empty],

    M e_empty is the column of moments W_S itself, so the chain starts there
    and takes m - 1 products of M, of size 2^m d^|kept|, with one block
    column.  The blocks of M sit at the same places for every cluster of m
    elements, so the table keeps one M per (m, d^|kept|) and each cluster
    overwrites its blocks in place.

    With nothing kept (a CMI piece whose region misses V_w) the moments are
    numbers, and the same chain runs at kept dimension 1.

    When nothing is traced, G = -beta sum_j a_j h_j is linear, so D_w G is
    -beta h_j at m = 1; no moment is formed.  At m >= 2 no moment is formed
    either when no traced site is met by two element occurrences (a
    repeated term counts once per occurrence, :func:`_traced_apart`), and
    D_w G is exactly zero.  Proof: D_w G is the coefficient of
    a_1 ... a_m in log F, F = tr_T exp(-beta sum_j a_j h_j) / d_T with T the
    traced sites, and through the series of log(I + X) it reads only the
    coefficients of F at monomials at most linear in each a_j.  In such a
    monomial every element appears at most once, and the traced footprints
    T_j = supp(h_j) - K of distinct elements are disjoint, so the partial
    trace factorizes: each h_j becomes tr_{T_j} h_j / d_{T_j}.  F thus
    agrees with e^M, M = -beta sum_j a_j tr_{T_j} h_j / d_{T_j}, on every
    such monomial, and log e^M = M is linear in a.  Nothing traced is the
    case T = empty.  Nor is a moment formed when the supports of w fall
    apart: the components act on disjoint sites, so the traced weight is a
    tensor product, G is a sum of one term per component, and every mixed
    derivative across two components is exactly zero (the vanishing lemma).
    """
    d, m = ham.local_dim, cluster.size
    kept_set = set(kept_region)
    kept = tuple(v for v in cluster.support if v in kept_set)
    dim = d ** len(kept)
    if m == 1 and len(kept) == len(cluster.support):
        return -ham.beta * ham.terms[cluster.term_indices[0]].matrix
    if m > 1 and _traced_apart(ham, cluster.term_indices, kept_set):
        return np.zeros((dim, dim), dtype=complex)
    if moments is None:
        moments = MomentTable(ham)
    if moments._shape(cluster.term_indices)[1]:
        return np.zeros((dim, dim), dtype=complex)
    _, s, t, b, starts = _subset_layout(m)
    n = 1 << m
    weights = np.empty((n, dim, dim), dtype=complex)
    weights[1:] = moments._subset_moments(cluster.term_indices, kept)
    # M e_empty is the moment column itself, so the chain starts at q = 2
    # and never reads the empty-set column of M, which stays zero
    column = weights[1:].reshape((n - 1) * dim, dim)
    total = np.zeros((dim, dim), dtype=complex)
    total += column[-dim:]  # the q = 1 term
    block = moments._log_block(m, dim)
    block[s, :, t, :] = weights[b]
    block = block.reshape(n * dim, n * dim)
    # column q lives on the subsets of at least q elements, which the size
    # ordering puts last, so each product skips the rows and columns it
    # would only multiply by zero
    for q in range(2, m + 1):
        column = block[starts[q] * dim:, starts[q - 1] * dim:] @ column
        total += ((-1.0) ** (q - 1) / q) * column[-dim:]
    return total


# ---------------------------------------------------------------------------
# norm bounds and the CMI combination


def derivative_norm_bound(ham: Hamiltonian, cluster: Cluster) -> float:
    """Certified ceiling on ||D_w G||: half the product over elements of
    4 * beta * N_s * ||h_s||, with N_s the number of other elements whose
    support overlaps element s."""
    counts = overlap_counts(ham, cluster)
    prod = 1.0
    for idx, n_s in zip(cluster.term_indices, counts):
        prod *= 4.0 * ham.beta * max(n_s, 1) * ham.terms[idx].norm
    return 0.5 * prod


def cmi_derivative_norm_bound(ham: Hamiltonian, cluster: Cluster) -> float:
    """Ceiling on the four-region log combination: 2 * (4 beta)^m * prod N_s ||h_s||."""
    counts = overlap_counts(ham, cluster)
    prod = 1.0
    for idx, n_s in zip(cluster.term_indices, counts):
        prod *= max(n_s, 1) * ham.terms[idx].norm
    return 2.0 * (4.0 * ham.beta) ** cluster.size * prod


def cmi_cluster_term(
    ham: Hamiltonian,
    cluster: Cluster,
    a_region,
    b_region,
    c_region,
    moments: MomentTable | None = None,
) -> SupportedOperator:
    """Four-region combination of cluster derivatives,

        D_w[ G_AB + G_BC - G_ABC - G_B ],

    each piece kept on the respective region and added with its sign, in
    place, onto (A u B u C) intersect V_w.  At m >= 2 a region whose traced
    sites are each met by at most one element occurrence (one that keeps
    all of V_w among them) contributes exactly zero (see
    :func:`cluster_derivative`) and is skipped.  The pieces read one moment
    table, ``moments`` when given, else a private one, so the cluster's
    product is formed once for all of them."""
    regions = (
        (tuple(a_region) + tuple(b_region), 1.0),
        (tuple(b_region) + tuple(c_region), 1.0),
        (tuple(a_region) + tuple(b_region) + tuple(c_region), -1.0),
        (tuple(b_region), -1.0),
    )
    abc = set(regions[2][0])
    target = tuple(v for v in cluster.support if v in abc)
    if not target:
        raise ValueError("cluster does not intersect A u B u C")
    if moments is None:
        moments = MomentTable(ham)
    d = ham.local_dim
    acc = np.zeros((d ** len(target), d ** len(target)), dtype=complex)
    for region, sign in regions:
        rset = set(region)
        if cluster.size > 1 and _traced_apart(ham, cluster.term_indices, rset):
            continue
        positions = [p for p, v in enumerate(target) if v in rset]
        mat = cluster_derivative(ham, cluster, region, moments=moments)
        add_embedded(acc, mat, positions, len(target), d, sign)
    return SupportedOperator(target, acc, local_dim=d)
