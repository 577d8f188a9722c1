"""Cross-checks of the cluster derivative against two independent references.

The independent oracle here differentiates G(a) = log tr_out exp(-beta sum a_j h_j)
numerically with scipy's expm/logm, built from scratch rather than through any
of the library's own weight helpers.  The exact reference
``gibbsmarkov.verify.exact_derivative`` reads D_w G off a nilpotent block
construction and shares no combinatorics with ``beta-taylor``.
"""

import functools
import math
from itertools import combinations, permutations, product

import numpy as np
import pytest
from scipy.linalg import expm, logm

from gibbsmarkov.bounds import critical_beta
from gibbsmarkov.clusters import enumerate_connected, enumerate_linking, make_cluster
from gibbsmarkov.derivatives import (
    MomentTable,
    _traced_apart,
    cluster_derivative,
    cmi_cluster_term,
    cmi_derivative_norm_bound,
    derivative_norm_bound,
)
from gibbsmarkov.expansion import effective_hamiltonian
from gibbsmarkov.operators import embed, embed_matrix, operator_norm
from gibbsmarkov.random_models import random_chain, random_grid
from gibbsmarkov.spin_model import (
    FiniteRange,
    PAULI,
    ValidationError,
    build_graph,
    build_hamiltonian,
)
from gibbsmarkov import verify
from gibbsmarkov.verify import exact_derivative, run_suite

from conftest import random_hermitian

ZZ = np.kron(PAULI["Z"], PAULI["Z"])
XX = np.kron(PAULI["X"], PAULI["X"])


def chain_ham(terms, n, beta):
    g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    rng = max(max(s) - min(s) for s, _ in terms)
    return build_hamiltonian(g, terms, FiniteRange(max(rng, 1)), beta=beta)


def term_index(ham, support):
    for i, t in enumerate(ham.terms):
        if t.support == tuple(support):
            return i
    raise KeyError(support)


def oracle_dw(ham, cluster, kept_region, step=1e-4):
    """Pure scipy mixed derivative: m nested two-point central differences of
    log tr_out expm(-beta sum a_j h_j) on the cluster support."""
    support = cluster.support
    kept = tuple(v for v in support if v in set(kept_region))
    traced_axes = [i for i, v in enumerate(support) if v not in set(kept)]
    d = ham.local_dim
    mats = [
        embed(ham.terms[i].as_operator(d), support).matrix
        for i in cluster.term_indices
    ]
    m = cluster.size
    n_sites = len(support)

    def ptrace(mat):
        if not traced_axes:
            return mat
        a = mat.reshape((d,) * (2 * n_sites))
        for ax in sorted(traced_axes, reverse=True):
            a = np.trace(a, axis1=ax, axis2=ax + a.ndim // 2)
        dim = d ** len(kept)
        return a.reshape(dim, dim) if kept else a.reshape(1, 1)

    def big_g(coeffs):
        total = sum(c * h for c, h in zip(coeffs, mats))
        red = ptrace(expm(-ham.beta * total))
        if kept:
            return logm(red)
        return np.array([[math.log(red[0, 0].real)]])

    acc = None
    for signs in product((-1.0, 1.0), repeat=m):
        val = math.prod(signs) * big_g([s * step for s in signs])
        acc = val if acc is None else acc + val
    return acc / (2.0 * step) ** m


class TestAgainstScipyOracle:
    def test_straddling_pair(self, rng):
        h1 = random_hermitian(rng, 4, 0.5)
        h2 = random_hermitian(rng, 4, 0.45)
        ham = chain_ham([((0, 1), h1), ((1, 2), h2)], 3, beta=0.31)
        c = make_cluster(ham, (term_index(ham, (0, 1)), term_index(ham, (1, 2))))
        got = cluster_derivative(ham, c, (0,))
        ref = oracle_dw(ham, c, (0,))
        assert np.max(np.abs(got - ref)) < 1e-6

    def test_fully_traced_triple(self, rng):
        h1 = random_hermitian(rng, 4, 0.6)
        h2 = random_hermitian(rng, 4, 0.4)
        ham = chain_ham([((0, 1), h1), ((1, 2), h2)], 3, beta=0.2)
        i, j = term_index(ham, (0, 1)), term_index(ham, (1, 2))
        c = make_cluster(ham, (i, i, j))
        got = cluster_derivative(ham, c, ())
        ref = oracle_dw(ham, c, (), step=5e-3)
        assert abs(got[0, 0] - ref[0, 0]) < 1e-5

    def test_kept_single_site(self, rng):
        h = random_hermitian(rng, 4, 0.9)
        ham = chain_ham([((0, 1), h)], 2, beta=0.5)
        c = make_cluster(ham, (0,))
        got = cluster_derivative(ham, c, (0,))
        ref = oracle_dw(ham, c, (0,))
        assert np.max(np.abs(got - ref)) < 1e-8


class TestSingleElementIdentities:
    def test_fully_traced_is_scaled_trace(self, rng):
        h = random_hermitian(rng, 4, 0.8)
        beta = 0.37
        ham = chain_ham([((0, 1), h)], 2, beta=beta)
        c = make_cluster(ham, (0,))
        got = cluster_derivative(ham, c, ())
        expected = -beta * np.trace(h) / 4.0
        assert abs(got[0, 0] - expected) < 1e-12

    def test_kept_is_scaled_partial_trace(self, rng):
        h = random_hermitian(rng, 4, 0.8)
        beta = 0.41
        ham = chain_ham([((0, 1), h)], 2, beta=beta)
        c = make_cluster(ham, (0,))
        got = cluster_derivative(ham, c, (0,))
        hr = h.reshape(2, 2, 2, 2)
        expected = -beta * np.trace(hr, axis1=1, axis2=3) / 2.0
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_fully_kept_is_bare_term(self, rng):
        h = random_hermitian(rng, 4, 0.8)
        beta = 0.3
        ham = chain_ham([((0, 1), h)], 2, beta=beta)
        c = make_cluster(ham, (0,))
        got = cluster_derivative(ham, c, (0, 1))
        assert np.max(np.abs(got - (-beta) * h)) < 1e-12


class TestMethodAgreement:
    def cases(self, rng):
        h1 = random_hermitian(rng, 4, 0.45)
        h2 = random_hermitian(rng, 4, 0.35)
        h3 = random_hermitian(rng, 2, 0.2)
        ham = chain_ham(
            [((0, 1), h1), ((1, 2), h2), ((2,), h3)], 3, beta=0.25
        )
        i1 = term_index(ham, (0, 1))
        i2 = term_index(ham, (1, 2))
        i3 = term_index(ham, (2,))
        yield ham, make_cluster(ham, (i1,)), (0,)
        yield ham, make_cluster(ham, (i1, i2)), (0,)
        yield ham, make_cluster(ham, (i1, i2, i3)), (0, 1)
        yield ham, make_cluster(ham, (i2, i2)), (1,)
        yield ham, make_cluster(ham, (i1, i3)), ()
        # a kept factor at m = 4 with a repeated term: the partial-trace
        # moments do not commute on the kept site, so their ordering matters
        yield ham, make_cluster(ham, (i1, i1, i2, i3)), (1,)
        # m = 5 and 6
        yield ham, make_cluster(ham, (i1, i1, i2, i2, i3)), (1,)
        yield ham, make_cluster(ham, (i1, i1, i2, i2, i3)), ()
        yield ham, make_cluster(ham, (i1, i1, i2, i2, i3, i3)), (1,)
        # nothing kept (the chain at kept dimension 1) at every m from 1 to 6
        yield ham, make_cluster(ham, (i2,)), ()
        yield ham, make_cluster(ham, (i1, i2, i3)), ()
        yield ham, make_cluster(ham, (i1, i1, i2, i3)), ()
        yield ham, make_cluster(ham, (i1, i1, i2, i2, i3, i3)), ()

    @staticmethod
    def scale(ham, c, bt):
        # disconnected clusters vanish, so compare on the cluster's size
        first_order = ham.beta * max(t.norm for t in ham.terms)
        return max(np.max(np.abs(bt)), first_order ** c.size)

    def test_beta_taylor_vs_exact_reference(self, rng):
        for ham, c, kept in self.cases(rng):
            bt = cluster_derivative(ham, c, kept)
            ref = exact_derivative(ham, c, kept)
            assert np.max(np.abs(bt - ref)) / self.scale(ham, c, bt) < 1e-12

    @staticmethod
    def interleaved(rng):
        """Clusters of different sizes and kept dimensions, in turn on one
        4-site chain: two different m = 5 clusters keep 3 sites, between
        them m = 3 clusters keep 1 or 2 sites, and the m = 5 clusters also
        keep 1 site or none, so every log-step block and plan the table
        keeps is reused by a cluster other than the one that made it."""
        ham = chain_ham(
            [
                ((0, 1), random_hermitian(rng, 4, 0.4)),
                ((1, 2), random_hermitian(rng, 4, 0.3)),
                ((2, 3), random_hermitian(rng, 4, 0.3)),
                ((3,), random_hermitian(rng, 2, 0.2)),
            ],
            4,
            beta=0.25,
        )
        t01, t12, t23, t3 = (term_index(ham, s) for s in ((0, 1), (1, 2), (2, 3), (3,)))
        first = make_cluster(ham, (t01, t12, t23, t23, t3))
        second = make_cluster(ham, (t01, t01, t12, t23, t3))
        yield ham, first, (0, 1, 2)
        yield ham, make_cluster(ham, (t12, t23, t3)), (2,)
        yield ham, second, (0, 1, 2)
        yield ham, make_cluster(ham, (t01, t12, t12)), (1,)
        yield ham, first, (0, 1, 2)
        yield ham, second, (1,)
        yield ham, make_cluster(ham, (t12, t23, t3)), (1, 2)
        yield ham, first, (2,)
        yield ham, first, ()
        yield ham, second, (0, 1, 2)

    def test_shared_table_is_bitwise_equal_to_private(self, rng):
        # one table for every case and every kept region of the model; the
        # cases are visited twice, so the second pass reads cached entries
        for cases in (list(self.cases(rng)), list(self.interleaved(rng))):
            table = MomentTable(cases[0][0])
            refs = {}
            for ham, c, kept in cases:
                if (c.term_indices, kept) not in refs:
                    refs[c.term_indices, kept] = exact_derivative(ham, c, kept)
            for _ in range(2):
                for ham, c, kept in cases:
                    ref = refs[c.term_indices, kept]
                    shared = cluster_derivative(ham, c, kept, moments=table)
                    private = cluster_derivative(ham, c, kept)
                    assert np.array_equal(shared, private)
                    assert np.max(np.abs(shared - ref)) / self.scale(ham, c, shared) < 1e-12

    def test_no_table_outlives_its_call(self, rng):
        # same term layout, different couplings: a cache keyed by term
        # indices that survived one call would leak into the next
        h1, h2 = random_hermitian(rng, 4, 0.45), random_hermitian(rng, 4, 0.35)
        first = chain_ham([((0, 1), h1), ((1, 2), h2), ((2, 3), h1)], 4, beta=0.25)
        second = chain_ham([((0, 1), h2), ((1, 2), h1), ((2, 3), h2)], 4, beta=0.3)
        alone = effective_hamiltonian(second, (1,), 4)
        for ham in (first, second):
            res = effective_hamiltonian(ham, (1,), 4)
            for m, entries in res.boundary_terms.items():
                for c, op in entries:
                    dw = -ham.beta * math.factorial(m) * op.matrix
                    ref = exact_derivative(ham, c, (1,))
                    assert np.max(np.abs(dw - ref)) / self.scale(ham, c, dw) < 1e-12
        assert np.array_equal(res.boundary_operator().matrix, alone.boundary_operator().matrix)


class TestTableMemory:
    @pytest.mark.parametrize("kept", [(), (2,), (2, 3), (1, 2, 3, 4)])
    def test_no_product_of_the_top_size_is_stored(self, kept):
        # the product of the cluster being differentiated is held, not
        # stored: after every size-m cluster, the stored products are the
        # building blocks of size < m only
        ham = random_chain(6, beta=0.5 * critical_beta(2), seed=3)
        for m in (2, 3, 4):
            table = MomentTable(ham)
            for c in enumerate_connected(ham, m):
                cluster_derivative(ham, c, kept, moments=table)
            assert table._products
            assert max(len(alpha) for alpha in table._products) < m

    def test_cmi_regions_form_the_cluster_product_once(self, monkeypatch):
        ham = random_chain(6, beta=0.5 * critical_beta(2), seed=3)
        formed = []
        real = MomentTable._product

        def spy(self, alpha):
            hit = real(self, alpha)
            formed.append((alpha, hit[1]))  # held here, so no array is freed
            return hit

        monkeypatch.setattr(MomentTable, "_product", spy)
        table = MomentTable(ham)
        regions = [(0, 1, 2), (1, 2, 3), (0, 1, 2, 3), (1, 2)]
        shared = 0
        for c in enumerate_linking(ham, (0,), (3,), 4):
            formed.clear()
            cmi_cluster_term(ham, c, (0,), (1, 2), (3,), moments=table)
            # every kept region read the one product formed for the cluster;
            # the regions whose derivative vanishes exactly read nothing
            tops = [array for alpha, array in formed if alpha == c.term_indices]
            read = sum(not _traced_apart(ham, c.term_indices, set(r)) for r in regions)
            if read >= 2:
                assert len(tops) >= 2
                shared += 1
            assert all(array is tops[0] for array in tops)
            assert max((len(alpha) for alpha in table._products), default=0) < 4
        assert shared


class TestScalarMoment:
    def test_one_contraction_matches_sum_over_orderings(self, rng):
        # the full trace of the symmetrized product P(alpha), against the
        # plain sum over all m! orderings, on every sub-multiset of a
        # 4-element cluster with a repeated term
        ham = next(TestMethodAgreement().cases(rng))[0]
        i1, i2, i3 = (term_index(ham, s) for s in [(0, 1), (1, 2), (2,)])
        cluster = (i1, i1, i2, i3)
        d = ham.local_dim
        subs = {
            tuple(sorted(sub))
            for r in range(1, len(cluster) + 1)
            for sub in combinations(cluster, r)
        }
        for alpha in sorted(subs):
            support = tuple(sorted(set().union(*(ham.terms[i].support for i in alpha))))
            mats = [embed(ham.terms[i].as_operator(d), support).matrix for i in alpha]
            total = sum(
                np.trace(functools.reduce(np.matmul, order))
                for order in permutations(mats)
            )
            m = len(alpha)
            expected = (-ham.beta) ** m / math.factorial(m) * total / d ** len(support)
            got = MomentTable(ham).moment(alpha, ())
            assert got.shape == (1, 1)
            assert abs(got[0, 0] - expected) <= 1e-14 * abs(expected)


class TestTracedApart:
    """At m >= 2 a cluster derivative is exactly zero when no traced site
    is met by two element occurrences (``_traced_apart``), and only then
    does ``cluster_derivative`` skip it."""

    MODELS = {
        "chain5": lambda: random_chain(5, 0.5 * critical_beta(2), seed=4),
        "grid2x3": lambda: random_grid(2, 3, 0.5 * critical_beta(2), seed=4),
    }

    @staticmethod
    def bound(ham, m):
        return 1e-14 * (ham.beta * max(t.norm for t in ham.terms)) ** m

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_every_skipped_derivative_vanishes(self, model):
        # every connected cluster of m = 2..4 with nothing kept, one site
        # kept, or two neighbouring sites kept
        ham = self.MODELS[model]()
        n = ham.graph.vertex_count
        keeps = [()] + [(v,) for v in range(n)] + list(ham.graph.edges)
        table = MomentTable(ham)
        skipped = 0
        for m in (2, 3, 4):
            for c in enumerate_connected(ham, m):
                for kept in keeps:
                    if not _traced_apart(ham, c.term_indices, set(kept)):
                        continue
                    skipped += 1
                    got = cluster_derivative(ham, c, kept, moments=table)
                    assert not got.any()
                    ref = exact_derivative(ham, c, kept)
                    assert np.max(np.abs(ref)) <= self.bound(ham, m), (c.term_indices, kept)
        assert skipped > 100
        assert not table._products and not table._moments

    def test_a_traced_site_met_twice_is_not_skipped(self, rng):
        ham = self.MODELS["chain5"]()
        f0, f1, b01, b12, b23 = (
            term_index(ham, s) for s in [(0,), (1,), (0, 1), (1, 2), (2, 3)]
        )
        cases = [
            # a repeated term on a traced site
            ((b01, b01), (1,)),
            ((f0, f0), (1,)),
            ((f0, b01, b01), (1, 2)),
            ((b01, b12, b12), (0, 1)),
            # terms sharing one traced site, and no other shared
            ((b01, b12), (0,)),
            ((b01, b12), (0, 2)),
            ((f1, b12), (2,)),
            # connected clusters with nothing kept
            ((b01, b12), ()),
            ((b01, b12, b23), ()),
        ]
        cases = [(ham, make_cluster(ham, idxs), kept) for idxs, kept in cases]
        # and the m = 5 cases of the method agreement
        cases += [case for case in TestMethodAgreement().cases(rng) if case[1].size == 5]
        for h, c, kept in cases:
            assert not _traced_apart(h, c.term_indices, set(kept))
            ref = exact_derivative(h, c, kept)
            assert np.max(np.abs(ref)) > self.bound(h, c.size), (c.term_indices, kept)
            got = cluster_derivative(h, c, kept)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestVanishing:
    def test_disconnected_pair_is_zero(self, rng):
        h1 = random_hermitian(rng, 4, 0.7)
        h2 = random_hermitian(rng, 4, 0.7)
        ham = chain_ham([((0, 1), h1), ((3, 4), h2)], 5, beta=0.4)
        c = make_cluster(
            ham, (term_index(ham, (0, 1)), term_index(ham, (3, 4)))
        )
        for kept in [(), (0,), (0, 3)]:
            assert np.max(np.abs(cluster_derivative(ham, c, kept))) < 1e-13
            assert np.max(np.abs(exact_derivative(ham, c, kept))) < 1e-13

    def test_disconnected_cluster_is_exact_zero_without_a_moment(self, rng):
        h1 = random_hermitian(rng, 4, 0.7)
        h2 = random_hermitian(rng, 4, 0.7)
        ham = chain_ham([((0, 1), h1), ((3, 4), h2)], 5, beta=0.4)
        i1, i2 = term_index(ham, (0, 1)), term_index(ham, (3, 4))
        moments = MomentTable(ham)
        for idxs in [(i1, i2), (i1, i1, i2)]:
            c = make_cluster(ham, idxs)
            for kept in [(), (0,), (0, 3), (1, 3, 4)]:
                got = cluster_derivative(ham, c, kept, moments=moments)
                dim = 2 ** len(set(kept) & set(c.support))
                assert np.array_equal(got, np.zeros((dim, dim)))
        assert not moments._products and not moments._moments

    def test_fully_kept_multi_element_is_zero(self, rng):
        # log of exp with nothing traced is linear in the couplings, so any
        # mixed derivative of order two or more vanishes identically
        h1 = random_hermitian(rng, 4, 0.5)
        h2 = random_hermitian(rng, 4, 0.5)
        ham = chain_ham([((0, 1), h1), ((1, 2), h2)], 3, beta=0.4)
        c = make_cluster(
            ham, (term_index(ham, (0, 1)), term_index(ham, (1, 2)))
        )
        assert np.max(np.abs(cluster_derivative(ham, c, (0, 1, 2)))) < 1e-13
        assert np.max(np.abs(exact_derivative(ham, c, (0, 1, 2)))) < 1e-13

    def test_nothing_traced_is_closed_form(self, rng):
        # kept covers V_w: exactly -beta h_j at m = 1, exactly 0 at m >= 2
        h1 = random_hermitian(rng, 4, 0.45)
        h2 = random_hermitian(rng, 4, 0.35)
        h3 = random_hermitian(rng, 2, 0.2)
        ham = chain_ham([((0, 1), h1), ((1, 2), h2), ((2,), h3)], 3, beta=0.25)
        i1, i2, i3 = (term_index(ham, s) for s in [(0, 1), (1, 2), (2,)])
        scale = ham.beta * max(t.norm for t in ham.terms)
        for idxs, kept in [
            ((i1,), (0, 1)), ((i3,), (0, 1, 2)), ((i1, i2), (0, 1, 2)),
            ((i1, i1, i3), (0, 1, 2)), ((i1, i2, i2, i3), (0, 1, 2)),
            ((i1, i1, i2, i2, i3), (0, 1, 2)),
        ]:
            c = make_cluster(ham, idxs)
            got = cluster_derivative(ham, c, kept)
            if c.size == 1:
                expected = -ham.beta * ham.terms[idxs[0]].matrix
            else:
                expected = np.zeros_like(got)
            assert np.array_equal(got, expected)
            ref = exact_derivative(ham, c, kept)
            assert np.max(np.abs(got - ref)) / max(np.max(np.abs(got)), scale ** c.size) < 1e-12


class TestNormBounds:
    def test_bound_holds_on_random_clusters(self, rng):
        h1 = random_hermitian(rng, 4, 0.5)
        h2 = random_hermitian(rng, 4, 0.5)
        ham = chain_ham([((0, 1), h1), ((1, 2), h2)], 3, beta=0.3)
        i1, i2 = term_index(ham, (0, 1)), term_index(ham, (1, 2))
        for idxs in [(i1,), (i1, i2), (i1, i1, i2)]:
            c = make_cluster(ham, idxs)
            val = np.linalg.norm(cluster_derivative(ham, c, (0,)), 2)
            assert val <= derivative_norm_bound(ham, c) + 1e-12

    def test_bound_arithmetic(self, rng):
        h = random_hermitian(rng, 4, 0.5)
        ham = chain_ham([((0, 1), h), ((1, 2), h)], 3, beta=0.2)
        c = make_cluster(ham, (0, 1))
        # two elements, each overlapping the other once, norms 0.5:
        # 0.5 * (4 * 0.2 * 1 * 0.5)^2
        assert derivative_norm_bound(ham, c) == pytest.approx(0.5 * 0.4 ** 2)
        assert cmi_derivative_norm_bound(ham, c) == pytest.approx(
            2.0 * 0.8 ** 2 * 0.25
        )


class TestCmiCombination:
    def test_matches_sign_sum_of_pieces(self, rng):
        h1 = random_hermitian(rng, 4, 0.5)
        h2 = random_hermitian(rng, 4, 0.5)
        h3 = random_hermitian(rng, 4, 0.3)
        ham = chain_ham([((0, 1), h1), ((1, 2), h2), ((0, 2), h3)], 4, beta=0.3)
        a, b, cc = (0,), (1,), (2,)
        # a pair, and a single term that links A to C by itself: ABC keeps
        # all of its support, and at m = 1 that region still contributes
        # (the pair's four pieces cancel to round-off in this geometry)
        for idxs in [((0, 1), (1, 2)), ((0, 2),)]:
            c = make_cluster(ham, tuple(term_index(ham, s) for s in idxs))
            combo = cmi_cluster_term(ham, c, a, b, cc)
            target = combo.support
            acc = np.zeros_like(combo.matrix)
            for region, sign in [((0, 1), 1), ((1, 2), 1), ((0, 1, 2), -1), ((1,), -1)]:
                piece = cluster_derivative(ham, c, region)
                positions = [p for p, v in enumerate(target) if v in region]
                acc += sign * embed_matrix(piece, positions, len(target), ham.local_dim)
            assert c.size > 1 or np.max(np.abs(acc)) > 1e-2
            assert np.max(np.abs(combo.matrix - acc)) < 1e-13

    def test_norm_bound_holds(self, rng):
        h1 = random_hermitian(rng, 4, 0.5)
        h2 = random_hermitian(rng, 4, 0.5)
        ham = chain_ham([((0, 1), h1), ((1, 2), h2)], 4, beta=0.3)
        c = make_cluster(
            ham, (term_index(ham, (0, 1)), term_index(ham, (1, 2)))
        )
        combo = cmi_cluster_term(ham, c, (0,), (1,), (2,))
        assert operator_norm(combo.matrix) <= cmi_derivative_norm_bound(ham, c) + 1e-12

    def test_refuses_a_cluster_that_misses_abc(self):
        ham = random_chain(5, beta=0.3 * critical_beta(2), seed=0)
        c = make_cluster(ham, (term_index(ham, (3, 4)),))
        with pytest.raises(ValidationError, match="cluster does not intersect A u B u C"):
            cmi_cluster_term(ham, c, (0,), (1,), (2,))


class TestVerifyDerivativeSuite:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 7])
    def test_passes(self, seed):
        ok, report = run_suite("derivatives", seed)
        assert ok, report

    def test_fails_on_a_relative_error_of_1e_3(self, monkeypatch):
        def perturbed(*args, **kw):
            return 1.001 * cluster_derivative(*args, **kw)

        monkeypatch.setattr(verify, "cluster_derivative", perturbed)
        ok, report = run_suite("derivatives", 5)
        assert not ok
        assert "result: FAIL" in report
