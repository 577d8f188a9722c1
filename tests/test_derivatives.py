"""Cross-checks of the cluster derivative against two independent references.

The independent oracle here differentiates G(a) = log tr_out exp(-beta sum a_j h_j)
numerically with scipy's expm/logm, built from scratch rather than through any
of the library's own weight helpers.  The exact reference
``gibbsmarkov.verify.exact_derivative`` reads D_w G off a nilpotent block
construction and shares no combinatorics with ``beta-taylor``.
"""

import math
from itertools import product

import numpy as np
import pytest
from scipy.linalg import expm, logm

from gibbsmarkov.clusters import make_cluster
from gibbsmarkov.derivatives import (
    cluster_derivative,
    cmi_cluster_term,
    cmi_derivative_norm_bound,
    derivative_norm_bound,
    derivative_operator,
)
from gibbsmarkov.operators import embed, operator_norm
from gibbsmarkov.spin_model import FiniteRange, PAULI, build_graph, build_hamiltonian
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
        ham = chain_ham([((0, 1), h1), ((1, 2), h2)], 4, beta=0.3)
        c = make_cluster(
            ham, (term_index(ham, (0, 1)), term_index(ham, (1, 2)))
        )
        a, b, cc = (0,), (1,), (2,)
        combo = cmi_cluster_term(ham, c, a, b, cc)
        target = combo.support
        acc = np.zeros_like(combo.matrix)
        for region, sign in [((0, 1), 1), ((1, 2), 1), ((0, 1, 2), -1), ((1,), -1)]:
            op = derivative_operator(ham, c, region)
            if op.support:
                acc += sign * embed(op, target).matrix
            else:
                acc += sign * complex(op.matrix[0, 0]) * np.eye(acc.shape[0])
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
