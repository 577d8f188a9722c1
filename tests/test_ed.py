"""Sanity checks of the dense-diagonalization reference on solvable cases."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gibbsmarkov import ed
from gibbsmarkov.bounds import critical_beta
from gibbsmarkov.expansion import cmi_expansion
from gibbsmarkov.operators import SupportedOperator, embed
from gibbsmarkov.random_models import random_chain, random_grid, tfi_chain
from gibbsmarkov.spin_model import FiniteRange, PAULI, build_graph, build_hamiltonian, load_model

from conftest import random_hermitian

BETA_C = critical_beta(2)
MODELS = Path(__file__).resolve().parent.parent / "models"


def free_ham(n, beta=0.1):
    g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    return build_hamiltonian(g, [], FiniteRange(1), beta=beta)


def ferro_chain(n, beta, j=0.5):
    g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    zz = np.kron(PAULI["Z"], PAULI["Z"])
    terms = [((i, i + 1), -j * zz) for i in range(n - 1)]
    return build_hamiltonian(g, terms, FiniteRange(1), beta=beta)


class TestExactGibbs:
    def test_free_model(self):
        st = ed.exact_gibbs(free_ham(4))
        assert st.log_z == pytest.approx(4 * math.log(2))
        assert np.allclose(st.rho.matrix, np.eye(16) / 16)
        assert ed.entropy(ed.reduced_density(st, (0, 1))) == pytest.approx(2 * math.log(2))

    def test_single_site_field(self):
        beta, a = 0.7, 0.6
        g = build_graph(1, [])
        ham = build_hamiltonian(g, [((0,), a * PAULI["Z"])], FiniteRange(1), beta=beta)
        st = ed.exact_gibbs(ham)
        assert st.log_z == pytest.approx(math.log(2 * math.cosh(beta * a)))
        p_up = math.exp(-beta * a) / (2 * math.cosh(beta * a))
        assert st.rho.matrix[0, 0].real == pytest.approx(p_up)

    def test_size_cap(self):
        with pytest.raises(ed.EDLimitError):
            ed.exact_gibbs(free_ham(5), limit=4)

    def test_large_beta_does_not_overflow(self):
        st = ed.exact_gibbs(ferro_chain(3, beta=500.0))
        assert math.isfinite(st.log_z)
        assert np.isfinite(st.rho.matrix).all()


def qutrit_chain(n, beta, seed, norm=0.3):
    """A chain of d = 3 sites with a random bond term of the given norm."""
    rng = np.random.default_rng(seed)
    g = build_graph(n, [(i, i + 1) for i in range(n - 1)], local_dim=3)
    terms = [((i, i + 1), random_hermitian(rng, 9, norm)) for i in range(n - 1)]
    return build_hamiltonian(g, terms, FiniteRange(1), beta=beta)


def embed_sum(ham, sites=None):
    """The dense sum of the terms inside ``sites``, every vertex by default,
    each term embedded on its own."""
    support = tuple(range(ham.graph.vertex_count)) if sites is None else sites
    dim = ham.local_dim ** len(support)
    total = np.zeros((dim, dim), dtype=complex)
    for term in ham.terms:
        if set(term.support) <= set(support):
            total += embed(term.as_operator(ham.local_dim), support).matrix
    return total


def eigh_gibbs(ham):
    """(rho, log Z) by a full eigendecomposition, shifted by the ground energy."""
    w, v = np.linalg.eigh(embed_sum(ham))
    weights = np.exp(-ham.beta * (w - w[0]))
    z = weights.sum()
    return (v * (weights / z)) @ v.conj().T, math.log(z) - ham.beta * w[0]


class TestScaledTaylorExponential:
    @pytest.mark.parametrize("ham, scaled", [
        (random_chain(6, beta=0.25 * BETA_C, seed=3), False),
        (random_chain(7, beta=0.9 * BETA_C, seed=5), False),
        (tfi_chain(5, beta=1.0), True),
        (ferro_chain(3, beta=500.0), True),
        # several column blocks, and squares of several blocks
        (tfi_chain(8, beta=1.0), True),
        # d^n = 243, not a multiple of the block width
        (qutrit_chain(5, beta=1.0, seed=17), True),
    ])
    def test_matches_eigendecomposition(self, ham, scaled):
        x = ham.beta * sum(t.norm for t in ham.terms)
        s, _ = ed._taylor_plan(x)
        assert (s >= 1) == scaled
        st = ed.exact_gibbs(ham)
        rho, log_z = eigh_gibbs(ham)
        assert np.max(np.abs(st.rho.matrix - rho)) <= 1e-13 * np.max(np.abs(rho))
        assert abs(st.log_z - log_z) <= 1e-13 * abs(log_z)

    @pytest.mark.parametrize("ham", [
        random_chain(9, beta=0.25 * BETA_C, seed=0),  # the Taylor polynomial alone
        tfi_chain(9, beta=1.0),  # and four squares
    ])
    def test_peak_memory_is_two_and_a_half_matrices(self, ham):
        # A, which becomes rho, and A^2 are 2 x 16 * 4^9 bytes; the column
        # blocks and the mirror add less than half a matrix
        tracemalloc.start()
        try:
            ed.exact_gibbs(ham)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 16 * 4 ** 9

    def test_plan_at_the_benchmark_temperature(self):
        # beta*sum||h_j|| ~ 4e-3 on a 9-site chain at beta_c/4
        assert ed._taylor_plan(0.0037) == (0, 5)
        assert ed._taylor_plan(0.0) == (0, 0)
        # 500/2^10 ~ 0.49; at y = 1/2 the remainder bound needs degree 14
        assert ed._taylor_plan(500.0) == (10, 14)

    def test_calls_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        ham = random_chain(5, beta=0.5 * BETA_C, seed=7)
        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, refuse)
        st = ed.exact_gibbs(ham)
        assert np.trace(st.rho.matrix).real == pytest.approx(1.0, abs=1e-14)


class TestHamiltonianMatrix:
    @pytest.mark.parametrize("ham", [
        random_chain(7, beta=0.5 * BETA_C, seed=11),
        random_grid(3, 3, beta=0.5 * BETA_C, seed=13),
        load_model(MODELS / "powerlaw_chain6.json"),  # supports not contiguous
    ])
    def test_bitwise_equal_to_embedded_sum(self, ham):
        assert np.array_equal(ed.hamiltonian_matrix(ham).matrix, embed_sum(ham))
        # on a vertex subset, with a gap: only the terms inside it
        sites = (0, 1, 3, 4, 5)
        got = ed.hamiltonian_matrix(ham, sites)
        assert got.support == sites
        assert np.array_equal(got.matrix, embed_sum(ham, sites))


class TestEntropiesAndCmi:
    def test_empty_region_entropy_is_zero(self):
        st = ed.exact_gibbs(free_ham(3))
        assert ed.entropy(ed.reduced_density(st, ())) == 0.0

    def test_pure_and_maximally_mixed_states(self, rng):
        # a diagonal pure state has entropy exactly 0 and I/2^n exactly
        # n ln 2; a random pure state has entropy at round-off, where
        # clipping its zero eigenvalues at 1e-15 added 1.0e-13
        for n in (1, 2, 3):
            support = tuple(range(n))
            pure = np.zeros((2 ** n, 2 ** n))
            pure[-1, -1] = 1.0
            assert ed.entropy(SupportedOperator(support, pure)) == 0.0
            mixed = np.eye(2 ** n) / 2 ** n
            assert ed.entropy(SupportedOperator(support, mixed)) == n * math.log(2)
        for _ in range(20):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            assert abs(ed.entropy(SupportedOperator((0, 1), np.outer(v, v.conj())))) <= 3e-14

    def test_ground_state_mixture_mutual_information(self):
        # deep in the ferromagnetic phase the state is (|000><000| + |111><111|)/2:
        # end spins share one bit, and conditioning on the middle spin
        # explains it away completely
        st = ed.exact_gibbs(ferro_chain(3, beta=200.0))
        assert ed.exact_cmi(st, (0,), (), (2,)) == pytest.approx(math.log(2), abs=1e-9)
        assert ed.exact_cmi(st, (0,), (1,), (2,)) == pytest.approx(0.0, abs=1e-9)

    def test_strong_subadditivity(self):
        ham = random_chain(6, beta=0.9 * BETA_C, seed=83)
        st = ed.exact_gibbs(ham)
        for a, b, c in [((0,), (1,), (2,)), ((0, 1), (2, 3), (4, 5)), ((1,), (), (4,))]:
            assert ed.exact_cmi(st, a, b, c) >= -1e-12

    def test_small_cmi_keeps_its_digits(self):
        # The true CMI is ~8.8e-16; as a difference of entropies of size
        # ~log 2 per site it is lost to round-off, from deficits it is not.
        ham = random_chain(5, beta=0.5 * BETA_C, seed=31)
        st = ed.exact_gibbs(ham)
        a, b, c = (0,), (1,), (2, 3, 4)
        series = cmi_expansion(ham, a, b, c, 4, gibbs_state=st).cmi_estimate
        assert abs(ed.exact_cmi(st, a, b, c) - series) <= 1e-17

    def test_rejects_overlapping_regions(self):
        st = ed.exact_gibbs(free_ham(3))
        with pytest.raises(ValueError):
            ed.exact_cmi(st, (0,), (0, 1), (2,))


class TestEffectiveHamiltonian:
    def test_full_region_returns_hamiltonian(self):
        ham = random_chain(4, beta=0.5 * BETA_C, seed=89)
        st = ed.exact_gibbs(ham)
        eff = ed.exact_effective_hamiltonian(st, range(4))
        want = ed.hamiltonian_matrix(ham).matrix
        assert np.max(np.abs(eff.matrix - want)) < 1e-9

    def test_free_model_gives_pure_scalar(self):
        ham = free_ham(4, beta=0.3)
        st = ed.exact_gibbs(ham)
        eff = ed.exact_effective_hamiltonian(st, (0, 1))
        # -beta^-1 log(2^2 * I) on the kept two sites
        want = -(2 * math.log(2) / 0.3) * np.eye(4)
        assert np.max(np.abs(eff.matrix - want)) < 1e-12

    def test_partial_region_of_interacting_chain(self):
        from scipy.linalg import expm, logm

        n, beta, region = 5, 0.9 * BETA_C, (1, 3)
        ham = random_chain(n, beta=beta, seed=101)
        st = ed.exact_gibbs(ham)
        eff = ed.exact_effective_hamiltonian(st, region)
        weight = expm(-beta * ed.hamiltonian_matrix(ham).matrix)
        rest = [v for v in range(n) if v not in region]
        perm = list(region) + rest
        t = weight.reshape([2] * (2 * n)).transpose(perm + [v + n for v in perm])
        dk, dr = 2 ** len(region), 2 ** len(rest)
        reduced = np.einsum("ajbj->ab", t.reshape(dk, dr, dk, dr))
        want = -logm(reduced) / beta
        assert eff.support == region
        assert np.max(np.abs(eff.matrix - want)) < 1e-9


class TestCorrelations:
    def test_correlation_bounded_by_cmi(self):
        ham = random_chain(6, beta=0.9 * BETA_C, seed=97)
        st = ed.exact_gibbs(ham)
        op_a = SupportedOperator((0,), PAULI["X"], local_dim=2)
        op_c = SupportedOperator((5,), PAULI["Z"], local_dim=2)
        cor = ed.operator_correlation(st, op_a, op_c)
        cmi = ed.exact_cmi(st, (0,), (1, 2, 3, 4), (5,))
        assert cor ** 2 <= 2.0 * cmi + 1e-9

    def test_product_state_has_no_correlation(self):
        st = ed.exact_gibbs(free_ham(4))
        op_a = SupportedOperator((0,), PAULI["Z"], local_dim=2)
        op_b = SupportedOperator((3,), PAULI["Z"], local_dim=2)
        assert ed.operator_correlation(st, op_a, op_b) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("a_sites, b_sites", [((0,), (5,)), ((1, 4), (2, 6)), ((6,), (0, 3))])
    def test_reduced_state_matches_full_space_formula(self, rng, a_sites, b_sites):
        st = ed.exact_gibbs(random_chain(7, beta=0.9 * BETA_C, seed=5))
        op_a = SupportedOperator(a_sites, random_hermitian(rng, 2 ** len(a_sites), 1.0))
        op_b = SupportedOperator(b_sites, random_hermitian(rng, 2 ** len(b_sites), 1.0))
        full = st.rho.support
        a, b, r = embed(op_a, full).matrix, embed(op_b, full).matrix, st.rho.matrix
        want = (np.trace(r @ a @ b) - np.trace(r @ a) * np.trace(r @ b)).real
        assert abs(ed.operator_correlation(st, op_a, op_b) - want) <= 1e-14

    def test_rejects_overlapping_supports(self):
        st = ed.exact_gibbs(free_ham(3))
        op = SupportedOperator((1,), PAULI["Z"], local_dim=2)
        with pytest.raises(ValueError):
            ed.operator_correlation(st, op, op)
