"""End-to-end checks of the truncated expansion against dense diagonalization."""

import math

import numpy as np
import pytest

from gibbsmarkov import ed, expansion
from gibbsmarkov.bounds import critical_beta
from gibbsmarkov.expansion import (
    cmi_expansion,
    cmi_order_norm_bound,
    effective_hamiltonian,
    entropy_certificate,
    local_entropy,
    local_observable,
    log_partition_function,
    reduced_state,
    trace_distance_certificate,
    truncation_certificate,
)
from gibbsmarkov.operators import (
    SupportedOperator,
    expm_hermitian,
    operator_norm,
)
from gibbsmarkov.random_models import random_chain, tfi_chain
from gibbsmarkov.spin_model import FiniteRange, PAULI, build_graph, build_hamiltonian

BETA_C = critical_beta(2)


def free_ham(n, beta):
    g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    return build_hamiltonian(g, [], FiniteRange(1), beta=beta)


def single_site_ham(a, beta):
    g = build_graph(1, [])
    return build_hamiltonian(g, [((0,), a * PAULI["Z"])], FiniteRange(1), beta=beta)


class TestLogPartitionFunction:
    def test_free_model_is_exact_at_order_zero(self):
        ham = free_ham(5, beta=0.5 * BETA_C)
        value, cert, valid = log_partition_function(ham, 0)
        assert value == pytest.approx(5 * math.log(2), abs=1e-14)
        assert valid

    def test_single_site_series_converges_to_log_cosh(self):
        beta, a = 0.5, 0.5
        ham = single_site_ham(a, beta)
        exact = math.log(2 * math.cosh(beta * a))
        errs = []
        for order in (2, 4, 8):
            value, _, _ = log_partition_function(ham, order)
            errs.append(abs(value - exact))
        assert errs[2] < 1e-8
        assert errs[2] < errs[1] < errs[0]

    def test_matches_ed_within_certificate(self, rng=None):
        ham = random_chain(6, beta=0.5 * BETA_C, seed=11)
        st = ed.exact_gibbs(ham)
        for order in range(4):
            value, cert, valid = log_partition_function(ham, order)
            assert valid
            assert abs(value - st.log_z) <= cert

    def test_certificate_invalid_above_threshold(self):
        ham = random_chain(6, beta=2.0 * BETA_C, seed=11)
        _, cert, valid = log_partition_function(ham, 1)
        assert not valid and math.isinf(cert)


class TestEffectiveHamiltonian:
    def test_whole_system_reproduces_the_hamiltonian(self):
        ham = random_chain(5, beta=0.4 * BETA_C, seed=3)
        res = effective_hamiltonian(ham, range(5), order=3)
        assert res.scalar_provenance == "exact-empty"
        assert all(not entries for entries in res.boundary_terms.values())
        got = res.effective_operator().matrix
        want = ed.hamiltonian_matrix(ham).matrix
        assert np.max(np.abs(got - want)) < 1e-12

    def test_error_within_certificate_and_decreasing(self):
        ham = random_chain(7, beta=0.5 * BETA_C, seed=9)
        st = ed.exact_gibbs(ham)
        region = (0, 1, 2)
        exact = ed.exact_effective_hamiltonian(st, region)
        last = math.inf
        for order in range(4):
            res = effective_hamiltonian(ham, region, order)
            err = operator_norm(res.effective_operator().matrix - exact.matrix)
            assert res.certificate_valid
            assert err <= res.truncation_error
            assert err <= last + 1e-12
            last = err

    def test_boundary_supports_stay_in_region(self):
        ham = random_chain(6, beta=0.5 * BETA_C, seed=2)
        region = (0, 1, 2)
        res = effective_hamiltonian(ham, region, order=3)
        for m, entries in res.boundary_terms.items():
            for cluster, op in entries:
                assert set(op.support) <= set(region)
                # every boundary cluster must reach outside the region
                assert set(cluster.support) - set(region)

    def test_scalar_channel_provenance(self):
        ham = random_chain(6, beta=0.4 * BETA_C, seed=5)
        by_ed = effective_hamiltonian(ham, (0, 1, 2), order=1)
        assert by_ed.scalar_provenance == "ed"
        by_series = effective_hamiltonian(ham, (0, 1, 2), order=3, ed_limit=1)
        assert by_series.scalar_provenance == "series"
        # both scalar channels target log Z of the complement
        assert by_series.scalar_part == pytest.approx(by_ed.scalar_part, rel=1e-6)

    def test_scalar_channel_runs_only_when_read_and_once(self, monkeypatch):
        ham = random_chain(6, beta=0.5 * BETA_C, seed=19)

        def refuse(*args, **kwargs):
            raise AssertionError("normalized result computed the scalar channel")

        monkeypatch.setattr(expansion, "_complement_log_z_ed", refuse)
        monkeypatch.setattr(expansion, "_scalar_series", refuse)
        reduced_state(ham, (2, 3), 2)
        obs = SupportedOperator((2,), PAULI["Z"], local_dim=2)
        local_observable(ham, obs, 2, pad=1)
        local_entropy(ham, (1, 2), 2)
        monkeypatch.undo()

        calls = []
        real = expansion._complement_log_z_ed

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(expansion, "_complement_log_z_ed", counted)
        res = effective_hamiltonian(ham, (2, 3), 2)
        assert not calls
        scalar = res.scalar_part
        assert res.scalar_provenance == "ed"
        heff = res.effective_operator()
        res.effective_operator()
        assert len(calls) == 1
        bare = heff.matrix - scalar * np.eye(4)
        state, _ = reduced_state(ham, (2, 3), 2)
        weight = expm_hermitian(SupportedOperator((2, 3), bare), scale=-ham.beta)
        want = weight.matrix / np.trace(weight.matrix)
        assert np.max(np.abs(state.matrix - want)) < 1e-14

    def test_rejects_negative_order_and_power_law(self):
        ham = random_chain(4, beta=0.1 * BETA_C, seed=1)
        with pytest.raises(ValueError):
            effective_hamiltonian(ham, (0,), order=-1)


class TestReducedState:
    def test_trace_distance_within_certificate(self):
        ham = random_chain(6, beta=0.5 * BETA_C, seed=17)
        st = ed.exact_gibbs(ham)
        region = (2, 3)
        exact = ed.reduced_density(st, region)
        for order in range(3):
            state, _ = reduced_state(ham, region, order)
            td = np.linalg.norm(state.matrix - exact.matrix, "nuc")
            cert, valid = trace_distance_certificate(ham, region, order)
            assert valid
            assert td <= cert
        assert td < 1e-3  # order 2 is already accurate here

    def test_state_is_normalized_and_positive(self):
        ham = random_chain(5, beta=0.5 * BETA_C, seed=4)
        state, _ = reduced_state(ham, (1, 2), order=2)
        assert np.trace(state.matrix).real == pytest.approx(1.0)
        w = np.linalg.eigvalsh(state.matrix)
        assert w.min() > 0


class TestObservableAndEntropy:
    def test_observable_within_certificate(self):
        ham = random_chain(6, beta=0.5 * BETA_C, seed=23)
        st = ed.exact_gibbs(ham)
        obs = SupportedOperator((2,), PAULI["Z"], local_dim=2)
        exact = float(
            np.trace(ed.reduced_density(st, (2,)).matrix @ PAULI["Z"]).real
        )
        for pad in (0, 1):
            value, cert, valid = local_observable(ham, obs, order=2, pad=pad)
            assert valid
            assert abs(value - exact) <= cert

    def test_entropy_within_certificate(self):
        ham = random_chain(6, beta=0.4 * BETA_C, seed=29)
        st = ed.exact_gibbs(ham)
        region = (1, 2)
        exact = ed.region_entropy(st, region)
        value, cert, valid = local_entropy(ham, region, order=2)
        assert valid
        assert abs(value - exact) <= cert

    def test_tfi_values_are_reproducible(self):
        ham = tfi_chain(6, beta=BETA_C / 4.0)
        st = ed.exact_gibbs(ham)
        value, cert, valid = log_partition_function(ham, 4)
        assert valid and abs(value - st.log_z) <= cert
        obs = SupportedOperator((3,), PAULI["Z"], local_dim=2)
        mag, mcert, mvalid = local_observable(ham, obs, order=4)
        exact_mag = float(
            np.trace(ed.reduced_density(st, (3,)).matrix @ PAULI["Z"]).real
        )
        assert mvalid and abs(mag - exact_mag) <= mcert


class TestCmiExpansion:
    def test_estimate_converges_to_exact(self):
        ham = random_chain(5, beta=0.5 * BETA_C, seed=31)
        st = ed.exact_gibbs(ham)
        a, b, c = (0,), (1,), (2, 3, 4)
        exact = ed.exact_cmi(st, a, b, c)
        assert exact > 0
        errs = []
        for order in (1, 2, 4):
            res = cmi_expansion(ham, a, b, c, order, gibbs_state=st)
            errs.append(abs(res.cmi_estimate - exact))
        assert errs[-1] < 1e-12
        assert errs[-1] <= errs[0]

    def test_exchange_symmetry(self):
        ham = random_chain(5, beta=0.4 * BETA_C, seed=37)
        st = ed.exact_gibbs(ham)
        a, b, c = (0, 1), (2,), (3, 4)
        fwd = cmi_expansion(ham, a, b, c, 3, gibbs_state=st)
        rev = cmi_expansion(ham, c, b, a, 3, gibbs_state=st)
        assert fwd.cmi_estimate == pytest.approx(rev.cmi_estimate, abs=1e-12)
        assert np.max(np.abs(fwd.operator.matrix - rev.operator.matrix)) < 1e-12

    def test_per_order_norms_below_closed_form(self):
        ham = random_chain(6, beta=0.5 * BETA_C, seed=41)
        a, c = (0, 1), (4, 5)
        res = cmi_expansion(ham, a, (2, 3), c, 3)
        for m, total in res.per_order_norm_sums.items():
            assert total <= cmi_order_norm_bound(ham, a, c, m) + 1e-12

    def test_distant_regions_need_long_clusters(self):
        # nearest-neighbour terms: no cluster of size < d(A,C) can link A to C
        ham = random_chain(7, beta=0.5 * BETA_C, seed=43)
        res = cmi_expansion(ham, (0,), (1, 2, 3, 4, 5), (6,), order=3)
        assert res.norm_bound_accumulated == 0.0
        assert np.max(np.abs(res.operator.matrix)) == 0.0

    def test_free_model_has_zero_cmi_operator(self):
        ham = free_ham(5, beta=1.0)
        res = cmi_expansion(ham, (0,), (1, 2, 3), (4,), order=3)
        assert np.max(np.abs(res.operator.matrix)) == 0.0


class TestCertificates:
    def test_truncation_certificate_shrinks_geometrically(self):
        ham = random_chain(6, beta=0.5 * BETA_C, seed=47)
        vals = [truncation_certificate(ham, (0, 1, 2), m)[0] for m in range(4)]
        ratios = [b / a for a, b in zip(vals, vals[1:])]
        for rt in ratios:
            assert rt == pytest.approx(0.5)

    def test_entropy_certificate_is_finite_below_threshold(self):
        ham = random_chain(6, beta=0.5 * BETA_C, seed=53)
        cert, valid = entropy_certificate(ham, (0, 1), 2)
        assert valid and cert < 1.0
