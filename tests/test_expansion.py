"""End-to-end checks of the truncated expansion against dense diagonalization."""

import math
from pathlib import Path

import numpy as np
import pytest

from gibbsmarkov import ed, expansion
from gibbsmarkov.bounds import area_law_saturation_series, critical_beta, surface_region
from gibbsmarkov.clusters import (
    _bits,
    _site_sets,
    count_bound_check,
    enumerate_connected,
    enumerate_connected_to_region,
    enumerate_linking,
)
from gibbsmarkov.derivatives import MomentTable, cluster_derivative, cmi_cluster_term
from gibbsmarkov.expansion import (
    _scalar_series,
    _scalar_terms,
    _stacked_hamiltonians,
    _support_stacks,
    cmi_expansion,
    cmi_order_norm_bound,
    effective_hamiltonian,
    entropy_certificate,
    local_entropy,
    local_observable,
    log_partition_function,
    log_z_certificate,
    reduced_state,
    trace_distance_certificate,
    truncation_certificate,
)
from gibbsmarkov.operators import (
    SupportedOperator,
    embed,
    embed_matrix,
    expm_hermitian,
    operator_norm,
)
from gibbsmarkov.random_models import random_chain, random_grid, tfi_chain
from gibbsmarkov.spin_model import (
    FiniteRange,
    PAULI,
    ValidationError,
    build_graph,
    build_hamiltonian,
    load_model,
)
from gibbsmarkov.cli import _vertex_list

BETA_C = critical_beta(2)
MODELS = Path(__file__).resolve().parent.parent / "models"


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


def dense_log_trace_terms(ham, region, order):
    """The t^1..t^order coefficients of log tr e^{-beta t H_R} / d^|R|, H_R
    the terms inside the region: from dense powers of the centered H_R and
    the series of log(1 + A), sharing no code with the site-set route."""
    d, inside = ham.local_dim, set(region)
    dim = d ** len(region)
    h = np.zeros((dim, dim), dtype=complex)
    for t in ham.terms:
        if inside.issuperset(t.support):
            h += embed(t.as_operator(d), region).matrix
    mean = np.trace(h).real / dim
    h -= mean * np.eye(dim)
    # tr e^{-beta t H_R} / dim = e^{-beta t mean} (1 + A(t)), with
    # A(t) = sum_q a_q t^q, a_q = (-beta)^q / q! tr(h^q) / dim
    a, power = np.zeros(order + 1), np.eye(dim)
    for q in range(1, order + 1):
        power = power @ h
        a[q] = (-ham.beta) ** q / math.factorial(q) * np.trace(power).real / dim
    # log(1 + A) = sum_k (-1)^(k+1) A^k / k; A has no constant term, so
    # A^k starts at t^k and k <= order suffices
    terms, a_k = np.zeros(order + 1), np.eye(1, order + 1)[0]
    for k in range(1, order + 1):
        a_k = np.convolve(a_k, a)[: order + 1]
        terms += (-1) ** (k + 1) / k * a_k
    terms[1] -= ham.beta * mean
    return list(terms[1:])


def shared_support_chain():
    """A 5-site chain whose bond (1, 2) and site 3 each carry two terms."""
    rng = np.random.default_rng(7)
    supports = [(0, 1), (1, 2), (1, 2), (2, 3), (3, 4), (0,), (3,), (3,)]
    terms = []
    for support in supports:
        dim = 2 ** len(support)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        terms.append((support, 0.1 * (a + a.conj().T)))
    graph = build_graph(5, [(i, i + 1) for i in range(4)])
    return build_hamiltonian(graph, terms, FiniteRange(1), beta=0.5 * BETA_C, rescale=True)


class TestScalarSiteSets:
    @pytest.mark.parametrize("build, order, hole", [
        (lambda: random_chain(8, beta=0.5 * BETA_C, seed=0), 6, ()),
        (lambda: random_chain(8, beta=0.5 * BETA_C, seed=0), 6, (3, 4)),
        (lambda: random_grid(3, 3, beta=0.5 * BETA_C, seed=0), 5, ()),
        (lambda: random_grid(3, 3, beta=0.5 * BETA_C, seed=0), 5, (4,)),
        (lambda: random_grid(2, 4, beta=0.5 * BETA_C, seed=0), 6, ()),
        (lambda: load_model(MODELS / "powerlaw_chain6.json"), 5, ()),
        (shared_support_chain, 6, ()),
    ], ids=["chain8", "chain8-Lc", "grid3x3", "grid3x3-Lc", "grid2x4", "powerlaw_chain6",
            "shared-support"])
    def test_per_order_terms_match_the_cluster_route(self, build, order, hole):
        # log Z (nothing left out) and the scalar channel of L = hole, on
        # the scale of the order: the term itself or (beta max||h||)^m.
        # The order-m sum over the connected clusters inside the region is
        # the t^m coefficient of its dense log-trace series
        ham = build()
        region = tuple(v for v in range(ham.graph.vertex_count) if v not in hole)
        want = dense_log_trace_terms(ham, region, order)
        got = _scalar_terms(ham, region, order)
        size = ham.beta * max(t.norm for t in ham.terms)
        gaps = [abs(g - w) / max(abs(w), size ** m) for m, (g, w) in enumerate(zip(got, want), 1)]
        report = ", ".join(f"m={m}: {gap:.1e}" for m, gap in enumerate(gaps, 1))
        assert max(gaps) <= 1e-12, f"gap / scale per order: {report}"
        total = len(region) * math.log(ham.local_dim) + sum(want)
        assert _scalar_series(ham, region, order) == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("build, order", [
        (lambda: random_grid(3, 3, beta=0.5 * BETA_C, seed=0), 5),
        (lambda: load_model(MODELS / "powerlaw_chain6.json"), 5),
        (shared_support_chain, 6),
    ], ids=["grid3x3", "powerlaw_chain6", "shared-support"])
    def test_terms_do_not_depend_on_the_stack_size(self, monkeypatch, build, order):
        ham = build()
        region = range(ham.graph.vertex_count)
        stacks = []
        series = expansion._log_trace_series

        def spy(h, beta, order):
            stacks.append(len(h))
            return series(h, beta, order)

        monkeypatch.setattr(expansion, "_log_trace_series", spy)
        want = _scalar_terms(ham, region, order)
        assert max(stacks) > 1  # the default stacks sets
        monkeypatch.setattr(expansion, "_STACK_BYTES", 1)
        stacks.clear()
        got = _scalar_terms(ham, region, order)
        assert max(stacks) == 1
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("build, order", [
        (lambda: random_grid(3, 3, beta=0.5 * BETA_C, seed=0), 5),
        (lambda: load_model(MODELS / "powerlaw_chain6.json"), 6),
        (shared_support_chain, 6),
    ], ids=["grid3x3", "powerlaw_chain6", "shared-support"])
    def test_stacked_hamiltonians_are_the_dense_hamiltonians(self, build, order):
        # each slice, bitwise: the gathered supports add what summing the
        # terms one support at a time adds
        ham = build()
        region = range(ham.graph.vertex_count)
        sets = _site_sets(ham, region, order)
        terms = _support_stacks(ham, region)
        sizes = sorted({v.bit_count() for v in sets})
        assert len(sizes) > 2
        for size in sizes:
            masks = sorted(v for v in sets if v.bit_count() == size)
            dim = ham.local_dim ** size
            # a reused buffer holds what the last stack left in it
            out = np.full((len(masks), dim, dim), np.nan, dtype=complex)
            got = _stacked_hamiltonians(ham, masks, sets, terms, out)
            assert got is out
            for row, mask in enumerate(masks):
                want = ed.hamiltonian_matrix(ham, _bits(mask)).matrix
                assert got[row].tobytes() == want.tobytes(), _bits(mask)


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

    def test_region_operator_equals_embed_and_sum(self):
        # the bare and boundary terms are added onto L in place; the
        # reference pads each with identities and sums the copies
        ham = random_chain(7, beta=0.5 * BETA_C, seed=13)
        region = (1, 2, 3)
        res = effective_hamiltonian(ham, region, order=4)
        dim = ham.local_dim ** len(region)
        boundary = np.zeros((dim, dim), dtype=complex)
        for m, entries in sorted(res.boundary_terms.items()):
            for cluster, op in entries:
                boundary += cluster.multiplicity * embed(op, region).matrix
        bare = sum(embed(t, region).matrix for t in res.bare_terms)
        assert any(len(t.support) < len(region) for t in res.bare_terms)
        assert np.array_equal(res.boundary_operator().matrix, boundary)
        want = boundary + bare + res.scalar_part * np.eye(dim)
        assert np.array_equal(res.effective_operator().matrix, want)

    def test_scalar_channel_provenance(self):
        ham = random_chain(6, beta=0.4 * BETA_C, seed=5)
        by_ed = effective_hamiltonian(ham, (0, 1, 2), order=1)
        assert by_ed.scalar_provenance == "ed"
        by_series = effective_hamiltonian(ham, (0, 1, 2), order=3, ed_limit=1)
        assert by_series.scalar_provenance == "series"
        # both scalar channels target log Z of the complement
        assert by_series.scalar_part == pytest.approx(by_ed.scalar_part, rel=1e-6)

    @pytest.mark.parametrize("build, region", [
        (lambda: random_chain(9, beta=0.25 * BETA_C, seed=3), (4, 5)),
        (lambda: random_grid(3, 3, beta=0.5 * BETA_C, seed=0), (4,)),
        (lambda: random_chain(12, beta=0.25 * BETA_C, seed=0), (5, 6)),
        (lambda: random_chain(6, beta=500.0, seed=1), (2, 3)),
    ], ids=["chain9", "grid3x3", "chain12", "chain6-beta500"])
    def test_complement_log_z_against_eigenvalues(self, build, region):
        ham = build()
        comp = tuple(v for v in range(ham.graph.vertex_count) if v not in region)
        got = expansion._complement_log_z_ed(ham, comp, len(comp))
        # log-sum-exp over the spectrum of the terms inside the complement
        w = np.linalg.eigvalsh(ed.hamiltonian_matrix(ham, comp).matrix)
        want = math.log(np.exp(-ham.beta * (w - w[0])).sum()) - ham.beta * w[0]
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_ed_scalar_channel_takes_the_ed_limit(self, monkeypatch):
        # the ED route is chosen by ed_limit, so ED must run at that limit,
        # above its own default too
        ham = random_chain(6, beta=0.5 * BETA_C, seed=5)
        calls = []
        real = ed.exact_gibbs

        def recorded(ham, limit=ed.DEFAULT_ED_LIMIT, sites=None):
            calls.append((limit, sites))
            return real(ham, limit, sites)

        monkeypatch.setattr(ed, "exact_gibbs", recorded)
        for ed_limit in (4, 14):
            res = effective_hamiltonian(ham, (2, 3), 1, ed_limit=ed_limit)
            assert res.scalar_provenance == "ed"
        assert calls == [(4, (0, 1, 4, 5)), (14, (0, 1, 4, 5))]

    @pytest.mark.parametrize("build", [
        lambda: random_chain(9, beta=0.5 * BETA_C, seed=7),
        lambda: random_grid(3, 3, beta=0.5 * BETA_C, seed=7),
    ], ids=["chain9", "grid3x3"])
    def test_series_scalar_channel_on_a_split_complement(self, build):
        # L is the centre vertex, so L^c lies on both sides of it (two
        # pieces on the chain, a ring on the grid)
        ham, order = build(), 3
        res = effective_hamiltonian(ham, (4,), order, ed_limit=0)
        assert res.scalar_provenance == "series"
        comp = tuple(v for v in range(ham.graph.vertex_count) if v != 4)
        log_z = len(comp) * math.log(ham.local_dim)
        for m in range(1, order + 1):
            for c in enumerate_connected(ham, m):
                if not set(c.support) <= set(comp):
                    continue
                dw = cluster_derivative(ham, c, ())  # a private table per cluster
                log_z += c.multiplicity / math.factorial(m) * float(dw[0, 0].real)
        assert res.scalar_part == pytest.approx(-log_z / ham.beta, rel=1e-12)
        by_ed = effective_hamiltonian(ham, (4,), order)
        assert by_ed.scalar_provenance == "ed"
        x = ham.beta / critical_beta(ham.k)
        cert = math.e / 4 * x ** (order + 1) / (1 - x) * len(comp) / ham.beta
        assert abs(res.scalar_part - by_ed.scalar_part) <= cert

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
        exact = ed.entropy(ed.reduced_density(st, region))
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
        assert list(res.per_order_norm_sums.values()) == [0.0, 0.0, 0.0]
        assert np.max(np.abs(res.operator.matrix)) == 0.0

    def test_clusters_reaching_outside_abc_match_embed_and_sum(self):
        # clusters of order 3 to 5 on a 6-site chain reach sites 3 and 4,
        # outside A u B u C.  Their ABC-region derivative first differs from
        # 0 at order 5, so the test goes that far; with B two sites wide
        # every term below order 5 cancels to round-off, so B is one site.
        # The reference embeds every region's derivative with identities,
        # sums the four with their signs, and embeds the piece on A u B u C.
        ham = random_chain(6, beta=0.5 * BETA_C, seed=59)
        a, b, c = (0,), (1,), (2,)
        target = (0, 1, 2)
        d = ham.local_dim
        first_order = ham.beta * max(t.norm for t in ham.terms)
        res = cmi_expansion(ham, a, b, c, 5)
        acc = np.zeros_like(res.operator.matrix)
        sticks_out = 0
        for m in range(1, 6):
            order_sum = 0.0
            for cluster in enumerate_linking(ham, a, c, m):
                sticks_out += not set(cluster.support) <= set(target)
                sub = tuple(v for v in cluster.support if v in target)
                piece = np.zeros((d ** len(sub),) * 2, dtype=complex)
                for region, sign in [(a + b, 1), (b + c, 1), (a + b + c, -1), (b, -1)]:
                    dw = cluster_derivative(ham, cluster, region)
                    positions = [p for p, v in enumerate(sub) if v in region]
                    piece += sign * embed_matrix(dw, positions, len(sub), d)
                weight = cluster.multiplicity / math.factorial(m)
                positions = [target.index(v) for v in sub]
                acc -= weight * embed_matrix(piece, positions, len(target), d)
                order_sum += weight * operator_norm(piece)
            assert abs(res.per_order_norm_sums[m] - order_sum) <= 1e-12 * first_order ** m
        assert sticks_out > 0
        # the sums from order 3 on are of their natural size, not round-off
        for m in (3, 4, 5):
            assert res.per_order_norm_sums[m] > 1e-2 * first_order ** m
        # linking clusters start at m = 2, the largest scale in the sum
        assert np.max(np.abs(res.operator.matrix - acc)) <= 1e-12 * first_order ** 2

    def test_free_model_has_zero_cmi_operator(self):
        ham = free_ham(5, beta=1.0)
        res = cmi_expansion(ham, (0,), (1, 2, 3), (4,), order=3)
        assert np.max(np.abs(res.operator.matrix)) == 0.0


def _raw(sums: dict) -> tuple:
    """The orders and the raw bits of the per-order sums."""
    return list(sums), np.array(list(sums.values())).tobytes()


class TestPerOrderNorms:
    """Each order's norm sum, from norms taken a chunk of matrices at a
    time, is bitwise the sum of the norms taken one matrix at a time."""

    @pytest.fixture
    def chain3(self):
        return effective_hamiltonian(random_chain(3, beta=0.25 * BETA_C, seed=0), (1,), 5)

    @pytest.fixture
    def chain4(self):
        return random_chain(4, beta=0.25 * BETA_C, seed=0), (0,), (1, 2), (3,)

    def test_effective_hamiltonian_norms(self, chain3):
        want = {}
        for m, entries in sorted(chain3.boundary_terms.items()):
            total = 0.0
            for cluster, op in entries:
                total += cluster.multiplicity * operator_norm(op.matrix)
            want[m] = total
        assert len(chain3.boundary_terms[5]) > 1
        assert _raw(chain3.per_order_norms()) == _raw(want)

    @pytest.mark.parametrize("build, regions, order", [
        (lambda: random_chain(4, beta=0.25 * BETA_C, seed=0), ((0,), (1, 2), (3,)), 5),
        # 361 pieces of 4x4, 8x8 and 16x16 matrices, interleaved, the 16x16
        # ones of order 3 in several chunks
        (lambda: load_model(MODELS / "powerlaw_chain6.json"), ((0,), (1, 2), (3, 4, 5)), 3),
    ], ids=["chain4", "powerlaw_chain6"])
    def test_cmi_norms(self, build, regions, order):
        ham = build()
        a, b, c = regions
        moments = MomentTable(ham)
        want = {}
        for m in range(1, order + 1):
            order_sum = 0.0
            for cluster in enumerate_linking(ham, a, c, m):
                piece = cmi_cluster_term(ham, cluster, a, b, c, moments=moments)
                order_sum += cluster.multiplicity / math.factorial(m) * operator_norm(piece.matrix)
            want[m] = order_sum
        assert want[order] > 0
        assert _raw(cmi_expansion(ham, a, b, c, order).per_order_norm_sums) == _raw(want)

    def test_a_chunk_of_one_matrix_gives_the_same_sums(self, monkeypatch, chain3, chain4):
        chunks = []
        norms = expansion.operator_norms

        def spy(matrices):
            chunks.append(len(matrices))
            return norms(matrices)

        monkeypatch.setattr(expansion, "operator_norms", spy)
        effham = chain3.per_order_norms()
        cmi = cmi_expansion(*chain4, 5)
        assert max(chunks) > 1
        monkeypatch.setattr(expansion, "_NORM_CHUNK_BYTES", 1)
        chunks.clear()
        assert _raw(chain3.per_order_norms()) == _raw(effham)
        again = cmi_expansion(*chain4, 5)
        assert max(chunks) == 1
        assert _raw(again.per_order_norm_sums) == _raw(cmi.per_order_norm_sums)
        assert np.array_equal(again.operator.matrix, cmi.operator.matrix)


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


@pytest.fixture(scope="module")
def chain6():
    ham = random_chain(6, beta=BETA_C / 4.0, seed=0)
    return ham, ed.exact_gibbs(ham)


def z_on(vertex):
    return SupportedOperator((vertex,), PAULI["Z"])


class TestRefusals:
    @pytest.mark.parametrize("vertex", [99, -1, 6])
    @pytest.mark.parametrize("call", [
        lambda ham, st, v: effective_hamiltonian(ham, (v,), 2),
        lambda ham, st, v: reduced_state(ham, (0, v), 2),
        lambda ham, st, v: local_entropy(ham, (v,), 2),
        lambda ham, st, v: local_observable(ham, z_on(v), 2),
        lambda ham, st, v: local_observable(ham, z_on(v), 2, pad=1),
        lambda ham, st, v: cmi_expansion(ham, (0,), (1,), (v,), 2),
        lambda ham, st, v: cmi_expansion(ham, (v,), (1,), (3,), 2),
        lambda ham, st, v: ed.exact_cmi(st, (0,), (1,), (v,)),
        lambda ham, st, v: ed.reduced_density(st, (v,)),
        lambda ham, st, v: _vertex_list(f"0,{v}", ham),
        lambda ham, st, v: truncation_certificate(ham, (0, v), 2),
        lambda ham, st, v: entropy_certificate(ham, (v,), 2),
        lambda ham, st, v: cmi_order_norm_bound(ham, (0,), (v,), 2),
        lambda ham, st, v: surface_region(ham.graph, (v,), 1),
        lambda ham, st, v: list(enumerate_connected_to_region(ham, (v,), 2)),
        lambda ham, st, v: list(enumerate_linking(ham, (0,), (v,), 2)),
        lambda ham, st, v: count_bound_check(ham, (0, v), 2),
        lambda ham, st, v: area_law_saturation_series(ham, (v,), [(2,), (3,)]),
        lambda ham, st, v: area_law_saturation_series(ham, (0,), [(2,), (v,)]),
    ], ids=[
        "effective_hamiltonian", "reduced_state", "local_entropy",
        "local_observable", "local_observable-pad", "cmi_expansion-C",
        "cmi_expansion-A", "exact_cmi", "reduced_density", "cli-vertex-list",
        "truncation_certificate", "entropy_certificate", "cmi_order_norm_bound",
        "surface_region", "enumerate_connected_to_region",
        "enumerate_linking", "count_bound_check", "area_law-A", "area_law-slice",
    ])
    def test_vertex_outside_the_graph(self, chain6, call, vertex, monkeypatch):
        ham, st = chain6
        # a region is refused before any dense diagonalization runs
        monkeypatch.setattr(ed, "exact_gibbs", _no_exact_gibbs)
        with pytest.raises(ValidationError, match=rf"vertex {vertex} is not in the graph \(0\.\.5\)"):
            call(ham, st, vertex)

    @pytest.mark.parametrize("call", [
        lambda ham: effective_hamiltonian(ham, (0,), -1),
        lambda ham: log_partition_function(ham, -1),
        lambda ham: cmi_expansion(ham, (0,), (1,), (2,), -1),
    ], ids=["effective_hamiltonian", "log_partition_function", "cmi_expansion"])
    def test_negative_order(self, chain6, call):
        with pytest.raises(ValidationError, match="order must be >= 0, got -1"):
            call(chain6[0])

    @pytest.mark.parametrize("order", [2.5, "2"], ids=["float", "string"])
    @pytest.mark.parametrize("call", [
        lambda ham, order: effective_hamiltonian(ham, (0,), order),
        lambda ham, order: log_partition_function(ham, order),
        lambda ham, order: cmi_expansion(ham, (0,), (1,), (2,), order),
    ], ids=["effective_hamiltonian", "log_partition_function", "cmi_expansion"])
    def test_order_that_is_not_an_integer(self, chain6, call, order):
        with pytest.raises(ValidationError, match=f"order {order!r} is not an integer"):
            call(chain6[0], order)

    @pytest.mark.parametrize("call, region", [
        (lambda ham: effective_hamiltonian(ham, 1, 2), 1),
        (lambda ham: cmi_expansion(ham, 0, (1,), (2,), 2), 0),
    ], ids=["effective_hamiltonian", "cmi_expansion"])
    def test_region_that_is_not_a_collection(self, chain6, call, region):
        with pytest.raises(ValidationError,
                           match=f"region {region} is not a collection of vertex ids"):
            call(chain6[0])

    def test_ed_limit_that_is_not_an_integer(self, chain6):
        with pytest.raises(ValidationError, match="ed_limit 'x' is not an integer"):
            effective_hamiltonian(chain6[0], (1,), 2, ed_limit="x").scalar_part

    @pytest.mark.parametrize("call, message", [
        (lambda ham: truncation_certificate(ham, (1,), -1), "order must be >= 0, got -1"),
        (lambda ham: trace_distance_certificate(ham, (1,), -1), "order must be >= 0, got -1"),
        (lambda ham: entropy_certificate(ham, (1,), -3), "order must be >= 0, got -3"),
        (lambda ham: log_z_certificate(ham, 1.5), "order 1.5 is not an integer"),
        (lambda ham: cmi_order_norm_bound(ham, (0,), (3,), "a"), "cluster size 'a' is not an integer"),
        (lambda ham: cmi_order_norm_bound(ham, (0,), (3,), 0), "cluster size must be >= 1, got 0"),
    ], ids=["truncation", "trace_distance", "entropy", "log_z", "cmi_order-string",
            "cmi_order-zero"])
    def test_certificate_order_outside_the_contract(self, chain6, call, message):
        with pytest.raises(ValidationError, match=message):
            call(chain6[0])

    @pytest.mark.parametrize("pad, message", [
        (-1, "pad must be >= 0, got -1"), (1.5, "pad 1.5 is not an integer"),
    ], ids=["negative", "float"])
    def test_pad_outside_the_contract(self, chain6, pad, message):
        with pytest.raises(ValidationError, match=message):
            local_observable(chain6[0], z_on(2), 2, pad=pad)

    def test_numpy_order(self, chain6):
        ham = chain6[0]
        assert log_partition_function(ham, np.int64(2)) == log_partition_function(ham, 2)

    @pytest.mark.parametrize("a, b, c", [
        ((0, 1), (1, 2), (3,)),   # A and B
        ((0,), (2, 3), (3, 4)),   # B and C
        ((0, 1), (2,), (1, 3)),   # A and C
    ])
    def test_overlapping_cmi_regions(self, chain6, a, b, c):
        ham, st = chain6
        with pytest.raises(ValidationError, match="regions must be disjoint"):
            cmi_expansion(ham, a, b, c, 2)
        with pytest.raises(ValidationError, match="regions must be disjoint"):
            ed.exact_cmi(st, a, b, c)

    @pytest.mark.parametrize("call", [
        lambda ham: list(enumerate_linking(ham, (0, 1), (1, 2), 2)),
        lambda ham: cmi_order_norm_bound(ham, (0, 1), (1, 2), 2),
        lambda ham: area_law_saturation_series(ham, (0,), [(2, 3), (3, 4)]),
    ], ids=["enumerate_linking", "cmi_order_norm_bound", "area_law-slices"])
    def test_overlapping_regions(self, chain6, call, monkeypatch):
        monkeypatch.setattr(ed, "exact_gibbs", _no_exact_gibbs)
        with pytest.raises(ValidationError, match="regions must be disjoint"):
            call(chain6[0])


def _no_exact_gibbs(*args, **kwargs):
    raise AssertionError("dense diagonalization ran before the regions were checked")
