import math
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from gibbsmarkov.clusters import (
    _bits,
    _site_sets,
    _split,
    count_bound_check,
    counting_bound,
    enumerate_connected,
    enumerate_connected_to_region,
    enumerate_linking,
    is_connected,
    is_connected_to,
    links_regions,
    make_cluster,
    overlap_counts,
)
from gibbsmarkov import verify
from gibbsmarkov.random_models import power_law_chain, random_chain, random_grid
from gibbsmarkov.spin_model import (
    FiniteRange,
    PAULI,
    ValidationError,
    build_graph,
    build_hamiltonian,
    load_model,
)
from gibbsmarkov.verify import run_suite

MODELS = Path(__file__).resolve().parent.parent / "models"
ZZ = np.kron(PAULI["Z"], PAULI["Z"])


def chain_ham(n, beta=0.001):
    g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    terms = [((i, i + 1), 0.4 * ZZ) for i in range(n - 1)]
    return build_hamiltonian(g, terms, FiniteRange(1), beta=beta)


def grid_ham(rows, cols, beta=0.001):
    def vid(i, j):
        return i * cols + j

    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < rows:
                edges.append((vid(i, j), vid(i + 1, j)))
    g = build_graph(rows * cols, edges)
    terms = [(e, 0.2 * ZZ) for e in edges]
    return build_hamiltonian(g, terms, FiniteRange(1), beta=beta)


def brute_force(ham, m, keep):
    """Term tuples of the size-m multisets that ``keep`` accepts, scanned in
    canonical order."""
    return [
        idxs
        for idxs in combinations_with_replacement(range(len(ham.terms)), m)
        if keep(make_cluster(ham, idxs))
    ]


class TestMultiplicity:
    def test_distinct_elements(self):
        ham = chain_ham(4)
        assert make_cluster(ham, (0, 1)).multiplicity == 2
        assert make_cluster(ham, (0, 1, 2)).multiplicity == 6

    def test_repeats_divide_out(self):
        ham = chain_ham(4)
        assert make_cluster(ham, (0, 0)).multiplicity == 1
        assert make_cluster(ham, (0, 0, 1)).multiplicity == 3
        assert make_cluster(ham, (0, 0, 1, 1)).multiplicity == 6

    def test_multiplicities_sum_to_sequences(self):
        ham = chain_ham(4)
        t = len(ham.terms)
        for m in (1, 2, 3):
            total = sum(
                make_cluster(ham, idxs).multiplicity
                for idxs in combinations_with_replacement(range(t), m)
            )
            assert total == t ** m


class TestConnectivity:
    def test_two_term_chain(self):
        # terms 0:{0,1}, 1:{1,2} on a 3-vertex path
        ham = chain_ham(3)
        assert is_connected(ham, make_cluster(ham, (0, 1)))
        assert is_connected(ham, make_cluster(ham, (0, 0)))

    def test_disjoint_edges_disconnected(self):
        ham = chain_ham(4)  # terms 0:{0,1}, 1:{1,2}, 2:{2,3}
        assert not is_connected(ham, make_cluster(ham, (0, 2)))
        assert is_connected(ham, make_cluster(ham, (0, 1, 2)))

    def test_connected_to_region_requires_every_component_to_touch(self):
        ham = chain_ham(5)
        c = make_cluster(ham, (0, 3))  # {0,1} and {3,4}: disconnected
        assert not is_connected(ham, c)
        assert is_connected_to(ham, c, (0, 1, 2, 3))  # both touch the region
        assert not is_connected_to(ham, c, (0,))

    def test_split_into_components(self):
        parts = _split([(0, 1), (4,), (5, 6), (1, 2), (), (2, 5)])
        got = sorted((sorted(sites), positions) for sites, positions in parts)
        assert got == [([], [4]), ([0, 1, 2, 5, 6], [0, 2, 3, 5]), ([4], [1])]
        assert _split([]) == []

    def test_empty_cluster(self):
        ham = chain_ham(3)
        empty = make_cluster(ham, ())
        assert not is_connected(ham, empty)
        assert is_connected_to(ham, empty, (0,))
        assert not links_regions(ham, empty, (0,), (2,))

    def test_empty_region_joins_no_element(self):
        ham = chain_ham(3)
        assert not is_connected_to(ham, make_cluster(ham, (0,)), ())

    def test_linking_needs_both_anchors(self):
        ham = chain_ham(3)
        c = make_cluster(ham, (0, 1))
        assert links_regions(ham, c, (0,), (2,))
        assert not links_regions(ham, make_cluster(ham, (0, 0)), (0,), (2,))


class TestIntegerInputs:
    def test_make_cluster_refuses_a_float_term_index(self):
        with pytest.raises(ValidationError, match="term index 1.7 is not an integer"):
            make_cluster(chain_ham(4), (1.7, 2.2))

    def test_make_cluster_refuses_a_negative_term_index(self):
        # -1 would read the last term
        with pytest.raises(ValidationError, match="term index must be >= 0, got -1"):
            make_cluster(chain_ham(4), (0, -1))

    def test_make_cluster_refuses_a_term_index_past_the_last_term(self):
        # chain_ham(4) has 3 terms; index 3 raised a raw IndexError
        for idxs in ((3,), (0, 99)):
            with pytest.raises(ValidationError, match=rf"term index must be < 3, got {idxs[-1]}"):
                make_cluster(chain_ham(4), idxs)

    def test_make_cluster_takes_numpy_integers(self):
        assert make_cluster(chain_ham(4), (np.int64(2), np.int64(1))).term_indices == (1, 2)

    @pytest.mark.parametrize("m, message", [
        (0, "cluster size must be >= 1, got 0"), (2.5, "cluster size 2.5 is not an integer"),
    ], ids=["zero", "float"])
    def test_enumerators_refuse_a_size_that_is_not_a_positive_integer(self, m, message):
        ham = chain_ham(4)
        for stream in (
            enumerate_connected(ham, m),
            enumerate_connected_to_region(ham, (1,), m),
            enumerate_linking(ham, (0,), (3,), m),
        ):
            with pytest.raises(ValidationError, match=message):
                list(stream)

    def test_enumerators_take_a_numpy_size(self):
        ham = chain_ham(4)
        assert list(enumerate_connected(ham, np.int64(2))) == list(enumerate_connected(ham, 2))


class TestEnumeration:
    def test_path_m1_from_endpoint(self):
        ham = chain_ham(3)
        out = [c.term_indices for c in enumerate_connected_to_region(ham, (0,), 1)]
        assert out == [(0,)]

    def test_path_m2_from_endpoint(self):
        ham = chain_ham(3)
        out = [c.term_indices for c in enumerate_connected_to_region(ham, (0,), 2)]
        assert out == [(0, 0), (0, 1)]

    def test_exhaustive_equivalence_on_grid(self):
        ham = grid_ham(3, 3)
        center = (4,)
        for m in (1, 2, 3):
            cases = [
                (
                    enumerate_connected_to_region(ham, center, m),
                    lambda w: is_connected_to(ham, w, center),
                ),
                (enumerate_connected(ham, m), lambda w: is_connected(ham, w)),
            ]
            for streamed, keep in cases:
                assert [w.term_indices for w in streamed] == brute_force(ham, m, keep)

    def test_linking_below_distance_is_empty(self):
        ham = chain_ham(3)
        assert list(enumerate_linking(ham, (0,), (2,), 1)) == []

    def test_linking_unique_pair(self):
        ham = chain_ham(3)
        out = [c.term_indices for c in enumerate_linking(ham, (0,), (2,), 2)]
        assert out == [(0, 1)]

    def test_linking_matches_brute_force_on_long_chain(self):
        # the power-law chain couples all pairs: the dense overlap graph
        dense = power_law_chain(6, 2.0, 1e-4, seed=3)
        for ham, a, c, orders in (
            (chain_ham(6), (0,), (5,), (4, 5)),
            (grid_ham(3, 3), (0,), (8,), (3, 4)),
            (dense, (0,), (5,), (1, 2, 3)),
        ):
            for m in orders:
                streamed = [w.term_indices for w in enumerate_linking(ham, a, c, m)]
                assert streamed == brute_force(
                    ham, m, lambda w: links_regions(ham, w, a, c)
                )

    def test_canonical_order_and_no_duplicates(self):
        ham = grid_ham(2, 3)
        seen = [c.term_indices for c in enumerate_connected_to_region(ham, (0,), 3)]
        assert seen == sorted(set(seen))

    def test_linking_subset_of_connected(self):
        ham = chain_ham(5)
        linking = {c.term_indices for c in enumerate_linking(ham, (0,), (4,), 4)}
        connected = {c.term_indices for c in enumerate_connected(ham, 4)}
        assert linking <= connected
        for idxs in linking:
            sup = set(make_cluster(ham, idxs).support)
            assert 0 in sup and 4 in sup


class TestSiteSets:
    @pytest.mark.parametrize("build, region, order", [
        (lambda: random_chain(6, 1e-3, seed=1), (0, 1, 2, 4, 5), 5),
        (lambda: random_grid(2, 3, 1e-3, seed=2), range(6), 5),
        (lambda: load_model(MODELS / "powerlaw_chain6.json"), (0, 1, 2, 3, 5), 5),
    ], ids=["chain6-split", "grid2x3", "powerlaw_chain6"])
    def test_minimal_cover_matches_a_brute_force_scan(self, build, region, order):
        # the smallest connected multiset inside the region with each union
        ham, inside = build(), set(region)
        covers = {}
        for m in range(1, order + 1):
            for idxs in brute_force(
                ham, m, lambda w: is_connected(ham, w) and inside.issuperset(w.support)
            ):
                covers.setdefault(make_cluster(ham, idxs).support, m)
        sets = _site_sets(ham, region, order)
        assert {_bits(v): level for v, (level, _) in sets.items()} == covers
        for v, (_, inside) in sets.items():
            # the terms inside V, ascending
            sites = set(_bits(v))
            assert inside == tuple(i for i, t in enumerate(ham.terms) if set(t.support) <= sites)


class TestOverlapCounts:
    def test_two_overlapping(self):
        ham = chain_ham(3)
        assert overlap_counts(ham, make_cluster(ham, (0, 1))) == (1, 1)

    def test_single_element(self):
        ham = chain_ham(3)
        assert overlap_counts(ham, make_cluster(ham, (0,))) == (0,)

    def test_repeated_copies_count_toward_each_other(self):
        ham = chain_ham(3)
        assert overlap_counts(ham, make_cluster(ham, (0, 0))) == (1, 1)

    def test_five_subsystem_hub_configuration(self):
        # one hub support touching the other four, plus a single extra
        # overlap X1-X3: counts must come out (2, 1, 2, 1, 4)
        g = build_graph(5, [(i, i + 1) for i in range(4)])
        supports = [(0, 1), (2,), (1, 3), (4,), (0, 2, 3, 4)]
        terms = [(s, (0.1 / len(s)) * np.eye(2 ** len(s))) for s in supports]
        ham = build_hamiltonian(g, terms, FiniteRange(4), beta=0.001)
        order = {t.support: i for i, t in enumerate(ham.terms)}
        idxs = tuple(order[tuple(s)] for s in supports)
        c = make_cluster(ham, idxs)
        counts = overlap_counts(ham, c)
        by_original = tuple(
            counts[c.term_indices.index(order[tuple(s)])] for s in supports
        )
        assert by_original == (2, 1, 2, 1, 4)


class TestCountingBound:
    def test_zero_cluster_case(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        ham = build_hamiltonian(g, [], FiniteRange(1), beta=0.001)
        measured, bound = count_bound_check(ham, (0, 1), 2)
        assert measured == 0
        assert bound >= 0

    def test_chain_m2(self):
        ham = chain_ham(4)
        measured, bound = count_bound_check(ham, (0, 1), 2)
        assert measured <= bound
        assert bound == pytest.approx(2 * (3 * 4 * ham.graph.degree ** 2) ** 2)

    def test_grid_row_m3(self):
        ham = grid_ham(3, 3)
        measured, bound = count_bound_check(ham, (0, 1, 2), 3)
        assert measured <= bound

    def test_bound_formula(self):
        ham = chain_ham(5)
        assert counting_bound(ham, 3, 2) == pytest.approx(
            3 * (3 * 2 ** 2 * 2 ** 2) ** 2
        )


class TestVerifyCountingSuite:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 7])
    def test_passes(self, seed):
        ok, report = run_suite("counting", seed)
        assert ok, report

    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed 1.5 is not an integer"),
        (True, "seed True is not an integer"),
        (-1, "seed must be >= 0, got -1"),
    ], ids=["float", "bool", "negative"])
    def test_refuses_a_seed_outside_the_contract(self, seed, message):
        with pytest.raises(ValidationError, match=message):
            run_suite("counting", seed)

    def test_refuses_an_unknown_suite(self):
        with pytest.raises(ValidationError, match="unknown suite 'nope'"):
            run_suite("nope", 0)

    @pytest.mark.parametrize(
        "name",
        ["enumerate_connected", "enumerate_connected_to_region", "enumerate_linking"],
    )
    def test_fails_when_an_enumerator_drops_a_cluster(self, monkeypatch, name):
        full = getattr(verify, name)

        def dropping(*args, **kw):
            return list(full(*args, **kw))[1:]

        monkeypatch.setattr(verify, name, dropping)
        ok, report = run_suite("counting", 0)
        assert not ok
        assert "result: FAIL" in report
