import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gibbsmarkov import random_models
from gibbsmarkov.random_models import power_law_chain, random_chain, random_grid
from gibbsmarkov.spin_model import (
    FiniteRange,
    ModelError,
    PAULI,
    PowerLaw,
    ValidationError,
    build_graph,
    build_hamiltonian,
    check_integer,
    g_tilde,
    load_model,
    locality_profile,
    pauli_string,
    save_model,
)

from conftest import random_hermitian

ZZ = np.kron(PAULI["Z"], PAULI["Z"])
MODELS = Path(__file__).resolve().parent.parent / "models"


def chain(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


class TestGraph:
    def test_distances_match_bfs_on_a_cycle(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.dist[0, 2] == 2
        assert g.dist[0, 3] == 1
        assert g.degree == 2

    def test_metric_properties(self):
        g = chain(5)
        d = g.dist
        assert np.allclose(d, d.T)
        assert all(d[i, i] == 0 for i in range(5))
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    assert d[i, j] <= d[i, k] + d[k, j]

    def test_disconnected_pairs_are_infinite(self):
        g = build_graph(3, [(0, 1)])
        assert math.isinf(g.distance((0,), (2,)))


class TestValidation:
    def test_pauli_chain_norm_sums(self):
        g = chain(3)
        ham = build_hamiltonian(
            g, [((0, 1), 0.4 * ZZ), ((1, 2), 0.4 * ZZ)], FiniteRange(1), beta=0.1
        )
        assert ham.vertex_norm_sums() == pytest.approx([0.4, 0.8, 0.4])

    def test_over_normalized_model_rejected(self):
        g = chain(3)
        with pytest.raises(ValidationError):
            build_hamiltonian(
                g, [((0, 1), 0.7 * ZZ), ((1, 2), 0.7 * ZZ)], FiniteRange(1), beta=0.1
            )

    def test_rescale_divides_terms_and_scales_beta(self):
        g = chain(3)
        ham = build_hamiltonian(
            g,
            [((0, 1), 0.7 * ZZ), ((1, 2), 0.7 * ZZ)],
            FiniteRange(1),
            beta=0.1,
            rescale=True,
        )
        assert max(ham.vertex_norm_sums()) <= 1 + 1e-12
        assert ham.beta == pytest.approx(0.1 * 1.4)

    def test_non_hermitian_term_rejected(self):
        g = chain(2)
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValidationError):
            build_hamiltonian(g, [((0,), bad)], FiniteRange(1), beta=0.1)

    def test_nan_term_rejected(self):
        g = chain(2)
        bad = np.array([[np.nan, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValidationError, match="not Hermitian"):
            build_hamiltonian(g, [((0,), bad)], FiniteRange(1), beta=0.1)

    def test_range_violation_rejected(self):
        g = chain(4)
        with pytest.raises(ValidationError):
            build_hamiltonian(g, [((0, 3), 0.1 * ZZ)], FiniteRange(1), beta=0.1)

    @pytest.mark.parametrize("beta", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_beta_rejected(self, beta):
        g = chain(2)
        with pytest.raises(ValidationError, match="beta"):
            build_hamiltonian(g, [((0, 1), 0.1 * ZZ)], FiniteRange(1), beta=beta)
        ham = build_hamiltonian(g, [((0, 1), 0.1 * ZZ)], FiniteRange(1), beta=0.1)
        with pytest.raises(ValidationError, match="beta"):
            ham.with_beta(beta)

    def test_zero_beta_is_valid(self):
        g = chain(2)
        ham = build_hamiltonian(g, [((0, 1), 0.1 * ZZ)], FiniteRange(1), beta=0.0)
        assert ham.beta == 0.0
        assert ham.with_beta(0.1).with_beta(0).beta == 0.0

    def test_empty_support_rejected(self):
        # a constant term would enter both the bare part of H_eff and the
        # scalar channel log Z_{L^c}
        with pytest.raises(ValidationError, match="term support is empty"):
            build_hamiltonian(chain(2), [((), [[0.5]])], FiniteRange(1), beta=0.1)


class TestRegions:
    def test_check_regions_returns_sorted_distinct_tuples(self):
        assert chain(4).check_regions((3, 1, 1), (0,)) == ((1, 3), (0,))
        assert chain(4).check_regions() == ()
        assert chain(4).check_regions((np.int64(3), 1)) == ((1, 3),)

    @pytest.mark.parametrize("vertex", [1.7, "1", np.float64(2.0), True])
    def test_check_regions_refuses_an_id_that_is_not_an_integer(self, vertex):
        message = re.escape(f"vertex id {vertex!r} is not an integer")
        with pytest.raises(ValidationError, match=message):
            chain(4).check_regions((vertex, True))


class TestVertexIds:
    """A vertex id is an integer wherever a model names one: a float is
    refused, never truncated to the vertex below it."""

    def test_term_support_refuses_a_float(self):
        with pytest.raises(ValidationError, match="vertex id 1.7 is not an integer"):
            build_hamiltonian(chain(2), [((0, 1.7), 0.1 * ZZ)], FiniteRange(1), beta=0.01)

    def test_edge_refuses_a_float(self):
        with pytest.raises(ValidationError, match="vertex id 1.5 is not an integer"):
            build_graph(3, [(0, 1), (1.5, 2)])

    def test_model_file_support_refuses_a_float(self, tmp_path):
        doc = json.loads((MODELS / "tfi_chain6.json").read_text())
        doc["terms"][0]["support"] = [0.9]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="vertex id 0.9 is not an integer"):
            load_model(bad)

    def test_numpy_integers_are_vertex_ids(self):
        i0, i1 = np.int64(0), np.int64(1)
        g = build_graph(2, [(i0, i1)])
        ham = build_hamiltonian(g, [((i1, i0), 0.1 * ZZ)], FiniteRange(1), beta=0.01)
        assert g.edges == ((0, 1),)
        assert ham.terms[0].support == (0, 1)


class TestIntegerInputs:
    """A count, a dimension or a range is an integer wherever a model names
    one: a float or a string is refused with ValidationError, never
    truncated, and a numpy integer is accepted."""

    @pytest.mark.parametrize("key, value, message", [
        ("vertices", 6.7, "vertex_count 6.7 is not an integer"),
        ("local_dim", 2.5, "local_dim 2.5 is not an integer"),
        ("interaction_class", {"finite_range": 1.5},
         "interaction_class finite_range 1.5 is not an integer"),
    ], ids=["vertices", "local_dim", "finite_range"])
    def test_model_file_refuses_a_float(self, tmp_path, key, value, message):
        doc = json.loads((MODELS / "tfi_chain6.json").read_text())
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=message):
            load_model(bad)

    def test_graph_refuses_a_float_vertex_count(self):
        with pytest.raises(ValidationError, match="vertex_count 6.5 is not an integer"):
            build_graph(6.5, [])

    def test_graph_refuses_a_float_local_dim(self):
        with pytest.raises(ValidationError, match="local_dim 2.5 is not an integer"):
            build_graph(3, [(0, 1)], local_dim=2.5)

    @pytest.mark.parametrize("r", [1.5, "1"], ids=["float", "string"])
    def test_hamiltonian_refuses_a_finite_range_that_is_not_an_integer(self, r):
        with pytest.raises(ValidationError, match=f"finite range r {r!r} is not an integer"):
            build_hamiltonian(chain(3), [((0, 1), 0.1 * ZZ)], FiniteRange(r), beta=0.01)

    def test_hamiltonian_refuses_a_string_exponent(self):
        with pytest.raises(ValidationError, match="alpha must be positive, got 2"):
            build_hamiltonian(chain(3), [((0, 1), 0.1 * ZZ)], PowerLaw("2"), beta=0.01)

    @pytest.mark.parametrize("call, message", [
        (lambda: build_graph(0, []), "vertex_count must be >= 1, got 0"),
        (lambda: build_graph(2, [(0, 1)], local_dim=1), "local_dim must be >= 2, got 1"),
        (lambda: build_hamiltonian(chain(3), [((0, 1), 0.1 * ZZ)], FiniteRange(0), beta=0.01),
         "finite range r must be >= 1, got 0"),
    ], ids=["vertex_count", "local_dim", "finite_range"])
    def test_counts_below_their_floor(self, call, message):
        with pytest.raises(ValidationError, match=message):
            call()

    def test_check_integer_floor(self):
        assert check_integer(np.int64(3), "count", 3) == 3
        assert type(check_integer(np.int64(3), "count", 3)) is int
        with pytest.raises(ValidationError, match="count must be >= 4, got 3"):
            check_integer(np.int64(3), "count", 4)
        # the type is checked before the floor
        with pytest.raises(ValidationError, match="count 0.5 is not an integer"):
            check_integer(0.5, "count", 1)

    def test_numpy_integers_are_counts(self):
        g = build_graph(np.int64(3), [(0, 1), (1, 2)], local_dim=np.int64(2))
        ham = build_hamiltonian(g, [((0, 1), 0.1 * ZZ)], FiniteRange(np.int64(1)), beta=0.01)
        assert (g.vertex_count, g.local_dim) == (3, 2)
        assert ham.range_r == 1


def edit_power_law(doc, value):
    doc["interaction_class"] = {"power_law": value}


def edit_finite_range(doc, value):
    doc["interaction_class"] = {"finite_range": value}


def edit_support(doc, value):
    doc["terms"][0]["support"] = [value]


def edit_beta(doc, value):
    doc["beta"] = value


def edit_matrix_entry(doc, value):
    doc["terms"][0]["matrix"][0] = [value, 0.0]


def edit_coeff(doc, value):
    doc["terms"][0] = {"support": [0], "pauli": "Z", "coeff": value}


class TestModelFileNumbers:
    """A number in a model file is a JSON number: a string, which float()
    or int() would parse, and a bool, which they would read as 0 or 1, are
    refused."""

    @pytest.mark.parametrize("model, edit, value, error, message", [
        ("powerlaw_chain6", edit_power_law, "2", ModelError,
         "interaction_class power_law '2' is not a number"),
        ("powerlaw_chain6", edit_power_law, True, ModelError,
         "interaction_class power_law True is not a number"),
        ("tfi_chain6", edit_finite_range, True, ValidationError,
         "interaction_class finite_range True is not an integer"),
        ("tfi_chain6", edit_support, True, ValidationError, "vertex id True is not an integer"),
        ("tfi_chain6", edit_beta, "0.01", ModelError, "beta '0.01' is not a number"),
        ("tfi_chain6", edit_beta, True, ModelError, "beta True is not a number"),
        ("tfi_chain6", edit_matrix_entry, True, ModelError, "matrix entry True is not a number"),
        ("tfi_chain6", edit_coeff, "0.4", ModelError, "coeff '0.4' is not a number"),
    ], ids=["power_law-string", "power_law-bool", "finite_range-bool", "support-bool",
            "beta-string", "beta-bool", "matrix-bool", "coeff-string"])
    def test_refuses_a_string_or_a_bool(self, tmp_path, model, edit, value, error, message):
        doc = json.loads((MODELS / f"{model}.json").read_text())
        edit(doc, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(error, match=re.escape(message)):
            load_model(bad)

    def test_an_integer_exponent_is_a_number(self, tmp_path):
        doc = json.loads((MODELS / "powerlaw_chain6.json").read_text())
        edit_power_law(doc, 2)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert load_model(path).interaction_class == PowerLaw(2.0)

    def test_bool_counts_and_exponents_are_refused(self):
        with pytest.raises(ValidationError, match="vertex_count True is not an integer"):
            build_graph(True, [])
        with pytest.raises(ValidationError, match="alpha must be positive, got True"):
            build_hamiltonian(chain(3), [((0, 1), 0.1 * ZZ)], PowerLaw(True), beta=0.01)


class TestRandomChain:
    @pytest.mark.parametrize("n", [3, 9, 16])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_is_the_one_row_grid_of_the_chain_draws(self, n, seed):
        # the bonds (i, i+1) drawn in order, then the fields, all scaled by
        # one factor that puts the worst per-vertex norm sum at the budget
        rng = np.random.default_rng(seed)
        draw, field = random_models.random_hermitian, random_models.FIELD_SCALE
        raw = [((i, i + 1), draw(rng, 4)) for i in range(n - 1)]
        raw += [((i,), field * draw(rng, 2)) for i in range(n)]
        sums = np.zeros(n)
        for support, mat in raw:
            sums[list(support)] += np.linalg.norm(mat, 2)
        scale = random_models.VERTEX_BUDGET / sums.max()
        ham = random_chain(n, 0.01, seed)
        grid = random_grid(1, n, 0.01, seed)
        assert ham.graph.edges == grid.graph.edges == tuple((i, i + 1) for i in range(n - 1))
        expected = dict((support, scale * mat) for support, mat in raw)
        assert [t.support for t in ham.terms] == [t.support for t in grid.terms]
        for term, twin in zip(ham.terms, grid.terms):
            assert np.array_equal(term.matrix, expected[term.support])
            assert np.array_equal(term.matrix, twin.matrix)


class TestPauliString:
    def test_letter_i_acts_on_support_i(self):
        support, letters, mat = pauli_string((3, 2), "ZX", 2)
        assert (support, letters) == ((2, 3), "XZ")
        assert np.array_equal(mat, np.kron(PAULI["X"], PAULI["Z"]))

    def test_model_file_and_helper_agree(self, tmp_path):
        doc = {
            "local_dim": 2, "vertices": 3, "edges": [[0, 1], [1, 2]],
            "interaction_class": {"finite_range": 1}, "beta": 0.01,
            "terms": [{"support": [1, 0], "pauli": "XZ", "coeff": 0.4}],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        (term,) = load_model(path).terms
        assert term.support == (0, 1)
        assert np.array_equal(term.matrix, 0.4 * np.kron(PAULI["Z"], PAULI["X"]))

    @pytest.mark.parametrize("support, letters, local_dim, error, message", [
        ((2, 2), "ZZ", 2, ValidationError, "repeated vertices"),
        ((2, 3), "Z", 2, ModelError, "does not match support"),
        ((2,), "Q", 2, ModelError, "bad Pauli string 'Q'"),
        ((), "", 2, ModelError, "bad Pauli string ''"),
        ((2,), "Z", 3, ModelError, "local_dim = 2"),
        ((1.5,), "Z", 2, ValidationError, "not an integer"),
    ])
    def test_refusals(self, support, letters, local_dim, error, message):
        with pytest.raises(error, match=message):
            pauli_string(support, letters, local_dim)


class TestPowerLawTails:
    def max_admissible_j(self, n, alpha):
        """Brute-force the largest uniform coupling J/R^(alpha+1) passing
        every tail-sum constraint on an n-vertex chain."""
        best = None
        for v in range(n):
            for big_r in range(1, n):
                tail = sum(
                    1.0 / abs(i - j) ** (alpha + 1)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if v in (i, j) and abs(i - j) >= big_r
                )
                if tail > 0:
                    cap = big_r ** -alpha / tail
                    best = cap if best is None else min(best, cap)
        return best

    def test_all_pairs_chain_accepted_at_safe_coupling(self):
        n, alpha = 6, 2.0
        j_max = self.max_admissible_j(n, alpha)
        g = chain(n)
        terms = [
            ((i, j), (0.99 * j_max / (j - i) ** (alpha + 1)) * ZZ)
            for i in range(n)
            for j in range(i + 1, n)
        ]
        ham = build_hamiltonian(g, terms, PowerLaw(alpha), beta=1e-4)
        assert len(ham.terms) == n * (n - 1) // 2

    def test_all_pairs_chain_rejected_above_cap(self):
        n, alpha = 6, 2.0
        j_max = self.max_admissible_j(n, alpha)
        g = chain(n)
        terms = [
            ((i, j), (1.5 * j_max / (j - i) ** (alpha + 1)) * ZZ)
            for i in range(n)
            for j in range(i + 1, n)
        ]
        with pytest.raises(ValidationError):
            build_hamiltonian(g, terms, PowerLaw(alpha), beta=1e-4)

    @pytest.mark.parametrize("alpha", [math.nan, 0.0, -1.0])
    def test_exponent_that_is_not_positive_rejected(self, alpha, tmp_path):
        g = chain(2)
        with pytest.raises(ValidationError, match=f"alpha must be positive, got {alpha}"):
            build_hamiltonian(g, [((0, 1), 0.1 * ZZ)], PowerLaw(alpha), beta=1e-4)
        # Python's JSON reader parses NaN, so a model file can carry it
        data = json.loads((MODELS / "powerlaw_chain6.json").read_text())
        data["interaction_class"] = {"power_law": alpha}
        path = tmp_path / "bad_alpha.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=f"alpha must be positive, got {alpha}"):
            load_model(path)

    @pytest.mark.parametrize("alpha, beta, name", [
        (-1.0, 1e-4, "alpha"), (math.nan, 1e-4, "alpha"),
        (2.0, -1.0, "beta"), (2.0, math.nan, "beta"),
    ])
    def test_power_law_chain_refuses_bad_inputs(self, alpha, beta, name):
        with pytest.raises(ValidationError, match=name):
            power_law_chain(6, alpha, beta, seed=0)

    def test_infinite_diameter_term_rejected(self):
        # (0, 2) joins two components: its diameter is infinite, so it sits
        # in the tail at every R, while R^-alpha falls to zero
        g = build_graph(4, [(0, 1), (2, 3)])
        terms = [((0, 1), 0.1 * ZZ), ((2, 3), 0.1 * ZZ), ((0, 2), 0.01 * ZZ)]
        with pytest.raises(ValidationError, match=r"\(0, 2\)"):
            build_hamiltonian(g, terms, PowerLaw(2.0), beta=1e-4)
        build_hamiltonian(g, terms[:2], PowerLaw(2.0), beta=1e-4)


class TestLocalityProfile:
    def test_nearest_neighbor_chain_vanishes_beyond_range(self):
        g = chain(4)
        ham = build_hamiltonian(
            g,
            [((i, i + 1), 0.3 * ZZ) for i in range(3)],
            FiniteRange(1),
            beta=0.1,
        )
        profile = locality_profile(ham)
        for v, rows in profile.items():
            for r_value, tail in rows:
                if r_value >= 2:
                    assert tail == 0.0

    def test_empty_hamiltonian_profile_is_zero(self):
        g = chain(3)
        ham = build_hamiltonian(g, [], FiniteRange(1), beta=0.1)
        for rows in locality_profile(ham).values():
            assert all(tail == 0.0 for _, tail in rows)

    def test_profile_matches_direct_summation(self, rng):
        n, alpha = 6, 2.0
        g = chain(n)
        terms = [
            ((i, j), (0.01 / (j - i) ** (alpha + 1)) * random_hermitian(rng, 4))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        ham = build_hamiltonian(g, terms, PowerLaw(alpha), beta=1e-4)
        profile = locality_profile(ham)
        for v in range(n):
            for r_value, tail in profile[v]:
                expected = sum(
                    t.norm
                    for t in ham.terms
                    if v in t.support and t.diameter >= r_value
                )
                assert tail == pytest.approx(expected, abs=1e-12)


class TestGTilde:
    def test_chain_l1_is_max_incident_norm_sum(self):
        g = chain(3)
        ham = build_hamiltonian(
            g, [((0, 1), 0.4 * ZZ), ((1, 2), 0.3 * ZZ)], FiniteRange(1), beta=0.1
        )
        assert g_tilde(ham, 1) == pytest.approx(0.7)
        assert g_tilde(ham, 2) == 0.0

    @pytest.mark.parametrize("l, message", [
        (0, "l must be >= 1, got 0"), (1.0, "l 1.0 is not an integer"),
    ], ids=["zero", "float"])
    def test_diameter_is_an_integer_with_a_floor(self, l, message):
        ham = build_hamiltonian(chain(3), [((0, 1), 0.4 * ZZ)], FiniteRange(1), beta=0.1)
        with pytest.raises(ValidationError, match=message):
            g_tilde(ham, l)

    def test_power_law_matches_brute_force(self, rng):
        n, alpha = 6, 2.0
        g = chain(n)
        terms = [
            ((i, j), (0.01 / (j - i) ** (alpha + 1)) * random_hermitian(rng, 4))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        ham = build_hamiltonian(g, terms, PowerLaw(alpha), beta=1e-4)
        l = 3
        expected = max(
            sum(t.norm for t in ham.terms if v in t.support and t.diameter == l)
            for v in range(n)
        )
        assert g_tilde(ham, l) == pytest.approx(expected, abs=1e-14)


class TestModelFiles:
    def test_round_trip(self, tmp_path, rng):
        g = chain(4)
        terms = [((i, i + 1), 0.2 * random_hermitian(rng, 4)) for i in range(3)]
        terms.append(((0,), 0.1 * PAULI["X"]))
        ham = build_hamiltonian(g, terms, FiniteRange(1), beta=0.002)
        path = tmp_path / "model.json"
        save_model(ham, path)
        back = load_model(path)
        assert back.beta == ham.beta
        assert len(back.terms) == len(ham.terms)
        for t1, t2 in zip(ham.terms, back.terms):
            assert t1.support == t2.support
            assert np.allclose(t1.matrix, t2.matrix)

    def test_pauli_terms_expand(self, tmp_path):
        doc = {
            "local_dim": 2,
            "vertices": 3,
            "edges": [[0, 1], [1, 2]],
            "interaction_class": {"finite_range": 1},
            "beta": 0.01,
            "terms": [
                {"support": [0, 1], "pauli": "ZZ", "coeff": 0.4},
                {"support": [1, 2], "pauli": "ZZ", "coeff": 0.4},
            ],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        ham = load_model(path)
        assert ham.k == 2
        assert ham.vertex_norm_sums() == pytest.approx([0.4, 0.8, 0.4])

    def test_non_hermitian_matrix_entry_names_the_term(self, tmp_path):
        doc = {
            "local_dim": 2,
            "vertices": 2,
            "edges": [[0, 1]],
            "interaction_class": {"finite_range": 1},
            "beta": 0.01,
            "terms": [
                {"support": [0], "matrix": [[0, 0], [1, 0], [0, 0], [0, 0]]}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_model(path)

    @pytest.mark.parametrize("key", ["edges", "terms"])
    @pytest.mark.parametrize("value", ["", {}, 3], ids=["string", "object", "number"])
    def test_edges_and_terms_must_be_arrays(self, tmp_path, key, value):
        doc = json.loads((MODELS / "tfi_chain6.json").read_text())
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=f"field '{key}' must be a JSON array"):
            load_model(bad)

    def _power_law_doc(self, interaction_class):
        return {
            "local_dim": 2,
            "vertices": 3,
            "edges": [[0, 1], [1, 2]],
            "interaction_class": interaction_class,
            "beta": 0.001,
            "terms": [
                {"support": [0, 1], "pauli": "ZZ", "coeff": 0.4},
                {"support": [0, 2], "pauli": "ZZ", "coeff": 0.1},
            ],
        }

    def test_documented_power_law_class_loads(self, tmp_path):
        path = tmp_path / "pl.json"
        path.write_text(json.dumps(self._power_law_doc({"power_law": 2.0})))
        ham = load_model(path)
        assert ham.interaction_class == PowerLaw(2.0)

    @pytest.mark.parametrize(
        "spec", [{"power_law": {"alpha": 2.0, "g": 1.0}}, {"finite_range": "one"}]
    )
    def test_non_numeric_interaction_class_is_a_model_error(self, tmp_path, spec):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(self._power_law_doc(spec)))
        with pytest.raises(ModelError, match="interaction_class"):
            load_model(path)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("beta",), "x"),
            (("vertices",), "x"),
            (("local_dim",), "two"),
            (("edges", 0), [0]),
            (("terms", 0, "support"), "ab"),
            (("terms", 0), 5),
            (("terms", 0), {"support": [0], "pauli": "X", "coeff": "x"}),
            (("terms", 0), {"support": [0], "pauli": 5}),
            (("terms", 0, "matrix", 0), [1]),
            (("terms", 0, "matrix", 0), "x"),
            (("terms", 0, "matrix"), 7),
            (("beta",), -0.5),
            (("beta",), math.nan),
            (("beta",), math.inf),
        ],
        ids=[
            "beta", "vertices", "local_dim", "edge", "support", "term",
            "coeff", "pauli", "matrix-pair", "matrix-entry", "matrix",
            "negative-beta", "nan-beta", "inf-beta",
        ],
    )
    def test_malformed_field_is_a_model_error(self, tmp_path, path, value):
        doc = json.loads((MODELS / "tfi_chain6.json").read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ModelError):
            load_model(bad)
