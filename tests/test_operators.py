from itertools import combinations

import numpy as np
import pytest

from gibbsmarkov.operators import (
    HERMITICITY_TOL,
    OperatorError,
    PositivityError,
    SupportedOperator,
    add_embedded,
    embed,
    embed_matrix,
    embedded_product,
    expm_hermitian,
    logm_posdef,
    operator_norm,
    operator_norms,
    partial_trace,
    trace_out,
)
from gibbsmarkov.spin_model import PAULI

from conftest import random_hermitian


def op(support, matrix):
    return SupportedOperator(tuple(support), np.asarray(matrix, dtype=complex))


class TestEmbed:
    def test_identity_padding_orders_by_vertex_id(self):
        z_on_1 = op((1,), PAULI["Z"])
        out = embed(z_on_1, (0, 1))
        assert np.allclose(out.matrix, np.kron(np.eye(2), PAULI["Z"]))

    def test_same_support_is_noop(self):
        a = op((0, 1), np.kron(PAULI["X"], PAULI["Y"]))
        out = embed(a, (0, 1))
        assert np.allclose(out.matrix, a.matrix)

    def test_gap_in_target(self):
        a = op((0, 2), np.kron(PAULI["X"], PAULI["Y"]))
        out = embed(a, (0, 1, 2))
        expected = np.kron(np.kron(PAULI["X"], np.eye(2)), PAULI["Y"])
        assert np.allclose(out.matrix, expected)

    def test_rejects_non_subset(self):
        a = op((0, 3), np.eye(4))
        with pytest.raises(Exception):
            embed(a, (0, 1, 2))


def random_complex(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def kron_embedding(mat, positions, n_sites, d):
    """Independent oracle: mat (x) I by np.kron, its tensor axes then
    permuted so that the factor listed j-th acts on site positions[j]."""
    rest = [p for p in range(n_sites) if p not in positions]
    full = np.kron(mat, np.eye(d ** len(rest)))
    inv = list(np.argsort(list(positions) + rest))
    axes = inv + [n_sites + i for i in inv]
    return full.reshape((d,) * (2 * n_sites)).transpose(axes).reshape(d ** n_sites, -1)


EMBED_CASES = [
    ((0, 2), 3),        # sorted, with a gap
    ((1,), 4),
    ((2, 0), 3),        # unsorted
    ((3, 0, 2), 4),
    ((0, 1, 2), 3),     # full, in order
    ((2, 0, 1), 3),     # full, permuted
    ((), 3),            # a number times the identity
    ((), 0),
]

EMBED_SCALES = ((2, 1.0), (2, -0.375), (3, 0.25 - 1j))


class TestAddEmbedded:
    @pytest.mark.parametrize("positions, n_sites", EMBED_CASES)
    def test_equals_adding_the_embedding(self, rng, positions, n_sites):
        for d, scale in EMBED_SCALES:
            k = len(positions)
            mat = random_complex(rng, d ** k)
            acc = random_complex(rng, d ** n_sites)
            expected = acc + scale * kron_embedding(mat, positions, n_sites, d)
            add_embedded(acc, mat, positions, n_sites, d, scale)
            assert np.array_equal(acc, expected)

    @pytest.mark.parametrize("positions, n_sites", EMBED_CASES)
    def test_embed_matrix_equals_the_oracle(self, rng, positions, n_sites):
        for d, _ in EMBED_SCALES:
            mat = random_complex(rng, d ** len(positions))
            expected = kron_embedding(mat, positions, n_sites, d)
            assert np.array_equal(embed_matrix(mat, positions, n_sites, d), expected)

    @pytest.mark.parametrize("positions, n_sites", EMBED_CASES)
    def test_a_stack_equals_one_call_per_slice(self, rng, positions, n_sites):
        # a stack of targets and a stack of operators, and one operator
        # broadcast over the stack
        for d, scale in EMBED_SCALES:
            k = len(positions)
            accs = np.stack([random_complex(rng, d ** n_sites) for _ in range(3)])
            mats = np.stack([random_complex(rng, d ** k) for _ in range(3)])
            for mat in (mats, mats[0]):
                expected = accs.copy()
                for acc, one in zip(expected, np.broadcast_to(mat, mats.shape)):
                    add_embedded(acc, one, positions, n_sites, d, scale)
                got = accs.copy()
                add_embedded(got, mat, positions, n_sites, d, scale)
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("positions, n_sites", [((0,), 2), ((1,), 3), ((2, 0), 3)])
    def test_writes_through_a_strided_target(self, rng, positions, n_sites):
        # a transposed matrix and every other slice of a stack: neither is
        # C-contiguous, and each must get what a C-contiguous copy gets
        mat = random_complex(rng, 2 ** len(positions))
        stack = np.stack([random_complex(rng, 2 ** n_sites) for _ in range(4)])
        for target in (random_complex(rng, 2 ** n_sites).T, stack[::2]):
            assert not target.flags.c_contiguous
            expected = np.ascontiguousarray(target)
            add_embedded(expected, mat, positions, n_sites, 2, 0.5)
            add_embedded(target, mat, positions, n_sites, 2, 0.5)
            assert np.array_equal(target, expected)


def covering_position_pairs(n_sites):
    """Every pair of position tuples whose union is 0..n_sites-1:
    overlapping, nested, disjoint and empty ones alike, each tuple in
    ascending and in descending order."""
    tuples = {
        order for k in range(n_sites + 1)
        for subset in combinations(range(n_sites), k) for order in (subset, subset[::-1])
    }
    tuples = sorted(tuples, key=lambda t: (len(t), t))
    return [(a, b) for a in tuples for b in tuples if set(a) | set(b) == set(range(n_sites))]


class TestEmbeddedProduct:
    @pytest.mark.parametrize("n_sites", [0, 1, 2, 3, 4])
    def test_equals_the_product_of_the_embeddings(self, rng, n_sites):
        pairs = covering_position_pairs(n_sites)
        for d in (2, 3):
            for a_pos, b_pos in pairs:
                a = random_complex(rng, d ** len(a_pos))
                b = random_complex(rng, d ** len(b_pos))
                want = embed_matrix(a, a_pos, n_sites, d) @ embed_matrix(b, b_pos, n_sites, d)
                got = embedded_product(a, a_pos, b, b_pos, n_sites, d)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        rho_a = random_hermitian(rng, 2)
        rho_b = random_hermitian(rng, 2)
        joint = op((0, 1), np.kron(rho_a, rho_b))
        out = partial_trace(joint, (0,))
        assert np.allclose(out.matrix, rho_a * np.trace(rho_b))

    def test_keep_everything_is_noop(self, rng):
        a = op((0, 1), random_hermitian(rng, 4))
        out = partial_trace(a, (0, 1))
        assert np.allclose(out.matrix, a.matrix)

    def test_trace_preserved(self, rng):
        a = op((0, 1, 2), random_hermitian(rng, 8))
        out = partial_trace(a, (1,))
        assert abs(np.trace(out.matrix) - np.trace(a.matrix)) < 1e-12

    def test_against_naive_contraction(self, rng):
        # independent double-loop oracle on two qubits, keeping the first
        mat = random_hermitian(rng, 4)
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                oracle[i, j] = sum(mat[2 * i + k, 2 * j + k] for k in range(2))
        out = partial_trace(op((0, 1), mat), (0,))
        assert np.allclose(out.matrix, oracle)


class TestTraceOut:
    def test_stack_is_bitwise_its_members_one_at_a_time(self, rng):
        stack = np.array([random_complex(rng, 2 ** 4) for _ in range(5)])
        for keep in ((), (1,), (0, 3), (0, 1, 2)):
            traced = trace_out(stack, keep, 4, 2)
            for mat, out in zip(stack, traced):
                assert np.array_equal(out, trace_out(mat, keep, 4, 2))
                assert np.array_equal(out, trace_out(mat[None], keep, 4, 2)[0])

    def test_against_naive_loop_non_adjacent_qutrits(self, rng):
        d, keep = 3, (0, 2)
        mat = random_complex(rng, d ** 4)
        t = mat.reshape((d,) * 8)
        oracle = np.zeros((d, d, d, d), dtype=complex)
        for i0, i2, j0, j2 in np.ndindex(d, d, d, d):
            for t1, t3 in np.ndindex(d, d):
                oracle[i0, i2, j0, j2] += t[i0, t1, i2, t3, j0, t1, j2, t3]
        out = trace_out(mat, keep, 4, d)
        assert np.allclose(out, oracle.reshape(d * d, d * d), rtol=0, atol=1e-12)


class TestVertexIds:
    @pytest.mark.parametrize("call", [
        lambda: SupportedOperator((1.7,), PAULI["Z"]),
        lambda: embed(op((0,), PAULI["Z"]), (0, 1.5)),
        lambda: partial_trace(op((0, 1), np.eye(4)), (0.5,)),
    ], ids=["SupportedOperator", "embed", "partial_trace"])
    def test_a_float_is_refused(self, call):
        with pytest.raises(OperatorError, match="vertex ids must be integers"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: SupportedOperator((True,), PAULI["Z"]),
        lambda: embed(op((0,), PAULI["Z"]), (0, True)),
        lambda: partial_trace(op((0, 1), np.eye(4)), (True,)),
    ], ids=["SupportedOperator", "embed", "partial_trace"])
    def test_a_bool_is_refused(self, call):
        # operator.index reads True as 1
        with pytest.raises(OperatorError, match="vertex ids must be integers"):
            call()

    def test_numpy_integers_are_vertex_ids(self):
        a = SupportedOperator((np.int64(1),), PAULI["Z"])
        assert a.support == (1,) and type(a.support[0]) is int
        assert embed(a, (np.int64(0), np.int64(1))).support == (0, 1)
        assert partial_trace(op((0, 1), np.eye(4)), (np.int64(1),)).support == (1,)


class TestMatrixFunctions:
    def test_expm_zero_is_identity(self):
        out = expm_hermitian(op((0,), np.zeros((2, 2))))
        assert np.allclose(out.matrix, np.eye(2))

    def test_expm_diagonal(self):
        beta = 0.3
        out = expm_hermitian(op((0,), PAULI["Z"]), scale=-beta)
        assert np.allclose(np.diag(out.matrix), [np.exp(-beta), np.exp(beta)])

    def test_expm_inverse_identity(self, rng):
        a = op((0, 1, 2), random_hermitian(rng, 8))
        prod = expm_hermitian(a).matrix @ expm_hermitian(a, scale=-1.0).matrix
        assert operator_norm(prod - np.eye(8)) < 1e-10

    def test_logm_identity_is_zero(self):
        assert np.allclose(logm_posdef(op((0, 1), np.eye(4))).matrix, 0.0)

    def test_logm_diagonal(self):
        out = logm_posdef(op((0,), np.diag([np.e, np.e ** 2])))
        assert np.allclose(out.matrix, np.diag([1.0, 2.0]))

    def test_logm_expm_roundtrip(self, rng):
        a = op((0, 1), random_hermitian(rng, 4))
        back = logm_posdef(expm_hermitian(a))
        assert operator_norm(back.matrix - a.matrix) < 1e-10

    def test_logm_rejects_indefinite(self):
        with pytest.raises(PositivityError):
            logm_posdef(op((0,), PAULI["Z"]))

    def test_norm_inequalities(self, rng):
        mat = random_hermitian(rng, 8)
        nuc = np.linalg.norm(mat, "nuc")
        assert operator_norm(mat) <= nuc + 1e-12
        assert nuc <= 8 * operator_norm(mat) + 1e-12



def _bits_of(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


class TestOperatorNorms:
    @pytest.fixture
    def mixed(self, rng):
        """Hermitian matrices of sizes 1 to 16, a real one, a 0x0 one,
        non-Hermitian ones, and Hermitian ones with an anti-Hermitian
        defect just below and just above HERMITICITY_TOL, interleaved."""
        out = [np.zeros((0, 0), dtype=complex)]
        for dim in (1, 2, 4, 16, 2, 4, 1, 16):
            out.append(random_hermitian(rng, dim, norm=float(rng.uniform(0.1, 3.0))))
            out.append(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            for factor in (0.9, 1.1):
                near = random_hermitian(rng, dim, norm=0.5)
                near[0, -1] += 1j * factor * HERMITICITY_TOL
                out.append(near)
        real = rng.normal(size=(2, 2))
        out.append(real + real.T)
        return out

    def test_equals_one_matrix_at_a_time_by_raw_bits(self, mixed):
        got = operator_norms(mixed)
        assert _bits_of(got) == _bits_of([operator_norm(m) for m in mixed])
        assert got[0] == 0.0

    def test_follows_the_hermitian_test(self, mixed):
        # the largest |eigenvalue| of the Hermitian part below the tolerance,
        # the largest singular value above it
        want = [0.0]
        for m in mixed[1:]:
            scale = max(1.0, float(np.abs(m).max()))
            if np.abs(m - m.conj().T).max() <= HERMITICITY_TOL * scale:
                want.append(float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))))
            else:
                want.append(float(np.linalg.norm(m, 2)))
        assert _bits_of(operator_norms(mixed)) == _bits_of(want)
        # the defects straddle the tolerance
        defects = [float(np.abs(m - m.conj().T).max()) for m in mixed[1:]]
        assert any(0.5 * HERMITICITY_TOL < x <= HERMITICITY_TOL for x in defects)
        assert any(HERMITICITY_TOL < x < 2 * HERMITICITY_TOL for x in defects)

    def test_eigensolves_once_per_shape_and_dtype(self, monkeypatch, mixed):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        operator_norms(mixed)
        # complex stacks of sizes 1, 2, 4 and 16 and the real 2x2 alone.
        # Each size holds two Hermitian matrices and, above 1x1, two within
        # the tolerance; a 1x1 defect is twice the imaginary part added
        assert sorted(calls) == [(1, 2, 2), (2, 1, 1), (4, 2, 2), (4, 4, 4), (4, 16, 16)]
