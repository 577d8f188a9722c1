import numpy as np
import pytest

from gibbsmarkov.operators import (
    PositivityError,
    SupportedOperator,
    embed,
    expm_hermitian,
    identity,
    logm_posdef,
    operator_norm,
    partial_trace,
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
        assert np.allclose(logm_posdef(identity((0, 1))).matrix, 0.0)

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

