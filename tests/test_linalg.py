import numpy as np
import pytest

from qstego.linalg import (
    DensityMatrix,
    HermitianOperator,
    Povm,
    PureState,
    basis_state,
    distinct_eigenvalue_count,
    fidelity,
    matrix_power,
    maximally_entangled,
    partial_trace,
    purify,
    schmidt_decompose,
    support_projector,
    tensor,
    trace_norm,
)


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = g @ g.conj().T
    return DensityMatrix(a / np.trace(a))


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


class TestTypes:
    def test_density_matrix_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="invalid state"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="invalid state"):
            DensityMatrix(np.eye(2))

    def test_density_matrix_rejects_negative(self):
        with pytest.raises(ValueError, match="invalid state"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_pure_state_norm(self):
        with pytest.raises(ValueError, match="invalid state"):
            PureState(np.array([1.0, 1.0]))

    def test_povm_completeness(self):
        half = HermitianOperator(0.5 * np.eye(2))
        Povm((half, half))
        with pytest.raises(ValueError, match="invalid POVM"):
            Povm((half, HermitianOperator(0.4 * np.eye(2))))

    def test_random_states_valid(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 4):
            for _ in range(20):
                rho = random_density(rng, dim)
                assert abs(np.trace(rho.data) - 1) < 1e-10
                assert np.linalg.eigvalsh(rho.data).min() > -1e-10


class TestTensorAndPartialTrace:
    def test_tensor_identity_case(self):
        half = DensityMatrix(np.eye(2) / 2)
        out = tensor(half, half)
        assert out.dim == 4
        assert np.allclose(out.data, np.eye(4) / 4)

    def test_tensor_basis_case(self):
        zero = basis_state(0, 2).to_density()
        one = basis_state(1, 2).to_density()
        out = tensor(zero, one)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.allclose(out.data, expected)

    def test_tensor_trace_one(self):
        rng = np.random.default_rng(1)
        a, b = random_density(rng, 2), random_density(rng, 2)
        # oracle: trace of the Kronecker product computed entrywise
        kron = np.kron(a.data, b.data)
        assert np.trace(kron).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(tensor(a, b).data, kron)

    def test_tensor_dimension_limit(self):
        big = DensityMatrix(np.eye(128) / 128)
        with pytest.raises(ValueError, match="dimension limit"):
            tensor(tensor(big, DensityMatrix(np.eye(4) / 4)), DensityMatrix(np.eye(16) / 16))

    def test_partial_trace_maximally_entangled(self):
        phi = maximally_entangled(2).to_density()
        out = partial_trace(phi, [2, 2], keep=[0])
        assert np.allclose(out.data, np.eye(2) / 2, atol=1e-12)

    def test_partial_trace_keep_all(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 6)
        out = partial_trace(rho, [2, 3], keep=[0, 1])
        assert np.allclose(out.data, rho.data)

    def test_partial_trace_product_oracle(self):
        rng = np.random.default_rng(3)
        a, b = random_density(rng, 2), random_density(rng, 3)
        joint = tensor(a, b)
        # independent index-summation oracle
        d_a, d_b = 2, 3
        oracle = np.zeros((d_b, d_b), dtype=complex)
        for i in range(d_b):
            for j in range(d_b):
                oracle[i, j] = sum(joint.data[k * d_b + i, k * d_b + j] for k in range(d_a))
        out = partial_trace(joint, [2, 3], keep=[1])
        assert np.allclose(out.data, oracle, atol=1e-12)
        assert np.allclose(out.data, b.data, atol=1e-10)

    def test_partial_trace_shape_error(self):
        rho = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValueError, match="shape error"):
            partial_trace(rho, [2, 3], keep=[0])


class TestSpectralOps:
    def test_trace_norm_zero(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 3)
        assert trace_norm(rho.data - rho.data) == pytest.approx(0.0, abs=1e-12)

    def test_trace_norm_orthogonal_pure(self):
        z = basis_state(0, 2).to_density().data - basis_state(1, 2).to_density().data
        assert trace_norm(z) == pytest.approx(2.0, abs=1e-12)

    def test_trace_norm_pure_vs_mixed(self):
        z = basis_state(0, 2).to_density().data - np.eye(2) / 2
        assert trace_norm(z) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_identity(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 3)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_fidelity_orthogonal(self):
        a = basis_state(0, 2).to_density()
        b = basis_state(1, 2).to_density()
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_pure_vs_maximally_mixed(self):
        a = basis_state(0, 2).to_density()
        b = DensityMatrix(np.eye(2) / 2)
        assert fidelity(a, b) == pytest.approx(0.5, abs=1e-10)

    def test_fidelity_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a, b = random_density(rng, 3), random_density(rng, 3)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_fuchs_van_de_graaf(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 4):
            for _ in range(100):
                a, b = random_density(rng, dim), random_density(rng, dim)
                t = trace_norm(a.data - b.data)
                f = fidelity(a, b)
                assert t >= 2 * (1 - np.sqrt(f)) - 1e-8
                assert t <= 2 * np.sqrt(1 - min(f, 1.0)) + 1e-8

    def test_distinct_eigenvalue_count(self):
        for d in (2, 3, 5):
            assert distinct_eigenvalue_count(np.eye(d) / d, 1e-8) == 1
        assert distinct_eigenvalue_count(np.diag([0.5, 0.3, 0.2]), 1e-8) == 3
        spread = np.diag([0.5, 0.5 - 1e-12, 1e-12])
        assert distinct_eigenvalue_count(spread, 1e-8) == 2

    def test_matrix_power_trivial(self):
        half = np.eye(2) / 2
        assert np.allclose(matrix_power(half, 2.0).data, np.eye(2) / 4)
        rng = np.random.default_rng(8)
        rho = random_density(rng, 3)
        assert np.allclose(matrix_power(rho, 1.0).data, rho.data, atol=1e-12)

    def test_matrix_power_pseudo_inverse(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        out = matrix_power(rho, -1.0)
        assert np.allclose(out.data, np.diag([2.0, 2.0, 0.0]), atol=1e-12)

    def test_matrix_power_support_projector(self):
        rng = np.random.default_rng(9)
        v = random_pure(rng, 3)
        w = random_pure(rng, 3)
        a = 0.6 * np.outer(v.data, v.data.conj()) + 0.4 * np.outer(w.data, w.data.conj())
        rho = DensityMatrix((a + a.conj().T) / 2 / np.trace(a).real)
        prod = matrix_power(rho, 0.7).data @ matrix_power(rho, -0.7).data
        assert np.allclose(prod, support_projector(rho), atol=1e-8)


class TestPurifyAndSchmidt:
    def test_purify_maximally_mixed(self):
        vec = purify(DensityMatrix(np.eye(2) / 2))
        rho = partial_trace(vec.to_density(), [2, 2], keep=[1])
        assert np.allclose(rho.data, np.eye(2) / 2, atol=1e-9)

    def test_purify_pure_state(self):
        rng = np.random.default_rng(10)
        v = random_pure(rng, 3)
        vec = purify(v.to_density())
        # rank-1 input: purification is |r> (x) |v> for some unit |r>
        mat = vec.data.reshape(3, 3)
        u, s, vh = np.linalg.svd(mat)
        assert s[0] == pytest.approx(1.0, abs=1e-9)
        assert abs(np.vdot(vh[0], v.data)) == pytest.approx(1.0, abs=1e-9)

    def test_purify_round_trip(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 3)
        vec = purify(rho)
        back = partial_trace(vec.to_density(), [3, 3], keep=[1])
        assert np.max(np.abs(back.data - rho.data)) < 1e-9

    def test_schmidt_maximally_entangled(self):
        probs, _, _ = schmidt_decompose(maximally_entangled(2), 2, 2)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_schmidt_product_vector(self):
        rng = np.random.default_rng(12)
        a, b = random_pure(rng, 2), random_pure(rng, 3)
        v = PureState(np.kron(a.data, b.data))
        probs, _, _ = schmidt_decompose(v, 2, 3)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_schmidt_reconstruction(self):
        rng = np.random.default_rng(13)
        v = random_pure(rng, 6)
        probs, va, vb = schmidt_decompose(v, 2, 3)
        rebuilt = sum(
            np.sqrt(probs[k]) * np.kron(va[:, k], vb[:, k]) for k in range(len(probs))
        )
        assert np.linalg.norm(rebuilt - v.data) < 1e-9
