import math

import numpy as np
import pytest

from qstego.channels import apply, standard_channel
from qstego.info import (
    CqState,
    Pmf,
    holevo_information,
    hypothesis_testing_divergence,
    inf_over_order,
    renyi_entropy,
    renyi_mi_down,
    renyi_mi_up,
    shannon_entropy,
    smooth_min_entropy_classical,
    smooth_min_entropy_quantum,
    sup_over_order,
    von_neumann_entropy,
)
from qstego.linalg import DensityMatrix, basis_state

from .test_linalg import random_density


def random_cq(rng, nx, dim):
    pmf = rng.dirichlet(np.ones(nx))
    return CqState(Pmf(pmf), tuple(random_density(rng, dim) for _ in range(nx)))


def product_cq(rng, nx, dim):
    pmf = rng.dirichlet(np.ones(nx))
    rho = random_density(rng, dim)
    return CqState(Pmf(pmf), tuple(rho for _ in range(nx)))


def correlated_uniform(d):
    states = tuple(basis_state(x, d).to_density() for x in range(d))
    return CqState(Pmf(np.full(d, 1.0 / d)), states)


def mi_up_oracle(cq, a):
    """Second from-scratch evaluation of the sandwiched trace formula."""
    nx, d = cq.alphabet_size, cq.dim_b
    joint = np.zeros((nx * d, nx * d), dtype=complex)
    for x in range(nx):
        joint[x * d : (x + 1) * d, x * d : (x + 1) * d] = cq.pmf[x] * cq.states[x].data
    rho_b = sum(cq.pmf[x] * cq.states[x].data for x in range(nx))
    ref = np.kron(np.diag(cq.pmf.probs), rho_b)

    def power(mat, expo):
        w, v = np.linalg.eigh(mat)
        out = np.zeros_like(w)
        mask = w > 1e-12
        out[mask] = w[mask] ** expo
        return (v * out) @ v.conj().T

    inner = joint @ power(ref, a / 2) @ power(joint, -a) @ power(ref, a / 2)
    return -math.log2(np.trace(inner).real) / a


def mi_down_oracle(cq, a):
    rho_b = sum(cq.pmf[x] * cq.states[x].data for x in range(cq.alphabet_size))

    def power(mat, expo):
        w, v = np.linalg.eigh(mat)
        out = np.zeros_like(w)
        mask = w > 1e-12
        out[mask] = w[mask] ** expo
        return (v * out) @ v.conj().T

    total = sum(
        cq.pmf[x] * np.trace(power(cq.states[x].data, 1 - a) @ power(rho_b, a)).real
        for x in range(cq.alphabet_size)
    )
    return -math.log2(total) / a


class TestRenyiEntropy:
    def test_maximally_mixed(self):
        for d in range(2, 9):
            for a in (0.1, 0.5, 0.9, -0.5, -2.0):
                assert renyi_entropy(np.eye(d) / d, a) == pytest.approx(math.log2(d), abs=1e-9)

    def test_pure_state(self):
        rho = basis_state(1, 3).to_density()
        for a in (0.2, 0.8, -0.5):
            assert renyi_entropy(rho, a) == pytest.approx(0.0, abs=1e-12)

    def test_direct_evaluation(self):
        rho = np.diag([0.75, 0.25])
        assert renyi_entropy(rho, 1.0) == pytest.approx(-math.log2(0.625), abs=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ValueError, match="invalid order"):
            renyi_entropy(np.eye(2) / 2, 0.0)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(0.05, 2.0, 12)
        for dim in (2, 3, 4):
            for _ in range(100):
                rho = random_density(rng, dim)
                vals = [renyi_entropy(rho, a) for a in grid]
                assert all(x >= y - 1e-9 for x, y in zip(vals, vals[1:]))


class TestRenyiMutualInformation:
    def test_product_states_vanish(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            cq = product_cq(rng, 3, 2)
            for a in (0.3, 0.7, -0.5, -2.0):
                assert renyi_mi_up(cq, a) == pytest.approx(0.0, abs=1e-9)
                assert renyi_mi_down(cq, a) == pytest.approx(0.0, abs=1e-9)

    def test_perfectly_correlated(self):
        for d in (2, 3, 4):
            cq = correlated_uniform(d)
            for a in (0.25, 0.75):
                assert renyi_mi_up(cq, a) == pytest.approx(math.log2(d), abs=1e-9)
            for a in (-0.5, -2.0):
                assert renyi_mi_down(cq, a) == pytest.approx(math.log2(d), abs=1e-9)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            cq = random_cq(rng, 2, 2)
            for a in (0.3, 0.6, -0.7):
                assert renyi_mi_up(cq, a) == pytest.approx(mi_up_oracle(cq, a), abs=1e-9)
                assert renyi_mi_down(cq, a) == pytest.approx(mi_down_oracle(cq, a), abs=1e-9)

    def test_mi_up_nonnegative_for_commuting_states(self):
        # Holder gives tr(rho^(1-a) sigma^a) <= 1 when everything commutes
        rng = np.random.default_rng(3)
        for _ in range(20):
            pmf = rng.dirichlet(np.ones(3))
            states = tuple(DensityMatrix(np.diag(rng.dirichlet(np.ones(2)))) for _ in range(3))
            cq = CqState(Pmf(pmf), states)
            for a in (0.1, 0.5, 0.9):
                assert renyi_mi_up(cq, a) >= -1e-9


class TestHypothesisTesting:
    def test_self_divergence(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 3)
        for eps in (0.1, 0.5, 0.9):
            assert hypothesis_testing_divergence(rho, rho, eps) == pytest.approx(
                -math.log2(1 - eps), abs=1e-6
            )

    def test_orthogonal_states_infinite(self):
        a = basis_state(0, 2).to_density()
        b = basis_state(1, 2).to_density()
        assert hypothesis_testing_divergence(a, b, 0.3) == math.inf

    def test_matches_classical_neyman_pearson(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            eps = float(rng.uniform(0.05, 0.6))
            got = hypothesis_testing_divergence(np.diag(p), np.diag(q), eps)
            # greedy likelihood-ratio oracle
            order = np.argsort(-(p / np.maximum(q, 1e-300)))
            need, beta = 1.0 - eps, 0.0
            for i in order:
                take = min(1.0, need / p[i]) if p[i] > 0 else 1.0
                beta += take * q[i]
                need -= take * p[i]
                if need <= 1e-15:
                    break
            expected = math.inf if beta < 1e-14 else -math.log2(beta)
            if expected == math.inf:
                assert got == math.inf
            else:
                assert got == pytest.approx(expected, abs=1e-5)

    def test_feasible_tests_bound_from_above(self):
        # D_H >= -log2 tr(Q sigma) for every explicitly feasible Q
        rng = np.random.default_rng(6)
        for _ in range(10):
            rho, sigma = random_density(rng, 3), random_density(rng, 3)
            eps = 0.25
            val = hypothesis_testing_divergence(rho, sigma, eps)
            for _ in range(10):
                w, v = np.linalg.eigh(rho.data - rng.uniform(0, 2) * sigma.data)
                q = v[:, w > 0] @ v[:, w > 0].conj().T
                if np.trace(q @ rho.data).real >= 1 - eps:
                    assert val >= -math.log2(max(np.trace(q @ sigma.data).real, 1e-300)) - 1e-6


class TestSmoothMinEntropy:
    def test_uniform(self):
        for d in (2, 5, 8):
            assert smooth_min_entropy_classical(np.full(d, 1 / d), 0.0) == pytest.approx(
                math.log2(d), abs=1e-12
            )

    def test_deterministic(self):
        assert smooth_min_entropy_classical([1.0, 0.0], 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_cap_and_spill_worked_example(self):
        assert smooth_min_entropy_classical([0.5, 0.25, 0.25], 0.25) == pytest.approx(2.0, abs=1e-12)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            vals = [smooth_min_entropy_classical(p, e) for e in (0.0, 0.1, 0.2, 0.4)]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
            assert vals[0] == pytest.approx(-math.log2(p.max()), abs=1e-12)

    def test_quantum_reduces_to_spectrum(self):
        rho = np.diag([0.5, 0.25, 0.25])
        assert smooth_min_entropy_quantum(rho, 0.25) == pytest.approx(2.0, abs=1e-12)
        assert smooth_min_entropy_quantum(np.eye(4) / 4, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert smooth_min_entropy_quantum(basis_state(0, 3).to_density(), 0.0) == pytest.approx(
            0.0, abs=1e-12
        )


class TestEntropyAndHolevo:
    def test_von_neumann(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_zero_entropy_is_positive_zero(self):
        # -sum would give -0.0, which a CSV cell renders as "-0.0"
        for h in (von_neumann_entropy(basis_state(0, 2).to_density()), shannon_entropy([1.0, 0.0])):
            assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_holevo_product(self):
        rng = np.random.default_rng(8)
        cq = product_cq(rng, 3, 2)
        assert holevo_information(cq) == pytest.approx(0.0, abs=1e-12)

    def test_holevo_depolarized_bits(self):
        ch = standard_channel("depolarizing", 0.5)
        states = tuple(apply(ch, basis_state(x, 2).to_density()) for x in range(2))
        cq = CqState(Pmf([0.5, 0.5]), states)
        h2 = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert holevo_information(cq) == pytest.approx(1 - h2, abs=1e-10)


class TestOrderOptimizer:
    def test_constant(self):
        res = sup_over_order(lambda a: 3.25)
        assert res.value == pytest.approx(3.25, abs=1e-12)

    def test_monotone_boundary(self):
        res = sup_over_order(lambda a: -1.0 / a)
        assert res.value == pytest.approx(-1.0, abs=1e-3)
        assert res.boundary

    def test_matches_dense_grid(self):
        # noiseless cypher-rate integrand for the maximally mixed cover state
        zeta = 1e-3

        def f(a):
            return 1.0 - (4.0 / a) * math.log2(2.0 / zeta)

        res = sup_over_order(f)
        dense = np.linspace(1e-6, 1 - 1e-6, 100_000)
        oracle = max(f(a) for a in dense)
        assert abs(res.value - oracle) < 1e-6

    def test_result_dominates_grid(self):
        rng = np.random.default_rng(9)
        c = rng.normal(size=4)

        def f(a):
            return c[0] + c[1] * a + c[2] * a * a + c[3] * math.sin(3 * a)

        res = sup_over_order(f)
        for a in np.linspace(0.005, 0.995, 199):
            assert res.value >= f(a) - 1e-12

    def test_no_finite_value(self):
        with pytest.raises(ValueError, match="no finite value"):
            sup_over_order(lambda a: math.nan)

    def test_sup_at_lower_edge(self):
        res = sup_over_order(lambda a: -a)
        assert res.a_star == pytest.approx(1e-6, abs=1e-9)
        assert res.value == pytest.approx(-1e-6, abs=1e-9)
        assert res.boundary

    def test_inf_over_order_interior(self):
        res = inf_over_order(lambda a: (a + 2.0) ** 2)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.a_star == pytest.approx(-2.0, abs=1e-4)
        assert not res.boundary

    def test_inf_over_order_boundary_flag(self):
        res = inf_over_order(lambda a: a)
        assert res.boundary
        assert res.value == pytest.approx(-8.0, abs=1e-9)

    def test_inf_over_order_upper_edge_flagged(self):
        res = inf_over_order(lambda a: -a)
        assert res.a_star == pytest.approx(-0.01, abs=1e-9)
        assert res.value == pytest.approx(0.01, abs=1e-9)
        assert res.boundary


class TestHypothesisTestingDuality:
    def test_matches_lagrangian_dual_on_noncommuting_pairs(self):
        # strong duality: min tr(Q sigma) = max_{t>=0} t(1-eps) - tr((t rho - sigma)_+);
        # the dual scan is an independent certificate of Neyman-Pearson exactness
        rng = np.random.default_rng(12)

        def dual_value(rho, sigma, eps, t_grid):
            best = -np.inf
            for t in t_grid:
                w = np.linalg.eigvalsh(t * rho - sigma)
                best = max(best, t * (1 - eps) - w[w > 0].sum())
            return best

        for _ in range(15):
            rho = random_density(rng, 3)
            sigma = random_density(rng, 3)
            eps = float(rng.uniform(0.1, 0.7))
            primal_bits = hypothesis_testing_divergence(rho, sigma, eps)
            primal = 2.0 ** (-primal_bits)
            coarse = np.linspace(0.0, 50.0, 2000)
            t0 = coarse[np.argmax([dual_value(rho.data, sigma.data, eps, [t]) for t in coarse])]
            fine = np.linspace(max(0.0, t0 - 0.1), t0 + 0.1, 4000)
            dual = dual_value(rho.data, sigma.data, eps, fine)
            assert primal == pytest.approx(dual, abs=5e-5)

    def test_singular_second_argument(self):
        # sigma supported inside rho's support but rank-deficient
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        sigma = DensityMatrix(np.diag([0.7, 0.3, 0.0]).astype(complex))
        eps = 0.25
        got = hypothesis_testing_divergence(rho, sigma, eps)
        # classical greedy oracle on the shared eigenbasis
        order = [2, 1, 0]  # likelihood ratios: inf, 1, 5/7
        need, beta = 1 - eps, 0.0
        p = [0.5, 0.3, 0.2]
        q = [0.7, 0.3, 0.0]
        for i in order:
            take = min(1.0, need / p[i])
            beta += take * q[i]
            need -= take * p[i]
            if need <= 1e-15:
                break
        assert got == pytest.approx(-math.log2(beta), abs=1e-5)
