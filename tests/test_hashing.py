import math

import numpy as np
import pytest

from qstego.hashing import build_classical_hash, build_quantum_hash, encoder_from_hash
from qstego.info import renyi_entropy, sup_over_order
from qstego.linalg import DensityMatrix, trace_norm


class TestClassicalHash:
    def test_uniform_exact_split(self):
        enc = build_classical_hash(np.full(4, 0.25), 2, eps=0.0)
        assert enc.defect == pytest.approx(0.0, abs=1e-12)
        assert enc.error_prob == pytest.approx(0.0, abs=1e-12)
        assert not enc.warning

    def test_three_symbol_partition(self):
        # exhaustive search over all 2^3 tables finds {x1} vs {x2, x3}
        enc = build_classical_hash([0.5, 0.25, 0.25], 2, eps=0.0)
        assert enc.defect == pytest.approx(0.0, abs=1e-12)
        assert enc.error_prob == pytest.approx(0.0, abs=1e-12)
        assert {tuple(np.sort(enc.f))} == {(0, 1, 1)} or tuple(enc.f) == (0, 1, 1)

    def test_single_message(self):
        enc = build_classical_hash([0.7, 0.3], 1, eps=0.0)
        assert enc.defect == 0.0
        assert enc.error_prob == 0.0

    def test_constant_hash_quality(self):
        # f constant on M=2: X-marginal defect 0 (both rows are P_X), error 1/2
        p = np.array([0.6, 0.4])
        enc = encoder_from_hash(np.zeros(2, dtype=int), p, 2)
        assert enc.defect == pytest.approx(0.0, abs=1e-12)
        assert enc.error_prob == pytest.approx(0.5, abs=1e-12)
        assert enc.px_fallback

    def test_warning_when_infeasible(self):
        # a deterministic source cannot feed two near-uniform messages: the
        # best table keeps the X-marginal exact but decodes at chance
        enc = build_classical_hash([1.0, 0.0], 2, eps=0.01)
        assert enc.warning
        assert enc.error_prob >= 0.5 - 1e-12

    def test_error_bounded_by_defect_for_recipe_encoders(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = rng.dirichlet(np.ones(5))
            m = int(rng.integers(1, 4))
            enc = build_classical_hash(p, m, eps=0.5, seed=int(rng.integers(1 << 31)))
            if not enc.px_fallback:
                assert enc.error_prob <= enc.defect + 1e-12

    def test_rate_bound_statistical_acceptance(self):
        # at the guaranteed rate, >= 95% of random PMFs admit defect <= eps
        rng = np.random.default_rng(2)
        eps = 0.5
        hits = trials = 0
        for _ in range(200):
            p = rng.dirichlet(np.full(8, 4.0))
            bound = sup_over_order(
                lambda a: renyi_entropy(np.diag(p))(a) - (4.0 / a) * math.log2(2.0 / eps)
            ).value
            m = max(1, int(math.floor(2.0**bound)))
            trials += 1
            enc = build_classical_hash(p, m, eps, seed=int(rng.integers(1 << 31)))
            hits += enc.defect <= eps
        assert hits / trials >= 0.95


class TestQuantumHash:
    def test_maximally_mixed_split(self):
        code = build_quantum_hash(DensityMatrix(np.eye(2) / 2), 2, eps=0.0)
        assert code.defect == pytest.approx(0.0, abs=1e-12)
        assert code.success == pytest.approx(1.0, abs=1e-12)
        ordered = sorted(code.states, key=lambda s: s.data[0, 0].real, reverse=True)
        assert np.allclose(ordered[0].data, np.diag([1, 0]), atol=1e-12)
        assert np.allclose(ordered[1].data, np.diag([0, 1]), atol=1e-12)

    def test_pure_state_single_message(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        code = build_quantum_hash(rho, 1, eps=0.0)
        assert np.allclose(code.states[0].data, rho.data)
        assert code.success == pytest.approx(1.0)

    def test_three_level_partition(self):
        rho = DensityMatrix(np.diag([0.5, 0.25, 0.25]).astype(complex))
        code = build_quantum_hash(rho, 2, eps=0.0)
        assert code.defect == pytest.approx(0.0, abs=1e-12)
        mix = sum(s.data for s in code.states) / 2
        assert trace_norm(mix - rho.data) == pytest.approx(0.0, abs=1e-12)

    def test_outputs_commute_with_target(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = g @ g.conj().T
        rho = DensityMatrix(a / np.trace(a))
        code = build_quantum_hash(rho, 2, eps=1.0, seed=5)
        for s in code.states:
            assert trace_norm(s.data @ rho.data - rho.data @ s.data) <= 1e-10

    def test_average_state_misses_by_defect(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = g @ g.conj().T
        rho = DensityMatrix(a / np.trace(a))
        code = build_quantum_hash(rho, 2, eps=1.0, seed=6)
        mix = sum(s.data for s in code.states) / 2
        assert trace_norm(mix - rho.data) == pytest.approx(code.defect, abs=1e-9)
