import numpy as np
import pytest

from qstego.fixtures import named_state
from qstego.info import CqState, Pmf
from qstego.linalg import basis_state
from qstego.protocols import build_resolvability_code, pretty_good_measurement, resolvability_metrics


def binary_qubit_cq():
    # outputs |0> and |+>, uniform input
    return CqState(Pmf([0.5, 0.5]), (named_state("zero"), named_state("plus")))


class TestPgm:
    def test_orthogonal_states_perfect(self):
        povm = pretty_good_measurement([basis_state(0, 2).to_density(), basis_state(1, 2).to_density()])
        assert np.allclose(povm[0].data, np.diag([1.0, 0.0]), atol=1e-10)

    def test_completeness_with_rank_deficient_support(self):
        povm = pretty_good_measurement([named_state("zero"), named_state("zero")])
        total = sum(e.data for e in povm.elements)
        assert np.allclose(total, np.eye(2), atol=1e-10)


class TestResolvability:
    def test_noiseless_classical_bit(self):
        cq = CqState(Pmf([0.5, 0.5]), (basis_state(0, 2).to_density(), basis_state(1, 2).to_density()))
        code = build_resolvability_code(cq, m=2, k=1, seed=3)
        # with distinct codewords the PGM is perfect and the distance is the
        # type deviation; find such a seed deterministically
        book = code.codebooks[0]
        if book[0] != book[1]:
            assert code.reliability == pytest.approx(1.0, abs=1e-10)
            assert code.distance == pytest.approx(0.0, abs=1e-10)
        counts = np.bincount(book, minlength=2) / 2
        assert code.distance == pytest.approx(np.abs(counts - 0.5).sum(), abs=1e-10)

    def test_product_state_zero_distance(self):
        rho = named_state("maximally_mixed")
        cq = CqState(Pmf([0.3, 0.7]), (rho, rho))
        code = build_resolvability_code(cq, m=4, k=2, seed=0)
        assert code.distance == pytest.approx(0.0, abs=1e-12)

    def test_metrics_recomputation_matches(self):
        cq = binary_qubit_cq()
        code = build_resolvability_code(cq, m=4, k=2, seed=11)
        rel, dist = resolvability_metrics(code, cq)
        assert rel == pytest.approx(code.reliability, abs=1e-12)
        assert dist == pytest.approx(code.distance, abs=1e-12)

    def test_distance_decreasing_in_mk(self):
        cq = binary_qubit_cq()
        medians = []
        for mk in (2, 8, 32):
            dists = []
            for seed in range(50):
                code = build_resolvability_code(cq, m=mk, k=1, seed=seed)
                dists.append(code.distance)
            medians.append(float(np.median(dists)))
        assert medians[0] > medians[1] > medians[2]
