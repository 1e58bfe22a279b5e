import numpy as np
import pytest

from qstego.fixtures import split_cc_cover
from qstego.linalg import DensityMatrix, maximally_entangled
from qstego.protocols import build_stego_cc_es, trivial_aligner_distiller


class TestTrivialAligner:
    def test_rotated_bell_succeeds(self):
        theta = 0.7
        u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        bell = maximally_entangled(2).data.reshape(2, 2)
        rotated = (u @ bell).reshape(-1)
        rho = DensityMatrix(np.outer(rotated, rotated.conj()))
        code = trivial_aligner_distiller(rho, (2, 2), m=2, l=1, eps=0.01)
        assert code is not None
        assert code.distance <= 1e-9

    def test_product_state_fails(self):
        v = np.kron([1.0, 0.0], [1.0, 0.0]).astype(complex)
        rho = DensityMatrix(np.outer(v, v))
        assert trivial_aligner_distiller(rho, (2, 2), m=2, l=1, eps=0.01) is None

    def test_skewed_coefficients_fail(self):
        v = np.sqrt(0.9) * np.kron([1, 0], [1, 0]) + np.sqrt(0.1) * np.kron([0, 1], [0, 1])
        rho = DensityMatrix(np.outer(v, v.conj()).astype(complex))
        assert trivial_aligner_distiller(rho, (2, 2), m=2, l=1, eps=0.01) is None

    def test_mixed_state_fails(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert trivial_aligner_distiller(rho, (2, 2), m=2, l=1, eps=0.01) is None

    def test_m_one_always_succeeds(self):
        rho = DensityMatrix(np.eye(4) / 4)
        code = trivial_aligner_distiller(rho, (2, 2), m=1, l=2, eps=0.01)
        assert code is not None
        assert code.distance == pytest.approx(0.0, abs=1e-12)


class TestStegoCcEs:
    def test_dephasing_demo_distills_one_pair(self):
        cover, f1, f2, m1, m2 = split_cc_cover(0.5)
        stego = build_stego_cc_es(
            cover, f1, f2, m1, m2, trivial_aligner_distiller, zeta=0.5, seed=0
        )
        assert stego.mbar == 2
        assert stego.mcc == 1
        assert stego.key_bits == 0.0
        assert stego.entanglement_distance <= 1e-9
        assert stego.classical_reliability == pytest.approx(1.0, abs=1e-9)
        assert stego.distance <= 1e-10

    def test_identity_block1_degenerates(self):
        from qstego.channels import identity_channel
        from qstego.fixtures import named_state
        from qstego.linalg import HermitianOperator, Povm
        from qstego.protocols.codes import CcCode

        m1 = identity_channel(2)
        m2 = identity_channel(2)
        f1 = (named_state("zero"),)
        f2 = (named_state("plus"),)
        cover = CcCode(
            codewords=(DensityMatrix(np.kron(f1[0].data, f2[0].data)),),
            povm=Povm((HermitianOperator(np.eye(4, dtype=complex)),)),
            channel=identity_channel(4),
            n=2,
        )
        stego = build_stego_cc_es(
            cover, f1, f2, m1, m2, trivial_aligner_distiller, zeta=0.5, seed=1
        )
        # pure product purification: only M_bar = 1 distills
        assert stego.mbar == 1
        assert stego.entanglement_distance <= 1e-9
        assert stego.distance <= 1e-10

    def test_requested_mbar_infeasible(self):
        from qstego.channels import identity_channel
        from qstego.fixtures import named_state
        from qstego.linalg import HermitianOperator, Povm
        from qstego.protocols.codes import CcCode

        m1 = identity_channel(2)
        m2 = identity_channel(2)
        f1 = (named_state("zero"),)
        f2 = (named_state("zero"),)
        cover = CcCode(
            codewords=(DensityMatrix(np.kron(f1[0].data, f2[0].data)),),
            povm=Povm((HermitianOperator(np.eye(4, dtype=complex)),)),
            channel=identity_channel(4),
            n=2,
        )
        with pytest.raises(ValueError, match="distillation infeasible"):
            build_stego_cc_es(
                cover, f1, f2, m1, m2, trivial_aligner_distiller, zeta=0.5, mbar=2
            )

    def test_nontrivial_key_wiring(self):
        # force a 2-letter one-time pad on the classical leg (the rate formula
        # alone would grant mcc = 1); block 2 is completely dephased |+>, so
        # two messages ride it exactly and the pad round-trips
        from qstego.channels import standard_channel, tensor
        from qstego.fixtures import named_state
        from qstego.linalg import HermitianOperator, Povm
        from qstego.protocols.codes import CcCode

        m1 = standard_channel("dephasing", 0.5)
        m2 = standard_channel("dephasing", 0.5)
        f1 = (named_state("plus"),)
        f2 = (named_state("plus"),)
        cover = CcCode(
            codewords=(DensityMatrix(np.kron(f1[0].data, f2[0].data)),),
            povm=Povm((HermitianOperator(np.eye(4, dtype=complex)),)),
            channel=tensor(m1, m2),
            n=2,
        )
        stego = build_stego_cc_es(
            cover, f1, f2, m1, m2, trivial_aligner_distiller, zeta=0.5, seed=2, mcc=2
        )
        assert stego.mcc == 2
        assert stego.key_bits == pytest.approx(1.0)
        assert stego.classical_reliability == pytest.approx(1.0, abs=1e-9)
        assert stego.entanglement_distance <= 1e-9
        assert stego.distance <= 1e-10
        total = stego.povms[0].elements.sum(axis=0)
        assert np.max(np.abs(total - np.eye(4))) < 1e-8

    def test_default_mcc_is_the_noiseless_cypher_count(self):
        from qstego.channels import apply, identity_channel, standard_channel, tensor
        from qstego.experiments import run_experiment
        from qstego.fixtures import named_state
        from qstego.linalg import HermitianOperator, Povm
        from qstego.protocols.codes import CcCode
        from qstego.rates import rate_cc_noiseless

        _, _, f2, _, m2 = split_cc_cover(0.5)
        [row] = run_experiment({"kind": "simulate/cc-es", "params": {"p_block1": 0.5, "zeta": 0.5}}).rows
        assert row["mcc"] == rate_cc_noiseless([apply(m2, s) for s in f2], 0.5).message_count
        # a maximally mixed 4-dimensional block 2 at zeta = 1.9 carries three messages
        m1, m2 = standard_channel("dephasing", 0.5), identity_channel(4)
        f1, f2 = (named_state("plus"),), (DensityMatrix(np.eye(4) / 4),)
        cover = CcCode(
            codewords=(DensityMatrix(np.kron(f1[0].data, f2[0].data)),),
            povm=Povm((HermitianOperator(np.eye(8, dtype=complex)),)),
            channel=tensor(m1, m2),
            n=2,
        )
        stego = build_stego_cc_es(cover, f1, f2, m1, m2, trivial_aligner_distiller, zeta=1.9, seed=0)
        assert stego.mcc == rate_cc_noiseless(f2, 1.9).message_count == 3
