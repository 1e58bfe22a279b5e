import numpy as np
import pytest

from qstego.channels import QuantumChannel, apply, compose, identity_channel, standard_channel, tensor
from qstego.fixtures import dephasing_es_cover
from qstego.linalg import maximally_entangled
from qstego.protocols import EsCode, build_stego_es_rs


def cover_fidelity(cover):
    """<Phi|(id (x) decode o channel)(rho)|Phi> of an ES cover, by applying
    the channels to its joint state: the reference for the coherent overlap
    from which build_stego_es_rs reports eps_cover."""
    to_bob = tensor(identity_channel(cover.m), compose(cover.decode, cover.channel))
    phi = maximally_entangled(cover.m).data
    return float((phi.conj() @ apply(to_bob, cover.rho).data @ phi).real)


class TestEsCover:
    def test_dephasing_cover_is_perfect(self):
        assert cover_fidelity(dephasing_es_cover(0.5)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "cover",
        [
            dephasing_es_cover(0.5),
            dephasing_es_cover(0.2),
            # Phi^(2) through depolarizing(0.3): an imperfect cover, eps = 0.225
            EsCode(
                m=2,
                rho=maximally_entangled(2).to_density(),
                decode=identity_channel(2),
                channel=standard_channel("depolarizing", 0.3),
                n=1,
            ),
        ],
        ids=["dephasing-0.5", "dephasing-0.2", "depolarized-pair"],
    )
    def test_eps_cover_matches_channel_application(self, cover):
        stego = build_stego_es_rs(cover, mbar=2, zeta=0.5, seed=0)
        assert stego.eps_cover == pytest.approx(1.0 - cover_fidelity(cover), abs=1e-12)


class TestStegoEsRs:
    def test_unitary_degradation_no_randomness(self):
        # a single-use ES cover over a unitary degradation: no randomness to extract
        rho = maximally_entangled(2).to_density()
        cover = EsCode(m=2, rho=rho, decode=identity_channel(2), channel=QuantumChannel((np.eye(2),)), n=1)
        stego = build_stego_es_rs(cover, mbar=1, zeta=0.5)
        assert stego.p_x.size == 1
        assert stego.fidelity >= cover_fidelity(cover) - 1e-9
        assert stego.b_output_distance < 1e-10

    def test_one_uniform_shared_bit(self):
        cover = dephasing_es_cover(0.5)
        stego = build_stego_es_rs(cover, mbar=2, zeta=0.1)
        assert np.allclose(np.sort(stego.p_x), [0.5, 0.5], atol=1e-10)
        assert stego.zeta_ach == pytest.approx(0.0, abs=1e-10)
        assert stego.fidelity == pytest.approx(1.0, abs=1e-9)
        assert stego.key_agreement == pytest.approx(1.0, abs=1e-9)
        assert stego.b_output_distance < 1e-10
        assert stego.bound_ok

    def test_degenerate_mbar_one(self):
        cover = dephasing_es_cover(0.5)
        stego = build_stego_es_rs(cover, mbar=1, zeta=0.0)
        assert stego.fidelity >= 1.0 - 1e-9
        assert stego.bound_ok

    def test_partial_dephasing_keeps_cover_output(self):
        cover = dephasing_es_cover(0.3)
        stego = build_stego_es_rs(cover, mbar=2, zeta=1.0, seed=0)
        # spectrum (0.7, 0.3) cannot split evenly; audit stays consistent
        assert stego.b_output_distance < 1e-10
        bound = 1.0 - (np.sqrt(stego.eps_cover) + stego.zeta_ach) ** 2 - 1e-6
        assert stego.fidelity >= bound
        assert np.allclose(np.sort(stego.p_x)[::-1], [0.7, 0.3], atol=1e-9)

    def test_povm_completeness(self):
        cover = dephasing_es_cover(0.5)
        stego = build_stego_es_rs(cover, mbar=2, zeta=0.1)
        for povm in (stego.alice_povm, stego.bob_povm):
            total = povm.elements.sum(axis=0)
            assert np.max(np.abs(total - np.eye(total.shape[0]))) < 1e-9
