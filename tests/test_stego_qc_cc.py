import math

import numpy as np
import pytest

from qstego.channels import QuantumChannel, apply
from qstego.fixtures import repetition_qc_cover
from qstego.linalg import DensityMatrix, trace_norm
from qstego.protocols import build_stego_qc_cc, orthogonalize_correctable_kraus
from qstego.protocols.codes import QcCode


class TestCoverCode:
    def test_repetition_cover_constant(self):
        for p in (0.0, 0.1, 0.25, 0.5):
            cover = repetition_qc_cover(p)
            expected = (1 - p) ** 3 + 3 * p * (1 - p) ** 2
            assert cover.c == pytest.approx(expected, abs=1e-10)

    def test_rejects_non_kl_split(self):
        cover = repetition_qc_cover(0.2)
        bad = (0, 3, 5, 6)  # double-flip errors are not correctable
        with pytest.raises(ValueError):
            QcCode(
                encode=cover.encode,
                decode=cover.decode,
                channel=cover.channel,
                correctable=bad,
            )


class TestOrthogonalization:
    def test_bitflip_weights_closed_form(self):
        for p in (0.1, 0.25, 0.5):
            cover = repetition_qc_cover(p)
            tilde, d, residual = orthogonalize_correctable_kraus(
                cover.channel, cover.correctable, cover.projector
            )
            assert residual <= 1e-8
            closed = np.array([(1 - p) ** 3, p * (1 - p) ** 2, p * (1 - p) ** 2, p * (1 - p) ** 2])
            assert np.max(np.abs(d - closed)) < 1e-10

    def test_mixed_family_gets_diagonalized(self):
        # rotate two correctable Kraus operators of the repetition-code family
        # into each other: the rotated pair is still Knill-Laflamme (the Gram
        # matrix just picks up off-diagonal entries) and must diagonalize back
        p = 0.2
        cover = repetition_qc_cover(p)
        ks = list(cover.channel.kraus)
        a, b = ks[0], ks[4]  # III and X1 components
        ks[0] = (a + b) / math.sqrt(2)
        ks[4] = (a - b) / math.sqrt(2)
        mixed = QuantumChannel(tuple(ks))
        tilde, d, residual = orthogonalize_correctable_kraus(
            mixed, cover.correctable, cover.projector
        )
        assert residual <= 1e-8
        closed = sorted([(1 - p) ** 3, p * (1 - p) ** 2, p * (1 - p) ** 2, p * (1 - p) ** 2])
        assert np.allclose(sorted(d), closed, atol=1e-10)


class TestStegoBuilder:
    def test_unitary_degradation_degenerate(self):
        u = np.kron(np.kron(np.eye(2), np.eye(2)), np.array([[0, 1], [1, 0]]))
        channel = QuantumChannel((u.astype(complex),))
        base = repetition_qc_cover(0.0)
        cover = QcCode(
            encode=base.encode,
            decode=QuantumChannel(tuple(k @ u.conj().T for k in base.decode.kraus)),
            channel=channel,
            correctable=(0,),
        )
        stego = build_stego_qc_cc(cover, mbar=1, zeta=0.5, seed=0)
        assert stego.distance_sup == pytest.approx(0.0, abs=1e-9)
        assert stego.cypher_decode_prob == pytest.approx(1.0, abs=1e-9)
        assert stego.c_stego == pytest.approx(1.0, abs=1e-9)

    def test_uniform_weights_exact_hash(self):
        cover = repetition_qc_cover(0.5)
        stego = build_stego_qc_cc(cover, mbar=4, zeta=0.1, seed=0)
        assert np.allclose(stego.p_j, 0.25, atol=1e-12)
        assert stego.zeta_ach == pytest.approx(0.0, abs=1e-12)
        assert stego.cypher_decode_prob == pytest.approx(1.0, abs=1e-9)
        assert stego.kl_residual <= 1e-8
        assert stego.polar_residual <= 1e-8

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5])
    def test_structure_and_bounds(self, p):
        cover = repetition_qc_cover(p)
        stego = build_stego_qc_cc(cover, mbar=2, zeta=0.6, seed=0)
        assert stego.kl_residual <= 1e-8
        assert stego.polar_residual <= 1e-8
        # over the true noiseless channel the stego pair recovers perfectly
        assert stego.c_stego == pytest.approx(1.0, abs=1e-8)
        bound = stego.eps_cover + stego.zeta_ach + (1 - stego.c_cover) + 1e-6
        assert stego.distance_sup <= bound
        assert stego.bound_ok

    def test_recovery_constant_matches_cover_at_eps_zero(self):
        # the degraded-channel recovery identity D o N_tilde o E_bar = c id
        # holds with the cover's constant in the epsilon = 0 case
        cover = repetition_qc_cover(0.0)
        stego = build_stego_qc_cc(cover, mbar=1, zeta=0.5, seed=0)
        from qstego.protocols.codes import proportionality_to_identity

        marginals = [np.kron(np.eye(2), np.eye(1)[0:1, :])]
        for enc in stego.encoders:
            kraus = [
                t @ dk @ cover.channel.kraus[j] @ ek
                for t in marginals
                for dk in stego.decoder.kraus
                for j in cover.correctable
                for ek in enc.kraus
            ]
            c_w, residual = proportionality_to_identity(kraus)
            assert residual <= 1e-8
            assert c_w == pytest.approx(cover.c, abs=1e-9)

    def test_decoder_is_trace_preserving(self):
        cover = repetition_qc_cover(0.25)
        stego = build_stego_qc_cc(cover, mbar=3, zeta=0.8, seed=0)
        total = sum(k.conj().T @ k for k in stego.decoder.kraus)
        assert np.max(np.abs(total - np.eye(8))) < 1e-8

    def test_quantum_message_survives(self):
        cover = repetition_qc_cover(0.25)
        stego = build_stego_qc_cc(cover, mbar=2, zeta=0.6, seed=0)
        rho = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
        for wbar, enc in enumerate(stego.encoders):
            out = apply(stego.decoder, apply(enc, rho))
            block = out.data.reshape(2, stego.mbar, 2, stego.mbar)[:, wbar, :, wbar]
            prob = np.trace(block).real
            assert prob == pytest.approx(1.0, abs=1e-9)
            assert trace_norm(block / prob - rho.data) < 1e-9


def audit_loop(stego, cover):
    """(distance_sup, cypher_min) of the audit, one input and one apply at a
    time: the reference for the stacked audit."""
    from qstego.protocols.stego_qc_cc import audit_input_states

    v, dim, mbar = cover.encode.data, cover.channel.dim_in, stego.mbar
    distance_sup, cypher_min = 0.0, 1.0
    for rho in audit_input_states(cover.m):
        rho_c = apply(cover.channel, DensityMatrix(v @ rho.data @ v.conj().T))
        mix = np.zeros((dim, dim), dtype=complex)
        per_input = 0.0
        for wbar, e in enumerate(stego.encoders):
            sent = apply(e, rho)
            mix += sent.data
            out = apply(stego.decoder, sent)
            block = out.data.reshape(cover.m, mbar, cover.m, mbar)[:, wbar, :, wbar]
            per_input += float(np.trace(block).real)
        mix /= mbar
        distance_sup = max(distance_sup, trace_norm(mix - rho_c.data))
        cypher_min = min(cypher_min, per_input / mbar)
    return distance_sup, cypher_min


class TestAuditBitForBit:
    @pytest.mark.parametrize("p, mbar, zeta", [(0.5, 4, 0.1), (0.1, 2, 0.5), (0.25, 3, 0.2), (0.5, 1, 0.3)])
    def test_stacked_audit_matches_loop(self, p, mbar, zeta):
        cover = repetition_qc_cover(p)
        stego = build_stego_qc_cc(cover, mbar=mbar, zeta=zeta, seed=0)
        assert (stego.distance_sup, stego.cypher_decode_prob) == audit_loop(stego, cover)

    def test_apply_on_a_stack_equals_one_state_at_a_time(self):
        cover = repetition_qc_cover(0.3)
        rng = np.random.default_rng(4)
        g = rng.normal(size=(5, 8, 8)) + 1j * rng.normal(size=(5, 8, 8))
        a = g @ g.conj().swapaxes(1, 2)
        states = a / np.trace(a, axis1=1, axis2=2).real[:, None, None]
        out = apply(cover.channel, states)
        assert out.tobytes() == np.array([apply(cover.channel, s).data for s in states]).tobytes()
