import math

import numpy as np
import pytest

from qstego.channels import apply, identity_channel, tensor
from qstego.fixtures import split_cc_cover
from qstego.linalg import DensityMatrix, PureState, maximally_entangled, partial_trace_matrix, psd_sqrt, trace_norm
from qstego.protocols import build_stego_cc_es, stego_cc_es, trivial_aligner_distiller
from qstego.rates import RateResult


def distilled_distance(code, psi, db, l):
    """Trace distance of (id (x) decode)(encode (x) id)(psi) from Phi^(M): the
    reference check of one distiller code, with C moved behind A~ by its own
    factor permutation ([C, A~, B] -> [A~, C, B])."""
    m = code.decode.dim_out
    joint = apply(tensor(code.encode, identity_channel(db)), psi.to_density()).data
    swapped = joint.reshape(l, m, db, l, m, db).transpose(1, 0, 2, 4, 3, 5).reshape(joint.shape)
    final = apply(tensor(identity_channel(m), code.decode), DensityMatrix(swapped))
    return trace_norm(final.data - maximally_entangled(m).to_density().data)


def force_cypher_count(monkeypatch, mcc):
    """Make ``build_stego_cc_es`` pad with ``mcc`` cyphers: its noiseless
    rate reports log2(mcc) bits, whose message count is ``mcc``."""
    rate = RateResult(raw=math.log2(mcc), a_star=1.0, per_w=(), boundary=False)
    assert rate.message_count == mcc
    monkeypatch.setattr(stego_cc_es, "rate_cc_noiseless", lambda outputs, zeta: rate)


class TestTrivialAligner:
    def test_rotated_bell_succeeds(self):
        theta = 0.7
        u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        bell = maximally_entangled(2).data.reshape(2, 2)
        psi = PureState((u @ bell).reshape(-1))
        code = trivial_aligner_distiller(psi, m=2, l=1, eps=0.01)
        assert code is not None
        assert distilled_distance(code, psi, 2, 1) <= 1e-9

    def test_product_state_fails(self):
        v = PureState(np.kron([1.0, 0.0], [1.0, 0.0]))
        assert trivial_aligner_distiller(v, m=2, l=1, eps=0.01) is None

    def test_skewed_coefficients_fail(self):
        v = PureState(np.sqrt(0.9) * np.kron([1, 0], [1, 0]) + np.sqrt(0.1) * np.kron([0, 1], [0, 1]))
        assert trivial_aligner_distiller(v, m=2, l=1, eps=0.01) is None

    def test_m_one_always_succeeds(self):
        v = PureState(np.kron([1.0, 0.0], [1.0, 0.0]))
        code = trivial_aligner_distiller(v, m=1, l=2, eps=0.01)
        assert code is not None
        assert distilled_distance(code, v, 2, 2) == pytest.approx(0.0, abs=1e-12)

    def test_takes_the_shared_vector_as_it_is(self, monkeypatch):
        # the Schmidt decomposition reads the pure state's own vector: no
        # eigensolver recovers it from a density matrix
        def no_eigh(*args):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        v = PureState(maximally_entangled(2).data * 1j)
        code = trivial_aligner_distiller(v, m=2, l=2, eps=0.01)
        assert distilled_distance(code, v, 2, 2) <= 1e-9


class TestStegoCcEs:
    def test_dephasing_demo_distills_one_pair(self):
        stego = build_stego_cc_es(*split_cc_cover(0.5), zeta=0.5, seed=0)
        assert stego.mbar == 2
        assert stego.mcc == 1
        assert stego.key_bits == 0.0
        assert stego.entanglement_distance <= 1e-9
        assert stego.classical_reliability == pytest.approx(1.0, abs=1e-9)
        assert stego.distance <= 1e-10

    def test_identity_block1_degenerates(self):
        from qstego.channels import identity_channel
        from qstego.fixtures import named_state
        from qstego.linalg import Povm

        m1 = identity_channel(2)
        m2 = identity_channel(2)
        f1 = (named_state("zero"),)
        f2 = (named_state("plus"),)
        stego = build_stego_cc_es(f1, f2, m1, m2, Povm(np.eye(4)[None]), zeta=0.5, seed=1)
        # pure product purification: only M_bar = 1 distills
        assert stego.mbar == 1
        assert stego.entanglement_distance <= 1e-9
        assert stego.distance <= 1e-10

    def test_nontrivial_key_wiring(self, monkeypatch):
        # force a 2-letter one-time pad on the classical leg (the rate formula
        # alone would grant mcc = 1); block 2 is completely dephased |+>, so
        # two messages ride it exactly and the pad round-trips
        from qstego.channels import standard_channel
        from qstego.fixtures import named_state
        from qstego.linalg import Povm

        m1 = standard_channel("dephasing", 0.5)
        m2 = standard_channel("dephasing", 0.5)
        f1 = (named_state("plus"),)
        f2 = (named_state("plus"),)
        force_cypher_count(monkeypatch, 2)
        stego = build_stego_cc_es(f1, f2, m1, m2, Povm(np.eye(4)[None]), zeta=0.5, seed=2)
        assert stego.mcc == 2
        assert stego.key_bits == pytest.approx(1.0)
        assert stego.classical_reliability == pytest.approx(1.0, abs=1e-9)
        assert stego.entanglement_distance <= 1e-9
        assert stego.distance <= 1e-10
        total = stego.povm.elements.sum(axis=0)
        assert np.max(np.abs(total - np.eye(4))) < 1e-8

    def test_default_mcc_is_the_noiseless_cypher_count(self):
        from qstego.channels import apply, identity_channel, standard_channel
        from qstego.experiments import run_experiment
        from qstego.fixtures import named_state
        from qstego.linalg import Povm
        from qstego.rates import rate_cc_noiseless

        _, f2, _, m2, _ = split_cc_cover(0.5)
        [row] = run_experiment({"kind": "simulate/cc-es", "params": {"p_block1": 0.5, "zeta": 0.5}}).rows
        assert row["mcc"] == rate_cc_noiseless([apply(m2, s) for s in f2], 0.5).message_count
        # a maximally mixed 4-dimensional block 2 at zeta = 1.9 carries three messages
        m1, m2 = standard_channel("dephasing", 0.5), identity_channel(4)
        f1, f2 = (named_state("plus"),), (DensityMatrix(np.eye(4) / 4),)
        stego = build_stego_cc_es(f1, f2, m1, m2, Povm(np.eye(8)[None]), zeta=1.9, seed=0)
        assert stego.mcc == rate_cc_noiseless(f2, 1.9).message_count == 3


def audit_loop(stego, f1, f2, m1, m2, distilled, hashes):
    """(classical_reliability, entanglement_distance, distance) of the audit
    as a loop that forms every lifted root kron(I, sqrt(Gamma)) and every
    decoder fed c_hat anew at each term: the reference for the builder's
    audit.  ``distilled`` holds the (shared pure state, EdCode) pair and
    ``hashes`` the quantum hash of each cover message, as the builder made them."""
    d1n, d2n, mbar, mcc = m1.dim_in, m2.dim_in, stego.mbar, stego.mcc
    m_cover = len(distilled)
    shared = [psi.to_density() for psi, _ in distilled]
    ed_codes = [ed for _, ed in distilled]
    rho1 = [apply(m1, s) for s in f1]
    targets2 = [apply(m2, s) for s in f2]
    final = np.zeros((mbar * mbar, mbar * mbar), dtype=complex)
    reliability = 0.0
    stego_mix = np.zeros((d1n * d2n, d1n * d2n), dtype=complex)
    cover_mix = np.zeros_like(stego_mix)
    sqrt_elements = [psd_sqrt(e) for e in stego.povm.elements]
    for w in range(m_cover):
        joint = apply(tensor(ed_codes[w].encode, identity_channel(d1n)), shared[w])  # [C, A~, B1]
        blocks = []
        for c in range(mcc):
            idx = slice(c * mbar * d1n, (c + 1) * mbar * d1n)
            block = joint.data[idx, idx]
            p_c = float(np.trace(block).real)
            if p_c > 1e-14:
                blocks.append((c, p_c, block / p_c))
        b1_marj = partial_trace_matrix(shared[w].data, [d1n, d1n], keep=[1])
        block2_avg = sum(s.data for s in hashes[w].states) / mcc
        stego_mix += np.kron(b1_marj, block2_avg)
        cover_mix += np.kron(rho1[w].data, targets2[w].data)
        for c, p_c, ab1 in blocks:
            for s1 in range(mcc):
                wbar_sent = (c + s1) % mcc
                sent = np.kron(ab1, hashes[w].states[wbar_sent].data)  # [A~, B1, B2]
                weight = p_c / (m_cover * mcc)
                for wp in range(m_cover):
                    for wbp in range(mcc):
                        root = sqrt_elements[wp * mcc + wbp]
                        sandwich = np.kron(np.eye(mbar), root) @ sent @ np.kron(np.eye(mbar), root)
                        post = partial_trace_matrix(sandwich, [mbar, d1n, d2n], keep=[0, 1])
                        if wp == w and wbp == wbar_sent:
                            reliability += weight * float(np.trace(post).real)
                        c_hat = (wbp - s1) % mcc
                        sel = np.zeros((mcc, 1), dtype=complex)
                        sel[c_hat, 0] = 1.0
                        dec_kraus = [k @ np.kron(sel, np.eye(d1n)) for k in ed_codes[wp].decode.kraus]
                        for k in dec_kraus:
                            lifted = np.kron(np.eye(mbar), k)
                            final += weight * (lifted @ post @ lifted.conj().T)
    final_state = DensityMatrix((final + final.conj().T) / 2)
    ent_distance = trace_norm(final_state.data - maximally_entangled(mbar).to_density().data)
    return reliability, ent_distance, trace_norm((stego_mix - cover_mix) / m_cover)


def recorded_build(monkeypatch, f1, f2, m1, m2, povm, **kwargs):
    """build_stego_cc_es, plus the (pure state, EdCode) of each cover message
    at the chosen M_bar and the quantum hashes it built."""
    calls, hashes = [], []
    distill, quantum_hash = stego_cc_es.trivial_aligner_distiller, stego_cc_es.build_quantum_hash
    monkeypatch.setattr(
        stego_cc_es, "trivial_aligner_distiller", lambda psi, *args: calls.append((psi, distill(psi, *args))) or calls[-1][1]
    )
    monkeypatch.setattr(
        stego_cc_es, "build_quantum_hash", lambda *args, **kw: hashes.append(quantum_hash(*args, **kw)) or hashes[-1]
    )
    stego = build_stego_cc_es(f1, f2, m1, m2, povm, **kwargs)
    assert all(ed.decode.dim_out == stego.mbar for _, ed in calls[-len(f1) :])
    return stego, calls[-len(f1) :], hashes


class TestAuditBitForBit:
    """The builder's audit, with each lifted root and fed decoder formed once,
    has the bits of the term-by-term loop."""

    @pytest.mark.parametrize(
        "p_block1, mcc, mbar",
        [(0.5, None, 2), (0.5, 2, 2), (0.5, 3, 2), (0.3, None, 1), (0.3, 2, 1)],
    )
    def test_split_cover_matches_loop(self, monkeypatch, p_block1, mcc, mbar):
        f1, f2, m1, m2, povm = split_cc_cover(p_block1)
        if mcc is not None:
            force_cypher_count(monkeypatch, mcc)
        stego, distilled, hashes = recorded_build(monkeypatch, f1, f2, m1, m2, povm, zeta=0.5, seed=3)
        # p_block1 = 0.3 leaves a pure state that only M_bar = 1 distills;
        # mcc > 1 feeds the decoder a classical register of more than one level
        assert stego.mbar == mbar
        assert stego.mcc == (mcc or 1)
        got = (stego.classical_reliability, stego.entanglement_distance, stego.distance)
        assert got == audit_loop(stego, f1, f2, m1, m2, distilled, hashes)

    @pytest.mark.parametrize("mcc", [2, 3])
    def test_two_message_generic_cover_matches_loop(self, monkeypatch, mcc):
        # two cover messages on states with no exact entries: block 1 leaves
        # Schmidt weights 0.5 +- 0.05 (distilled at M_bar = 2 with a nonzero
        # distance), block 2 a damped qubit carrying mcc messages
        from qstego.channels import standard_channel
        from qstego.fixtures import pgm_cc_cover

        def pure(theta, phi):
            v = np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])
            return DensityMatrix(np.outer(v, v.conj()))

        m1 = standard_channel("depolarizing", 0.9)
        m2 = standard_channel("amplitude_damping", 0.3)
        f1 = (pure(0.3, 0.7), pure(1.1, -0.4))
        f2 = (pure(0.2, 1.3), pure(1.3, 0.5))
        codewords = [DensityMatrix(np.kron(a.data, b.data)) for a, b in zip(f1, f2)]
        povm = pgm_cc_cover(codewords, tensor(m1, m2)).povm
        force_cypher_count(monkeypatch, mcc)
        stego, distilled, hashes = recorded_build(monkeypatch, f1, f2, m1, m2, povm, zeta=0.5, seed=5)
        assert stego.mbar == 2 and stego.mcc == mcc
        assert stego.entanglement_distance > 1e-3
        got = (stego.classical_reliability, stego.entanglement_distance, stego.distance)
        assert got == audit_loop(stego, f1, f2, m1, m2, distilled, hashes)
