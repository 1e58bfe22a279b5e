import math
import tracemalloc

import numpy as np
import pytest

from qstego import channels
from qstego.channels import (
    KrausIndex,
    apply,
    compose,
    identity_channel,
    standard_channel,
    tensor_power,
)
from qstego.fixtures import named_state, pgm_cc_cover, split_cc_cover
from qstego.hashing import ROW_BYTES, build_quantum_hash
from qstego.info import CqState, Pmf
from qstego.linalg import DensityMatrix, Povm, psd_sqrt, trace_norm
from qstego.protocols import (
    build_stego_cc_es,
    build_stego_cc_noiseless,
    build_stego_cc_noisy,
    side_states_from_degradation,
)
from qstego.protocols import codes, stego_cc_es
from qstego.protocols.resolvability import build_resolvability_codes, output_cq
from qstego.protocols.stego_cc import _nested_povm

from .test_stego_cc_es import force_cypher_count


class TestNoiseless:
    def test_identity_degradation_mbar_one(self):
        cover = pgm_cc_cover([named_state("zero"), named_state("one")], identity_channel(2))
        stego = build_stego_cc_noiseless(cover, mbar=1, zeta=0.1, seed=0)
        assert stego.distance == pytest.approx(0.0, abs=1e-10)
        assert stego.decode_prob == pytest.approx(1.0, abs=1e-10)
        assert stego.zeta_ach == pytest.approx(0.0, abs=1e-12)

    def test_fully_depolarized_exact_split(self):
        m = standard_channel("depolarizing", 1.0)
        cover = pgm_cc_cover([named_state("zero")], m)
        stego = build_stego_cc_noiseless(cover, mbar=2, zeta=0.0, seed=0)
        assert stego.zeta_ach == pytest.approx(0.0, abs=1e-12)
        assert stego.distance == pytest.approx(0.0, abs=1e-12)
        assert stego.decode_prob == pytest.approx(1.0, abs=1e-12)
        assert stego.bound_ok

    def test_dephasing_two_qubit_cover(self):
        m = tensor_power(standard_channel("dephasing", 0.6), 2)
        codewords = [
            DensityMatrix(np.kron(named_state("plus").data, named_state("plus").data)),
            DensityMatrix(np.kron(named_state("minus").data, named_state("minus").data)),
        ]
        cover = pgm_cc_cover(codewords, m)
        stego = build_stego_cc_noiseless(cover, mbar=2, zeta=0.1, seed=0)
        assert stego.distance <= stego.zeta_ach + 1e-12
        bound = 1 - stego.zeta_ach - 2 * math.sqrt(stego.zeta_ach + stego.eps_cover) - 1e-6
        assert stego.decode_prob >= bound
        assert stego.bound_ok

    def test_povm_completeness(self):
        m = tensor_power(standard_channel("amplitude_damping", 0.3), 2)
        codewords = [
            DensityMatrix(np.kron(named_state("plus").data, named_state("zero").data)),
            DensityMatrix(np.kron(named_state("zero").data, named_state("plus").data)),
        ]
        cover = pgm_cc_cover(codewords, m)
        stego = build_stego_cc_noiseless(cover, mbar=3, zeta=1.0, seed=1)
        total = stego.povms[0].elements.sum(axis=0)
        assert np.max(np.abs(total - np.eye(4))) < 1e-8

    def test_cover_outputs_computed_once(self, monkeypatch):
        # the cover pushes each codeword through the n-use channel once; its
        # PGM and the builder's hash targets read the stored outputs
        calls = []

        def counted(ch, rho):
            calls.append(ch)
            return apply(ch, rho)

        monkeypatch.setattr(codes, "apply", counted)
        m = tensor_power(standard_channel("dephasing", 0.6), 2)
        codewords = [
            DensityMatrix(np.kron(named_state(s).data, named_state(s).data)) for s in ("plus", "minus")
        ]
        cover = pgm_cc_cover(codewords, m)
        build_stego_cc_noiseless(cover, mbar=2, zeta=0.1, seed=0)
        assert len(calls) == len(codewords)


class TestNoisy:
    def test_side_state_mismatch_rejected(self):
        n_true = standard_channel("dephasing", 0.3)
        m = standard_channel("dephasing", 0.4)
        cover = pgm_cc_cover([named_state("plus")], compose(n_true, m))
        bad = [CqState(Pmf([1.0]), (named_state("zero"),))]
        with pytest.raises(ValueError, match="side-state mismatch"):
            build_stego_cc_noisy(cover, n_true, bad, mbar=1, kbar=1, xi=0.5, seed=0)

    def test_power_side_states_match_dense_branches(self, monkeypatch):
        # a power's branches are gathered, with no operator formed, and give
        # the probabilities and states of the dense k c k† branches
        m = tensor_power(standard_channel("amplitude_damping", 0.3), 3)
        words = [("zero", "plus", "one"), ("minus", "one", "plus")]
        codewords = [DensityMatrix(np.kron(np.kron(*(named_state(x).data for x in w[:2])), named_state(w[2]).data)) for w in words]
        cover = pgm_cc_cover(codewords, m)
        ops = [m.kraus[j] for j in range(len(m.kraus))]

        def forbidden(self, j):
            raise AssertionError("a Kraus operator was formed")

        monkeypatch.setattr(KrausIndex, "__getitem__", forbidden)
        for sigma, c in zip(side_states_from_degradation(cover, m), codewords, strict=True):
            branches = [k @ c.data @ k.conj().T for k in ops]
            probs = np.array([max(np.trace(b).real, 0.0) for b in branches])
            keep = probs > 1e-14
            assert sigma.pmf.probs.tobytes() == (probs[keep] / probs[keep].sum()).tobytes()
            kept = [b / np.trace(b).real for b, use in zip(branches, keep) if use]
            assert all(np.array_equal(s.data, b) for s, b in zip(sigma.states, kept, strict=True))

    def test_side_state_outputs_computed_once(self, monkeypatch):
        # each side state goes through n_true once, for the mismatch check;
        # the audit reads those outputs
        n_true = standard_channel("dephasing", 0.35)
        m = standard_channel("dephasing", 0.4)
        cover = pgm_cc_cover([named_state("plus"), named_state("minus")], compose(n_true, m))
        sides = side_states_from_degradation(cover, m)
        calls = []
        apply_matrix = channels.apply_matrix

        def counted(ch, a):
            calls.append(ch)
            return apply_matrix(ch, a)

        monkeypatch.setattr(channels, "apply_matrix", counted)
        build_stego_cc_noisy(cover, n_true, sides, mbar=2, kbar=4, xi=0.5, seed=4)
        assert sum(ch is n_true for ch in calls) == sum(len(sigma.states) for sigma in sides) == 4

    def test_degradation_ensemble_is_consistent(self):
        n_true = standard_channel("dephasing", 0.3)
        m = standard_channel("dephasing", 0.4)
        cover = pgm_cc_cover([named_state("plus"), named_state("minus")], compose(n_true, m))
        sides = side_states_from_degradation(cover, m)
        for sigma, target in zip(sides, cover.outputs):
            pushed = sum(
                sigma.pmf.probs[x] * apply(n_true, sigma.states[x]).data
                for x in range(sigma.alphabet_size)
            )
            assert trace_norm(pushed - target.data) < 1e-10

    def test_reduces_to_cover_when_degenerate(self):
        n_true = standard_channel("dephasing", 0.25)
        m = identity_channel(2)
        cover = pgm_cc_cover([named_state("plus")], compose(n_true, m))
        sides = side_states_from_degradation(cover, m)
        stego = build_stego_cc_noisy(cover, n_true, sides, mbar=1, kbar=1, xi=0.5, seed=2)
        assert stego.distance == pytest.approx(0.0, abs=1e-10)
        assert stego.key_bits == 0.0

    def test_equal_targets_distance_is_resolvability_distance(self):
        n_true = standard_channel("depolarizing", 1.0)
        m = identity_channel(2)
        cover = pgm_cc_cover([named_state("zero")], compose(n_true, m))
        sides = side_states_from_degradation(cover, m)
        stego = build_stego_cc_noisy(cover, n_true, sides, mbar=2, kbar=1, xi=0.5, seed=3)
        assert stego.distance == pytest.approx(stego.per_w_defect[0], abs=1e-10)

    def test_distance_decreasing_in_kbar(self):
        n_true = standard_channel("dephasing", 0.35)
        m = standard_channel("dephasing", 0.4)
        cover = pgm_cc_cover([named_state("plus"), named_state("minus")], compose(n_true, m))
        sides = side_states_from_degradation(cover, m)
        medians = []
        for kbar in (1, 4, 16):
            dists = [
                build_stego_cc_noisy(
                    cover, n_true, sides, mbar=2, kbar=kbar, xi=0.5, seed=seed
                ).distance
                for seed in range(20)
            ]
            medians.append(float(np.median(dists)))
        assert medians[0] >= medians[1] >= medians[2]
        assert medians[0] > medians[2]

    def test_one_codeword_per_cypher_message(self):
        n_true = standard_channel("dephasing", 0.35)
        m = standard_channel("dephasing", 0.4)
        cover = pgm_cc_cover([named_state("plus"), named_state("minus")], compose(n_true, m))
        sides = side_states_from_degradation(cover, m)
        stego = build_stego_cc_noisy(cover, n_true, sides, mbar=2, kbar=4, xi=0.5, seed=4)
        for encoder, povm in zip(stego.encoders, stego.povms):
            assert len(encoder) == cover.m * 2 == len(povm)
            assert np.max(np.abs(povm.elements.sum(axis=0) - np.eye(2))) < 1e-8
        assert stego.key_bits == pytest.approx(2.0)

    def test_audit_inequality(self):
        n_true = standard_channel("dephasing", 0.35)
        m = standard_channel("dephasing", 0.4)
        cover = pgm_cc_cover([named_state("plus"), named_state("minus")], compose(n_true, m))
        sides = side_states_from_degradation(cover, m)
        stego = build_stego_cc_noisy(cover, n_true, sides, mbar=2, kbar=4, xi=0.5, seed=5)
        bound = 1 - stego.zeta_ach - 2 * math.sqrt(stego.zeta_ach + stego.eps_cover) - 1e-6
        assert stego.decode_prob >= bound
        assert stego.bound_ok


def per_w_decode_loop(stego, true_channel=None):
    """(1 / K M_bar) sum over keys and w's messages of tr(Gamma g), each trace
    formed again: the reference for the audited per_w_decode."""
    traces = [
        [
            float(np.trace(povm[idx] @ (state if true_channel is None else apply(true_channel, state)).data).real)
            for idx, state in enumerate(encoder)
        ]
        for encoder, povm in zip(stego.encoders, stego.povms)
    ]
    k, mbar = stego.kbar, stego.mbar
    return tuple(
        sum(traces[s][w * mbar + wbar] for s in range(k) for wbar in range(mbar)) / (k * mbar) for w in range(stego.m)
    )


class TestPerMessageDecode:
    def test_noiseless(self):
        m = tensor_power(standard_channel("dephasing", 0.6), 2)
        codewords = [
            DensityMatrix(np.kron(named_state("plus").data, named_state("plus").data)),
            DensityMatrix(np.kron(named_state("minus").data, named_state("minus").data)),
        ]
        stego = build_stego_cc_noiseless(pgm_cc_cover(codewords, m), mbar=3, zeta=0.1, seed=0)
        assert stego.per_w_decode == per_w_decode_loop(stego)

    def test_noisy_sums_over_keys(self):
        n_true = standard_channel("dephasing", 0.35)
        m = standard_channel("dephasing", 0.4)
        cover = pgm_cc_cover([named_state("plus"), named_state("minus")], compose(n_true, m))
        sides = side_states_from_degradation(cover, m)
        stego = build_stego_cc_noisy(cover, n_true, sides, mbar=2, kbar=3, xi=0.5, seed=5)
        assert stego.per_w_decode == per_w_decode_loop(stego, n_true)


class TestNestedPovmMemory:
    def test_d256_nested_povm_adds_no_stack(self):
        # two cover elements (half-space projectors) times four inner elements
        # (I/4): 8 MiB of d = 256 elements, built in place and checked in blocks
        d = 256
        half = np.zeros((2, d, d), dtype=complex)
        half[0, np.arange(d // 2), np.arange(d // 2)] = 1.0
        half[1, np.arange(d // 2, d), np.arange(d // 2, d)] = 1.0
        cover_povm = Povm(half)
        inner = np.broadcast_to(np.eye(d, dtype=complex) / 4, (2, 4, d, d)).copy()
        stack_bytes = 8 * d * d * 16
        tracemalloc.start()
        try:
            povm = _nested_povm(cover_povm, inner)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert povm.elements.shape == (8, d, d)
        assert np.shares_memory(povm.elements, inner)
        # the stack is nested in place: only roots, products and check
        # blocks are allocated, less than a second stack
        assert peak < stack_bytes

    def test_d256_peak_below_list_loop_with_same_bits(self):
        # a rotated half-space cover and random inner projectors; a loop that
        # builds a list and stacks it peaks at 12.6 MiB here, with its own
        # 8 MiB output stack, which the in-place nesting does not allocate
        d = 256
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        a = (q[:, : d // 2]) @ q[:, : d // 2].conj().T
        a = (a + a.conj().T) / 2
        cover_povm = Povm(np.stack([a, np.eye(d) - a]))
        inner = []
        for _ in range(2):
            u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            parts = np.split(u, 4, axis=1)
            inner.append(np.stack([v @ v.conj().T for v in parts]))
        inner = np.stack(inner)
        gammas = inner.copy()
        tracemalloc.start()
        try:
            povm = _nested_povm(cover_povm, inner)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12.6 * 2**20
        expected = []
        for w in range(2):
            root = psd_sqrt(cover_povm[w])
            for gamma in gammas[w]:
                e = root @ gamma @ root
                expected.append((e + e.conj().T) / 2)
        assert np.array_equal(povm.elements.view(np.uint64), np.stack(expected).view(np.uint64))


def two_stack_nested_povm(cover_povm, inner_per_w):
    """{ sqrt(Lambda^w) Gamma_w^i sqrt(Lambda^w) } written into a new stack
    next to the inner elements, every root taken first: the reference for
    the in-place nesting."""
    roots = [psd_sqrt(cover_povm[w]) for w in range(len(inner_per_w))]
    dim = cover_povm.elements.shape[1]
    elements = np.empty((sum(len(inner) for inner in inner_per_w), dim, dim), dtype=complex)
    i = 0
    for w, inner in enumerate(inner_per_w):
        for gamma in inner:
            e = elements[i]
            np.matmul(roots[w] @ gamma, roots[w], out=e)
            e += e.conj().T
            e /= 2
            i += 1
    return elements


def random_diagonal_cover(d, seed):
    """Identity-channel cover of two random diagonal codewords."""
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(2):
        p = rng.random(d)
        words.append(DensityMatrix(np.diag(p / p.sum()).astype(complex)))
    return pgm_cc_cover(words, identity_channel(d))


class TestInPlaceNesting:
    """Each builder's nested POVM, written over the inner elements' own
    stack, has the bits of the two-stack construction."""

    @pytest.mark.parametrize("d, mbar", [(4, 3), (32, 4), (96, 4)])
    def test_noiseless(self, d, mbar):
        cover = random_diagonal_cover(d, d)
        stego = build_stego_cc_noiseless(cover, mbar=mbar, zeta=0.05, seed=7)
        rng = np.random.default_rng(7)
        hashes = [build_quantum_hash(t, mbar, 0.05, seed=int(rng.integers(1 << 31))) for t in cover.outputs]
        expected = two_stack_nested_povm(cover.povm, [h.povm.elements for h in hashes])
        assert stego.povms[0].elements.tobytes() == expected.tobytes()
        states = np.stack([g.data for h in hashes for g in h.states])
        assert np.stack([g.data for g in stego.encoders[0]]).tobytes() == states.tobytes()

    def test_noisy(self):
        n_true = standard_channel("dephasing", 0.35)
        m = standard_channel("dephasing", 0.4)
        cover = pgm_cc_cover([named_state("plus"), named_state("minus")], compose(n_true, m))
        sides = side_states_from_degradation(cover, m)
        stego = build_stego_cc_noisy(cover, n_true, sides, mbar=2, kbar=3, xi=0.5, seed=5)
        rng = np.random.default_rng(5)
        codes_ = []
        for sigma in sides:
            codes_ += build_resolvability_codes(output_cq(sigma, n_true), 2, 3, [int(rng.integers(1 << 31))])
        for s, povm in enumerate(stego.povms):
            expected = two_stack_nested_povm(cover.povm, [code.decoders[s].elements for code in codes_])
            assert povm.elements.tobytes() == expected.tobytes()

    def test_cc_es(self, monkeypatch):
        hashes = []
        quantum_hash = stego_cc_es.build_quantum_hash
        monkeypatch.setattr(
            stego_cc_es,
            "build_quantum_hash",
            lambda *args, **kw: hashes.append(quantum_hash(*args, **kw)) or hashes[-1],
        )
        f1, f2, m1, m2, povm = split_cc_cover(0.5)
        force_cypher_count(monkeypatch, 3)
        stego = build_stego_cc_es(f1, f2, m1, m2, povm, zeta=0.5, seed=3)
        d1n = m1.dim_in
        inner = [[np.kron(np.eye(d1n), g) for g in h.povm.elements] for h in hashes]
        assert stego.povm.elements.tobytes() == two_stack_nested_povm(povm, inner).tobytes()

    def test_noiseless_peak_memory(self):
        # the 16 d x d matrices that stay (8 encoder states and the 8 nested
        # elements, which are the hashes' own POVM slots), the hash's row
        # buffer and a few d x d temporaries: ROW_BYTES + 22.6 d^2 here, where
        # a second stack of nested elements read ROW_BYTES + 35.1 d^2
        d = 128
        cover = random_diagonal_cover(d, d)
        tracemalloc.start()
        try:
            stego = build_stego_cc_noiseless(cover, mbar=4, zeta=0.05, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stego.povms[0].elements.shape == (8, d, d)
        assert peak <= ROW_BYTES + 28 * 16 * d * d
