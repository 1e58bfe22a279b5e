import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from qstego import channels, experiments
from qstego.channels import (
    CPTP_TOL,
    KrausIndex,
    QuantumChannel,
    apply,
    check_kraus,
    complementary_matrix,
    compose,
    haar_random_subspace,
    identity_channel,
    isometric_extension,
    kraus_sum,
    kraus_terms,
    standard_channel,
    tensor,
    tensor_power,
)
from qstego.fixtures import dephasing_es_cover, repetition_qc_cover, split_cc_cover
from qstego.linalg import DensityMatrix, basis_state, partial_trace_matrix

from .test_linalg import random_density


PLUS = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


class TestChannelType:
    def test_cptp_check(self):
        with pytest.raises(ValueError, match="invalid channel"):
            QuantumChannel((np.eye(2) * 0.9,))

    def test_standard_channels_are_cptp(self):
        for kind in ("depolarizing", "dephasing", "bit_flip", "amplitude_damping"):
            for p in (0.0, 0.3, 1.0):
                standard_channel(kind, p)

    def test_bad_parameter(self):
        with pytest.raises(ValueError, match="bad parameter"):
            standard_channel("bit_flip", 1.5)
        with pytest.raises(ValueError, match="bad parameter"):
            standard_channel("sideways", 0.5)


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 2)
        out = apply(identity_channel(2), rho)
        assert np.allclose(out.data, rho.data)

    def test_fully_depolarizing(self):
        rng = np.random.default_rng(1)
        ch = standard_channel("depolarizing", 1.0)
        out = apply(ch, random_density(rng, 2))
        assert np.allclose(out.data, np.eye(2) / 2, atol=1e-12)

    def test_depolarizing_eigenvalues(self):
        p = 0.37
        out = apply(standard_channel("depolarizing", p), basis_state(0, 2).to_density())
        w = np.sort(np.linalg.eigvalsh(out.data))
        assert np.allclose(w, [p / 2, 1 - p / 2], atol=1e-12)

    def test_trace_and_psd_preserved(self):
        rng = np.random.default_rng(2)
        for kind, p in (("depolarizing", 0.4), ("amplitude_damping", 0.7), ("dephasing", 0.2)):
            ch = standard_channel(kind, p)
            for _ in range(20):
                out = apply(ch, random_density(rng, 2))
                assert abs(np.trace(out.data).real - 1) < 1e-10
                assert np.linalg.eigvalsh(out.data).min() > -1e-9

    def test_bit_flip_zero_is_identity(self):
        ch = standard_channel("bit_flip", 0.0)
        assert len(ch.kraus) == 2
        assert np.allclose(ch.kraus[0], np.eye(2))
        assert np.allclose(ch.kraus[1], np.zeros((2, 2)))

    def test_depolarizing_unital(self):
        out = apply(standard_channel("depolarizing", 0.8), DensityMatrix(np.eye(2) / 2))
        assert np.allclose(out.data, np.eye(2) / 2, atol=1e-12)


class TestComposeAndTensor:
    def test_tensor_power_one(self):
        ch = standard_channel("dephasing", 0.3)
        assert np.allclose(tensor_power(ch, 1).kraus[0], ch.kraus[0])

    def test_identity_tensor_power(self):
        ch = tensor_power(identity_channel(2), 2)
        rng = np.random.default_rng(3)
        rho = random_density(rng, 4)
        assert np.allclose(apply(ch, rho).data, rho.data)

    def test_tensor_power_factorizes(self):
        ch = standard_channel("dephasing", 0.6)
        ch2 = tensor_power(ch, 2)
        plusplus = DensityMatrix(np.kron(PLUS.data, PLUS.data))
        lhs = apply(ch2, plusplus)
        single = apply(ch, PLUS)
        rhs = np.kron(single.data, single.data)
        assert np.allclose(lhs.data, rhs, atol=1e-12)

    def test_compose_with_identity(self):
        ch = standard_channel("amplitude_damping", 0.45)
        rng = np.random.default_rng(4)
        for combo in (compose(identity_channel(2), ch), compose(ch, identity_channel(2))):
            for _ in range(5):
                rho = random_density(rng, 2)
                assert np.allclose(apply(combo, rho).data, apply(ch, rho).data, atol=1e-12)

    def test_depolarizing_composition_rule(self):
        p, q = 0.3, 0.5
        combo = compose(standard_channel("depolarizing", p), standard_channel("depolarizing", q))
        expected = standard_channel("depolarizing", p + q - p * q)
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = random_density(rng, 2)
            assert np.allclose(apply(combo, rho).data, apply(expected, rho).data, atol=1e-12)

    def test_action_matches_on_operator_basis(self):
        a = standard_channel("bit_flip", 0.25)
        b = standard_channel("dephasing", 0.4)
        combo = compose(a, b)
        joint = tensor(a, b)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                lhs = sum(k @ e @ k.conj().T for k in combo.kraus)
                rhs = sum(g @ (f @ e @ f.conj().T) @ g.conj().T for g in a.kraus for f in b.kraus)
                assert np.allclose(lhs, rhs, atol=1e-12)
                lhs2 = sum(k @ np.kron(e, e) @ k.conj().T for k in joint.kraus)
                rhs2 = np.kron(
                    sum(f @ e @ f.conj().T for f in a.kraus),
                    sum(f @ e @ f.conj().T for f in b.kraus),
                )
                assert np.allclose(lhs2, rhs2, atol=1e-12)


def tensor_power_loop(ch, n):
    """The Kraus operators of the n-fold power, one np.kron chain per tuple."""
    ks = []
    for combo in itertools.product(ch.kraus, repeat=n):
        k = combo[0]
        for f in combo[1:]:
            k = np.kron(k, f)
        ks.append(k)
    return ks


class TestTensorPowerBitForBit:
    @pytest.mark.parametrize(
        "kind, n",
        [("depolarizing", 3), ("amplitude_damping", 4), ("bit_flip", 1), ("dephasing", 5), ("random", 3)],
    )
    def test_matches_kron_chains(self, kind, n):
        rng = np.random.default_rng(12)
        ch = random_channel(rng, 3, 2, 3) if kind == "random" else standard_channel(kind, 0.37)
        got = tensor_power(ch, n).kraus
        expected = tensor_power_loop(ch, n)
        assert len(got) == len(expected)
        # every nonzero entry has the chain's bits; a formed operator's zeros
        # are +0 where the chain writes -0.0 after a negative factor
        assert all(g.tobytes() == (e + 0).tobytes() for g, e in zip(got, expected))

    @pytest.mark.parametrize(
        "kind, n",
        [("depolarizing", 3), ("amplitude_damping", 4), ("bit_flip", 1), ("dephasing", 5), ("random", 3)],
    )
    def test_indexing_matches_iteration(self, kind, n):
        rng = np.random.default_rng(12)
        ch = random_channel(rng, 3, 2, 3) if kind == "random" else standard_channel(kind, 0.37)
        family = tensor_power(ch, n).kraus
        assert len(family) == len(ch.kraus) ** n
        ops = list(family)
        assert len(ops) == len(family)
        assert all(family[j].tobytes() == op.tobytes() for j, op in enumerate(ops))
        assert family[-1].tobytes() == ops[-1].tobytes()
        with pytest.raises(IndexError):
            family[len(family)]

    def test_chunks_across_prefix_groups(self, monkeypatch):
        # index chunks of 5 of the 27 operators of 27 x 8 cut across every
        # group of K = 3 and K^2 = 9 operators that share a prefix
        ch = QuantumChannel(ROW_MONOMIAL_3X2 + (np.zeros((3, 2)),))
        monkeypatch.setattr(channels, "CHECK_BLOCK_BYTES", 5 * 24 * 27)
        power = tensor_power(ch, 3)
        assert [len(cols) for cols, _ in power.kraus.chunks()] == [5] * 5 + [2]
        ops = tensor_power_loop(ch, 3)
        assert [family_op.tobytes() for family_op in power.kraus] == [(e + 0).tobytes() for e in ops]
        a = random_density(np.random.default_rng(14), 8).data
        terms = [(t + 0).tobytes() for t in kraus_terms(power.kraus, a)]
        assert terms == [(k @ a @ k.conj().T + 0).tobytes() for k in ops]

    def test_power_is_never_held_at_once(self):
        # the 128 operators of 128 x 128 are 32 MiB as one stack
        ch = standard_channel("bit_flip", 0.1)
        rho = np.full((2, 2), 0.5, dtype=complex)
        for _ in range(6):
            rho = np.kron(rho, PLUS.data)
        tracemalloc.start()
        try:
            out = apply(tensor_power(ch, 7), rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.shape == (128, 128)
        assert peak < 4 * 2**20


#: a rectangular row-monomial family: 3 x 2 operators with negative and
#: imaginary entries and zero rows
ROW_MONOMIAL_3X2 = (
    np.array([[np.sqrt(0.6), 0], [0, 0], [0, -np.sqrt(0.6)]], dtype=complex),
    np.array([[0, 1j * np.sqrt(0.4)], [np.sqrt(0.4), 0], [0, 0]], dtype=complex),
)


def dense_loop(ch, a):
    """sum_j F_j a F_j† over the formed operators, one product pair each."""
    return sum(k @ a @ k.conj().swapaxes(-1, -2) for k in ch.kraus)


def without_index(ch):
    """``ch`` with its index form replaced by the tuple of its operators, so
    that it is applied densely."""
    dense = QuantumChannel(ch.kraus)
    object.__setattr__(dense, "kraus", tuple(ch.kraus))
    return dense


class TestIndexForm:
    """Row-monomial families are applied by gathers, bit for bit as the
    dense products."""

    @pytest.mark.parametrize("kind", ["depolarizing", "dephasing", "bit_flip", "amplitude_damping"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_textbook_powers_match_dense_loop(self, kind, n):
        rng = np.random.default_rng(10 * n)
        for p in (0.1, 0.37, 0.9):
            ch = tensor_power(standard_channel(kind, p), n)
            assert isinstance(ch.kraus, KrausIndex)
            rho = random_density(rng, 2**n).data
            assert kraus_sum(ch.kraus, rho).tobytes() == dense_loop(ch, rho).tobytes()
            assert apply(ch, rho).data.tobytes() == apply(without_index(ch), rho).data.tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: identity_channel(3),
            lambda: compose(standard_channel("depolarizing", 0.3), standard_channel("amplitude_damping", 0.6)),
            lambda: tensor_power(compose(standard_channel("bit_flip", 0.2), standard_channel("dephasing", 0.7)), 3),
            lambda: tensor(standard_channel("depolarizing", 0.3), identity_channel(2)),
            lambda: QuantumChannel(ROW_MONOMIAL_3X2),
            lambda: tensor_power(QuantumChannel(ROW_MONOMIAL_3X2), 3),
        ],
        ids=["identity", "compose", "compose-power", "tensor", "rectangular", "rectangular-power"],
    )
    def test_other_families_match_dense_loop(self, make):
        ch = make()
        assert isinstance(ch.kraus, KrausIndex)
        rng = np.random.default_rng(11)
        stack = np.array([random_density(rng, ch.dim_in).data for _ in range(3)])
        for a in (stack[0], stack, np.diag(np.arange(ch.dim_in) % 2).astype(complex)):
            assert kraus_sum(ch.kraus, a).tobytes() == dense_loop(ch, a).tobytes()
        assert apply(ch, stack).tobytes() == apply(without_index(ch), stack).tobytes()

    @pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping"])
    def test_terms_match_dense_products(self, kind):
        # side ensembles are built from single terms; "+ 0" makes every zero +0
        single = standard_channel(kind, 0.3)
        ch = tensor_power(single, 3)
        for a in (np.diag(np.eye(8)[0]).astype(complex), -random_density(np.random.default_rng(3), 8).data):
            got = [(t + 0).tobytes() for t in kraus_terms(ch.kraus, a)]
            assert got == [(k @ a @ k.conj().T + 0).tobytes() for k in tensor_power_loop(single, 3)]

    def test_general_families_stay_dense(self):
        theta = 0.3
        phase = QuantumChannel((np.diag([1, np.exp(1j * theta)]),))
        assert type(phase.kraus) is tuple
        assert type(random_channel(np.random.default_rng(4), 2, 2, 2).kraus) is tuple
        assert type(tensor_power(random_channel(np.random.default_rng(4), 2, 2, 2), 2).kraus) is tuple

    def test_power_application_forms_no_operator(self, monkeypatch):
        def forbidden(self, j):
            raise AssertionError("a Kraus operator was formed")

        ch = tensor_power(standard_channel("bit_flip", 0.1), 7)
        monkeypatch.setattr(KrausIndex, "__getitem__", forbidden)
        out = apply(ch, np.eye(128, dtype=complex) / 128)
        assert np.allclose(out.data, np.eye(128) / 128, atol=1e-15)

    @pytest.mark.parametrize("kind", sorted(experiments._CHANNELS))
    def test_config_channels_have_an_index_form(self, kind):
        # a config channel, or one a runner derives from it, that fell back to
        # the dense loop would run unnoticed at the speed of K^n dense products
        def channel(kind, power):
            return experiments._CHANNELS[kind](power=power, **({"dim": 2} if kind == "identity" else {"p": 0.3}))

        for power in (1, 2, 3):
            ch = channel(kind, power)
            assert isinstance(ch.kraus, KrausIndex)
            # verify/random-code takes the n-fold power of its m
            assert isinstance(tensor_power(ch, 2).kraus, KrausIndex)
            # the noisy runners' covers cross n_true after m
            for other in experiments._CHANNELS:
                assert isinstance(compose(ch, channel(other, power)).kraus, KrausIndex)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.5])
    def test_repetition_cover_operators_match_kron_chains(self, p):
        # QcCode and the correctable-Kraus orthogonalization read these
        # operators, so at every p of a shipped config they keep the chain's
        # bytes, zeros included
        ch = repetition_qc_cover(p).channel
        assert isinstance(ch.kraus, KrausIndex)
        expected = tensor_power_loop(standard_channel("bit_flip", p), 3)
        assert [op.tobytes() for op in ch.kraus] == [e.tobytes() for e in expected]

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.5])
    def test_cover_fixture_channels_keep_their_operators(self, p):
        # QcCode, isometric_extension and compose read these operators: each
        # family is an index whose reads have the bytes of the operator its
        # fixture formed, plus 0
        for ch, formed in fixture_channels(p):
            assert isinstance(ch.kraus, KrausIndex)
            assert [op.tobytes() for op in ch.kraus] == [(f + 0).tobytes() for f in formed]


def fixture_channels(p):
    """(channel, its operators as its fixture forms them from dense ones) for
    each row-monomial channel of the QC, ES and split cover fixtures at p."""
    x, z, eye = channels._PAULI_X, channels._PAULI_Z, np.eye(2, dtype=complex)
    v = np.zeros((8, 2), dtype=complex)
    v[0, 0] = v[7, 1] = 1.0
    corrections = [[eye] * 3, [x, eye, eye], [eye, x, eye], [eye, eye, x]]
    dephasing = [np.sqrt(1 - p) * eye, np.sqrt(p) * z]
    es = dephasing_es_cover(p)
    return [
        (repetition_qc_cover(p).decode, [v.conj().T @ reduce(np.kron, legs) for legs in corrections]),
        (es.channel, [np.kron(eye, f) for f in dephasing]),
        (es.decode, [np.kron(eye, eye[j : j + 1, :]) for j in range(2)]),
        (tensor(*split_cc_cover(p)[2:4]), [np.kron(f, eye) for f in dephasing]),
    ]


def power_deviation_loop(ch, n):
    """max |sum F†F - I| over the K^n operators of the n-fold power, summed in
    itertools.product order."""
    total = sum(k.conj().T @ k for k in tensor_power_loop(ch, n))
    return float(np.abs(total - np.eye(len(total))).max())


class TestPowerCompleteness:
    """A power's completeness is checked from its base family as S ⊗ ... ⊗ S."""

    X = np.array([[0, 1], [1, 0]], dtype=complex)

    def test_incomplete_base_rejected(self):
        base = (np.sqrt(0.5) * np.eye(2), np.sqrt(0.4) * self.X)
        index = KrausIndex.of(np.array(base, dtype=complex))
        with pytest.raises(ValueError, match="^invalid channel: Kraus completeness fails$"):
            QuantumChannel(KrausIndex(index.cols, index.coefs, index.din, 3))

    def test_deviation_grows_with_n(self):
        # a base 6e-10 off I passes alone; its square is 1.2e-9 off, as the
        # sum over the K^2 operators is
        base = QuantumChannel((np.sqrt(0.5 + 3e-10) * np.eye(2), np.sqrt(0.5 + 3e-10) * self.X))
        assert 5e-10 < check_kraus(base.kraus) < 7e-10
        assert power_deviation_loop(base, 2) > CPTP_TOL
        with pytest.raises(ValueError, match="^invalid channel: Kraus completeness fails$"):
            tensor_power(base, 2)

    @pytest.mark.parametrize("kind", ["depolarizing", "dephasing", "bit_flip", "amplitude_damping"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_operator_sum(self, kind, n):
        # both are rounding-level; the reference sums K^n terms, so it may sit
        # up to about K^n eps off (4.9e-15 for depolarizing(0.1) at n = 4)
        for p in (0.1, 0.37, 0.9):
            ch = standard_channel(kind, p)
            got = check_kraus(tensor_power(ch, n).kraus)
            assert abs(got - power_deviation_loop(ch, n)) <= len(ch.kraus) ** n * np.finfo(float).eps


class TestIsometricExtension:
    def test_unitary_channel(self):
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        v = isometric_extension(QuantumChannel((u,)))
        assert v.shape == (2, 2)  # environment dimension 1
        assert np.allclose(v, u)

    def test_dephasing_environment_pure(self):
        p = 0.3
        ch = standard_channel("dephasing", p)
        env = complementary_matrix(ch, basis_state(0, 2).to_density().data)
        expected = np.outer([np.sqrt(1 - p), np.sqrt(p)], [np.sqrt(1 - p), np.sqrt(p)])
        assert np.allclose(env, expected, atol=1e-12)

    def test_marginal_consistency(self):
        rng = np.random.default_rng(6)
        for kind, p in (("dephasing", 0.35), ("amplitude_damping", 0.6), ("depolarizing", 0.2)):
            ch = standard_channel(kind, p)
            v = isometric_extension(ch)
            k = len(ch.kraus)
            for _ in range(5):
                rho = random_density(rng, 2)
                full = v @ rho.data @ v.conj().T
                sys = partial_trace_matrix(full, [2, k], keep=[0])
                assert np.allclose(sys, apply(ch, rho).data, atol=1e-9)
                env = partial_trace_matrix(full, [2, k], keep=[1])
                assert np.allclose(env, complementary_matrix(ch, rho.data), atol=1e-9)

    @pytest.mark.parametrize("family", ["random", "depolarizing", "bit_flip-power"])
    def test_matches_kron_loop(self, family):
        # depolarizing's Y holds -0.0 real parts, which both give as +0
        if family == "random":
            ch = random_channel(np.random.default_rng(15), 3, 2, 3)
            ops = ch.kraus
        elif family == "depolarizing":
            ch = standard_channel("depolarizing", 0.3)
            ops = [np.sqrt(1 - 3 * 0.3 / 4) * np.eye(2, dtype=complex)]
            ops += [np.sqrt(0.3 / 4) * pauli for pauli in (channels._PAULI_X, channels._PAULI_Y, channels._PAULI_Z)]
        else:
            ch = tensor_power(standard_channel("bit_flip", 0.2), 3)
            ops = tensor_power_loop(standard_channel("bit_flip", 0.2), 3)
        v = isometric_extension(ch)
        assert v.tobytes() == isometric_extension_loop(ops).tobytes()
        assert np.allclose(v.conj().T @ v, np.eye(ch.dim_in), atol=CPTP_TOL)

    def test_complementary_of_unitary_has_zero_entropy(self):
        rng = np.random.default_rng(7)
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        ch = QuantumChannel((u,))
        for _ in range(5):
            env = complementary_matrix(ch, random_density(rng, 2).data)
            # one Kraus operator: the environment is the pure 1x1 state [1]
            assert np.linalg.eigvalsh(env) == pytest.approx([1.0], abs=1e-9)

    def test_dephasing_half_on_plus(self):
        env = complementary_matrix(standard_channel("dephasing", 0.5), PLUS.data)
        assert np.allclose(np.sort(np.linalg.eigvalsh(env)), [0.5, 0.5], atol=1e-12)

    def test_complementary_matrix_exactly_hermitian(self):
        rng = np.random.default_rng(13)
        for kind, p in (("depolarizing", 0.3), ("amplitude_damping", 0.4)):
            ch = standard_channel(kind, p)
            for _ in range(10):
                a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                env = complementary_matrix(ch, a @ a.conj().T)
                assert np.array_equal(env, env.conj().T)


def isometric_extension_loop(ops):
    """sum_j F_j (x) |j> summed by np.kron one operator at a time: the
    reference for the stacked isometric_extension."""
    k = len(ops)
    v = np.zeros((ops[0].shape[0] * k, ops[0].shape[1]), dtype=complex)
    for j, f in enumerate(ops):
        e = np.zeros(k, dtype=complex)
        e[j] = 1.0
        v += np.kron(f, e.reshape(-1, 1))
    return v


def complementary_matrix_loop(ch, a):
    """tr(F_j a F_j'†) one pair at a time: the reference for the row-stacked
    complementary_matrix."""
    k = len(ch.kraus)
    env = np.zeros((k, k), dtype=complex)
    moved = [f @ a for f in ch.kraus]
    for j in range(k):
        for jp in range(j, k):
            val = np.trace(moved[j] @ ch.kraus[jp].conj().T)
            env[j, jp] = val
            env[jp, j] = np.conj(val)
    return (env + env.conj().T) / 2


def haar_loop(dim, m, rng):
    """One Haar isometry per call, real block then imaginary block: the
    reference for the stacked haar_random_subspace."""
    g = rng.normal(size=(dim, m)) + 1j * rng.normal(size=(dim, m))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_channel(rng, k, d_in, d_out):
    """k Kraus operators d_out x d_in cut from a Haar-random isometry."""
    v = haar_random_subspace(k * d_out, d_in, 1, rng)[0]
    return QuantumChannel(tuple(v[j * d_out : (j + 1) * d_out] for j in range(k)))


class TestComplementaryMatrixBitForBit:
    @pytest.mark.parametrize("kind", ["depolarizing", "dephasing", "bit_flip", "amplitude_damping"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_index_form_matches_pairwise_loop(self, kind, n):
        rng = np.random.default_rng(n)
        ch = tensor_power(standard_channel(kind, 0.37), n)
        dense = without_index(ch)
        stack = np.array([random_density(rng, 2**n).data for _ in range(3)])
        pis = np.array([np.diag(np.arange(2**n) % 3 == s).astype(complex) for s in range(3)])
        for a in (stack, pis):
            got = complementary_matrix(ch, a)
            assert got.tobytes() == np.array([complementary_matrix_loop(dense, x) for x in a]).tobytes()
            assert got.tobytes() == complementary_matrix(dense, a).tobytes()

    @pytest.mark.parametrize("d", [2, 8, 16])
    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_matches_pairwise_loop(self, d, k):
        rng = np.random.default_rng(100 * d + k)
        for d_out in sorted({d, max(1, -(-d // k)), 2 * d}):
            ch = random_channel(rng, k, d, d_out)
            a = random_density(rng, d).data
            got, ref = complementary_matrix(ch, a), complementary_matrix_loop(ch, a)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
            stack = np.array([random_density(rng, d).data for _ in range(3)])
            got = complementary_matrix(ch, stack)
            ref = np.array([complementary_matrix_loop(ch, x) for x in stack])
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("index", [True, False])
    def test_input_of_another_dimension_raises(self, d, index):
        # the index form gathers entries by column, so unchecked a larger
        # input would be read through its top-left corner
        ch = standard_channel("dephasing", 0.5)
        ch = ch if index else without_index(ch)
        with pytest.raises(ValueError, match="^shape error: state does not match channel input$"):
            complementary_matrix(ch, np.eye(d, dtype=complex) / d)
        with pytest.raises(ValueError, match="^shape error: state does not match channel input$"):
            complementary_matrix(ch, np.eye(d, dtype=complex)[None] / d)

    def test_memory_is_one_row_at_a_time(self):
        # k = d = 32: the k·d² entries of F_j a (512 KiB) against all k² products (16 MiB)
        rng = np.random.default_rng(21)
        ch = random_channel(rng, 32, 32, 32)
        a = random_density(rng, 32).data
        moved_bytes = sum(f.nbytes for f in ch.kraus)
        tracemalloc.start()
        try:
            complementary_matrix(ch, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * moved_bytes


class TestHaarSubspace:
    @pytest.mark.parametrize("dim,m,count", [(8, 2, 40), (4, 4, 3), (16, 5, 7), (2, 1, 1), (27, 3, 4)])
    def test_stack_matches_per_sample_draws(self, dim, m, count):
        rng = np.random.default_rng(dim + m)
        ref = np.array([haar_loop(dim, m, rng) for _ in range(2 * count)])
        rng = np.random.default_rng(dim + m)
        # two stacks from one generator continue its stream
        got = np.concatenate([haar_random_subspace(dim, m, count, rng) for _ in range(2)])
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_full_space_is_unitary(self):
        [v] = haar_random_subspace(4, 4, 1, np.random.default_rng(8))
        assert np.allclose(v @ v.conj().T, np.eye(4), atol=1e-9)

    def test_isometry_invariant(self):
        rng = np.random.default_rng(9)
        for v in haar_random_subspace(8, 3, 25, rng):
            assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-9)

    def test_mean_projector_matches_haar_average(self):
        rng = np.random.default_rng(10)
        dim, m, samples = 4, 2, 2000
        acc = np.zeros((dim, dim), dtype=complex)
        for v in haar_random_subspace(dim, m, samples, rng):
            acc += v @ v.conj().T
        acc /= samples
        assert np.max(np.abs(acc - (m / dim) * np.eye(dim))) < 0.05
