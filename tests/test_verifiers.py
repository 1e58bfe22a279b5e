import math
import tracemalloc

import numpy as np
import pytest

from qstego.channels import QuantumChannel, apply_matrix, identity_channel, standard_channel, tensor_power
from qstego.fixtures import repetition_qc_cover
from qstego.info import Pmf, renyi_entropy, sup_over_order
from qstego.experiments import run_experiment
from qstego.linalg import DensityMatrix, Povm, basis_state, psd_sqrt, trace_norm
from qstego.protocols import (
    experiment_random_code_entropy,
    verify_gentle_composition,
    verify_pj_minentropy_bound,
)
from qstego.protocols import verifiers

from .test_channels import complementary_matrix_loop, haar_loop
from .test_linalg import random_density


def random_povm(rng, dim, nx):
    mats = [np.abs(rng.normal()) * np.eye(dim) + 0j for _ in range(nx)]
    gs = []
    for _ in range(nx):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        gs.append(g @ g.conj().T)
    total = sum(gs)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return Povm(np.array([inv_sqrt @ g @ inv_sqrt for g in gs]))


def random_channel(rng, dim, k=2):
    gs = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(k)]
    total = sum(g.conj().T @ g for g in gs)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    from qstego.channels import QuantumChannel

    return QuantumChannel(tuple(g @ inv_sqrt for g in gs))


def gentle_one(states, channels, povm, p):
    """verify_gentle_composition on one instance given as objects: the G = 1
    stacks, with channels of fewer Kraus operators padded by zero operators."""
    kraus = np.zeros((1, len(channels), max(len(ch.kraus) for ch in channels)) + channels[0].kraus[0].shape, dtype=complex)
    for x, ch in enumerate(channels):
        kraus[0, x, : len(ch.kraus)] = ch.kraus
    [rep] = verify_gentle_composition(np.array([[s.data for s in states]]), kraus, povm.elements[None], [p.probs])
    return rep


class TestGentleComposition:
    def test_perfect_measurement_zero_lhs(self):
        states = [basis_state(0, 2).to_density(), basis_state(1, 2).to_density()]
        povm = Povm(np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
        channels = [identity_channel(2), identity_channel(2)]
        rep = gentle_one(states, channels, povm, Pmf([0.5, 0.5]))
        assert rep.lhs == pytest.approx(0.0, abs=1e-10)
        assert rep.detail["eps"] == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_uninformative_measurement(self):
        # Lambda^x = p(x) I leaves the states untouched up to reweighting
        p = Pmf([0.3, 0.7])
        states = [basis_state(0, 2).to_density(), basis_state(1, 2).to_density()]
        povm = Povm(np.array([0.3 * np.eye(2), 0.7 * np.eye(2)]))
        channels = [identity_channel(2), identity_channel(2)]
        rep = gentle_one(states, channels, povm, p)
        # eps = 1 - sum p(x)^2; lhs computable in closed form:
        # sum_x p(x) rho^x - sum_{x,x'} p(x) p(x') rho^x = 0
        assert rep.lhs == pytest.approx(0.0, abs=1e-10)
        assert rep.detail["eps"] == pytest.approx(1 - 0.09 - 0.49, abs=1e-12)
        assert rep.holds

    def test_hundred_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            nx = int(rng.integers(2, 4))
            states = [random_density(rng, dim) for _ in range(nx)]
            povm = random_povm(rng, dim, nx)
            channels = [random_channel(rng, dim) for _ in range(nx)]
            p = Pmf(rng.dirichlet(np.ones(nx)))
            rep = gentle_one(states, channels, povm, p)
            assert rep.holds



# The per-instance gentle check and runner that the shape-group batch
# replaced, kept verbatim as the reference.


def gentle_loop(states, channels, povm, p):
    """(eps, lhs, rhs) of one instance, one matrix at a time."""
    probs = p.probs
    nx = probs.size
    roots = [psd_sqrt(e) for e in povm.elements]
    eps = 1.0 - sum(probs[x] * float(np.trace(states[x].data @ povm[x]).real) for x in range(nx))
    eps = max(0.0, eps)
    dim_out = channels[0].dim_out
    diff = np.zeros((dim_out, dim_out), dtype=complex)
    for x in range(nx):
        if probs[x] == 0.0:
            continue
        term = apply_matrix(channels[x], states[x].data)
        for xp in range(nx):
            gentle = roots[xp] @ states[x].data @ roots[xp]
            term = term - apply_matrix(channels[xp], gentle)
        diff += probs[x] * term
    return eps, trace_norm(diff), 2.0 * math.sqrt(eps) + eps


def gentle_instance(rng, dim, nx):
    """One instance of verify/gentle, drawn with 8 nx separate Gaussian calls."""
    states = []
    for _ in range(nx):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = g @ g.conj().T
        states.append(DensityMatrix(a / np.trace(a).real))
    gs = []
    for _ in range(nx):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        gs.append(g @ g.conj().T)
    total = sum(gs)
    w, v = np.linalg.eigh(total)
    inv = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    povm = Povm(np.array([inv @ g @ inv for g in gs]))
    channels = []
    for _ in range(nx):
        ks = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2)]
        tot = sum(k.conj().T @ k for k in ks)
        w2, v2 = np.linalg.eigh(tot)
        inv2 = (v2 * (1.0 / np.sqrt(w2))) @ v2.conj().T
        channels.append(QuantumChannel(tuple(k @ inv2 for k in ks)))
    return states, channels, povm, Pmf(rng.dirichlet(np.ones(nx)))


def gentle_rows_loop(seed, instances, dim_max, x_max):
    rng = np.random.default_rng(seed)
    rows = []
    for idx in range(instances):
        dim = int(rng.integers(2, dim_max + 1))
        nx = int(rng.integers(2, x_max + 1))
        eps, lhs, rhs = gentle_loop(*gentle_instance(rng, dim, nx))
        rows.append({"instance": idx, "dim": dim, "x_size": nx, "eps": eps, "lhs": lhs, "bound": rhs,
                     "holds": lhs <= rhs + verifiers.GRACE})
    return rows


def bits(rows):
    """Rows with every float as its bit pattern, so == compares bits."""
    return [{k: np.float64(v).view(np.uint64) if isinstance(v, float) else v for k, v in row.items()} for row in rows]


class TestGentleBitForBit:
    @pytest.mark.parametrize(
        "seed, instances, dim_max, x_max",
        [(0, 100, 4, 3), (1, 60, 4, 3), (7, 40, 2, 2), (3, 30, 9, 5), (11, 25, 12, 2)],
    )
    def test_runner_matches_per_instance_loop(self, seed, instances, dim_max, x_max):
        config = {"kind": "verify/gentle", "seed": seed,
                  "params": {"instances": instances, "dim_max": dim_max, "x_max": x_max}}
        assert bits(run_experiment(config).rows) == bits(gentle_rows_loop(seed, instances, dim_max, x_max))

    def test_zero_probability_symbol_is_skipped(self):
        rng = np.random.default_rng(5)
        instances = [gentle_instance(rng, dim, 3) for dim in (3, 3, 3)]
        probs = [[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.2, 0.3, 0.5]]
        reports = verify_gentle_composition(
            np.array([[s.data for s in states] for states, _, _, _ in instances]),
            np.array([[ch.kraus for ch in channels] for _, channels, _, _ in instances]),
            np.array([povm.elements for _, _, povm, _ in instances]),
            probs,
        )
        for (states, channels, povm, _), p, rep in zip(instances, probs, reports):
            expected = gentle_loop(states, channels, povm, Pmf(p))
            assert bits([dict(zip("elr", (rep.detail["eps"], rep.lhs, rep.rhs)))]) == bits([dict(zip("elr", expected))])
            one = gentle_one(states, channels, povm, Pmf(p))
            assert (one.lhs, one.rhs, one.detail) == (rep.lhs, rep.rhs, rep.detail)

    def test_channels_with_fewer_kraus_operators(self):
        # identity channels (one operator) beside two-operator channels: the
        # zero operators that pad them add nothing
        rng = np.random.default_rng(8)
        states, channels, povm, p = gentle_instance(rng, 3, 3)
        channels[1] = identity_channel(3)
        rep = gentle_one(states, channels, povm, p)
        assert bits([dict(zip("elr", (rep.detail["eps"], rep.lhs, rep.rhs)))]) == bits(
            [dict(zip("elr", gentle_loop(states, channels, povm, p)))]
        )

    def test_mismatched_sizes_rejected(self):
        rng = np.random.default_rng(6)
        states, channels, povm, p = gentle_instance(rng, 2, 3)
        with pytest.raises(ValueError, match="shape error"):
            gentle_one(states[:2], channels, povm, p)
        with pytest.raises(ValueError, match="shape error"):
            verify_gentle_composition(
                np.array([[s.data for s in states]]), np.array([[ch.kraus for ch in channels[:2]]]), povm.elements[None], [p.probs]
            )


class TestPjMinEntropyBound:
    def test_perfect_code_equality(self):
        cover = repetition_qc_cover(0.0)
        for delta in (0.2, 0.4):
            rep = verify_pj_minentropy_bound(cover, delta)
            assert rep.holds
            assert rep.lhs == pytest.approx(rep.rhs, abs=1e-9)
            assert rep.lhs == pytest.approx(-math.log2(1 - delta), abs=1e-9)

    def test_bitflip_family(self):
        cover = repetition_qc_cover(0.1)
        rep = verify_pj_minentropy_bound(cover, 0.4)  # 2 sqrt(eps) = 0.335
        assert rep.holds
        assert rep.lhs >= rep.rhs - 1e-9

    def test_vacuous_bound_rejected(self):
        cover = repetition_qc_cover(0.25)  # eps = 0.15625, 2 sqrt(eps) = 0.79
        for delta in (0.2, 0.4):
            with pytest.raises(ValueError, match="bound vacuous"):
                verify_pj_minentropy_bound(cover, delta)

    def test_unitary_degradation_equality(self):
        from qstego.channels import Isometry, QuantumChannel
        from qstego.protocols.codes import QcCode

        channel = QuantumChannel((np.eye(8, dtype=complex),))
        v = np.zeros((8, 2), dtype=complex)
        v[0, 0] = v[7, 1] = 1.0
        sink = [np.eye(2)[:, :1] @ np.eye(8)[k : k + 1, :] for k in range(1, 7)]
        decode = QuantumChannel((v.conj().T, *sink))
        cover = QcCode(encode=Isometry(v), decode=decode, channel=channel, correctable=(0,), n=3)
        # deterministic P_J and a pure environment: the two sides agree exactly
        rep = verify_pj_minentropy_bound(cover, 0.5)
        assert rep.holds
        assert rep.lhs == pytest.approx(-math.log2(0.5), abs=1e-9)
        assert rep.rhs == pytest.approx(-math.log2(0.5), abs=1e-9)


class TestRandomCodeEntropy:
    @pytest.mark.parametrize("samples, m_dim", [(0, 2), (-1, 2), (3, 0)], ids=["no-samples", "negative-samples", "no-m-dim"])
    def test_empty_input_rejected(self, samples, m_dim):
        with pytest.raises(ValueError, match="bad parameter"):
            experiment_random_code_entropy(2, 2, m_dim, standard_channel("dephasing", 0.5), samples=samples, delta=0.5)

    def test_peak_memory_of_a_large_batch(self):
        # the batch keeps each sample's spectrum and grid winner, never a
        # (samples, 199) table of grid values (0.76 MiB at 500 samples)
        m = standard_channel("dephasing", 0.5)
        experiment_random_code_entropy(2, 3, 2, m, samples=5, delta=0.5, seed=0)
        tracemalloc.start()
        try:
            experiment_random_code_entropy(2, 3, 2, m, samples=500, delta=0.5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20


def random_code_loop(dim_a, n, m_dim, m, samples, seed):
    """(mean, stderr) of the sample sups with one Haar draw and one environment
    at a time: the reference for the chunked batch."""
    rng = np.random.default_rng(seed)
    total = tensor_power(m, n)
    envs = []
    for _ in range(samples):
        v = haar_loop(dim_a**n, m_dim, rng)
        envs.append(complementary_matrix_loop(total, v @ v.conj().T / m_dim))
    vals = np.array([o.value for o in sup_over_order(renyi_entropy(envs), batch=samples)])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0


class TestRandomCodeBitForBit:
    @pytest.mark.parametrize(
        "dim_a, n, m_dim, kind, samples",
        [(2, 2, 3, "depolarizing", 1), (2, 3, 1, "bit_flip", 9), (2, 1, 2, "amplitude_damping", 6), (3, 2, 2, None, 4)],
    )
    def test_matches_per_sample_loop(self, dim_a, n, m_dim, kind, samples):
        m = random_channel(np.random.default_rng(5), 3) if kind is None else standard_channel(kind, 0.3)
        rep = experiment_random_code_entropy(dim_a, n, m_dim, m, samples=samples, delta=0.5, seed=7)
        mean, stderr = random_code_loop(dim_a, n, m_dim, m, samples, seed=7)
        assert np.array_equal(np.array([rep.lhs, rep.detail["stderr"]]).view(np.uint64), np.array([mean, stderr]).view(np.uint64))

    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 40], ids=["one-sample", "every-sample"])
    def test_report_does_not_depend_on_chunk_size(self, monkeypatch, chunk_bytes):
        m = standard_channel("dephasing", 0.5)
        ref = experiment_random_code_entropy(2, 3, 2, m, samples=37, delta=0.5, seed=3)
        monkeypatch.setattr(verifiers, "SAMPLE_CHUNK_BYTES", chunk_bytes)
        assert experiment_random_code_entropy(2, 3, 2, m, samples=37, delta=0.5, seed=3) == ref
