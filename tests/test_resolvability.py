from types import SimpleNamespace

import numpy as np
import pytest

from qstego.fixtures import named_state
from qstego.info import CqState, Pmf
from qstego.linalg import DensityMatrix, as_matrix, basis_state, trace_norm
from qstego.experiments import render_csv, run_experiment
from qstego.protocols import build_resolvability_codes, pretty_good_measurement, resolvability_metrics
from qstego import experiments

from .test_linalg import random_density


def binary_qubit_cq():
    # outputs |0> and |+>, uniform input
    return CqState(Pmf([0.5, 0.5]), (named_state("zero"), named_state("plus")))


def one_pgm(states):
    """The pretty-good measurement of one list of states, a stack of one."""
    [povm] = pretty_good_measurement(np.array([[as_matrix(s) for s in states]]))
    return povm


def one_code(sigma, m, k, seed):
    [code] = build_resolvability_codes(sigma, m, k, [seed])
    return code


class TestPgm:
    def test_orthogonal_states_perfect(self):
        povm = one_pgm([basis_state(0, 2).to_density(), basis_state(1, 2).to_density()])
        assert np.allclose(povm[0], np.diag([1.0, 0.0]), atol=1e-10)

    def test_completeness_with_rank_deficient_support(self):
        povm = one_pgm([named_state("zero"), named_state("zero")])
        total = povm.elements.sum(axis=0)
        assert np.allclose(total, np.eye(2), atol=1e-10)


class TestResolvability:
    def test_noiseless_classical_bit(self):
        cq = CqState(Pmf([0.5, 0.5]), (basis_state(0, 2).to_density(), basis_state(1, 2).to_density()))
        code = one_code(cq, m=2, k=1, seed=3)
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
        code = one_code(cq, m=4, k=2, seed=0)
        assert code.distance == pytest.approx(0.0, abs=1e-12)

    def test_metrics_recomputation_matches(self):
        cq = binary_qubit_cq()
        code = one_code(cq, m=4, k=2, seed=11)
        [(rel, dist)] = resolvability_metrics([code], cq)
        assert rel == pytest.approx(code.reliability, abs=1e-12)
        assert dist == pytest.approx(code.distance, abs=1e-12)

    def test_distance_decreasing_in_mk(self):
        cq = binary_qubit_cq()
        medians = []
        for mk in (2, 8, 32):
            dists = [code.distance for code in build_resolvability_codes(cq, m=mk, k=1, seeds=range(50))]
            medians.append(float(np.median(dists)))
        assert medians[0] > medians[1] > medians[2]


def pgm_loop(states):
    """Square-root measurement one element at a time: the reference for the
    stacked pretty_good_measurement."""
    mats = [np.asarray(getattr(s, "data", s), dtype=complex) for s in states]
    dim, m = mats[0].shape[0], len(mats)
    w, v = np.linalg.eigh(sum(mats))
    inv_sqrt_vals = np.where(w > 1e-12, 1.0 / np.sqrt(np.where(w > 1e-12, w, 1.0)), 0.0)
    inv_sqrt = (v * inv_sqrt_vals) @ v.conj().T
    projector = (v[:, w > 1e-12]) @ v[:, w > 1e-12].conj().T
    rest = (np.eye(dim) - projector) / m
    elements = []
    for mat in mats:
        e = inv_sqrt @ mat @ inv_sqrt + rest
        elements.append((e + e.conj().T) / 2)
    return elements


def metrics_loop(code, sigma):
    """(reliability, distance) one codeword at a time: the reference for the
    stacked resolvability_metrics."""
    k, m = code.codebooks.shape
    mixture = np.zeros((sigma.dim_b, sigma.dim_b), dtype=complex)
    rel = 0.0
    for s in range(k):
        for w in range(m):
            out = sigma.states[code.codebooks[s, w]].data
            mixture += out
            rel += float(np.trace(code.decoders[s][w] @ out).real)
    mixture /= k * m
    rel /= k * m
    return rel, trace_norm(mixture - sigma.marginal_b())


def random_cq(rng, d, nx, rank=None):
    """nx random states on dimension d, supported on the first ``rank`` basis vectors."""
    rank = d if rank is None else rank
    states = []
    for _ in range(nx):
        a = np.zeros((d, d), dtype=complex)
        a[:rank, :rank] = random_density(rng, rank).data
        states.append(DensityMatrix(a))
    return CqState(Pmf(rng.dirichlet(np.ones(nx))), tuple(states))


def same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.uint64), np.asarray(y).view(np.uint64))


class TestBitForBit:
    @pytest.mark.parametrize("d", [2, 8, 16])
    @pytest.mark.parametrize("m", [1, 3, 16])
    @pytest.mark.parametrize("full_rank", [True, False], ids=["full", "deficient"])
    def test_pgm_matches_loop(self, d, m, full_rank):
        rng = np.random.default_rng(10 * d + m)
        cq = random_cq(rng, d, m, None if full_rank else d // 2)
        got = one_pgm(cq.states).elements
        ref = pgm_loop(cq.states)
        assert len(got) == len(ref)
        assert all(same_bits(g, r) for g, r in zip(got, ref))

    @pytest.mark.parametrize("d", [2, 8, 16])
    @pytest.mark.parametrize("m,k", [(1, 1), (4, 3), (16, 2)])
    def test_metrics_match_loop(self, d, m, k):
        rng = np.random.default_rng(100 * d + 10 * m + k)
        cq = random_cq(rng, d, 5)
        code = one_code(cq, m=m, k=k, seed=d + m + k)
        ref = metrics_loop(code, cq)
        assert same_bits(resolvability_metrics([code], cq), [ref])
        assert same_bits((code.reliability, code.distance), ref)


def codes_loop(sigma, m, k, seeds):
    """(codebooks, decoder elements, (reliability, distance)) per seed, one
    codebook and one PGM element at a time: the reference for
    build_resolvability_codes."""
    out = []
    for seed in seeds:
        books = np.random.default_rng(seed).choice(sigma.alphabet_size, size=(k, m), p=sigma.pmf.probs)
        decoders = [pgm_loop([sigma.states[x] for x in book]) for book in books]
        out.append((books, decoders, metrics_loop(SimpleNamespace(codebooks=books, decoders=decoders), sigma)))
    return out


def kept_pattern(sigma, book):
    """Which eigenvalues of the codebook's total output the PGM keeps."""
    return tuple(np.linalg.eigvalsh(sum(sigma.states[x].data for x in book)) > 1e-12)


def pure_on(d, *indices):
    """The uniform mixture of the given basis states of C^d."""
    a = np.zeros((d, d), dtype=complex)
    for i in indices:
        a[i, i] = 1.0 / len(indices)
    return DensityMatrix(a)


class TestBatchBitForBit:
    @pytest.mark.parametrize(
        "sigma, m, k",
        [
            # every codeword one state: each total has rank 1
            (CqState(Pmf([1.0]), (named_state("plus"),)), 3, 2),
            # supports of different sizes: codebooks fall into several kept patterns
            (CqState(Pmf([0.4, 0.3, 0.3]), (pure_on(4, 0), pure_on(4, 1), pure_on(4, 1, 2))), 2, 1),
            (CqState(Pmf([0.4, 0.3, 0.3]), (pure_on(4, 0), pure_on(4, 1), pure_on(4, 1, 2))), 1, 3),
            (random_cq(np.random.default_rng(4), 8, 5, 3), 4, 2),
            (random_cq(np.random.default_rng(5), 3, 4), 16, 3),
        ],
        ids=["one-state", "patterns-k1", "patterns-m1", "deficient-d8", "full-d3"],
    )
    def test_codes_match_per_seed_loop(self, sigma, m, k):
        seeds = list(range(12))
        got = build_resolvability_codes(sigma, m, k, seeds)
        ref = codes_loop(sigma, m, k, seeds)
        assert len(got) == len(ref)
        for code, (books, decoders, metrics) in zip(got, ref):
            assert np.array_equal(code.codebooks, books)
            assert same_bits((code.reliability, code.distance), metrics)
            assert all(
                same_bits(povm[w], element) for povm, elements in zip(code.decoders, decoders) for w, element in enumerate(elements)
            )
        assert all(same_bits(resolvability_metrics([code], sigma), [metrics]) for code, (_, _, metrics) in zip(got, ref))
        assert same_bits(resolvability_metrics(got, sigma), [metrics for _, _, metrics in ref])
        assert one_code(sigma, m, k, seeds[-1]).distance == got[-1].distance

    def test_batch_mixes_kept_patterns(self):
        sigma = CqState(Pmf([0.4, 0.3, 0.3]), (pure_on(4, 0), pure_on(4, 1), pure_on(4, 1, 2)))
        patterns = {kept_pattern(sigma, book) for code in build_resolvability_codes(sigma, 2, 1, range(12)) for book in code.codebooks}
        assert len(patterns) >= 3

    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 40], ids=["one-seed", "every-seed"])
    def test_rows_do_not_depend_on_chunk_size(self, monkeypatch, chunk_bytes):
        config = {
            "kind": "simulate/resolvability",
            "params": {"pmf": [0.5, 0.5], "outputs": ["zero", "plus"], "mk_grid": [2, 12], "seeds": 9, "zeta_ref": 0.3},
        }
        ref = run_experiment(config, seed=4)
        monkeypatch.setattr(experiments, "SEED_CHUNK_BYTES", chunk_bytes)
        got = run_experiment(config, seed=4)
        assert render_csv(got) == render_csv(ref)
        assert got.flags == ref.flags and got.summary == ref.summary
