import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qstego import hashing
from qstego.hashing import build_classical_hash, build_quantum_hash, encoder_from_hash
from qstego.info import as_pmf, renyi_entropy, sup_over_order
from qstego.linalg import DensityMatrix, trace_norm


class TestClassicalHash:
    def test_uniform_exact_split(self):
        enc = build_classical_hash(np.full(4, 0.25), 2, eps=0.0, seed=0)
        assert enc.defect == pytest.approx(0.0, abs=1e-12)
        assert enc.error_prob == pytest.approx(0.0, abs=1e-12)
        assert not enc.warning

    def test_three_symbol_partition(self):
        # exhaustive search over all 2^3 tables finds {x1} vs {x2, x3}
        enc = build_classical_hash([0.5, 0.25, 0.25], 2, eps=0.0, seed=0)
        assert enc.defect == pytest.approx(0.0, abs=1e-12)
        assert enc.error_prob == pytest.approx(0.0, abs=1e-12)
        assert {tuple(np.sort(enc.f))} == {(0, 1, 1)} or tuple(enc.f) == (0, 1, 1)

    def test_single_message(self):
        enc = build_classical_hash([0.7, 0.3], 1, eps=0.0, seed=0)
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
        enc = build_classical_hash([1.0, 0.0], 2, eps=0.01, seed=0)
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
            h = renyi_entropy([np.diag(p)])
            bound = sup_over_order(lambda a: h(a) - (4.0 / a) * math.log2(2.0 / eps), batch=1)[0].value
            m = max(1, int(math.floor(2.0**bound)))
            trials += 1
            enc = build_classical_hash(p, m, eps, seed=int(rng.integers(1 << 31)))
            hits += enc.defect <= eps
        assert hits / trials >= 0.95


def loop_encoder(f, p, m):
    """The encoder of one table, scored one preimage at a time: the
    reference for the batched score."""
    p = as_pmf(p)
    f = np.asarray(f, dtype=int)
    preimages = f == np.arange(m)[:, None]
    cond = np.zeros(preimages.shape)
    p_w = np.array([p[pre].sum() for pre in preimages])
    px_fallback = False
    for w, pre in enumerate(preimages):
        if p_w[w] > 0.0:
            cond[w, pre] = p[pre] / p_w[w]
        elif pre.any():
            cond[w, pre] = 1.0 / pre.sum()
        else:
            cond[w] = p
            px_fallback = True
    defect = float(np.abs(cond.mean(axis=0) - p).sum())
    error = float((cond * ~preimages).sum() / m)
    output_defect = float(np.abs(p_w - 1.0 / m).sum())
    return hashing.HashEncoder(f, cond, defect, output_defect, error, warning=False, px_fallback=px_fallback)


def loop_search(p, m, eps, objectives=("marginal", "output")):
    """The exhaustive search as a loop: every table of itertools.product
    scored by loop_encoder, kept on a strict < of (max, lead, error),
    stopped at an exact-zero lead key.  One pass serves every objective."""
    p = as_pmf(p)
    best = {}
    for table in itertools.product(range(m), repeat=p.size):
        live = [o for o in objectives if o not in best or best[o][0][0] != 0.0]
        if not live:
            break
        enc = loop_encoder(table, p, m)
        for o in live:
            lead = enc.defect if o == "marginal" else enc.output_defect
            key = (max(lead, enc.error_prob), lead, enc.error_prob)
            if o not in best or key < best[o][0]:
                best[o] = (key, enc)
    return {o: dataclasses.replace(enc, warning=True) if key[0] > eps else enc for o, (key, enc) in best.items()}


def zero_entries(nx, seed):
    p = np.random.default_rng(seed).dirichlet(np.ones(nx))
    p[1::2] = 0.0
    return p / p.sum()


def product_spectrum(q, n):
    """The descending spectrum of n copies of diag(q, 1 - q): degenerate, as
    the spectrum of a product state is."""
    return np.sort(functools.reduce(np.kron, [np.array([q, 1.0 - q])] * n))[::-1]


CASES = {
    "random-8x3": (np.random.default_rng(20).dirichlet(np.ones(8)), 3, 0.1),
    "random-4x8": (np.random.default_rng(21).dirichlet(np.ones(4)), 8, 0.1),
    "random-6x4": (np.random.default_rng(22).dirichlet(np.ones(6)), 4, 0.3),
    "random-16x2": (np.random.default_rng(23).dirichlet(np.ones(16)), 2, 0.01),
    "uniform-6x4": (np.full(6, 1.0 / 6.0), 4, 0.1),
    "zeros-6x4": (zero_entries(6, 24), 4, 0.1),
    "zeros-4x8": (zero_entries(4, 25), 8, 0.1),
    "exact-zero-8x2": (np.full(8, 0.125), 2, 0.0),
    "exact-zero-3x2": (np.array([0.5, 0.25, 0.25]), 2, 0.0),
    # decimal weights: keys that tie in exact arithmetic differ in the last
    # bits, and the batch and the loop round them in different orders
    "decimal-10x2": (np.array([0.0, 0.0, 0.0, 0.3, 0.0, 0.03, 0.09, 0.3, 0.0, 0.28]), 2, 0.1),
    "product-8x3": (product_spectrum(0.8, 3), 3, 0.1),
    "product-4x8": (product_spectrum(0.8, 2), 8, 0.1),
}


@functools.lru_cache(maxsize=None)
def loop_result(name):
    return loop_search(*CASES[name])


class TestExhaustiveSearchBitForBit:
    """The batched exhaustive search returns the loop's encoder exactly (==)."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_loop(self, name):
        p, m, eps = CASES[name]
        for objective, ref in loop_result(name).items():
            got = build_classical_hash(p, m, eps, seed=0, objective=objective)
            assert np.array_equal(got.f, ref.f) and got.f.dtype == ref.f.dtype
            assert got.defect == ref.defect
            assert got.output_defect == ref.output_defect
            assert got.error_prob == ref.error_prob
            assert got.warning == ref.warning
            assert got.px_fallback == ref.px_fallback

    def test_cases_reach_every_branch(self):
        # P_X fallback rows, missed targets, and exact-zero keys that stop the search early
        found = [enc for name in CASES for enc in loop_result(name).values()]
        assert any(enc.px_fallback for enc in found) and any(enc.warning for enc in found)
        for enc in loop_result("exact-zero-8x2").values():
            assert enc.defect == enc.output_defect == enc.error_prob == 0.0

    def test_builds_one_encoder(self, monkeypatch):
        calls = []
        score = hashing.encoder_from_hash
        monkeypatch.setattr(hashing, "encoder_from_hash", lambda *args: calls.append(1) or score(*args))
        for name in ("random-8x3", "random-4x8", "exact-zero-8x2"):
            calls.clear()
            build_classical_hash(*CASES[name], seed=0)
            assert len(calls) == 1

    def test_stops_after_the_chunk_with_a_zero_key(self, monkeypatch):
        # 70 balanced tables tie at an exact-zero key; the first, 00001111 =
        # table 15, lies in the first chunk of 16 tables
        chunks = []
        score = hashing._score
        monkeypatch.setattr(hashing, "_score", lambda p, m, tables, output: chunks.append(len(tables)) or score(p, m, tables, output))
        monkeypatch.setattr(hashing, "CHUNK_BYTES", 8 * 2 * 8 * 16)
        enc = build_classical_hash(*CASES["exact-zero-8x2"], seed=0)
        assert tuple(enc.f) == (0, 0, 0, 0, 1, 1, 1, 1)
        assert chunks == [16, 1]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_table_does_not_depend_on_the_chunk_size(self, monkeypatch, name):
        # one table per chunk, 7 (a count no power of M divides, so chunks
        # start inside the runs of every column) and the whole space in one
        # chunk; the 65,536 one- and 9,363 seven-table chunks of random-16x2
        # would take about 10 s, so it runs whole only (its 128 default
        # chunks are test_matches_loop's)
        p, m, eps = CASES[name]
        sizes = (m**p.size,) if name == "random-16x2" else (1, 7, m**p.size)
        for objective, ref in loop_result(name).items():
            for tables_per_chunk in sizes:
                monkeypatch.setattr(hashing, "CHUNK_BYTES", 8 * m * p.size * tables_per_chunk)
                got = build_classical_hash(p, m, eps, seed=0, objective=objective)
                assert np.array_equal(got.f, ref.f) and np.array_equal(got.cond, ref.cond)
                for field in ("defect", "output_defect", "error_prob", "warning", "px_fallback"):
                    assert getattr(got, field) == getattr(ref, field)

    def test_peak_memory_is_one_chunk(self):
        # all 65,536 tables of (|X|, M) = (16, 2) are scored: no zero key
        p = np.random.default_rng(23).dirichlet(np.ones(16))
        tracemalloc.start()
        try:
            build_classical_hash(p, 2, 0.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (tables, M, |X|) array of all 65,536 tables is 16 MiB
        assert peak < 2**20


def loop_random_search(p, m, eps, seed, objective):
    """The random search as a loop: ATTEMPTS tables drawn one call each,
    scored by loop_encoder, kept on a strict < of (max, lead, error), stopped
    at the first key that meets eps.  Also returns the last index scanned."""
    p = as_pmf(p)
    rng = np.random.default_rng(seed)
    best_key = None
    for i in range(hashing.ATTEMPTS):
        enc = loop_encoder(rng.integers(0, m, size=p.size), p, m)
        lead = enc.defect if objective == "marginal" else enc.output_defect
        key = (max(lead, enc.error_prob), lead, enc.error_prob)
        if best_key is None or key < best_key:
            best, best_key = enc, key
        if best_key[0] <= eps:
            break
    return (dataclasses.replace(best, warning=True) if best_key[0] > eps else best), i


RANDOM_CASES = [
    (np.random.default_rng(17).dirichlet(np.ones(17)), 2, 0.05),
    (np.random.default_rng(24).dirichlet(np.ones(24)), 3, 0.05),
    (np.random.default_rng(24).dirichlet(np.ones(24)), 3, 0.1),
    (np.random.default_rng(40).dirichlet(np.ones(40)), 4, 0.1),
    (np.random.default_rng(40).dirichlet(np.ones(40)), 4, 0.2),
    (np.random.default_rng(64).dirichlet(np.ones(64)), 2, 0.0),
    (zero_entries(20, 26), 3, 0.1),
    # M > |X|: every table has empty preimages, so P_X fallback rows
    (np.random.default_rng(27).dirichlet(np.ones(5)), 10, 0.5),
]


class TestRandomSearchBitForBit:
    """The chunked random search returns the per-table loop's encoder (==)."""

    def test_matches_loop(self):
        stops = set()
        for p, m, eps in RANDOM_CASES:
            assert m ** p.size > hashing.EXHAUSTIVE_LIMIT
            for seed in (1, 2):
                for objective in ("marginal", "output"):
                    ref, stop = loop_random_search(p, m, eps, seed, objective)
                    stops.add(stop)
                    got = build_classical_hash(p, m, eps, seed=seed, objective=objective)
                    assert np.array_equal(got.f, ref.f) and got.f.dtype == ref.f.dtype
                    assert np.array_equal(got.cond, ref.cond)
                    for field in ("defect", "output_defect", "error_prob", "warning", "px_fallback"):
                        assert getattr(got, field) == getattr(ref, field)
        # scans that end at the first table, inside a later chunk, and never
        assert {0, 63} <= stops and len(stops - {0, 63}) >= 3

    def test_fixed_chunks_and_one_encoder(self, monkeypatch):
        chunks, calls = [], []
        score, build = hashing._score, hashing.encoder_from_hash
        monkeypatch.setattr(hashing, "_score", lambda p, m, tables, output: chunks.append(len(tables)) or score(p, m, tables, output))
        monkeypatch.setattr(hashing, "encoder_from_hash", lambda *args: calls.append(1) or build(*args))
        p, m, _ = RANDOM_CASES[0]
        # all 64 tables fit one chunk; the last score is the winner's encoder
        build_classical_hash(p, m, 0.0, seed=1)
        assert chunks == [64, 1] and len(calls) == 1
        monkeypatch.setattr(hashing, "CHUNK_BYTES", 8 * m * p.size * 3)
        chunks.clear()
        build_classical_hash(p, m, 0.0, seed=1)
        assert chunks == [3] * 21 + [1, 1] and len(calls) == 2
        # the loop stops at table 8, in the third chunk (tables 6 to 8)
        assert loop_random_search(p, m, 0.05, 1, "marginal")[1] == 8
        chunks.clear()
        build_classical_hash(p, m, 0.05, seed=1)
        assert chunks == [3, 3, 3, 1] and len(calls) == 3

    def test_table_does_not_depend_on_the_chunk_size(self, monkeypatch):
        for p, m, eps in RANDOM_CASES:
            for seed in (1, 2):
                for objective in ("marginal", "output"):
                    got = []
                    for tables_per_chunk in (1, hashing.ATTEMPTS):
                        monkeypatch.setattr(hashing, "CHUNK_BYTES", 8 * m * p.size * tables_per_chunk)
                        got.append(build_classical_hash(p, m, eps, seed=seed, objective=objective))
                    one, every = got
                    assert np.array_equal(one.f, every.f) and np.array_equal(one.cond, every.cond)
                    for field in ("defect", "output_defect", "error_prob", "warning", "px_fallback"):
                        assert getattr(one, field) == getattr(every, field)


def assert_scores_match_loop(p, m, tables):
    """The batched keys of every table equal loop_encoder's (==), and so do
    encoder_from_hash's keys and conditional, the batch of one."""
    p = as_pmf(p)
    defect, output_defect, error = hashing._score(p, m, np.asarray(tables), True)
    for i, table in enumerate(tables):
        ref = loop_encoder(table, p, m)
        assert (defect[i], output_defect[i], error[i]) == (ref.defect, ref.output_defect, ref.error_prob)
        one = encoder_from_hash(table, p, m)
        assert np.array_equal(one.cond, ref.cond)
        assert (one.defect, one.output_defect, one.error_prob) == (ref.defect, ref.output_defect, ref.error_prob)
        assert one.px_fallback == ref.px_fallback


class TestBatchedScoreBitForBit:
    """hashing._score gives each table the bits of the per-table arithmetic."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pmfs_and_tables(self, seed):
        rng = np.random.default_rng(100 + seed)
        for nx, m in ((3, 2), (5, 3), (8, 4), (10, 3), (16, 2), (4, 8), (6, 5)):
            p = rng.dirichlet(np.full(nx, rng.choice([0.2, 1.0, 5.0])))
            assert_scores_match_loop(p, m, rng.integers(0, m, size=(60, nx)))

    def test_pmfs_with_zero_entries(self):
        # preimages of zero mass give uniform rows
        rng = np.random.default_rng(7)
        for nx, m in ((6, 4), (9, 3), (16, 2)):
            assert_scores_match_loop(zero_entries(nx, nx), m, rng.integers(0, m, size=(60, nx)))
        p = np.array([0.0, 0.0, 0.5, 0.5])
        assert_scores_match_loop(p, 2, [[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 0, 0]])

    @pytest.mark.parametrize("nx,m", [(8, 3), (4, 8)])
    def test_every_table(self, nx, m):
        # the whole space at both hash-search sizes, on a spectrum with
        # repeated entries and on a PMF with zero entries; encoder_from_hash is
        # checked on the sampled tables of the tests around
        tables = np.array(list(itertools.product(range(m), repeat=nx)))
        for p in (product_spectrum(0.8, nx.bit_length() - 1), zero_entries(nx, nx)):
            refs = [loop_encoder(table, p, m) for table in tables]
            for got, field in zip(hashing._score(p, m, tables, True), ("defect", "output_defect", "error_prob")):
                assert got.tolist() == [getattr(ref, field) for ref in refs]

    def test_fallback_rows(self):
        # M > |X| leaves preimages empty; a constant table leaves all but one
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(5))
        tables = [[0] * 5, [3] * 5, [0, 1, 2, 3, 4], [6, 6, 0, 0, 6]]
        assert_scores_match_loop(p, 7, tables + list(rng.integers(0, 7, size=(40, 5))))
        assert encoder_from_hash(np.zeros(5, dtype=int), p, 7).px_fallback

    @pytest.mark.parametrize("size", [0, 7, 8, 9, 16])
    def test_preimage_sizes(self, size):
        # numpy sums 7 entries left to right, 8 and more pairwise: one
        # preimage of each size, the rest spread over the other messages
        rng = np.random.default_rng(size)
        nx, m = 16, 3
        tables = []
        for _ in range(40):
            table = rng.integers(1, m, size=nx)
            table[rng.permutation(nx)[:size]] = 0
            tables.append(table)
        for p in (rng.dirichlet(np.ones(nx)), rng.dirichlet(np.full(nx, 0.1)), zero_entries(nx, size)):
            assert_scores_match_loop(p, m, tables)

    def test_rejects_tables_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            encoder_from_hash(np.array([0, 2]), [0.5, 0.5], 2)
        with pytest.raises(ValueError, match="range"):
            encoder_from_hash(np.array([0, 1, 1]), [0.5, 0.5], 2)


def whole_tensor_hash(rho, m, eps, seed):
    """g(w) and Lambda^w from the d x d x d tensor of every eigenbasis
    projector at once: the reference for the row-block build."""
    w, v = np.linalg.eigh(rho.data)
    order = np.argsort(w)[::-1]
    lam, basis = np.maximum(w[order], 0.0), v[:, order]
    enc = build_classical_hash(lam / lam.sum(), m, eps, seed=seed)
    projectors = np.einsum("ix,jx->xij", basis, basis.conj())
    states = [np.tensordot(enc.cond[k], projectors, axes=(0, 0)) for k in range(m)]
    elements = [
        projectors[enc.f == k].sum(axis=0) if (enc.f == k).any() else np.zeros_like(rho.data)
        for k in range(m)
    ]
    return states, elements


def assert_streamed_bits(dim, m):
    """build_quantum_hash returns the whole-tensor states and POVM elements
    bit for bit, on a random state."""
    rng = np.random.default_rng(dim * 100 + m)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = g @ g.conj().T
    rho = DensityMatrix(a / np.trace(a))
    code = build_quantum_hash(rho, m, 1.0, seed=m)
    states, elements = whole_tensor_hash(rho, m, 1.0, m)
    got = [s.data for s in code.states] + list(code.povm.elements)
    for x, y in zip(got, states + elements, strict=True):
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
    # M > d leaves some preimages empty: their POVM elements are zero
    assert (m > dim) == any(not e.any() for e in code.povm.elements)


class TestQuantumHash:
    def test_maximally_mixed_split(self):
        code = build_quantum_hash(DensityMatrix(np.eye(2) / 2), 2, eps=0.0, seed=0)
        assert code.defect == pytest.approx(0.0, abs=1e-12)
        assert code.success == pytest.approx(1.0, abs=1e-12)
        ordered = sorted(code.states, key=lambda s: s.data[0, 0].real, reverse=True)
        assert np.allclose(ordered[0].data, np.diag([1, 0]), atol=1e-12)
        assert np.allclose(ordered[1].data, np.diag([0, 1]), atol=1e-12)

    def test_pure_state_single_message(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        code = build_quantum_hash(rho, 1, eps=0.0, seed=0)
        assert np.allclose(code.states[0].data, rho.data)
        assert code.success == pytest.approx(1.0)

    def test_three_level_partition(self):
        rho = DensityMatrix(np.diag([0.5, 0.25, 0.25]).astype(complex))
        code = build_quantum_hash(rho, 2, eps=0.0, seed=0)
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

    # blocks of rows, each a multiple of 8 // gcd(d, 8) high but the last:
    # 3,3,2 | 5,5,5,1 | 12,8 | 6,6,6,6,6,2 | 28,28,28,12 (the default at d = 96)
    @pytest.mark.parametrize("dim,rows", [(8, 3), (16, 5), (20, 13), (32, 6), (96, 28)])
    def test_matches_whole_tensor_bitwise(self, monkeypatch, dim, rows):
        monkeypatch.setattr(hashing, "ROW_BYTES", 16 * dim * dim * rows)
        for m in (3, dim + 3):
            assert_streamed_bits(dim, m)

    def test_odd_dimension_matches_on_one_blas_thread(self):
        # blocks of 8,8,8,7 rows.  At odd d the whole-tensor build's own last
        # bits depend on the BLAS thread count (OpenBLAS splits the d^2
        # outputs of its gemv between threads in the middle of a vector
        # chunk), so the comparison runs on one thread
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), str(root), env.get("PYTHONPATH")]))
        child = (
            "from qstego import hashing\n"
            "from tests.test_hashing import assert_streamed_bits\n"
            "hashing.ROW_BYTES = 16 * 31 * 31 * 3\n"
            "assert_streamed_bits(31, 3)\n"
            "assert_streamed_bits(31, 34)\n"
        )
        cp = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
        assert cp.returncode == 0, cp.stdout + cp.stderr

    # one block (8, 64), a partial last block (96: 28,28,28,12), 64 blocks (256)
    @pytest.mark.parametrize("dim", [8, 64, 96, 256])
    def test_out_holds_the_elements_with_the_same_bits(self, dim):
        rng = np.random.default_rng(dim)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = g @ g.conj().T
        rho = DensityMatrix(a / np.trace(a))
        code = build_quantum_hash(rho, 4, 0.1, seed=2)
        out = np.empty((4, dim, dim), dtype=complex)
        into = build_quantum_hash(rho, 4, 0.1, seed=2, out=out)
        assert into.povm.elements is out
        assert out.tobytes() == code.povm.elements.tobytes()
        for x, y in zip(into.states, code.states, strict=True):
            assert x.data.tobytes() == y.data.tobytes()

    def test_peak_memory_is_outputs_plus_one_block(self):
        p = np.linspace(1.0, 2.0, 256)
        rho = DensityMatrix(np.diag(p / p.sum()).astype(complex))
        tracemalloc.start()
        try:
            build_quantum_hash(rho, 4, 0.1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 8 MiB of outputs and a 4 MiB block; the d x d x d tensor is 256 MiB
        assert peak < 32 * 2**20
