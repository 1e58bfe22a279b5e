"""Stego entanglement sharing on a split classical-communication cover.

Block 1 of the cover encoder is replaced by a purification of its degraded
output: sending the system half over the noiseless true channel leaves Alice
and Bob sharing that purification, which an entanglement-distillation oracle
converts into Phi^(M_bar).  The oracle's classical message C rides on block 2
through the noiseless stego-CC construction, one-time padded with the shared
key S1.
"""

from __future__ import annotations

import math

import numpy as np

from ..channels import QuantumChannel, apply, identity_channel, tensor
from ..hashing import build_quantum_hash
from ..info import renyi_entropy, sup_over_order
from ..linalg import (
    DensityMatrix,
    HermitianOperator,
    Povm,
    maximally_entangled,
    partial_trace_matrix,
    permute_systems_matrix,
    psd_sqrt,
    purify,
    schmidt_decompose,
    trace_norm,
)
from .codes import CcCode, EdCode, StegoCcEsCode

PURITY_TOL = 1e-9


def trivial_aligner_distiller(rho_ab: DensityMatrix, dims, m: int, l: int, eps: float):
    """Distiller that succeeds only on states already maximally entangled up
    to local bases.

    For m >= 2 the shared state must be pure with its top-m Schmidt weights
    within eps/(4m) of 1/m; the returned code is then a pair of local
    basis changes (classical register C fixed to |0> of dimension l).  m = 1
    always succeeds: sharing the one-dimensional state is vacuous.
    """
    da, db = dims
    if da * db != rho_ab.dim:
        raise ValueError("shape error: dims do not match the shared state")
    if m < 1 or l < 1:
        raise ValueError("bad parameter: M and L must be >= 1")

    def unit_column(k, n):
        v = np.zeros((n, 1), dtype=complex)
        v[k, 0] = 1.0
        return v

    if m == 1:
        enc = QuantumChannel(
            tuple(np.kron(unit_column(0, l), np.eye(da)[j : j + 1, :]) for j in range(da))
        )
        dec = QuantumChannel(tuple(np.eye(l * db)[j : j + 1, :] for j in range(l * db)))
        return EdCode(m=1, l=l, encode=enc, decode=dec, distance=0.0)

    w, v = np.linalg.eigh(rho_ab.data)
    if w[-1] < 1.0 - PURITY_TOL:
        return None
    probs, alphas, betas = schmidt_decompose(v[:, -1], da, db)
    if probs.size < m or np.max(np.abs(probs[:m] - 1.0 / m)) > eps / (4 * m):
        return None

    t_a = alphas[:, :m].conj().T  # m x da, rows <alpha_i|
    t_b = betas[:, :m].conj().T
    enc_kraus = [np.kron(unit_column(0, l), t_a)]
    for extra in _orthocomplement(alphas[:, :m]):
        enc_kraus.append(np.kron(unit_column(0, l), unit_column(0, m) @ extra.conj().reshape(1, -1)))
    encode = QuantumChannel(tuple(enc_kraus))

    dec_kraus = [np.kron(np.eye(l)[0:1, :], t_b)]
    for extra in _orthocomplement(betas[:, :m]):
        dec_kraus.append(np.kron(np.eye(l)[0:1, :], unit_column(0, m) @ extra.conj().reshape(1, -1)))
    for c in range(1, l):
        for j in range(db):
            dec_kraus.append(
                unit_column(0, m) @ np.kron(np.eye(l)[c : c + 1, :], np.eye(db)[j : j + 1, :])
            )
    decode = QuantumChannel(tuple(dec_kraus))

    joint = apply(tensor(encode, identity_channel(db)), rho_ab)  # [C, A~, B]
    reordered = permute_systems_matrix(joint.data, [l, m, db], [1, 0, 2])  # [A~, C, B]
    final = apply(tensor(identity_channel(m), decode), DensityMatrix(reordered))
    distance = trace_norm(final.data - maximally_entangled(m).to_density().data)
    return EdCode(m=m, l=l, encode=encode, decode=decode, distance=distance)


def _orthocomplement(columns: np.ndarray):
    """Orthonormal basis of the orthocomplement of the given column span."""
    d, k = columns.shape
    if k >= d:
        return []
    proj = np.eye(d) - columns @ columns.conj().T
    w, v = np.linalg.eigh(proj)
    return [v[:, i] for i in range(d) if w[i] > 0.5]


def eq1_cypher_count(targets, zeta: float) -> int:
    """Floor of 2^rate for the noiseless cypher-rate expression on a block."""
    best = None
    for t in targets:
        res = sup_over_order(
            lambda a: renyi_entropy(t, a) - (4.0 / a) * math.log2(2.0 / zeta)
        )
        best = res.value if best is None else min(best, res.value)
    if best is None or best <= 0.0:
        return 1
    return max(1, int(math.floor(2.0**best)))


def build_stego_cc_es(
    cover: CcCode,
    f1,
    f2,
    n1: int,
    n2: int,
    m1: QuantumChannel,
    m2: QuantumChannel,
    distiller,
    zeta: float,
    seed=None,
    mbar: int | None = None,
    mcc: int | None = None,
) -> StegoCcEsCode:
    """Stego entanglement sharing on a split CC cover: entanglement rides on block 1, the
    distiller's classical message rides on block 2 under a one-time pad.

    ``f1``/``f2`` are the declared factor encoders (validated against the
    cover's codewords); ``m1``/``m2`` the degradation channels per block.
    ``mbar`` defaults to the largest size the distiller accepts for every
    cover message; ``mcc`` defaults to the block-2 cypher-rate formula.
    Raises ValueError("distillation infeasible at requested M_bar") when the
    oracle declines.
    """
    d1n = m1.dim_in
    d2n = m2.dim_in
    for w in range(cover.m):
        if trace_norm(cover.codewords[w].data - np.kron(f1[w].data, f2[w].data)) > 1e-10:
            raise ValueError("shape error: cover encoder does not factor as f1 (x) f2")

    targets2 = [apply(m2, s) for s in f2]
    if mcc is None:
        mcc = eq1_cypher_count(targets2, zeta)

    rho1 = [apply(m1, s) for s in f1]
    purifications = [purify(r) for r in rho1]
    shared = [p.to_density() for p in purifications]

    def distill_all(m_try: int):
        out = []
        for st in shared:
            ed = distiller(st, (d1n, d1n), m_try, mcc, zeta)
            if ed is None:
                return None
            out.append(ed)
        return out

    if mbar is None:
        ed_codes = None
        for m_try in range(d1n, 0, -1):
            ed_codes = distill_all(m_try)
            if ed_codes is not None:
                mbar = m_try
                break
    else:
        ed_codes = distill_all(mbar)
    if ed_codes is None:
        raise ValueError("distillation infeasible at requested M_bar")

    rng = np.random.default_rng(seed)
    hashes = [
        build_quantum_hash(targets2[w], mcc, zeta, seed=int(rng.integers(1 << 31)))
        for w in range(cover.m)
    ]

    # nested POVM: cover measurement, then the block-2 hash measurement
    sqrt_cover = [psd_sqrt(e.data) for e in cover.povm.elements]
    povm_elements = []
    for w in range(cover.m):
        for gam in hashes[w].povm.elements:
            e = sqrt_cover[w] @ np.kron(np.eye(d1n), gam.data) @ sqrt_cover[w]
            povm_elements.append(HermitianOperator((e + e.conj().T) / 2))
    povm = Povm(tuple(povm_elements))

    # full protocol audit
    final = np.zeros((mbar * mbar, mbar * mbar), dtype=complex)
    reliability = 0.0
    stego_mix = np.zeros((d1n * d2n, d1n * d2n), dtype=complex)
    cover_mix = np.zeros_like(stego_mix)
    sqrt_elements = [psd_sqrt(e.data) for e in povm_elements]
    for w in range(cover.m):
        ed = ed_codes[w]
        joint = apply(tensor(ed.encode, identity_channel(d1n)), shared[w])  # [C, A~, B1]
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
                weight = p_c / (cover.m * mcc)
                for wp in range(cover.m):
                    for wbp in range(mcc):
                        root = sqrt_elements[wp * mcc + wbp]
                        sandwich = np.kron(np.eye(mbar), root) @ sent @ np.kron(
                            np.eye(mbar), root
                        )
                        post = partial_trace_matrix(
                            sandwich, [mbar, d1n, d2n], keep=[0, 1]
                        )
                        if wp == w and wbp == wbar_sent:
                            reliability += weight * float(np.trace(post).real)
                        c_hat = (wbp - s1) % mcc
                        sel = np.zeros((mcc, 1), dtype=complex)
                        sel[c_hat, 0] = 1.0
                        dec_kraus = [
                            k @ np.kron(sel, np.eye(d1n)) for k in ed_codes[wp].decode.kraus
                        ]
                        for k in dec_kraus:
                            lifted = np.kron(np.eye(mbar), k)
                            final += weight * (lifted @ post @ lifted.conj().T)
    final_state = DensityMatrix((final + final.conj().T) / 2)
    ent_distance = trace_norm(
        final_state.data - maximally_entangled(mbar).to_density().data
    )
    distance = trace_norm((stego_mix - cover_mix) / cover.m)

    return StegoCcEsCode(
        mbar=mbar,
        mcc=mcc,
        n1=n1,
        n2=n2,
        ed_codes=tuple(ed_codes),
        hashes=tuple(hashes),
        povms=(povm,),
        classical_reliability=reliability,
        entanglement_distance=ent_distance,
        distance=distance,
        key_bits=math.log2(mcc),
        eps_cover=cover.epsilon,
        warning=any(h.warning for h in hashes),
    )
