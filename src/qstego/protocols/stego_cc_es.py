"""Stego entanglement sharing on a split classical-communication cover.

Block 1 of the cover encoder is replaced by a purification of its degraded
output: sending the system half over the noiseless true channel leaves Alice
and Bob sharing that pure state, which :func:`trivial_aligner_distiller`
converts into Phi^(M_bar).  The distiller's classical message C rides on
block 2 through the noiseless stego-CC construction, one-time padded with the
shared key S1.
"""

from __future__ import annotations

import math

import numpy as np

from ..channels import QuantumChannel, apply, identity_channel, tensor
from ..hashing import build_quantum_hash
from ..linalg import (
    DensityMatrix,
    PureState,
    maximally_entangled,
    partial_trace_matrix,
    psd_sqrt,
    purify,
    schmidt_decompose,
    trace_norm,
)
from ..rates import rate_cc_noiseless
from .codes import CcCode, EdCode, StegoCcEsCode
from .stego_cc import _nested_povm


def trivial_aligner_distiller(psi: PureState, m: int, l: int, eps: float):
    """Distiller for a pure state on two systems of one dimension that
    succeeds only when it is maximally entangled up to local bases.

    For m >= 2 the top-m Schmidt weights of ``psi`` must be within eps/(4m)
    of 1/m; the returned code is then a pair of local basis changes
    (classical register C fixed to |0> of dimension l), else None.  m = 1
    always succeeds: sharing the one-dimensional state is vacuous.  The code
    is not audited here: :func:`build_stego_cc_es` audits the whole protocol.
    """
    da = db = math.isqrt(psi.data.size)
    if da * db != psi.data.size:
        raise ValueError("shape error: the shared state is not on two equal systems")
    if m < 1 or l < 1:
        raise ValueError("bad parameter: M and L must be >= 1")
    # |0> of C, and |0> of the m-level output, where every input off the code goes
    c0 = np.eye(l, dtype=complex)[:, :1]
    onto0 = np.eye(m, dtype=complex)[:, :1]

    if m == 1:
        enc = QuantumChannel(tuple(np.kron(c0, np.eye(da)[j : j + 1, :]) for j in range(da)))
        dec = QuantumChannel(tuple(np.eye(l * db)[j : j + 1, :] for j in range(l * db)))
        return EdCode(encode=enc, decode=dec)

    probs, alphas, betas = schmidt_decompose(psi, da, db)
    if probs.size < m or np.max(np.abs(probs[:m] - 1.0 / m)) > eps / (4 * m):
        return None

    t_a = alphas[:, :m].conj().T  # m x da, rows <alpha_i|
    t_b = betas[:, :m].conj().T
    enc_kraus = [np.kron(c0, t_a)]
    for extra in _orthocomplement(alphas[:, :m]):
        enc_kraus.append(np.kron(c0, onto0 @ extra.conj().reshape(1, -1)))

    dec_kraus = [np.kron(np.eye(l)[0:1, :], t_b)]
    for extra in _orthocomplement(betas[:, :m]):
        dec_kraus.append(np.kron(np.eye(l)[0:1, :], onto0 @ extra.conj().reshape(1, -1)))
    # every input with C != 0 goes to |0>
    dec_kraus += [onto0 @ np.eye(l * db)[q : q + 1, :] for q in range(db, l * db)]
    return EdCode(encode=QuantumChannel(tuple(enc_kraus)), decode=QuantumChannel(tuple(dec_kraus)))


def _orthocomplement(columns: np.ndarray):
    """Orthonormal basis of the orthocomplement of the given column span."""
    d, k = columns.shape
    if k >= d:
        return []
    proj = np.eye(d) - columns @ columns.conj().T
    w, v = np.linalg.eigh(proj)
    return [v[:, i] for i in range(d) if w[i] > 0.5]


def build_stego_cc_es(
    f1,
    f2,
    m1: QuantumChannel,
    m2: QuantumChannel,
    povm,
    zeta: float,
    seed: int,
) -> StegoCcEsCode:
    """Stego entanglement sharing on a split CC cover: entanglement rides on block 1, the
    distiller's classical message rides on block 2 under a one-time pad.

    The cover is the :class:`CcCode` of the codewords f1[w] (x) f2[w] through
    the block degradations m1 (x) m2 with ``povm`` (as ``CcCode`` takes it).
    Each cover message's block-1 purification goes to
    :func:`trivial_aligner_distiller`.  M_bar is the largest size the
    distiller accepts for every cover message (M_bar = 1 always distills),
    and the cypher count is the block-2 noiseless message count of
    :func:`qstego.rates.rate_cc_noiseless`.
    """
    d1n = m1.dim_in
    d2n = m2.dim_in
    codewords = tuple(DensityMatrix(np.kron(a.data, b.data)) for a, b in zip(f1, f2, strict=True))
    cover = CcCode(codewords=codewords, povm=povm, channel=tensor(m1, m2))

    targets2 = [apply(m2, s) for s in f2]
    mcc = rate_cc_noiseless(targets2, zeta).message_count

    rho1 = [apply(m1, s) for s in f1]
    purifications = [purify(r) for r in rho1]
    for mbar in range(d1n, 0, -1):
        ed_codes = [trivial_aligner_distiller(p, mbar, mcc, zeta) for p in purifications]
        if all(ed is not None for ed in ed_codes):
            break

    rng = np.random.default_rng(seed)
    hashes = [
        build_quantum_hash(targets2[w], mcc, zeta, seed=int(rng.integers(1 << 31)))
        for w in range(cover.m)
    ]

    # nested POVM: cover measurement, then the block-2 hash measurement
    inner = np.array([[np.kron(np.eye(d1n), g) for g in h.povm.elements] for h in hashes])
    povm = _nested_povm(cover.povm, inner)

    # full protocol audit; each lifted root kron(I, sqrt(Gamma)) and each
    # decoder fed classical input c_hat (its Kraus operators lifted by
    # kron(I, .)) is formed once
    shared = [p.to_density() for p in purifications]
    eye = np.eye(mbar)
    lifted_roots = [np.kron(eye, psd_sqrt(e)) for e in povm.elements]
    sels = np.eye(mcc, dtype=complex)[..., None]  # column c_hat of I
    fed = [[[np.kron(eye, k @ np.kron(sel, np.eye(d1n))) for k in ed.decode.kraus] for sel in sels] for ed in ed_codes]
    final = np.zeros((mbar * mbar, mbar * mbar), dtype=complex)
    reliability = 0.0
    stego_mix = np.zeros((d1n * d2n, d1n * d2n), dtype=complex)
    cover_mix = np.zeros_like(stego_mix)
    for w in range(cover.m):
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
                weight = p_c / (cover.m * mcc)
                for wp in range(cover.m):
                    for wbp in range(mcc):
                        root = lifted_roots[wp * mcc + wbp]
                        post = partial_trace_matrix(root @ sent @ root, [mbar, d1n, d2n], keep=[0, 1])
                        if wp == w and wbp == wbar_sent:
                            reliability += weight * float(np.trace(post).real)
                        for lifted in fed[wp][(wbp - s1) % mcc]:
                            final += weight * (lifted @ post @ lifted.conj().T)
    final_state = DensityMatrix((final + final.conj().T) / 2)
    ent_distance = trace_norm(
        final_state.data - maximally_entangled(mbar).to_density().data
    )
    distance = trace_norm((stego_mix - cover_mix) / cover.m)

    return StegoCcEsCode(
        mbar=mbar,
        mcc=mcc,
        povm=povm,
        classical_reliability=reliability,
        entanglement_distance=ent_distance,
        distance=distance,
        key_bits=math.log2(mcc),
        eps_cover=cover.epsilon,
        warning=any(h.warning for h in hashes),
    )
