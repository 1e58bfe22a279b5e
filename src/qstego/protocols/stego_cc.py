"""Stego classical-communication builders on a CC cover.

Noiseless true channel: each cover output is hashed into M_bar messages via
the quantum privacy-amplification code; the stego POVM nests the per-message
hash measurement inside the cover measurement as sqrt(L^w) G_w sqrt(L^w).

Noisy true channel: per cover message, K_bar keyed resolvability codebooks
of M_bar codewords over a caller-supplied side ensemble replace the hash.

Both builders hand their encoders and nested POVMs to one assembly step that
audits them and returns the :class:`StegoCcCode`.
"""

from __future__ import annotations

import math

import numpy as np

from ..channels import QuantumChannel, kraus_terms
from ..hashing import build_quantum_hash
from ..info import CqState, Pmf
from ..linalg import DensityMatrix, Povm, psd_sqrt, trace_norm
from .codes import CcCode, StegoCcCode
from .resolvability import build_resolvability_codes, output_cq


def _nested_povm(cover_povm: Povm, inner: np.ndarray) -> Povm:
    """{ sqrt(Lambda^w) Gamma_w^i sqrt(Lambda^w) } over all (w, i), written
    over ``inner``, the (M, k, d, d) stack of the Gamma_w^i.

    Each element is multiplied and symmetrized in its own slot, so the stack
    is the only (M, k, d, d) array; the root of Lambda^w is taken just before
    w's slots are nested and dropped before the POVM checks run, which check
    the whole stack once.
    """
    for w, slots in enumerate(inner):
        root = psd_sqrt(cover_povm[w])
        for e in slots:
            np.matmul(root @ e, root, out=e)
            # (e + e^H) / 2; the conjugate is a copy, so e may be the output
            e += e.conj().T
            e /= 2
    del root
    return Povm(inner.reshape(-1, *inner.shape[2:]))


def _assemble(cover, encoders, povms, outputs, per_w_defect, per_w_success, warning):
    """The :class:`StegoCcCode` of the assembled artifacts, every achieved
    metric recomputed from them; ``encoders`` holds K keys of M M_bar states
    and ``outputs``, key by key, each of them through the true channel.

    zeta_ach is the largest max(defect, 1 - success) over the inner codes.
    The per-message decode probability of w sums tr(Gamma g) over the keys
    and then w's M_bar messages, in that order, and divides by K M_bar.
    """
    zeta_ach = max(max(defect, 1.0 - success) for defect, success in zip(per_w_defect, per_w_success))
    kbar, mbar = len(encoders), len(encoders[0]) // cover.m
    targets = cover.outputs
    m = len(targets)
    dim = targets[0].dim
    per_w_distance = []
    overall = np.zeros((dim, dim), dtype=complex)
    cover_mix = np.zeros((dim, dim), dtype=complex)
    decode = 0.0
    for w in range(m):
        block = np.zeros((dim, dim), dtype=complex)
        for s in range(kbar):
            for wbar in range(mbar):
                block += outputs[s][w * mbar + wbar].data
        block /= kbar * mbar
        per_w_distance.append(trace_norm(block - targets[w].data))
        overall += block
        cover_mix += targets[w].data
    traces = [
        [float(np.trace(povms[s][idx] @ out.data).real) for idx, out in enumerate(outputs[s])]
        for s in range(kbar)
    ]
    for per_key in traces:
        for t in per_key:
            decode += t
    decode /= kbar * m * mbar
    per_w_decode = tuple(
        sum(traces[s][w * mbar + wbar] for s in range(kbar) for wbar in range(mbar)) / (kbar * mbar)
        for w in range(m)
    )
    bound = 1.0 - zeta_ach - 2.0 * math.sqrt(max(zeta_ach + cover.epsilon, 0.0)) - 1e-6
    return StegoCcCode(
        m=cover.m,
        mbar=mbar,
        kbar=kbar,
        encoders=encoders,
        povms=povms,
        eps_cover=cover.epsilon,
        zeta_ach=zeta_ach,
        per_w_distance=tuple(per_w_distance),
        per_w_defect=per_w_defect,
        per_w_success=per_w_success,
        per_w_decode=per_w_decode,
        distance=trace_norm((overall - cover_mix) / m),
        decode_prob=decode,
        key_bits=math.log2(kbar),
        bound_ok=decode >= bound,
        warning=warning,
    )


def build_stego_cc_noiseless(
    cover: CcCode,
    mbar: int,
    zeta: float,
    seed: int,
) -> StegoCcCode:
    """Stego classical-communication code over a noiseless true channel.

    ``cover`` is a code for the warden's degraded channel (the full n-use
    map ``cover.channel``); its stored outputs are the hash targets.  Returns
    best-found artifacts with audited metrics; the ``warning`` flag is set
    when some per-message hash missed the zeta target.
    """
    rng = np.random.default_rng(seed)
    dim = cover.outputs[0].dim
    # each hash writes its POVM into its slots, which are then nested in place
    stack = np.empty((cover.m, mbar, dim, dim), dtype=complex)
    hashes = [
        build_quantum_hash(target, mbar, zeta, seed=int(rng.integers(1 << 31)), out=slots)
        for target, slots in zip(cover.outputs, stack)
    ]
    encoder = tuple(h.states[wbar] for h in hashes for wbar in range(mbar))
    per_w_defect = tuple(h.defect for h in hashes)
    per_w_success = tuple(h.success for h in hashes)
    warning = any(h.warning for h in hashes)
    del hashes  # their POVMs are the slots the nesting overwrites
    povm = _nested_povm(cover.povm, stack)
    # a noiseless true channel outputs each encoder state itself
    return _assemble(cover, (encoder,), (povm,), (encoder,), per_w_defect, per_w_success, warning)


def side_states_from_degradation(cover: CcCode, m: QuantumChannel) -> list[CqState]:
    """Canonical side ensembles: the Kraus decomposition of m applied to f(w).

    sigma^w_XA = sum_j P(j) |j><j| (x) F_j f(w) F_j† / P(j) with
    P(j) = tr(F_j f(w) F_j†); its A-marginal through any true channel N equals
    N(m(f(w))) exactly, so the marginal-consistency requirement holds whenever
    the cover channel is N o m.  The branches F_j f(w) F_j† are the terms of
    :func:`kraus_terms`: with the dense products' bits except, for a
    row-monomial m, maybe the sign of a zero entry, which nothing reads
    (every side state is read through a channel application).
    """
    out = []
    for c in cover.codewords:
        branches = list(kraus_terms(m.kraus, c.data))
        probs = np.array([max(np.trace(b).real, 0.0) for b in branches])
        keep = probs > 1e-14
        probs_kept = probs[keep] / probs[keep].sum()
        states = tuple(
            DensityMatrix(b / np.trace(b).real) for b, use in zip(branches, keep) if use
        )
        out.append(CqState(Pmf(probs_kept), states))
    return out


def build_stego_cc_noisy(
    cover: CcCode,
    n_true: QuantumChannel,
    side_states: list[CqState],
    mbar: int,
    kbar: int,
    xi: float,
    seed: int,
) -> StegoCcCode:
    """Stego classical-communication code over a noisy true channel.

    ``side_states`` are input-side cq states sigma^w_XA; their B-marginals
    through ``n_true`` must reproduce the cover outputs within 1e-8
    (ValueError("side-state mismatch") otherwise).  Per cover message,
    ``kbar`` keyed resolvability codebooks of ``mbar`` codewords are sampled;
    the ``warning`` flag is set when some codebook's distance exceeds ``xi``.
    """
    if len(side_states) != cover.m:
        raise ValueError("shape error: one side state per cover message required")
    rng = np.random.default_rng(seed)
    out_cqs = []
    for sigma, target in zip(side_states, cover.outputs):
        out_cqs.append(output_cq(sigma, n_true))
        if trace_norm(out_cqs[-1].marginal_b() - target.data) > 1e-8:
            raise ValueError("side-state mismatch")
    codes = [build_resolvability_codes(out_cq, mbar, kbar, [int(rng.integers(1 << 31))])[0] for out_cq in out_cqs]
    encoders, outputs = (
        tuple(tuple(cqs[w].states[i] for w, code in enumerate(codes) for i in code.codebooks[s]) for s in range(kbar))
        for cqs in (side_states, out_cqs)
    )
    povms = tuple(
        _nested_povm(cover.povm, np.array([code.decoders[s].elements for code in codes])) for s in range(kbar)
    )
    per_w_defect = tuple(code.distance for code in codes)
    per_w_success = tuple(code.reliability for code in codes)
    warning = any(defect > xi for defect in per_w_defect)
    return _assemble(cover, encoders, povms, outputs, per_w_defect, per_w_success, warning)
