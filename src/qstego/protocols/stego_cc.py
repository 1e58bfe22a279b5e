"""Stego classical-communication builders on a CC cover.

Noiseless true channel: each cover output is hashed into M_bar messages via
the quantum privacy-amplification code; the stego POVM nests the per-message
hash measurement inside the cover measurement as sqrt(L^w) G_w sqrt(L^w).

Noisy true channel: per cover message, K_bar keyed resolvability codebooks
over a caller-supplied side ensemble replace the hash; blocks of mu_w
fine-grained codewords merge into each cypher message.
"""

from __future__ import annotations

import math

import numpy as np

from ..channels import QuantumChannel, apply
from ..hashing import build_quantum_hash
from ..info import CqState
from ..linalg import DensityMatrix, HermitianOperator, Povm, psd_sqrt, trace_norm
from .codes import CcCode, StegoCcCode
from .resolvability import build_resolvability_code, output_cq


def _nested_povm(cover_povm: Povm, inner_per_w) -> Povm:
    """{ sqrt(Lambda^w) Gamma_w^i sqrt(Lambda^w) } over all (w, i)."""
    elements = []
    for w, inner in enumerate(inner_per_w):
        root = psd_sqrt(cover_povm[w].data)
        for gamma in inner:
            e = root @ np.asarray(getattr(gamma, "data", gamma), dtype=complex) @ root
            elements.append(HermitianOperator((e + e.conj().T) / 2))
    return Povm(tuple(elements))


def _audit(encoders, povms, targets, true_channel, eps_cover, zeta_ach, mbar):
    """Recompute all achieved metrics from the assembled artifacts."""
    kbar = len(encoders)
    m = len(targets)
    dim = targets[0].dim
    per_w_distance = []
    overall = np.zeros((dim, dim), dtype=complex)
    cover_mix = np.zeros((dim, dim), dtype=complex)
    decode = 0.0
    outputs = [
        [apply(true_channel, state) if true_channel is not None else state for state in enc]
        for enc in encoders
    ]
    for w in range(m):
        block = np.zeros((dim, dim), dtype=complex)
        for s in range(kbar):
            for wbar in range(mbar):
                block += outputs[s][w * mbar + wbar].data
        block /= kbar * mbar
        per_w_distance.append(trace_norm(block - targets[w].data))
        overall += block
        cover_mix += targets[w].data
    for s in range(kbar):
        for idx, out in enumerate(outputs[s]):
            decode += float(np.trace(povms[s][idx].data @ out.data).real)
    decode /= kbar * m * mbar
    distance = trace_norm((overall - cover_mix) / m)
    bound = 1.0 - zeta_ach - 2.0 * math.sqrt(max(zeta_ach + eps_cover, 0.0)) - 1e-6
    return per_w_distance, distance, decode, decode >= bound


def build_stego_cc_noiseless(
    cover: CcCode,
    m: QuantumChannel,
    mbar: int,
    zeta: float,
    seed=None,
) -> StegoCcCode:
    """Stego classical-communication code over a noiseless true channel.

    ``cover`` must be a code for the warden's degraded channel ``m`` (the
    full n-use map).  Returns best-found artifacts with audited metrics; the
    ``warning`` flag is set when some per-message hash missed the zeta target.
    """
    if mbar < 1:
        raise ValueError("bad parameter: M_bar must be >= 1")
    rng = np.random.default_rng(seed)
    targets = [apply(m, c) for c in cover.codewords]
    hashes = []
    for w in range(cover.m):
        child = int(rng.integers(1 << 31))
        hashes.append(build_quantum_hash(targets[w], mbar, zeta, seed=child))
    encoder = tuple(h.states[wbar] for h in hashes for wbar in range(mbar))
    povm = _nested_povm(cover.povm, [h.povm.elements for h in hashes])
    zeta_ach = max(max(h.defect, 1.0 - h.success) for h in hashes)
    per_w_distance, distance, decode, bound_ok = _audit(
        (encoder,), (povm,), targets, None, cover.epsilon, zeta_ach, mbar
    )
    return StegoCcCode(
        mode="noiseless",
        n=cover.n,
        m=cover.m,
        mbar=mbar,
        kbar=1,
        encoders=(encoder,),
        povms=(povm,),
        hashes=tuple(hashes),
        eps_cover=cover.epsilon,
        zeta_ach=zeta_ach,
        per_w_distance=tuple(per_w_distance),
        per_w_success=tuple(h.success for h in hashes),
        distance=distance,
        decode_prob=decode,
        key_bits=0.0,
        bound_ok=bound_ok,
        warning=any(h.warning for h in hashes),
    )


def side_states_from_degradation(cover: CcCode, m: QuantumChannel) -> list[CqState]:
    """Canonical side ensembles: the Kraus decomposition of m applied to f(w).

    sigma^w_XA = sum_j P(j) |j><j| (x) F_j f(w) F_j† / P(j) with
    P(j) = tr(F_j f(w) F_j†); its A-marginal through any true channel N equals
    N(m(f(w))) exactly, so the marginal-consistency requirement holds whenever
    the cover channel is N o m.
    """
    out = []
    for c in cover.codewords:
        branches = [k @ c.data @ k.conj().T for k in m.kraus]
        probs = np.array([max(np.trace(b).real, 0.0) for b in branches])
        keep = probs > 1e-14
        probs_kept = probs[keep] / probs[keep].sum()
        states = tuple(
            DensityMatrix(b / np.trace(b).real) for b, use in zip(branches, keep) if use
        )
        out.append(CqState(probs_kept, states))
    return out


def build_stego_cc_noisy(
    cover: CcCode,
    n_true: QuantumChannel,
    side_states: list[CqState],
    mbar: int,
    kbar: int,
    zeta: float,
    xi: float,
    seed=None,
    mbar_w: list[int] | None = None,
) -> StegoCcCode:
    """Stego classical-communication code over a noisy true channel.

    ``side_states`` are input-side cq states sigma^w_XA; their B-marginals
    through ``n_true`` must reproduce the cover outputs within 1e-8
    (ValueError("side-state mismatch") otherwise).  Per-message resolvability
    codebooks of size mbar_w (floored to multiples of mbar; default mbar) are
    sampled with ``kbar`` keys each and merged into mu_w-sized blocks.
    """
    if mbar < 1 or kbar < 1:
        raise ValueError("bad parameter: M_bar and K_bar must be >= 1")
    if len(side_states) != cover.m:
        raise ValueError("shape error: one side state per cover message required")
    rng = np.random.default_rng(seed)
    targets = cover.outputs()
    out_cqs = []
    for w, sigma in enumerate(side_states):
        out_cq = output_cq(sigma, n_true)
        if trace_norm(out_cq.marginal_b() - targets[w].data) > 1e-8:
            raise ValueError("side-state mismatch")
        out_cqs.append(out_cq)

    sizes = []
    for w in range(cover.m):
        want = mbar if mbar_w is None else int(mbar_w[w])
        sizes.append(max(mbar, (want // mbar) * mbar))
    codes = []
    for w in range(cover.m):
        child = int(rng.integers(1 << 31))
        codes.append(build_resolvability_code(out_cqs[w], sizes[w], kbar, seed=child))

    encoders = []
    povms = []
    dim_in = cover.codewords[0].dim
    for s in range(kbar):
        states = []
        inner_per_w = []
        for w, code in enumerate(codes):
            mu = sizes[w] // mbar
            book = code.codebooks[s]
            decoder = code.decoders[s]
            merged = []
            for wbar in range(mbar):
                mix = np.zeros((dim_in, dim_in), dtype=complex)
                for i in range(mu):
                    mix += side_states[w].states[book[wbar * mu + i]].data
                states.append(DensityMatrix(mix / mu))
                gam = np.zeros_like(decoder[0].data)
                for i in range(mu):
                    gam += decoder[wbar * mu + i].data
                merged.append(gam)
            inner_per_w.append(merged)
        encoders.append(tuple(states))
        povms.append(_nested_povm(cover.povm, inner_per_w))

    zeta_ach = max(
        max(1.0 - code.reliability, code.distance) for code in codes
    )
    per_w_distance, distance, decode, bound_ok = _audit(
        tuple(encoders), tuple(povms), targets, n_true, cover.epsilon, zeta_ach, mbar
    )
    return StegoCcCode(
        mode="noisy",
        n=cover.n,
        m=cover.m,
        mbar=mbar,
        kbar=kbar,
        encoders=tuple(encoders),
        povms=tuple(povms),
        hashes=tuple(codes),
        eps_cover=cover.epsilon,
        zeta_ach=zeta_ach,
        per_w_distance=tuple(per_w_distance),
        per_w_success=tuple(code.reliability for code in codes),
        distance=distance,
        decode_prob=decode,
        key_bits=math.log2(kbar),
        bound_ok=bound_ok,
        warning=any(code.distance > xi for code in codes),
    )
