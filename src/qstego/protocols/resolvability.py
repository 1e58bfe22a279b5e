"""Random-codebook channel resolvability with pretty-good-measurement decoders.

The decoder replaces the existence-proof POVM of the one-shot coding
literature with the constructive square-root measurement; reported
reliability and resolvability distance are empirical, measured on the
sampled codebooks.
"""

from __future__ import annotations

import numpy as np

from ..channels import QuantumChannel, apply
from ..info import CqState
from ..linalg import Povm, as_matrix, trace_norm
from .codes import ResolvabilityCode


def pretty_good_measurement(states) -> Povm:
    """Square-root measurement for a uniformly chosen state from the list.

    Gamma_w = S^(-1/2) rho_w S^(-1/2) + (I - Pi_S) / M  with S = sum_w rho_w;
    the orthocomplement of the joint support is spread evenly so the elements
    sum to the identity exactly.  All M elements are one stacked product.
    """
    mats = np.array([as_matrix(s) for s in states])
    m, dim = len(mats), mats.shape[1]
    total = sum(mats)
    w, v = np.linalg.eigh(total)
    inv_sqrt_vals = np.where(w > 1e-12, 1.0 / np.sqrt(np.where(w > 1e-12, w, 1.0)), 0.0)
    inv_sqrt = (v * inv_sqrt_vals) @ v.conj().T
    projector = (v[:, w > 1e-12]) @ v[:, w > 1e-12].conj().T
    rest = (np.eye(dim) - projector) / m
    e = inv_sqrt @ mats @ inv_sqrt + rest
    return Povm((e + e.conj().swapaxes(1, 2)) / 2)


def resolvability_metrics(code: ResolvabilityCode, sigma: CqState) -> tuple[float, float]:
    """Recompute (reliability, trace distance to the target output) from scratch.

    Every tr(Gamma_w rho_x) is one stacked product and trace; the reliability
    and the output mixture are summed sequentially, codebook by codebook.
    """
    k, m = code.codebooks.shape
    dim = sigma.dim_b
    outs = np.array([s.data for s in sigma.states])[code.codebooks]
    decoders = np.array([povm.elements for povm in code.decoders])
    mixture = np.zeros((dim, dim), dtype=complex)
    for out in outs.reshape(k * m, dim, dim):
        mixture += out
    rel = 0.0
    for t in np.trace(decoders @ outs, axis1=2, axis2=3).real.ravel().tolist():
        rel += t
    mixture /= k * m
    rel /= k * m
    return rel, trace_norm(mixture - sigma.marginal_b())


def build_resolvability_code(sigma: CqState, m: int, k: int, seed=None) -> ResolvabilityCode:
    """Sample K i.i.d. codebooks (entries ~ P_X) with PGM decoders.

    Deterministic for a fixed seed.
    """
    if m < 1 or k < 1:
        raise ValueError("bad parameter: M, K must be >= 1")
    rng = np.random.default_rng(seed)
    books = rng.choice(sigma.alphabet_size, size=(k, m), p=sigma.pmf.probs)
    decoders = tuple(
        pretty_good_measurement([sigma.states[x] for x in books[s]]) for s in range(k)
    )
    code = ResolvabilityCode(codebooks=books, decoders=decoders, reliability=0.0, distance=0.0)
    rel, dist = resolvability_metrics(code, sigma)
    return ResolvabilityCode(codebooks=books, decoders=decoders, reliability=rel, distance=dist)


def output_cq(sigma_in: CqState, channel: QuantumChannel) -> CqState:
    """Push the conditional states of an input-side cq state through a channel."""
    return CqState(sigma_in.pmf, tuple(apply(channel, s) for s in sigma_in.states))
