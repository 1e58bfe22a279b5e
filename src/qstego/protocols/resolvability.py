"""Random-codebook channel resolvability with pretty-good-measurement decoders.

The decoder replaces the existence-proof POVM of the one-shot coding
literature with the constructive square-root measurement; reported
reliability and resolvability distance are empirical, measured on the
sampled codebooks.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..channels import QuantumChannel, apply
from ..info import CqState
from ..linalg import Povm, trace_norm
from .codes import ResolvabilityCode


def pretty_good_measurement(states: np.ndarray) -> tuple:
    """Square-root measurements, one for a uniformly chosen state of each of
    the n lists of an (n, M, d, d) stack of states; a tuple of n :class:`Povm`.

    Gamma_w = S^(-1/2) rho_w S^(-1/2) + (I - Pi_S) / M  with S = sum_w rho_w;
    the orthocomplement of the joint support is spread evenly so the elements
    sum to the identity exactly.  Each POVM has the bits of its list alone.
    S is summed state by state, in order; the n eigendecompositions are one
    call, all n M elements are one stacked product, and the n POVMs are
    checked by one stacked check (:meth:`Povm.batch`).
    """
    n, m, dim = states.shape[:3]
    total = np.zeros((n, dim, dim), dtype=complex)
    for w in range(m):
        total += states[:, w]
    w, v = np.linalg.eigh(total)
    keep = w > 1e-12
    inv_sqrt_vals = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    inv_sqrt = (v * inv_sqrt_vals[:, None, :]) @ v.conj().swapaxes(1, 2)
    # the support projector gathers the kept columns; one gather per kept
    # pattern gives every list the bits of its own v[:, keep] @ v[:, keep]^†
    rest = np.empty_like(total)
    patterns = {}
    for i, row in enumerate(keep):
        patterns.setdefault(row.tobytes(), []).append(i)
    for rows in patterns.values():
        kept = v[rows][:, :, keep[rows[0]]]
        rest[rows] = (np.eye(dim) - kept @ kept.conj().swapaxes(1, 2)) / m
    e = inv_sqrt[:, None] @ states @ inv_sqrt[:, None] + rest[:, None]
    e = (e + e.conj().swapaxes(2, 3)) / 2
    return Povm.batch(e)


def resolvability_metrics(codes, sigma: CqState) -> list:
    """Recompute (reliability, trace distance to the target output) from
    scratch for each of a sequence of codes of one (K, M) shape; each pair
    has the bits of its code alone.

    Every tr(Gamma_w rho_x) is one stacked product and trace; the reliability
    and the output mixture are summed sequentially, codebook by codebook.
    """
    books = np.array([c.codebooks for c in codes])
    n, k, m = books.shape
    dim = sigma.dim_b
    outs = np.array([s.data for s in sigma.states])[books]
    decoders = np.array([[povm.elements for povm in c.decoders] for c in codes])
    mixture = np.zeros((n, dim, dim), dtype=complex)
    for out in outs.reshape(n, k * m, dim, dim).swapaxes(0, 1):
        mixture += out
    rel = np.zeros(n)
    for t in np.trace(decoders @ outs, axis1=3, axis2=4).real.reshape(n, k * m).T:
        rel += t
    mixture /= k * m
    rel /= k * m
    return list(zip(rel.tolist(), trace_norm(mixture - sigma.marginal_b()).tolist()))


def build_resolvability_codes(sigma: CqState, m: int, k: int, seeds) -> list[ResolvabilityCode]:
    """One code per seed: K i.i.d. codebooks (entries ~ P_X) with PGM decoders.

    Each code is drawn from its own ``numpy.random.default_rng(seed)`` and
    equals the code a one-seed batch builds; every PGM and metric of the batch
    is one stacked computation.  Deterministic for fixed seeds.
    """
    books = np.array([
        np.random.default_rng(seed).choice(sigma.alphabet_size, size=(k, m), p=sigma.pmf.probs)
        for seed in seeds
    ])
    dim = sigma.dim_b
    outs = np.array([s.data for s in sigma.states])[books]
    povms = pretty_good_measurement(outs.reshape(-1, m, dim, dim))
    codes = [
        ResolvabilityCode(codebooks=b, decoders=povms[i * k : (i + 1) * k], reliability=0.0, distance=0.0)
        for i, b in enumerate(books)
    ]
    return [replace(c, reliability=rel, distance=dist) for c, (rel, dist) in zip(codes, resolvability_metrics(codes, sigma))]


def output_cq(sigma_in: CqState, channel: QuantumChannel) -> CqState:
    """Push the conditional states of an input-side cq state through a channel."""
    return CqState(sigma_in.pmf, tuple(apply(channel, s) for s in sigma_in.states))
