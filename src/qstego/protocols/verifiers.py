"""Numerical verifiers for the proof-machinery inequalities and the
code-entropy bounds.

Each verifier computes the left- and right-hand sides on a concrete instance
and reports whether the inequality holds (with a 1e-9 grace for rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..channels import (
    QuantumChannel,
    check_kraus,
    complementary_matrix,
    haar_random_subspace,
    isometric_extension,
    kraus_sum,
    tensor_power,
)
from ..info import (
    as_pmf,
    renyi_entropy,
    shannon_entropy,
    smooth_min_entropy_classical,
    smooth_min_entropy_quantum,
    sup_over_order,
)
from ..linalg import check_povms, check_states, partial_trace_matrix, psd_sqrt, trace_norm
from .codes import QcCode
from .stego_qc_cc import orthogonalize_correctable_kraus, weight_distribution

GRACE = 1e-9
#: byte budget of one chunk of Haar samples in experiment_random_code_entropy
SAMPLE_CHUNK_BYTES = 1 << 16


@dataclass(frozen=True)
class BoundReport:
    """Both sides of one inequality on one instance; ``holds`` allows GRACE."""

    lhs: float
    rhs: float
    holds: bool
    detail: dict


def verify_gentle_composition(states, kraus, povm, p) -> list[BoundReport]:
    """Generalized gentle-measurement check on G instances of one shape.

    lhs = || sum_x P(x) ( N^x(rho^x) - sum_x' N^x'( sqrt(L^x') rho^x sqrt(L^x') ) ) ||_1
    rhs = 2 sqrt(eps) + eps  with  eps = 1 - sum_x P(x) tr(rho^x L^x).

    ``states`` (G, X, d, d) are the states rho^x, ``kraus`` (G, X, K, d', d)
    the Kraus operators of the channels N^x (a channel with fewer operators
    is padded with zero operators, which add nothing), ``povm`` (G, X, d, d)
    the POVM elements L^x and ``p`` the (G, X) PMFs; one instance is G = 1.
    The stacks are checked by one stacked check per kind; every product is
    one stacked call, and the sums over x, x' and the Kraus operators run in
    order, so each report has the bits of a one-matrix-at-a-time loop.
    Returns one report per instance.
    """
    states = check_states(states)
    elements = check_povms(povm)
    kraus = np.asarray(kraus, dtype=complex)
    check_kraus(np.moveaxis(kraus, 2, 0))
    families = np.moveaxis(kraus, (1, 2), (0, 1))  # families[x][j]: operator j of every N^x
    probs = np.array([as_pmf(row) for row in p])
    g, nx = probs.shape
    if not (states.shape[:2] == elements.shape[:2] == kraus.shape[:2] == (g, nx)):
        raise ValueError("shape error: states, channels, POVM, PMF sizes differ")
    roots = psd_sqrt(elements)
    overlaps = np.trace(states @ elements, axis1=-2, axis2=-1).real
    total = 0
    for x in range(nx):
        total = total + probs[:, x] * overlaps[:, x]
    eps = 1.0 - total
    eps = np.where(eps > 0.0, eps, 0.0)  # max(0.0, eps)
    diff = 0
    for x in range(nx):
        rho = states[:, x]
        term = kraus_sum(families[x], rho)
        for xp in range(nx):
            term = term - kraus_sum(families[xp], roots[:, xp] @ rho @ roots[:, xp])
        px = probs[:, x, None, None]
        diff = np.where(px == 0.0, diff, diff + px * term)
    lhs = trace_norm(diff)
    rhs = 2.0 * np.sqrt(eps) + eps
    return [
        BoundReport(lhs=l, rhs=r, holds=l <= r + GRACE, detail={"eps": e})
        for l, r, e in zip(lhs.tolist(), rhs.tolist(), eps.tolist())
    ]


def verify_pj_minentropy_bound(cover: QcCode, delta: float) -> BoundReport:
    """Smooth-min-entropy bound for the correctable-weight distribution.

    lhs = H_min^delta(P_J);  rhs = H_min^(delta - 2 sqrt(eps)) of the
    environment state of the degradation (the cover's channel) applied to
    Pi / M.  Requires delta > 2 sqrt(eps) (ValueError("bound vacuous")
    otherwise).
    """
    channel = cover.channel
    eps = cover.epsilon
    if delta <= 2.0 * math.sqrt(eps):
        raise ValueError("bound vacuous")
    pi = cover.projector
    _, d, _ = orthogonalize_correctable_kraus(channel, cover.correctable, pi)
    p_j = weight_distribution(d)
    lhs = smooth_min_entropy_classical(p_j, delta)
    env = complementary_matrix(channel, pi / cover.m)
    rhs = smooth_min_entropy_quantum(env, delta - 2.0 * math.sqrt(eps))
    return BoundReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs - GRACE,
        detail={"eps": eps, "p_j": p_j},
    )


def experiment_sutherland_bound(code, m: QuantumChannel, delta: float) -> BoundReport:
    """Entropy bound for structured codes: sup_a H^a of the degradation's
    environment output at Pi/M against n (H(p) - delta) for the single-use
    Kraus weight distribution p, n the integer with m.dim_in^n equal to the
    code channel's input dimension (ValueError if there is none).
    """
    weights = []
    for j, kj in enumerate(m.kraus):
        for jp, kjp in enumerate(m.kraus):
            overlap = np.trace(kj.conj().T @ kjp)
            if j == jp:
                weights.append(max(overlap.real, 0.0))
            elif abs(overlap) > 1e-9:
                raise ValueError("structural check fails: single-use Kraus not orthogonal")
    p = np.array(weights) / sum(weights)
    n = next((k for k in range(1, code.channel.dim_in.bit_length()) if m.dim_in**k == code.channel.dim_in), None)
    if n is None:
        raise ValueError("shape error: code channel is not a power of m")
    # structural gate: raises unless the code splits as QC_R
    orthogonalize_correctable_kraus(code.channel, code.correctable, code.projector)
    env = complementary_matrix(code.channel, code.projector / code.m)
    [opt] = sup_over_order(renyi_entropy([env]), batch=1)
    rhs = n * (shannon_entropy(p) - delta)
    return BoundReport(
        lhs=opt.value,
        rhs=rhs,
        holds=opt.value >= rhs - GRACE,
        detail={"a_star": opt.a_star, "p_single_use": p, "n": n},
    )


def experiment_random_code_entropy(
    n: int,
    m_dim: int,
    m: QuantumChannel,
    samples: int,
    delta: float,
    seed: int,
) -> BoundReport:
    """Haar-sampled subspace entropy of the degradation environment.

    Samples M-dimensional subspaces of (C^d)^(x n), d = m.dim_in, computes
    sup_a H^a(m^c(x n)(Pi/M)) per sample, and compares the sample mean
    against n (log2 min(rank tr_A VV†, rank tr_E VV†) - delta).  The samples
    are drawn and their environments formed as stacks of about
    ``SAMPLE_CHUNK_BYTES``; the report does not depend on the chunk size.
    """
    if m.dim_in**n > 256:
        raise ValueError("dimension limit: dim_a^n above the recommended cap")
    rng = np.random.default_rng(seed)
    total = tensor_power(m, n)
    # a chunk's largest temporary is complementary_matrix's row of products
    step = max(1, SAMPLE_CHUNK_BYTES // (16 * len(total.kraus) * total.dim_out**2))

    def environments():
        for start in range(0, samples, step):
            isos = haar_random_subspace(total.dim_in, m_dim, min(step, samples - start), rng)
            pis = isos @ isos.conj().swapaxes(1, 2)
            yield complementary_matrix(total, pis / m_dim)

    # one batch: the samples' optima advance together, one objective call per
    # step; each chunk's spectra are one stacked eigvalsh call
    opts = sup_over_order(renyi_entropy(environments()), batch=samples)
    vals = np.array([o.value for o in opts])
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    v = isometric_extension(m)
    vv = v @ v.conj().T
    k = len(m.kraus)
    rank_a = np.linalg.matrix_rank(partial_trace_matrix(vv, [m.dim_out, k], keep=[1]), tol=1e-10)
    rank_e = np.linalg.matrix_rank(partial_trace_matrix(vv, [m.dim_out, k], keep=[0]), tol=1e-10)
    rhs = n * (math.log2(min(rank_a, rank_e)) - delta)
    return BoundReport(
        lhs=mean,
        rhs=rhs,
        holds=mean >= rhs - GRACE,
        detail={"stderr": stderr, "rank_tr_a": int(rank_a), "rank_tr_e": int(rank_e)},
    )
