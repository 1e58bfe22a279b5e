"""Numerical verifiers for the proof-machinery inequalities and the
code-entropy bounds.

Each verifier computes the left- and right-hand sides on a concrete instance
and reports whether the inequality holds (with a 1e-9 grace for rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..channels import QuantumChannel, apply_matrix, complementary_matrix, haar_random_subspace, isometric_extension, tensor_power
from ..info import (
    Pmf,
    as_pmf,
    renyi_entropy,
    shannon_entropy,
    smooth_min_entropy_classical,
    smooth_min_entropy_quantum,
    sup_over_order,
)
from ..linalg import Povm, partial_trace_matrix, psd_sqrt, trace_norm
from .codes import QcCode
from .stego_qc_cc import orthogonalize_correctable_kraus

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


def verify_gentle_composition(states, channels, povm: Povm, p) -> BoundReport:
    """Generalized gentle-measurement check.

    lhs = || sum_x P(x) ( N^x(rho^x) - sum_x' N^x'( sqrt(L^x') rho^x sqrt(L^x') ) ) ||_1
    rhs = 2 sqrt(eps) + eps  with  eps = 1 - sum_x P(x) tr(rho^x L^x).
    """
    probs = as_pmf(p)
    nx = probs.size
    if not (len(states) == nx and len(channels) == nx and len(povm) == nx):
        raise ValueError("shape error: states, channels, POVM, PMF sizes differ")
    roots = [psd_sqrt(e) for e in povm.elements]
    eps = 1.0 - sum(
        probs[x] * float(np.trace(states[x].data @ povm[x]).real) for x in range(nx)
    )
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
    lhs = trace_norm(diff)
    rhs = 2.0 * math.sqrt(eps) + eps
    return BoundReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs + GRACE, detail={"eps": eps})


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
    p_j = d / d.sum()
    lhs = smooth_min_entropy_classical(Pmf(p_j), delta)
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
    Kraus weight distribution p.
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
    # structural gate: raises unless the code splits as QC_R
    orthogonalize_correctable_kraus(code.channel, code.correctable, code.projector)
    env = complementary_matrix(code.channel, code.projector / code.m)
    [opt] = sup_over_order(renyi_entropy([env]), batch=1)
    rhs = code.n * (shannon_entropy(p) - delta)
    return BoundReport(
        lhs=opt.value,
        rhs=rhs,
        holds=opt.value >= rhs - GRACE,
        detail={"a_star": opt.a_star, "p_single_use": p, "n": code.n},
    )


def experiment_random_code_entropy(
    dim_a: int,
    n: int,
    m_dim: int,
    m: QuantumChannel,
    samples: int,
    delta: float,
    seed=None,
) -> BoundReport:
    """Haar-sampled subspace entropy of the degradation environment.

    Samples M-dimensional subspaces of (C^dim_a)^(x n), computes
    sup_a H^a(m^c(x n)(Pi/M)) per sample, and compares the sample mean
    against n (log2 min(rank tr_A VV†, rank tr_E VV†) - delta).  The samples
    are drawn and their environments formed as stacks of about
    ``SAMPLE_CHUNK_BYTES``; the report does not depend on the chunk size.
    """
    if dim_a**n > 256:
        raise ValueError("dimension limit: dim_a^n above the recommended cap")
    if samples < 1:
        raise ValueError("bad parameter: samples must be at least 1")
    if m_dim < 1:
        raise ValueError("bad parameter: m_dim must be at least 1")
    rng = np.random.default_rng(seed)
    total = tensor_power(m, n)
    # a chunk's largest temporary is complementary_matrix's row of products
    step = max(1, SAMPLE_CHUNK_BYTES // (16 * len(total.kraus) * total.dim_out**2))

    def environments():
        for start in range(0, samples, step):
            isos = haar_random_subspace(dim_a**n, m_dim, min(step, samples - start), rng)
            pis = isos @ isos.conj().swapaxes(1, 2)
            yield from complementary_matrix(total, pis / m_dim)

    # one batch: the samples' optima advance together, one objective call per step
    opts = sup_over_order(renyi_entropy(environments()), batch=samples)
    vals = np.array([o.value for o in opts])
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    v = isometric_extension(m)
    vv = v.data @ v.data.conj().T
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
