"""Numerical verifiers for the proof-machinery inequalities.

Each verifier computes the exact left- and right-hand sides on a concrete
instance and reports whether the inequality holds (with a 1e-9 grace for
rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..channels import QuantumChannel, apply_matrix, complementary_matrix
from ..info import Pmf, as_pmf, smooth_min_entropy_classical, smooth_min_entropy_quantum
from ..linalg import Povm, psd_sqrt, trace_norm
from .codes import QcCode
from .stego_qc_cc import orthogonalize_correctable_kraus

GRACE = 1e-9


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
    roots = [psd_sqrt(e.data) for e in povm.elements]
    eps = 1.0 - sum(
        probs[x] * float(np.trace(states[x].data @ povm[x].data).real) for x in range(nx)
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


def verify_pj_minentropy_bound(cover: QcCode, delta: float, m: QuantumChannel | None = None) -> BoundReport:
    """Smooth-min-entropy bound for the correctable-weight distribution.

    lhs = H_min^delta(P_J);  rhs = H_min^(delta - 2 sqrt(eps)) of the
    environment state of the degradation applied to Pi / M.  Requires
    delta > 2 sqrt(eps) (ValueError("bound vacuous") otherwise).
    """
    channel = cover.channel if m is None else m
    eps = cover.epsilon
    if delta <= 2.0 * math.sqrt(eps):
        raise ValueError("bound vacuous")
    pi = cover.projector
    _, d, _ = orthogonalize_correctable_kraus(channel, cover.correctable, pi)
    p_j = d / d.sum()
    lhs = smooth_min_entropy_classical(Pmf(p_j), delta)
    env = complementary_matrix(channel, pi / cover.m)
    env = (env + env.conj().T) / 2
    rhs = smooth_min_entropy_quantum(env, delta - 2.0 * math.sqrt(eps))
    return BoundReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs - GRACE,
        detail={"eps": eps, "p_j": p_j},
    )
