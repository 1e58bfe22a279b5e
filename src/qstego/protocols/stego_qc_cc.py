"""Stego classical messaging inside a quantum-communication cover.

The correctable Kraus family is orthogonalized on the code space via the
Knill-Laflamme Gram matrix; each orthogonalized operator polar-decomposes as
sqrt(d_j) U_j on the code space.  Hashing the weight distribution P_J labels
the unitaries with cypher messages: the stego encoder twirls the cover
encoder over each label class, and the decoder reads the label back through
the projectors U_j Pi U_j† before handing the result to the cover decoder.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..channels import QuantumChannel, apply
from ..hashing import build_classical_hash
from ..linalg import DensityMatrix, check_states, psd_sqrt, trace_norm
from .codes import QcCode, StegoQcCcCode, proportionality_to_identity

KL_TOL = 1e-8
AUDIT_INPUTS = 16
AUDIT_SEED = 20240


def orthogonalize_correctable_kraus(channel: QuantumChannel, correctable, projector):
    """Rotate the correctable Kraus set to Knill-Laflamme diagonal form.

    Returns (kraus_tilde, d, residual) with Pi F_j† F_k Pi = delta_jk d_j Pi.
    Raises ValueError("code does not satisfy QC_R split") when the family
    cannot be put in that form within 1e-8.
    """
    pi = np.asarray(projector, dtype=complex)
    tr_pi = float(np.trace(pi).real)
    ops = [np.asarray(channel.kraus[j], dtype=complex) for j in correctable]
    r = len(ops)

    def kl_residual(family, weights):
        worst = 0.0
        for j in range(r):
            for k in range(r):
                x = pi @ family[j].conj().T @ family[k] @ pi
                target = (weights[j] if j == k else 0.0) * pi
                worst = max(worst, float(np.max(np.abs(x - target))))
        return worst

    gram = np.zeros((r, r), dtype=complex)
    for j in range(r):
        for k in range(r):
            gram[j, k] = np.trace(pi @ ops[j].conj().T @ ops[k] @ pi) / tr_pi
    if float(np.max(np.abs(gram - np.diag(np.diagonal(gram))))) <= 1e-12:
        tilde, d = ops, np.maximum(np.diagonal(gram).real, 0.0)
    else:
        w, u = np.linalg.eigh((gram + gram.conj().T) / 2)
        tilde = [sum(u[j, k] * ops[j] for j in range(r)) for k in range(r)]
        d = np.maximum(w, 0.0)
    residual = kl_residual(tilde, d)
    if residual > KL_TOL:
        raise ValueError("code does not satisfy QC_R split")
    return tilde, d, residual


def weight_distribution(d: np.ndarray) -> np.ndarray:
    """P_J = d_j / sum_j d_j of the Knill-Laflamme weights ``d``.

    Raises ValueError("bad parameter: every Knill-Laflamme weight is zero")
    before dividing when no weight is positive.
    """
    if not d.sum() > 0:
        raise ValueError("bad parameter: every Knill-Laflamme weight is zero (no P_J to hash)")
    return d / float(d.sum())


def _polar_unitaries(kraus_tilde, d, projector):
    """U_j with F_j Pi = sqrt(d_j) U_j Pi, extended to full unitaries."""
    unitaries = []
    worst = 0.0
    dim = projector.shape[0]
    for f, dj in zip(kraus_tilde, d):
        a = f @ projector
        if dj <= 1e-14:
            u = np.eye(dim, dtype=complex)
        else:
            uu, _, vh = np.linalg.svd(a)
            u = uu @ vh
        worst = max(worst, float(np.max(np.abs(a - math.sqrt(max(dj, 0.0)) * u @ projector))))
        unitaries.append(u)
    return unitaries, worst


def audit_input_states(m: int) -> list:
    """Deterministic audit inputs: AUDIT_INPUTS states, the computational and
    phase pure states plus random mixed states seeded with AUDIT_SEED."""
    rng = np.random.default_rng(AUDIT_SEED)
    out = []
    for i in range(m):
        v = np.zeros(m, dtype=complex)
        v[i] = 1.0
        out.append(DensityMatrix(np.outer(v, v.conj())))
    for phase in (1.0, -1.0, 1j, -1j):
        v = np.zeros(m, dtype=complex)
        v[0] = 1.0 / math.sqrt(2)
        v[1 % m] = phase / math.sqrt(2)
        out.append(DensityMatrix(np.outer(v, v.conj()) if m > 1 else np.array([[1.0 + 0j]])))
    while len(out) < AUDIT_INPUTS:
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        a = g @ g.conj().T
        out.append(DensityMatrix(a / np.trace(a).real))
    return out[:AUDIT_INPUTS]


def build_stego_qc_cc(
    cover: QcCode,
    mbar: int,
    zeta: float,
    seed: int,
) -> StegoQcCcCode:
    """Stego code carrying a cypher classical message on a QC_R cover.

    The true channel is noiseless; the cover's channel is the warden-assumed
    degradation whose correctable Kraus weights supply the hashed randomness.
    All achieved metrics are audited on a fixed 16-state input set.
    """
    channel = cover.channel
    pi = cover.projector
    v = cover.encode.data
    dim = channel.dim_in
    tilde, d, kl_res = orthogonalize_correctable_kraus(channel, cover.correctable, pi)
    unitaries, polar_res = _polar_unitaries(tilde, d, pi)
    p_j = weight_distribution(d)
    enc = build_classical_hash(p_j, mbar, zeta, seed=seed, objective="output")
    g = enc.f
    zeta_ach = enc.output_defect

    # zero-weight correctable indices never occur and their polar factors are
    # arbitrary; they are excluded from the twirl classes and the decoder
    active = [j for j in range(len(unitaries)) if d[j] > 1e-14]
    encoders = []
    for wbar in range(mbar):
        members = [j for j in active if g[j] == wbar]
        if members:
            kraus = tuple(unitaries[j] @ v / math.sqrt(len(members)) for j in members)
        else:
            kraus = (v,)
        encoders.append(QuantumChannel(kraus))

    inner = []
    coverage = np.zeros((dim, dim), dtype=complex)
    for j in active:
        u = unitaries[j]
        sel = np.zeros((mbar, 1), dtype=complex)
        sel[g[j], 0] = 1.0
        inner.append(np.kron(pi @ u.conj().T, sel))
        coverage += u @ pi @ u.conj().T
    gap = np.eye(dim) - coverage
    sink = np.zeros((mbar, 1), dtype=complex)
    sink[0, 0] = 1.0
    inner.append(np.kron(psd_sqrt((gap + gap.conj().T) / 2), sink))
    inner_channel = QuantumChannel(tuple(inner))
    cover_dec = tuple(np.kron(k, np.eye(mbar)) for k in cover.decode.kraus)
    decoder = QuantumChannel(tuple(dk @ ik for dk, ik in itertools.product(cover_dec, inner_channel.kraus)))

    # the audit inputs as one stack: every channel output is one stacked apply,
    # and the sums over wbar and the extrema over inputs run in order
    inputs = np.array([rho.data for rho in audit_input_states(cover.m)])
    rho_c = apply(channel, check_states(v @ inputs @ v.conj().T))
    mix = 0
    per_input = 0.0
    for wbar, e in enumerate(encoders):
        sent = apply(e, inputs)
        mix = mix + sent
        out = apply(decoder, sent)
        block = out.reshape(-1, cover.m, mbar, cover.m, mbar)[:, :, wbar, :, wbar]
        per_input = per_input + np.trace(block, axis1=-2, axis2=-1).real
    mix = mix / mbar
    distance_sup = 0.0
    cypher_min = 1.0
    for dist, per in zip(trace_norm(mix - rho_c).tolist(), (per_input / mbar).tolist()):
        distance_sup = max(distance_sup, dist)
        cypher_min = min(cypher_min, per)

    # recovery constant of the stego pair over the true (noiseless) channel:
    # the error subspaces are orthogonal, so this comes out as 1
    marginals = [np.kron(np.eye(cover.m), np.eye(mbar)[wb : wb + 1, :]) for wb in range(mbar)]
    c_stego = 1.0
    decoder_ops = tuple(decoder.kraus)  # each read of an index form forms the operator
    for e in encoders:
        kraus_list = [t @ dk @ ek for t, dk, ek in itertools.product(marginals, decoder_ops, e.kraus)]
        c_w, _ = proportionality_to_identity(kraus_list)
        c_stego = min(c_stego, c_w)

    bound = cover.epsilon + zeta_ach + (1.0 - cover.c) + 1e-6
    return StegoQcCcCode(
        mbar=mbar,
        p_j=p_j,
        encoders=tuple(encoders),
        decoder=decoder,
        kl_residual=kl_res,
        polar_residual=polar_res,
        zeta_ach=zeta_ach,
        eps_cover=cover.epsilon,
        c_cover=cover.c,
        c_stego=c_stego,
        cypher_decode_prob=cypher_min,
        distance_sup=distance_sup,
        bound_ok=distance_sup <= bound,
        warning=enc.warning,
    )
