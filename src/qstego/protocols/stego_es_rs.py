"""Stego randomness sharing on an entanglement-sharing cover.

Over a noiseless true channel Alice simulates the degradation coherently
(isometric extension), keeping the environment; Bob runs his decoder
coherently, keeping that environment too.  Aligning the resulting global
pure state against Phi^(M) (x) |tau'> via Uhlmann's theorem exposes a shared
Schmidt ensemble between Alice's and Bob's kept registers; hashing its PMF
gives both parties matching measurements whose outcomes are the shared
cypher randomness.  The transmitted B-system state is exactly the cover's.
"""

from __future__ import annotations

import math

import numpy as np

from ..channels import apply, isometric_extension
from ..hashing import build_classical_hash
from ..linalg import (
    DensityMatrix,
    Povm,
    classically_correlated,
    fidelity,
    maximally_entangled,
    partial_trace_matrix,
    purify,
    trace_norm,
)
from .codes import EsCode, StegoEsRsCode

SCHMIDT_CUT = 1e-12


def _completion_povm(projectors) -> Povm:
    rest = (np.eye(len(projectors[0])) - sum(projectors)) / len(projectors)
    return Povm(np.stack([((p + rest) + (p + rest).conj().T) / 2 for p in projectors]))


def build_stego_es_rs(
    cover: EsCode,
    mbar: int,
    zeta: float,
    seed: int,
) -> StegoEsRsCode:
    """Stego entanglement + randomness sharing over a noiseless true channel.

    The cover's channel is the warden degradation.  The returned code
    carries the audited final state on (A~, B~, W_A, W_B), its fidelity
    against Phi^(M) (x) Phibar^(M_bar), the cover's error
    eps_cover = 1 - <Phi|(id (x) decode o channel)(rho)|Phi> from the coherent
    overlap, and the exact stego-vs-cover B-output distance (zero up to
    rounding by construction).
    """
    channel = cover.channel
    m_dim = cover.decode.dim_out  # M, the size of A~ and of B~
    dn = channel.dim_in

    phi = purify(cover.rho)  # on R (x) (A~ A^n), R dim = m_dim * dn
    r_dim = m_dim * dn
    v_ext = isometric_extension(channel)  # A^n -> B^n (x) E
    ke = len(channel.kraus)
    w_ext = isometric_extension(cover.decode)  # B^n -> B~ (x) H
    kh = len(cover.decode.kraus)

    stage = phi.data.reshape(r_dim, m_dim, dn)
    stage = np.einsum("xa,rma->rmx", v_ext, stage).reshape(r_dim, m_dim, dn, ke)
    # stego B-system output, read off before Bob's coherent decoding
    b_out = np.einsum("rmbe,rmce->bc", stage, stage.conj())
    psi = np.einsum("yb,rmbe->rmye", w_ext, stage).reshape(
        r_dim, m_dim, m_dim, kh, ke
    )
    psi = np.transpose(psi, (1, 2, 0, 4, 3))  # [A~, B~, R, E, H]

    phi_m = maximally_entangled(m_dim).data.reshape(m_dim, m_dim)
    chi = np.einsum("ab,abreh->reh", phi_m.conj(), psi)
    overlap = float(np.vdot(chi, chi).real)
    eps_cover = max(0.0, 1.0 - overlap)
    if overlap <= SCHMIDT_CUT:
        raise ValueError("invalid cover: no overlap with the target entangled state")
    tau = (chi / math.sqrt(overlap)).reshape(r_dim * ke, kh)

    u, s, vh = np.linalg.svd(tau, full_matrices=False)
    keep = s**2 > SCHMIDT_CUT
    p_x = (s**2)[keep]
    p_x = p_x / p_x.sum()
    alphas = u[:, keep]
    betas = vh[keep, :].T

    enc = build_classical_hash(p_x, mbar, zeta, seed=seed, objective="output")
    zeta_ach = enc.output_defect

    re_dim = r_dim * ke
    alice_proj = []
    bob_proj = []
    for wbar in range(mbar):
        sel = enc.f == wbar
        alice_proj.append(alphas[:, sel] @ alphas[:, sel].conj().T)
        bob_proj.append(betas[:, sel] @ betas[:, sel].conj().T)
    alice_povm = _completion_povm(alice_proj)
    bob_povm = _completion_povm(bob_proj)

    # audited final state on [A~, B~, W_A, W_B]
    psi_mat = psi.reshape(m_dim * m_dim, re_dim * kh)
    blocks = {}
    for a in range(mbar):
        for b in range(mbar):
            op = np.kron(alice_povm[a], bob_povm[b])
            blocks[a, b] = psi_mat @ op.T @ psi_mat.conj().T
    # kron(blk, |ab><ab|) summed over (a, b): block (a, b) on the entries whose
    # index is a * mbar + b modulo mbar^2
    side = m_dim * m_dim * mbar * mbar
    final = np.zeros((side, side), dtype=complex)
    for (a, b), blk in blocks.items():
        k = a * mbar + b
        final[k :: mbar * mbar, k :: mbar * mbar] += blk
    final_state = DensityMatrix((final + final.conj().T) / 2)

    target = DensityMatrix(
        np.kron(
            maximally_entangled(m_dim).to_density().data,
            classically_correlated(mbar).data,
        )
    )
    fid = fidelity(final_state, target)
    key_agreement = float(sum(np.trace(blocks[a, a]).real for a in range(mbar)))

    rho_an = partial_trace_matrix(cover.rho.data, [m_dim, dn], keep=[1])
    cover_out = apply(channel, DensityMatrix(rho_an))
    b_output_distance = trace_norm(b_out - cover_out.data)

    bound = 1.0 - (math.sqrt(eps_cover) + zeta_ach) ** 2 - 1e-6
    return StegoEsRsCode(
        mbar=mbar,
        p_x=p_x,
        alice_povm=alice_povm,
        bob_povm=bob_povm,
        fidelity=fid,
        eps_cover=eps_cover,
        zeta_ach=zeta_ach,
        b_output_distance=b_output_distance,
        key_agreement=key_agreement,
        bound_ok=fid >= bound,
        warning=enc.warning,
    )
