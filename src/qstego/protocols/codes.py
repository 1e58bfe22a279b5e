"""Protocol data model: cover-code types, stego-code types, and the
entanglement-distillation code.

Cover codes compute their reported reliability at construction.
Stego codes are produced by the builders in this package; every achieved
metric they carry is recomputed by an audit routine from the assembled
artifacts (encoder states, POVMs, channels), never copied from intermediate
search output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..channels import Isometry, QuantumChannel, apply
from ..linalg import DensityMatrix, Povm

PROPORTIONALITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class CcCode:
    """Classical communication code: encoder table, decoding POVM, channel.

    ``codewords`` is a tuple of :class:`DensityMatrix` inputs.  ``channel``
    is the full n-use channel the code is designed for; the code keeps no n
    of its own.  The outputs channel(f(w)) are computed once at construction
    and kept; the reported reliability (1/M) sum_w tr(Lambda^w channel(f(w)))
    and epsilon = 1 - reliability are computed from them.  ``povm`` is a
    :class:`Povm`, or a function that builds one from the tuple of outputs.
    """

    codewords: tuple
    povm: Povm
    channel: QuantumChannel
    outputs: tuple = field(init=False)
    reliability: float = field(init=False)

    def __post_init__(self):
        outputs = tuple(apply(self.channel, c) for c in self.codewords)
        povm = self.povm if isinstance(self.povm, Povm) else self.povm(outputs)
        if len(self.codewords) != len(povm):
            raise ValueError("shape error: codeword count differs from POVM size")
        rel = float(np.mean([np.trace(e @ out.data).real for out, e in zip(outputs, povm.elements)]))
        object.__setattr__(self, "povm", povm)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "reliability", rel)

    @property
    def m(self) -> int:
        return len(self.codewords)

    @property
    def epsilon(self) -> float:
        return max(0.0, 1.0 - self.reliability)


@dataclass(frozen=True, eq=False)
class QcCode:
    """Quantum communication code with an explicit recovery split.

    ``correctable`` indexes the Kraus operators of ``channel`` whose
    restriction to the code space is recovered by the decoder; the
    proportionality constant c of decode o N_tilde o encode = c id is
    extracted from the Choi matrix at construction and epsilon = 1 - c.
    """

    encode: Isometry
    decode: QuantumChannel
    channel: QuantumChannel
    correctable: tuple
    c: float = field(init=False)

    def __post_init__(self):
        if self.encode.dim_out != self.channel.dim_in:
            raise ValueError("shape error: encoder output does not match channel")
        object.__setattr__(self, "correctable", tuple(int(j) for j in self.correctable))
        ops = [self.channel.kraus[j] for j in self.correctable]
        kraus = [d @ f @ self.encode.data for f, d in itertools.product(ops, self.decode.kraus)]
        c, residual = proportionality_to_identity(kraus)
        if residual > PROPORTIONALITY_TOL:
            raise ValueError("invalid cover: recovery split is not proportional to identity")
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        return self.encode.dim_in

    @property
    def epsilon(self) -> float:
        return max(0.0, 1.0 - self.c)

    @property
    def projector(self) -> np.ndarray:
        return self.encode.data @ self.encode.data.conj().T


def proportionality_to_identity(kraus_list) -> tuple[float, float]:
    """Constant c and residual of a Kraus-sum map against c * id, via Choi."""
    dim = np.shape(kraus_list[0])[1]
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in kraus_list:
        v = np.asarray(k, dtype=complex).reshape(-1)
        choi += np.outer(v, v.conj())
    phi = np.eye(dim, dtype=complex).reshape(-1)
    c = float((phi.conj() @ choi @ phi).real) / dim**2
    residual = float(np.max(np.abs(choi - c * np.outer(phi, phi.conj()))))
    return c, residual


@dataclass(frozen=True, eq=False)
class EsCode:
    """Entanglement sharing code: Alice's joint input state plus Bob's decoder.

    ``rho`` lives on H^(M) (x) H_A^(x n), M = ``decode.dim_out``.  Its fidelity
    with Phi^(M) after ``channel`` and ``decode`` is reported by the stego
    builder (``StegoEsRsCode.eps_cover``), from the coherent overlap it forms.
    """

    rho: DensityMatrix
    decode: QuantumChannel
    channel: QuantumChannel

    def __post_init__(self):
        if self.rho.dim != self.decode.dim_out * self.channel.dim_in:
            raise ValueError("shape error: joint state does not match M * dim_in")


@dataclass(frozen=True, eq=False)
class ResolvabilityCode:
    """K random codebooks over the input alphabet with per-codebook PGM decoders."""

    codebooks: np.ndarray  # shape (K, M), symbol indices
    decoders: tuple  # K Povm instances over the output space
    reliability: float
    distance: float


@dataclass(frozen=True, eq=False)
class EdCode:
    """One-way entanglement distillation code (encoder cq in C)."""

    encode: QuantumChannel  # A -> C (x) A_tilde
    decode: QuantumChannel  # C (x) B -> B_tilde, M = decode.dim_out


@dataclass(frozen=True, eq=False)
class StegoCcCode:
    """Stego classical-communication code built on a CC cover.

    Encoders/POVMs are indexed per key value s (K = 1 and a single POVM for
    the noiseless construction).  Flat message index is (w - 1) * M_bar + w_bar
    in 0-based form w * mbar + wbar.  The inner codes are quantum hashes
    (noiseless true channel) or keyed resolvability codebooks (noisy).  The per-w
    defect and success, ``key_bits`` (log2 K) and ``warning`` come from the
    inner codes, and zeta_ach is the largest max(defect, 1 - success); the
    distances, decode probabilities and ``bound_ok`` are recomputed from the
    encoders and POVMs.
    """

    m: int
    mbar: int
    kbar: int
    encoders: tuple  # kbar entries, each a tuple of m * mbar DensityMatrix
    povms: tuple  # kbar Povm instances
    eps_cover: float
    zeta_ach: float
    per_w_distance: tuple
    per_w_defect: tuple  # per-w hash defect (noiseless) or resolvability distance (noisy)
    per_w_success: tuple  # per-w hash success (noiseless) or resolvability reliability (noisy)
    per_w_decode: tuple  # audited mean of tr(Gamma g) over message w's K * M_bar encodings
    distance: float
    decode_prob: float
    key_bits: float
    bound_ok: bool
    warning: bool


@dataclass(frozen=True, eq=False)
class StegoQcCcCode:
    """Stego quantum+classical code built on a QC_R cover via label twirling."""

    mbar: int
    p_j: np.ndarray
    encoders: tuple  # mbar channels W -> A^n
    decoder: QuantumChannel  # B^n -> W (x) W_bar
    kl_residual: float
    polar_residual: float
    zeta_ach: float
    eps_cover: float
    c_cover: float
    c_stego: float
    cypher_decode_prob: float
    distance_sup: float
    bound_ok: bool
    warning: bool


@dataclass(frozen=True, eq=False)
class StegoEsRsCode:
    """Stego entanglement + randomness sharing code built on an ES cover."""

    mbar: int
    p_x: np.ndarray
    alice_povm: Povm
    bob_povm: Povm
    fidelity: float
    eps_cover: float
    zeta_ach: float
    b_output_distance: float
    key_agreement: float
    bound_ok: bool
    warning: bool


@dataclass(frozen=True, eq=False)
class StegoCcEsCode:
    """Stego classical-communication + entanglement-sharing code (CC cover)."""

    mbar: int
    mcc: int
    povm: Povm  # the nested cover-then-hash measurement
    classical_reliability: float
    entanglement_distance: float
    distance: float
    key_bits: float
    eps_cover: float
    warning: bool
