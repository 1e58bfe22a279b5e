"""CPTP maps as Kraus families: composition, tensor products, isometric
extensions, the environment output of the complementary channel, and the
textbook single-qubit fixtures.

Kraus families are kept exactly as given (no canonicalization); complementary
channels are therefore basis-dependent up to an isometry on the environment,
and anything that compares them should compare spectra only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DIM_CAP, DensityMatrix, as_matrix, check_states

CPTP_TOL = 1e-9


def check_kraus(kraus) -> None:
    """Raise ValueError("invalid channel: Kraus completeness fails") unless
    sum_j F_j† F_j = I within 1e-9 (max entry of the deviation) for every
    family of a batch.

    ``kraus`` is the sequence of the K operators F_j, each a (..., dout, din)
    array over one batch shape: a tuple of matrices is one family, a
    (K, ..., dout, din) stack is a batch of families.  The sum runs over j in
    order, one stacked product per operator.
    """
    total = 0
    for k in kraus:
        total = total + k.conj().swapaxes(-1, -2) @ k
    deviation = np.abs(total - np.eye(np.shape(total)[-1]))
    if not deviation.max(initial=0.0) <= CPTP_TOL:
        raise ValueError("invalid channel: Kraus completeness fails")


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive trace-preserving map held as a Kraus family.

    Validates the completeness relation sum_j F_j† F_j = I to 1e-9
    (:func:`check_kraus` on one family).
    """

    kraus: tuple

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ks:
            raise ValueError("invalid channel: no Kraus operators")
        if any(k.ndim != 2 or k.shape != ks[0].shape for k in ks):
            raise ValueError("shape error: inconsistent Kraus shapes")
        check_kraus(ks)
        object.__setattr__(self, "kraus", ks)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


def _check_orthonormal(v: np.ndarray) -> None:
    """Raise unless V†V = I within CPTP_TOL, for one matrix or each of a stack."""
    gram = v.conj().swapaxes(-1, -2) @ v
    if not np.max(np.abs(gram - np.eye(v.shape[-1]))) <= CPTP_TOL:
        raise ValueError("invalid isometry: columns not orthonormal")


@dataclass(frozen=True)
class Isometry:
    """Matrix V with V†V = I (within 1e-9)."""

    data: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.data, dtype=complex)
        if v.ndim != 2 or v.shape[0] < v.shape[1]:
            raise ValueError("shape error: not a tall matrix")
        _check_orthonormal(v)
        object.__setattr__(self, "data", v)

    @property
    def dim_in(self) -> int:
        return self.data.shape[1]

    @property
    def dim_out(self) -> int:
        return self.data.shape[0]


def apply(ch: QuantumChannel, rho):
    """sum_j F_j rho F_j†, symmetrized and checked as a state.

    One state gives a :class:`DensityMatrix`; a (..., d, d) stack of states
    gives the stack of outputs, each with the bits of its one-state call,
    checked by one :func:`check_states` call.
    """
    a = as_matrix(rho)
    if a.shape[-1] != ch.dim_in:
        raise ValueError("shape error: state does not match channel input")
    out = apply_matrix(ch, a)
    out = (out + out.conj().swapaxes(-1, -2)) / 2
    return DensityMatrix(out) if a.ndim == 2 else check_states(out)


def apply_matrix(ch: QuantumChannel, a: np.ndarray) -> np.ndarray:
    """Channel action on a raw matrix, or on each of a stack (no state validation)."""
    return kraus_sum(ch.kraus, a)


def kraus_sum(kraus, a: np.ndarray) -> np.ndarray:
    """sum_j F_j a F_j†, summed over j in order.

    ``kraus`` is the sequence of the Kraus operators F_j, as for
    :func:`check_kraus`: each a (..., dout, din) array over the batch shape
    of the (..., din, din) stack ``a``, which gives the stack of outputs.
    """
    out = 0
    for k in kraus:
        out = out + k @ a @ k.conj().swapaxes(-1, -2)
    return out


def tensor(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Kronecker product of two channels (all pairwise Kraus products)."""
    if a.dim_in * b.dim_in > DIM_CAP or a.dim_out * b.dim_out > DIM_CAP:
        raise ValueError("dimension limit")
    return QuantumChannel(tuple(np.kron(f, g) for f in a.kraus for g in b.kraus))


def tensor_power(ch: QuantumChannel, n: int) -> QuantumChannel:
    """n-fold Kronecker power; Kraus operators indexed by n-tuples in
    ``itertools.product`` order.

    Built one factor at a time as one stacked outer product: each operator of
    the power is the left-to-right ``np.kron`` chain of its tuple, bit for bit.
    """
    if n < 1:
        raise ValueError("bad parameter: n must be >= 1")
    if ch.dim_in**n > DIM_CAP or ch.dim_out**n > DIM_CAP:
        raise ValueError("dimension limit")
    base = np.array(ch.kraus)
    ks = base
    for _ in range(n - 1):
        (m, p, r), (k, q, s) = ks.shape, base.shape
        ks = (ks[:, None, :, None, :, None] * base[None, :, None, :, None, :]).reshape(m * k, p * q, r * s)
    return QuantumChannel(tuple(ks))


def compose(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    """outer after inner; Kraus family of all products G_i F_j."""
    if inner.dim_out != outer.dim_in:
        raise ValueError("shape error: channel dimensions do not compose")
    return QuantumChannel(tuple(g @ f for g in outer.kraus for f in inner.kraus))


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel((np.eye(dim, dtype=complex),))


def isometric_extension(ch: QuantumChannel) -> Isometry:
    """V = sum_j F_j (x) |j>_E with environment dimension = number of Kraus operators.

    tr_E(V rho V†) reproduces the channel action; the output ordering is
    (system, environment).
    """
    k = len(ch.kraus)
    v = np.zeros((ch.dim_out * k, ch.dim_in), dtype=complex)
    for j, f in enumerate(ch.kraus):
        e = np.zeros(k, dtype=complex)
        e[j] = 1.0
        v += np.kron(f, e.reshape(-1, 1))
    return Isometry(v)


def complementary_matrix(ch: QuantumChannel, a: np.ndarray) -> np.ndarray:
    """Environment output tr_out(V a V†) of the canonical isometric extension
    V = sum_j F_j (x) |j>: the matrix of entries tr(F_j a F_j'†), Hermitian
    exactly (real diagonal, conjugate-symmetric off it).

    ``a`` is one d x d matrix, or an (n, d, d) stack that gives the (n, k, k)
    stack of environment outputs, each with the bits of the one-matrix call.
    Row j's entries j' >= j are one stacked product (F_j a) @ F_j'† over every
    input and its traces: memory is the conjugated Kraus family plus one row
    of products per input, never all k^2 of them.
    """
    k = len(ch.kraus)
    env = np.zeros(a.shape[:-2] + (k, k), dtype=complex)
    kraus_conj = np.array(ch.kraus)
    np.conjugate(kraus_conj, out=kraus_conj)
    kraus_dag = kraus_conj.swapaxes(1, 2)
    for j, f in enumerate(ch.kraus):
        vals = np.trace((f @ a)[..., None, :, :] @ kraus_dag[j:], axis1=-2, axis2=-1)
        env[..., j, j:] = vals
        env[..., j:, j] = np.conj(vals)
    return (env + env.conj().swapaxes(-1, -2)) / 2


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def standard_channel(kind: str, p: float) -> QuantumChannel:
    """Textbook qubit noise channels.

    kind one of "depolarizing", "dephasing", "bit_flip", "amplitude_damping".
    ``p`` is the noise parameter in [0, 1]; depolarizing(p) acts as
    rho -> (1-p) rho + p I/2 and dephasing(p) as rho -> (1-p) rho + p Z rho Z.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("bad parameter: p must be in [0, 1]")
    eye = np.eye(2, dtype=complex)
    if kind == "depolarizing":
        return QuantumChannel(
            (
                np.sqrt(1 - 3 * p / 4) * eye,
                np.sqrt(p / 4) * _PAULI_X,
                np.sqrt(p / 4) * _PAULI_Y,
                np.sqrt(p / 4) * _PAULI_Z,
            )
        )
    if kind == "dephasing":
        return QuantumChannel((np.sqrt(1 - p) * eye, np.sqrt(p) * _PAULI_Z))
    if kind == "bit_flip":
        return QuantumChannel((np.sqrt(1 - p) * eye, np.sqrt(p) * _PAULI_X))
    if kind == "amplitude_damping":
        k0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
        return QuantumChannel((k0, k1))
    raise ValueError(f"bad parameter: unknown channel kind {kind!r}")


def haar_random_subspace(dim_ambient: int, m: int, count: int, rng) -> np.ndarray:
    """``count`` isometries onto Haar-random m-dimensional subspaces, as one
    (count, dim_ambient, m) stack.

    QR of a complex Gaussian matrix with the R diagonal phase fixed, which is
    distributionally the same as Gram-Schmidt on independent Gaussian vectors.
    Sample i takes the real, then the imaginary Gaussian block after those of
    the samples before it, so a stack of n draws the same isometries as n
    stacks of one.  Every sample is checked as :class:`Isometry` checks one.
    ``rng`` is a seeded numpy Generator.
    """
    if m > dim_ambient:
        raise ValueError("bad parameter: m exceeds ambient dimension")
    x = rng.normal(size=(count, 2, dim_ambient, m))
    q, r = np.linalg.qr(x[:, 0] + 1j * x[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    q = q * (d / np.abs(d))[:, None, :]
    _check_orthonormal(q)
    return q
