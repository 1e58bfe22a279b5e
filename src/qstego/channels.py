"""CPTP maps as Kraus families: composition, tensor products, isometric
extensions, the environment output of the complementary channel, and the
textbook single-qubit fixtures.

Kraus families are kept exactly as given (no canonicalization); complementary
channels are therefore basis-dependent up to an isometry on the environment,
and anything that compares them should compare spectra only.  A family whose
operators have at most one nonzero entry per row, purely real or purely
imaginary (every textbook channel, its powers and compositions), is held as
its :class:`KrausIndex` and applied by gathers, with the bits of the dense
products.  Its n-fold power (:func:`tensor_power`) is that index with n legs,
so an n-use channel holds no stack of 16 K^n d^2 bytes.  Any other family is
a tuple of operators, and its power is the :func:`tensor` chain.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .linalg import CHECK_BLOCK_BYTES, DIM_CAP, DensityMatrix, as_matrix, check_states

CPTP_TOL = 1e-9


def check_kraus(kraus) -> float:
    """Raise ValueError("invalid channel: Kraus completeness fails") unless
    sum_j F_j† F_j = I within 1e-9 (max entry of the deviation) for every
    family of a batch; else return that max entry.

    ``kraus`` is the sequence of the K operators F_j, each a (..., dout, din)
    array over one batch shape: a tuple of matrices is one family, a
    (K, ..., dout, din) stack is a batch of families.  The sum runs over j in
    order, one stacked product per operator.  A :class:`KrausIndex` forms no
    operator: each base F_j† F_j is diagonal, |c_r|^2 at column σ(r), so its
    sum over the K^n operators is S ⊗ ... ⊗ S (n factors) for the base's
    diagonal sum S, equal in exact arithmetic; that is compared with I.
    """
    if isinstance(kraus, KrausIndex):
        s = np.bincount(kraus.cols.ravel(), np.abs(kraus.coefs.ravel()) ** 2, kraus.din)
        deviation = np.abs(reduce(np.kron, [s] * kraus.n) - 1).max()
    else:
        total = 0
        for k in kraus:
            total = total + k.conj().swapaxes(-1, -2) @ k
        deviation = np.abs(total - np.eye(np.shape(total)[-1])).max(initial=0.0)
    if not deviation <= CPTP_TOL:
        raise ValueError("invalid channel: Kraus completeness fails")
    return float(deviation)


@dataclass(frozen=True, eq=False)
class KrausIndex(Sequence):
    """The K^n Kraus operators of the n-fold power of a row-monomial family
    (n = 1 for the family itself), in ``itertools.product`` order: row r of
    base operator j holds ``coefs[j, r]`` in column ``cols[j, r]`` and zeros
    elsewhere (column 0 and coefficient 0 in a zero row); ``din`` is the
    base's input dimension.

    An operator's row holds the mixed-radix number of its legs' columns and
    the left-to-right product of their coefficients, the multiplications of
    its ``np.kron`` chain.  ``chunks`` gives the rows of all K^n operators in
    stacks of at most ``CHECK_BLOCK_BYTES`` (at least one operator);
    ``family[j]`` scatters operator j alone: the chain's operator plus 0.
    """

    cols: np.ndarray
    coefs: np.ndarray
    din: int
    n: int

    @classmethod
    def of(cls, base: np.ndarray) -> KrausIndex | None:
        """The index form of the (K, dout, din) stack ``base``, or None unless
        every row of every operator has at most one nonzero entry, purely real
        or purely imaginary."""
        cols = (base != 0).argmax(-1)
        coefs = np.take_along_axis(base, cols[..., None], -1)[..., 0]
        # every nonzero entry of base is a coefficient, and none has two nonzero parts
        count = np.count_nonzero(coefs)
        if np.count_nonzero(base) != count or np.count_nonzero(coefs.real) + np.count_nonzero(coefs.imag) != count:
            return None
        return cls(cols, coefs, base.shape[2], 1)

    def __len__(self) -> int:
        return len(self.cols) ** self.n

    def __getitem__(self, j) -> np.ndarray:
        (cols,), (coefs,) = self._rows(np.array([range(len(self))[operator.index(j)]]))
        out = np.zeros((len(cols), self.din**self.n), dtype=complex)
        out[np.arange(len(cols)), cols] = coefs + 0  # every zero part +0
        return out

    def _rows(self, idx: np.ndarray):
        """The (cols, coefs) stacks of the operators ``idx``."""
        first, *rest = np.unravel_index(idx, (len(self.cols),) * self.n)
        cols, coefs = self.cols[first], self.coefs[first]
        for i in rest:
            cols = (cols[:, :, None] * self.din + self.cols[i][:, None]).reshape(len(i), -1)
            coefs = (coefs[:, :, None] * self.coefs[i][:, None]).reshape(len(i), -1)
        return cols, coefs

    def chunks(self):
        count = len(self)
        step = max(1, CHECK_BLOCK_BYTES // (24 * self.cols.shape[1] ** self.n))
        for start in range(0, count, step):
            yield self._rows(np.arange(start, min(start + step, count)))


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Completely positive trace-preserving map held as a Kraus family
    (sum_j F_j† F_j = I to 1e-9, :func:`check_kraus`): ``kraus`` is its
    :class:`KrausIndex` when it is row-monomial (a given index is kept as it
    is), else the tuple of its operators as complex arrays."""

    kraus: Sequence
    dim_out: int = field(init=False)
    dim_in: int = field(init=False)

    def __post_init__(self):
        ks = self.kraus
        if isinstance(ks, KrausIndex):
            dout, din = ks.cols.shape[1] ** ks.n, ks.din**ks.n
        else:
            ks = tuple(np.asarray(k, dtype=complex) for k in ks)
            if not ks:
                raise ValueError("invalid channel: no Kraus operators")
            if any(k.ndim != 2 or k.shape != ks[0].shape for k in ks):
                raise ValueError("shape error: inconsistent Kraus shapes")
            dout, din = ks[0].shape
            index = KrausIndex.of(np.array(ks))
            ks = ks if index is None else index
        check_kraus(ks)
        object.__setattr__(self, "kraus", ks)
        object.__setattr__(self, "dim_out", dout)
        object.__setattr__(self, "dim_in", din)


def _check_orthonormal(v: np.ndarray) -> None:
    """Raise unless V†V = I within CPTP_TOL, for one matrix or each of a stack."""
    gram = v.conj().swapaxes(-1, -2) @ v
    if not np.max(np.abs(gram - np.eye(v.shape[-1]))) <= CPTP_TOL:
        raise ValueError("invalid isometry: columns not orthonormal")


@dataclass(frozen=True, eq=False)
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


def kraus_terms(kraus, a: np.ndarray):
    """F_j a F_j† for each j in order.

    ``kraus`` is the sequence of the Kraus operators F_j, as for
    :func:`check_kraus`: each a (..., dout, din) array over the batch shape
    of the (..., din, din) stack ``a``, which gives a stack of terms.  For a
    :class:`KrausIndex`, term j is c_r a[σ_r, σ_s] conj(c_s) for the columns
    σ and coefficients c of F_j, rows first: one gather and two scalings, no
    operator and no product.  Each entry of the dense F_j a F_j† sums one
    such product and exact zeros, and a real or imaginary c rounds that
    product once per component, so the two agree bit for bit in every
    nonzero entry; a zero entry's sign may differ.
    """
    if not isinstance(kraus, KrausIndex):
        for k in kraus:
            yield k @ a @ k.conj().swapaxes(-1, -2)
        return
    a = np.asarray(a, dtype=complex)
    for cols, coefs in kraus.chunks():
        for s, c in zip(cols, coefs):
            # scaled in place: fresh arrays made an application at d = 256
            # about 1.4x slower
            term = a.take(s, -2).take(s, -1)
            term *= c[:, None]
            term *= c.conj()
            yield term


def kraus_sum(kraus, a: np.ndarray) -> np.ndarray:
    """sum_j F_j a F_j† over the terms of :func:`kraus_terms`, summed over j
    in order from 0, so that every zero entry is +0 whatever the sign of the
    terms' zeros: a :class:`KrausIndex` gives the bits of the dense products."""
    terms = kraus_terms(kraus, a)
    out = 0 + next(terms)  # a new array, summed into in place
    for term in terms:
        out += term
    return out


def tensor(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Kronecker product of two channels (all pairwise Kraus products)."""
    if a.dim_in * b.dim_in > DIM_CAP or a.dim_out * b.dim_out > DIM_CAP:
        raise ValueError("dimension limit")
    return QuantumChannel(tuple(np.kron(f, g) for f, g in itertools.product(a.kraus, b.kraus)))


def tensor_power(ch: QuantumChannel, n: int) -> QuantumChannel:
    """n-fold Kronecker power; Kraus operators indexed by n-tuples in
    ``itertools.product`` order.

    A row-monomial ``ch``'s power is its :class:`KrausIndex` with n times its
    legs, each operator formed only when read; any other ``ch``'s is the
    :func:`tensor` chain of n copies, all K^n operators formed.
    """
    if n == 1:
        return ch
    if ch.dim_in**n > DIM_CAP or ch.dim_out**n > DIM_CAP:
        raise ValueError("dimension limit")
    if not isinstance(ch.kraus, KrausIndex):
        return reduce(tensor, [ch] * n)
    return QuantumChannel(replace(ch.kraus, n=ch.kraus.n * n))


def compose(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    """outer after inner; Kraus family of all products G_i F_j."""
    if inner.dim_out != outer.dim_in:
        raise ValueError("shape error: channel dimensions do not compose")
    return QuantumChannel(tuple(g @ f for g, f in itertools.product(outer.kraus, inner.kraus)))


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel((np.eye(dim, dtype=complex),))


def isometric_extension(ch: QuantumChannel) -> np.ndarray:
    """The matrix V = sum_j F_j (x) |j>_E, one environment level per Kraus
    operator, every zero part +0: tr_E(V rho V†) reproduces the channel action,
    the output ordering is (system, environment), and V†V = sum_j F_j† F_j = I
    by the channel's check."""
    return np.stack(list(ch.kraus), axis=1).reshape(ch.dim_out * len(ch.kraus), ch.dim_in) + 0


def complementary_matrix(ch: QuantumChannel, a: np.ndarray) -> np.ndarray:
    """Environment output tr_out(V a V†) of the canonical isometric extension
    V = sum_j F_j (x) |j>: the matrix of entries tr(F_j a F_j'†), Hermitian
    exactly (real diagonal, conjugate-symmetric off it).

    ``a`` is one d x d matrix, or an (n, d, d) stack that gives the (n, k, k)
    stack of environment outputs, each with the bits of the one-matrix call.
    Row j's entries j' >= j are the traces of one stacked product
    (F_j a) @ F_j'† over every input: memory is the conjugated Kraus family,
    read once, plus one row of products per input, never all k^2 of them.
    For a :class:`KrausIndex`, the diagonals of those products are gathered
    as in :func:`kraus_terms` and traced in the same (…, d, d) layout, so
    that ``np.trace`` sums them in the same order.
    """
    if a.shape[-2:] != (ch.dim_in, ch.dim_in):
        raise ValueError("shape error: state does not match channel input")
    k, dout = len(ch.kraus), ch.dim_out
    env = np.zeros(a.shape[:-2] + (k, k), dtype=complex)
    if not isinstance(ch.kraus, KrausIndex):
        kraus_conj = np.array(ch.kraus)
        np.conjugate(kraus_conj, out=kraus_conj)
        kraus_dag = kraus_conj.swapaxes(1, 2)

        def products(j):
            return (kraus_conj[j].conj() @ a)[..., None, :, :] @ kraus_dag[j:]

    else:
        cols, coefs = (np.concatenate(x) for x in zip(*ch.kraus.chunks()))

        def products(j):
            out = np.zeros(a.shape[:-2] + (k - j, dout, dout), dtype=complex)
            diag = coefs[j] * a[..., cols[j], cols[j:]] * coefs[j:].conj()
            out.reshape(out.shape[:-2] + (-1,))[..., :: dout + 1] = diag
            return out

    for j in range(k):
        vals = np.trace(products(j), axis1=-2, axis2=-1)
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
