"""CPTP maps as Kraus families: composition, tensor products, isometric
extensions, the environment output of the complementary channel, and the
textbook single-qubit fixtures.

Kraus families are kept exactly as given (no canonicalization); complementary
channels are therefore basis-dependent up to an isometry on the environment,
and anything that compares them should compare spectra only.  An n-fold
power (:func:`tensor_power`) keeps its single-use family and forms its K^n
operators when they are read (:class:`KrausPower`), so an n-use channel does
not hold a stack of 16 K^n d^2 bytes.  Its completeness is checked from the
base family.  A family whose operators have at most one nonzero entry per
row, purely real or purely imaginary (every textbook channel, its powers and
compositions), is applied from its :class:`KrausIndex` by gathers, with the
bits of the dense products and without forming an operator.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
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
    order, one stacked product per operator.  For a :class:`KrausPower` the
    sum over its K^n operators is S ⊗ ... ⊗ S (n factors), S the sum over
    its base family, equal in exact arithmetic; that is what is compared
    with I, and no power operator is formed.
    """
    power = isinstance(kraus, KrausPower)
    total = 0
    for k in kraus.base if power else kraus:
        total = total + k.conj().swapaxes(-1, -2) @ k
    if power:
        total = reduce(np.kron, [total] * kraus.n)
    deviation = np.abs(total - np.eye(np.shape(total)[-1])).max(initial=0.0)
    if not deviation <= CPTP_TOL:
        raise ValueError("invalid channel: Kraus completeness fails")
    return float(deviation)


def _kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a[i], b[i])`` for each i of the (c, p, r) and (c, q, s) stacks,
    bit for bit: one broadcast product written in (c, q, s, p, r) order, so
    that its inner loop runs along a row of ``a`` (about 1.7x faster than along
    a row of ``b`` at p = r = 64 and 2.5x at 128 on an x86-64 core)."""
    (c, p, r), (_, q, s) = a.shape, b.shape
    out = np.empty((c, p, q, r, s), dtype=complex)
    np.multiply(a[:, None, None], b[..., None, None], out=out.transpose(0, 2, 4, 1, 3), order="C")
    return out.reshape(c, p * q, r * s)


class KrausPower(Sequence):
    """Read-only family of the K^n Kraus operators of an n-fold tensor power,
    formed when they are read.

    Operator j is the left-to-right Kronecker chain of the ``base`` operators
    named by the j-th n-tuple in ``itertools.product`` order.  ``_form``
    forms the operators of an index array as one stack, by n - 1 row-wise
    Kronecker products of gathered base operators; ``family[j]`` calls it on
    j alone, and iteration reads one operator at a time.  ``shape`` is that
    of the (K^n, dout^n, din^n) stack the family stands for.
    """

    def __init__(self, base, n: int):
        self.base, self.n = np.array(base), n
        self.shape = tuple(x**n for x in self.base.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, j) -> np.ndarray:
        return self._form(np.array([range(len(self))[operator.index(j)]]))[0]

    def _form(self, idx: np.ndarray) -> np.ndarray:
        legs = np.unravel_index(idx, (len(self.base),) * self.n)
        return reduce(_kron_rows, (self.base[i] for i in legs))


@dataclass(frozen=True)
class KrausIndex:
    """Index form of the n-fold power of a row-monomial family (n = 1 for the
    family itself): row r of base operator j holds ``coefs[j, r]`` in column
    ``cols[j, r]`` and zeros elsewhere (column 0 and coefficient 0 in a zero
    row); ``din`` is the base's input dimension.

    ``chunks`` gives the (cols, coefs) of the K^n operators of the power in
    ``itertools.product`` order, as stacks of consecutive operators of at
    most ``CHECK_BLOCK_BYTES`` (at least one operator).  A power's column is
    the mixed-radix number of its legs' columns, and its coefficient the
    left-to-right product of theirs: the multiplications :class:`KrausPower`
    does for that entry, so each coefficient has the bits of the operator's
    entry.
    """

    cols: np.ndarray
    coefs: np.ndarray
    din: int
    n: int

    @classmethod
    def of(cls, base: np.ndarray, n: int) -> KrausIndex | None:
        """The index form of the n-fold power of the (K, dout, din) stack
        ``base``, or None unless every row of every operator has at most one
        nonzero entry, purely real or purely imaginary."""
        cols = (base != 0).argmax(-1)
        coefs = np.take_along_axis(base, cols[..., None], -1)[..., 0]
        # every nonzero entry of base is a coefficient, and none has two nonzero parts
        count = np.count_nonzero(coefs)
        if np.count_nonzero(base) != count or np.count_nonzero(coefs.real) + np.count_nonzero(coefs.imag) != count:
            return None
        return cls(cols, coefs, base.shape[2], n)

    def chunks(self):
        k, dout = self.cols.shape
        count = k**self.n
        step = max(1, CHECK_BLOCK_BYTES // (24 * dout**self.n))
        for start in range(0, count, step):
            first, *rest = np.unravel_index(np.arange(start, min(start + step, count)), (k,) * self.n)
            cols, coefs = self.cols[first], self.coefs[first]
            for i in rest:
                cols = (cols[:, :, None] * self.din + self.cols[i][:, None]).reshape(len(i), -1)
                coefs = (coefs[:, :, None] * self.coefs[i][:, None]).reshape(len(i), -1)
            yield cols, coefs


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive trace-preserving map held as a Kraus family.

    ``kraus`` is a sequence of matrices, kept as a tuple of complex arrays, or
    a :class:`KrausPower`, kept as it is.  Validates the completeness relation
    sum_j F_j† F_j = I to 1e-9 (:func:`check_kraus` on one family, which
    reads every operator of a tuple in order and only the base family of a
    power).  ``index`` is the family's :class:`KrausIndex` when it is
    row-monomial (a power's when its base family is), else None.
    """

    kraus: Sequence
    dim_out: int = field(init=False)
    dim_in: int = field(init=False)
    index: KrausIndex | None = field(init=False, repr=False)

    def __post_init__(self):
        ks = self.kraus
        if isinstance(ks, KrausPower):
            _, dout, din = ks.shape
            base, n = ks.base, ks.n
        else:
            ks = tuple(np.asarray(k, dtype=complex) for k in ks)
            if not ks:
                raise ValueError("invalid channel: no Kraus operators")
            if any(k.ndim != 2 or k.shape != ks[0].shape for k in ks):
                raise ValueError("shape error: inconsistent Kraus shapes")
            dout, din = ks[0].shape
            base, n = np.array(ks), 1
        check_kraus(ks)
        object.__setattr__(self, "kraus", ks)
        object.__setattr__(self, "dim_out", dout)
        object.__setattr__(self, "dim_in", din)
        object.__setattr__(self, "index", KrausIndex.of(base, n))


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
    return kraus_sum(ch.kraus, a, ch.index)


def kraus_terms(kraus, a: np.ndarray, index: KrausIndex | None = None):
    """F_j a F_j† for each j in order.

    ``kraus`` is the sequence of the Kraus operators F_j, as for
    :func:`check_kraus`: each a (..., dout, din) array over the batch shape
    of the (..., din, din) stack ``a``, which gives a stack of terms.  With
    the family's ``index``, term j is c_r a[σ_r, σ_s] conj(c_s) for the
    columns σ and coefficients c of F_j, rows first: one gather and two
    scalings, no operator and no product.  Each entry of the dense F_j a F_j†
    sums one such product and exact zeros, and a real or imaginary c rounds
    that product once per component, so the two agree bit for bit in every
    nonzero entry.  A zero entry's sign follows the kernel's order of
    operations and may differ.
    """
    if index is None:
        for k in kraus:
            yield k @ a @ k.conj().swapaxes(-1, -2)
        return
    a = np.asarray(a, dtype=complex)
    for cols, coefs in index.chunks():
        for s, c in zip(cols, coefs):
            # scaled in place: fresh arrays made an application at d = 256
            # about 1.4x slower
            term = a.take(s, -2).take(s, -1)
            term *= c[:, None]
            term *= c.conj()
            yield term


def kraus_sum(kraus, a: np.ndarray, index: KrausIndex | None = None) -> np.ndarray:
    """sum_j F_j a F_j† over the terms of :func:`kraus_terms`, summed over j
    in order from 0, so that every zero entry is +0 whatever the sign of the
    terms' zeros: the index form gives the bits of the dense products."""
    terms = kraus_terms(kraus, a, index)
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

    The power's family is a :class:`KrausPower` over ``ch``'s operators:
    each operator is formed when read, as the left-to-right ``np.kron`` chain
    of its tuple, bit for bit, never all 16 K^n d^2 bytes at once
    (d = dout^n).  The completeness check here forms none of them
    (:func:`check_kraus` on a power), and neither does an application when
    ``ch`` has an index form (the power's ``index``); otherwise every
    application forms and uses all K^n operators of d x d.
    """
    if n < 1:
        raise ValueError("bad parameter: n must be >= 1")
    if ch.dim_in**n > DIM_CAP or ch.dim_out**n > DIM_CAP:
        raise ValueError("dimension limit")
    return QuantumChannel(KrausPower(ch.kraus, n))


def compose(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    """outer after inner; Kraus family of all products G_i F_j."""
    if inner.dim_out != outer.dim_in:
        raise ValueError("shape error: channel dimensions do not compose")
    return QuantumChannel(tuple(g @ f for g, f in itertools.product(outer.kraus, inner.kraus)))


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
    Row j's entries j' >= j are the traces of one stacked product
    (F_j a) @ F_j'† over every input: memory is the conjugated Kraus family,
    read once, plus one row of products per input, never all k^2 of them.
    With the channel's ``index``, the diagonals of those products are
    gathered as in :func:`kraus_terms` and traced in the same (…, d, d)
    layout, so that ``np.trace`` sums them in the same order.
    """
    k, dout = len(ch.kraus), ch.dim_out
    env = np.zeros(a.shape[:-2] + (k, k), dtype=complex)
    if ch.index is None:
        kraus_conj = np.array(ch.kraus)
        np.conjugate(kraus_conj, out=kraus_conj)
        kraus_dag = kraus_conj.swapaxes(1, 2)

        def products(j):
            return (kraus_conj[j].conj() @ a)[..., None, :, :] @ kraus_dag[j:]

    else:
        cols, coefs = (np.concatenate(x) for x in zip(*ch.index.chunks()))

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
