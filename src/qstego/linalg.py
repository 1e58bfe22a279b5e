"""Dense complex linear algebra and quantum-state primitives.

States, measurement operators, and the spectral operations everything else
is built on.  All data is dense ``complex128``; value objects validate their
physical invariants at construction and are treated as immutable afterwards.
Logarithms are base 2 throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: hard ceiling on any composite Hilbert-space dimension
DIM_CAP = 4096
#: eigenvalues with absolute value below this are treated as exact zeros
#: when taking pseudo-inverse matrix powers
ZERO_CUT = 1e-12

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_TOL = 1e-10
VEC_NORM_TOL = 1e-12
POVM_SUM_TOL = 1e-9
#: bytes of matrices checked (Hermiticity, each Cholesky bound) or of index
#: rows formed (a chunk of a channels.KrausIndex) at once; about two blocks of
#: temporaries
CHECK_BLOCK_BYTES = 1 << 20


def as_matrix(x) -> np.ndarray:
    """Unwrap a state/operator object (or pass an ndarray through) as complex."""
    return np.asarray(getattr(x, "data", x), dtype=complex)


def _block_len(d: int) -> int:
    """d x d complex matrices in one block of ``CHECK_BLOCK_BYTES``, at least 1."""
    return max(1, CHECK_BLOCK_BYTES // max(1, 16 * d * d))


def herm_defect(a: np.ndarray) -> np.ndarray:
    """Max absolute entry of A - A† for each matrix A of the (..., d, d) stack
    ``a``: an array of shape ``a.shape[:-2]`` (0-d for one matrix), formed on
    blocks of about ``CHECK_BLOCK_BYTES``.  NaN entries give NaN."""
    n = math.prod(a.shape[:-2])
    step = _block_len(a.shape[-1])
    if n > step:
        flat = a.reshape((n,) + a.shape[-2:])
        return np.concatenate([herm_defect(flat[i : i + step]) for i in range(0, n, step)]).reshape(a.shape[:-2])
    diff = np.conjugate(a.swapaxes(-1, -2))
    np.subtract(a, diff, out=diff)
    return np.abs(diff).max(axis=(-2, -1), initial=0.0)


def _factors(a: np.ndarray, *bounds) -> bool:
    """Whether s A + t I has a Cholesky factor (is positive definite) for every
    matrix A of the (..., d, d) stack ``a`` and every (s, t) of ``bounds``,
    s = 1 or -1 so that s A is exact.  One ``cholesky`` call per block of at
    most ``CHECK_BLOCK_BYTES`` and per bound, on one shifted copy at a time;
    like ``eigvalsh`` it reads the lower triangle only.  It passes NaN and
    inf, which the Hermiticity check before it rejects."""
    n, d = math.prod(a.shape[:-2]), a.shape[-1]
    step = _block_len(d)
    blocks = (a,) if n <= step else (a.reshape((n, d, d))[i : i + step] for i in range(0, n, step))
    try:
        for block in blocks:
            for s, t in bounds:
                m = np.multiply(block, s, order="C")
                m.reshape(-1, d * d)[:, :: d + 1] += t
                np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


# The stacked checks below take a stack over any leading batch shape and raise
# the message of the first check that some matrix fails; the value objects
# call them on their one item.  Every bound is written so that NaN fails it;
# the Hermiticity check, which runs first, also fails on inf.


def check_states(a) -> np.ndarray:
    """``a`` as a complex (..., d, d) stack of density matrices.

    Raises ValueError("invalid state: ...") unless every matrix is Hermitian
    within 1e-10 (max entry), has a trace within 1e-10 of 1 and no
    eigenvalue below -1e-10, tested as: A + 1e-10 I has a Cholesky factor
    (:func:`_factors`).  No eigenvalue is computed.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("invalid state: not a square matrix")
    if not (herm_defect(a) <= HERM_TOL).all():
        raise ValueError("invalid state: not Hermitian")
    t = a.trace(axis1=-2, axis2=-1)
    if not ((abs(t.real - 1.0) <= TRACE_TOL) & (abs(t.imag) <= TRACE_TOL)).all():
        raise ValueError("invalid state: trace not 1")
    if a.size and not _factors(a, (1.0, EIG_TOL)):
        raise ValueError("invalid state: negative eigenvalue")
    return a


def check_povms(els) -> np.ndarray:
    """``els`` as a complex (..., n, d, d) stack of POVMs, the n elements of
    each along axis -3.

    Raises ValueError unless every element is Hermitian within 1e-10 (max
    entry), has its eigenvalues in [-1e-10, 1 + 1e-10], and the elements of
    each POVM sum to I within 1e-9 (max entry of the deviation).  The
    eigenvalue bounds are tested as: A + 1e-10 I and (1 + 1e-10) I - A have
    Cholesky factors (:func:`_factors`); no eigenvalue is computed.
    """
    els = np.asarray(els, dtype=complex)
    if els.ndim < 3 or els.shape[-1] != els.shape[-2]:
        raise ValueError("shape error: not a square matrix")
    if not els.shape[-3]:
        raise ValueError("invalid POVM: no elements")
    if not (herm_defect(els) <= HERM_TOL).all():
        raise ValueError("invalid operator: not Hermitian")
    if els.size and not _factors(els, (1.0, EIG_TOL), (-1.0, 1.0 + EIG_TOL)):
        raise ValueError("invalid POVM: element outside [0, 1]")
    deviation = np.abs(els.sum(axis=-3) - np.eye(els.shape[-1]))
    if not deviation.max(initial=0.0) <= POVM_SUM_TOL:
        raise ValueError("invalid POVM: elements do not sum to identity")
    return els


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive semidefinite, unit-trace Hermitian operator.

    Raises ValueError("invalid state") if the matrix is not Hermitian within
    1e-10 (max entry), has an eigenvalue below -1e-10, or its trace differs
    from 1 by more than 1e-10 (:func:`check_states` on one matrix).
    """

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=complex)
        if a.ndim != 2:
            raise ValueError("invalid state: not a square matrix")
        object.__setattr__(self, "data", check_states(a))

    @property
    def dim(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit column vector (Euclidean norm within 1e-12 of 1)."""

    data: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.data, dtype=complex).reshape(-1)
        if not abs(np.linalg.norm(v) - 1.0) <= VEC_NORM_TOL:
            raise ValueError("invalid state: vector not normalized")
        object.__setattr__(self, "data", v)

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.data, self.data.conj()))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian matrix (within 1e-10 max entry).  No library path builds one;
    ``perfbench/tracer.py`` wraps its check by name."""

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("shape error: not a square matrix")
        if not herm_defect(a) <= HERM_TOL:
            raise ValueError("invalid operator: not Hermitian")
        object.__setattr__(self, "data", a)


@dataclass(frozen=True, eq=False)
class Povm:
    """Measurement as positive operators summing to the identity.

    ``elements`` is one stacked (n, d, d) complex array, kept without a copy;
    element w is ``elements[w]``.  The elements are checked with
    :func:`check_povms`: Hermitian within 1e-10 (max entry), eigenvalues in
    [-1e-10, 1 + 1e-10] (two Cholesky tests, no eigensolve), and the elements
    must sum to I within 1e-9 (max entry of the deviation).
    """

    elements: np.ndarray

    def __post_init__(self):
        if np.ndim(self.elements) != 3:
            raise ValueError("shape error: not an (n, d, d) stack")
        object.__setattr__(self, "elements", check_povms(self.elements))

    @classmethod
    def batch(cls, elements: np.ndarray) -> tuple:
        """One POVM per leading index of an (N, n, d, d) stack, all checked by
        one :func:`check_povms` call instead of one per POVM; each holds its
        (n, d, d) slice of the stack."""
        if np.ndim(elements) != 4:
            raise ValueError("shape error: not a stack of POVMs")
        povms = []
        for e in check_povms(elements):
            povm = object.__new__(cls)
            object.__setattr__(povm, "elements", e)
            povms.append(povm)
        return tuple(povms)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i) -> np.ndarray:
        return self.elements[i]


def basis_state(index: int, dim: int) -> PureState:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return PureState(v)


def maximally_entangled(m: int) -> PureState:
    """|Phi> = (1/sqrt(M)) sum_i |i>|i> on dimension M*M."""
    v = np.zeros(m * m, dtype=complex)
    v[:: m + 1] = 1.0 / np.sqrt(m)
    return PureState(v)


def classically_correlated(m: int) -> DensityMatrix:
    """(1/M) sum_i |ii><ii| on dimension M*M."""
    a = np.zeros((m * m, m * m), dtype=complex)
    for i in range(m):
        a[i * m + i, i * m + i] = 1.0 / m
    return DensityMatrix(a)


def partial_trace_matrix(a: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem of the operator ``a`` not in ``keep``.

    ``dims`` lists the subsystem dimensions (their product must equal the
    operator's dimension, else ValueError("shape error")); ``keep`` is a set
    of subsystem indices to retain, in their original relative order.
    """
    dims = list(dims)
    n = len(dims)
    if int(np.prod(dims)) != a.shape[0] or a.shape[0] != a.shape[1]:
        raise ValueError("shape error: dims do not match operator")
    keep = sorted(set(keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError("shape error: keep index out of range")
    traced = [i for i in range(n) if i not in keep]
    t = a.reshape(dims + dims)
    for idx in sorted(traced, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(dims))
        dims = dims[:idx] + dims[idx + 1 :]
    d = int(np.prod(dims)) if dims else 1
    return t.reshape(d, d)


def trace_norm(x):
    """Trace norm of a Hermitian operator: sum of absolute eigenvalues.

    A float for one matrix; for an (n, d, d) stack, the ndarray of the n
    trace norms, each with the bits of its one-matrix call.  An eigensolver
    failure raises ``numpy.linalg.LinAlgError``.
    """
    a = as_matrix(x)
    norms = np.abs(np.linalg.eigvalsh(a)).sum(axis=-1)
    return float(norms) if a.ndim == 2 else norms


def _spectral(a: np.ndarray, f) -> np.ndarray:
    """f of each Hermitian matrix of a (..., d, d) stack, f acting on its
    eigenvalues, with the bits of the one-matrix call."""
    w, v = np.linalg.eigh(a)
    return (v * f(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix via its eigendecomposition; of each matrix
    of a (..., d, d) stack, with the bits of its one-matrix call."""
    return _spectral(a, lambda w: np.sqrt(np.maximum(w, 0.0)))


def inverse_sqrt(a: np.ndarray) -> np.ndarray:
    """a^(-1/2) of a positive definite matrix, or of each matrix of a
    (..., d, d) stack."""
    return _spectral(a, lambda w: 1.0 / np.sqrt(w))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity  F = ||sqrt(rho) sqrt(sigma)||_1^2,  in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValueError("shape error: dimension mismatch")
    s = psd_sqrt(rho.data) @ psd_sqrt(sigma.data)
    sv = np.linalg.svd(s, compute_uv=False)
    return float(min(sv.sum() ** 2, 1.0 + 1e-9))


def purify(rho: DensityMatrix) -> PureState:
    """Canonical purification sum_i sqrt(lam_i) |i>_R (x) |e_i>_S on dim^2.

    The reference factor comes first; tracing it out returns the input state.
    Eigenvalues are taken in descending order for determinism.
    """
    w, v = np.linalg.eigh(rho.data)
    order = np.argsort(w)[::-1]
    w, v = np.maximum(w[order], 0.0), v[:, order]
    d = rho.dim
    # row i holds sqrt(lam_i) |e_i>_S, the |i>_R block; += on zeros, not =,
    # stores a -0.0 product as +0.0
    vec = np.zeros((d, d), dtype=complex)
    for i in range(d):
        if w[i] <= 0.0:
            continue
        vec[i] += np.sqrt(w[i]) * v[:, i]
    vec = vec.reshape(-1)
    vec /= np.linalg.norm(vec)
    return PureState(vec)


def distinct_eigenvalue_counts(x, tols) -> list[int]:
    """Number of eigenvalue clusters at each tolerance in ``tols``, from one
    diagonalization: the sorted spectrum splits at every gap > tol."""
    if any(tol <= 0 for tol in tols):
        raise ValueError("bad parameter: tol must be positive")
    w = np.sort(np.linalg.eigvalsh(as_matrix(x)))
    return [1 + int(np.count_nonzero(np.diff(w) > tol)) for tol in tols]


def power_function(rho):
    """Functional calculus from one eigendecomposition: the function that maps
    a 1-D array of k exponents to the (k, d, d) stack of powers rho^a.

    ``rho`` is diagonalized once; each call forms its powers in that
    eigenbasis as one stacked product.  Eigenvalues below 1e-12 are treated as
    exact zeros; for negative exponents they map to 0 (pseudo-inverse on the
    support).  Each power is checked for Hermiticity (1e-10), and a power
    that fails the check is NaN throughout.
    """
    w, v = np.linalg.eigh(as_matrix(rho))
    w = np.where(w < ZERO_CUT, 0.0, w)
    support = w > 0.0
    base = np.where(support, w, 1.0)
    v_dag = v.conj().T

    def power(a):
        # one exponent per row; off the support 0^a is 0 (or 1 at a = 0)
        col = a[:, None]
        stack = (v * np.where(support, base**col, col == 0.0)[:, None, :]) @ v_dag
        stack[~(herm_defect(stack) <= HERM_TOL)] = np.nan
        return stack

    return power


def schmidt_decompose(v: PureState, dim_a: int, dim_b: int):
    """Schmidt decomposition of a bipartite vector.

    Returns ``(probs, vectors_a, vectors_b)`` with probs the squared Schmidt
    coefficients (a PMF, descending), so the vector reconstructs as
    sum_x sqrt(probs[x]) |a_x> (x) |b_x|.  vectors_a columns live on the first
    factor, vectors_b columns on the second.
    """
    vec = as_matrix(v).reshape(-1)
    if dim_a * dim_b != vec.shape[0]:
        raise ValueError("shape error: dims do not match vector")
    c = vec.reshape(dim_a, dim_b)
    u, s, vh = np.linalg.svd(c, full_matrices=False)
    return s**2, u, vh.T  # column k of vh.T is the k-th b-side vector
