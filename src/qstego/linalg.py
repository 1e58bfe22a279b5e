"""Dense complex linear algebra and quantum-state primitives.

States, measurement operators, and the spectral operations everything else
is built on.  All data is dense ``complex128``; value objects validate their
physical invariants at construction and are treated as immutable afterwards.
Logarithms are base 2 throughout the package.
"""

from __future__ import annotations

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


def as_matrix(x) -> np.ndarray:
    """Unwrap a state/operator object (or pass an ndarray through) as complex."""
    return np.asarray(getattr(x, "data", x), dtype=complex)


def herm_defect(a: np.ndarray) -> float:
    """Max absolute entry of A - A†."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semidefinite, unit-trace Hermitian operator.

    Raises ValueError("invalid state") if the matrix is not Hermitian within
    1e-10 (max entry), has an eigenvalue below -1e-10, or its trace differs
    from 1 by more than 1e-10.
    """

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("invalid state: not a square matrix")
        if herm_defect(a) > HERM_TOL:
            raise ValueError("invalid state: not Hermitian")
        if abs(np.trace(a).real - 1.0) > TRACE_TOL or abs(np.trace(a).imag) > TRACE_TOL:
            raise ValueError("invalid state: trace not 1")
        if np.linalg.eigvalsh(a).min() < -EIG_TOL:
            raise ValueError("invalid state: negative eigenvalue")
        object.__setattr__(self, "data", a)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class PureState:
    """Unit column vector (Euclidean norm within 1e-12 of 1)."""

    data: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.data, dtype=complex).reshape(-1)
        if abs(np.linalg.norm(v) - 1.0) > VEC_NORM_TOL:
            raise ValueError("invalid state: vector not normalized")
        object.__setattr__(self, "data", v)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.data, self.data.conj()))


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix (within 1e-10 max entry)."""

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("shape error: not a square matrix")
        if herm_defect(a) > HERM_TOL:
            raise ValueError("invalid operator: not Hermitian")
        object.__setattr__(self, "data", a)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class Povm:
    """Measurement as positive operators summing to the identity.

    Completeness is checked to 1e-9 (max entry of the deviation from I) and
    each element must have eigenvalues in [-1e-10, 1 + 1e-10].
    """

    elements: tuple

    def __post_init__(self):
        els = tuple(
            e if isinstance(e, HermitianOperator) else HermitianOperator(as_matrix(e))
            for e in self.elements
        )
        if not els:
            raise ValueError("invalid POVM: no elements")
        dim = els[0].dim
        total = np.zeros((dim, dim), dtype=complex)
        for e in els:
            if e.dim != dim:
                raise ValueError("shape error: POVM element dimension mismatch")
            w = np.linalg.eigvalsh(e.data)
            if w.min() < -EIG_TOL or w.max() > 1.0 + EIG_TOL:
                raise ValueError("invalid POVM: element outside [0, 1]")
            total += e.data
        if np.max(np.abs(total - np.eye(dim))) > POVM_SUM_TOL:
            raise ValueError("invalid POVM: elements do not sum to identity")
        object.__setattr__(self, "elements", els)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i) -> HermitianOperator:
        return self.elements[i]

    @property
    def dim(self) -> int:
        return self.elements[0].dim


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


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states.

    Raises ValueError("dimension limit") when the product dimension exceeds
    the configured cap (4096).
    """
    if a.dim * b.dim > DIM_CAP:
        raise ValueError("dimension limit")
    return DensityMatrix(np.kron(a.data, b.data))


def partial_trace(rho, dims, keep) -> DensityMatrix:
    """Trace out every subsystem not in ``keep``.

    ``dims`` lists the subsystem dimensions (their product must equal the
    state's dimension, else ValueError("shape error")); ``keep`` is a set of
    subsystem indices to retain, in their original relative order.
    """
    a = partial_trace_matrix(as_matrix(rho), dims, keep)
    return DensityMatrix(a)


def partial_trace_matrix(a: np.ndarray, dims, keep) -> np.ndarray:
    """partial_trace on a raw matrix, without state validation."""
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


def permute_systems_matrix(a: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder tensor factors of an operator, rows and columns alike."""
    n = len(dims)
    t = np.asarray(a, dtype=complex).reshape(list(dims) + list(dims))
    t = t.transpose(list(perm) + [p + n for p in perm])
    d = int(np.prod(dims))
    return t.reshape(d, d)


def trace_norm(x) -> float:
    """Trace norm of a Hermitian operator: sum of absolute eigenvalues."""
    a = as_matrix(x)
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ArithmeticError("numerical error: eigensolver failure") from exc
    return float(np.abs(w).sum())


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix via its eigendecomposition."""
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


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
    vec = np.zeros(d * d, dtype=complex)
    for i in range(d):
        if w[i] <= 0.0:
            continue
        vec += np.sqrt(w[i]) * np.kron(np.eye(d)[:, i], v[:, i])
    vec /= np.linalg.norm(vec)
    return PureState(vec)


def distinct_eigenvalue_count(x, tol: float = 1e-8) -> int:
    """Number of eigenvalue clusters after splitting the sorted spectrum at gaps > tol."""
    if tol <= 0:
        raise ValueError("bad parameter: tol must be positive")
    w = np.sort(np.linalg.eigvalsh(as_matrix(x)))
    if w.size == 0:
        return 0
    return 1 + int(np.count_nonzero(np.diff(w) > tol))


def matrix_power(rho, a: float) -> HermitianOperator:
    """Functional calculus rho^a in the eigenbasis.

    Eigenvalues below 1e-12 are treated as exact zeros; for negative
    exponents they map to 0 (pseudo-inverse on the support).
    """
    m = as_matrix(rho)
    w, v = np.linalg.eigh(m)
    w = np.where(w < ZERO_CUT, 0.0, w)
    if a < 0:
        powered = np.where(w > 0.0, w, 1.0) ** a
        powered = np.where(w > 0.0, powered, 0.0)
    else:
        powered = w**a
    return HermitianOperator((v * powered) @ v.conj().T)


def support_projector(rho) -> np.ndarray:
    """Projector onto the eigenspaces with eigenvalue above the zero cutoff."""
    m = as_matrix(rho)
    w, v = np.linalg.eigh(m)
    keep = w >= ZERO_CUT
    return (v[:, keep]) @ v[:, keep].conj().T


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
