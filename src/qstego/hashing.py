"""Constructive privacy-amplification encoders.

A hash f : X -> [M] together with the Bayes-inverted conditional Q_{X|W}
realizes the privacy-amplification existence statement: picking
W uniform and X ~ Q_{X|W} induces an X-marginal close to the target PMF while
f decodes W back.  The quantum version applies the same machinery to the
eigenbasis of a target state.  Hashes are found by exhaustive search over all
function tables when that is cheap, otherwise by seeded random search over
``ATTEMPTS`` tables; achieved defects are always measured and reported, never
assumed from the rate bound.

Tables are scored by :func:`_score`, which gives every table of a stack the
float bits it gets when scored alone; :func:`encoder_from_hash` is that
function on a batch of one.  Both searches therefore score each table
once, in fixed chunks of ``CHUNK_BYTES`` per temporary array, rank the exact
keys directly (no tie is re-scored) and build only the winner's encoder; the
table found does not depend on the chunk size.

The quantum code is built from blocks of eigenbasis-projector rows of about
``ROW_BYTES`` each: O(M d^2) memory for M messages, not the 16 d^3 bytes of
every projector at once, with the whole tensor's per-entry arithmetic.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .info import as_pmf
from .linalg import DensityMatrix, Povm

#: exhaustive search is used when M ** |X| does not exceed this
EXHAUSTIVE_LIMIT = 1 << 16
#: random tables drawn when the search is not exhaustive
ATTEMPTS = 64
#: size of the largest temporary array of one chunk of a hash search
CHUNK_BYTES = 1 << 17
#: size of one block of projector rows in :func:`build_quantum_hash`
ROW_BYTES = 1 << 22


@dataclass(frozen=True)
class HashEncoder:
    """Hash f over alphabet X plus the conditional rows Q_{X|W}.

    defect      = || Q_X - P_X ||_1 for the induced X-marginal
    output_defect = || P_{f(X)} - uniform ||_1
    error_prob  = P[W != f(X)] under W uniform, X ~ Q_{X|W}
    px_fallback marks rows with empty hash preimage, where the conditional
    falls back to P_X itself and decoding that row necessarily fails.
    """

    m: int
    f: np.ndarray
    cond: np.ndarray
    defect: float
    output_defect: float
    error_prob: float
    warning: bool = False
    px_fallback: bool = False


@dataclass(frozen=True)
class QuantumHashCode:
    """Per-message states g(w) diagonal in the target's eigenbasis, plus the
    matching eigenbasis-projector POVM."""

    m: int
    states: tuple
    povm: Povm
    f: np.ndarray
    defect: float
    success: float
    warning: bool = False


def _score(p: np.ndarray, m: int, tables: np.ndarray):
    """Q_{X|W}, defect, output defect and decode error of every row of
    ``tables`` (k hash tables over |X| symbols, shape (k, |X|)).

    Each value has the bits of the same table scored alone, one preimage at a
    time (p_w as ``p[preimage].sum()``, Q_X as ``cond.mean(axis=0)``): every
    sum over x runs along a contiguous last axis, where numpy sums each row as
    it sums a 1-D array, and the sum over w runs down axis 1 a row at a time,
    as ``mean(axis=0)`` of one table's (M, |X|) array does.
    """
    k, nx = tables.shape
    cells = (tables + m * np.arange(k)[:, None]).ravel()
    sizes = np.bincount(cells, minlength=k * m).reshape(k, m)
    # p_w: numpy sums fewer than 8 entries left to right, as bincount adds
    # its weights, and 8 or more pairwise, so those preimages are summed
    # compacted, grouped by size
    p_w = np.bincount(cells, weights=np.tile(p, k), minlength=k * m).reshape(k, m)
    pre = tables[:, None, :] == np.arange(m)[:, None]
    cond = pre * p
    for s in set(sizes[sizes >= 8].tolist()):
        big = sizes == s
        p_w[big] = cond[big][pre[big]].reshape(-1, s).sum(axis=1)
    # Bayes rows p(x)/p_w on the preimage; uniform rows when p_w = 0; an empty
    # preimage (so p_w = 0) falls back to P_X, decoded wrong with probability one
    bayes = p_w > 0.0
    cond /= np.where(bayes, p_w, 1.0)[..., None]
    error = np.zeros(k)
    if not bayes.all():
        uniform = ~bayes & (sizes > 0)
        cond[uniform] = pre[uniform] / sizes[uniform][:, None]
        empty = sizes == 0
        cond[empty] = p
        # the error sums cond * ~preimage, which is P_X on fallback rows, zero
        # elsewhere, over all M |X| entries
        some = empty.any(axis=1)
        error[some] = (empty[some][..., None] * p).reshape(-1, m * nx).sum(axis=1) / m
    defect = np.abs(cond.sum(axis=1) / m - p).sum(axis=1)
    output_defect = np.abs(p_w - 1.0 / m).sum(axis=1)
    return cond, defect, output_defect, error


def encoder_from_hash(f: np.ndarray, p, m: int) -> HashEncoder:
    """Build the Bayes-inverted encoder for a given hash table and measure it.

    Rows with positive hash-output probability are exact Bayes posteriors
    (supported on the preimage, so they decode perfectly).  Zero-probability
    rows use the uniform distribution over the preimage when it is nonempty,
    and fall back to P_X itself (flagged) when the preimage is empty.
    """
    p = as_pmf(p)
    f = np.asarray(f, dtype=int)
    if f.shape != p.shape or not ((0 <= f) & (f < m)).all():
        raise ValueError("bad parameter: the hash table must map each symbol into range(M)")
    cond, defect, output_defect, error = _score(p, m, f[None])
    return HashEncoder(
        m=m,
        f=f,
        cond=cond[0],
        defect=float(defect[0]),
        output_defect=float(output_defect[0]),
        error_prob=float(error[0]),
        px_fallback=bool(np.bincount(f, minlength=m).min() == 0),
    )


def build_classical_hash(
    p,
    m: int,
    eps: float,
    seed=None,
    objective: str = "marginal",
) -> HashEncoder:
    """Search for a hash achieving defect <= eps.

    ``objective`` selects the minimized defect: "marginal" is the X-marginal
    defect ||Q_X - P_X||_1 of the full encoder (the encoder guarantee), while
    "output" is ||P_{f(X)} - uniform||_1 (what the label-hashing protocols
    need).  Tables are ranked by (max(lead, error), lead, error), where lead
    is the selected defect and error the decode error.

    When M^|X| <= ``EXHAUSTIVE_LIMIT`` the search is exhaustive: it returns
    the first table in lexicographic order (that of
    ``itertools.product(range(M), repeat=|X|)``) with the least key.  Every
    table is scored once, in chunks of about ``CHUNK_BYTES`` per temporary
    array, with the bits :func:`encoder_from_hash` gives it, so a chunk's
    first least key (a stable lexsort) is exact; the search stops after the
    chunk in which the key reaches zero, and builds only the winner's
    encoder.  Otherwise it scans ``ATTEMPTS`` seeded random function tables,
    drawn one ``rng.integers`` call per table and scored in the same chunks,
    up to the first whose key meets ``eps``, and returns the first least key
    of those; a chunk may draw tables past that one, which are not ranked.
    Either way the table returned does not depend on the chunk size.  Always
    returns the best table found, with ``warning`` set when the target was
    missed.
    """
    if m < 1:
        raise ValueError("bad parameter: M must be >= 1")
    if not 0.0 <= eps <= 2.0:
        raise ValueError("bad parameter: eps must be in [0, 2]")
    if objective not in ("marginal", "output"):
        raise ValueError(f"bad parameter: unknown objective {objective!r}")
    p = as_pmf(p)
    nx = p.size
    if m == 1:
        return encoder_from_hash(np.zeros(nx, dtype=int), p, 1)

    step = max(1, CHUNK_BYTES // (8 * m * nx))
    if m**nx <= EXHAUSTIVE_LIMIT:
        # table i of the lexicographic order has the base-M digits of i as entries
        places = m ** np.arange(nx - 1, -1, -1)
        chunks = (np.arange(i, min(i + step, m**nx))[:, None] // places % m for i in range(0, m**nx, step))
        stop = 0.0
    else:
        rng = np.random.default_rng(seed)
        # one draw per table, so a table's entries do not depend on the chunking
        chunks = (
            np.array([rng.integers(0, m, size=nx) for _ in range(min(step, ATTEMPTS - i))])
            for i in range(0, ATTEMPTS, step)
        )
        stop = eps
    best_key = None
    for tables in chunks:
        _, defect, output_defect, error = _score(p, m, tables)
        lead = defect if objective == "marginal" else output_defect
        # the guarantee needs BOTH the defect and the decode error small; ranking
        # by max first stops P_X-fallback rows from gaming the marginal defect
        keys = np.maximum(lead, error), lead, error
        # the scan ends at the first table whose key meets ``stop``
        met = keys[0] <= stop
        n = int(met.argmax()) + 1 if met.any() else len(tables)
        j = np.lexsort(tuple(v[:n] for v in keys[::-1]))[0]
        key = tuple(float(v[j]) for v in keys)
        if best_key is None or key < best_key:
            best_key, best_f = key, tables[j].copy()
        if best_key[0] <= stop:
            break
    best = encoder_from_hash(best_f, p, m)
    if best_key[0] > eps:
        best = dataclasses.replace(best, warning=True)
    return best


def build_quantum_hash(rho: DensityMatrix, m: int, eps: float, seed=None) -> QuantumHashCode:
    """Quantum privacy-amplification code for a target state.

    The classical hash is built for the spectrum of ``rho`` (descending);
    g(w) = sum_x Q_{X|W}(x|w) |x><x| and Lambda^w = sum_{x: f(x)=w} |x><x| in
    the eigenbasis, so (1/M) sum_w g(w) misses rho by exactly the classical
    defect and the average decode success is exactly 1 - P[W != f(X)].

    The projectors |x><x| are formed a block of rows at a time, and each
    block's rows of every g(w) and Lambda^w are written in place: memory is
    the 2 M d x d outputs plus one block of about ``ROW_BYTES``, not the
    d x d x d tensor of every projector.  Each entry is the same elementwise
    product, then the same gemv over x that ``np.tensordot(cond[w],
    projectors, axes=(0, 0))`` runs, or the same sequential sum over x for
    Lambda^w (an empty preimage sums to zero).  A gemv rounds the entries of
    its ragged end apart from those of its vector body, so every block but the
    last spans a multiple of 8 entries per projector; the bits then equal the
    whole-tensor build's wherever BLAS cuts both into the same vector chunks
    (with OpenBLAS: one thread, or two threads and d a multiple of 4).  When
    one block covers all d rows (d <= 64), the BLAS calls are the whole
    tensor's.
    """
    w, v = np.linalg.eigh(rho.data)
    order = np.argsort(w)[::-1]
    lam, basis = np.maximum(w[order], 0.0), v[:, order]
    lam = lam / lam.sum()
    enc = build_classical_hash(lam, m, eps, seed=seed)
    d = rho.dim
    # whole multiples of 8 entries per projector in every block but the last
    unit = 8 // math.gcd(d, 8)
    step = max(unit, ROW_BYTES // (16 * d * d) // unit * unit)
    preimages = enc.f == np.arange(m)[:, None]
    states = np.empty((m, d, d), dtype=complex)
    elements = np.empty((m, d, d), dtype=complex)
    basis_conj = basis.conj()
    for i in range(0, d, step):
        # rows i:i+step of every projector, indexed [x, row, column]
        block = np.einsum("ix,jx->xij", basis[i : i + step], basis_conj)
        flat = block.reshape(d, -1)
        for w_, pre in enumerate(preimages):
            # np.tensordot(cond[w], block, axes=(0, 0)), written in place
            np.dot(enc.cond[w_][None], flat, out=states[w_, i : i + step].reshape(1, -1))
            np.sum(block[pre], axis=0, out=elements[w_, i : i + step])
    return QuantumHashCode(
        m=m,
        states=tuple(DensityMatrix(g) for g in states),
        povm=Povm(elements),
        f=enc.f,
        defect=enc.defect,
        success=1.0 - enc.error_prob,
        warning=enc.warning,
    )
