"""Constructive privacy-amplification encoders.

A hash f : X -> [M] together with the Bayes-inverted conditional Q_{X|W}
realizes the privacy-amplification existence statement: picking
W uniform and X ~ Q_{X|W} induces an X-marginal close to the target PMF while
f decodes W back.  The quantum version applies the same machinery to the
eigenbasis of a target state.  Hashes are found by exhaustive search over all
function tables when that is cheap, otherwise by seeded random search over
``ATTEMPTS`` tables; achieved defects are always measured and reported, never
assumed from the rate bound.

The exhaustive search runs in two stages.  A batch score computes every
table's lead key max(defect, error) with numpy reductions, in chunks of
``CHUNK_BYTES`` per temporary array; its sums run in another order than
:func:`encoder_from_hash`'s, so its keys agree with the encoder's to rounding
(~1e-15) only.  The tables within ``TIE_MARGIN`` of the batch minimum are then
re-scored with :func:`encoder_from_hash`, in lexicographic order, so the
encoder's own float bits break every tie.

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
#: size of the largest temporary array of one chunk of the exhaustive batch score
CHUNK_BYTES = 1 << 15
#: tables whose batch key is within this of the batch minimum are re-scored
#: exactly; far above the batch score's rounding, far below any real gap
TIE_MARGIN = 1e-9
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


def encoder_from_hash(f: np.ndarray, p, m: int) -> HashEncoder:
    """Build the Bayes-inverted encoder for a given hash table and measure it.

    Rows with positive hash-output probability are exact Bayes posteriors
    (supported on the preimage, so they decode perfectly).  Zero-probability
    rows use the uniform distribution over the preimage when it is nonempty,
    and fall back to P_X itself (flagged) when the preimage is empty.
    """
    p = as_pmf(p)
    f = np.asarray(f, dtype=int)
    preimages = f == np.arange(m)[:, None]
    cond = np.zeros(preimages.shape)
    p_w = np.array([p[pre].sum() for pre in preimages])
    px_fallback = False
    for w, pre in enumerate(preimages):
        if p_w[w] > 0.0:
            cond[w, pre] = p[pre] / p_w[w]
        elif pre.any():
            cond[w, pre] = 1.0 / pre.sum()
        else:
            cond[w] = p
            px_fallback = True
    defect = float(np.abs(cond.mean(axis=0) - p).sum())
    error = float((cond * ~preimages).sum() / m)
    output_defect = float(np.abs(p_w - 1.0 / m).sum())
    return HashEncoder(
        m=m,
        f=f,
        cond=cond,
        defect=defect,
        output_defect=output_defect,
        error_prob=error,
        px_fallback=px_fallback,
    )


def _batch_keys(p: np.ndarray, m: int, objective: str, tables: np.ndarray) -> np.ndarray:
    """The lead key max(lead, error) of :func:`build_classical_hash` for each
    row of ``tables`` (one hash table per row), as array reductions.

    Equal to the keys of :func:`encoder_from_hash` up to rounding: the sums
    run in another order.  Whether a preimage has positive probability, and
    so which row of Q_{X|W} is Bayes, uniform or the P_X fallback, is exact.
    """
    k = tables.shape[0]
    cells = (tables + m * np.arange(k)[:, None]).ravel()
    p_w = np.bincount(cells, weights=np.tile(p, k), minlength=k * m).reshape(k, m)
    sizes = np.bincount(cells, minlength=k * m).reshape(k, m)
    # Bayes and uniform rows sit on their preimage and decode exactly; each
    # fallback row is P_X, decoded wrong with probability one
    fallback = np.count_nonzero(sizes == 0, axis=1)
    error = fallback * p.sum() / m
    if objective == "output":
        lead = np.abs(p_w - 1.0 / m).sum(axis=1)
    else:
        # x lies in the one preimage f(x), whose row gives it p(x)/p_w, or
        # 1/|preimage| when p_w = 0; every fallback row gives it p(x)
        own_pw = np.take_along_axis(p_w, tables, axis=1)
        own_size = np.take_along_axis(sizes, tables, axis=1)
        own = np.where(own_pw > 0.0, p / np.where(own_pw > 0.0, own_pw, 1.0), 1.0 / own_size)
        q_x = (own + fallback[:, None] * p) / m
        lead = np.abs(q_x - p).sum(axis=1)
    return np.maximum(lead, error)


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

    When M^|X| <= ``EXHAUSTIVE_LIMIT`` the search is exhaustive, and returns
    the first table in lexicographic order with the least key, as a loop
    over ``itertools.product(range(M), repeat=|X|)`` that scores each table
    with :func:`encoder_from_hash` and stops at an exact-zero lead key would.
    A batch score (:func:`_batch_keys`) ranks every table in chunks of about
    ``CHUNK_BYTES`` per temporary array; only the tables within
    ``TIE_MARGIN`` of its minimum are re-scored with
    :func:`encoder_from_hash`, in lexicographic order, and the re-score stops
    at an exact-zero lead key.  Otherwise ``ATTEMPTS`` seeded random
    function tables are scored one by one.  Always returns the best table
    found, with ``warning`` set when the target was missed.
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

    best = None
    best_key = None

    def consider(table):
        nonlocal best, best_key
        enc = encoder_from_hash(np.asarray(table, dtype=int), p, m)
        lead = enc.defect if objective == "marginal" else enc.output_defect
        # the guarantee needs BOTH the defect and the decode error small; ranking
        # by max first stops P_X-fallback rows from gaming the marginal defect
        key = (max(lead, enc.error_prob), lead, enc.error_prob)
        if best_key is None or key < best_key:
            best, best_key = enc, key

    if m**nx <= EXHAUSTIVE_LIMIT:
        # table i of the lexicographic order has the base-M digits of i as entries
        places = m ** np.arange(nx - 1, -1, -1)
        step = max(1, CHUNK_BYTES // (8 * max(m, nx)))

        def chunks():
            for start in range(0, m**nx, step):
                index = np.arange(start, min(start + step, m**nx))
                yield index, _batch_keys(p, m, objective, index[:, None] // places % m)

        # two passes over the chunks, so no key array spans the whole search
        floor = min(float(keys.min()) for _, keys in chunks())
        near = (i for index, keys in chunks() for i in index[keys <= floor + TIE_MARGIN])
        for i in near:
            consider(i // places % m)
            if best_key[0] == 0.0:
                break
    else:
        rng = np.random.default_rng(seed)
        for _ in range(ATTEMPTS):
            consider(rng.integers(0, m, size=nx))
            if best_key[0] <= eps:
                break
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
    for i in range(0, d, step):
        # rows i:i+step of every projector, indexed [x, row, column]
        block = np.einsum("ix,jx->xij", basis[i : i + step], basis.conj())
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
