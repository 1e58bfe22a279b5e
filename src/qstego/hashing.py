"""Constructive privacy-amplification encoders.

A hash f : X -> [M] together with the Bayes-inverted conditional Q_{X|W}
realizes the privacy-amplification existence statement: picking
W uniform and X ~ Q_{X|W} induces an X-marginal close to the target PMF while
f decodes W back.  The quantum version applies the same machinery to the
eigenbasis of a target state.  Hashes are found by exhaustive search over all
function tables when that is cheap, otherwise by seeded random search over
``ATTEMPTS`` tables; achieved defects are always measured and reported, never
assumed from the rate bound.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .info import as_pmf
from .linalg import DensityMatrix, HermitianOperator, Povm

#: exhaustive search is used when M ** |X| does not exceed this
EXHAUSTIVE_LIMIT = 1 << 16
#: random tables drawn when the search is not exhaustive
ATTEMPTS = 64


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
    nx = p.size
    f = np.asarray(f, dtype=int)
    cond = np.zeros((m, nx))
    p_w = np.array([p[f == w].sum() for w in range(m)])
    px_fallback = False
    for w in range(m):
        pre = f == w
        if p_w[w] > 0.0:
            cond[w, pre] = p[pre] / p_w[w]
        elif pre.any():
            cond[w, pre] = 1.0 / pre.sum()
        else:
            cond[w] = p
            px_fallback = True
    defect, error = _quality(f, cond, p, m)
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


def _quality(f: np.ndarray, cond: np.ndarray, p: np.ndarray, m: int) -> tuple[float, float]:
    q_x = cond.mean(axis=0)
    defect = float(np.abs(q_x - p).sum())
    wrong = cond * (f[None, :] != np.arange(m)[:, None])
    error = float(wrong.sum() / m)
    return defect, error


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
    need).  Exhaustive over all M^|X| tables when that count is small (ties
    broken by lexicographic order of the table); otherwise ``ATTEMPTS`` seeded
    random function tables.  Always returns the best table found, with
    ``warning`` set when the target was missed.
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
        for table in itertools.product(range(m), repeat=nx):
            consider(table)
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
    """
    w, v = np.linalg.eigh(rho.data)
    order = np.argsort(w)[::-1]
    lam, basis = np.maximum(w[order], 0.0), v[:, order]
    lam = lam / lam.sum()
    enc = build_classical_hash(lam, m, eps, seed=seed)
    projectors = np.einsum("ix,jx->xij", basis, basis.conj())
    states = tuple(
        DensityMatrix(np.tensordot(enc.cond[w_], projectors, axes=(0, 0)))
        for w_ in range(m)
    )
    povm = Povm(
        tuple(
            HermitianOperator(projectors[enc.f == w_].sum(axis=0))
            if (enc.f == w_).any()
            else HermitianOperator(np.zeros_like(rho.data))
            for w_ in range(m)
        )
    )
    return QuantumHashCode(
        m=m,
        states=states,
        povm=povm,
        f=enc.f,
        defect=enc.defect,
        success=1.0 - enc.error_prob,
        warning=enc.warning,
    )
