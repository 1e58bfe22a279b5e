"""Scalar information quantities: Renyi entropies and mutual informations,
hypothesis-testing divergence, smooth min-entropies, Holevo information, and
the 1-D order optimizer behind every sup/inf-over-order rate expression.

All quantities are in bits (base-2 logs).  Matrix powers on singular states
follow the pseudo-inverse convention of :func:`qstego.linalg.matrix_power`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ZERO_CUT,
    DensityMatrix,
    as_matrix,
    matrix_power,
)

PMF_TOL = 1e-10


@dataclass(frozen=True)
class Pmf:
    """Probability mass function: nonnegative entries summing to 1 within 1e-10."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size == 0 or p.min() < -PMF_TOL or abs(p.sum() - 1.0) > PMF_TOL:
            raise ValueError("invalid PMF")
        object.__setattr__(self, "probs", np.maximum(p, 0.0))

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, i) -> float:
        return float(self.probs[i])


def as_pmf(p) -> np.ndarray:
    if isinstance(p, Pmf):
        return p.probs
    return Pmf(np.asarray(p, dtype=float)).probs


@dataclass(frozen=True)
class CqState:
    """Classical-quantum state: a PMF paired with per-symbol density matrices."""

    pmf: Pmf
    states: tuple

    def __post_init__(self):
        pmf = self.pmf if isinstance(self.pmf, Pmf) else Pmf(np.asarray(self.pmf, dtype=float))
        states = tuple(
            s if isinstance(s, DensityMatrix) else DensityMatrix(as_matrix(s))
            for s in self.states
        )
        if len(pmf) != len(states):
            raise ValueError("shape error: PMF and state list length differ")
        if len({s.dim for s in states}) != 1:
            raise ValueError("shape error: symbols have different dimensions")
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "states", states)

    @property
    def alphabet_size(self) -> int:
        return len(self.states)

    @property
    def dim_b(self) -> int:
        return self.states[0].dim

    def marginal_b(self) -> np.ndarray:
        out = np.zeros((self.dim_b, self.dim_b), dtype=complex)
        for px, s in zip(self.pmf.probs, self.states):
            out += px * s.data
        return out

    def joint(self) -> np.ndarray:
        """sum_x P(x) |x><x| (x) rho_B^x as one dense block-diagonal matrix."""
        nx, d = self.alphabet_size, self.dim_b
        out = np.zeros((nx * d, nx * d), dtype=complex)
        for x, (px, s) in enumerate(zip(self.pmf.probs, self.states)):
            out[x * d : (x + 1) * d, x * d : (x + 1) * d] = px * s.data
        return out


def _spectrum(rho) -> np.ndarray:
    w = np.linalg.eigvalsh(as_matrix(rho))
    return np.where(w < ZERO_CUT, 0.0, w)


def renyi_entropy(rho, a: float) -> float:
    """H^a(rho) = -(1/a) log2 tr rho^(1+a), restricted to the support."""
    if a == 0:
        raise ValueError("invalid order: a must be nonzero")
    lam = _spectrum(rho)
    lam = lam[lam > 0.0]
    return float(-np.log2(np.sum(lam ** (1.0 + a))) / a)


def von_neumann_entropy(rho) -> float:
    """H(rho) = -sum lam log2 lam."""
    lam = _spectrum(rho)
    lam = lam[lam > 0.0]
    # 0.0 - sum, not -sum: a pure state gives 0.0 rather than -0.0
    return float(0.0 - np.sum(lam * np.log2(lam)))


def shannon_entropy(p) -> float:
    q = as_pmf(p)
    q = q[q > 0.0]
    return float(0.0 - np.sum(q * np.log2(q)))


def holevo_information(cq: CqState) -> float:
    """I(X;B) = H(rho_B) - sum_x P(x) H(rho_B^x)."""
    total = von_neumann_entropy(cq.marginal_b())
    cond = sum(
        px * von_neumann_entropy(s) for px, s in zip(cq.pmf.probs, cq.states) if px > 0.0
    )
    return float(total - cond)


def renyi_mi_up(cq: CqState, a: float) -> float:
    """The sandwiched-trace Renyi mutual information

    -(1/a) log2 tr( rho_XB (rho_X (x) rho_B)^(a/2) rho_XB^(-a) (rho_X (x) rho_B)^(a/2) )

    with pseudo-inverse powers on singular states.
    """
    if a == 0:
        raise ValueError("invalid order: a must be nonzero")
    joint = cq.joint()
    ref = np.kron(np.diag(cq.pmf.probs).astype(complex), cq.marginal_b())
    ref_half = matrix_power(ref, a / 2.0).data
    joint_neg = matrix_power(joint, -a).data
    val = np.trace(joint @ ref_half @ joint_neg @ ref_half).real
    return float(-np.log2(max(val, 1e-300)) / a)


def renyi_mi_down(cq: CqState, a: float) -> float:
    """-(1/a) log2 sum_x P(x) tr( (rho_B^x)^(1-a) rho_B^a )."""
    if a == 0:
        raise ValueError("invalid order: a must be nonzero")
    rho_b = cq.marginal_b()
    rb_a = matrix_power(rho_b, a).data
    total = 0.0
    for px, s in zip(cq.pmf.probs, cq.states):
        if px <= 0.0:
            continue
        total += px * np.trace(matrix_power(s, 1.0 - a).data @ rb_a).real
    return float(-np.log2(max(total, 1e-300)) / a)


def hypothesis_testing_divergence(rho, sigma, eps: float) -> float:
    """D_H^eps(rho || sigma) = -log2 inf { tr Q sigma : 0 <= Q <= 1, tr Q rho >= 1-eps }.

    Exact optimum via the quantum Neyman-Pearson test: a binary search on the
    threshold t locates the crossing of tr(Q rho) = 1 - eps among projectors
    onto the positive part of rho - t sigma; a fractional weight on the
    boundary eigenspace hits the constraint exactly.  Orthogonal inputs give
    ``math.inf``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("bad parameter: eps must be in (0, 1)")
    r = as_matrix(rho)
    s = as_matrix(sigma)
    target = 1.0 - eps

    def positive_mass(t: float) -> float:
        w, v = np.linalg.eigh(r - t * s)
        p = v[:, w > 0.0]
        return float(np.einsum("ij,jk,ki->", p.conj().T, r, p).real)

    t_lo, t_hi = 0.0, 1.0
    while positive_mass(t_hi) >= target and t_hi < 1e14:
        t_hi *= 4.0
    if positive_mass(t_hi) >= target:
        # sigma has no weight where rho lives beyond the threshold range
        w, v = np.linalg.eigh(r - t_hi * s)
        p = v[:, w > 0.0]
        leak = float(np.einsum("ij,jk,ki->", p.conj().T, s, p).real)
        if leak < 1e-14:
            return math.inf
        return float(-np.log2(leak))
    for _ in range(100):
        t_mid = 0.5 * (t_lo + t_hi)
        if positive_mass(t_mid) >= target:
            t_lo = t_mid
        else:
            t_hi = t_mid
    t = 0.5 * (t_lo + t_hi)
    w, v = np.linalg.eigh(r - t * s)
    gap = max(1e-9, 10.0 * (t_hi - t_lo) * (1.0 + float(np.abs(s).max())))
    plus = v[:, w > gap]
    boundary = v[:, np.abs(w) <= gap]
    q = plus @ plus.conj().T
    mass = float(np.trace(q @ r).real)
    if boundary.shape[1]:
        b_rho = float(np.trace(boundary @ boundary.conj().T @ r).real)
        if b_rho > 1e-15:
            frac = min(max((target - mass) / b_rho, 0.0), 1.0)
            q = q + frac * (boundary @ boundary.conj().T)
    false_alarm = float(np.trace(q @ s).real)
    if false_alarm < 1e-14:
        return math.inf
    return float(-np.log2(false_alarm))


def smooth_min_entropy_classical(p, eps: float) -> float:
    """-log2 of the least cap lambda with sum_x max(P(x) - lambda, 0) <= eps.

    Cap-and-spill smoothing over the trace-distance ball (sub-normalized
    convention); exact by water-filling on the sorted PMF.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("bad parameter: eps must be in [0, 1)")
    q = np.sort(as_pmf(p))[::-1]
    q = q[q > 0.0]
    cum = np.cumsum(q)
    best = None
    for k in range(1, q.size + 1):
        cand = (cum[k - 1] - eps) / k
        upper = q[k - 1]
        lower = q[k] if k < q.size else 0.0
        if lower - 1e-15 <= cand <= upper + 1e-15:
            best = cand
            break
    if best is None:  # numerical tie fell between segments; take the k=1 cap
        best = q[0] - eps
    return float(-np.log2(max(best, 1e-300)))


def smooth_min_entropy_quantum(rho, eps: float) -> float:
    """Classical smoothing applied to the eigenvalue spectrum."""
    lam = _spectrum(rho)
    lam = lam / lam.sum()
    return smooth_min_entropy_classical(lam, eps)


# Order windows.  Cypher rates are a sup over a in ]0, 1[: GRID_POINTS points
# on [SUP_PAD, 1 - SUP_PAD], refined out to SUP_EDGE from either end.  Key
# rates are an inf over a < 0: GRID_POINTS log-spaced points on [INF_LO, INF_HI].
GRID_POINTS = 199
SUP_PAD = 0.005
SUP_EDGE = 1e-6
INF_LO = -8.0
INF_HI = -0.01
GOLDEN_TOL = 1e-11


@dataclass(frozen=True)
class OrderOptimum:
    a_star: float
    value: float
    boundary: bool


def _safe(f):
    def g(a: float) -> float:
        try:
            v = f(a)
        except (ValueError, ArithmeticError, FloatingPointError):
            return -math.inf
        return v if math.isfinite(v) else -math.inf

    return g


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= GOLDEN_TOL:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    cands = [(f(lo), lo), (f(hi), hi), (fc, c), (fd, d)]
    val, arg = max(cands, key=lambda t: t[0])
    return arg, val


def _grid_then_golden(g, grid, before_first: float, after_last: float) -> tuple[float, float]:
    """Maximize g: evaluate the grid, then golden-section refine between the
    winner's neighbours.  A winner at a grid end brackets out to the stand-in
    ``before_first`` or ``after_last``.  The grid point is kept if the
    refinement does not beat it.
    """
    vals = np.array([g(a) for a in grid])
    if not np.any(np.isfinite(vals)):
        raise ValueError("no finite value")
    i = int(np.argmax(vals))
    prev = grid[i - 1] if i > 0 else before_first
    nxt = grid[i + 1] if i < grid.size - 1 else after_last
    arg, val = _golden_max(g, float(min(prev, nxt)), float(max(prev, nxt)))
    if vals[i] > val:
        arg, val = float(grid[i]), float(vals[i])
    return arg, val


def sup_over_order(f) -> OrderOptimum:
    """Maximize f over the open interval ]0, 1[.

    Grid search (199 points on [0.005, 0.995]) followed by golden-section
    refinement around the best point.  When the grid winner sits at a grid
    end, the refinement bracket extends to the open endpoint truncated at
    1e-6, so suprema attained in the a -> 0/1 limits are found and flagged
    (``boundary``).  Raises ValueError("no finite value") if no sample point
    is finite.
    """
    grid = np.linspace(SUP_PAD, 1.0 - SUP_PAD, GRID_POINTS)
    arg, val = _grid_then_golden(_safe(f), grid, SUP_EDGE, 1.0 - SUP_EDGE)
    boundary = arg <= 2 * SUP_EDGE or arg >= 1.0 - 2 * SUP_EDGE
    return OrderOptimum(a_star=float(arg), value=float(val), boundary=boundary)


def inf_over_order(f) -> OrderOptimum:
    """Minimize f over the closed negative-order window [-8, -0.01].

    199 log-spaced points, then golden-section refinement.  The window is
    fixed; an optimum attained at either end is flagged (``boundary``) so
    reports can warn that the true inf over a < 0 may lie outside.
    """
    grid = -np.logspace(math.log10(-INF_HI), math.log10(-INF_LO), GRID_POINTS)  # descending
    arg, val = _grid_then_golden(_safe(lambda a: -f(a)), grid, INF_HI, INF_LO)
    boundary = arg <= INF_LO * (1 - 1e-9) + 1e-12 or arg >= INF_HI * (1 + 1e-9) - 1e-12
    return OrderOptimum(a_star=float(arg), value=float(-val), boundary=boundary)
