"""Scalar information quantities: Renyi entropies and mutual informations,
the Shannon entropy, smooth min-entropies, and the 1-D order optimizer behind
every sup/inf-over-order rate expression.

The optimizer solves a batch of problems in lockstep: one grid scan in
blocks of columns, then a golden-section search whose brackets are arrays,
one entry per problem, so each step is one objective call.  Its one
objective contract is a batch objective of an order array, row p for problem
p.  The Renyi entropy of a sequence of states and both mutual informations
take order arrays, so every rate objective is array code.  Each optimum has
the bits it has alone.

All quantities are in bits (base-2 logs).  Matrix powers on singular states
follow the pseudo-inverse convention of :func:`qstego.linalg.power_function`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ZERO_CUT,
    as_matrix,
    power_function,
)

PMF_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function: nonnegative entries summing to 1 within 1e-10."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size == 0 or not (p.min() >= -PMF_TOL and abs(p.sum() - 1.0) <= PMF_TOL):
            raise ValueError("invalid PMF")
        object.__setattr__(self, "probs", np.maximum(p, 0.0))

    def __len__(self) -> int:
        return self.probs.size


def as_pmf(p) -> np.ndarray:
    return Pmf(np.asarray(p, dtype=float)).probs


@dataclass(frozen=True, eq=False)
class CqState:
    """Classical-quantum state: a :class:`Pmf` paired with a tuple of
    per-symbol :class:`DensityMatrix` states."""

    pmf: Pmf
    states: tuple

    def __post_init__(self):
        if len(self.pmf) != len(self.states):
            raise ValueError("shape error: PMF and state list length differ")
        if len({s.dim for s in self.states}) != 1:
            raise ValueError("shape error: symbols have different dimensions")

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


def renyi_entropy(rho):
    """The order function a -> H^a(rho) = -(1/a) log2 tr rho^(1+a) of each of
    P states, restricted to its support.

    ``rho`` is an (n, d, d) stack of states or a sequence of states and stacks
    (a list, tuple or iterator), each state or stack diagonalized by one
    ``eigvalsh`` call; one state is ``renyi_entropy([rho])``.  The order
    function takes an ndarray of nonzero orders of shape (P,) or (P, k), row p
    for state p in order, and returns the entropies in that shape; a NaN order
    gives NaN.  The rows of states with the same support size are summed
    together, so each sum runs over its state's spectrum alone.
    """
    # zero-padding the spectra to one width would change numpy's pairwise
    # summation, so each support size is its own (rows, spectra) stack
    by_size = {}
    p = 0
    for item in [rho] if isinstance(rho, np.ndarray) else rho:
        w = _spectrum(item)  # a stacked eigvalsh gives each matrix its own call's bits
        for lam in w.reshape(-1, w.shape[-1]):
            lam = lam[lam > 0.0]
            rows, spectra = by_size.setdefault(lam.size, ([], []))
            rows.append(p)
            spectra.append(lam)
            p += 1
    if not by_size:
        raise ValueError("bad parameter: no states")
    groups = [(np.array(rows), np.array(spectra)) for rows, spectra in by_size.values()]
    if len(groups) == 1:
        groups = [(slice(None), groups[0][1])]  # a view of every row, not a gather
    del by_size

    def entropies(a):
        if not a.all():  # some order is zero (NaN counts as nonzero)
            raise ValueError("invalid order: a must be nonzero")
        out = np.empty(a.shape)
        for rows, lam in groups:
            ar = a[rows]
            lam = lam if ar.ndim == 1 else lam[:, None]
            out[rows] = -np.log2((lam ** (1.0 + ar[..., None])).sum(axis=-1)) / ar
        return out

    return entropies


def shannon_entropy(p) -> float:
    """H(p) = -sum p log2 p."""
    q = as_pmf(p)
    q = q[q > 0.0]
    # 0.0 - sum, not -sum: a point mass gives 0.0 rather than -0.0
    return float(0.0 - np.sum(q * np.log2(q)))


#: bytes of one stack of matrix powers when a mutual information is evaluated
#: on an order array: at most this many bytes of d x d powers per product
POWER_BLOCK_BYTES = 1 << 18


def _order_function(values, dim: int):
    """The order function of a mutual information whose values at a 1-D array
    of nonzero orders are ``values(x)``, NaN where a matrix power failed its
    Hermiticity check.

    It takes an array of orders (a scalar order is a 0-d array) and returns
    the values in that shape, NaN at a NaN order, evaluating the finite orders
    in blocks of at most POWER_BLOCK_BYTES of dim x dim powers.
    """

    def f(a):
        a = np.asarray(a, dtype=float)
        if (a == 0).any():
            raise ValueError("invalid order: a must be nonzero")
        out = np.full(a.shape, math.nan)
        flat, res = a.reshape(-1), out.reshape(-1)
        live = np.flatnonzero(flat == flat)
        step = max(1, POWER_BLOCK_BYTES // (16 * dim * dim))
        for i in range(0, live.size, step):
            rows = live[i : i + step]
            res[rows] = values(flat[rows])
        return out

    return f


def _traces(stack: np.ndarray) -> np.ndarray:
    """Real parts of the traces of a (k, d, d) stack, each summed as the
    trace of its one matrix (one contiguous row per diagonal)."""
    return np.ascontiguousarray(np.diagonal(stack, axis1=1, axis2=2)).sum(axis=-1).real


def renyi_mi_up(cq: CqState):
    """The order function of the sandwiched-trace Renyi mutual information

    -(1/a) log2 tr( rho_XB (rho_X (x) rho_B)^(a/2) rho_XB^(-a) (rho_X (x) rho_B)^(a/2) )

    with pseudo-inverse powers on singular states, from one eigendecomposition
    each of rho_XB and rho_X (x) rho_B.  It takes an array of nonzero orders
    and gives NaN where a power fails the Hermiticity check (see
    :func:`_order_function`); each order forms its powers as slices of one
    stacked product.
    """
    joint = cq.joint()
    ref_power = power_function(np.kron(np.diag(cq.pmf.probs).astype(complex), cq.marginal_b()))
    joint_power = power_function(joint)

    def values(x):
        ref_half = ref_power(x / 2.0)
        val = _traces(joint @ ref_half @ joint_power(-x) @ ref_half)
        return -np.log2(np.maximum(val, 1e-300)) / x

    return _order_function(values, joint.shape[0])


def renyi_mi_down(cq: CqState):
    """The order function a -> -(1/a) log2 sum_x P(x) tr( (rho_B^x)^(1-a) rho_B^a ),
    from one eigendecomposition each of rho_B and of every rho_B^x with
    P(x) > 0.  It takes orders as :func:`renyi_mi_up` does; the sum over x
    runs in order.
    """
    rho_b_power = power_function(cq.marginal_b())
    terms = [(px, power_function(s)) for px, s in zip(cq.pmf.probs, cq.states) if px > 0.0]

    def values(x):
        rb_a = rho_b_power(x)
        total = 0.0
        for px, s_power in terms:
            total = total + px * _traces(s_power(1.0 - x) @ rb_a)
        return -np.log2(np.maximum(total, 1e-300)) / x

    return _order_function(values, cq.dim_b)


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
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: bytes of objective values per grid block of a batch: 500 problems scan the
#: 199-point grid 4 orders at a time instead of holding a (500, 199) table
GRID_BLOCK_BYTES = 16 * 1024


@dataclass(frozen=True)
class OrderOptimum:
    a_star: float
    value: float
    boundary: bool


def _maximize(f, batch: int, grid, before_first: float, after_last: float):
    """Maximize ``batch`` problems together under the contract of
    :func:`sup_over_order`; returns one (argmax, max) per problem.

    The grid is scanned in blocks of at most GRID_BLOCK_BYTES of values,
    keeping each problem's first maximum.  Each problem is then golden-section
    refined between its winner's neighbours; a winner at a grid end brackets
    out to the stand-in ``before_first`` or ``after_last``.  The brackets are
    arrays, one entry per problem, updated elementwise, so each entry follows
    the one-problem search bit for bit; a problem whose bracket has closed is
    sent NaN.  The grid point is kept if the refinement does not beat it.
    """
    if batch < 1:
        raise ValueError("bad parameter: a batch needs at least one problem")

    def values(a):
        v = np.asarray(f(a), dtype=float)
        if v.shape != a.shape:
            raise ValueError(f"bad objective: values of shape {v.shape} for orders of shape {a.shape}")
        finite = np.isfinite(v)
        return v if finite.all() else np.where(finite, v, -math.inf)

    block = max(1, GRID_BLOCK_BYTES // (8 * batch))
    every = np.arange(batch)
    best, win = np.full(batch, -math.inf), np.zeros(batch, dtype=int)
    for j in range(0, grid.size, block):
        orders = grid[j : j + block]
        vals = values(np.broadcast_to(orders, (batch, orders.size)))
        i = np.argmax(vals, axis=1)
        v = vals[every, i]
        better = v > best  # strict: a later block's tie keeps the first maximum
        best[better] = v[better]
        win[better] = i[better] + j
    if not np.isfinite(best).all():
        raise ValueError("no finite value")
    ends = np.concatenate(([before_first], grid, [after_last]))
    lo, hi = np.minimum(ends[win], ends[win + 2]), np.maximum(ends[win], ends[win + 2])
    a, b = lo, hi
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = values(np.stack((c, d), axis=1)).T
    live = np.ones(batch, dtype=bool)
    for _ in range(200):
        live &= b - a > GOLDEN_TOL
        if not live.any():
            break
        left = live & (fc >= fd)  # keep [a, d]: c moves to d, a new c is evaluated
        right = live & ~left  # keep [c, b]: d moves to c, a new d is evaluated
        a, b = np.where(right, c, a), np.where(left, d, b)
        t = _INVPHI * (b - a)
        x = np.where(left, b - t, a + t)
        fx = values(np.where(live, x, math.nan))
        c, d = np.where(left, x, np.where(right, d, c)), np.where(right, x, np.where(left, c, d))
        fc, fd = np.where(left, fx, np.where(right, fd, fc)), np.where(right, fx, np.where(left, fc, fd))
    cands = np.column_stack((values(np.stack((lo, hi), axis=1)), fc, fd))
    k = np.argmax(cands, axis=1)  # the first maximum, as max() picks
    arg, val = np.stack((lo, hi, c, d), axis=1)[every, k], cands[every, k]
    keep = best > val
    return list(zip(np.where(keep, grid[win], arg).tolist(), np.where(keep, best, val).tolist()))


def sup_over_order(f, batch: int) -> list[OrderOptimum]:
    """Maximize each of ``batch`` problems over the open interval ]0, 1[;
    returns one optimum per problem.

    ``f`` is the objective of the P = ``batch`` problems at once: it takes an
    ndarray of orders of shape (P,) or (P, k), row p for problem p, and
    returns values of the same shape.  A NaN order marks a problem that needs
    no value, and its value there is ignored; a non-finite value counts as
    -inf at that order.
    Grid search (199 points on [0.005, 0.995]) followed by golden-section
    refinement around each problem's best point.  When the grid winner sits
    at a grid end, the refinement bracket extends to the open endpoint
    truncated at 1e-6, so suprema attained in the a -> 0/1 limits are found
    and flagged (``boundary``).

    The problems advance in lockstep, one call of ``f`` per grid block
    (GRID_BLOCK_BYTES of values) and per golden step, and each optimum has
    the bits it would have alone: the brackets are float64 arrays, one entry
    per problem, updated elementwise with the IEEE operations of a
    one-problem search in Python floats.  Raises ValueError("no finite
    value") if any problem has no finite grid value.
    """
    grid = np.linspace(SUP_PAD, 1.0 - SUP_PAD, GRID_POINTS)
    return [
        OrderOptimum(a_star=float(arg), value=float(val), boundary=arg <= 2 * SUP_EDGE or arg >= 1.0 - 2 * SUP_EDGE)
        for arg, val in _maximize(f, batch, grid, SUP_EDGE, 1.0 - SUP_EDGE)
    ]


def inf_over_order(f, batch: int) -> list[OrderOptimum]:
    """Minimize each of ``batch`` problems over the closed negative-order
    window [-8, -0.01]; returns one optimum per problem.

    ``f`` and ``batch`` follow the contract of :func:`sup_over_order`; a
    non-finite value at an order leaves that order out of the minimum (it
    counts as -inf in the maximization of -f).  199 log-spaced points, then
    golden-section refinement.  The window is fixed; an optimum attained at
    either end is flagged (``boundary``) so reports can warn that the true
    inf over a < 0 may lie outside.
    """
    grid = -np.logspace(math.log10(-INF_HI), math.log10(-INF_LO), GRID_POINTS)  # descending
    return [
        OrderOptimum(
            a_star=float(arg),
            value=float(-val),
            boundary=arg <= INF_LO * (1 - 1e-9) + 1e-12 or arg >= INF_HI * (1 + 1e-9) - 1e-12,
        )
        for arg, val in _maximize(lambda a: -f(a), batch, grid, INF_HI, INF_LO)
    ]
