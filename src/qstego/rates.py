"""Closed-form cypher-rate and key-rate evaluators: the noiseless and noisy
classical-cover rates and Gaussian rates.

Rates are reported in bits and clamped at zero; the raw (possibly negative)
optimum, the maximizing order, and the per-message optima are retained so
that infeasible regimes stay visible.  A boundary flag marks optima attained
at the edge of the scanned order window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .info import (
    CqState,
    OrderOptimum,
    inf_over_order,
    renyi_entropy,
    renyi_mi_down,
    renyi_mi_up,
    sup_over_order,
)
from .linalg import distinct_eigenvalue_counts


@dataclass(frozen=True)
class RateResult:
    value: float = field(init=False)
    raw: float
    a_star: float
    per_w: tuple  # the optimum of each cover message (one entry for a Gaussian point)
    boundary: bool

    def __post_init__(self):
        object.__setattr__(self, "value", max(0.0, self.raw))

    @property
    def message_count(self) -> int:
        """Largest integer M with log2 M <= value (1 when infeasible)."""
        return max(1, int(math.floor(2.0**self.value)))


def _from_optimum(opt: OrderOptimum, per_w: tuple) -> RateResult:
    return RateResult(raw=opt.value, a_star=opt.a_star, per_w=per_w, boundary=opt.boundary)


def rate_cc_noiseless(outputs, zeta: float) -> RateResult:
    """min_w sup_a [ H^a(rho^w) - (4/a) log2(2/zeta) ], every output's sup in
    one batch (:func:`qstego.info.sup_over_order`)."""
    if not 0.0 < zeta <= 2.0:  # a trace distance is at most 2
        raise ValueError("bad parameter: zeta must be in (0, 2]")
    outputs = list(outputs)
    h = renyi_entropy(outputs)
    penalty = math.log2(2.0 / zeta)
    opts = sup_over_order(lambda a: h(a) - (4.0 / a) * penalty, batch=len(outputs))
    best = min(opts, key=lambda o: o.value)
    return _from_optimum(best, tuple(o.value for o in opts))


def _column(values: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per-problem values shaped to broadcast against an order array a."""
    return values.reshape((-1,) + (1,) * (a.ndim - 1))


def _per_side(fs, w: int):
    """The batch values of problems p = i * w + s: the order function ``fs[s]``
    at row p's orders, NaN at a NaN order.  Each side's values are kept by
    order, and each call evaluates a side at most once, on the 1-D array of
    the distinct orders of its rows that no earlier call evaluated."""
    known = [{} for _ in fs]

    def values(a):
        out = np.full(a.shape, math.nan)
        for s, (f, seen) in enumerate(zip(fs, known)):
            rows = a[s::w]
            live = rows == rows
            orders, where = np.unique(rows[live], return_inverse=True)
            orders = orders.tolist()
            new = [o for o in orders if o not in seen]
            if new:
                seen.update(zip(new, f(np.array(new)).tolist()))
            if orders:
                out[s::w][live] = np.array([seen[o] for o in orders])[where]
        return out

    return values


def rate_cc_noisy(
    side_outputs: list[CqState],
    zeta: float,
    xi: float,
    nu_tols=(1e-8,),
) -> list[tuple[RateResult, RateResult]]:
    """Cypher and key rates for the noisy construction, one (cypher, key)
    pair per distinct-eigenvalue tolerance in ``nu_tols`` (at least one).

    ``side_outputs`` are the output-side cq states sigma^w_XB.  The cypher
    rate is min_w sup_a [ Iup_a - (1/a) log2 nu(sigma_X (x) sigma_B) -
    (4/a) log2(12/zeta) ]; the key rate is max_w { inf_{a<0} [ Idown_a +
    log2 nu(rho_B^w) + (2 - 2/a) log2(12/xi) ] - log Mbar_w + 1 }, with the
    inf taken on the fixed window of :func:`qstego.info.inf_over_order` (199
    log-spaced points on [-8, -0.01]).  An order at which a matrix power fails
    the 1e-10 Hermiticity check (large negative powers of nearly singular
    states) is skipped without a flag, as is any order whose expression is
    not finite.  Distinct-eigenvalue counts nu use each tolerance in turn;
    only the log2 nu terms depend on it.  Every (tolerance, side) sup is one
    problem of one batch, and every inf one problem of another.  Each side
    state's Iup and Idown are built once and evaluated once per distinct
    order: each objective call passes a side the orders of its problems that
    no earlier call evaluated, as one order array; each matrix is
    diagonalized once for its nu at every tolerance.
    """
    if not (0.0 < zeta < 1.0 and 0.0 < xi < 1.0):
        raise ValueError("bad parameter: zeta and xi must be in (0, 1)")
    ups, downs, nu_logs = [], [], []
    for sigma in side_outputs:
        rho_b = sigma.marginal_b()
        ref = np.kron(np.diag(sigma.pmf.probs).astype(complex), rho_b)
        ups.append(renyi_mi_up(sigma))
        downs.append(renyi_mi_down(sigma))
        nus = zip(distinct_eigenvalue_counts(ref, nu_tols), distinct_eigenvalue_counts(rho_b, nu_tols))
        nu_logs.append([(math.log2(nu_ref), math.log2(nu_b)) for nu_ref, nu_b in nus])
    zeta_term, xi_term = math.log2(12.0 / zeta), math.log2(12.0 / xi)
    w = len(ups)
    # problem i * w + s is side s at tolerance i
    c_up, c_down = np.reshape([logs[i] for i in range(len(nu_tols)) for logs in nu_logs], (-1, 2)).T
    mi_up, mi_down = _per_side(ups, w), _per_side(downs, w)
    cyphers = sup_over_order(
        lambda a: mi_up(a) - _column(c_up, a) / a - (4.0 / a) * zeta_term, batch=c_up.size
    )
    keys = inf_over_order(
        lambda a: mi_down(a) + _column(c_down, a) + (2.0 - 2.0 / a) * xi_term, batch=c_down.size
    )
    results = []
    for i in range(len(nu_tols)):
        opts_m, opts_k = cyphers[i * w : (i + 1) * w], keys[i * w : (i + 1) * w]
        per_w_k = [k.value - m.value + 1.0 for m, k in zip(opts_m, opts_k)]
        worst = max(range(w), key=per_w_k.__getitem__)  # the first of equal maxima
        mbar = _from_optimum(min(opts_m, key=lambda o: o.value), tuple(o.value for o in opts_m))
        key = RateResult(
            raw=per_w_k[worst], a_star=opts_k[worst].a_star, per_w=tuple(per_w_k), boundary=opts_k[worst].boundary
        )
        results.append((mbar, key))
    return results


def eta(alpha, x: float):
    """2^alpha / ((x+1)^alpha - (x-1)^alpha), the Gaussian spectral kernel.

    ``alpha`` may be a float or an ndarray of orders; the result has the same
    shape.  The symplectic eigenvalue ``x`` is a scalar >= 1.
    """
    if x < 1.0:
        raise ValueError("invalid symplectic eigenvalue")
    return 2.0**alpha / ((x + 1.0) ** alpha - (x - 1.0) ** alpha)


def _log2_eta(alpha: float, nu: float) -> float:
    """math.log2(eta(alpha, nu)) in Python floats, NaN where it raises."""
    try:
        return math.log2(eta(alpha, nu))
    except (ValueError, ArithmeticError):
        return math.nan


def rate_gaussian(points, n: int, r: int, zeta: float) -> list[RateResult]:
    """sup_a -[ (n-r) log2 eta_{1+a}(nu0) + r log2 eta_{1+a}(nu1) ]/a - (4/a) log2(2/zeta)
    at each (nu0, nu1) of ``points``, one RateResult per point.

    Every point's sup is one problem of one batch.  Each objective call
    takes ``math.log2(eta(1.0 + a, nu))`` in Python floats (numpy's pow and
    log2 differ from the C library's in the last bit) once per distinct
    (order, nu) of its orders, and the rest of the expression elementwise.
    """
    points = list(points)
    if any(nu0 < 1.0 or nu1 < 1.0 for nu0, nu1 in points):
        raise ValueError("invalid symplectic eigenvalue")
    if not 0 <= r <= n:
        raise ValueError("bad parameter: need 0 <= r <= n")
    if not 0.0 < zeta <= 2.0:  # a trace distance is at most 2
        raise ValueError("bad parameter: zeta must be in (0, 2]")
    if not points:
        return []
    penalty = math.log2(2.0 / zeta)
    nu0s, nu1s = np.array(points, dtype=float).T

    def objective(a):
        # every entry's (order, nu0) and (order, nu1) as one complex key; the
        # log is taken once per distinct key
        keys = np.empty((2,) + a.shape, dtype=complex)
        keys.real = a
        keys.imag[0], keys.imag[1] = _column(nu0s, a), _column(nu1s, a)
        live = keys.real == keys.real
        distinct, where = np.unique(keys[live], return_inverse=True)
        logs = np.full(keys.shape, math.nan)
        logs[live] = np.array([_log2_eta(1.0 + key.real, key.imag) for key in distinct.tolist()])[where]
        l0, l1 = logs
        return -((n - r) * l0 + r * l1) / a - (4.0 / a) * penalty

    opts = sup_over_order(objective, batch=len(points))
    return [_from_optimum(opt, (opt.value,)) for opt in opts]

