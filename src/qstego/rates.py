"""Closed-form cypher-rate and key-rate evaluators: the noiseless and noisy
classical-cover rates, Gaussian rates and product-structure rates.

Rates are reported in bits and clamped at zero; the raw (possibly negative)
optimum, the maximizing order, and a per-term breakdown are retained so that
infeasible regimes stay visible.  A boundary flag marks optima attained at
the edge of the scanned order window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import QuantumChannel, apply, tensor_power
from .info import (
    CqState,
    OrderOptimum,
    inf_over_order,
    renyi_entropy,
    renyi_mi_down,
    renyi_mi_up,
    sup_over_order,
    von_neumann_entropy,
    holevo_information,
)
from .linalg import distinct_eigenvalue_counts, trace_norm


@dataclass(frozen=True)
class RateResult:
    value: float = field(init=False)
    raw: float
    a_star: float
    terms: dict
    boundary: bool

    def __post_init__(self):
        object.__setattr__(self, "value", max(0.0, self.raw))

    @property
    def message_count(self) -> int:
        """Largest integer M with log2 M <= value (1 when infeasible)."""
        return max(1, int(math.floor(2.0**self.value)))


def _from_optimum(opt: OrderOptimum, terms: dict) -> RateResult:
    return RateResult(raw=opt.value, a_star=opt.a_star, terms=terms, boundary=opt.boundary)


def rate_cc_noiseless(outputs, zeta: float) -> RateResult:
    """min_w sup_a [ H^a(rho^w) - (4/a) log2(2/zeta) ], every output's sup in
    one batch (:func:`qstego.info.sup_over_order`)."""
    if not 0.0 < zeta:
        raise ValueError("bad parameter: zeta must be positive")
    outputs = list(outputs)
    if not outputs:
        raise ValueError("bad parameter: no cover outputs")
    h = renyi_entropy(outputs)
    penalty = math.log2(2.0 / zeta)
    opts = sup_over_order(lambda a: h(a) - (4.0 / a) * penalty, batch=len(outputs))
    best = min(opts, key=lambda o: o.value)
    return _from_optimum(best, {"per_w": [o.value for o in opts], "penalty_at_a1": 4.0 * penalty})


def _once_per_order(f):
    """The order function f, evaluated at most once per float order: a repeated
    order returns the stored value, or raises ValueError again where f raised.

    The store holds floats and None only, never an exception: a stored
    traceback would reference this frame, and through it the store, a cycle
    that keeps f's eigh factors alive until the next garbage collection.
    """
    values = {}

    def g(a):
        a = float(a)  # an ndarray of orders raises: optimizers go one order at a time
        if a not in values:
            try:
                values[a] = f(a)
            except (ValueError, ArithmeticError):
                values[a] = None
                raise
        if values[a] is None:
            raise ValueError("order function failed at this order")
        return values[a]

    return g


def rate_cc_noisy(
    side_outputs: list[CqState],
    zeta: float,
    xi: float,
    nu_tols=(1e-8,),
) -> list[tuple[RateResult, RateResult]]:
    """Cypher and key rates for the noisy construction, one (cypher, key)
    pair per distinct-eigenvalue tolerance in ``nu_tols``.

    ``side_outputs`` are the output-side cq states sigma^w_XB.  The cypher
    rate is min_w sup_a [ Iup_a - (1/a) log2 nu(sigma_X (x) sigma_B) -
    (4/a) log2(12/zeta) ]; the key rate is max_w { inf_{a<0} [ Idown_a +
    log2 nu(rho_B^w) + (2 - 2/a) log2(12/xi) ] - log Mbar_w + 1 }, with the
    inf taken on the fixed window of :func:`qstego.info.inf_over_order` (199
    log-spaced points on [-8, -0.01]).  An order at which a matrix power fails
    the 1e-10 Hermiticity check (large negative powers of nearly singular
    states) is skipped without a flag, as is any order whose expression
    raises or is not finite.  Distinct-eigenvalue counts nu use each
    tolerance in turn; only the log2 nu terms depend on it, so each side
    state's Iup and Idown are built once and evaluated once per order (every
    tolerance after the first reads its grid from that store), and each
    matrix is diagonalized once for its nu at every tolerance.
    """
    if not (0.0 < zeta < 1.0 and 0.0 < xi < 1.0):
        raise ValueError("bad parameter: zeta and xi must be in (0, 1)")
    sides = []
    for sigma in side_outputs:
        rho_b = sigma.marginal_b()
        ref = np.kron(np.diag(sigma.pmf.probs).astype(complex), rho_b)
        mi_up, mi_down = _once_per_order(renyi_mi_up(sigma)), _once_per_order(renyi_mi_down(sigma))
        nus = zip(distinct_eigenvalue_counts(ref, nu_tols), distinct_eigenvalue_counts(rho_b, nu_tols))
        sides.append((mi_up, mi_down, list(nus)))
    results = []
    for i, nu_tol in enumerate(nu_tols):
        mbar_opts = []
        key_vals = []
        per_w_m = []
        per_w_k = []
        for mi_up, mi_down, nus in sides:
            nu_ref, nu_b = nus[i]
            opt_m = sup_over_order(
                lambda a: mi_up(a)
                - math.log2(nu_ref) / a
                - (4.0 / a) * math.log2(12.0 / zeta)
            )
            mbar_opts.append(opt_m)
            per_w_m.append(opt_m.value)
            opt_k = inf_over_order(
                lambda a: mi_down(a)
                + math.log2(nu_b)
                + (2.0 - 2.0 / a) * math.log2(12.0 / xi)
            )
            key_vals.append((opt_k, opt_k.value - opt_m.value + 1.0))
            per_w_k.append(opt_k.value - opt_m.value + 1.0)
        best_m = min(mbar_opts, key=lambda o: o.value)
        worst_key, worst_val = max(key_vals, key=lambda t: t[1])
        mbar = _from_optimum(best_m, {"per_w": per_w_m, "nu_tol": nu_tol})
        key = RateResult(
            raw=worst_val,
            a_star=worst_key.a_star,
            terms={"per_w": per_w_k, "nu_tol": nu_tol},
            boundary=worst_key.boundary,
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


def gaussian_renyi_term(a, nu0: float, nu1: float, n: int, r: int):
    """-[ (n-r) log2 eta_{1+a}(nu0) + r log2 eta_{1+a}(nu1) ]/a.

    ``a`` may be a float or an ndarray of orders; the result has the same
    shape.  ``nu0`` and ``nu1`` are scalars >= 1.  A scalar ``a`` is evaluated
    with ``math.log2``; an array agrees with it elementwise to floating-point
    rounding (numpy's vectorized pow/log2 may differ from the C library's in
    the last bit).
    """
    log2 = np.log2 if isinstance(a, np.ndarray) else math.log2
    return -((n - r) * log2(eta(1.0 + a, nu0)) + r * log2(eta(1.0 + a, nu1))) / a


def rate_gaussian(nu0: float, nu1: float, n: int, r: int, zeta: float) -> RateResult:
    """sup_a -[ (n-r) log2 eta_{1+a}(nu0) + r log2 eta_{1+a}(nu1) ]/a - (4/a) log2(2/zeta)."""
    if nu0 < 1.0 or nu1 < 1.0:
        raise ValueError("invalid symplectic eigenvalue")
    if not 0 <= r <= n:
        raise ValueError("bad parameter: need 0 <= r <= n")
    # float(a): one order at a time, on gaussian_renyi_term's scalar path
    opt = sup_over_order(
        lambda a: gaussian_renyi_term(float(a), nu0, nu1, n, r) - (4.0 / a) * math.log2(2.0 / zeta)
    )
    return _from_optimum(opt, {"nu0": nu0, "nu1": nu1, "n": n, "r": r})


def rate_product_structure(
    states,
    m: QuantumChannel,
    delta: float,
    n: int,
    k: int,
    mode: str = "noiseless",
    candidates=None,
) -> RateResult:
    """Product-structure cypher rates: (n/k) (min_rho H(m^k(rho)) - delta) in
    noiseless mode; in noisy mode the entropy is replaced by the best Holevo
    information over the caller-supplied candidate cq states per input (each
    validated to have the input's degraded output as its B-marginal).
    """
    if n % k != 0:
        raise ValueError("bad parameter: n must be divisible by k")
    block = tensor_power(m, k) if k > 1 else m
    if mode == "noiseless":
        inner = min(von_neumann_entropy(apply(block, rho)) for rho in states)
    elif mode == "noisy":
        if candidates is None or len(candidates) != len(states):
            raise ValueError("bad parameter: one candidate list per state required")
        inner = None
        for rho, cands in zip(states, candidates):
            target = apply(block, rho)
            best = None
            for sigma in cands:
                if trace_norm(sigma.marginal_b() - target.data) > 1e-8:
                    raise ValueError("side-state mismatch")
                val = holevo_information(sigma)
                best = val if best is None else max(best, val)
            if best is None:
                raise ValueError("bad parameter: empty candidate list")
            inner = best if inner is None else min(inner, best)
    else:
        raise ValueError(f"bad parameter: unknown mode {mode!r}")
    raw = (n / k) * (inner - delta)
    return RateResult(raw=raw, a_star=math.nan, terms={"inner": inner, "mode": mode}, boundary=False)
