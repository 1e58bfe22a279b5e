import gc
import math

import numpy as np
import pytest

from qstego.channels import QuantumChannel, identity_channel, standard_channel
from qstego.fixtures import named_state, repetition_qc_cover
from qstego.info import GRID_POINTS, CqState, Pmf, inf_over_order, smooth_min_entropy_classical, sup_over_order
from qstego.linalg import DensityMatrix, basis_state
from qstego import rates
from qstego.protocols.verifiers import experiment_random_code_entropy, experiment_sutherland_bound
from qstego.rates import eta, rate_cc_noiseless, rate_cc_noisy, rate_gaussian

from .test_info import each


def gaussian_renyi_term(a, nu0: float, nu1: float, n: int, r: int):
    """-[ (n-r) log2 eta_{1+a}(nu0) + r log2 eta_{1+a}(nu1) ]/a, the Gaussian
    rate expression written out as the reference for rate_gaussian.

    ``a`` may be a float or an ndarray of orders; the result has the same
    shape.  ``nu0`` and ``nu1`` are scalars >= 1.  A scalar ``a`` is evaluated
    with ``math.log2``; an array agrees with it elementwise to floating-point
    rounding (numpy's vectorized pow/log2 may differ from the C library's in
    the last bit).
    """
    log2 = np.log2 if isinstance(a, np.ndarray) else math.log2
    return -((n - r) * log2(eta(1.0 + a, nu0)) + r * log2(eta(1.0 + a, nu1))) / a


class TestRateCcNoiseless:
    def test_pure_covers_clamp_to_zero(self):
        res = rate_cc_noiseless([named_state("zero"), named_state("plus")], zeta=0.5)
        assert res.value == 0.0
        assert res.raw < 0.0
        assert res.message_count == 1

    def test_maximally_mixed_closed_form(self):
        # H^a = n for every a; sup attained in the a -> 1 limit
        n = 50
        rho = DensityMatrix(np.eye(2) / 2)  # stand-in spectrum; rate feeds on entropy only
        res = rate_cc_noiseless([DensityMatrix(np.eye(2) / 2)], zeta=1e-3)
        # n = 1 here: raw = 1 - 4 log2(2000) at a -> 1
        assert res.raw == pytest.approx(1 - 4 * math.log2(2000.0), abs=1e-4)
        # the n = 50 value from the same optimizer, shifted by the entropy scale
        shifted = 50 + res.raw - 1
        assert shifted == pytest.approx(50 - 4 * math.log2(2000.0), abs=1e-4)
        assert shifted == pytest.approx(6.135, abs=1e-2)

    def test_single_w_is_min(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
        one = rate_cc_noiseless([rho], zeta=0.9)
        both = rate_cc_noiseless([rho, DensityMatrix(np.eye(2) / 2)], zeta=0.9)
        assert both.raw == pytest.approx(one.raw, abs=1e-9)

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            a = g @ g.conj().T
            rho = DensityMatrix(a / np.trace(a))
            zeta = float(rng.uniform(0.2, 0.9))
            res = rate_cc_noiseless([rho], zeta=zeta)
            # H^x(rho) - (4/x) log2(2/zeta) on the whole grid at once
            lam = np.linalg.eigvalsh(rho.data)
            x = np.linspace(1e-6, 1 - 1e-6, 100_000)
            vals = -np.log2((lam[:, None] ** (1.0 + x)).sum(axis=0)) / x - (4.0 / x) * math.log2(2.0 / zeta)
            assert res.raw == pytest.approx(vals.max(), abs=1e-4)


class TestRateCcNoisy:
    @staticmethod
    def correlated(d):
        states = tuple(basis_state(x, d).to_density() for x in range(d))
        return CqState(Pmf(np.full(d, 1.0 / d)), states)

    def test_product_side_state_clamps(self):
        rho = DensityMatrix(np.eye(2) / 2)
        sigma = CqState(Pmf([0.5, 0.5]), (rho, rho))
        [(mbar, key)] = rate_cc_noisy([sigma], zeta=0.5, xi=0.5)
        assert mbar.value == 0.0
        assert mbar.raw < 0.0
        assert mbar.message_count == 1

    def test_correlated_closed_form(self):
        # both MIs equal log2 d; sigma_X (x) sigma_B = I/d^2 has nu = 1
        d = 4
        sigma = self.correlated(d)
        [(mbar, key)] = rate_cc_noisy([sigma], zeta=0.5, xi=0.5, nu_tols=[1e-8])
        dense = max(
            math.log2(d) - (4.0 / a) * math.log2(24.0)
            for a in np.linspace(1e-6, 1 - 1e-6, 200_000)
        )
        assert mbar.raw == pytest.approx(dense, abs=1e-4)

    def test_key_rate_uses_negative_orders(self):
        sigma = self.correlated(2)
        [(mbar, key)] = rate_cc_noisy([sigma], zeta=0.3, xi=0.3)
        assert key.a_star < 0
        # I_down = 1 bit for all a; nu(rho_B) = 1; term (2 - 2/a) log2(40)
        expected = min(
            1.0 + 0.0 + (2.0 - 2.0 / a) * math.log2(12.0 / 0.3)
            for a in -np.logspace(math.log10(0.01), math.log10(8.0), 100_000)
        )
        assert key.raw == pytest.approx(expected - mbar.raw + 1.0, abs=1e-3)

    def test_random_side_state_oracle(self):
        rng = np.random.default_rng(1)
        from qstego.info import renyi_mi_up
        from qstego.linalg import distinct_eigenvalue_counts

        from .test_linalg import random_density

        pmf = rng.dirichlet(np.ones(2))
        sigma = CqState(Pmf(pmf), (random_density(rng, 2), random_density(rng, 2)))
        [(mbar, _)] = rate_cc_noisy([sigma], zeta=0.5, xi=0.5)
        ref = np.kron(np.diag(pmf), sigma.marginal_b())
        [nu] = distinct_eigenvalue_counts(ref, [1e-8])
        grid = np.linspace(1e-6, 1 - 1e-6, 100_000)
        oracle = max(
            renyi_mi_up(sigma)(x) - math.log2(nu) / x - (4.0 / x) * math.log2(24.0)
            for x in grid[:: 100]
        )
        assert mbar.raw >= oracle - 1e-6  # optimizer dominates the sparse oracle scan
        dense_near = max(
            renyi_mi_up(sigma)(x) - math.log2(nu) / x - (4.0 / x) * math.log2(24.0)
            for x in np.linspace(max(1e-6, mbar.a_star - 1e-3), min(1 - 1e-6, mbar.a_star + 1e-3), 500)
        )
        assert mbar.raw == pytest.approx(dense_near, abs=1e-4)


def dense_gaussian_oracle(nu0, nu1, n, r, zeta, points=100_000):
    """Brute-force two-stage grid scan of the Gaussian rate integrand."""
    def f(a):
        return gaussian_renyi_term(a, nu0, nu1, n, r) - (4.0 / a) * math.log2(2.0 / zeta)

    grid = np.linspace(1e-6, 1 - 1e-6, points)
    vals = np.array([f(a) for a in grid])
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, points - 1)]
    fine = np.linspace(lo, hi, points)
    return max(vals[i], max(f(a) for a in fine))


class TestRateGaussian:
    def test_vacuum_is_zero(self):
        [res] = rate_gaussian([(1.0, 1.0)], n=100, r=50, zeta=1e-3)
        assert res.value == 0.0
        assert res.raw < 0.0

    def test_invalid_symplectic(self):
        with pytest.raises(ValueError, match="invalid symplectic"):
            rate_gaussian([(1.5, 1.0), (0.5, 1.0)], n=10, r=5, zeta=0.1)

    def test_eta_definition(self):
        assert eta(1.5, 1.0) == pytest.approx(1.0)
        x, alpha = 2.3, 1.7
        assert eta(alpha, x) == pytest.approx(2**alpha / ((x + 1) ** alpha - (x - 1) ** alpha))

    def test_array_orders_match_scalar_calls(self):
        # numpy's vectorized pow/log2 may differ from the C library's in the
        # last bit, and the 1/a factor amplifies that near a -> 0
        grid = np.linspace(1e-6, 1 - 1e-6, 2001)
        cases = [(1.0, 1.0, 10**6, 500_000), (1.5, 3.0, 10**6, 500_000), (1.0, 7.0, 5, 2), (1.2, 1.7, 4, 0)]
        for nu0, nu1, n, r in cases:
            vec = gaussian_renyi_term(grid, nu0, nu1, n, r)
            assert vec.shape == grid.shape
            scalar = [gaussian_renyi_term(float(a), nu0, nu1, n, r) for a in grid]
            np.testing.assert_allclose(vec, scalar, rtol=1e-9, atol=0)

    def test_array_orders_reject_invalid_symplectic(self):
        with pytest.raises(ValueError, match="invalid symplectic eigenvalue"):
            eta(np.linspace(1.1, 1.9, 5), 0.5)

    def test_r_zero_depends_only_on_nu0(self):
        a, b = rate_gaussian([(1.8, 1.1), (1.8, 2.9)], n=100, r=0, zeta=0.1)
        assert a.raw == pytest.approx(b.raw, abs=1e-9)

    def test_monotone_in_each_argument(self):
        grid = [1.0, 1.5, 2.0, 2.5, 3.0]
        points = [(x, y) for x in grid for y in grid]
        vals = {p: res.value for p, res in zip(points, rate_gaussian(points, n=1000, r=500, zeta=1e-3))}
        for i, x in enumerate(grid):
            for j, y in enumerate(grid):
                if i + 1 < len(grid):
                    assert vals[(grid[i + 1], y)] >= vals[(x, y)] - 1e-9
                if j + 1 < len(grid):
                    assert vals[(x, grid[j + 1])] >= vals[(x, y)] - 1e-9

    def test_paper_parameters_match_dense_oracle(self):
        # two-stage brute-force grid: at the n = 10^6 entropy scale the
        # curvature at the interior optimum makes a flat 1e5-point scan only
        # ~1e-3 accurate, so the oracle rescans densely around its best point
        n, r, zeta = 10**6, 10**6 // 2, 1e-3
        points = [(1.5, 2.0), (2.5, 3.0), (1.0, 1.0)]
        for (nu0, nu1), res in zip(points, rate_gaussian(points, n=n, r=r, zeta=zeta)):
            oracle = dense_gaussian_oracle(nu0, nu1, n, r, zeta)
            assert res.raw == pytest.approx(oracle, abs=1e-4)


class TestRateGaussianBitForBit:
    """rate_gaussian against one-problem optima and the batch of per-point
    float-order functions that its order-array objective replaced."""

    def test_gaussian_fig2_equals_one_problem_optima(self):
        # every point of the shipped sweep, against the one-problem optimizer on
        # the scalar math.log2 path
        import json
        from pathlib import Path

        from qstego.experiments import run_experiment

        from .test_info import reference_sup

        config = json.loads((Path(__file__).resolve().parent.parent / "configs" / "gaussian_fig2.json").read_text())
        n, r, zeta = (config["params"][k] for k in ("n", "r", "zeta"))
        rows = run_experiment(config).rows
        assert len(rows) == 81
        for row in rows:
            nu0, nu1 = row["nu0"], row["nu1"]
            ref = reference_sup(
                lambda a: gaussian_renyi_term(float(a), nu0, nu1, n, r) - (4.0 / a) * math.log2(2.0 / zeta)
            )
            assert (row["raw"], row["a_star"], row["boundary"]) == (ref.value, ref.a_star, ref.boundary)

    @pytest.mark.parametrize(
        "n, r, zeta", [(4, 2, 1e-3), (3, 0, 0.1), (2, 2, 0.5), (5, 1, 1.5)], ids=["fig2-like", "r0", "r-is-n", "zeta-above-1"]
    )
    def test_equals_each_batch(self, n, r, zeta):
        # repeated points and nu0 == nu1 share their (order, nu) logs
        nus = [1.0, 1.3, 2.0, 3.75]
        points = [(x, y) for x in nus for y in nus] + [(1.3, 2.0), (2.0, 1.3)]
        penalty = math.log2(2.0 / zeta)
        fs = [lambda a, x=x, y=y: gaussian_renyi_term(a, x, y, n, r) - (4.0 / a) * penalty for x, y in points]
        expected = sup_over_order(each(fs), batch=len(points))
        got = rate_gaussian(points, n=n, r=r, zeta=zeta)
        assert [(g.raw, g.a_star, g.boundary) for g in got] == [(o.value, o.a_star, o.boundary) for o in expected]


class TestCodeEntropyExperiments:
    def test_sutherland_uniform_case(self):
        code = repetition_qc_cover(0.5)
        rep = experiment_sutherland_bound(code, standard_channel("bit_flip", 0.5), delta=0.0)
        assert rep.lhs == pytest.approx(3.0, abs=1e-6)
        assert rep.rhs == pytest.approx(3.0, abs=1e-9)
        assert rep.holds

    def test_sutherland_quarter(self):
        code = repetition_qc_cover(0.25)
        rep = experiment_sutherland_bound(code, standard_channel("bit_flip", 0.25), delta=0.1)
        h2 = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert rep.rhs == pytest.approx(3 * (h2 - 0.1), abs=1e-9)
        assert rep.holds
        assert type(rep.detail["n"]) is int and rep.detail["n"] == 3

    def test_sutherland_rejects_a_channel_the_code_is_no_power_of(self):
        # the code acts on 8 dimensions, which no power of 3 is
        with pytest.raises(ValueError, match="^shape error: code channel is not a power of m$"):
            experiment_sutherland_bound(repetition_qc_cover(0.1), identity_channel(3), 0.5)

    def test_random_code_unitary_tight(self):
        m = QuantumChannel((np.eye(2),))
        rep = experiment_random_code_entropy(2, 2, m, samples=3, delta=0.0, seed=0)
        assert rep.lhs == pytest.approx(0.0, abs=1e-6)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)
        assert rep.holds

    def test_random_code_full_space_deterministic(self):
        m = standard_channel("dephasing", 0.5)
        rep = experiment_random_code_entropy(1, 2, m, samples=5, delta=0.5, seed=1)
        # M = dim_a^n: Pi = I, the environment state is channel-determined
        assert rep.detail["stderr"] == pytest.approx(0.0, abs=1e-9)
        assert rep.holds


class TestRateCcNoisyTolerances:
    """One call over several nu tolerances: one build of each order function,
    one evaluation per order, the results of separate calls exactly."""

    TOLS = (1e-6, 1e-8)

    @staticmethod
    def as_tuple(res):
        return (res.raw, res.a_star, res.boundary, res.per_w)

    @staticmethod
    def sides():
        from .test_info import degraded_side_outputs

        return degraded_side_outputs()

    def test_equals_one_call_per_tolerance(self):
        sides = self.sides()
        together = rate_cc_noisy(sides, 0.1, 0.1, nu_tols=self.TOLS)
        assert len(together) == len(self.TOLS)
        for tol, pair in zip(self.TOLS, together):
            [alone] = rate_cc_noisy(sides, 0.1, 0.1, nu_tols=[tol])
            assert [self.as_tuple(r) for r in pair] == [self.as_tuple(r) for r in alone]

    def test_equals_one_problem_optima(self):
        # the per-side loop of one-problem optima that the two batches replace
        from qstego.info import renyi_mi_down, renyi_mi_up
        from qstego.linalg import distinct_eigenvalue_counts

        from .test_info import reference_inf, reference_sup

        # nu(sigma_X (x) sigma_B) is 4 at the first tolerance and 16 at the second
        sides, zeta, xi, tols = self.sides(), 0.1, 0.1, (1e-2, 1e-8)
        got = rate_cc_noisy(sides, zeta, xi, nu_tols=tols)
        assert len(got) == len(tols)
        for i, (tol, (mbar, key)) in enumerate(zip(tols, got)):
            sups, infs = [], []
            for sigma in sides:
                rho_b = sigma.marginal_b()
                ref = np.kron(np.diag(sigma.pmf.probs).astype(complex), rho_b)
                nu_ref, nu_b = (distinct_eigenvalue_counts(m, tols)[i] for m in (ref, rho_b))
                mi_up, mi_down = renyi_mi_up(sigma), renyi_mi_down(sigma)
                sups.append(reference_sup(
                    lambda a: mi_up(a) - math.log2(nu_ref) / a - (4.0 / a) * math.log2(12.0 / zeta)
                ))
                infs.append(reference_inf(
                    lambda a: mi_down(a) + math.log2(nu_b) + (2.0 - 2.0 / a) * math.log2(12.0 / xi)
                ))
            per_w_k = [k.value - m.value + 1.0 for m, k in zip(sups, infs)]
            best = min(sups, key=lambda o: o.value)
            worst = infs[per_w_k.index(max(per_w_k))]
            assert self.as_tuple(mbar) == (best.value, best.a_star, best.boundary, tuple(o.value for o in sups))
            assert self.as_tuple(key) == (max(per_w_k), worst.a_star, worst.boundary, tuple(per_w_k))

    def test_equals_each_batches(self):
        # the batches of one-problem functions, each called one scalar order at
        # a time, that the order-array objectives replace, on sides with and
        # without skipped orders
        from qstego.info import renyi_mi_down, renyi_mi_up
        from qstego.linalg import distinct_eigenvalue_counts

        from .test_info import each, random_cq

        rng = np.random.default_rng(21)
        for sides in (self.sides(), [random_cq(rng, nx, d) for nx, d in ((2, 2), (3, 3), (2, 4))]):
            for zeta, xi, tols in ((0.1, 0.1, (1e-2, 1e-8)), (0.3, 0.05, (1e-8,))):
                cypher_fs, key_fs = [], []
                for i in range(len(tols)):
                    for sigma in sides:
                        rho_b = sigma.marginal_b()
                        ref = np.kron(np.diag(sigma.pmf.probs).astype(complex), rho_b)
                        nu_ref, nu_b = (distinct_eigenvalue_counts(m, tols)[i] for m in (ref, rho_b))
                        up, down = renyi_mi_up(sigma), renyi_mi_down(sigma)
                        c_m, c_k = math.log2(nu_ref), math.log2(nu_b)
                        cypher_fs.append(lambda a, f=up, c=c_m: f(a) - c / a - (4.0 / a) * math.log2(12.0 / zeta))
                        key_fs.append(lambda a, f=down, c=c_k: f(a) + c + (2.0 - 2.0 / a) * math.log2(12.0 / xi))
                sups = sup_over_order(each(cypher_fs), batch=len(cypher_fs))
                infs = inf_over_order(each(key_fs), batch=len(key_fs))
                w = len(sides)
                for i, (mbar, key) in enumerate(rate_cc_noisy(sides, zeta, xi, nu_tols=tols)):
                    opts_m, opts_k = sups[i * w : (i + 1) * w], infs[i * w : (i + 1) * w]
                    per_w_k = [k.value - m.value + 1.0 for m, k in zip(opts_m, opts_k)]
                    best = min(opts_m, key=lambda o: o.value)
                    worst = opts_k[per_w_k.index(max(per_w_k))]
                    assert self.as_tuple(mbar) == (best.value, best.a_star, best.boundary, tuple(o.value for o in opts_m))
                    assert self.as_tuple(key) == (max(per_w_k), worst.a_star, worst.boundary, tuple(per_w_k))

    def test_each_order_evaluated_once(self, monkeypatch):
        # each side's Iup and Idown take their orders as sorted 1-D arrays of
        # distinct orders, and no (side, order) pair is evaluated twice
        built, evaluated = [], []

        def counting(factory):
            def build(cq):
                f, which = factory(cq), len(built)
                built.append(which)
                return lambda a: evaluated.append((which, a.tolist())) or f(a)

            return build

        monkeypatch.setattr(rates, "renyi_mi_up", counting(rates.renyi_mi_up))
        monkeypatch.setattr(rates, "renyi_mi_down", counting(rates.renyi_mi_down))
        sides = self.sides()
        rate_cc_noisy(sides, 0.1, 0.1, nu_tols=self.TOLS)
        assert len(built) == 2 * len(sides)
        for _, orders in evaluated:
            assert orders == sorted(set(orders))
        flat = [(which, a) for which, orders in evaluated for a in orders]
        assert len(flat) == len(set(flat))
        # the grid scan evaluates each grid order once for both tolerances
        grids = [orders for _, orders in evaluated if len(orders) == GRID_POINTS]
        assert len(grids) == 2 * len(sides)

    def test_no_reference_cycle(self):
        # failed orders must not leave a traceback that keeps the eigh factors alive
        sides = self.sides()
        gc.collect()
        gc.disable()
        try:
            rate_cc_noisy(sides, 0.1, 0.1, nu_tols=self.TOLS)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSutherlandUnitary:
    def test_unitary_degradation_both_sides_degenerate(self):
        from qstego.channels import Isometry
        from qstego.protocols.codes import QcCode

        channel = QuantumChannel((np.eye(8, dtype=complex),))
        v = np.zeros((8, 2), dtype=complex)
        v[0, 0] = v[7, 1] = 1.0
        sink = [np.eye(2)[:, :1] @ np.eye(8)[k : k + 1, :] for k in range(1, 7)]
        code = QcCode(
            encode=Isometry(v),
            decode=QuantumChannel((v.conj().T, *sink)),
            channel=channel,
            correctable=(0,),
        )
        unitary = QuantumChannel((np.eye(2),))
        rep = experiment_sutherland_bound(code, unitary, delta=0.1)
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(3 * (0.0 - 0.1), abs=1e-12)
        assert rep.holds


@pytest.mark.parametrize(
    "call",
    [
        lambda: rate_cc_noiseless([DensityMatrix(np.diag([0.6, 0.4]).astype(complex))], zeta=3.0),
        lambda: rate_cc_noisy([TestRateCcNoisy.correlated(2)], zeta=0.5, xi=1.5),
        lambda: rate_gaussian([(2.0, 3.0)], n=4, r=5, zeta=0.5),
        lambda: rate_gaussian([(2.0, 3.0)], n=4, r=2, zeta=3.0),
        lambda: smooth_min_entropy_classical([0.5, 0.25, 0.25], 1.0),
    ],
    ids=["cc-noiseless-zeta-3", "cc-noisy-xi-1.5", "gaussian-r-above-n", "gaussian-zeta-3", "smooth-eps-1"],
)
def test_range_check_kept_where_its_absence_gives_a_finite_number(call):
    # ranges are checked where a config is read; the library keeps a check
    # only where the call would otherwise return a finite, meaningless number
    # (a 2,339,850-bit rate at zeta = 3, a 26-bit key rate at xi = 1.5)
    with pytest.raises(ValueError, match="^bad parameter: "):
        call()
