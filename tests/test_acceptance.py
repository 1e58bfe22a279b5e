"""Acceptance suite: one test per release criterion, each printing its own
pass line with the measured values.  Criteria marked with runtime budgets are
timed; every tolerance is pinned here, not configured elsewhere.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qstego.channels import standard_channel
from qstego.experiments import render_csv, run_experiment
from qstego.fixtures import dephasing_es_cover, named_state, pgm_cc_cover, repetition_qc_cover
from qstego.info import CqState, Pmf, renyi_entropy, renyi_mi_down, renyi_mi_up
from qstego.linalg import DensityMatrix
from qstego.protocols import (
    build_resolvability_codes,
    build_stego_cc_noiseless,
    build_stego_es_rs,
    build_stego_qc_cc,
    verify_pj_minentropy_bound,
)
from qstego.protocols.verifiers import experiment_random_code_entropy
from qstego.rates import rate_cc_noisy

from .test_rates import gaussian_renyi_term

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def load(name):
    return json.loads((CONFIGS / name).read_text())


def report(criterion, ok, detail=""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


class TestAcceptance:
    def test_01_information_measures(self):
        start = time.perf_counter()
        orders = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, -0.5, -2.0])
        worst = 0.0
        for d in range(2, 9):
            h = renyi_entropy([np.eye(d) / d])(orders[None])
            worst = max(worst, float(np.abs(h - math.log2(d)).max()))
        rng = np.random.default_rng(11)
        for d in range(2, 9):
            pmf = Pmf(rng.dirichlet(np.ones(3)))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = DensityMatrix((g @ g.conj().T) / np.trace(g @ g.conj().T).real)
            product = CqState(pmf, (rho, rho, rho))
            for f in (renyi_mi_up(product), renyi_mi_down(product)):
                worst = max(worst, float(np.abs(f(orders)).max()))
        elapsed = time.perf_counter() - start
        report(
            "1 information-measure suite",
            worst <= 1e-9 and elapsed < 5.0,
            f"max deviation {worst:.2e}, {elapsed:.2f}s",
        )

    def test_02_resolvability_monte_carlo(self):
        start = time.perf_counter()
        cq = CqState(Pmf([0.5, 0.5]), (named_state("zero"), named_state("plus")))
        medians = []
        reliabilities = {}
        for mk in (2, 8, 32, 128):
            codes = build_resolvability_codes(cq, m=mk, k=1, seeds=range(50))
            dists = [code.distance for code in codes]
            rels = [code.reliability for code in codes]
            medians.append(float(np.median(dists)))
            reliabilities[mk] = float(np.median(rels))
        strict = all(a > b for a, b in zip(medians, medians[1:]))
        [(mbar_res, _)] = rate_cc_noisy([cq], zeta=0.3, xi=0.3)
        achievable = mbar_res.value
        rel_ok = all(
            reliabilities[mk] >= 0.9
            for mk in (2, 8, 32, 128)
            if math.log2(mk) <= achievable - 1.0
        )
        elapsed = time.perf_counter() - start
        report(
            "2 resolvability Monte Carlo",
            strict and rel_ok and elapsed < 120.0,
            f"medians {['%.3f' % m for m in medians]}, achievable {achievable:.3f} bits, {elapsed:.1f}s",
        )

    def test_03_stego_cc_noiseless_end_to_end(self):
        start = time.perf_counter()
        worst = ""
        ok = True
        for name in (
            "stego_cc_noiseless_exact.json",
            "stego_cc_noiseless_m4.json",
            "stego_cc_noiseless_demo.json",
        ):
            config = load(name)
            params = config["params"]
            from qstego.experiments import _read

            m = _read("m", "QuantumChannel", params["m"])
            cover = pgm_cc_cover(_read("codewords", "list[DensityMatrix]", params["codewords"]), m)
            stego = build_stego_cc_noiseless(
                cover, params["mbar"], params["zeta"], seed=config.get("seed", 0)
            )
            dist_ok = stego.distance <= stego.zeta_ach + 1e-12
            bound = (
                1.0
                - stego.zeta_ach
                - 2.0 * math.sqrt(stego.zeta_ach + stego.eps_cover)
                - 1e-6
            )
            decode_ok = stego.decode_prob >= bound
            ok = ok and dist_ok and decode_ok
            worst += f"{name}: dist {stego.distance:.2e} <= {stego.zeta_ach:.2e}, decode {stego.decode_prob:.6f} >= {bound:.6f}; "
        elapsed = time.perf_counter() - start
        report("3 stego-CC noiseless end-to-end", ok and elapsed < 60.0, worst + f"{elapsed:.1f}s")

    def test_04_stego_qc_cc_end_to_end(self):
        start = time.perf_counter()
        ok = True
        detail = []
        for p in (0.1, 0.25, 0.5):
            cover = repetition_qc_cover(p)
            mbar = 4 if p == 0.5 else 2
            stego = build_stego_qc_cc(cover, mbar=mbar, zeta=0.6, seed=0)
            closed = np.array(
                [(1 - p) ** 3, p * (1 - p) ** 2, p * (1 - p) ** 2, p * (1 - p) ** 2]
            )
            closed = closed / closed.sum()
            a_ok = stego.kl_residual <= 1e-8
            b_ok = np.max(np.abs(stego.p_j - closed)) <= 1e-10
            c_ok = True
            if p == 0.5:
                c_ok = (
                    stego.zeta_ach <= 1e-12
                    and abs(stego.cypher_decode_prob - 1.0) <= 1e-9
                )
            bound = stego.eps_cover + stego.zeta_ach + (1.0 - stego.c_cover) + 1e-6
            d_ok = stego.distance_sup <= bound
            ok = ok and a_ok and b_ok and c_ok and d_ok
            detail.append(
                f"p={p}: kl {stego.kl_residual:.1e}, |P_J-closed| {np.max(np.abs(stego.p_j - closed)):.1e}, "
                f"dist {stego.distance_sup:.4f} <= {bound:.4f}"
            )
        elapsed = time.perf_counter() - start
        report("4 stego-QC/CC repetition-code end-to-end", ok and elapsed < 60.0, "; ".join(detail) + f"; {elapsed:.1f}s")

    def test_05_stego_es_rs_end_to_end(self):
        cover = dephasing_es_cover(0.5)
        stego = build_stego_es_rs(cover, mbar=2, zeta=0.1, seed=0)
        bound = 1.0 - (math.sqrt(stego.eps_cover) + stego.zeta_ach) ** 2 - 1e-6
        ok = stego.fidelity >= bound and stego.b_output_distance <= 1e-10
        report(
            "5 stego-ES/RS dephasing demo",
            ok,
            f"fidelity {stego.fidelity:.9f} >= {bound:.9f}, B-output distance {stego.b_output_distance:.1e}",
        )

    def test_06_gentle_verifier(self):
        res = run_experiment(load("gentle_demo.json"))
        violations = sum(not r["holds"] for r in res.rows)
        report(
            "6 gentle-composition verifier",
            len(res.rows) == 100 and violations == 0,
            f"{len(res.rows)} instances, {violations} violations",
        )

    def test_07_pj_minentropy_verifier(self):
        detail = []
        ok = True
        for p in (0.0, 0.1, 0.25):
            cover = repetition_qc_cover(p)
            eps = cover.epsilon
            for delta in (0.2, 0.4):
                if delta > 2.0 * math.sqrt(eps):
                    rep = verify_pj_minentropy_bound(cover, delta)
                    holds = rep.holds
                    if p == 0.0:
                        holds = holds and abs(rep.lhs - rep.rhs) <= 1e-9
                    ok = ok and holds
                    detail.append(f"p={p},d={delta}: lhs {rep.lhs:.4f} >= rhs {rep.rhs:.4f}")
                else:
                    with pytest.raises(ValueError, match="bound vacuous"):
                        verify_pj_minentropy_bound(cover, delta)
                    detail.append(f"p={p},d={delta}: vacuous (2 sqrt(eps) = {2*math.sqrt(eps):.3f})")
        report("7 weight-distribution min-entropy verifier", ok, "; ".join(detail))

    def test_08_gaussian_reproduction(self):
        start = time.perf_counter()
        res = run_experiment(load("gaussian_fig2.json"))
        zero_ok = res.flags["zero_at_vacuum"]
        mono_ok = res.flags["monotone_nu0"] and res.flags["monotone_nu1"]
        n, r, zeta = 10**6, 500_000, 1e-3
        worst = 0.0
        for row in res.rows:

            def f(a, row=row):
                return gaussian_renyi_term(a, row["nu0"], row["nu1"], n, r) - (
                    4.0 / a
                ) * math.log2(2.0 / zeta)

            grid = np.linspace(1e-6, 1 - 1e-6, 100_000)
            vals = f(grid)
            i = int(np.argmax(vals))
            fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 100_000)
            oracle = max(float(vals[i]), float(np.max(f(fine))))
            worst = max(worst, abs(row["raw"] - oracle))
        elapsed = time.perf_counter() - start
        report(
            "8 Gaussian-rate reproduction",
            zero_ok and mono_ok and worst <= 1e-4 and elapsed < 30.0,
            f"81 points, max oracle gap {worst:.2e} bits, {elapsed:.1f}s",
        )

    def test_09_random_code_monte_carlo(self):
        start = time.perf_counter()
        rep = experiment_random_code_entropy(
            n=3,
            m_dim=2,
            m=standard_channel("dephasing", 0.5),
            samples=500,
            delta=0.5,
            seed=0,
        )
        elapsed = time.perf_counter() - start
        report(
            "9 random-code entropy Monte Carlo",
            rep.holds and elapsed < 180.0,
            f"mean {rep.lhs:.4f} +/- {rep.detail['stderr']:.4f} >= bound {rep.rhs:.4f}, {elapsed:.1f}s",
        )

    def test_10_determinism(self):
        names = sorted(p.name for p in CONFIGS.glob("*.json"))
        ok = True
        for name in names:
            config = load(name)
            first = render_csv(run_experiment(config))
            second = render_csv(run_experiment(config))
            ok = ok and first == second
        report("10 determinism", ok, f"{len(names)} shipped configs re-rendered byte-identically")
