"""Config-driven experiment harness.

Each experiment kind maps to a runner that produces tabular rows (one per
parameter point), pass/fail flags, and a summary dictionary.  CSV output is
byte-stable for a fixed seed and config: row order is data-defined, floats
are written with ``repr`` (shortest round-trip form, '.' decimal), and
nothing time-dependent enters the table.  Wall time and library versions go
to the JSON summary only.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .channels import QuantumChannel, compose, identity_channel, standard_channel, tensor, tensor_power
from .fixtures import (
    dephasing_es_cover,
    named_state,
    pgm_cc_cover,
    repetition_qc_cover,
    split_cc_cover,
    trivial_es_cover,
)
from .info import CqState, Pmf
from .linalg import DensityMatrix
from .protocols import (
    build_resolvability_code,
    build_stego_cc_es,
    build_stego_cc_noiseless,
    build_stego_cc_noisy,
    build_stego_es_rs,
    build_stego_qc_cc,
    side_states_from_degradation,
    trivial_aligner_distiller,
    verify_gentle_composition,
    verify_pj_minentropy_bound,
)
from .protocols.resolvability import output_cq
from .rates import (
    experiment_random_code_entropy,
    experiment_sutherland_bound,
    rate_cc_noiseless,
    rate_cc_noisy,
    rate_gaussian,
    rate_product_structure,
)


@dataclass
class ExperimentResult:
    kind: str
    columns: list
    rows: list
    flags: dict
    summary: dict
    seed: int

    @property
    def all_ok(self) -> bool:
        return all(bool(v) for v in self.flags.values())


def parse_state(spec) -> DensityMatrix:
    if isinstance(spec, str):
        return named_state(spec)
    kind = spec["kind"]
    if kind == "named":
        return named_state(spec["name"])
    if kind == "pure":
        amps = np.array([complex(re, im) for re, im in spec["amps"]])
        amps = amps / np.linalg.norm(amps)
        return DensityMatrix(np.outer(amps, amps.conj()))
    if kind == "maximally_mixed":
        d = int(spec["dim"])
        return DensityMatrix(np.eye(d) / d)
    if kind == "diag":
        return DensityMatrix(np.diag(np.asarray(spec["probs"], dtype=float)).astype(complex))
    if kind == "kron":
        parts = [parse_state(s) for s in spec["factors"]]
        out = parts[0].data
        for p in parts[1:]:
            out = np.kron(out, p.data)
        return DensityMatrix(out)
    raise ValueError(f"bad parameter: unknown state kind {kind!r}")


def parse_channel(spec) -> QuantumChannel:
    kind = spec["kind"]
    if kind == "identity":
        ch = identity_channel(int(spec.get("dim", 2)))
    elif kind == "tensor":
        parts = [parse_channel(s) for s in spec["factors"]]
        ch = parts[0]
        for p in parts[1:]:
            ch = tensor(ch, p)
    elif kind == "unitary":
        u = np.array([[complex(re, im) for re, im in row] for row in spec["matrix"]])
        ch = standard_channel("unitary", unitary=u)
    else:
        ch = standard_channel(kind, float(spec["p"]))
    power = int(spec.get("power", 1))
    return tensor_power(ch, power) if power > 1 else ch


def parse_cq(spec) -> CqState:
    return CqState(Pmf(np.asarray(spec["pmf"], dtype=float)), tuple(parse_state(s) for s in spec["states"]))


def _grid(spec) -> list:
    if isinstance(spec, list):
        return [float(x) for x in spec]
    num = int(spec["num"])
    if num == 0:
        return []
    return [float(x) for x in np.linspace(float(spec["start"]), float(spec["stop"]), num)]


# ---------------------------------------------------------------------------
# runners


def _run_rates_cc_noiseless(params, seed):
    zeta = float(params["zeta"])
    if "outputs" in params:
        outputs = [parse_state(s) for s in params["outputs"]]
    else:
        m = parse_channel(params["m"])
        outputs = [
            DensityMatrix(sum(k @ parse_state(s).data @ k.conj().T for k in m.kraus))
            for s in params["codewords"]
        ]
    res = rate_cc_noiseless(outputs, zeta)
    rows = [
        {"w": w, "raw_w": per_w} for w, per_w in enumerate(res.terms["per_w"])
    ]
    summary = {"value": res.value, "raw": res.raw, "a_star": res.a_star, "boundary": res.boundary}
    return ["w", "raw_w"], rows, {}, summary


def _run_rates_cc_noisy(params, seed):
    n_true = parse_channel(params["n_true"])
    m = parse_channel(params["m"])
    cover_channel = compose(n_true, m)
    codewords = [parse_state(s) for s in params["codewords"]]
    cover = pgm_cc_cover(codewords, cover_channel, int(params.get("n", 1)))
    sides_in = side_states_from_degradation(cover, m)
    side_outputs = [output_cq(s, n_true) for s in sides_in]
    zeta, xi = float(params["zeta"]), float(params["xi"])
    rows = []
    for nu_tol in params.get("nu_tols", [1e-6, 1e-8]):
        mbar, key = rate_cc_noisy(side_outputs, zeta, xi, nu_tol=float(nu_tol))
        rows.append(
            {
                "nu_tol": float(nu_tol),
                "log_mbar_raw": mbar.raw,
                "log_mbar": mbar.value,
                "log_kbar_raw": key.raw,
                "log_kbar": key.value,
                "a_star_m": mbar.a_star,
                "a_star_k": key.a_star,
                "boundary": key.boundary,
            }
        )
    cols = [
        "nu_tol",
        "log_mbar_raw",
        "log_mbar",
        "log_kbar_raw",
        "log_kbar",
        "a_star_m",
        "a_star_k",
        "boundary",
    ]
    return cols, rows, {}, {"zeta": zeta, "xi": xi}


def _run_rates_gaussian(params, seed):
    n = int(params["n"])
    r = int(params["r"])
    zeta = float(params["zeta"])
    nu0s = _grid(params.get("nu0_grid", {"start": 1.0, "stop": 3.0, "num": 9}))
    nu1s = _grid(params.get("nu1_grid", {"start": 1.0, "stop": 3.0, "num": 9}))
    rows = []
    table = {}
    for nu0 in nu0s:
        for nu1 in nu1s:
            res = rate_gaussian(nu0, nu1, n=n, r=r, zeta=zeta)
            table[(nu0, nu1)] = res.value
            rows.append(
                {
                    "nu0": nu0,
                    "nu1": nu1,
                    "rate_bits": res.value,
                    "raw": res.raw,
                    "a_star": res.a_star,
                    "boundary": res.boundary,
                }
            )
    flags = {}
    if 1.0 in nu0s and 1.0 in nu1s:
        flags["zero_at_vacuum"] = table[(1.0, 1.0)] == 0.0
    flags["monotone_nu0"] = all(
        table[(nu0s[i + 1], y)] >= table[(nu0s[i], y)] - 1e-9
        for i in range(len(nu0s) - 1)
        for y in nu1s
    )
    flags["monotone_nu1"] = all(
        table[(x, nu1s[j + 1])] >= table[(x, nu1s[j])] - 1e-9
        for j in range(len(nu1s) - 1)
        for x in nu0s
    )
    return ["nu0", "nu1", "rate_bits", "raw", "a_star", "boundary"], rows, flags, {"n": n, "r": r, "zeta": zeta}


def _run_rates_product(params, seed):
    states = [parse_state(s) for s in params["states"]]
    m = parse_channel(params["m"])
    mode = params.get("mode", "noiseless")
    candidates = None
    if mode == "noisy":
        candidates = [[parse_cq(c) for c in group] for group in params["candidates"]]
    res = rate_product_structure(
        states,
        m,
        float(params.get("delta", 0.0)),
        n=int(params["n"]),
        k=int(params.get("k", 1)),
        mode=mode,
        candidates=candidates,
    )
    rows = [{"mode": mode, "rate_bits": res.value, "raw": res.raw, "inner": res.terms["inner"]}]
    return ["mode", "rate_bits", "raw", "inner"], rows, {}, {"n": params["n"], "k": params.get("k", 1)}


def _run_simulate_cc_noiseless(params, seed):
    m = parse_channel(params["m"])
    codewords = [parse_state(s) for s in params["codewords"]]
    n = int(params.get("n", 1))
    mbar = int(params["mbar"])
    zeta = float(params["zeta"])
    cover = pgm_cc_cover(codewords, m, n)
    stego = build_stego_cc_noiseless(
        cover, m, mbar, zeta, seed=seed, attempts=int(params.get("attempts", 64))
    )
    rows = []
    for w in range(cover.m):
        h = stego.hashes[w]
        per_w_decode = sum(
            float(np.trace(stego.povms[0][w * mbar + wb].data @ stego.encoders[0][w * mbar + wb].data).real)
            for wb in range(mbar)
        ) / mbar
        rows.append(
            {
                "w": w,
                "n": n,
                "mbar": mbar,
                "zeta_achieved": max(h.defect, 1.0 - h.success),
                "dist_trace": stego.per_w_distance[w],
                "p_decode": per_w_decode,
                "bound_ok": stego.bound_ok,
            }
        )
    flags = {
        "bound_ok": stego.bound_ok,
        "distance_le_zeta_ach": stego.distance <= stego.zeta_ach + 1e-12,
    }
    summary = {
        "distance": stego.distance,
        "decode_prob": stego.decode_prob,
        "zeta_ach": stego.zeta_ach,
        "eps_cover": stego.eps_cover,
        "warning": stego.warning,
    }
    cols = ["w", "n", "mbar", "zeta_achieved", "dist_trace", "p_decode", "bound_ok"]
    return cols, rows, flags, summary


def _run_simulate_cc_noisy(params, seed):
    n_true = parse_channel(params["n_true"])
    m = parse_channel(params["m"])
    codewords = [parse_state(s) for s in params["codewords"]]
    n = int(params.get("n", 1))
    cover = pgm_cc_cover(codewords, compose(n_true, m), n)
    sides = side_states_from_degradation(cover, m)
    stego = build_stego_cc_noisy(
        cover,
        n_true,
        sides,
        mbar=int(params["mbar"]),
        kbar=int(params["kbar"]),
        zeta=float(params["zeta"]),
        xi=float(params["xi"]),
        seed=seed,
        trials=int(params.get("trials", 1)),
    )
    rows = [
        {
            "w": w,
            "n": n,
            "mbar": stego.mbar,
            "kbar": stego.kbar,
            "dist_trace": stego.per_w_distance[w],
            "reliability": stego.per_w_success[w],
        }
        for w in range(cover.m)
    ]
    flags = {"bound_ok": stego.bound_ok}
    summary = {
        "distance": stego.distance,
        "decode_prob": stego.decode_prob,
        "zeta_ach": stego.zeta_ach,
        "key_bits": stego.key_bits,
        "eps_cover": stego.eps_cover,
    }
    return ["w", "n", "mbar", "kbar", "dist_trace", "reliability"], rows, flags, summary


def _run_simulate_es_rs(params, seed):
    spec = params.get("cover", {"kind": "dephasing_demo", "p": 0.5})
    if spec["kind"] == "dephasing_demo":
        cover = dephasing_es_cover(float(spec.get("p", 0.5)))
    elif spec["kind"] == "trivial":
        cover = trivial_es_cover()
    else:
        raise ValueError(f"bad parameter: unknown ES cover {spec['kind']!r}")
    stego = build_stego_es_rs(cover, mbar=int(params["mbar"]), zeta=float(params["zeta"]), seed=seed)
    row = {
        "mbar": stego.mbar,
        "fidelity": stego.fidelity,
        "eps_cover": stego.eps_cover,
        "zeta_ach": stego.zeta_ach,
        "b_output_distance": stego.b_output_distance,
        "key_agreement": stego.key_agreement,
        "bound_ok": stego.bound_ok,
    }
    flags = {"bound_ok": stego.bound_ok, "b_output_equal": stego.b_output_distance <= 1e-10}
    return list(row.keys()), [row], flags, {"p_x": [float(x) for x in stego.p_x]}


def _run_simulate_qc_cc(params, seed):
    p = float(params["p"])
    cover = repetition_qc_cover(p)
    stego = build_stego_qc_cc(
        cover, mbar=int(params["mbar"]), zeta=float(params.get("zeta", 0.5)), seed=seed
    )
    row = {
        "p": p,
        "mbar": stego.mbar,
        "kl_residual": stego.kl_residual,
        "polar_residual": stego.polar_residual,
        "zeta_ach": stego.zeta_ach,
        "c_cover": stego.c_cover,
        "c_stego": stego.c_stego,
        "cypher_decode_prob": stego.cypher_decode_prob,
        "distance_sup": stego.distance_sup,
        "bound_ok": stego.bound_ok,
    }
    flags = {
        "bound_ok": stego.bound_ok,
        "kl_ok": stego.kl_residual <= 1e-8,
        "polar_ok": stego.polar_residual <= 1e-8,
    }
    return list(row.keys()), [row], flags, {"p_j": [float(x) for x in stego.p_j]}


def _run_simulate_cc_es(params, seed):
    cover, f1, f2, m1, m2 = split_cc_cover(float(params.get("p_block1", 0.5)))
    stego = build_stego_cc_es(
        cover,
        f1,
        f2,
        1,
        1,
        m1,
        m2,
        trivial_aligner_distiller,
        zeta=float(params["zeta"]),
        seed=seed,
        mbar=params.get("mbar"),
        mcc=params.get("mcc"),
    )
    row = {
        "mbar": stego.mbar,
        "mcc": stego.mcc,
        "classical_reliability": stego.classical_reliability,
        "entanglement_distance": stego.entanglement_distance,
        "dist_trace": stego.distance,
        "key_bits": stego.key_bits,
    }
    flags = {"distance_le_zeta": stego.distance <= float(params["zeta"]) + 1e-9}
    return list(row.keys()), [row], flags, {"eps_cover": stego.eps_cover}


def _run_simulate_resolvability(params, seed):
    pmf = Pmf(np.asarray(params["pmf"], dtype=float))
    outputs = tuple(parse_state(s) for s in params["outputs"])
    cq = CqState(pmf, outputs)
    mk_grid = [int(x) for x in params["mk_grid"]]
    n_seeds = int(params.get("seeds", 50))
    k_books = int(params.get("k", 1))
    rows = []
    medians = []
    reliabilities = {}
    for mk in mk_grid:
        dists = []
        rels = []
        for s in range(n_seeds):
            code = build_resolvability_code(cq, m=max(1, mk // k_books), k=k_books, seed=seed + s)
            dists.append(code.distance)
            rels.append(code.reliability)
            rows.append({"mk": mk, "seed": seed + s, "distance": code.distance, "reliability": code.reliability})
        medians.append(float(np.median(dists)))
        reliabilities[mk] = float(np.median(rels))
    flags = {
        "medians_strictly_decreasing": all(a > b for a, b in zip(medians, medians[1:]))
    }
    achievable = None
    if "zeta_ref" in params:
        mbar_res, _ = rate_cc_noisy([cq], float(params["zeta_ref"]), float(params["zeta_ref"]))
        achievable = mbar_res.value
        min_rel = float(params.get("min_reliability", 0.9))
        ok = True
        for mk in mk_grid:
            if math.log2(mk) <= achievable - 1.0:
                ok = ok and reliabilities[mk] >= min_rel
        flags["reliability_ok"] = ok
    summary = {"medians": medians, "achievable_log_m": achievable}
    return ["mk", "seed", "distance", "reliability"], rows, flags, summary


def _run_verify_gentle(params, seed):
    from .linalg import HermitianOperator, Povm

    rng = np.random.default_rng(seed)
    instances = int(params.get("instances", 100))
    dim_max = int(params.get("dim_max", 4))
    x_max = int(params.get("x_max", 3))
    rows = []
    for idx in range(instances):
        dim = int(rng.integers(2, dim_max + 1))
        nx = int(rng.integers(2, x_max + 1))
        states = []
        for _ in range(nx):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = g @ g.conj().T
            states.append(DensityMatrix(a / np.trace(a).real))
        gs = []
        for _ in range(nx):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            gs.append(g @ g.conj().T)
        total = sum(gs)
        w, v = np.linalg.eigh(total)
        inv = (v * (1.0 / np.sqrt(w))) @ v.conj().T
        povm = Povm(tuple(HermitianOperator(inv @ g @ inv) for g in gs))
        channels = []
        for _ in range(nx):
            ks = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2)]
            tot = sum(k.conj().T @ k for k in ks)
            w2, v2 = np.linalg.eigh(tot)
            inv2 = (v2 * (1.0 / np.sqrt(w2))) @ v2.conj().T
            channels.append(QuantumChannel(tuple(k @ inv2 for k in ks)))
        p = Pmf(rng.dirichlet(np.ones(nx)))
        rep = verify_gentle_composition(states, channels, povm, p)
        rows.append(
            {
                "instance": idx,
                "dim": dim,
                "x_size": nx,
                "eps": rep.detail["eps"],
                "lhs": rep.lhs,
                "bound": rep.rhs,
                "holds": rep.holds,
            }
        )
    flags = {"all_hold": all(r["holds"] for r in rows)}
    return ["instance", "dim", "x_size", "eps", "lhs", "bound", "holds"], rows, flags, {}


def _run_verify_pj_bound(params, seed):
    rows = []
    all_ok = True
    for point in params["family"]:
        p = float(point["p"])
        delta = float(point["delta"])
        cover = repetition_qc_cover(p)
        try:
            rep = verify_pj_minentropy_bound(cover, delta)
            rows.append(
                {
                    "p": p,
                    "delta": delta,
                    "status": "holds" if rep.holds else "violated",
                    "lhs": rep.lhs,
                    "rhs": rep.rhs,
                }
            )
            all_ok = all_ok and rep.holds
        except ValueError as exc:
            if "vacuous" not in str(exc):
                raise
            rows.append({"p": p, "delta": delta, "status": "vacuous", "lhs": math.nan, "rhs": math.nan})
    flags = {"all_ok": all_ok}
    return ["p", "delta", "status", "lhs", "rhs"], rows, flags, {}


def _run_verify_sutherland(params, seed):
    p = float(params["p"])
    delta = float(params.get("delta", 0.5))
    code = repetition_qc_cover(p)
    rep = experiment_sutherland_bound(code, standard_channel("bit_flip", p), delta)
    row = {"p": p, "delta": delta, "lhs": rep.lhs, "rhs": rep.rhs, "margin": rep.lhs - rep.rhs, "holds": rep.holds}
    return list(row.keys()), [row], {"holds": rep.holds}, rep.detail | {"p_single_use": [float(x) for x in rep.detail["p_single_use"]]}


def _run_verify_random_code(params, seed):
    m = parse_channel(params["m"])
    rep = experiment_random_code_entropy(
        dim_a=int(params["dim_a"]),
        n=int(params["n"]),
        m_dim=int(params["m_dim"]),
        m=m,
        samples=int(params["samples"]),
        delta=float(params.get("delta", 0.5)),
        seed=seed,
    )
    row = {
        "dim_a": int(params["dim_a"]),
        "n": int(params["n"]),
        "m_dim": int(params["m_dim"]),
        "samples": int(params["samples"]),
        "mean_sup_entropy": rep.lhs,
        "stderr": rep.detail["stderr"],
        "bound": rep.rhs,
        "holds": rep.holds,
    }
    cols = list(row.keys())
    detail = {k: v for k, v in rep.detail.items() if k != "stderr"}
    return cols, [row], {"holds": rep.holds}, detail


#: experiment kind "group/kind" -> runner; the CLI builds its subcommands from
#: these keys, in this order
RUNNERS = {
    "rates/cc-noiseless": _run_rates_cc_noiseless,
    "rates/cc-noisy": _run_rates_cc_noisy,
    "rates/gaussian": _run_rates_gaussian,
    "rates/product": _run_rates_product,
    "simulate/cc-noiseless": _run_simulate_cc_noiseless,
    "simulate/cc-noisy": _run_simulate_cc_noisy,
    "simulate/cc-es": _run_simulate_cc_es,
    "simulate/es-rs": _run_simulate_es_rs,
    "simulate/qc-cc": _run_simulate_qc_cc,
    "simulate/resolvability": _run_simulate_resolvability,
    "verify/gentle": _run_verify_gentle,
    "verify/pj-bound": _run_verify_pj_bound,
    "verify/sutherland": _run_verify_sutherland,
    "verify/random-code": _run_verify_random_code,
}


def run_experiment(config: dict, seed=None) -> ExperimentResult:
    """Dispatch a config to its runner.

    ``config`` holds "kind", optional "seed", and "params"; an explicit
    ``seed`` argument overrides the config.
    """
    kind = config.get("kind")
    if kind not in RUNNERS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    use_seed = int(config.get("seed", 0)) if seed is None else int(seed)
    params = config.get("params", {})
    columns, rows, flags, summary = RUNNERS[kind](params, use_seed)
    return ExperimentResult(
        kind=kind, columns=columns, rows=rows, flags=flags, summary=summary, seed=use_seed
    )


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "True" if value else "False"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def render_csv(result: ExperimentResult) -> str:
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_format_cell(row[c]) for c in result.columns))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def write_outputs(
    result: ExperimentResult,
    out_dir,
    name: str,
    csv: bool = True,
    summary_json: bool = True,
    wall_time: float | None = None,
) -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if csv:
        path = out / f"{name}.csv"
        path.write_text(render_csv(result), encoding="ascii")
        written.append(path)
    if summary_json:
        payload = {
            "kind": result.kind,
            "seed": result.seed,
            "flags": _jsonable(result.flags),
            "summary": _jsonable(result.summary),
            "versions": {"qstego": __version__, "numpy": np.__version__},
            "wall_time_s": wall_time,
        }
        path = out / f"{name}_summary.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")
        written.append(path)
    return written


def run_and_write(config, out_dir, name, seed=None, csv=True, summary_json=True):
    start = time.perf_counter()
    result = run_experiment(config, seed=seed)
    wall = time.perf_counter() - start
    paths = write_outputs(result, out_dir, name, csv=csv, summary_json=summary_json, wall_time=wall)
    return result, paths
