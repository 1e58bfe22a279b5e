"""Config-driven experiment harness.

Each experiment kind maps to a runner that produces tabular rows (one per
parameter point, at least one), pass/fail flags, and a summary dictionary;
the CSV columns are the keys of the first row, in order.  CSV output is
byte-stable for a fixed seed and config: row order is data-defined, floats
are written with ``repr`` (shortest round-trip form, '.' decimal), and
nothing time-dependent enters the table.  Wall time and library versions go
to the JSON summary only.  The keys a config may hold at any level are the
keyword parameters of the function that reads them; any other key raises.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from dataclasses import dataclass
from functools import partial, reduce
from pathlib import Path

import numpy as np

from . import __version__
from .channels import QuantumChannel, apply, compose, identity_channel, standard_channel, tensor_power
from .fixtures import (
    dephasing_es_cover,
    named_state,
    pgm_cc_cover,
    repetition_qc_cover,
    split_cc_cover,
)
from .info import CqState, Pmf
from .linalg import DensityMatrix, inverse_sqrt
from .protocols import (
    build_resolvability_codes,
    build_stego_cc_es,
    build_stego_cc_noiseless,
    build_stego_cc_noisy,
    build_stego_es_rs,
    build_stego_qc_cc,
    experiment_random_code_entropy,
    experiment_sutherland_bound,
    side_states_from_degradation,
    verify_gentle_composition,
    verify_pj_minentropy_bound,
)
from .protocols.resolvability import output_cq
from .rates import rate_cc_noiseless, rate_cc_noisy, rate_gaussian

#: byte budget of the codeword outputs of one chunk of seeds in simulate/resolvability
SEED_CHUNK_BYTES = 1 << 16
#: distinct-eigenvalue tolerances of rates/cc-noisy, one CSV row each
NU_TOLS = (1e-6, 1e-8)


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


def _call(what, fn, /, *args, **kwargs):
    """``fn(*args, **kwargs)``; a key ``fn`` does not take, or a missing one, raises TypeError before it runs."""
    try:
        inspect.signature(fn).bind(*args, **kwargs)
    except TypeError as exc:
        raise TypeError(f"{what}: {exc}") from None
    return fn(*args, **kwargs)


def _by_kind(what, readers, spec):
    """Call the reader of ``spec["kind"]`` with the other keys of ``spec``."""
    keys = dict(spec)
    kind = keys.pop("kind")
    if kind not in readers:
        raise ValueError(f"bad parameter: unknown {what} kind {kind!r}")
    return _call(f"{kind} {what}", readers[kind], **keys)


#: state kind -> reader, whose keyword parameters are the keys of the spec
_STATES = {
    "diag": lambda probs: DensityMatrix(np.diag(np.asarray(probs, dtype=float)).astype(complex)),
    "kron": lambda factors: DensityMatrix(reduce(np.kron, [parse_state(s).data for s in factors])),
}


def parse_state(spec) -> DensityMatrix:
    if isinstance(spec, str):
        return named_state(spec)
    return _by_kind("state", _STATES, spec)


#: channel kind -> reader, whose keyword parameters are the keys of the spec
_CHANNELS = {"identity": lambda dim=2: identity_channel(int(dim))} | {
    kind: partial(lambda kind, p: standard_channel(kind, float(p)), kind)
    for kind in ("depolarizing", "dephasing", "bit_flip", "amplitude_damping")
}


def parse_channel(spec) -> QuantumChannel:
    """A channel spec holds ``kind``, an optional tensor ``power`` and the keys
    of its kind: ``dim`` (default 2) for ``identity``, ``p`` for a textbook channel."""
    keys = dict(spec)
    power = int(keys.pop("power", 1))
    ch = _by_kind("channel", _CHANNELS, keys)
    return ch if power == 1 else tensor_power(ch, power)


def _grid(spec) -> list:
    read = lambda start, stop, num: [float(x) for x in np.linspace(float(start), float(stop), int(num))]
    return _call("grid", read, **spec)


# ---------------------------------------------------------------------------
# runners: ``_run_x(seed, **params)``.  The keyword parameters of a runner are
# the keys of its config's "params", with the defaults of the optional ones.


def _run_rates_cc_noiseless(seed, m, codewords, zeta):
    m = parse_channel(m)
    outputs = [apply(m, parse_state(s)) for s in codewords]
    res = rate_cc_noiseless(outputs, float(zeta))
    rows = [
        {"w": w, "raw_w": per_w} for w, per_w in enumerate(res.terms["per_w"])
    ]
    summary = {"value": res.value, "raw": res.raw, "a_star": res.a_star, "boundary": res.boundary}
    return rows, {}, summary


def _noisy_cover(n_true, m, codewords, n):
    """The channel ``n_true``, the n-use PGM cover over ``n_true`` after ``m`` and its side states."""
    n_true, m = parse_channel(n_true), parse_channel(m)
    cover = pgm_cc_cover([parse_state(s) for s in codewords], compose(n_true, m), int(n))
    return n_true, cover, side_states_from_degradation(cover, m)


def _run_rates_cc_noisy(seed, n_true, m, codewords, zeta, xi, n=1):
    n_true, _, sides_in = _noisy_cover(n_true, m, codewords, n)
    side_outputs = [output_cq(s, n_true) for s in sides_in]
    zeta, xi = float(zeta), float(xi)
    rows = []
    for nu_tol, (mbar, key) in zip(NU_TOLS, rate_cc_noisy(side_outputs, zeta, xi, nu_tols=NU_TOLS)):
        rows.append(
            {
                "nu_tol": nu_tol,
                "log_mbar_raw": mbar.raw,
                "log_mbar": mbar.value,
                "log_kbar_raw": key.raw,
                "log_kbar": key.value,
                "a_star_m": mbar.a_star,
                "a_star_k": key.a_star,
                "boundary": key.boundary,
            }
        )
    return rows, {}, {"zeta": zeta, "xi": xi}


def _run_rates_gaussian(
    seed, n, r, zeta, nu0_grid={"start": 1.0, "stop": 3.0, "num": 9}, nu1_grid={"start": 1.0, "stop": 3.0, "num": 9}
):
    n, r, zeta = int(n), int(r), float(zeta)
    nu0s = _grid(nu0_grid)
    nu1s = _grid(nu1_grid)
    # the monotonicity flags compare neighbours in list order
    for key, grid in (("nu0_grid", nu0s), ("nu1_grid", nu1s)):
        if not grid or not all(b > a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"bad parameter: {key} must be non-empty and increasing")
    points = [(nu0, nu1) for nu0 in nu0s for nu1 in nu1s]
    rows = []
    table = {}
    for (nu0, nu1), res in zip(points, rate_gaussian(points, n=n, r=r, zeta=zeta)):
        table[(nu0, nu1)] = res.value
        rows.append({"nu0": nu0, "nu1": nu1, "rate_bits": res.value, "raw": res.raw, "a_star": res.a_star,
                     "boundary": res.boundary})
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
    return rows, flags, {"n": n, "r": r, "zeta": zeta}


def _run_simulate_cc_noiseless(seed, m, codewords, mbar, zeta, n=1):
    m = parse_channel(m)
    codewords = [parse_state(s) for s in codewords]
    n, mbar, zeta = int(n), int(mbar), float(zeta)
    cover = pgm_cc_cover(codewords, m, n)
    stego = build_stego_cc_noiseless(cover, mbar, zeta, seed=seed)
    rows = [
        {
            "w": w,
            "n": n,
            "mbar": mbar,
            "zeta_achieved": max(stego.per_w_defect[w], 1.0 - stego.per_w_success[w]),
            "dist_trace": stego.per_w_distance[w],
            "p_decode": stego.per_w_decode[w],
            "bound_ok": stego.bound_ok,
        }
        for w in range(cover.m)
    ]
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
    return rows, flags, summary


def _run_simulate_cc_noisy(seed, n_true, m, codewords, mbar, kbar, zeta, xi, n=1):
    # zeta is not read by the builder; it is checked and reported beside xi
    zeta, xi = float(zeta), float(xi)
    if not (0.0 < zeta < 1.0 and 0.0 < xi < 1.0):
        raise ValueError("bad parameter: zeta and xi must be in (0, 1)")
    n_true, cover, sides = _noisy_cover(n_true, m, codewords, n)
    stego = build_stego_cc_noisy(cover, n_true, sides, mbar=int(mbar), kbar=int(kbar), xi=xi, seed=seed)
    rows = [
        {
            "w": w,
            "n": cover.n,
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
        "zeta": zeta,
        "xi": xi,
    }
    return rows, flags, summary


def _run_simulate_es_rs(seed, mbar, zeta, cover={"kind": "dephasing_demo", "p": 0.5}):
    readers = {"dephasing_demo": lambda p=0.5: dephasing_es_cover(float(p))}
    cover = _by_kind("ES cover", readers, cover)
    stego = build_stego_es_rs(cover, mbar=int(mbar), zeta=float(zeta), seed=seed)
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
    return [row], flags, {"p_x": [float(x) for x in stego.p_x]}


def _run_simulate_qc_cc(seed, p, mbar, zeta=0.5):
    p = float(p)
    cover = repetition_qc_cover(p)
    stego = build_stego_qc_cc(
        cover, mbar=int(mbar), zeta=float(zeta), seed=seed
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
    return [row], flags, {"p_j": [float(x) for x in stego.p_j]}


def _run_simulate_cc_es(seed, zeta, p_block1=0.5):
    zeta = float(zeta)
    cover, f1, f2, m1, m2 = split_cc_cover(float(p_block1))
    stego = build_stego_cc_es(cover, f1, f2, m1, m2, zeta=zeta, seed=seed)
    row = {
        "mbar": stego.mbar,
        "mcc": stego.mcc,
        "classical_reliability": stego.classical_reliability,
        "entanglement_distance": stego.entanglement_distance,
        "dist_trace": stego.distance,
        "key_bits": stego.key_bits,
    }
    flags = {"distance_le_zeta": stego.distance <= zeta + 1e-9}
    return [row], flags, {"eps_cover": stego.eps_cover}


def _run_simulate_resolvability(seed, pmf, outputs, mk_grid, zeta_ref, seeds=50, min_reliability=0.9):
    n_seeds = int(seeds)
    if n_seeds < 1:
        raise ValueError("bad parameter: seeds must be at least 1")
    mk_grid = [int(x) for x in mk_grid]
    if not mk_grid:
        raise ValueError("bad parameter: mk_grid must be non-empty")
    if any(mk < 1 for mk in mk_grid):
        raise ValueError("bad parameter: mk_grid entries must be at least 1")
    cq = CqState(Pmf(np.asarray(pmf, dtype=float)), tuple(parse_state(s) for s in outputs))
    rows = []
    medians = []
    reliabilities = {}
    for mk in mk_grid:
        step = max(1, SEED_CHUNK_BYTES // (16 * mk * cq.dim_b**2))
        dists = []
        rels = []
        for start in range(0, n_seeds, step):
            chunk = range(seed + start, seed + min(start + step, n_seeds))
            for s, code in zip(chunk, build_resolvability_codes(cq, mk, 1, chunk)):
                dists.append(code.distance)
                rels.append(code.reliability)
                rows.append({"mk": mk, "seed": s, "distance": code.distance, "reliability": code.reliability})
        medians.append(float(np.median(dists)))
        reliabilities[mk] = float(np.median(rels))
    [(mbar_res, _)] = rate_cc_noisy([cq], float(zeta_ref), float(zeta_ref))
    achievable = mbar_res.value
    flags = {
        "medians_strictly_decreasing": all(a > b for a, b in zip(medians, medians[1:])),
        "reliability_ok": all(
            reliabilities[mk] >= float(min_reliability) for mk in mk_grid if math.log2(mk) <= achievable - 1.0
        ),
    }
    summary = {"medians": medians, "achievable_log_m": achievable}
    return rows, flags, summary


def _run_verify_gentle(seed, instances=100, dim_max=4, x_max=3):
    """Random instances, drawn one after another and checked together per
    (dimension, alphabet size) shape by one ``verify_gentle_composition`` batch."""
    instances, dim_max, x_max = int(instances), int(dim_max), int(x_max)
    if instances < 1:
        raise ValueError("bad parameter: instances must be at least 1")
    if dim_max < 2:
        raise ValueError("bad parameter: dim_max must be at least 2")
    if x_max < 2:
        raise ValueError("bad parameter: x_max must be at least 2")
    rng = np.random.default_rng(seed)
    shapes = {}  # (dim, nx) -> (instance indices, Gaussian draws, PMFs)
    for idx in range(instances):
        dim = int(rng.integers(2, dim_max + 1))
        nx = int(rng.integers(2, x_max + 1))
        # the real and imaginary parts of nx state, nx POVM and 2 nx Kraus
        # seeds, in the order of 8 nx separate (dim, dim) draws
        gauss = rng.normal(size=(4 * nx, 2, dim, dim))
        p = rng.dirichlet(np.ones(nx))
        for store, item in zip(shapes.setdefault((dim, nx), ([], [], [])), (idx, gauss, p)):
            store.append(item)
    rows = [None] * instances
    for (dim, nx), (ids, gauss, probs) in shapes.items():
        g = np.array(gauss)
        g = g[:, :, 0] + 1j * g[:, :, 1]
        a = g[:, :nx] @ g[:, :nx].conj().swapaxes(-1, -2)
        states = a / np.trace(a, axis1=-2, axis2=-1).real[..., None, None]
        seeds = g[:, nx : 2 * nx] @ g[:, nx : 2 * nx].conj().swapaxes(-1, -2)
        inv = inverse_sqrt(sum(seeds[:, x] for x in range(nx)))[:, None]
        ks = g[:, 2 * nx :].reshape(len(ids), nx, 2, dim, dim)
        inv2 = inverse_sqrt(sum(k.conj().swapaxes(-1, -2) @ k for k in np.moveaxis(ks, 2, 0)))[:, :, None]
        reports = verify_gentle_composition(states, ks @ inv2, inv @ seeds @ inv, probs)
        for idx, rep in zip(ids, reports):
            rows[idx] = {
                "instance": idx,
                "dim": dim,
                "x_size": nx,
                "eps": rep.detail["eps"],
                "lhs": rep.lhs,
                "bound": rep.rhs,
                "holds": rep.holds,
            }
    flags = {"all_hold": all(r["holds"] for r in rows)}
    return rows, flags, {}


def _pj_bound_row(p, delta):
    """One ``family`` point of ``verify/pj-bound``."""
    p, delta = float(p), float(delta)
    try:
        rep = verify_pj_minentropy_bound(repetition_qc_cover(p), delta)
    except ValueError as exc:
        if "vacuous" not in str(exc):
            raise
        return {"p": p, "delta": delta, "status": "vacuous", "lhs": math.nan, "rhs": math.nan}
    return {
        "p": p,
        "delta": delta,
        "status": "holds" if rep.holds else "violated",
        "lhs": rep.lhs,
        "rhs": rep.rhs,
    }


def _run_verify_pj_bound(seed, family):
    if not family:
        raise ValueError("bad parameter: family must be non-empty")
    rows = [_call("family point", _pj_bound_row, **point) for point in family]
    flags = {"all_ok": all(r["status"] != "violated" for r in rows)}
    return rows, flags, {}


def _run_verify_sutherland(seed, p, delta=0.5):
    p, delta = float(p), float(delta)
    code = repetition_qc_cover(p)
    rep = experiment_sutherland_bound(code, standard_channel("bit_flip", p), delta)
    row = {"p": p, "delta": delta, "lhs": rep.lhs, "rhs": rep.rhs, "margin": rep.lhs - rep.rhs, "holds": rep.holds}
    return [row], {"holds": rep.holds}, rep.detail | {"p_single_use": [float(x) for x in rep.detail["p_single_use"]]}


def _run_verify_random_code(seed, m, dim_a, n, m_dim, samples, delta=0.5):
    m = parse_channel(m)
    dim_a, n, m_dim, samples = int(dim_a), int(n), int(m_dim), int(samples)
    rep = experiment_random_code_entropy(
        dim_a=dim_a,
        n=n,
        m_dim=m_dim,
        m=m,
        samples=samples,
        delta=float(delta),
        seed=seed,
    )
    row = {
        "dim_a": dim_a,
        "n": n,
        "m_dim": m_dim,
        "samples": samples,
        "mean_sup_entropy": rep.lhs,
        "stderr": rep.detail["stderr"],
        "bound": rep.rhs,
        "holds": rep.holds,
    }
    detail = {k: v for k, v in rep.detail.items() if k != "stderr"}
    return [row], {"holds": rep.holds}, detail


#: experiment kind "group/kind" -> runner; the CLI builds its subcommands from
#: these keys, in this order
RUNNERS = {
    "rates/cc-noiseless": _run_rates_cc_noiseless,
    "rates/cc-noisy": _run_rates_cc_noisy,
    "rates/gaussian": _run_rates_gaussian,
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

    ``config`` holds "kind", optional "seed", and "params", the keyword
    arguments of the kind's runner; an explicit ``seed`` argument overrides
    the config.  A key nothing reads, or a missing one, raises TypeError
    naming it before the runner starts.
    """
    read = lambda kind, seed=0, params={}: (kind, seed, params)
    kind, config_seed, params = _call("config", read, **config)
    if kind not in RUNNERS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    if not isinstance(params, dict):
        raise TypeError(f"{kind} params: must be a JSON object")
    use_seed = int(config_seed) if seed is None else int(seed)
    rows, flags, summary = _call(f"{kind} params", RUNNERS[kind], use_seed, **params)
    return ExperimentResult(
        kind=kind, columns=list(rows[0]), rows=rows, flags=flags, summary=summary, seed=use_seed
    )


def _format_cell(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    return repr(value) if isinstance(value, float) else str(value)


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
    if isinstance(value, np.generic):
        return value.item()
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
