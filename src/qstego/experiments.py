"""Config-driven experiment harness.

Each experiment kind maps to a runner that produces tabular rows (one per
parameter point, at least one), pass/fail flags, and a summary dictionary;
the CSV columns are the keys of the first row, in order.  CSV output is
byte-stable for a fixed seed and config: row order is data-defined, floats
are written with ``repr`` (shortest round-trip form, '.' decimal), and
nothing time-dependent enters the table.  Wall time and library versions go
to the JSON summary only.

One rule reads a config: a value is read by the annotation of the parameter
it fills (``READERS``), so the keys a config may hold at any level are the
keyword parameters of the function that reads them, each required but a
config's ``seed`` and a channel's ``power``, and a number's range is declared
in its annotation.  The whole config is read into library objects before a
runner starts; any other key, a missing, empty, wrong-typed or out-of-range
one or a spec that is not a JSON object raises, naming its key.
"""

from __future__ import annotations

import ast
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import cache, partial, reduce
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
    EsCode,
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
    rows: list
    flags: dict
    summary: dict
    seed: int

    @property
    def columns(self) -> list:
        return list(self.rows[0])

    @property
    def all_ok(self) -> bool:
        return all(bool(v) for v in self.flags.values())


def _call(what, fn, spec, /, *args):
    """``fn(*args, **spec)``, each value of ``spec`` read by ``_read`` by the
    annotation of the parameter it fills.  A ``spec`` that is not a JSON
    object, holds a key ``fn`` does not take (named before a missing one),
    lacks one or holds a value its annotation does not take raises TypeError
    or ValueError naming ``what`` before ``fn`` runs."""
    if not isinstance(spec, dict):
        raise TypeError(f"{what}: must be a JSON object")
    sig = inspect.signature(fn)
    try:
        sig.bind_partial(*args, **spec)
        sig.bind(*args, **spec)
    except TypeError as exc:
        raise TypeError(f"{what}: {exc}") from None
    read = {
        key: _read(f"{what}: {key!r}", sig.parameters[key].annotation, value) if key in sig.parameters else value
        for key, value in spec.items()
    }
    return fn(*args, **read)


@cache
def _range(annotation):
    """``annotation`` split into the annotation it bounds and its range
    (lo, lo_open, hi, hi_open), None when it has none: a comparison chain
    such as "1 <= int" or "0 < float <= 2" bounds the name it compares."""
    node = ast.parse(annotation, mode="eval").body if isinstance(annotation, str) else None
    if not isinstance(node, ast.Compare):
        return annotation, None
    lo, name, hi = [node.left, *node.comparators, ast.Constant(math.inf)][:3]
    opens = [isinstance(op, ast.Lt) for op in node.ops]
    return name.id, (lo.value, opens[0], hi.value, len(opens) == 2 and opens[1])


def _read(where, annotation, value):
    """``value`` read by the reader of ``annotation`` in ``READERS`` (kept when
    it has none) and checked against the annotation's range; an error names
    ``where``, and a range error the range."""
    if isinstance(annotation, str) and annotation.startswith("list["):
        if not isinstance(value, list):
            raise TypeError(f"{where} must be a list, got {value!r}")
        if not value:
            raise ValueError(f"{where} must be non-empty")
        return [_read(f"{where} entry {i}", annotation[5:-1], v) for i, v in enumerate(value)]
    annotation, bounds = _range(annotation)
    if annotation not in READERS:
        return value
    name, reader = READERS[annotation]
    if reader in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, reader)):
            raise TypeError(f"{where} must be {name}, got {value!r}")
        if bounds:
            lo, lo_open, hi, hi_open = bounds
            if not ((lo < value if lo_open else lo <= value) and (value < hi if hi_open else value <= hi)):
                if hi == math.inf:
                    shown = f"{'>' if lo_open else '>='} {lo}"
                else:
                    shown = f"in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"
                raise ValueError(f"{where} must be {name} {shown}, got {value!r}")
        if reader is float and abs(value) > sys.float_info.max:  # an integer too large for a float
            raise ValueError(f"{where} must be {name} within the float range, got {value!r}")
        return reader(value)
    read = partial(_call, name, reader)
    if isinstance(reader, dict):
        read = named_state if reader is _STATES and isinstance(value, str) else partial(_by_kind, name, reader)
    else:
        first = next(iter(inspect.signature(reader).parameters.values()))
        if first.kind is first.POSITIONAL_ONLY:  # the reader takes the value itself, read by its annotation
            read, value = reader, _read(where, first.annotation, value)
    try:
        return read(value)
    except (ValueError, TypeError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _by_kind(what, readers, spec):
    """Call the reader of ``spec["kind"]`` with the other keys of ``spec``."""

    def read(kind: str, **keys):
        if kind not in readers:
            raise ValueError(f"bad parameter: unknown {what} kind {kind!r}")
        return _call(f"{kind} {what}", readers[kind], keys)

    return _call(what, read, spec)


def _diag(probs: list[float]) -> DensityMatrix:
    return DensityMatrix(np.diag(np.asarray(probs, dtype=float)).astype(complex))


def _kron(factors: list[DensityMatrix]) -> DensityMatrix:
    return DensityMatrix(reduce(np.kron, [s.data for s in factors]))


#: state kind -> reader, whose keyword parameters are the keys of the spec
_STATES = {"diag": _diag, "kron": _kron}


def _identity(dim: 1 <= int, power: 1 <= int = 1) -> QuantumChannel:
    return tensor_power(identity_channel(dim), power)


def _textbook(kind, p: 0 <= float <= 1, power: 1 <= int = 1) -> QuantumChannel:
    return tensor_power(standard_channel(kind, p), power)


#: channel kind -> reader, whose keyword parameters are the keys of the spec
_CHANNELS = {"identity": _identity} | {
    kind: partial(_textbook, kind) for kind in ("depolarizing", "dephasing", "bit_flip", "amplitude_damping")
}


#: the points a grid spec reads into, increasing
Grid = list[float]


def _grid(start: 1 <= float, stop: 1 <= float, num: 1 <= int) -> Grid:
    """The reader of a grid spec of symplectic eigenvalues: ``num`` points from ``start`` to ``stop``."""
    points = [float(x) for x in np.linspace(start, stop, num)]
    # the monotonicity flags of rates/gaussian compare neighbours in list order
    if not all(b > a for a, b in zip(points, points[1:])):
        raise ValueError(f"bad parameter: grid must be increasing: {num} points from {start} to {stop}")
    return points


#: a ``verify/pj-bound`` family point: (p, delta)
PjPoint = tuple[float, float]


def _pj_point(p: 0 <= float <= 1, delta: 0 <= float < 1) -> PjPoint:
    return p, delta


def _pmf(probs: list[float], /) -> Pmf:
    return Pmf(np.asarray(probs, dtype=float))


#: parameter annotation -> (what its value is called, its reader); ``list[X]``
#: takes a non-empty JSON list of X, and "0 < float <= 2" a float in (0, 2]
#: (``_range``).  A number's reader is its type ("int" takes a JSON integer,
#: "float" an integer or float, neither a bool); a spec's is the function whose
#: keyword parameters are its keys, or a dict of them by its "kind", and a state
#: may also be a name (``named_state``); a reader of one positional-only
#: parameter takes the value itself, read by that parameter's annotation.
READERS = {
    "int": ("an integer", int),
    "float": ("a number", float),
    "Pmf": ("PMF", _pmf),
    "DensityMatrix": ("state", _STATES),
    "QuantumChannel": ("channel", _CHANNELS),
    "EsCode": ("ES cover", {"dephasing_demo": dephasing_es_cover}),
    "Grid": ("grid", _grid),
    "PjPoint": ("family point", _pj_point),
}


# ---------------------------------------------------------------------------
# runners: ``_run_x(seed, **params)``.  The keyword parameters of a runner are
# the keys of its config's "params", every one required and read by ``_call``,
# so a runner receives library objects and starts after its whole config is read.


def _run_rates_cc_noiseless(seed, m: QuantumChannel, codewords: list[DensityMatrix], zeta: 0 < float <= 2):
    outputs = [apply(m, s) for s in codewords]
    res = rate_cc_noiseless(outputs, zeta)
    rows = [{"w": w, "raw_w": per_w} for w, per_w in enumerate(res.per_w)]
    summary = {"value": res.value, "raw": res.raw, "a_star": res.a_star, "boundary": res.boundary}
    return rows, {}, summary


def _check_input_dim(m, dim, rule):
    """A key that restates the input dimension of the channel ``m``, as
    ``dim``, must agree with it; ``rule`` says how the key restates it."""
    if dim != m.dim_in:
        raise ValueError(f"bad parameter: {rule} the input dimension of m")


def _noisy_cover(n_true, m, codewords, n):
    """The n-use PGM cover over ``n_true`` after ``m`` and its side states."""
    _check_input_dim(m, 2**n, "n must satisfy 2**n ==")
    cover = pgm_cc_cover(codewords, compose(n_true, m))
    return cover, side_states_from_degradation(cover, m)


def _run_rates_cc_noisy(seed, n_true: QuantumChannel, m: QuantumChannel, codewords: list[DensityMatrix],
                        zeta: 0 < float < 1, xi: 0 < float < 1, n: int):
    _, sides_in = _noisy_cover(n_true, m, codewords, n)
    side_outputs = [output_cq(s, n_true) for s in sides_in]
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


def _run_rates_gaussian(seed, n: int, r: 0 <= int, zeta: 0 < float <= 2, nu0_grid: Grid, nu1_grid: Grid):
    points = [(nu0, nu1) for nu0 in nu0_grid for nu1 in nu1_grid]
    rows = []
    table = {}
    for (nu0, nu1), res in zip(points, rate_gaussian(points, n=n, r=r, zeta=zeta)):
        table[(nu0, nu1)] = res.value
        rows.append({"nu0": nu0, "nu1": nu1, "rate_bits": res.value, "raw": res.raw, "a_star": res.a_star,
                     "boundary": res.boundary})
    flags = {}
    if 1.0 in nu0_grid and 1.0 in nu1_grid:
        flags["zero_at_vacuum"] = table[(1.0, 1.0)] == 0.0
    flags["monotone_nu0"] = all(
        table[(nu0_grid[i + 1], y)] >= table[(nu0_grid[i], y)] - 1e-9
        for i in range(len(nu0_grid) - 1)
        for y in nu1_grid
    )
    flags["monotone_nu1"] = all(
        table[(x, nu1_grid[j + 1])] >= table[(x, nu1_grid[j])] - 1e-9
        for j in range(len(nu1_grid) - 1)
        for x in nu0_grid
    )
    return rows, flags, {"n": n, "r": r, "zeta": zeta}


def _run_simulate_cc_noiseless(seed, m: QuantumChannel, codewords: list[DensityMatrix], mbar: 1 <= int,
                               zeta: 0 <= float <= 2, n: int):
    _check_input_dim(m, 2**n, "n must satisfy 2**n ==")
    cover = pgm_cc_cover(codewords, m)
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


def _run_simulate_cc_noisy(seed, n_true: QuantumChannel, m: QuantumChannel, codewords: list[DensityMatrix],
                           mbar: 1 <= int, kbar: 1 <= int, zeta: 0 < float < 1, xi: 0 < float < 1, n: int):
    # zeta is not read by the builder; it is checked and reported beside xi
    cover, sides = _noisy_cover(n_true, m, codewords, n)
    stego = build_stego_cc_noisy(cover, n_true, sides, mbar=mbar, kbar=kbar, xi=xi, seed=seed)
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
        "zeta": zeta,
        "xi": xi,
    }
    return rows, flags, summary


def _run_simulate_es_rs(seed, mbar: 1 <= int, zeta: 0 <= float <= 2, cover: EsCode):
    stego = build_stego_es_rs(cover, mbar=mbar, zeta=zeta, seed=seed)
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


def _run_simulate_qc_cc(seed, p: 0 <= float <= 1, mbar: 1 <= int, zeta: 0 <= float <= 2):
    stego = build_stego_qc_cc(repetition_qc_cover(p), mbar=mbar, zeta=zeta, seed=seed)
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


def _run_simulate_cc_es(seed, zeta: 0 < float <= 2, p_block1: 0 <= float <= 1):
    stego = build_stego_cc_es(*split_cc_cover(p_block1), zeta=zeta, seed=seed)
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


def _run_simulate_resolvability(seed, pmf: Pmf, outputs: list[DensityMatrix], mk_grid: list[1 <= int],
                                zeta_ref: 0 < float < 1, seeds: 1 <= int, min_reliability: 0 <= float <= 1):
    cq = CqState(pmf, tuple(outputs))
    rows = []
    medians = []
    reliabilities = {}
    for mk in mk_grid:
        step = max(1, SEED_CHUNK_BYTES // (16 * mk * cq.dim_b**2))
        dists = []
        rels = []
        for start in range(0, seeds, step):
            chunk = range(seed + start, seed + min(start + step, seeds))
            for s, code in zip(chunk, build_resolvability_codes(cq, mk, 1, chunk)):
                dists.append(code.distance)
                rels.append(code.reliability)
                rows.append({"mk": mk, "seed": s, "distance": code.distance, "reliability": code.reliability})
        medians.append(float(np.median(dists)))
        reliabilities[mk] = float(np.median(rels))
    [(mbar_res, _)] = rate_cc_noisy([cq], zeta_ref, zeta_ref)
    achievable = mbar_res.value
    flags = {
        "medians_strictly_decreasing": all(a > b for a, b in zip(medians, medians[1:])),
        "reliability_ok": all(
            reliabilities[mk] >= min_reliability for mk in mk_grid if math.log2(mk) <= achievable - 1.0
        ),
    }
    summary = {"medians": medians, "achievable_log_m": achievable}
    return rows, flags, summary


def _run_verify_gentle(seed, instances: 1 <= int, dim_max: 2 <= int, x_max: 2 <= int):
    """Random instances, drawn one after another and checked together per
    (dimension, alphabet size) shape by one ``verify_gentle_composition`` batch."""
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


def _run_verify_pj_bound(seed, family: list[PjPoint]):
    rows = []
    for p, delta in family:
        row = {"p": p, "delta": delta}
        try:
            rep = verify_pj_minentropy_bound(repetition_qc_cover(p), delta)
        except ValueError as exc:
            if "vacuous" not in str(exc):
                raise
            rows.append(row | {"status": "vacuous", "lhs": math.nan, "rhs": math.nan})
        else:
            rows.append(row | {"status": "holds" if rep.holds else "violated", "lhs": rep.lhs, "rhs": rep.rhs})
    flags = {"all_ok": all(r["status"] != "violated" for r in rows)}
    return rows, flags, {}


def _run_verify_sutherland(seed, p: 0 <= float <= 1, delta: float):
    rep = experiment_sutherland_bound(repetition_qc_cover(p), standard_channel("bit_flip", p), delta)
    row = {"p": p, "delta": delta, "lhs": rep.lhs, "rhs": rep.rhs, "margin": rep.lhs - rep.rhs, "holds": rep.holds}
    return [row], {"holds": rep.holds}, rep.detail | {"p_single_use": [float(x) for x in rep.detail["p_single_use"]]}


def _run_verify_random_code(seed, m: QuantumChannel, dim_a: int, n: 1 <= int, m_dim: 1 <= int, samples: 1 <= int,
                            delta: float):
    _check_input_dim(m, dim_a, "dim_a must equal")
    rep = experiment_random_code_entropy(n, m_dim, m, samples, delta, seed)
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


def _config(kind: str, seed: 0 <= int = 0, params: dict = {}):
    """The reader of a config's top level."""
    return kind, seed, params


def run_experiment(config: dict, seed=None) -> ExperimentResult:
    """Dispatch a config to its runner.

    ``config`` holds "kind", optional "seed", and "params", the keyword
    arguments of the kind's runner; a ``seed`` argument other than None
    overrides the config's.  A key nothing reads, a missing one or a
    wrong-typed value raises TypeError, an empty list, a reader's error or a
    value outside the range its annotation declares ValueError, naming it
    before the runner starts.
    """
    kind, seed, params = _call("config", _config, config if seed is None else {**config, "seed": seed})
    if kind not in RUNNERS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    rows, flags, summary = _call(f"{kind} params", RUNNERS[kind], params, seed)
    return ExperimentResult(kind=kind, rows=rows, flags=flags, summary=summary, seed=seed)


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


def run_and_write(config, out_dir, name: str, seed, csv: bool, summary_json: bool):
    """Run ``config`` (``seed``, unless None, overriding its seed) and write
    ``<name>.csv`` when ``csv`` and ``<name>_summary.json``, with the run's
    wall time, when ``summary_json`` into ``out_dir``; returns the result and
    the paths written."""
    start = time.perf_counter()
    result = run_experiment(config, seed=seed)
    wall = time.perf_counter() - start
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
            "wall_time_s": wall,
        }
        path = out / f"{name}_summary.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")
        written.append(path)
    return result, written
