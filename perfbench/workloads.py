"""Instance generators for the benchmark workloads.

A workload is a list of experiment configs (one pass).  The configs are the
dicts ``qstego.experiments.run_experiment`` takes, so the library sees only
generated inputs.  Every generated workload draws from a finite pool of
variants (channel kind x p grid, or a few diagonal-state variants), so that
``reference.json`` can hold a recorded CSV digest for every instance any seed
can produce.  Dimension, M_bar and codeword count are fixed per slot, but
only on ``shipped`` is the work of a pass independent of the seed: on
``hash-search`` the cost of a table depends on the drawn channel, and on
``large-d`` the random hash search stops at the first table meeting eps, so the
number of tables scored depends on the drawn variant (see README.md).

The generator parameters live in ``workloads.json``; this module only turns
them into configs.  Python's ``random.Random`` is used for every draw, so the
inputs do not depend on the numpy version.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())
NAMES = tuple(SPEC)
MIN_PASSES = 3


@dataclass(frozen=True)
class Instance:
    slot: str
    label: str
    config: dict

    @property
    def key(self) -> str:
        """Content key of the config; the reference digests are stored under it."""
        text = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:20]


def passes(workload: str, seconds: float) -> int:
    """Timed passes in one run.

    Fixed from ``--seconds`` and the workload's nominal pass time, so every
    commit does the same work in a run and the pooled tail percentile is taken
    over the same number of samples.
    """
    return max(MIN_PASSES, round(seconds / SPEC[workload]["nominal_pass_s"]))


def _kron(factors) -> dict:
    return {"kind": "kron", "factors": list(factors)}


def _channel(kind: str, p: float, qubits: int) -> dict:
    return {"kind": kind, "p": p, "power": qubits}


def _diag_state(dim: int, variant: int, index: int) -> dict:
    rng = random.Random(f"diag-{dim}-{variant}-{index}")
    weights = [0.05 + rng.random() for _ in range(dim)]
    total = sum(weights)
    return {"kind": "diag", "probs": [w / total for w in weights]}


def _slot_variants(slot: dict, gen: dict) -> list:
    """Every (label, config) a seed can draw for one slot, in a fixed order."""
    kind = slot.get("kind", gen.get("kind"))
    if "identity_dim" in slot:
        dim = slot["identity_dim"]
        return [
            (
                f"diag{v}",
                {
                    "kind": kind,
                    "seed": slot["seed"],
                    "params": {
                        "m": {"kind": "identity", "dim": dim},
                        "codewords": [_diag_state(dim, v, i) for i in range(slot["diag_codewords"])],
                        "n": dim.bit_length() - 1,
                        "mbar": slot["mbar"],
                        "zeta": slot["zeta"],
                    },
                },
            )
            for v in range(gen["diag_variants"])
        ]
    out = []
    q = slot["qubits"]
    codewords = [_kron(c) for c in slot["codewords"]]
    for ch in gen["channel_kinds"]:
        for p in gen["p_grid"]:
            m = _channel(ch, p, q)
            if kind == "simulate/cc-noiseless":
                params = {"m": m, "codewords": codewords, "n": q, "mbar": slot["mbar"], "zeta": slot["zeta"]}
                config = {"kind": kind, "seed": slot["seed"], "params": params}
            elif kind == "rates/cc-noiseless":
                config = {"kind": kind, "params": {"m": m, "codewords": codewords, "zeta": slot["zeta"]}}
            elif kind == "rates/cc-noisy":
                n_true = _channel(slot["n_true"]["kind"], slot["n_true"]["p"], q)
                params = {"n_true": n_true, "m": m, "codewords": codewords, "n": q, "zeta": slot["zeta"], "xi": slot["xi"]}
                config = {"kind": kind, "params": params}
            else:
                raise ValueError(f"no generator for slot kind {kind!r}")
            out.append((f"{ch}-p{p}", config))
    return out


def _shipped(root: Path) -> list:
    files = sorted((root / "configs").glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no shipped configs under {root / 'configs'}")
    return [Instance(f.stem, "shipped", json.loads(f.read_text())) for f in files]


def pool(workload: str, root: Path) -> list:
    """Every instance any seed can generate for a workload."""
    if workload == "shipped":
        return _shipped(root)
    gen = SPEC[workload]["generator"]
    return [
        Instance(slot["name"], label, config)
        for slot in gen["slots"]
        for label, config in _slot_variants(slot, gen)
    ]


def generate(workload: str, seed: int, root: Path) -> tuple:
    """(pass instances in run order, warm-up instance) for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "shipped":
        chosen = _shipped(root)
    else:
        gen = SPEC[workload]["generator"]
        chosen = []
        for slot in gen["slots"]:
            label, config = rng.choice(_slot_variants(slot, gen))
            chosen.append(Instance(slot["name"], label, config))
    # the first variant of the warm-up slot, whatever the seed, so set-up does the same work on every seed
    warmup = next(i for i in pool(workload, root) if i.slot == SPEC[workload]["warmup_slot"])
    rng.shuffle(chosen)
    return chosen, warmup
