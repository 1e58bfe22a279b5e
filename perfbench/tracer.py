"""Span tracer installed from the outside around qstego's layers.

Nothing under ``src/`` knows about it.  ``install`` wraps every public
function of every ``qstego`` module, the ``__post_init__`` invariant checks
of ``DensityMatrix``/``HermitianOperator``/``Povm`` and ``numpy.linalg``'s
``eigh``/``eigvalsh`` (the eigensolver kernel, counted under ``linalg``).
Modules import functions by name (``from .info import renyi_entropy``), so
every ``qstego.*`` module attribute that *is* an original function object is
rebound to its wrapper; ``uninstall`` puts the originals back, so untraced
passes run the unmodified library.

A span is (name, start, end, parent); spans are appended to flat arrays in
memory and turned into per-layer metrics after the pass.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "channels", "info", "hashing", "protocols", "rates", "fixtures", "experiments", "cli")
#: layers that run inside a pass (``cli`` is not called: the benchmark drives
#: ``run_experiment`` and ``render_csv`` directly, the way the CLI does)
RUN_LAYERS = LAYERS[:-1]
VALIDATED = ("DensityMatrix", "HermitianOperator", "Povm")
EIG_KERNELS = ("eigh", "eigvalsh")
ORDER_OPTIMIZERS = ("info.sup_over_order", "info.inf_over_order")
RENYI = ("info.renyi_entropy", "info.renyi_mi_up", "info.renyi_mi_down")
KRAUS_KERNELS = ("channels.apply_matrix", "channels.complementary_matrix")


def layer_of(module_name: str) -> str:
    """``qstego.protocols.stego_cc`` -> ``protocols``."""
    return module_name.split(".")[1]


class Tracer:
    def __init__(self):
        self.names = []
        self.name_layer = []
        self._name_ids = {}
        self._patches = []  # (owner, attribute, original, wrapper)
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.eig_d3_sum = 0
        self.kraus_applied = 0
        self.hash_misses = 0
        self.projector_bytes_max = 0
        self.order_evals = 0

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return self._name_ids[name]

    # -- recording -----------------------------------------------------------

    def open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        nid = self.name_id(name, layer)
        observe = self._observers().get(name)
        before = self._count_evals if name in ORDER_OPTIMIZERS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- observations that need arguments or results -------------------------

    def _count_evals(self, args, kwargs):
        """Count calls of the objective handed to an order optimizer."""
        f = args[0] if args else kwargs.pop("f")

        def counted(a):
            self.order_evals += 1
            return f(a)

        return (counted,) + tuple(args[1:]), kwargs

    def _observers(self):
        def eig(args, _):
            shape = np.shape(args[0])
            batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            self.eig_d3_sum += batch * int(shape[-1]) ** 3

        def kraus(args, _):
            self.kraus_applied += len(args[0].kraus)

        def search(_, result):
            self.hash_misses += bool(result.warning)

        def quantum_hash(args, _):
            d = args[0].dim
            self.projector_bytes_max = max(self.projector_bytes_max, 16 * d**3)

        return {
            "linalg.eigh": eig,
            "linalg.eigvalsh": eig,
            "channels.apply_matrix": kraus,
            "channels.complementary_matrix": kraus,
            "hashing.build_classical_hash": search,
            "hashing.build_quantum_hash": quantum_hash,
        }

    # -- installation --------------------------------------------------------

    def prepare(self):
        """Build every wrapper once; ``install``/``uninstall`` only swap attributes."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("qstego.") and m is not None]
        wrappers = {}
        for mod in modules:
            layer = layer_of(mod.__name__)
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj, wrappers[id(obj)][1]))
        linalg = sys.modules["qstego.linalg"]
        for cls_name in VALIDATED:
            cls = getattr(linalg, cls_name)
            original = cls.__dict__["__post_init__"]
            wrapper = self._wrap(original, f"linalg.{cls_name}.validate", "linalg")
            self._patches.append((cls, "__post_init__", original, wrapper))
        for kernel in EIG_KERNELS:
            original = getattr(np.linalg, kernel)
            self._patches.append((np.linalg, kernel, original, self._wrap(original, f"linalg.{kernel}", "linalg")))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as arrays (for writing out)."""
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last ``reset``."""
        s = self.spans()
        name, parent = s["name"], s["parent"]
        dur = s["end"] - s["start"]
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        # tag bits: one per layer, plus the validate and pgm groups
        tag_names = list(RUN_LAYERS) + ["validate", "pgm"]
        bit = {t: 1 << i for i, t in enumerate(tag_names)}
        name_tags = np.zeros(n_names, dtype=np.int64)
        for i, (nm, layer) in enumerate(zip(self.names, self.name_layer)):
            tags = bit.get(layer, 0)
            if nm.endswith(".validate"):
                tags |= bit["validate"]
            if nm == "protocols.pretty_good_measurement":
                tags |= bit["pgm"]
            name_tags[i] = tags
        tags = name_tags[name]
        # tags of all enclosing spans; a parent always precedes its children
        anc_list = [0] * len(dur)
        tag_list = tags.tolist()
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                anc_list[i] = anc_list[p] | tag_list[p]
        ancestors = np.array(anc_list, dtype=np.int64)

        def inclusive(tag: str) -> float:
            b = bit[tag]
            outer = ((tags & b) != 0) & ((ancestors & b) == 0)
            return float(dur[outer].sum())

        counts = np.bincount(name, minlength=n_names)

        def count(*names) -> int:
            return int(sum(counts[self._name_ids[n]] for n in names if n in self._name_ids))

        def total(*names) -> float:
            ids = [self._name_ids[n] for n in names if n in self._name_ids]
            return float(dur[np.isin(name, ids)].sum())

        layer_ids = np.array([RUN_LAYERS.index(l) if l in RUN_LAYERS else len(RUN_LAYERS) for l in self.name_layer])
        self_by_layer = np.bincount(layer_ids[name], weights=self_time, minlength=len(RUN_LAYERS) + 1)

        searches = count("hashing.build_classical_hash")
        opts = count(*ORDER_OPTIMIZERS)
        parent_name = np.where(has_parent, name[parent], -1)
        tables = int(np.count_nonzero(
            (name == self._name_ids.get("hashing.encoder_from_hash", -1))
            & (parent_name == self._name_ids.get("hashing.build_classical_hash", -1))
        ))
        out = {
            "linalg.eig_calls": count(*(f"linalg.{k}" for k in EIG_KERNELS)),
            "linalg.eig_s": total(*(f"linalg.{k}" for k in EIG_KERNELS)),
            "linalg.eig_d3_sum": self.eig_d3_sum,
            "linalg.matrix_power_calls": count("linalg.matrix_power"),
            "linalg.validate_calls": count(*(f"linalg.{c}.validate" for c in VALIDATED)),
            "linalg.validate_s": inclusive("validate"),
            "channels.apply_calls": count(*KRAUS_KERNELS),
            "channels.kraus_applied": self.kraus_applied,
            "info.order_opts": opts,
            "info.order_evals": self.order_evals,
            "info.evals_per_opt": self.order_evals / opts if opts else 0.0,
            "info.renyi_calls": count(*RENYI),
            "hashing.searches": searches,
            "hashing.tables_scored": tables,
            "hashing.tables_per_search": tables / searches if searches else 0.0,
            "hashing.miss_ratio": self.hash_misses / searches if searches else 0.0,
            "hashing.projector_bytes_max": self.projector_bytes_max,
            "protocols.pgm_calls": count("protocols.pretty_good_measurement"),
            "protocols.pgm_s": inclusive("pgm"),
            "protocols.builds": sum(
                int(counts[i]) for i, nm in enumerate(self.names) if nm.startswith("protocols.build_")
            ),
            "rates.calls": sum(int(counts[i]) for i, l in enumerate(self.name_layer) if l == "rates"),
            "experiments.render_csv_s": total("experiments.render_csv"),
        }
        for i, layer in enumerate(RUN_LAYERS):
            out[f"{layer}.self_s"] = float(self_by_layer[i])
            out[f"{layer}.incl_s"] = inclusive(layer)
        return out


#: per-layer metrics that are exact counts; they must repeat across traced passes
COUNT_METRICS = (
    "linalg.eig_calls",
    "linalg.eig_d3_sum",
    "linalg.matrix_power_calls",
    "linalg.validate_calls",
    "channels.apply_calls",
    "channels.kraus_applied",
    "info.order_opts",
    "info.order_evals",
    "info.evals_per_opt",
    "info.renyi_calls",
    "hashing.searches",
    "hashing.tables_scored",
    "hashing.tables_per_search",
    "hashing.miss_ratio",
    "hashing.projector_bytes_max",
    "protocols.pgm_calls",
    "protocols.builds",
    "rates.calls",
)
