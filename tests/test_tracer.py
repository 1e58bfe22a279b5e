"""The benchmark's span tracer (``perfbench/tracer.py``) around the library.

The tracer is loaded from its file and only read: these tests check the parts
of qstego it hooks into, so that a change to the library cannot quietly break
``perfbench/run.py --trace 1``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from qstego import linalg, protocols
from qstego.experiments import render_csv, run_experiment  # imports every layer the tracer wraps

ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)

CONFIG = json.loads((ROOT / "configs" / "sutherland_demo.json").read_text())


def hooked_attributes():
    """Every attribute the tracer may rebind: each qstego module's namespace,
    the validated classes' ``__post_init__`` and the numpy eigensolvers."""
    out = {}
    for name, mod in sys.modules.items():
        if name.startswith("qstego.") and mod is not None:
            out.update({(name, attr): obj for attr, obj in vars(mod).items()})
    for cls_name in tracer.VALIDATED:
        out[(cls_name, "__post_init__")] = getattr(linalg, cls_name).__post_init__
    for kernel in tracer.EIG_KERNELS:
        out[("numpy.linalg", kernel)] = getattr(np.linalg, kernel)
    return out


class TestTracer:
    def test_validated_classes_have_their_own_check(self):
        for cls_name in tracer.VALIDATED:
            cls = getattr(linalg, cls_name)
            assert isinstance(cls, type) and "__post_init__" in vars(cls), cls_name

    def test_protocols_exports_resolve(self):
        for name in protocols.__all__:
            assert getattr(protocols, name) is not None, name

    def test_traced_run_equals_untraced(self):
        untraced = render_csv(run_experiment(CONFIG))
        before = hooked_attributes()
        t = tracer.Tracer()
        t.prepare()
        t.install()
        try:
            assert np.linalg.eigh is not before[("numpy.linalg", "eigh")]
            traced = render_csv(run_experiment(CONFIG))
        finally:
            t.uninstall()
        after = hooked_attributes()
        assert traced == untraced
        assert after.keys() == before.keys()
        assert [key for key in before if after[key] is not before[key]] == []
        metrics = t.metrics()
        assert metrics["linalg.eig_calls"] > 0 and metrics["info.order_opts"] == 1

    def test_names_hooked_by_name_resolve(self):
        # every name the tracer counts or observes is one it wraps: a public
        # function of that qstego layer, or numpy.linalg's eigh/eigvalsh; a
        # stale name (say, of a deleted channels.apply_matrix) would read 0
        # without failing anything
        t = tracer.Tracer()
        t.prepare()
        names = [*tracer.ORDER_OPTIMIZERS, *tracer.RENYI, *tracer.KRAUS_KERNELS, *t._observers()]
        assert [name for name in names if name not in t.names] == []
