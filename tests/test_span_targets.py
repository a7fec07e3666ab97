"""The benchmark's per-layer targets still name code that exists.

``perfbench/spans.py`` wraps functions by name and profiles ring classes by
name, and a target it cannot find reads 0 instead of failing.  This test
resolves every target the way ``Tracer.install`` and ``ring_stats`` do,
without installing anything, so a rename that would zero a metric fails here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# targets the program no longer has: the callable/value reconstructions moved
# to tests/reference_cochains.py, a t-only value is a Poly over the empty
# roster, and a function is an arity-0 MultiDiffOp
KNOWN_MISSING = {
    "multidiff.operator_from_callable", "multidiff.operator_from_values",
    "polynomials.ParamPoly", "polynomials.ParamRational", "polynomials.FormalFunction",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unresolved(spans):
    """The targets of ``SPANS``, ``RING_CLASSES`` and ``RING_FUNCTIONS`` that
    do not resolve, as ``module.qualified_name``."""
    importlib.import_module("fedconn.cli")
    missing = set()
    for module, qualname, _, _ in spans.SPANS.values():
        owner = sys.modules.get(f"fedconn.{module}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.add(f"{module}.{qualname}")
    for module, classes in spans.RING_CLASSES.items():
        mod = importlib.import_module(f"fedconn.{module}")
        missing.update(f"{module}.{cls}" for cls in classes if not hasattr(mod, cls))
    for module, attr in spans.RING_FUNCTIONS.values():
        if not hasattr(importlib.import_module(f"fedconn.{module}"), attr):
            missing.add(f"{module}.{attr}")
    return missing


def test_every_span_target_resolves_but_the_known_missing():
    assert unresolved(load_spans()) == KNOWN_MISSING


def test_a_renamed_target_is_reported(monkeypatch):
    spans = load_spans()
    monkeypatch.setitem(spans.SPANS, "multidiff.apply",
                        ("multidiff", "MultiDiffOp.apply_renamed", ("calls",), None))
    monkeypatch.setitem(spans.RING_CLASSES, "scalars", ("Scalar", "Scalr"))
    assert unresolved(spans) == KNOWN_MISSING | {"multidiff.MultiDiffOp.apply_renamed",
                                                 "scalars.Scalr"}
