"""Per-layer instrumentation for a traced child, applied from outside the program.

Two mechanisms, used in separate passes so that neither distorts the other:

* ``Tracer`` wraps the public functions listed in ``SPANS`` with spans.  Each
  span adds its duration to the open parent span, so a layer's self time is
  its span time minus the child spans it covers.  ``total_s`` counts only the
  outermost activation of a name, so recursion is not counted twice.  Spans
  are aggregated as they close instead of being stored one by one, because
  the Weyl product alone closes hundreds of thousands of them.
* ``ring_stats`` reads a ``cProfile`` profile and sums calls and self time
  per class of the coefficient ring, which makes millions of calls, too many
  for Python-level spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pstats
import sys
import time
from collections import defaultdict


# The size hooks read attributes of the program's objects.  They count 0,
# instead of failing, when an attribute is gone, so that a change to the
# program shows up as a changed count and not as a crashed traced run.

def _size(obj, path: str) -> int:
    """len() of the attribute at the dotted ``path``, or 0 when there is none."""
    for attr in path.split("."):
        obj = getattr(obj, attr, None)
    return len(obj) if hasattr(obj, "__len__") else 0


def _pairs(call, args, kwargs, add):
    add("pairs", _size(args[0], "terms") * _size(args[1], "terms"))
    out = call(*args, **kwargs)
    add("out_terms", _size(out, "terms"))
    return out


def _central(call, args, kwargs, add):
    terms = getattr(args[0], "terms", {})
    add("in_terms", len(terms))
    add("central", sum(1 for (_, a, _) in terms if not any(a)))
    return call(*args, **kwargs)


def _tau_hits(call, args, kwargs, add):
    # the cache only grows on a miss
    before = _size(args[0], "_tau_cache")
    out = call(*args, **kwargs)
    add("hits", int(before > 0 and _size(args[0], "_tau_cache") == before))
    return out


def _star_terms(call, args, kwargs, add):
    out = call(*args, **kwargs)
    add("terms", _size(out, "op.terms"))
    return out


def _connection_terms(call, args, kwargs, add):
    out = call(*args, **kwargs)
    add("terms", sum(_size(op, "terms") for op in getattr(out, "ops", {}).values()))
    return out


def _callable_evals(call, args, kwargs, add):
    fn = args[0]

    def counted(*a):
        add("evals", 1)
        return fn(*a)

    return call(counted, *args[1:], **kwargs)


def _values_evals(call, args, kwargs, add):
    add("evals", len(args[4] if len(args) > 4 else kwargs.get("values", ())))
    return call(*args, **kwargs)


# metric prefix -> (module under fedconn, qualified name, stats emitted, size hook)
SPANS = {
    "weylforms.mw": ("weylforms", "WeylForm.mw", ("calls", "self_s", "pairs", "out_terms"), _pairs),
    "weylforms.ad_over_h": ("weylforms", "WeylForm.ad_over_h",
                            ("calls", "self_s", "pairs", "out_terms"), _pairs),
    "weylforms.project_function": ("weylforms", "WeylForm.project_function",
                                   ("calls", "central_ratio", "in_terms"), _central),
    "weylforms.delta_inv": ("weylforms", "WeylForm.delta_inv", ("calls", "self_s"), None),
    "fedosov.FedosovSetup": ("fedosov", "FedosovSetup.__init__", ("total_s",), None),
    "fedosov.star": ("fedosov", "FedosovSetup.star", ("calls", "self_s"), None),
    "fedosov.tau": ("fedosov", "FedosovSetup.tau", ("calls", "self_s", "hit_ratio"), _tau_hits),
    "fedosov.extract_star": ("fedosov", "FedosovSetup.extract_star",
                             ("total_s", "terms"), _star_terms),
    "multidiff.operator_from_callable": ("multidiff", "operator_from_callable",
                                         ("self_s", "evals"), _callable_evals),
    "multidiff.operator_from_values": ("multidiff", "operator_from_values",
                                       ("total_s", "evals"), _values_evals),
    "multidiff.apply": ("multidiff", "MultiDiffOp.apply", ("calls", "self_s"), None),
    "multidiff.compose": ("multidiff", "MultiDiffOp.compose", ("calls", "self_s"), None),
    "families.solve_s": ("families", "solve_s", ("total_s",), None),
    "families.connection_form": ("families", "connection_form",
                                 ("total_s", "terms"), _connection_terms),
    "families.verify_compatibility": ("families", "verify_compatibility", ("total_s",), None),
    "families.lowest_order_identity": ("families", "lowest_order_identity", ("total_s",), None),
    "families.derivation_identity": ("families", "derivation_identity", ("total_s",), None),
    "families.verify_curvature": ("families", "verify_curvature", ("total_s",), None),
    "transport.flatness_check": ("transport", "flatness_check", ("total_s",), None),
    "transport.gauge_equivalence": ("transport", "gauge_equivalence", ("total_s",), None),
    "transport.parallel_transport": ("transport", "parallel_transport", ("total_s",), None),
    "transport.self_equivalence_check": ("transport", "self_equivalence_check",
                                         ("total_s",), None),
    "transport.conjugation_check": ("transport", "conjugation_check", ("total_s",), None),
    "symplectic.curvature_weyl": ("symplectic", "ConnectionFamily.curvature_weyl",
                                  ("total_s",), None),
    "symplectic.variation_S": ("symplectic", "ConnectionFamily.variation_S", ("total_s",), None),
    "symplectic.cov_deriv": ("symplectic", "ConnectionFamily.cov_deriv",
                             ("calls", "self_s"), None),
    "scenario.load": ("scenario", "Scenario.load", ("total_s",), None),
    "kahler.gtilde_variation": ("kahler", "LinearKahlerFamily.gtilde_variation",
                                ("calls", "total_s"), None),
    "kahler.verify_lemma_vc1": ("kahler", "verify_lemma_vc1", ("total_s",), None),
    "kahler.order1_hitchin_check": ("kahler", "order1_hitchin_check", ("total_s",), None),
    "kahler.rigidity_check": ("kahler", "rigidity_check", ("total_s",), None),
    "reports.render": ("reports", "Report.render_text", ("total_s",), None),
}

# the coefficient ring, profiled per class: module -> classes
RING_CLASSES = {
    "polynomials": ("Poly", "ParamPoly", "ParamRational", "FormalFunction"),
    "scalars": ("Scalar",),
}
RING_FUNCTIONS = {"polynomials.pp_gcd": ("polynomials", "pp_gcd")}

OVERHEAD = ("trace.spans_overhead_s", "trace.profile_overhead_s")


def _unit(stat: str) -> str:
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_ratio"):
        return "ratio"
    return "count"


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in a fixed order."""
    out = {}
    for prefix, (_, _, stats, _) in SPANS.items():
        for stat in stats:
            out[f"{prefix}.{stat}"] = _unit(stat)
    for module, classes in RING_CLASSES.items():
        for cls in classes:
            out[f"{module}.{cls}.calls"] = "count"
            out[f"{module}.{cls}.self_s"] = "s"
    for prefix in RING_FUNCTIONS:
        out[f"{prefix}.calls"] = "count"
    for name in OVERHEAD:
        out[name] = "s"
    return out


class Tracer:
    """Aggregated spans around the calls listed in ``SPANS``."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self._open = []               # child-time accumulators of open spans
        self._depth = defaultdict(int)

    def wrap(self, name, fn, hook=None):
        stats, opened, depth, clock = self.stats[name], self._open, self._depth, time.perf_counter

        def add(key, n):
            stats[key] += n

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            child = [0.0]
            opened.append(child)
            depth[name] += 1
            t0 = clock()
            try:
                return hook(fn, args, kwargs, add) if hook else fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                opened.pop()
                depth[name] -= 1
                stats["calls"] += 1
                stats["self_s"] += dt - child[0]
                if not depth[name]:
                    stats["total_s"] += dt
                if opened:
                    opened[-1][0] += dt

        return spanned

    def install(self) -> list:
        """Replace every ``SPANS`` target, and each module's imported alias of it.

        Returns the targets the program no longer has; their metrics read 0.
        """
        importlib.import_module("fedconn.cli")
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("fedconn")]
        missing = []
        for name, (module, qualname, _, hook) in SPANS.items():
            owner = sys.modules.get(f"fedconn.{module}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(f"{module}.{qualname}")
                continue
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__, hook)))
                continue
            wrapped = self.wrap(name, raw, hook)
            setattr(owner, attr, wrapped)
            if not path:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)
        return missing

    def sums(self) -> dict:
        """Raw additive sums, ``prefix.stat`` -> value; see ``layer_metrics``."""
        return {f"{name}.{key}": value for name, stats in self.stats.items()
                for key, value in stats.items()}


def layer_metrics(sums: dict) -> dict:
    """Every per-layer metric from sums over jobs, ratios taken after summing."""
    out = {}
    for name, unit in metric_units().items():
        if name.endswith(".central_ratio"):
            base = sums.get(name.replace("central_ratio", "in_terms"), 0)
            value = sums.get(name.replace("central_ratio", "central"), 0) / base if base else 0.0
        elif name.endswith(".hit_ratio"):
            base = sums.get(name.replace("hit_ratio", "calls"), 0)
            value = sums.get(name.replace("hit_ratio", "hits"), 0) / base if base else 0.0
        else:
            value = sums.get(name, 0)
        out[name] = int(value) if unit == "count" else value
    return out


def ring_stats(profile) -> dict:
    """Calls and self time per ring class (and for ``pp_gcd``) from a cProfile run."""
    ranges = []  # (filename, first line, last line, metric prefix)
    for module, classes in RING_CLASSES.items():
        mod = importlib.import_module(f"fedconn.{module}")
        for cls in classes:
            if hasattr(mod, cls):
                lines, start = inspect.getsourcelines(getattr(mod, cls))
                ranges.append((inspect.getsourcefile(mod), start, start + len(lines) - 1,
                               f"{module}.{cls}"))
    functions = {}
    for prefix, (module, attr) in RING_FUNCTIONS.items():
        code = getattr(getattr(importlib.import_module(f"fedconn.{module}"), attr, None),
                       "__code__", None)
        if code is not None:
            functions[(code.co_filename, code.co_firstlineno, code.co_name)] = prefix
    out = defaultdict(float)
    for (filename, line, fname), (_, ncalls, tottime, _, _) in pstats.Stats(profile).stats.items():
        prefix = functions.get((filename, line, fname))
        if prefix:
            out[f"{prefix}.calls"] += ncalls
            continue
        for path, first, last, cls_prefix in ranges:
            if filename == path and first <= line <= last:
                out[f"{cls_prefix}.calls"] += ncalls
                out[f"{cls_prefix}.self_s"] += tottime
                break
    return dict(out)
