"""Span recorder for the traced run: wraps lamptwist's public functions from outside.

`install` replaces each target with a wrapper and rebinds every module-level
name in the `lamptwist` package that referred to the original, so calls made
through `from .matrix import smith_normal_form` are seen too; methods are
replaced on their class.  Spans (name, start, end, parent, op id, exception)
stay in memory and are written out when the run ends.  A layer's self time is
its span time minus the time of its direct child spans; spans nest, because
the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute): each call becomes a span
SPANNED = (
    ("fileformat.load", "fileformat", "load"),
    ("fileformat.save", "fileformat", "save"),
    ("automorphism.validate", "automorphism", "WreathAutomorphism.validate"),
    ("matrix.smith_normal_form", "matrix", "smith_normal_form"),
    ("matrix.matrix_order", "matrix", "matrix_order"),
    ("modular.solve_linear", "modular", "solve_linear"),
    ("reidemeister.reidemeister_number", "reidemeister", "reidemeister_number"),
    ("reidemeister.restriction_surjectivity", "reidemeister", "restriction_surjectivity"),
    ("reidemeister.template_preimage", "reidemeister", "template_preimage"),
    ("reidemeister.replay_certificate", "reidemeister", "replay_certificate"),
    ("finite.ensure_tables", "finite", "FiniteWreathGroup.ensure_tables"),
    ("finite.descend_automorphism", "finite", "descend_automorphism"),
    ("finite.twisted_classes", "finite", "twisted_classes"),
    ("finite.fixed_conjugacy_classes", "finite", "fixed_conjugacy_classes"),
    ("finite.projection_index_map", "finite", "projection_index_map"),
)
# hot helpers: counted only, their time stays in the caller's self time
COUNTED = (
    ("matrix.mat_mul", "matrix", "mat_mul"),
    ("group.Torsion.convolve", "group", "Torsion.convolve"),
)
ROUTES = ("lattice_infinite", "template", "unknown")
MIB = float(1 << 20)


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id, exception name]
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.routes = Counter()
        self.tables_bytes = 0

    # -- wrappers ---------------------------------------------------------------

    def spanned(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        counts = self.counts

        def hit(name):
            def on_result(result):
                counts[name] += result is not None
            return on_result

        def route(result):
            if result.value is None:
                self.routes["unknown"] += 1
            elif result.certificate is None:
                self.routes["lattice_infinite"] += 1
            else:
                self.routes["template"] += 1

        def tables(result):
            size = sum(getattr(v, "nbytes", 0) for v in result.values())
            self.tables_bytes = max(self.tables_bytes, size)

        return {
            "modular.solve_linear": hit("modular.solve_linear.solved"),
            "reidemeister.template_preimage": hit("reidemeister.template_preimage.hit"),
            "reidemeister.reidemeister_number": route,
            "finite.ensure_tables": tables,
        }

    def install(self):
        """Wrap every target that exists; a target a later version removed reads as 0 calls."""
        import lamptwist  # noqa: F401  (loads the package so its modules are in sys.modules)

        hooks = self._hooks()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lamptwist" or n.startswith("lamptwist."))]

        def spanned(prefix, fn):
            return self.spanned(prefix, fn, hooks.get(prefix))

        for table, make in ((SPANNED, spanned), (COUNTED, self.counted)):
            for prefix, module, attr in table:
                owner = sys.modules.get(f"lamptwist.{module}")
                cls_name, _, name = attr.rpartition(".")
                if owner is None:
                    continue
                if cls_name:
                    cls = getattr(owner, cls_name, None)
                    if cls is not None and name in vars(cls):
                        setattr(cls, name, make(prefix, vars(cls)[name]))
                    continue
                original = getattr(owner, name, None)
                if original is None:
                    continue
                wrapped = make(prefix, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    # -- ops ---------------------------------------------------------------------

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Context for one op: a root span named `op` carrying the op id."""
        self.op = op_id
        rec = ["op", time.perf_counter_ns(), 0, -1, op_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts), "routes": dict(self.routes),
                "tables_bytes": self.tables_bytes}


# -- aggregation -------------------------------------------------------------------


def layer_metrics(dumps):
    """Per-layer counts, self times and ratios from one or more recorder dumps."""
    calls, self_ns = Counter(), Counter()
    counts, routes = Counter(), Counter()
    tables_bytes = 0
    refused_ops = set()
    for which, d in enumerate(dumps):
        spans = d["spans"]
        child_ns = defaultdict(int)
        for name, start, end, parent, op, exc in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, op, exc) in enumerate(spans):
            if exc == "BudgetExceeded":
                refused_ops.add((which, op))
            if name == "op":
                continue
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        counts.update(d["counts"])
        routes.update(d["routes"])
        tables_bytes = max(tables_bytes, d["tables_bytes"])

    out = {}
    for prefix, _, _ in SPANNED:
        out[f"{prefix}.calls"] = (calls[prefix], "count")
        out[f"{prefix}.self_s"] = (self_ns[prefix] / 1e9, "s")
    for prefix, _, _ in COUNTED:
        out[f"{prefix}.calls"] = (counts[prefix], "count")
    out["modular.solve_linear.solved_share"] = (
        _share(counts["modular.solve_linear.solved"], calls["modular.solve_linear"]), "ratio")
    out["reidemeister.template_preimage.hit_share"] = (
        _share(counts["reidemeister.template_preimage.hit"],
               calls["reidemeister.template_preimage"]), "ratio")
    for r in ROUTES:
        out[f"reidemeister.route.{r}"] = (routes[r], "count")
    out["finite.tables_mb"] = (tables_bytes / MIB, "MB")
    out["finite.budget_refusals"] = (len(refused_ops), "count")
    return out


def _share(part, whole):
    return part / whole if whole else 0.0


def write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
