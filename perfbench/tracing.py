"""Span tracing around calls into the stratabord layers.

`Tracer.install()` replaces each function listed in WRAPPED by a wrapper
that records a span (name, start, end, parent, extra) and puts it back
under every name that held the original in any stratabord module, so
`strat.link` is traced as well as `complexes.link`.  Spans stay in memory;
`write()` puts them in a tab-separated file at the end.  `summary()` folds
them into per-name sums (calls, self time, extra, calls with a homology
span below them) that add up across processes, and `layer_metrics()` turns
those sums into the benchmark's per-layer metrics.

Self time is a span's duration minus the durations of its direct children:
the program runs on one thread, so child spans nest inside their parent.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from typing import Callable, Dict, List, Optional

MODULES = (
    "complexes", "algebra", "strat", "ih", "classes", "bordism", "iso",
    "catalog", "jsonio", "cli",
)


def _nnz(args, result):
    return len(args[0].entries)


def _subdivided(args, result):
    return int(result is not args[0])


def _out_bytes(args, result):
    return len(result)


def _in_bytes(args, result):
    return len(args[0])


# span name, module, attribute ("Class.method" for a method), extra
WRAPPED = (
    ("complexes.link", "complexes", "link", None),
    ("complexes.build_complex", "complexes", "build_complex", None),
    ("complexes.product_with_map", "complexes", "product_with_map", None),
    ("complexes.barycentric_subdivision", "complexes", "barycentric_subdivision", None),
    ("complexes.orient", "complexes", "orient", None),
    ("algebra.invariant_factors", "algebra", "invariant_factors", _nnz),
    ("algebra.rank_over", "algebra", "rank_over", _nnz),
    ("algebra.kernel_basis", "algebra", "kernel_basis", None),
    ("algebra.solve_exact", "algebra", "solve_exact", None),
    ("algebra.homology", "algebra", "homology", None),
    ("algebra.homology_of_chain_complex", "algebra", "homology_of_chain_complex", None),
    ("strat.sphere_like", "strat", "sphere_like", None),
    ("strat.ball_like", "strat", "ball_like", None),
    ("strat.validate", "strat", "validate_stratified_pseudomanifold", None),
    ("strat.germ_partition", "strat", "germ_partition", None),
    ("strat.intrinsic_stratification", "strat", "intrinsic_stratification", None),
    ("strat.stratum_link", "strat", "stratum_link", None),
    ("ih.intersection_homology", "ih", "intersection_homology", None),
    ("ih.ensure_full", "ih", "ensure_full", _subdivided),
    ("classes.member", "classes", "SingularityClass.member", None),
    ("classes.links_in_class", "classes", "links_in_class", None),
    ("bordism.bordism_to_intrinsic", "bordism", "bordism_to_intrinsic", None),
    ("bordism.verify_certificate", "bordism", "verify_certificate", None),
    ("iso.isomorphic", "iso", "isomorphic", None),
    ("catalog.get", "catalog", "get", None),
    ("jsonio.dumps", "jsonio", "dumps", _out_bytes),
    ("jsonio.loads", "jsonio", "loads", _in_bytes),
)

# Predicates are closures made by classes.builtin; the wrapper put on
# builtin traces each class's predicate, so that a span means a verdict that
# was computed rather than read from the verdict cache.
PREDICATE = "classes.predicate"
HOMOLOGY = "algebra.homology"


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, extra]
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, extra: Optional[Callable] = None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if extra is not None:
                span[4] = extra(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [importlib.import_module(f"stratabord.{m}") for m in MODULES]
        for name, modname, attr, extra in WRAPPED:
            owner = importlib.import_module(f"stratabord.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), extra))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, extra)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        classes = importlib.import_module("stratabord.classes")
        builtin = classes.builtin

        def traced_builtin(*args, **kwargs):
            E = builtin(*args, **kwargs)
            return dataclasses.replace(E, predicate=self.wrap(PREDICATE, E.predicate))

        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is builtin:
                    setattr(mod, key, traced_builtin)

    def summary(self) -> Dict[str, list]:
        """Per span name: [calls, self seconds, extra sum, calls over homology]."""
        spans = self.spans
        child = [0.0] * len(spans)
        below = [False] * len(spans)
        # Children come after their parent, so one reverse pass sees every
        # child before its parent.
        for i in range(len(spans) - 1, -1, -1):
            name, start, end, parent, _extra = spans[i]
            if parent >= 0:
                child[parent] += end - start
                if below[i] or name == HOMOLOGY:
                    below[parent] = True
        out: Dict[str, list] = {}
        for i, (name, start, end, _parent, extra) in enumerate(spans):
            row = out.setdefault(name, [0, 0.0, 0, 0])
            row[0] += 1
            row[1] += end - start - child[i]
            row[2] += extra
            row[3] += below[i]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\textra\n")
            for name, start, end, parent, extra in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{extra}\n")


def merge(total: Dict[str, list], part: Dict[str, list]) -> None:
    for name, row in part.items():
        acc = total.setdefault(name, [0, 0.0, 0, 0])
        for k in range(4):
            acc[k] += row[k]


# metric name -> (span name, field): field 0 calls, 1 self seconds, 2 extra
# sum, 3 calls with a homology span below them; field None sums the self
# seconds of every span whose name starts with the given layer prefix.
METRICS = {
    "complexes.link.calls": ("complexes.link", 0),
    "complexes.link.self_s": ("complexes.link", 1),
    "complexes.build_complex.calls": ("complexes.build_complex", 0),
    "complexes.build_complex.self_s": ("complexes.build_complex", 1),
    "complexes.self_s": ("complexes.", None),
    "strat.sphere_like.calls": ("strat.sphere_like", 0),
    "strat.sphere_like.by_homology": ("strat.sphere_like", 3),
    "strat.ball_like.calls": ("strat.ball_like", 0),
    "strat.ball_like.by_homology": ("strat.ball_like", 3),
    "strat.validate.calls": ("strat.validate", 0),
    "strat.germ_partition.self_s": ("strat.germ_partition", 1),
    "strat.self_s": ("strat.", None),
    "algebra.invariant_factors.calls": ("algebra.invariant_factors", 0),
    "algebra.invariant_factors.nnz": ("algebra.invariant_factors", 2),
    "algebra.invariant_factors.self_s": ("algebra.invariant_factors", 1),
    "algebra.rank_over.nnz": ("algebra.rank_over", 2),
    "algebra.rank_over.self_s": ("algebra.rank_over", 1),
    "algebra.kernel_basis.self_s": ("algebra.kernel_basis", 1),
    "algebra.solve_exact.self_s": ("algebra.solve_exact", 1),
    "algebra.homology.calls": ("algebra.homology", 0),
    "algebra.self_s": ("algebra.", None),
    "ih.intersection_homology.calls": ("ih.intersection_homology", 0),
    "ih.intersection_homology.self_s": ("ih.intersection_homology", 1),
    "ih.subdivisions": ("ih.ensure_full", 2),
    "classes.member.calls": ("classes.member", 0),
    "classes.member.computed": (PREDICATE, 0),
    "classes.links_in_class.self_s": ("classes.links_in_class", 1),
    "bordism.bordism_to_intrinsic.self_s": ("bordism.bordism_to_intrinsic", 1),
    "bordism.verify_certificate.self_s": ("bordism.verify_certificate", 1),
    "iso.self_s": ("iso.", None),
    "catalog.get.calls": ("catalog.get", 0),
    "catalog.get.self_s": ("catalog.get", 1),
    "jsonio.dumps.bytes": ("jsonio.dumps", 2),
    "jsonio.dumps.self_s": ("jsonio.dumps", 1),
    "jsonio.loads.bytes": ("jsonio.loads", 2),
    "jsonio.loads.self_s": ("jsonio.loads", 1),
}


def layer_metrics(total: Dict[str, list]) -> Dict[str, float]:
    out = {}
    for metric, (key, field) in METRICS.items():
        if field is None:
            out[metric] = sum(row[1] for name, row in total.items() if name.startswith(key))
        else:
            out[metric] = total.get(key, [0, 0.0, 0, 0])[field]
    return out
