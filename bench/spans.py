"""In-memory spans around sphenergy's public functions, installed from outside.

A ``Tracer`` replaces each traced function in every module namespace that
binds it (``sphenergy.levenshtein.quadrature`` and
``sphenergy.bounds.quadrature`` are the same function under two names), so
calls between library modules are seen as well as calls from the benchmark.
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "sphenergy",
    "sphenergy.orthopoly",
    "sphenergy.levenshtein",
    "sphenergy.potentials",
    "sphenergy.bounds",
    "sphenergy.codes",
    "sphenergy.cli",
)

# (span name, defining module, attribute); a dotted attribute is a method.
TIMED = (
    ("orthopoly.greatest_zero", "sphenergy.orthopoly", "greatest_zero"),
    ("orthopoly.gegenbauer_table", "sphenergy.orthopoly", "gegenbauer_table"),
    ("orthopoly.product_to_gegen", "sphenergy.orthopoly", "product_to_gegen"),
    ("levenshtein.lev_poly_roots", "sphenergy.levenshtein", "lev_poly_roots"),
    ("levenshtein.quadrature", "sphenergy.levenshtein", "quadrature"),
    ("levenshtein.solve_cardinality", "sphenergy.levenshtein", "solve_cardinality"),
    ("levenshtein.levenshtein_poly", "sphenergy.levenshtein", "levenshtein_poly"),
    ("potentials.call", "sphenergy.potentials", "Potential.__call__"),
    ("bounds.hermite_interpolant", "sphenergy.bounds", "hermite_interpolant"),
    ("bounds.lambda_star", "sphenergy.bounds", "lambda_star"),
    ("bounds.uub", "sphenergy.bounds", "uub"),
    ("bounds.ulb", "sphenergy.bounds", "ulb"),
    ("bounds.strip", "sphenergy.bounds", "strip"),
    ("codes.SphericalCode", "sphenergy.codes", "SphericalCode.__init__"),
    ("codes.separation", "sphenergy.codes", "separation"),
    ("codes.energy", "sphenergy.codes", "energy"),
    ("codes.moments", "sphenergy.codes", "moments"),
    ("codes.verify_strip", "sphenergy.codes", "verify_strip"),
    ("cli.main", "sphenergy.cli", "main"),
)

# Called too often for a span each; only their calls are counted.
COUNTED = (
    ("orthopoly.eval_gegenbauer", "sphenergy.orthopoly", "eval_gegenbauer"),
    ("levenshtein.find_interval", "sphenergy.levenshtein", "find_interval"),
)

# Exceptions leaving these spans are the bound pipeline refusing a class.
REFUSALS = ("bounds.uub", "bounds.ulb")


class Tracer:
    """Spans [name, start, end, parent index, operation id] and call counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._refusal_types: tuple = ()

    def _timed(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        refusal = name in REFUSALS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except self._refusal_types:
                if refusal:
                    counts["bounds.cert_errors"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        errors = importlib.import_module("sphenergy.errors")
        self._refusal_types = (errors.CertificationError, errors.NumericsError)
        modules = [importlib.import_module(m) for m in MODULES]
        plan = []
        for make, table in ((self._timed, TIMED), (self._counted, COUNTED)):
            for name, home, attr in table:
                owner = importlib.import_module(home)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = getattr(cls, meth)
                    plan.append((cls, meth, original, make(name, original)))
                    continue
                original = getattr(owner, attr)
                wrapper = make(name, original)
                for mod in modules:
                    plan += [(mod, key, original, wrapper) for key, value in vars(mod).items() if value is original]
        return plan

    def install(self) -> None:
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def totals(self, ops: set[int] | None = None) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name, over the given operations.

        Self time is a span's duration minus the time its direct children cover.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, own = defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if ops is None or op in ops:
                incl[name] += end - start
                own[name] += end - start - child[i]
        return dict(incl), dict(own)
