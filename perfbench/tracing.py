"""Spans and counters around calls into deltafrac's layers, for traced runs.

The layers are the package's modules:

    exact       exact.py                        counters plus accumulated time
    special     special.py                      one span per call
    fracops     fracops.py, gridfn.py           one span per call
    identities  identities.py, sweeps.py,       one span per call, and one per
                report.py                       report a sweep yields
    cli         cli.py                          one span per ``cli.main`` call,
                                                opened by the suite workload

Spans wrap the names that callers look up, not the library's code: a
``from .x import y`` binding is a separate name in every importing module,
so each public function is replaced in every deltafrac module that holds
it.  The exact layer runs about 700k calls per suite pass, too many for a
span each, so its calls only bump a counter and add their time to the
enclosing span.  Spans stay in memory until the run ends; ``layer_report``
then derives each layer's self time as its span time minus its child
spans and the exact time spent directly inside it.
"""
from __future__ import annotations

import sys
import types
from collections import Counter
from time import perf_counter

LAYER_MODULES = {
    "special": ("special",),
    "fracops": ("fracops", "gridfn"),
    "identities": ("identities", "sweeps", "report"),
}
LAYERS = ("exact", "special", "fracops", "identities", "cli")

# Sweeps are generators, so a span around the call would close before any
# work ran.  cli's run_sweep binding gets one span per yielded report.
ITERATED = {"run_sweep", "run_identity"}

# (class name, method, counter).  __sub__ goes through __add__ and is not
# counted separately, so poly_add counts every addition once.
EXACT_METHODS = (
    ("GammaPolynomial", "__init__", "exact.poly_new"),
    ("GammaPolynomial", "__add__", "exact.poly_add"),
    ("GammaPolynomial", "__radd__", "exact.poly_add"),
    ("GammaPolynomial", "__mul__", "exact.poly_mul"),
    ("GammaPolynomial", "__rmul__", "exact.poly_mul"),
    ("GammaPolynomial", "to_float", "exact.to_float"),
    ("GammaPolynomial", "render", "exact.render"),
    ("GammaMonomial", "__mul__", "exact.monomial_mul"),
    ("GammaMonomial", "__rmul__", "exact.monomial_mul"),
    ("GammaMonomial", "__truediv__", "exact.monomial_mul"),
)

# Span fields: name, layer, start, end, parent index, exact seconds inside.
NAME, LAYER, START, END, PARENT, EXACT_S = range(6)


class Tracer:
    """Span list and counters; records only while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.exact_outside = 0.0
        self._stack: list[int] = []
        self._exact_depth = 0

    def span(self, layer: str, name: str, fn, after=None):
        """Wrap ``fn`` so each active call records a span.

        ``after(args, result)`` runs once the span is closed, for counts that
        depend on the arguments or the result.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def exact(self, counter: str, fn):
        """Wrap an exact-layer callable: count every call, time the outermost."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def counted(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[counter] += 1
            if self._exact_depth:
                return fn(*args, **kwargs)
            self._exact_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._exact_depth = 0
                if stack:
                    spans[stack[-1]][EXACT_S] += elapsed
                else:
                    self.exact_outside += elapsed

        counted.__wrapped__ = fn
        return counted

    def iterated(self, layer: str, run_sweep):
        """Wrap cli's run_sweep: one span per report the sweep yields."""
        end = object()

        def traced_run_sweep(config):
            step = self.span(layer, f"{layer}.sweep.{config.identity}", next)
            reports = run_sweep(config)
            while True:
                report = step(reports, end)
                if report is end:
                    return
                if self.active:
                    self.counts["identities.reports"] += 1
                    self.counts[f"identities.status.{report.status}"] += 1
                yield report

        traced_run_sweep.__wrapped__ = run_sweep
        return traced_run_sweep

    def layer_report(self) -> dict:
        """Per-layer self time, per-name inclusive time and span counts."""
        child_s = [0.0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] >= 0:
                child_s[record[PARENT]] += record[END] - record[START]
        self_s = dict.fromkeys(LAYERS, 0.0)
        self_s["exact"] = self.exact_outside
        inclusive_s: Counter = Counter()
        calls: Counter = Counter()
        for record, children in zip(self.spans, child_s):
            duration = record[END] - record[START]
            self_s[record[LAYER]] += duration - children - record[EXACT_S]
            self_s["exact"] += record[EXACT_S]
            inclusive_s[record[NAME]] += duration
            calls[record[NAME]] += 1
        return {"self_s": self_s, "inclusive_s": inclusive_s, "calls": calls}


def _rebind(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, hooks: dict | None = None) -> None:
    """Replace deltafrac's public layer functions with traced wrappers.

    ``hooks`` maps a span name to an ``after(args, result)`` callback.
    Meant for a worker process that ends after the traced run: nothing is
    restored.
    """
    hooks = hooks or {}
    modules = [
        module
        for name, module in sys.modules.items()
        if name == "deltafrac" or name.startswith("deltafrac.")
    ]
    for layer, module_names in LAYER_MODULES.items():
        for module_name in module_names:
            module = sys.modules[f"deltafrac.{module_name}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if (
                    not isinstance(fn, types.FunctionType)
                    or fn.__module__ != module.__name__
                    or attr in ITERATED
                ):
                    continue
                name = f"{layer}.{attr}"
                _rebind(modules, fn, tracer.span(layer, name, fn, hooks.get(name)))
    exact = sys.modules["deltafrac.exact"]
    for class_name, method, counter in EXACT_METHODS:
        cls = getattr(exact, class_name)
        setattr(cls, method, tracer.exact(counter, vars(cls)[method]))
    _rebind(modules, exact.gamma_of, tracer.exact("exact.gamma_of", exact.gamma_of))
    cli = sys.modules["deltafrac.cli"]
    cli.run_sweep = tracer.iterated("identities", cli.run_sweep)
