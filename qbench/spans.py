"""Spans around qdeform's public functions, recorded from outside, and
the per-layer figures derived from them.

``install`` replaces every public function of the traced modules (and a
few public methods, and ``numpy.linalg.eigh``) with a wrapper that
records a span: name, start, end and the index of the enclosing span.
Nothing under ``src/`` changes; the wrappers live only in the worker
process that installed them.  ``RationalComplex`` arithmetic is called
hundreds of thousands of times per command, so it is counted, not
spanned.

Spans stay in memory and are handed to the caller when a repetition
ends.  A span's self time is its duration minus the durations of its
direct children; a function's busy time is the total duration of its
spans that are not nested inside another span of the same function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from typing import Callable

LAYERS = ("weyl", "rational", "matrixrep", "clockshift", "params", "report", "config", "cli")

# Span = [name, start, end, parent index or -1]
NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # results of outermost weyl calls; their coefficient sizes are read
        # after the command, outside the timed region
        self.weyl_results: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(args, result, parent)
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    # -- hooks run after a wrapped call returns ---------------------------

    def _after_eigh(self, args, result, parent):
        n = args[0].shape[-1]
        self.counts["matrixrep.eigh_flops_computed"] += n**3

    def _after_build_pair(self, args, result, parent):
        self.counts["clockshift.dense_bytes_computed"] += _array_bytes(result)

    def _after_render(self, args, result, parent):
        report = args[0]
        self.counts["report.bytes_out"] += len(result.encode("utf-8"))
        if report.table is not None:
            self.counts["report.rows"] += len(report.table.rows)

    def _after_weyl(self, args, result, parent):
        if parent < 0 or not self.spans[parent][NAME].startswith("weyl."):
            self.weyl_results.append(result)

    def take_weyl_bits(self) -> None:
        """Fold the coefficient sizes of pending weyl results into the counts."""
        bits = max((coefficient_bits(r) for r in self.weyl_results), default=0)
        self.counts["weyl.max_coeff_bits"] = max(self.counts["weyl.max_coeff_bits"], bits)
        self.weyl_results.clear()


def install(tracer: Tracer) -> None:
    """Wrap the traced layers of an imported qdeform in this process."""
    import numpy.linalg

    hooks = {"clockshift.build_pair": tracer._after_build_pair}
    for layer in LAYERS:
        module = importlib.import_module(f"qdeform.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue  # imported from elsewhere
            name = f"{layer}.{attr}"
            after = tracer._after_weyl if layer == "weyl" else hooks.get(name)
            setattr(module, attr, tracer.wrap(name, obj, after))

    report = importlib.import_module("qdeform.report")
    cls = report.VerificationReport
    cls.render = tracer.wrap("report.render", cls.render, tracer._after_render)
    params = importlib.import_module("qdeform.params")
    cls = params.ContractionPath
    cls.point = tracer.wrap("params.point", cls.point)
    rational = importlib.import_module("qdeform.rational")
    cls = rational.RationalComplex
    for op, counter in (
        ("__mul__", "rational.mul.calls"),
        ("__rmul__", "rational.mul.calls"),
        ("__add__", "rational.add.calls"),
        ("__radd__", "rational.add.calls"),
    ):
        setattr(cls, op, tracer.count(counter, getattr(cls, op)))
    numpy.linalg.eigh = tracer.wrap("numpy.eigh", numpy.linalg.eigh, tracer._after_eigh)


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays held by a result (one level of fields)."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if hasattr(obj, "mat"):
        return _array_bytes(obj.mat)
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields:
        return sum(_array_bytes(getattr(obj, f)) for f in fields)
    return 0


def coefficient_bits(value) -> int:
    """Largest numerator or denominator bit length among exact coefficients.

    Reads WeylSeriesElement -> ParamPolynomial -> RationalComplex,
    ScalarSeries -> RationalComplex, and tuples of these.
    """
    if isinstance(value, tuple):
        return max((coefficient_bits(v) for v in value), default=0)
    for attr in ("terms", "coeffs"):
        inner = getattr(value, attr, None)
        if isinstance(inner, dict):
            return max((coefficient_bits(v) for v in inner.values()), default=0)
    if hasattr(value, "re") and hasattr(value, "im"):
        return max(
            max(part.numerator.bit_length(), part.denominator.bit_length())
            for part in (value.re, value.im)
        )
    return 0


# ---------------------------------------------------------------------------
# figures from spans
# ---------------------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def busy(spans: list, match: Callable[[str], bool]) -> float:
    """Total duration of matching spans that no matching span encloses."""
    inside = [False] * len(spans)  # some ancestor matches
    total = 0.0
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            inside[i] = inside[p] or match(spans[p][NAME])
        if match(s[NAME]) and not inside[i]:
            total += s[END] - s[START]
    return total


def _named(name: str) -> Callable[[str], bool]:
    return lambda n: n == name


def _in_layer(layer: str) -> Callable[[str], bool]:
    prefix = layer + "."
    return lambda n: n.startswith(prefix)


# (metric, unit) in output order; BENCHMARK.json lists the same names.
PER_LAYER = (
    ("weyl.normal_product.calls", "count"),
    ("weyl.normal_product.self_s", "s"),
    ("weyl.identity_residual.busy_s", "s"),
    ("weyl.exchange_residual.busy_s", "s"),
    ("weyl.sqrt_one_plus_square.busy_s", "s"),
    ("weyl.leading_order_residual.busy_s", "s"),
    ("weyl.max_coeff_bits", "bit"),
    ("rational.mul.calls", "count"),
    ("rational.add.calls", "count"),
    ("matrixrep.identity_residual.busy_s", "s"),
    ("matrixrep.deformed_ops.busy_s", "s"),
    ("matrixrep.hermitian_function.calls", "count"),
    ("matrixrep.hermitian_function.busy_s", "s"),
    ("matrixrep.spectral_norm_estimate.busy_s", "s"),
    ("numpy.eigh.calls", "count"),
    ("numpy.eigh.busy_s", "s"),
    ("matrixrep.eigh_flops_computed", "flop"),
    ("clockshift.build_pair.calls", "count"),
    ("clockshift.build_pair.busy_s", "s"),
    ("clockshift.verify_qplane.calls", "count"),
    ("clockshift.verify_qplane.busy_s", "s"),
    ("clockshift.tan_half_deviations.busy_s", "s"),
    ("clockshift.dense_bytes_computed", "B"),
    ("cli.self_s", "s"),
    ("report.render.calls", "count"),
    ("report.render.busy_s", "s"),
    ("report.bytes_out", "B"),
    ("report.rows", "count"),
    ("params.point.calls", "count"),
    ("params.busy_s", "s"),
    ("config.load_config.busy_s", "s"),
    ("trace.overhead_s", "s"),
)

# Figures that must repeat exactly between runs of one seed.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER if unit != "s")


def layer_figures(spans: list, counts: dict) -> dict[str, float]:
    """Every per-layer figure except trace.overhead_s, from one repetition."""
    calls = Counter(s[NAME] for s in spans)
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        head, _, tail = name.rpartition(".")
        # "layer.busy_s" covers the whole layer, "layer.fn.busy_s" one function
        match = _named(head) if "." in head else _in_layer(head)
        if tail == "calls" and not name.startswith("rational."):
            out[name] = calls[head]
        elif tail == "busy_s":
            out[name] = busy(spans, match)
        elif tail == "self_s":
            out[name] = sum(t for s, t in zip(spans, selfs) if match(s[NAME]))
        else:  # counters kept by the hooks and the rational wrappers
            out[name] = counts.get(name, 0)
    return out
