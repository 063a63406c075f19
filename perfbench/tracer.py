"""In-memory span tracer for the traced benchmark run.

The tracer replaces the library's public functions at every module binding
the program calls through (``tunnelfill.filler.differential_square``,
``tunnelfill.homology.smith_normal_form``, ...) with wrappers that record a
span per call: name, start, end and the span that caused it. Spans are kept
in compact arrays in memory; self time is computed afterwards as a span's
duration minus the durations of its child spans. ``uninstall`` puts every
original binding back, so ``src/`` is never edited and an untraced run sees
the library exactly as shipped.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable

# The functions wrapped in each layer (a layer is one module of the package).
# render and cli are not measured: no workload goes through them.
TRACED = {
    "standard": ("build_standard", "build_extended"),
    "filler": ("partial_realize",),
    "rings": ("differential_square", "add_arrows", "degree_violations"),
    "oracle": ("oracle_decide",),
    "census": ("write_census_csv", "cross_check_with_oracle"),
    "builder": ("realize", "extend_and_realize", "double", "glue"),
    "lattice": ("lattice_positions",),
    "homology": ("quotient_complex", "check_correct_homology", "check_symmetry"),
    "f2poly": ("smith_normal_form",),
    "serial": ("serialize", "parse"),
}

# Every per-layer metric the traced run reports, with its unit, in the order
# BENCHMARK.json lists them.
PER_LAYER_METRICS = (
    ("standard.build_standard.calls", "count"),
    ("standard.build_standard.self_s", "s"),
    ("standard.build_extended.self_s", "s"),
    ("filler.partial_realize.calls", "count"),
    ("filler.partial_realize.self_s", "s"),
    ("filler.arrows_added", "count"),
    ("rings.differential_square.calls", "count"),
    ("rings.differential_square.self_s", "s"),
    ("rings.add_arrows.self_s", "s"),
    ("rings.degree_violations.self_s", "s"),
    ("oracle.oracle_decide.calls", "count"),
    ("oracle.oracle_decide.self_s", "s"),
    ("oracle.candidates", "count"),
    ("oracle.subsets", "count"),
    ("oracle.over_cap", "count"),
    ("census.write_census_csv.self_s", "s"),
    ("census.cross_check_with_oracle.self_s", "s"),
    ("builder.realize.calls", "count"),
    ("builder.extend_and_realize.calls", "count"),
    ("builder.extend_and_realize.self_s", "s"),
    ("builder.double.self_s", "s"),
    ("builder.glue.self_s", "s"),
    ("builder.retry_ratio", "ratio"),
    ("lattice.lattice_positions.self_s", "s"),
    ("homology.quotient_complex.self_s", "s"),
    ("homology.check_correct_homology.self_s", "s"),
    ("homology.check_symmetry.self_s", "s"),
    ("f2poly.smith_normal_form.calls", "count"),
    ("f2poly.smith_normal_form.self_s", "s"),
    ("f2poly.snf_max_transform_deg", "degree"),
    ("serial.serialize.self_s", "s"),
    ("serial.parse.self_s", "s"),
    ("serial.bytes", "bytes"),
    ("src.loc", "lines"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.attributed_ratio", "ratio"),
)

COUNTER_SPAN = "trace.counters"


def _count_arrows_added(counters, args, kwargs, result, error):
    if error is not None:
        return
    if hasattr(result, "added"):
        counters["filler.arrows_added"] += len(result.added)
    else:
        start = args[0] if args else kwargs["complex"]
        counters["filler.arrows_added"] += (
            len(result.partial_progress.arrows) - len(start.arrows)
        )


def _count_oracle(counters, args, kwargs, result, error):
    if error is not None:
        if type(error).__name__ == "OracleTooLargeError":
            counters["oracle.over_cap"] += 1
        return
    found = len(result.candidates)
    counters["oracle.candidates"] += found
    counters["oracle.subsets"] += 1 << found


def _count_snf_degree(counters, args, kwargs, result, error):
    if error is not None:
        return
    left, _, right = result
    top = max(
        (e.bit_length() - 1 for m in (left, right) for row in m.rows for e in row),
        default=-1,
    )
    if top > counters["f2poly.snf_max_transform_deg"]:
        counters["f2poly.snf_max_transform_deg"] = top


def _count_serialized(counters, args, kwargs, result, error):
    if error is None:
        counters["serial.bytes"] += len(result)


def _count_parsed(counters, args, kwargs, result, error):
    text = args[0] if args else kwargs["text"]
    counters["serial.bytes"] += len(text)


# Counters read at a span boundary; they run inside their own
# "trace.counters" span so they never inflate a layer's self time.
COUNTER_HOOKS = {
    "filler.partial_realize": _count_arrows_added,
    "oracle.oracle_decide": _count_oracle,
    "f2poly.smith_normal_form": _count_snf_degree,
    "serial.serialize": _count_serialized,
    "serial.parse": _count_parsed,
}


class Tracer:
    """Spans of one traced pass, plus the bindings it replaced."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("l")
        self.parents = array("l")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.bindings: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` wrapped so that each call records one span called ``name``."""
        nid = self._name_id(name)
        hook_id = self._name_id(COUNTER_SPAN)
        starts, ends, name_ids, parents = self.starts, self.ends, self.name_ids, self.parents
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            i = len(starts)
            parents.append(stack[-1])
            name_ids.append(nid)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            error = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                ends[i] = perf_counter()
                stack.pop()
                if hook is not None:
                    j = len(starts)
                    parents.append(stack[-1])
                    name_ids.append(hook_id)
                    ends.append(0.0)
                    starts.append(perf_counter())
                    hook(counters, args, kwargs, None if error else result, error)
                    ends[j] = perf_counter()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, layers: dict[str, object]) -> None:
        """Wrap every binding of each traced function in every loaded
        ``tunnelfill`` module, the function's home module included."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == "tunnelfill" or n.startswith("tunnelfill.")) and m is not None
        ]
        for layer, functions in TRACED.items():
            home = layers[layer]
            for fname in functions:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapper = self.spanned(name, original, COUNTER_HOOKS.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self.bindings.append((module, attr, original))

    def uninstall(self) -> list[str]:
        """Restore every replaced binding; returns those still not restored."""
        for module, attr, original in self.bindings:
            setattr(module, attr, original)
        return [
            f"{module.__name__}.{attr}"
            for module, attr, original in self.bindings
            if getattr(module, attr) is not original
        ]

    def summary(self) -> tuple[Counter, Counter, float]:
        """Calls and self seconds per span name, and the summed root spans.

        A span's self time is its duration minus its children's durations;
        spans of one caller never overlap, so the self times of a tree add
        up to its root span.
        """
        calls: Counter = Counter()
        self_s: Counter = Counter()
        roots = 0.0
        names, name_ids, parents = self.names, self.name_ids, self.parents
        for i, (start, end) in enumerate(zip(self.starts, self.ends)):
            duration = end - start
            name = names[name_ids[i]]
            calls[name] += 1
            self_s[name] += duration
            parent = parents[i]
            if parent >= 0:
                self_s[names[name_ids[parent]]] -= duration
            else:
                roots += duration
        return calls, self_s, roots


def layer_metrics(tracer: Tracer, traced_wall: float, overhead_ratio: float, src_loc: int) -> dict[str, float]:
    """The per-layer metric values of one traced pass; ``overhead_ratio`` is
    its op time over an untraced pass's, both at the nominal host speed."""
    calls, self_s, _ = tracer.summary()
    counters = tracer.counters
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER_METRICS:
        if name.endswith(".calls"):
            values[name] = calls[name.removesuffix(".calls")]
        elif name.endswith(".self_s"):
            values[name] = self_s[name.removesuffix(".self_s")]
        else:
            values[name] = counters[name]
    realizes = calls["builder.realize"]
    extends = calls["builder.extend_and_realize"]
    values["builder.retry_ratio"] = (extends - realizes) / realizes if realizes else 0.0
    values["src.loc"] = src_loc
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.attributed_ratio"] = sum(self_s.values()) / traced_wall
    return values
