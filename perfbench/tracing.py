"""Spans recorded from outside the solver, and the per-layer metrics.

:class:`Tracer` replaces public functions by timing wrappers at the name
their caller looks up (``scsp.solver.build_network`` for ``solve``,
``scsp.cli.build_network`` for the command line, and so on), and puts the
originals back afterwards.  Each call becomes a span with a parent; spans
stay in memory until the run writes them out.  A span's self time is its
duration minus the durations of its direct children.

The solver is single-threaded, so no layer ever waits on another; there
are no wait times to report.
"""

from __future__ import annotations

from math import lcm
from time import perf_counter

# (module, attribute looked up by the caller, span name)
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_instance", "fileformat.parse_instance"),
    ("cli", "solve", "solver.solve"),
    ("cli", "compile_to_intervals", "solver.compile_to_intervals"),
    ("cli", "build_network", "cutgraph.build_network"),
    ("cli", "format_network", "cutgraph.format_network"),
    ("solver", "solve", "solver.solve"),
    ("solver", "compile_to_intervals", "solver.compile_to_intervals"),
    ("solver", "expand_constraint", "solver.expand_constraint"),
    ("solver", "decompose_binary", "submodular.decompose_binary"),
    ("solver", "decompose_unary", "submodular.decompose_unary"),
    ("solver", "build_network", "cutgraph.build_network"),
    ("solver", "min_cut", "cutgraph.min_cut"),
    ("solver", "extract_assignment", "cutgraph.extract_assignment"),
    ("solver", "evaluate", "model.evaluate"),
    ("submodular", "find_violation", "submodular.find_violation"),
)

# per-layer time metric -> spans whose self time it sums
LAYER_TIMES = {
    "fileformat.parse_s": ("fileformat.parse_instance",),
    "submodular.check_s": ("submodular.find_violation",),
    "submodular.decompose_s": ("submodular.decompose_binary",
                               "submodular.decompose_unary"),
    "solver.compile_s": ("solver.compile_to_intervals",
                         "solver.expand_constraint"),
    "cutgraph.build_s": ("cutgraph.build_network",),
    "cutgraph.min_cut_s": ("cutgraph.min_cut",),
    "cutgraph.extract_s": ("cutgraph.extract_assignment",),
    "model.evaluate_s": ("model.evaluate",),
    "cutgraph.format_network_s": ("cutgraph.format_network",),
    "cli.self_s": ("cli.main",),
}

# spans whose first result is kept for counting after the traced call
_KEEP = {"fileformat.parse_instance", "cutgraph.build_network",
         "cutgraph.min_cut"}


class Tracer:
    """Records spans as [name, parent index, start, end] lists."""

    def __init__(self, scsp):
        self.scsp = scsp
        self.spans = []
        self.kept = {}
        self.term_counts = []  # (binary?, m, terms) per decompose call
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, kept = self.spans, self._stack, self.kept
        keep = name in _KEEP
        decompose = name.startswith("submodular.decompose_")

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else None, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if keep and name not in kept:
                kept[name] = result
            if decompose:
                self._count_terms(name, args[0], result)
            return result

        return wrapper

    def _count_terms(self, name, table, result):
        if name == "submodular.decompose_binary":
            self.term_counts.append((True, table.m, len(result.terms)))
        else:
            self.term_counts.append((False, table.m, len(result)))

    def install(self):
        for module_name, attr, span_name in WRAPPED:
            module = getattr(self.scsp, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def root(self, fn, *args):
        """Call fn as a root span; returns (result, seconds)."""
        index = len(self.spans)
        self.install()
        try:
            result = self._wrap("bench.call", fn)(*args)
        finally:
            self.uninstall()
        _, _, start, end = self.spans[index]
        return result, end - start

    def self_times(self):
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {}
        for (name, _, start, end), children in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start - children)
        return totals

    def calls(self, name):
        return sum(1 for span in self.spans if span[0] == name)


def layer_times(self_times):
    return {metric: sum(self_times.get(n, 0.0) for n in names)
            for metric, names in LAYER_TIMES.items()}


def network_counts(network, cut):
    """Exact shape of a network and its cut."""
    scale = 1
    for e in network.edges:
        if not e.capacity.is_infinite:
            scale = lcm(scale, e.capacity.fraction.denominator)

    def variable(node):
        return node[0] if isinstance(node, tuple) else None

    same_var = sum(1 for e in network.edges if e.constraint_index is not None
                   and variable(e.tail) is not None
                   and variable(e.tail) == variable(e.head))
    arcs = {(e.tail, e.head) for e in network.edges if e.tail != e.head}
    return {
        "cutgraph.nodes": len(network.nodes),
        "cutgraph.edges": len(network.edges),
        "cutgraph.distinct_arcs": len(arcs),
        "cutgraph.same_var_edges": same_var,
        "cutgraph.scale_bits": scale.bit_length(),
        "cutgraph.cut_edges": len(cut.cut_edges),
    }
