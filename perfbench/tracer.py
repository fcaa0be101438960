"""Spans around calls into fockgraph's public functions, from outside the package.

Each traced function is replaced, in every module that binds it, by a
wrapper that records (name, start, end, parent, op).  `from .fock import
displacement_matrix` gives `quadrature` and `graphs` their own binding, so
patching only the defining module would miss those calls.  Spans stay in
memory; the process hands them to run.py, which writes the run's spans out
once, after the run.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time


def _scheme_nodes(scheme) -> int:
    return scheme.active_radial()[0].size * scheme.angular.count


def _single_mode(args) -> tuple[int, int, int]:
    return _scheme_nodes(args["scheme"]), args["cutoff"] + 1, 1


def _graph_resolution(args) -> tuple[int, int, int]:
    spec, schemes = args["spec"], args["schemes"]
    if hasattr(schemes, "angular"):
        schemes = (schemes,) * (spec.modes - 1)
    nodes = 1
    for scheme in schemes:
        nodes *= _scheme_nodes(scheme)
    dim = spec.space.dim
    return nodes, dim, spec.cutoff + 1 if args["backend"] == "rank" else dim


def _seed_projector_quadrature(args) -> tuple[int, int, int]:
    return _scheme_nodes(args["scheme"]), args["spec"].space.dim, 1


# (defining module, attribute, span name, quadrature size from the bound
# arguments as (nodes, dim, rank of each node's dyad update)).
TARGETS = (
    ("fockgraph.fock", "displacement_matrix", "fock.displacement_matrix", None),
    ("fockgraph.multimode", "kron_all", "multimode.kron_all", None),
    ("fockgraph.quadrature", "coherent_identity", "quadrature.integrate", _single_mode),
    ("fockgraph.quadrature", "displaced_projector_identity", "quadrature.integrate", _single_mode),
    ("fockgraph.quadrature", "graph_resolution", "quadrature.integrate", _graph_resolution),
    ("fockgraph.quadrature", "polar_scheme", "quadrature.scheme", None),
    ("fockgraph.graphs", "seed_projector_quadrature", "graphs.seed_projector_quadrature", _seed_projector_quadrature),
    ("fockgraph.graphs", "seed_basis", "graphs.seed_basis", None),
    ("fockgraph.graphs", "graph_generator", "graphs.graph_generator", None),
    ("fockgraph.graphs", "compression_check", "graphs.compression_check", None),
    # GraphElement's PSD check is the only caller of eigvalsh in fockgraph.
    ("numpy.linalg", "eigvalsh", "graphs.psd_check", None),
    ("fockgraph.runner", "run_experiment", "runner.run_experiment", None),
    ("fockgraph.report", "emit_report", "report.emit", None),
    ("fockgraph.config", "parse_config", "config.resolve", None),
    ("fockgraph.config", "default_config", "config.resolve", None),
    ("fockgraph.config", "default_suite", "config.resolve", None),
)

# Per-layer metric -> (span name, what to sum per op).  "total" counts only
# outermost spans of a name, so nested calls of one name are not counted twice.
LAYER_METRICS = {
    "fock.displacement_matrix.s": ("fock.displacement_matrix", "total"),
    "fock.displacement_matrix.calls": ("fock.displacement_matrix", "calls"),
    "multimode.kron_all.s": ("multimode.kron_all", "total"),
    "multimode.kron_all.calls": ("multimode.kron_all", "calls"),
    "quadrature.integrate.self_s": ("quadrature.integrate", "self"),
    "graphs.seed_projector_quadrature.self_s": ("graphs.seed_projector_quadrature", "self"),
    "quadrature.scheme_s": ("quadrature.scheme", "total"),
    "graphs.psd_check_s": ("graphs.psd_check", "total"),
    "graphs.graph_generator.self_s": ("graphs.graph_generator", "self"),
    "graphs.compression_check.self_s": ("graphs.compression_check", "self"),
    "graphs.seed_basis.s": ("graphs.seed_basis", "total"),
    "runner.run_experiment.self_s": ("runner.run_experiment", "self"),
    "report.emit_s": ("report.emit", "total"),
    "config.resolve_s": ("config.resolve", "total"),
}

# Counts taken at the integrator boundary; the flops are computed from the
# dims (8 real flops per complex multiply-add, a rank-k dyad update on a
# dim x dim accumulator per node), not measured.
COUNT_METRICS = ("quadrature.nodes", "quadrature.accumulate_gflop")


class Tracer:
    """Records spans while installed; install and uninstall between ops."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: list[tuple] = []  # (op, metric, value)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = None
        self._patches = []
        for module_name, attr, name, size in TARGETS:
            home = importlib.import_module(module_name)
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, size)
            for module in _binding_modules(home):
                if vars(module).get(attr) is original:
                    self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name, fn, size=None):
        signature = inspect.signature(fn) if size is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if size is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                nodes, dim, rank = size(bound.arguments)
                self.counts.append((self._op, "quadrature.nodes", nodes))
                self.counts.append((self._op, "quadrature.accumulate_gflop", 8.0 * dim * dim * rank * nodes / 1e9))
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def call(self, op: int, fn, *args):
        """Run ``fn(*args)`` as the root span "op" of op ``op``."""
        self._op = op
        try:
            return self._wrap("op", fn)(*args)
        finally:
            self._op = None

    def layer_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of each traced op, keyed by op."""
        per_op: dict[int, dict[str, float]] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            per_op.setdefault(op, dict.fromkeys([*LAYER_METRICS, *COUNT_METRICS], 0.0))
            if parent is not None:
                child_time[parent] += end - start
        by_name = {}
        for metric, (span, kind) in LAYER_METRICS.items():
            by_name.setdefault(span, []).append((metric, kind))
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            duration = end - start
            for metric, kind in by_name.get(name, ()):
                if kind == "calls":
                    per_op[op][metric] += 1
                elif kind == "self":
                    per_op[op][metric] += duration - child_time[index]
                elif not self._has_ancestor(parent, name):
                    per_op[op][metric] += duration
        for op, metric, value in self.counts:
            per_op[op][metric] += value
        return per_op

    def _has_ancestor(self, parent, name) -> bool:
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def span_records(self) -> list[dict]:
        """The spans as records; ``id`` and ``parent`` index this process's spans."""
        return [
            {"id": index, "name": name, "start": start, "end": end, "parent": parent, "op": op}
            for index, (name, start, end, parent, op) in enumerate(self.spans)
        ]


def _binding_modules(home):
    modules = [home]
    for name, module in list(sys.modules.items()):
        if (name == "fockgraph" or name.startswith("fockgraph.")) and module is not home:
            modules.append(module)
    return modules


def median_metrics(per_op: dict[int, dict[str, float]]) -> dict[str, float]:
    """Median over ops of each per-layer metric."""
    names = next(iter(per_op.values())).keys()
    return {name: statistics.median(values[name] for values in per_op.values()) for name in names}
