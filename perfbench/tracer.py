"""Span tracing of the program's public functions, from outside the program.

:class:`Tracer` replaces each function named in :data:`TARGETS` with a
wrapper that records one span per call -- name, start, end, parent span,
point id and benchmark phase -- and puts every original back on
:meth:`Tracer.uninstall`.  Nothing inside ``src/`` changes.  A span's self
time is its duration minus the time its child spans cover.

:class:`CompletionClock` is the only hook the untraced run carries: it
stamps wall and CPU time the moment ``SweepStream.record`` (serial) or
``SweepStream.adopt`` (fleet coordinator) returns, which is when the
coordinator sees a point complete.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from time import perf_counter, process_time

#: (span name, module, attribute).  ``Class.method`` attributes are patched
#: on the class; a ``repro`` function is patched in every loaded ``repro``
#: module that imported it by name; anything else only where it is defined.
TARGETS = (
    ("spectral.fiedler_vector", "networkx", "fiedler_vector"),
    ("spectral.edge_expansion_of_cut", "repro.spectral.expansion", "edge_expansion_of_cut"),
    ("spectral.cheeger_constant_of_cut", "repro.spectral.cheeger", "cheeger_constant_of_cut"),
    ("spectral.stretch_against_ghost", "repro.spectral.stretch", "stretch_against_ghost"),
    ("perf.snapshot", "repro.perf.engine", "MetricsEngine.snapshot"),
    ("perf.edge_expansion", "repro.perf.engine", "MetricsEngine.edge_expansion"),
    ("perf.cheeger_constant", "repro.perf.engine", "MetricsEngine.cheeger_constant"),
    ("perf.algebraic_connectivity", "repro.perf.engine", "MetricsEngine.algebraic_connectivity"),
    ("perf.normalized_lambda2", "repro.perf.engine", "MetricsEngine.normalized_lambda2"),
    ("perf.stretch_summary", "repro.perf.engine", "MetricsEngine.stretch_summary"),
    ("perf.exact_minimum_expansion_cut", "repro.perf.kernels", "exact_minimum_expansion_cut"),
    ("perf.exact_minimum_cheeger_cut", "repro.perf.kernels", "exact_minimum_cheeger_cut"),
    ("core.handle_deletion", "repro.core.healer", "SelfHealer.handle_deletion"),
    ("core.handle_insertion", "repro.core.healer", "SelfHealer.handle_insertion"),
    ("core.to_networkx", "repro.core.edgestore", "EdgeStore.to_networkx"),
    ("expanders.expander_or_clique", "repro.expanders.construction", "expander_or_clique"),
    ("adversary.next_events", "repro.adversary.base", "Adversary.next_events"),
    ("analysis.observe_store", "repro.analysis.trackers", "DegreeRatioTracker.observe_store"),
    ("analysis.record_deletion", "repro.analysis.amortized", "CostLedger.record_deletion"),
    ("analysis.check_theorem2", "repro.analysis.invariants", "check_theorem2"),
    ("analysis.generate_report", "repro.analysis.report", "generate_report"),
    ("harness.run_experiment", "repro.harness.experiment", "run_experiment"),
    ("scenarios.run_scenarios", "repro.scenarios.runner", "run_scenarios"),
    ("scenarios.execute_spec", "repro.scenarios.runner", "execute_spec"),
    ("scenarios.validate", "repro.scenarios.spec", "ScenarioSpec.validate"),
    ("scenarios.compile", "repro.scenarios.spec", "ScenarioSpec.compile"),
    ("scenarios.fingerprint", "repro.scenarios.spec", "ScenarioSpec.fingerprint"),
    ("scenarios.retry_delay", "repro.scenarios.policy", "PointPolicy.retry_delay"),
    ("stream.record", "repro.scenarios.stream", "SweepStream.record"),
    ("stream.adopt", "repro.scenarios.stream", "SweepStream.adopt"),
    ("stream.finalize", "repro.scenarios.stream", "SweepStream.finalize"),
    ("stream.completed", "repro.scenarios.stream", "SweepStream.completed"),
    ("stream.run_bytes", "repro.scenarios.artifacts", "run_bytes"),
    ("stream.gzip_bytes", "repro.scenarios.artifacts", "gzip_bytes"),
    ("stream.fsync", "os", "fsync"),
    ("fleet.execute", "repro.scenarios.fleet", "SubprocessFleetExecutor.execute"),
    ("fleet.Popen", "subprocess", "Popen"),
)

#: Modules that must be loaded before installing, so that every module that
#: imports a target by name already holds the reference the tracer replaces.
PRELOAD = (
    "repro.scenarios.fleet",
    "repro.scenarios.executors",
    "repro.spectral.metrics",
)

#: Attribute that marks a tracer wrapper (the self-test looks for leftovers).
SPAN_MARKER = "__perfbench_span__"

#: The span that marks one point; spans inside it carry its point id.
POINT_SPAN = "scenarios.execute_spec"


def _patch_sites(module, attribute: str):
    """Yield ``(owner, name)`` pairs through which callers reach a target."""
    if "." in attribute:
        class_name, method = attribute.split(".")
        yield getattr(module, class_name), method
        return
    original = getattr(module, attribute)
    if not module.__name__.startswith("repro"):
        yield module, attribute
        return
    for name, loaded in sorted(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and loaded is not None:
            if loaded.__dict__.get(attribute) is original:
                yield loaded, attribute


class Tracer:
    """Records spans of the :data:`TARGETS` while installed."""

    def __init__(self):
        #: One ``[name, start, end, parent, point, phase]`` list per call.
        self.spans: list[list] = []
        self.phase = "sweep"
        #: ``RepairReport.total_edge_changes`` summed over deletions.
        self.edge_changes = 0
        self._stack: list[int] = []
        self._points = 0
        self._point: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name in PRELOAD:
            importlib.import_module(name)
        for span_name, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            for owner, name in _patch_sites(module, attribute):
                original = owner.__dict__[name]
                self._patches.append((owner, name, original))
                setattr(owner, name, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap(self, span_name: str, fn):
        tracer = self
        spans, stack = self.spans, self._stack
        is_point = span_name == POINT_SPAN
        counts_edges = span_name == "core.handle_deletion"

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if is_point:
                tracer._point = tracer._points
                tracer._points += 1
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, tracer._point, tracer.phase]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counts_edges:
                tracer.edge_changes += result.total_edge_changes
            return result

        setattr(wrapper, SPAN_MARKER, span_name)
        return wrapper

    def summary(self, phase: str | None = None) -> dict[str, dict]:
        """Return ``span name -> {"calls", "self_s"}`` over one phase or all."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {name: {"calls": 0, "self_s": 0.0} for name, _, _ in TARGETS}
        for (name, start, end, _, _, span_phase), inner in zip(self.spans, child):
            if phase is None or span_phase == phase:
                table[name]["calls"] += 1
                table[name]["self_s"] += end - start - inner
        return table

    def write(self, path) -> None:
        """Write every span as one JSON line to a gzip file."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            for name, start, end, parent, point, phase in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "point": point,
                            "phase": phase,
                        }
                    )
                    + "\n"
                )


class CompletionClock:
    """Stamps (wall, process CPU) at each point completion the coordinator sees."""

    def __init__(self):
        self.stamps: list[tuple[float, float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        from repro.scenarios.stream import SweepStream

        for name in ("record", "adopt"):
            original = SweepStream.__dict__[name]
            self._patches.append((SweepStream, name, original))
            setattr(SweepStream, name, self._wrap(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap(self, fn):
        stamps = self.stamps

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            stamps.append((perf_counter(), process_time()))
            return result

        return wrapper
