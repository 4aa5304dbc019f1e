"""Outside-in span tracing: layer spans recorded from the benchmark's
own code, with nothing added inside ``src/``.

:func:`install` replaces each function in :data:`LAYER_PATCHES` where
its callers look it up (a ``from x import f`` binding is a separate
name from ``x.f``, so both are listed where both are used) with a
wrapper that records one span per call that crosses into the layer:
name, start, end, parent span, request id and thread.  A call made from
inside a span of the same layer is not a boundary and records nothing.

Spans stay in memory (:class:`Recorder`) and are written out once,
when the run ends.  :func:`layer_metrics` turns one traced pass into
the ``<module>.<metric>`` per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import itertools
import json
import os
import pickle
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# span record layout (lists, not objects: a traced pass makes ~1e5)
ID, PARENT, NAME, START, END, REQUEST, THREAD = range(7)


class Recorder:
    """In-memory span and counter store for one traced process.

    Spans of one thread nest; each thread keeps its own open-span
    stack, so the service's HTTP, queue and client threads each form
    their own trees.  Forked pool workers inherit patched functions but
    record nothing: only the parent's side of a pool is traced.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.reports: List[dict] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: Optional[str]) -> None:
        """Request id given to root spans opened later on this thread."""
        self._local.request = request

    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, name: str, request: Optional[str] = None
             ) -> Optional[list]:
        """Open a span unless tracing is off or the innermost open span
        of this thread already belongs to layer ``name``."""
        if not self.enabled or os.getpid() != self._pid:
            return None  # off, or in a forked pool worker
        stack = self._stack()
        if stack and stack[-1][NAME] == name:
            return None
        if request is None:
            request = stack[-1][REQUEST] if stack \
                else getattr(self._local, "request", None)
        span = [next(self._ids), stack[-1][ID] if stack else None, name,
                0.0, 0.0, request, threading.get_ident()]
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def close(self, span: Optional[list]) -> None:
        if span is None:
            return
        span[END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled


def write_spans(spans: Sequence[list], path: str) -> None:
    """Write spans as gzipped JSON lines, one object per span."""
    keys = ("id", "parent", "name", "start", "end", "request", "thread")
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------

def covered(interval: Tuple[float, float],
            children: Sequence[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that ``children`` cover."""
    low, high = interval
    clipped = sorted((max(start, low), min(end, high))
                     for start, end in children)
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START]) - covered(
            (span[START], span[END]), children.get(span[ID], ()))
        for span in spans
    }


def layer_totals(spans: Sequence[list]
                 ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = totals.setdefault(span[NAME],
                                {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span[END] - span[START]
        row["self_s"] += selfs[span[ID]]
    return totals


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------

def _first_arg_attr(attr: str) -> Callable:
    def request(args, kwargs):
        for value in args[:2]:
            found = getattr(value, attr, None)
            if isinstance(found, str):
                return found
        return None
    return request


def _fingerprint_arg(args, kwargs):
    # store.lookup(fingerprint, ...) / store.store(fingerprint, ...)
    return args[1] if len(args) > 1 else kwargs.get("fingerprint")


def _solve_pre(recorder, args):
    stats = args[0].stats
    return stats["conflicts"], stats["propagations"]


def _solve_post(recorder, state, args, result):
    stats = args[0].stats
    recorder.count("sat.conflicts", stats["conflicts"] - state[0])
    recorder.count("sat.propagations", stats["propagations"] - state[1])


def _hit_post(prefix: str):
    def post(recorder, state, args, result):
        recorder.count(prefix + ".hits", result is not None)
    return post


def _plan_post(recorder, state, args, result):
    recorder.count("planner.jobs", len(result.jobs))


def _report_post(recorder, state, args, result):
    with recorder._lock:
        recorder.reports.append(result.stats)


def _wire_post(recorder, state, args, result):
    recorder.count("job.wire_bytes", len(pickle.dumps(args[0])))


#: (module, attribute path, layer, request-id getter, pre, post) — one
#: row per place a layer's public function is looked up by its callers
LAYER_PATCHES: Tuple[tuple, ...] = (
    ("repro.orchestrate.orchestrator", "CampaignOrchestrator.run",
     "campaign", None, None, _report_post),
    ("repro.orchestrate.orchestrator", "plan_campaign", "planner.plan",
     None, None, _plan_post),
    ("repro.orchestrate.planner", "index_module", "coi.index",
     None, None, None),
    ("repro.formal.coi", "ConeIndex.info", "coi.index",
     None, None, None),
    ("repro.psl.compile", "elaborate", "elaborate", None, None, None),
    ("repro.formal.problems", "elaborate", "elaborate", None, None, None),
    ("repro.formal.coi", "elaborate", "elaborate", None, None, None),
    ("repro.psl.compile", "bitblast", "netlist.bitblast",
     None, None, None),
    ("repro.rtl.netlist", "Aig.cone_nodes", "netlist.cone_walk",
     None, None, None),
    ("repro.rtl.netlist", "Aig.support", "netlist.cone_walk",
     None, None, None),
    ("repro.psl.compile", "compile_assertion", "compile",
     None, None, None),
    ("repro.psl.compile", "compile_sliced_assertion", "compile",
     None, None, None),
    ("repro.psl.compile", "compile_cluster", "compile", None, None, None),
    ("repro.orchestrate.job", "compile_assertion", "compile",
     None, None, None),
    ("repro.orchestrate.job", "compile_sliced_assertion", "compile",
     None, None, None),
    ("repro.formal.problems", "CompiledProblemStore.design", "problems",
     None, None, None),
    ("repro.formal.problems", "CompiledProblemStore.problem", "problems",
     None, None, None),
    ("repro.formal.problems", "CompiledProblemStore.sliced_problem",
     "problems", None, None, None),
    ("repro.formal.transition", "TransitionSystem.coi_reduce",
     "transition.coi_reduce", None, None, None),
    ("repro.formal.transition", "ClusterSystem.view",
     "transition.coi_reduce", None, None, None),
    ("repro.formal.engine", "ModelChecker.check", "engine",
     None, None, None),
    ("repro.formal.engine", "bmc", "bmc", None, None, None),
    ("repro.formal.bmc", "bmc", "bmc", None, None, None),
    ("repro.formal.engine", "k_induction", "induction", None, None, None),
    ("repro.formal.engine", "k_induction_session", "induction",
     None, None, None),
    ("repro.formal.satspace", "SatSession.bmc_group", "bmc",
     None, None, None),
    ("repro.formal.bmc", "Unroller.frame", "bmc.frame", None, None, None),
    ("repro.formal.satspace", "SatSession.frame", "bmc.frame",
     None, None, None),
    ("repro.formal.cnf", "CnfContext.lit", "cnf.encode", None, None, None),
    ("repro.formal.sat", "Solver.solve", "sat.solve",
     None, _solve_pre, _solve_post),
    ("repro.formal.reachability", "SymbolicModel.__init__", "bdd",
     None, None, None),
    ("repro.formal.engine", "forward_reach", "bdd", None, None, None),
    ("repro.formal.engine", "backward_reach", "bdd", None, None, None),
    ("repro.formal.engine", "combined_reach", "bdd", None, None, None),
    ("repro.formal.engine", "pobdd_reach", "bdd", None, None, None),
    ("repro.formal.trace", "Trace.replay", "trace", None, None, None),
    ("repro.orchestrate.executor", "run_check_job", "job",
     _first_arg_attr("fingerprint"), None, None),
    ("repro.orchestrate.executor", "decode_job_result", "job.decode",
     _first_arg_attr("fingerprint"), None, _wire_post),
    ("repro.orchestrate.orchestrator", "decode_result", "job.decode",
     _first_arg_attr("fingerprint"), None, None),
    ("repro.orchestrate.cache", "decode_result", "job.decode",
     _first_arg_attr("fingerprint"), None, None),
    ("repro.service.db", "decode_result", "job.decode",
     _first_arg_attr("fingerprint"), None, None),
    ("repro.orchestrate.cache", "ResultCache.lookup", "cache.lookup",
     _fingerprint_arg, None, _hit_post("cache")),
    ("repro.orchestrate.cache", "ResultCache.store", "cache.store",
     _fingerprint_arg, None, None),
    ("repro.orchestrate.cache", "ResultCache.flush", "cache.flush",
     None, None, None),
    ("repro.service.db", "VerdictDatabase.lookup", "db.lookup",
     _fingerprint_arg, None, _hit_post("db")),
    ("repro.service.db", "VerdictDatabase.store", "db.store",
     _fingerprint_arg, None, None),
    ("repro.scenario.sweep", "generate_family", "sweep.generate",
     None, None, None),
    ("repro.scenario.sweep", "sites_for_family", "sweep.generate",
     None, None, None),
    ("repro.scenario.sweep", "apply_defect", "sweep.generate",
     None, None, None),
    ("repro.scenario.sweep", "make_verifiable", "sweep.generate",
     None, None, None),
)

#: executors whose ``map`` streams are timed as ``executor.wait`` —
#: the time the orchestrator blocks on the next result
STREAM_PATCHES: Tuple[Tuple[str, str], ...] = (
    ("repro.orchestrate.executor", "SerialExecutor.map"),
    ("repro.orchestrate.executor", "ParallelExecutor.map"),
    ("repro.orchestrate.executor", "WorkStealingExecutor.map"),
)


def _wrap(recorder: Recorder, original: Callable, name: str,
          request_of, pre, post) -> Callable:
    def traced(*args, **kwargs):
        if not recorder.enabled:
            return original(*args, **kwargs)
        state = pre(recorder, args) if pre is not None else None
        span = recorder.open(
            name, request_of(args, kwargs) if request_of else None)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if post is not None and span is not None:
            post(recorder, state, args, result)
        return result
    traced.__wrapped__ = original
    return traced


def _wrap_stream(recorder: Recorder, original: Callable) -> Callable:
    def traced(*args, **kwargs):
        stream = original(*args, **kwargs)
        try:
            while True:
                span = recorder.open("executor.wait")
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    recorder.close(span)
                yield item
        finally:
            stream.close()
    traced.__wrapped__ = original
    return traced


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every layer boundary; returns the function that undoes it."""
    undo = []
    for module, path, name, request_of, pre, post in LAYER_PATCHES:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr,
                _wrap(recorder, original, name, request_of, pre, post))
        undo.append((owner, attr, original))
    for module, path in STREAM_PATCHES:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        setattr(owner, attr, _wrap_stream(recorder, original))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile_ms(values: Sequence[float], percent: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100,
                                method="inclusive")[percent - 1] * 1000.0


def _stats_sum(reports: Sequence[dict], *path: str) -> float:
    total = 0
    for stats in reports:
        node = stats
        for key in path:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            total += node
        elif isinstance(node, dict):
            total += sum(value for value in node.values()
                         if isinstance(value, int))
    return total


def layer_metrics(recorder: Recorder, extras: Dict[str, float],
                  traced_s: float, untraced_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``extras`` carries what the workload measured outside any span
    (queue wait, API overhead, golden pre-run seconds, BDD node
    counts).  Layers a workload does not reach report 0.
    """
    totals = layer_totals(recorder.spans)
    counters = recorder.counters
    reports = recorder.reports

    def seconds(name: str) -> float:
        return totals.get(name, {}).get("s", 0.0)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    def hit_ratio(kind: str) -> float:
        hits = _stats_sum(reports, "compile_store", "run",
                          kind + "_hits") + \
            _stats_sum(reports, "compile_store", "replay", kind + "_hits")
        misses = _stats_sum(reports, "compile_store", "run",
                            kind + "_misses") + \
            _stats_sum(reports, "compile_store", "replay",
                       kind + "_misses")
        return _ratio(hits, hits + misses)

    latencies = [span[END] - span[START] for span in recorder.spans
                 if span[NAME] == "job"]
    metrics = {
        "planner.plan_s": seconds("planner.plan"),
        "planner.jobs": counters.get("planner.jobs", 0),
        "elaborate.calls": calls("elaborate"),
        "elaborate.s": seconds("elaborate"),
        "netlist.bitblast_calls": calls("netlist.bitblast"),
        "netlist.bitblast_s": seconds("netlist.bitblast"),
        "netlist.cone_walk_s": seconds("netlist.cone_walk"),
        "compile.calls": calls("compile"),
        "compile.s": seconds("compile"),
        "problems.design_hit_ratio": hit_ratio("design"),
        "problems.problem_hit_ratio": hit_ratio("problem"),
        "transition.coi_reduce_s": seconds("transition.coi_reduce"),
        "bmc.frame_s": seconds("bmc.frame"),
        "cnf.encode_s": seconds("cnf.encode"),
        "sat.solve_calls": calls("sat.solve"),
        "sat.solve_s": seconds("sat.solve"),
        "sat.conflicts": counters.get("sat.conflicts", 0),
        "sat.propagations": counters.get("sat.propagations", 0),
        "satspace.reuse_ratio": _ratio(
            _stats_sum(reports, "sat_workspace", "reuses"),
            _stats_sum(reports, "sat_workspace", "leases")),
        "bdd.nodes_created": extras.get("bdd.nodes_created", 0),
        "engine.check_calls": calls("engine"),
        "engine.check_s": seconds("engine"),
        "engine.self_s": totals.get("engine", {}).get("self_s", 0.0),
        "engine.attempts_per_job": _ratio(
            _stats_sum(reports, "engine_attempts"),
            _stats_sum(reports, "coi", "jobs_executed")),
        "trace.replay_calls": calls("trace"),
        "trace.replay_s": seconds("trace"),
        "job.run_s": seconds("job"),
        "job.self_s": totals.get("job", {}).get("self_s", 0.0),
        "job.latency_p50_ms": _percentile_ms(latencies, 50),
        "job.latency_p99_ms": _percentile_ms(latencies, 99),
        "job.decode_s": seconds("job.decode"),
        "job.wire_bytes": counters.get("job.wire_bytes", 0),
        "executor.wait_s": seconds("executor.wait"),
        "cache.lookup_calls": calls("cache.lookup"),
        "cache.lookup_s": seconds("cache.lookup"),
        "cache.hit_ratio": _ratio(counters.get("cache.hits", 0),
                                  calls("cache.lookup")),
        "cache.store_s": seconds("cache.store"),
        "cache.flush_s": seconds("cache.flush"),
        "coi.index_s": seconds("coi.index"),
        "coi.cone_hit_ratio": _ratio(
            _stats_sum(reports, "coi", "cone_hits"),
            _stats_sum(reports, "jobs")),
        "db.lookup_s": seconds("db.lookup"),
        "db.hit_ratio": _ratio(counters.get("db.hits", 0),
                               calls("db.lookup")),
        "db.store_calls": calls("db.store"),
        "db.store_s": seconds("db.store"),
        "queue.wait_ms": extras.get("queue.wait_ms", 0.0),
        "queue.run_s": extras.get("queue.run_s", 0.0),
        "api.overhead_ms": extras.get("api.overhead_ms", 0.0),
        "sweep.generate_s": seconds("sweep.generate"),
        "sweep.golden_s": extras.get("sweep.golden_s", 0.0),
        "tracing.traced_s": traced_s,
        "tracing.untraced_s": untraced_s,
        "tracing.overhead_ratio": _ratio(traced_s, untraced_s),
    }
    return metrics
