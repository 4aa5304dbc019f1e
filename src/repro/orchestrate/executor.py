"""Job executors: serial, chunked multiprocessing, and work-stealing.

An executor is anything with a ``name`` and a ``map(jobs)`` method that
yields one :class:`JobResult` per job **in job-index order**.  The
ordering contract is what makes every execution strategy produce the
same report: the orchestrator aggregates results as they stream out,
so serial, process-parallel, and multi-host executors are
interchangeable without touching aggregation or report rendering.
(``tests/test_executor_contract.py`` is the executable form of the
contract — any new executor must pass that battery unchanged.)

``ParallelExecutor`` ships pickled jobs to a ``multiprocessing`` pool
and relies on ``imap`` (ordered, lazy) to restore plan order.  Each
worker keeps its own warm state, so consecutive jobs of the same
module (the planner emits them contiguously) share one elaborated
design, mirroring the serial executor's reuse.

``WorkStealingExecutor`` replaces ``imap``'s static chunking with a
shared job queue that idle workers pull from one unit at a time: a
straggler check pins one worker while the rest keep draining the queue,
instead of idling the pool behind a slow chunk.  Results come back
unordered and are reassembled into plan order by the parent, so the
streaming contract is preserved bit for bit.  The socket-fanout
:class:`~repro.orchestrate.fleet.FleetExecutor` carries the same design
across hosts and shares this module's warm-state plumbing.

Warm state
----------

Three per-worker layers make a campaign's repeated checks cheap:

- a content-addressed :class:`~repro.formal.problems.CompiledProblemStore`
  — one elaborated design per module RTL digest, one compiled
  transition system per assertion (two modules with different RTL can
  never share a digest, so golden-vs-patched runs are safe by
  construction);
- a :class:`~repro.formal.workspace.BddWorkspace` — per-module
  hash-consed BDD managers that BDD-family engine stages lease instead
  of building a node table from scratch;
- a :class:`~repro.formal.satspace.SatWorkspace` — clustered
  incremental solver sessions that ``bmc``/``kind`` stages query
  instead of building cold solvers.

A :class:`WarmSpec` names the layers a worker builds, as constructor
kwargs per layer with ``None`` for a layer that is off;
``CampaignConfig.warm_spec()`` derives it from the ``[compile]``,
``[workspace]`` and ``[sat]`` sections, and the bare default keeps the
compile store only.  Every executor takes one spec (``warm=``) and each
worker builds its own :class:`WarmState` from it, so warm state never
crosses a process boundary and reuse stays lock-free:

- ``SerialExecutor`` — one state for the whole run (pass ``state=`` to
  keep one warm across *runs*);
- pool, work-stealing and fleet workers — one private state per worker
  process.  Module-affinity scheduling (:mod:`repro.orchestrate.policy`)
  hands a work-stealing or fleet worker one module's whole job group,
  so the group hits one warm design and one hot manager; FIFO pulls and
  pool chunks interleave modules and lean on each layer's LRU bound.

Verdicts, depths and counterexample bytes are warm-state invariant
(failing traces are re-derived cold), so
``CampaignReport.canonical_bytes`` is identical with any layer on or
off.  The one exception is a *binding* budget: a warmed BDD manager is
charged only fresh nodes, so a check that would TIMEOUT cold may
complete warm, and retained SAT clauses can steer CDCL search either
way (see :mod:`repro.orchestrate` for the full contract).

``executor.warm_stats()`` returns the three counter groups of the last
``map`` — ``compile_store``, ``sat_workspace``, ``bdd_workspace``,
each summed over the workers with a ``workers`` count, ``{}`` for a
layer that is off — and the orchestrator surfaces them in
``report.stats``.

The process wire format
-----------------------

Pool workers do not pickle whole :class:`JobResult` objects back to the
parent: each result crosses the process boundary as a payload dict —
the :func:`~repro.orchestrate.job.encode_job_result` encoding
(identification scalars plus the serialized-result codec the cache and
checkpoint already speak, with FAIL counterexamples carried as
canonical input frames rather than the compiled transition system they
replay on), the worker's ``pid``, and one ``warm`` key holding its
:meth:`WarmState.stats` snapshot.  The parent re-pairs each entry with
its plan job and decodes through its own compile store
(:func:`~repro.orchestrate.job.decode_job_result`), revalidating every
FAIL trace by replay.  The fleet's TCP result frames carry the same
keys as JSON.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from ..formal.problems import CompiledProblemStore
from ..formal.satspace import SatWorkspace
from ..formal.workspace import BddWorkspace
from .job import (
    CheckJob, JobResult, decode_job_result, encode_job_result,
    run_check_job,
)
from .policy import FifoScheduling

#: the ``report.stats`` group of each warm-state layer, in
#: :class:`WarmState` field order
WARM_GROUPS = ("compile_store", "bdd_workspace", "sat_workspace")


@dataclass(frozen=True)
class WarmSpec:
    """The warm-state layers a worker builds: constructor kwargs for the
    compile store, the BDD workspace and the SAT workspace, ``None``
    for a layer that is off.  Plain picklable data — it is shipped to
    every worker process, which builds its own :class:`WarmState`."""

    store: Optional[dict] = field(default_factory=dict)
    bdd: Optional[dict] = None
    sat: Optional[dict] = None

    def build(self) -> "WarmState":
        """A fresh :class:`WarmState` holding every enabled layer."""
        return WarmState(*(
            None if kwargs is None else layer(**kwargs)
            for layer, kwargs in ((CompiledProblemStore, self.store),
                                  (BddWorkspace, self.bdd),
                                  (SatWorkspace, self.sat))
        ))


@dataclass
class WarmState:
    """One worker's live warm-state layers (``None`` = off)."""

    store: Optional[CompiledProblemStore] = None
    bdd: Optional[BddWorkspace] = None
    sat: Optional[SatWorkspace] = None

    def run(self, job: CheckJob) -> JobResult:
        """Run one job against these layers."""
        return run_check_job(job, self.store, workspace=self.bdd,
                             sat_workspace=self.sat)

    def stats(self) -> Dict[str, dict]:
        """Each layer's counters by ``report.stats`` group (``{}`` for
        a layer that is off)."""
        return {group: layer.stats() if layer is not None else {}
                for group, layer in zip(WARM_GROUPS,
                                        (self.store, self.bdd, self.sat))}


class WarmStats:
    """Per-worker warm-state snapshots, merged into one report.

    Snapshots arrive in *result* order, not chronological order
    (plan-order reassembly, and scheduling policies may hand units out
    in any order), so each worker's value per counter is the maximum
    seen: the latest value of a lifetime counter (hits, misses,
    leases...), and the worker's *peak* for a gauge (``designs``,
    ``sessions``, ``managers``, ``total_nodes``...).  :meth:`merged`
    then sums every group over the workers that reported it.
    """

    def __init__(self) -> None:
        self._workers: Dict[object, Dict[str, dict]] = {}

    def note(self, worker, snapshot: Dict[str, dict]) -> None:
        groups = self._workers.setdefault(worker, {})
        for group, counters in snapshot.items():
            current = groups.setdefault(group, {})
            for key, value in counters.items():
                current[key] = max(value, current.get(key, value))

    def merged(self) -> Dict[str, dict]:
        """Every group summed over its workers plus a ``workers`` count;
        ``{}`` for a group no worker reported (the layer is off)."""
        merged = {}
        for group in WARM_GROUPS:
            reports = [groups[group] for groups in self._workers.values()
                       if groups.get(group)]
            merged[group] = {**CompiledProblemStore.merge_stats(*reports),
                             "workers": len(reports)} if reports else {}
        return merged


class SerialExecutor:
    """Run every job in-process, in plan order (the default).

    ``warm`` picks the warm-state layers (default: the compile store
    only); pass an explicit ``state`` instead to keep compiled designs,
    BDD managers and SAT sessions warm across runs.
    """

    name = "serial"

    def __init__(self, warm: Optional[WarmSpec] = None,
                 state: Optional[WarmState] = None) -> None:
        self.state = state if state is not None \
            else (warm or WarmSpec()).build()

    def map(self, jobs: Iterable[CheckJob]) -> Iterator[JobResult]:
        """Yield one :class:`JobResult` per job, lazily, in plan order
        (trivially — jobs run one at a time in this process)."""
        for job in jobs:
            yield self.state.run(job)

    def warm_stats(self) -> Dict[str, dict]:
        """The state's lifetime counters — the serial executor's single
        worker is this process."""
        stats = WarmStats()
        stats.note("serial", self.state.stats())
        return stats.merged()


class _WorkerPool:
    """Parent-side plumbing shared by the multi-worker executors: the
    warm spec, the in-process fallback for runs too small to fan out,
    and the warm-stats aggregate of the last ``map``."""

    kind = ""

    def __init__(self, warm: Optional[WarmSpec]) -> None:
        self.warm = warm or WarmSpec()
        self._fallback: Optional[SerialExecutor] = None
        self._warm_stats = WarmStats()

    @property
    def name(self) -> str:
        """Reports the *effective* mode: a 1-worker or <=1-job run never
        starts a worker, and stats must not claim it did."""
        if self._fallback is not None:
            return f"{self.kind}[serial-fallback]"
        return self.kind

    def _fall_back(self, jobs: List[CheckJob], workers: int) -> bool:
        """Start a run: True (with the serial fallback installed) when
        there is nothing to parallelise — <=1 job or 1 worker, where
        workers could only add overhead."""
        self._warm_stats = WarmStats()
        small = len(jobs) <= 1 or workers == 1
        self._fallback = SerialExecutor(warm=self.warm) if small else None
        return small

    def warm_stats(self) -> Dict[str, dict]:
        """Warm-state counters of the last ``map``, summed over the
        workers that ran it (each ships its snapshot with every
        result)."""
        if self._fallback is not None:
            return self._fallback.warm_stats()
        return self._warm_stats.merged()


def _batches(scheduling, jobs: List[CheckJob]) -> List[List[CheckJob]]:
    """The scheduling policy's work units, checked to cover every job
    exactly once."""
    units = scheduling.batches(jobs)
    if sorted(job.index for unit in units for job in unit) != \
            sorted(job.index for job in jobs):
        raise RuntimeError(
            f"scheduling policy {scheduling.name!r} lost or "
            f"duplicated jobs while batching"
        )
    return units


def _wire_payload(state: WarmState, job: CheckJob) -> dict:
    """Run one job in a worker and return the wire-format payload: the
    encoded result plus this worker's pid and warm-state snapshot."""
    return {"result": encode_job_result(state.run(job)),
            "pid": os.getpid(), "warm": state.stats()}


#: this pool worker's warm state, installed by :func:`_init_worker`
_WORKER_STATE: Optional[WarmState] = None


def _init_worker(warm: WarmSpec) -> None:
    """Pool-worker initializer: build this worker's private warm
    state."""
    global _WORKER_STATE
    _WORKER_STATE = warm.build()


def _worker_run(job: CheckJob) -> dict:
    return _wire_payload(_WORKER_STATE, job)


class ParallelExecutor(_WorkerPool):
    """Fan jobs out over a ``multiprocessing`` pool.

    ``processes`` defaults to the machine's CPU count; ``chunksize``
    controls how many consecutive jobs each worker grabs at once
    (larger chunks amortise pickling and keep same-module jobs on one
    worker's warm state; the default aims at ~4 chunks per worker).

    Engines registered at runtime via
    :func:`~repro.formal.engine.register_engine` reach workers only
    under the ``fork`` start method (workers inherit the parent's
    registry).  On spawn-only platforms workers re-import the engine
    module and see just the built-ins, so jobs using a custom engine
    fail with ``unknown method`` — run those campaigns serially there.
    """

    kind = "parallel"

    def __init__(self, processes: Optional[int] = None,
                 chunksize: Optional[int] = None,
                 warm: Optional[WarmSpec] = None) -> None:
        if processes is not None and processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        super().__init__(warm)
        self.processes = processes or os.cpu_count() or 1
        self.chunksize = chunksize

    def map(self, jobs: Iterable[CheckJob]) -> Iterator[JobResult]:
        """Stream results in plan order off a ``multiprocessing`` pool
        (``imap`` restores order); falls back to serial for <=1 job or
        1 worker."""
        jobs = list(jobs)
        if self._fall_back(jobs, self.processes):
            yield from self._fallback.map(jobs)
            return
        # the parent's own store only pays for FAIL-trace decodes (a
        # recompile per failing module), so the default bounds are fine
        decode_store = self.warm.build().store
        chunksize = self.chunksize or max(
            1, len(jobs) // (self.processes * 4)
        )
        context = _pool_context()
        pool = context.Pool(processes=self.processes,
                            initializer=_init_worker,
                            initargs=(self.warm,))
        closed = False
        try:
            payloads = pool.imap(_worker_run, jobs, chunksize)
            for job, payload in zip(jobs, payloads):
                self._warm_stats.note(payload["pid"], payload["warm"])
                yield decode_job_result(payload["result"], job,
                                        decode_store)
            # reached when the consumer drives the generator past the
            # last result (the orchestrator always does): shut the
            # workers down gracefully
            pool.close()
            pool.join()
            closed = True
        finally:
            if not closed:
                pool.terminate()
                pool.join()


def _pool_context():
    """Prefer fork (no re-import, cheap job shipping); fall back to the
    platform default where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _steal_worker(job_queue, result_queue, warm: WarmSpec) -> None:
    """Worker loop: pull one work unit at a time until the ``None``
    pill.  A unit is a list of jobs — one job under FIFO scheduling,
    one module's whole job group under module-affinity scheduling (see
    :mod:`repro.orchestrate.policy`) — run to completion before the
    next pull, each result shipped individually so the parent's
    plan-order stream stays as responsive as single-job stealing.

    Each payload is ``(job index, pickled wire dict | BaseException)``;
    the parent re-raises exceptions when their job's turn in plan
    order comes up, matching ``ParallelExecutor``'s error propagation
    through ``imap``.  A failing job poisons only the rest of its own
    unit (skipped — their results would be thrown away anyway); the
    worker keeps stealing other units, exactly like the single-job
    loop kept stealing other jobs.  Pickling happens here, in the
    worker, so an unpicklable error (a custom engine raising an exotic
    exception) turns into a descriptive RuntimeError instead of dying
    silently in the queue's feeder thread and masquerading as a dead
    worker; results themselves are plain JSON-able dicts and always
    pickle.

    The worker's private :class:`WarmState` outlives its units: FIFO
    steals interleave modules, so each layer's LRU pool keeps several
    modules warm, while a module-affinity unit turns the store into one
    elaboration and the BDD workspace into one hot manager per group.
    """
    state = warm.build()
    while True:
        unit = job_queue.get()
        if unit is None:
            return
        failed = None
        for job in unit:
            if failed is not None:
                # a poisoned unit: the stream dies at the failed job's
                # plan position, so later same-unit results are moot —
                # but they must still be *answered* or the parent would
                # wait on a result that never comes
                result_queue.put((job.index, failed))
                continue
            try:
                payload = _wire_payload(state, job)
            except BaseException as exc:  # ship the failure, keep going
                payload = exc
            try:
                blob = pickle.dumps(payload)
            except Exception as exc:
                kind = ("error" if isinstance(payload, BaseException)
                        else "result")
                blob = pickle.dumps(RuntimeError(
                    f"job {job.index} ({job.qualified_name}) produced "
                    f"an unpicklable {kind}: {exc}"
                ))
            if isinstance(payload, BaseException):
                failed = blob
            result_queue.put((job.index, blob))


class WorkStealingExecutor(_WorkerPool):
    """Pull-based multiprocessing executor: a shared job queue drained
    by ``processes`` workers, with an ordered reassembly buffer.

    Compared to :class:`ParallelExecutor`'s ``imap`` chunking, no job
    is committed to a worker before that worker is free: long checks
    (the Figure 7 oversized-cone scenario) occupy exactly one worker
    while every other worker keeps pulling, so tail latency is the
    longest single check rather than the longest chunk.  Results arrive
    out of order and are buffered by job index until they are next in
    plan order, preserving the streaming contract.

    ``scheduling`` is a
    :class:`~repro.orchestrate.policy.SchedulingPolicy` deciding what
    one "pull" hands a worker: the default FIFO policy hands single
    jobs (maximum balance), the module-affinity policy hands one
    module's whole job group (one worker keeps that module's warm
    state hot).  Scheduling changes steal order and worker affinity
    only — results are reassembled into plan order either way, so the
    campaign outcome is policy-invariant.

    ``poll_interval`` is how often the parent, while blocked waiting
    for the next result, checks that workers are still alive — once
    every worker is gone (hard kills included: OOM, SIGKILL) the
    stream raises ``RuntimeError`` instead of hanging.  One hazard is
    outside this detector's reach: a worker SIGKILLed at the exact
    moment it holds the shared job queue's reader lock (a known CPython
    ``multiprocessing`` limitation) can leave the *surviving* workers
    blocked on that lock forever, and a pool that is alive-but-stuck is
    indistinguishable from one running a long check, so that case still
    hangs.  The same custom-engine caveat as :class:`ParallelExecutor`
    applies: runtime-registered engines reach workers only under the
    ``fork`` start method.
    """

    kind = "work-stealing"

    def __init__(self, processes: Optional[int] = None,
                 poll_interval: float = 0.1,
                 scheduling=None,
                 warm: Optional[WarmSpec] = None) -> None:
        if processes is not None and processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be > 0, got {poll_interval}"
            )
        super().__init__(warm)
        self.processes = processes or os.cpu_count() or 1
        self.poll_interval = poll_interval
        self.scheduling = scheduling or FifoScheduling()

    def map(self, jobs: Iterable[CheckJob]) -> Iterator[JobResult]:
        """Stream results in plan order: workers pull jobs one at a
        time off a shared queue, the parent buffers out-of-order
        completions by index and yields each result (or raises its
        error) exactly when its plan-order turn comes up."""
        jobs = list(jobs)
        if self._fall_back(jobs, self.processes):
            yield from self._fallback.map(jobs)
            return
        decode_store = self.warm.build().store
        units = _batches(self.scheduling, jobs)
        context = _pool_context()
        job_queue = context.Queue()
        result_queue = context.Queue()
        worker_count = min(self.processes, len(units))
        for unit in units:
            job_queue.put(unit)
        for _ in range(worker_count):
            job_queue.put(None)  # one stop pill per worker
        workers = [
            context.Process(target=_steal_worker,
                            args=(job_queue, result_queue, self.warm),
                            daemon=True)
            for _ in range(worker_count)
        ]
        for worker in workers:
            worker.start()
        #: JobResult or BaseException by job index; exceptions are
        #: raised only when their job is next in plan order, so every
        #: earlier completed result streams out (and gets journaled)
        #: first — the same semantics ``imap`` gives ParallelExecutor
        buffered: Dict[int, object] = {}
        try:
            for job in jobs:
                while job.index not in buffered:
                    index, blob = self._next_payload(
                        result_queue, workers
                    )
                    buffered[index] = pickle.loads(blob)
                payload = buffered.pop(job.index)
                if isinstance(payload, BaseException):
                    raise payload
                self._warm_stats.note(payload["pid"], payload["warm"])
                yield decode_job_result(payload["result"], job,
                                        decode_store)
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
            for worker in workers:
                worker.join()
            # the job queue may still hold unpulled jobs when the
            # consumer closes the stream early; don't let their feeder
            # threads block interpreter shutdown
            for q in (job_queue, result_queue):
                q.cancel_join_thread()
                q.close()

    def _next_payload(self, result_queue, workers: List) -> tuple:
        """Block for the next (index, payload) pair, watching for a
        silently-dead pool."""
        while True:
            try:
                return result_queue.get(timeout=self.poll_interval)
            except queue_module.Empty:
                if any(worker.is_alive() for worker in workers):
                    continue
                # all workers gone — allow one grace read for payloads
                # still in the queue's pipe buffer, then give up
                try:
                    return result_queue.get(timeout=1.0)
                except queue_module.Empty:
                    raise RuntimeError(
                        "work-stealing pool died without delivering "
                        "all results (worker killed?)"
                    ) from None
