"""The benchmark's three workloads.

Every workload derives its inputs from the run's seed alone and hands
the program only those inputs.  The harness times ``setup`` (called
``setup_repeats`` times); ``run_pass(index, recorder)`` times its own
measured window, and any per-pass set-up, and returns a
:class:`PassResult`.  ``recorder`` is the tracing recorder of a traced
pass (None when untraced); a workload uses it only to tag request ids
and to keep its own checking out of the trace.

Why these three (and not the others):

- ``chip-ac-bugs`` is the paper's bug hunt on blocks A and C: compile,
  bit-blast, CNF, SAT search, FAIL re-derivation and replay all work;
  the cache, planner-only paths and service do nothing.
- ``sweep-warm`` is the only workload that reaches cone digests, the
  process pool and the job wire codec, with cache writes beside cone
  hits.
- ``service-eco`` is the only workload that reaches HTTP, the queue
  and the verdict database; its reads and writes are separate latency
  populations that p50 and p90 each fall well inside.  Its bug hunts
  are the writes: each re-checks block C cold and must report the
  seeded C00_fsmctl FAIL.
- Block D is left out: 259 k-induction jobs took 364 s, up to 17 s per
  job.  Blocks B and E add no layer that A and C do not cover.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import random
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from answers import (
    FAIL, PASS, canonical_verdicts, check_campaign, check_sweep,
    sweep_outcome_digest,
)

BLOCKS = ("A", "C")
#: block A's Table 3 defects: A00_wrapcnt, A01_regfile, A02_macro;
#: block C has one, C00_fsmctl
A_DEFECTS = ("B0", "B1", "B3")
C_DEFECT = "B2"
ALL_DEFECTS = A_DEFECTS + (C_DEFECT,)


def defect_rotation(rng: random.Random) -> List[Tuple[str, ...]]:
    """The three chips with two of block A's defects plus C00_fsmctl,
    in seeded order.

    Both blocks always carry a defect, so every hunt ends in the last
    block checked.  A01_regfile's FAILs cost more than the others', so
    a single seeded subset would make the run's cost depend on the
    seed; a run instead checks every subset once per round.
    """
    subsets = [tuple(sorted(pair)) + (C_DEFECT,)
               for pair in itertools.combinations(A_DEFECTS, 2)]
    rng.shuffle(subsets)
    return subsets


def defect_modules(defects: Sequence[str],
                   blocks: Sequence[str]) -> Set[str]:
    """Modules of ``blocks`` that carry one of ``defects``."""
    from repro.chip.defects import DEFECTS_BY_ID
    return {DEFECTS_BY_ID[d].module_name for d in defects
            if DEFECTS_BY_ID[d].block in blocks}


@dataclass
class PassResult:
    """One measured pass of a workload."""

    wall_s: float
    #: check jobs (or submissions) settled in the pass
    settled: int
    #: per settled job or submission: seconds from submission until its
    #: verdict was reported
    latencies_s: List[float]
    #: per bug hunt in the pass (a campaign, a sweep, a write
    #: submission): seconds until every seeded defect in its scope had
    #: its first FAIL
    bugs_found_s: List[float]
    attempted: int
    problems: List[str]
    #: outcome digest; equal inputs must give equal digests
    digest: str
    #: per-layer figures measured outside any span
    extras: Dict[str, float] = field(default_factory=dict)
    #: set-up times of a workload that sets up before every pass
    setup_s: List[float] = field(default_factory=list)


def untraced(recorder):
    """Keep the benchmark's own checking out of a traced pass."""
    return contextlib.nullcontext() if recorder is None \
        else recorder.paused()


def _bdd_nodes() -> int:
    from repro.formal.bdd import nodes_created_total
    return nodes_created_total()


# ----------------------------------------------------------------------
class ChipAcBugs:
    """Blocks A and C with seeded Table 3 defects: a cold, serial,
    default-config campaign of 456 assertions, as one closed batch.
    Each round of three passes checks each of :func:`defect_rotation`'s
    chips once."""

    name = "chip-ac-bugs"
    setup_repeats = 0
    min_passes = 3
    passes_per_round = 3
    #: set-up is building the chip: ~25 ms, short enough to fall inside
    #: one of the host's fast or slow spells.  So besides the build
    #: before each pass, the chip is rebuilt (timed, outside the pass's
    #: time) after every this many jobs, and the set-up samples span the
    #: run the way the campaign does
    build_every = 40

    def __init__(self, seed: int, workdir: str) -> None:
        self.rotation = defect_rotation(random.Random(seed))
        self.defects = self.rotation[0]  # the current pass's chip

    def describe(self) -> Dict[str, object]:
        return {"defect_rotation": [list(d) for d in self.rotation]}

    def run_pass(self, index: int, recorder=None) -> PassResult:
        from repro.chip import ComponentChip
        from repro.orchestrate import CampaignOrchestrator
        from repro.orchestrate.config import CampaignConfig

        self.defects = self.rotation[index % len(self.rotation)]
        builds: List[float] = []

        def build():
            with untraced(recorder):
                began = time.perf_counter()
                blocks = ComponentChip(defects=self.defects,
                                       only_blocks=BLOCKS).blocks
                builds.append(time.perf_counter() - began)
            return blocks

        marks: List[float] = []

        def progress(line: str) -> None:
            marks.append(time.perf_counter() - sum(builds[1:]))
            if len(marks) % self.build_every == 0:
                build()

        blocks = build()  # fresh modules: every pass is cold
        nodes = _bdd_nodes()
        started = time.perf_counter()
        report = CampaignOrchestrator(blocks,
                                      config=CampaignConfig()).run(progress)
        wall = time.perf_counter() - started - sum(builds[1:])
        nodes = _bdd_nodes() - nodes
        with untraced(recorder):
            result = self._result(report, marks, started, wall, nodes)
        result.setup_s = builds
        return result

    def _result(self, report, marks, started, wall, nodes) -> PassResult:
        first_fail: Dict[str, float] = {}
        verdicts = []
        for mark, record in zip(marks, report.results):
            result = record.result
            replays = None
            if result.status == FAIL:
                first_fail.setdefault(record.module_name, mark)
                replays = result.trace is not None and result.trace.replay()
            verdicts.append((record.module_name, record.qualified_name,
                             result.status, replays))
        seeded = defect_modules(self.defects, BLOCKS)
        problems = check_campaign(verdicts, seeded)
        if len(marks) != len(report.results):
            problems.append("progress callback count != results")
        found = [first_fail[m] for m in seeded if m in first_fail]
        return PassResult(
            wall_s=wall,
            settled=len(marks),
            latencies_s=[mark - started for mark in marks],
            bugs_found_s=[(max(found) if found else started + wall)
                          - started],
            attempted=len(report.results),
            problems=problems,
            digest=hashlib.sha256(report.canonical_bytes()).hexdigest(),
            extras={"bdd.nodes_created": nodes},
        )


# ----------------------------------------------------------------------
class SweepWarm:
    """``run_sweep(warm_golden=True)`` on seeded default families, all
    four defect classes, cone fingerprints, a fresh result cache per
    pass, ``workstealing:2`` with module-affinity scheduling.

    Families differ in size by up to a fifth, so a run sweeps at least
    six of them, in whole rounds of three (pass ``i`` sweeps family
    ``seed + 7919 * i``).  Each pass
    sets up its own cache: the family's golden (unmutated)
    modules are checked into it first, as the last regression run would
    have left it, and that set-up is timed as one ``setup_s`` sample.
    The timed sweep then serves the golden pre-run and every
    out-of-cone mutant job from the cache.
    """

    name = "sweep-warm"
    setup_repeats = 0
    min_passes = 6
    passes_per_round = 3

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def family_seed(self, index: int) -> int:
        # pass 0 sweeps the family named by the seed itself
        return self.seed + 7919 * index

    def describe(self) -> Dict[str, object]:
        return {"family_seeds": [self.family_seed(i)
                                 for i in range(self.min_passes)]}

    def _config(self, cache_dir: str):
        from repro.orchestrate.config import CampaignConfig
        return CampaignConfig(
            executor="workstealing:2", scheduling="module-affinity",
            coi_fingerprints="cone",
            cache_path=os.path.join(cache_dir, "results.json"))

    def _warm_golden(self, spec, config) -> List[str]:
        """Check the golden modules the sweep's sites live in into the
        cache; returns the golden FAILs (there must be none)."""
        from repro.orchestrate import CampaignOrchestrator
        from repro.rtl.inject import make_verifiable
        from repro.scenario.family import generate_family
        from repro.scenario.mutate import sites_for_family

        golden: Dict[str, Dict[str, object]] = {}
        for block, module, _ in sites_for_family(generate_family(spec),
                                                 seed=spec.seed):
            golden.setdefault(block, {}).setdefault(
                module.name, make_verifiable(module))
        report = CampaignOrchestrator(
            [(block, list(modules.values()))
             for block, modules in sorted(golden.items())],
            config=config).run()
        return [f"golden {r.qualified_name}: {r.result.status.upper()}"
                for r in report.results if r.result.status != PASS]

    def run_pass(self, index: int, recorder=None) -> PassResult:
        from repro.scenario.family import FamilySpec
        from repro.scenario.sweep import run_sweep

        spec = FamilySpec(seed=self.family_seed(index))
        marks: List[Tuple[float, str]] = []
        with tempfile.TemporaryDirectory(dir=self.workdir) as cache_dir:
            config = self._config(cache_dir)
            with untraced(recorder):
                began = time.perf_counter()
                problems = self._warm_golden(spec, config)
                setup_s = time.perf_counter() - began
            started = time.perf_counter()
            record, report = run_sweep(
                spec, config=config, warm_golden=True,
                progress=lambda line: marks.append(
                    (time.perf_counter(), line)))
            wall = time.perf_counter() - started
        with untraced(recorder):
            result = self._result(record, report, marks, started, wall)
        result.problems[:0] = problems
        result.setup_s = [setup_s]
        return result

    def _result(self, record, report, marks, started, wall) -> PassResult:
        golden_jobs = record["timing"]["golden"]["jobs"]
        golden, mutant_marks = marks[:golden_jobs], marks[golden_jobs:]
        statuses = [(line, line.rsplit(": ", 1)[-1].lower())
                    for _, line in golden]
        problems = [f"golden {line}" for line, status in statuses
                    if status == FAIL]
        first_fail: Dict[str, float] = {}
        for (mark, _), result in zip(mutant_marks, report.results):
            statuses.append((f"{result.block} {result.qualified_name}",
                             result.result.status))
            if result.result.status == FAIL:
                first_fail.setdefault(result.block, mark)
        problems += check_sweep(record, statuses)
        if len(mutant_marks) != len(report.results):
            problems.append("progress callback count != results")
        return PassResult(
            wall_s=wall,
            settled=len(marks),
            latencies_s=[mark - started for mark, _ in marks],
            bugs_found_s=[(max(first_fail.values()) if first_fail
                           else started + wall) - started],
            attempted=len(marks),
            problems=problems,
            digest=sweep_outcome_digest(record),
            extras={"sweep.golden_s":
                    float(record["timing"]["golden"]["seconds"])},
        )


# ----------------------------------------------------------------------
#: one round of five submissions, in seeded order: four reads ({C},
#: the fastest, {A} twice and {A,C}) and one block-C write, so that the
#: overall p50 lands in the middle of the {A} reads and p90 in the
#: middle of the writes
READ_SCOPES = (("C",), ("A",), ("A",), ("A", "C"))
ROUNDS_PER_PASS = 5
WRITE_BUDGET_FLOOR = 500_000


class ServiceEco:
    """An in-process service daemon serving the chip with every Table 3
    defect of blocks A and C (a fixed chip: the A reads replay every
    A FAIL, so their cost does not depend on the seed): one
    closed-loop client re-submits seeded scopes (reads) and block C
    under never-seen, non-binding conflict budgets (writes, whose
    every fingerprint misses).  A pass is five rounds; a run makes at
    least four passes, so at least 100 submissions."""

    name = "service-eco"
    setup_repeats = 1
    min_passes = 4
    passes_per_round = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = random.Random(seed)
        self.defects = ALL_DEFECTS
        self.workdir = workdir
        self.daemon = None
        self.client = None
        self.cold: Optional[dict] = None
        self.budgets: Set[int] = set()
        self.references: Dict[Tuple[str, ...], str] = {}
        self.jobs: Dict[Tuple[str, str, str], object] = {}
        self.replayed: Dict[str, bool] = {}
        self.dequeued_at = 0.0
        self.recorder = None
        self.request = None

    def describe(self) -> Dict[str, object]:
        return {"defects": list(self.defects),
                "defect_modules": sorted(
                    defect_modules(self.defects, BLOCKS))}

    def _blocks(self, config):
        # runs on the queue's worker thread when a submission leaves
        # the queue
        from repro.chip import ComponentChip
        self.dequeued_at = time.perf_counter()
        if self.recorder is not None:
            self.recorder.set_request(self.request)
        return ComponentChip(defects=self.defects,
                             only_blocks=config.blocks).blocks

    def setup(self) -> None:
        """Start the daemon on an ephemeral port and submit A+C once,
        cold, so every read afterwards is served from the database."""
        from repro.orchestrate.config import CampaignConfig
        from repro.service.api import ServiceDaemon
        from repro.service.client import ServiceClient

        data_dir = tempfile.mkdtemp(prefix="service-", dir=self.workdir)
        self.daemon = ServiceDaemon(CampaignConfig(), port=0,
                                    data_dir=data_dir,
                                    blocks_provider=self._blocks).start()
        self.client = ServiceClient(self.daemon.url, timeout=120.0)
        run_id = self.client.submit(CampaignConfig(blocks=BLOCKS))["id"]
        self.cold = self.client.wait(run_id, timeout=600.0, poll=30.0)

    def prepare_checks(self) -> List[str]:
        """Plan the chip once, for replaying served counterexamples, and
        check the cold set-up submission; not part of set-up time."""
        from repro.chip import ComponentChip
        from repro.orchestrate import CampaignOrchestrator
        blocks = ComponentChip(defects=self.defects,
                               only_blocks=BLOCKS).blocks
        for job in CampaignOrchestrator(blocks).plan().jobs:
            self.jobs[(job.module.name, job.vunit.name,
                       job.assert_name)] = job
        return self._check(BLOCKS, self.cold)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None

    # ------------------------------------------------------------------
    def _replays(self, key: Tuple[str, str, str], frames) -> bool:
        from repro.formal.trace import Trace
        from repro.psl.compile import compile_assertion
        memo = f"{key}:{frames}"
        if memo not in self.replayed:
            job = self.jobs.get(key)
            ok = False
            if job is not None and frames:
                ts = compile_assertion(job.module, job.vunit,
                                       job.assert_name)
                ok = Trace(ts, [{int(lit): int(bit) & 1
                                 for lit, bit in frame}
                                for frame in frames]).replay()
            self.replayed[memo] = ok
        return self.replayed[memo]

    def _check(self, scope: Tuple[str, ...], snapshot: dict) -> List[str]:
        if snapshot.get("state") != "done":
            return [f"submission {snapshot.get('id')}: "
                    f"{snapshot.get('state')} {snapshot.get('error', '')}"]
        canonical = snapshot["canonical"]
        verdicts = []
        for module, vunit, assert_name, status, frames in \
                canonical_verdicts(canonical):
            replays = self._replays((module, vunit, assert_name), frames) \
                if status == FAIL else None
            verdicts.append((module, f"{vunit}.{assert_name}", status,
                             replays))
        problems = check_campaign(verdicts,
                                  defect_modules(self.defects, scope))
        reference = self.references.setdefault(scope, canonical)
        if canonical != reference:
            problems.append(f"scope {scope}: report differs from the "
                            f"first one served")
        return problems

    def _write_budget(self) -> int:
        while True:
            budget = WRITE_BUDGET_FLOOR + self.rng.randrange(1, 10 ** 7)
            if budget not in self.budgets:
                self.budgets.add(budget)
                return budget

    def run_pass(self, index: int, recorder=None) -> PassResult:
        from repro.orchestrate.config import CampaignConfig

        plan: List[Tuple[Tuple[str, ...], Optional[int]]] = []
        for _ in range(ROUNDS_PER_PASS):
            round_ = [(scope, None) for scope in READ_SCOPES]
            round_.append((("C",), self._write_budget()))
            self.rng.shuffle(round_)
            plan.extend(round_)

        self.recorder = recorder
        latencies, writes, queue_wait, run_s, overhead = [], [], [], [], []
        snapshots = []
        started = time.perf_counter()
        for number, (scope, budget) in enumerate(plan):
            config = CampaignConfig(blocks=scope) if budget is None \
                else CampaignConfig(blocks=scope, sat_conflicts=budget)
            self.request = f"p{index}-s{number}"
            span = recorder.open("api.submit", self.request) \
                if recorder is not None else None
            posted = time.perf_counter()
            run_id = self.client.submit(config)["id"]
            snapshot = self.client.wait(run_id, timeout=120.0, poll=30.0)
            done = time.perf_counter()
            if recorder is not None:
                recorder.close(span)
            latencies.append(done - posted)
            if budget is not None:
                writes.append(done - posted)
            queue_wait.append(self.dequeued_at - posted)
            seconds = float(snapshot.get("seconds") or 0.0)
            run_s.append(seconds)
            overhead.append(done - posted - seconds)
            snapshots.append((scope, snapshot))
        wall = time.perf_counter() - started
        self.recorder = None

        problems: List[str] = []
        settled = 0
        with untraced(recorder):
            for scope, snapshot in snapshots:
                problems += self._check(scope, snapshot)
                settled += int(snapshot.get("jobs") or 0)
        return PassResult(
            wall_s=wall,
            settled=settled,
            latencies_s=latencies,
            bugs_found_s=writes,
            attempted=len(plan),
            problems=problems,
            digest=hashlib.sha256(json.dumps(
                sorted(self.references.values())).encode()).hexdigest(),
            extras={
                "queue.wait_ms": statistics.median(queue_wait) * 1000.0,
                "queue.run_s": statistics.median(run_s),
                "api.overhead_ms": statistics.median(overhead) * 1000.0,
            },
        )


WORKLOADS = {cls.name: cls for cls in (ChipAcBugs, SweepWarm, ServiceEco)}
