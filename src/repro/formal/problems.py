"""Content-addressed compiled-problem store — one compile per content.

The methodology checks many assertions per leaf module.  A
:class:`CompiledProblemStore` gives them one **content-addressed,
LRU-bounded** store with a two-level structure mirroring the pipeline's
two fixed costs:

- **designs** — the elaborated :class:`~repro.rtl.elaborate.FlatDesign`
  of a module, keyed by the module's RTL digest (SHA-256 of its emitted
  Verilog).  Every vunit of a module compiles against the same
  flattened design, so a campaign pays one elaboration per *distinct
  module content* instead of one per job;
- **clusters** — the bit-blasted
  :class:`~repro.formal.transition.ClusterSystem` of one vunit (every
  asserted property on one AIG), keyed by ``(module digest, vunit
  digest)``.  A job's problem is the cluster's memoised
  per-assertion view, so a campaign pays one bit-blast per *distinct
  (module, vunit) pair*; the SAT workspace unrolls the same cluster,
  and replaying a cached FAIL or re-checking an assertion hits the
  retained view outright.

Digest keying is what makes the store safe **by construction**: two
distinct modules may share a name (a golden and a patched variant
planned in one campaign), but they can never share an RTL digest — so a
store hit can only ever return the elaboration of byte-identical RTL,
never the other variant's.

Sharing compiled artifacts is sound because neither level is ever
changed after it is built:

- :func:`~repro.psl.compile.compile_cluster` adds its property monitors
  to a private copy of the design, so a retained :class:`FlatDesign` is
  the module's elaboration and nothing else;
- a cluster and its views are immutable after construction — engines
  and trace replay only read them — so one compile serves any number
  of checks of the same content.

Stores are deliberately **not** shared across processes (exactly like
:class:`~repro.formal.workspace.BddWorkspace`): each executor worker
owns its own, which keeps reuse lock-free; module-affinity scheduling
(one worker runs one module's whole job group) is what turns the
per-worker store into near-perfect design reuse.

``max_designs`` / ``max_problems`` bound each level independently
(least recently used evicted first; ``None`` = unbounded):
``max_problems`` counts retained clusters.  Lifetime counters (`hits`,
`misses`, evictions, per level; the ``problem_*`` counters count cluster
requests) surface in ``CampaignReport.stats["compile_store"]`` and the
campaign benchmark's compile-store probe.

The module also keeps process-wide totals —
:func:`elaborations_total` / :func:`compilations_total` — mirroring
:func:`repro.formal.bdd.nodes_created_total`: benchmarks diff them
around a campaign to measure how many pipeline runs the store actually
avoided.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from ..rtl.elaborate import FlatDesign, elaborate
from ..rtl.module import Module
from ..rtl.verilog import emit_module
from .transition import ClusterSystem, TransitionSystem

#: process-wide pipeline counters (monotonic; diff around a run)
_ELABORATIONS = 0
_COMPILATIONS = 0


def elaborations_total() -> int:
    """Process-wide count of module elaborations performed through the
    compile layer (store misses and store-less compiles alike)."""
    return _ELABORATIONS


def compilations_total() -> int:
    """Process-wide count of compiles (one bit-blast each) performed
    through the compile layer."""
    return _COMPILATIONS


def note_elaboration() -> None:
    """Count one elaboration.  The primitives themselves call these —
    :func:`~repro.psl.compile.compile_cluster` counts its compile
    (and its elaboration when it elaborates), the store counts the
    elaborations it performs directly — so every compile path, with or
    without a store, is counted once and store-on/off runs are
    directly comparable."""
    global _ELABORATIONS
    _ELABORATIONS += 1


def note_compilation() -> None:
    """Count one compile (see :func:`note_elaboration`)."""
    global _COMPILATIONS
    _COMPILATIONS += 1


def content_digest(text: str) -> str:
    """SHA-256 hex digest of one content key component (module RTL,
    vunit PSL) — the same digest the campaign planner stamps into
    :class:`~repro.orchestrate.job.CheckJob`."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CompiledProblemStore:
    """Two-level LRU store of elaborated designs and vunit clusters.

    ``design(module)`` returns the module's elaborated
    :class:`FlatDesign`; ``cluster(module, vunit)`` the vunit's
    compiled :class:`ClusterSystem`; ``problem(module, vunit,
    assert_name)`` the assertion's view of that cluster — all served
    from the store when their content digests match a retained entry,
    compiled (and retained) otherwise.  Callers that already know the
    digests (the campaign planner computes them once per module/vunit)
    pass them in; otherwise the store derives them from the emitted
    sources.

    Parameters
    ----------
    max_designs:
        Retain at most this many elaborated designs (least recently
        used evicted first).  ``None`` = unbounded.
    max_problems:
        Retain at most this many compiled clusters.  ``None`` =
        unbounded.
    """

    def __init__(self, max_designs: Optional[int] = 8,
                 max_problems: Optional[int] = 64) -> None:
        if max_designs is not None and max_designs < 1:
            raise ValueError(
                f"max_designs must be >= 1 or None, got {max_designs}"
            )
        if max_problems is not None and max_problems < 1:
            raise ValueError(
                f"max_problems must be >= 1 or None, got {max_problems}"
            )
        self.max_designs = max_designs
        self.max_problems = max_problems
        #: module digest -> elaborated design, LRU order (oldest first)
        self._designs: Dict[str, FlatDesign] = {}
        #: (module digest, vunit digest) -> the vunit's cluster, and
        #: ("coi:" + cone digest, vunit digest, assert) -> the one-
        #: assertion cluster of a slice; LRU order (oldest first)
        self._clusters: Dict[tuple, ClusterSystem] = {}
        #: module digest -> cone index over the retained design
        #: (derived artifact — lives and dies with its design entry)
        self._cone_indexes: Dict[str, "ConeIndex"] = {}
        #: cone digest -> sliced design, LRU order (oldest first);
        #: bounded by ``max_designs`` like the full designs.  Keyed by
        #: cone content, so cone-equal assertions of *different*
        #: modules (a golden and its out-of-cone mutants) share one
        #: slice
        self._slices: Dict[str, FlatDesign] = {}
        self._design_hits = 0
        self._design_misses = 0
        self._design_evictions = 0
        self._problem_hits = 0
        self._problem_misses = 0
        self._problem_evictions = 0
        self._slice_hits = 0
        self._slice_misses = 0
        self._slice_evictions = 0

    # ------------------------------------------------------------------
    def design(self, module: Module,
               module_digest: Optional[str] = None) -> FlatDesign:
        """The elaborated design for ``module``, served by content.

        A hit refreshes the entry's recency; a miss elaborates, retains
        (evicting the least recently used design past ``max_designs``),
        and returns the fresh design.
        """
        key = module_digest or content_digest(emit_module(module))
        design = self._designs.pop(key, None)
        if design is not None:
            self._design_hits += 1
        else:
            self._design_misses += 1
            note_elaboration()
            design = elaborate(module)
            while self.max_designs is not None \
                    and len(self._designs) >= self.max_designs:
                evicted = next(iter(self._designs))
                self._designs.pop(evicted)
                self._cone_indexes.pop(evicted, None)
                self._design_evictions += 1
        self._designs[key] = design  # (re)insert at most-recent end
        return design

    def cluster(self, module: Module, vunit,
                module_digest: Optional[str] = None,
                vunit_digest: Optional[str] = None) -> ClusterSystem:
        """The vunit's compiled cluster — every asserted property on one
        AIG — served by content.

        A miss compiles the vunit against the (store-served) elaborated
        design and retains the cluster under ``(module digest, vunit
        digest)``.
        """
        module_key = module_digest or content_digest(emit_module(module))
        vunit_key = vunit_digest or content_digest(vunit.emit())
        key = (module_key, vunit_key)
        cluster = self._hit(key)
        if cluster is None:
            # deferred: psl.compile sits above this module's layer-mates
            # (it imports formal.transition) — a top-level import here
            # would be cyclic through the package inits
            from ..psl.compile import compile_cluster
            design = self.design(module, module_digest=module_key)
            cluster = self._retain(key, compile_cluster(
                module, vunit, None, design=design))
        return cluster

    def problem(self, module: Module, vunit, assert_name: str,
                module_digest: Optional[str] = None,
                vunit_digest: Optional[str] = None) -> TransitionSystem:
        """The compiled safety problem for one asserted property: its
        memoised view of the vunit's :meth:`cluster`."""
        from ..psl.compile import asserted_property
        asserted_property(vunit, assert_name)
        return self.cluster(module, vunit, module_digest=module_digest,
                            vunit_digest=vunit_digest).view(assert_name)

    def _hit(self, key: tuple) -> Optional[ClusterSystem]:
        cluster = self._clusters.pop(key, None)
        if cluster is not None:
            self._problem_hits += 1
            self._clusters[key] = cluster  # re-insert at most-recent end
        return cluster

    def _retain(self, key: tuple, cluster: ClusterSystem) -> ClusterSystem:
        self._problem_misses += 1
        while self.max_problems is not None \
                and len(self._clusters) >= self.max_problems:
            self._clusters.pop(next(iter(self._clusters)))
            self._problem_evictions += 1
        self._clusters[key] = cluster
        return cluster

    def cone(self, module: Module, vunit, assert_name: str,
             module_digest: Optional[str] = None):
        """The assertion's :class:`~repro.formal.coi.ConeInfo` over the
        store-served design.  Per-design node-digest memos are shared
        across a module's assertions via a retained
        :class:`~repro.formal.coi.ConeIndex` (dropped whenever its
        design is evicted, so the memo can never outlive the object
        identities it keys on)."""
        module_key = module_digest or content_digest(emit_module(module))
        design = self.design(module, module_digest=module_key)
        index = self._cone_indexes.get(module_key)
        if index is None or index.design is not design:
            from .coi import ConeIndex
            index = ConeIndex(design)
            self._cone_indexes[module_key] = index
        return index.info(vunit, assert_name)

    def sliced_problem(self, module: Module, vunit, assert_name: str,
                       module_digest: Optional[str] = None,
                       vunit_digest: Optional[str] = None,
                       cone_digest: Optional[str] = None
                       ) -> TransitionSystem:
        """The assertion compiled against its cone-of-influence slice,
        served by *cone* content (:mod:`repro.formal.coi`).

        A slice lacks the signals of the vunit's other assertions, so
        it compiles a one-assertion cluster, retained under ``("coi:" +
        cone digest, vunit digest, assert name)`` — the prefix keeps
        cone keys from ever aliasing module-digest keys in the shared
        cluster pool — and the sliced designs themselves are retained
        by cone digest, so cone-equal jobs of different modules (a
        golden module and its out-of-cone mutants in one sweep) share
        both levels.  A planner-stamped ``cone_digest`` skips the cone
        analysis whenever the slice or the compiled problem is already
        retained; it is cross-checked against the locally computed
        digest before anything is stored under it.
        """
        vunit_key = vunit_digest or content_digest(vunit.emit())
        if cone_digest is not None:
            cluster = self._hit((f"coi:{cone_digest}", vunit_key,
                                 assert_name))
            if cluster is not None:
                return cluster.view(assert_name)
        sliced = None if cone_digest is None \
            else self._slices.pop(cone_digest, None)
        if sliced is not None:
            self._slice_hits += 1
        else:
            info = self.cone(module, vunit, assert_name,
                             module_digest=module_digest)
            if cone_digest is not None and cone_digest != info.digest:
                raise ValueError(
                    f"stamped cone digest {cone_digest[:12]}... does "
                    f"not match the computed cone of "
                    f"{vunit.name}.{assert_name} "
                    f"({info.digest[:12]}...) — planner/store version "
                    f"drift?"
                )
            cone_digest = info.digest
            cluster = self._hit((f"coi:{cone_digest}", vunit_key,
                                 assert_name))
            if cluster is not None:
                return cluster.view(assert_name)
            sliced = self._slices.pop(cone_digest, None)
            if sliced is not None:
                self._slice_hits += 1
            else:
                self._slice_misses += 1
                index = self._cone_indexes[
                    module_digest or content_digest(emit_module(module))]
                sliced = index.slice(info)
                while self.max_designs is not None \
                        and len(self._slices) >= self.max_designs:
                    self._slices.pop(next(iter(self._slices)))
                    self._slice_evictions += 1
        self._slices[cone_digest] = sliced  # (re)insert at recent end
        from ..psl.compile import compile_cluster
        cluster = self._retain(
            (f"coi:{cone_digest}", vunit_key, assert_name),
            compile_cluster(module, vunit, [assert_name], design=sliced))
        return cluster.view(assert_name)

    # ------------------------------------------------------------------
    def discard(self) -> None:
        """Drop every retained design and cluster (counters survive);
        the next request compiles cold."""
        self._designs.clear()
        self._clusters.clear()
        self._cone_indexes.clear()
        self._slices.clear()

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus the current pool shape (``problems``
        is the number of retained clusters)."""
        return {
            "designs": len(self._designs),
            "problems": len(self._clusters),
            "slices": len(self._slices),
            "design_hits": self._design_hits,
            "design_misses": self._design_misses,
            "design_evictions": self._design_evictions,
            "problem_hits": self._problem_hits,
            "problem_misses": self._problem_misses,
            "problem_evictions": self._problem_evictions,
            "slice_hits": self._slice_hits,
            "slice_misses": self._slice_misses,
            "slice_evictions": self._slice_evictions,
        }

    @staticmethod
    def merge_stats(*stats: Dict[str, int]) -> Dict[str, int]:
        """Sum counter dicts (per-worker snapshots into one aggregate)."""
        merged: Dict[str, int] = {}
        for snapshot in stats:
            for key, value in snapshot.items():
                merged[key] = merged.get(key, 0) + int(value)
        return merged

    def __repr__(self) -> str:
        return (f"CompiledProblemStore(designs={len(self._designs)}, "
                f"clusters={len(self._clusters)}, "
                f"hits={self._design_hits + self._problem_hits})")
