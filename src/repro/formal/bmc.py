"""Bounded model checking (BMC) over the CDCL SAT solver.

The transition system is unrolled frame by frame into one incremental
solver; assumptions (the PSL ``assume`` directives) are asserted as unit
clauses at every frame, and the ``bad`` literal is queried per frame
under a solver assumption, so one solver instance serves all bounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..rtl.netlist import FALSE, TRUE
from .budget import ResourceBudget
from .cnf import CnfContext
from .sat import Solver, stats_delta
from .trace import Trace
from .transition import TransitionSystem


class Unroller:
    """Time-frame expansion of a transition system into a solver."""

    def __init__(self, ts: TransitionSystem, solver: Solver,
                 constrain_init: bool = True) -> None:
        self.ts = ts
        self.solver = solver
        self.constrain_init = constrain_init
        self._frames: List[CnfContext] = []

    def frame(self, index: int) -> CnfContext:
        """The CNF context of frame ``index``, creating frames (and
        latch linkage) on demand."""
        while len(self._frames) <= index:
            self._add_frame()
        return self._frames[index]

    def _add_frame(self) -> None:
        t = len(self._frames)
        ctx = CnfContext(self.ts.aig, self.solver)
        if t == 0:
            if self.constrain_init:
                for latch, init_bit in self.ts.init.items():
                    lit = self.solver.new_var() << 1
                    ctx.bind(latch, lit)
                    self.solver.add_clause([lit ^ (init_bit ^ 1)])
        else:
            previous = self._frames[t - 1]
            for latch in self.ts.latches:
                next_lit = previous.lit(self.ts.next_fn[latch])
                ctx.bind(latch, next_lit)
        self._frames.append(ctx)

    # ------------------------------------------------------------------
    def constraint_at(self, frame: int) -> int:
        return self.frame(frame).lit(self.ts.constraint)

    def bad_at(self, frame: int) -> int:
        return self.frame(frame).lit(self.ts.bad)

    def assert_constraint(self, frame: int) -> None:
        if self.ts.constraint != TRUE:
            self.solver.add_clause([self.constraint_at(frame)])

    def extract_inputs(self, up_to_frame: int) -> List[Dict[int, int]]:
        """Input bit values per frame from the current SAT model."""
        frames: List[Dict[int, int]] = []
        for t in range(up_to_frame + 1):
            ctx = self._frames[t]
            frames.append({
                lit: ctx.value_of(lit) for lit in self.ts.inputs
            })
        return frames


class BmcResult:
    """Outcome of a BMC run."""

    def __init__(self, failed: bool, bound: int,
                 trace: Optional[Trace], stats: Dict[str, int]) -> None:
        self.failed = failed
        self.bound = bound
        self.trace = trace
        self.stats = stats

    def __repr__(self) -> str:
        verdict = "FAIL" if self.failed else "no-cex"
        return f"BmcResult({verdict} @ bound {self.bound})"


def bmc(ts: TransitionSystem, max_bound: int,
        budget: Optional[ResourceBudget] = None,
        start_bound: int = 0) -> BmcResult:
    """Search for a counterexample of length ``start_bound`` ..
    ``max_bound`` (inclusive).  May raise
    :class:`~repro.formal.budget.BudgetExceeded`.
    """
    solver = Solver(budget)
    unroller = Unroller(ts, solver, constrain_init=True)
    for k in range(0, max_bound + 1):
        unroller.assert_constraint(k)
        if k < start_bound:
            # exclude shallower violations so the first hit is minimal
            if ts.bad != FALSE:
                solver.add_clause([unroller.bad_at(k) ^ 1])
            continue
        bad_lit = unroller.bad_at(k)
        if solver.solve([bad_lit]):
            trace = Trace(ts, unroller.extract_inputs(k))
            return BmcResult(True, k, trace, solver.stats_snapshot())
        solver.add_clause([bad_lit ^ 1])
    return BmcResult(False, max_bound, None, solver.stats_snapshot())


def bmc_session(session, assert_name: str, max_bound: int,
                start_bound: int = 0) -> BmcResult:
    """BMC over a shared, already-armed SAT session (see
    :mod:`repro.formal.satspace`).

    The session's solver and unroller persist across assertions and
    jobs; this run touches them only through the assertion's activation
    literal ``act``: the per-depth query is ``solve([act, bad@k])`` and
    every no-counterexample fact is recorded as the *guarded* block
    ``(¬act ∨ ¬bad@k)``, so retiring the activation later deactivates
    exactly this assertion's facts.  Frame encodings, Tseitin
    definitions, and the shared constraint units are activation-free and
    stay behind for the next assertion.

    On failure the result carries ``trace=None``: the shared CNF's model
    depends on every earlier solve in the session, so callers re-derive
    the canonical counterexample with a cold :func:`bmc` on the
    assertion's view at the discovered (identical) depth.
    """
    solver = session.solver
    before = solver.stats_snapshot()
    act = session.activation(assert_name)
    bad_node = session.cluster.bads[assert_name]
    for k in range(0, max_bound + 1):
        session.assert_constraint(k)
        bad_lit = session.frame(k).lit(bad_node)
        if k < start_bound:
            if bad_node != FALSE:
                solver.add_clause([act ^ 1, bad_lit ^ 1])
            continue
        if solver.solve([act, bad_lit]):
            return BmcResult(True, k, None,
                             stats_delta(before, solver.stats_snapshot()))
        solver.add_clause([act ^ 1, bad_lit ^ 1])
    return BmcResult(False, max_bound, None,
                     stats_delta(before, solver.stats_snapshot()))
