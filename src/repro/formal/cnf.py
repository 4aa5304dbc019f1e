"""Tseitin CNF encoding of AIG cones into a CDCL solver.

One :class:`CnfContext` owns the mapping from AIG literals to solver
literals for one combinational copy (one time-frame of an unrolling, or
a single combinational check).  AND nodes get the standard three-clause
Tseitin encoding.
"""

from __future__ import annotations

from typing import Dict

from ..rtl.netlist import Aig, FALSE, TRUE
from .sat import Solver


class CnfContext:
    """Maps one combinational copy of an AIG into a solver.

    Leaves (inputs and latches) are allocated fresh solver variables on
    first use unless the caller pre-binds them via :meth:`bind`.
    """

    def __init__(self, aig: Aig, solver: Solver) -> None:
        self.aig = aig
        self.solver = solver
        self._map: Dict[int, int] = {}  # AIG node index -> solver lit (pos)
        var = solver.new_var()
        self._true_lit = var << 1
        solver.add_clause([self._true_lit])

    @property
    def true_lit(self) -> int:
        return self._true_lit

    @property
    def false_lit(self) -> int:
        return self._true_lit ^ 1

    def bind(self, aig_lit: int, solver_lit: int) -> None:
        """Pre-bind a leaf (input/latch) node to an existing solver
        literal; ``aig_lit`` must be positive."""
        assert aig_lit & 1 == 0, "bind positive literals only"
        self._map[aig_lit >> 1] = solver_lit

    def is_bound(self, aig_lit: int) -> bool:
        return (aig_lit >> 1) in self._map

    # ------------------------------------------------------------------
    def lit(self, aig_lit: int) -> int:
        """Solver literal computing ``aig_lit``; encodes the cone on
        demand."""
        if aig_lit in (FALSE, TRUE):
            return self._resolved(aig_lit)
        if (aig_lit >> 1) not in self._map:
            self._encode_cone(aig_lit)
        return self._resolved(aig_lit)

    def _encode_cone(self, root: int) -> None:
        # the walk stops at encoded nodes: an encoded node's whole cone
        # is encoded (leaves have none), so the new nodes still come in
        # the full cone's post-order and get the same solver variables
        aig = self.aig
        solver = self.solver
        for index in aig.cone_nodes([root], stop=self._map):
            if index == 0:
                continue
            kind = aig.kind(index << 1)
            if kind in ("input", "latch"):
                self._map[index] = solver.new_var() << 1
                continue
            assert kind == "and"
            a, b = aig.fanin(index << 1)
            lit_a = self._resolved(a)
            lit_b = self._resolved(b)
            y = solver.new_var() << 1
            solver.add_clause([y ^ 1, lit_a])
            solver.add_clause([y ^ 1, lit_b])
            solver.add_clause([y, lit_a ^ 1, lit_b ^ 1])
            self._map[index] = y

    def _resolved(self, aig_lit: int) -> int:
        if aig_lit == FALSE:
            return self.false_lit
        if aig_lit == TRUE:
            return self.true_lit
        return self._map[aig_lit >> 1] ^ (aig_lit & 1)

    def value_of(self, aig_lit: int) -> int:
        """Model value of an AIG literal after SAT; leaves that never
        entered the encoding default to 0."""
        if aig_lit == FALSE:
            return 0
        if aig_lit == TRUE:
            return 1
        index = aig_lit >> 1
        if index not in self._map:
            return aig_lit & 1  # free leaf: any value works; pick 0
        return self.solver.value_of(self._map[index]) ^ (aig_lit & 1)
