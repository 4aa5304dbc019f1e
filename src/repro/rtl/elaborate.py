"""Elaboration: flatten a module hierarchy into a single-scope design.

Flattening creates one fresh register per (instance path, child register)
pair, rewrites child logic so child inputs become the parent's bound
expressions, and resolves :class:`~repro.rtl.signals.InstPort` reads into
the instantiated child's output logic.  The result is a
:class:`FlatDesign`: primary inputs, registers with next-state functions,
and primary outputs — the form consumed by the simulator, the synthesizer
and the bit-blaster.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .module import Instance, Module, RtlError
from .signals import Expr, Input, InstPort, Reg, substitute


class FlatDesign:
    """A flattened (single-scope) design."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.inputs: Dict[str, Input] = {}
        self.outputs: Dict[str, Expr] = {}
        self.regs: List[Reg] = []

    def signal(self, name: str) -> Expr:
        """Resolve a signal by name (input, output, or register path)."""
        if name in self.inputs:
            return self.inputs[name]
        if name in self.outputs:
            return self.outputs[name]
        for r in self.regs:
            if r.name == name:
                return r
        raise KeyError(f"design {self.name!r}: no signal named {name!r}")

    def add_reg(self, reg: Reg) -> Reg:
        self.regs.append(reg)
        return reg

    def copy(self) -> "FlatDesign":
        """A copy that owns its register list and output map but shares
        the input ports (and every expression) with this design, so
        registers and outputs added to it leave this design unchanged."""
        clone = FlatDesign(self.name)
        clone.inputs = self.inputs
        clone.outputs = dict(self.outputs)
        clone.regs = list(self.regs)
        return clone

    def state_bits(self) -> int:
        """Total number of state bits (formal problem size metric)."""
        return sum(r.width for r in self.regs)

    def __repr__(self) -> str:
        return (
            f"FlatDesign({self.name!r}, {len(self.inputs)} in, "
            f"{len(self.outputs)} out, {self.state_bits()} state bits)"
        )


def elaborate(top: Module, check: bool = True) -> FlatDesign:
    """Flatten ``top`` and everything below it into a :class:`FlatDesign`.

    Instance paths become dotted register names (``u0.cs``).  Sibling
    instances may feed each other combinationally as long as the
    dependency graph between instance *outputs* is acyclic; a cycle
    raises :class:`RtlError`.
    """
    if check:
        top.validate()
    flat = FlatDesign(top.name)
    flat.inputs = dict(top.inputs)
    top_bindings: Dict[Expr, Expr] = {p: p for p in top.inputs.values()}
    outputs = _flatten_scope(top, "", top_bindings, flat)
    flat.outputs = outputs
    return flat


def _flatten_scope(module: Module, prefix: str,
                   input_bindings: Dict[Expr, Expr],
                   flat: FlatDesign) -> Dict[str, Expr]:
    """Flatten one module scope; returns its resolved output map."""
    mapping: Dict[Expr, Expr] = dict(input_bindings)
    fresh_regs: List[Reg] = []
    for reg in module.regs:
        fresh = Reg(prefix + reg.name, reg.width, reg.reset)
        flat.add_reg(fresh)
        mapping[reg] = fresh
        fresh_regs.append(fresh)

    memo: Dict[int, Expr] = {}
    inst_outputs: Dict[int, Dict[str, Expr]] = {}
    in_progress: set = set()

    def resolve(expr: Expr) -> Expr:
        return substitute(expr, mapping, memo, inst_resolver=resolve_port)

    def resolve_port(port: InstPort) -> Expr:
        inst = port.instance
        assert isinstance(inst, Instance)
        if id(inst) not in inst_outputs:
            if id(inst) in in_progress:
                raise RtlError(
                    f"combinational cycle through instance "
                    f"{prefix}{inst.name!r} during elaboration"
                )
            in_progress.add(id(inst))
            child_bindings = {
                inst.module.inputs[name]: resolve(bound)
                for name, bound in inst.bindings.items()
            }
            inst_outputs[id(inst)] = _flatten_scope(
                inst.module, prefix + inst.name + ".", child_bindings, flat
            )
            in_progress.discard(id(inst))
        return inst_outputs[id(inst)][port.port]

    for original, fresh in zip(module.regs, fresh_regs):
        fresh.next = resolve(original.next)

    resolved_outputs = {
        name: resolve(expr) for name, expr in module.outputs.items()
    }

    # Instances whose outputs are never read still contribute state
    # (e.g. blocks wired only for side effects); flatten them too.
    for inst in module.instances:
        if id(inst) not in inst_outputs:
            resolve_port(inst[next(iter(inst.module.outputs))]) \
                if inst.module.outputs else _flatten_scope(
                    inst.module, prefix + inst.name + ".",
                    {inst.module.inputs[n]: resolve(b)
                     for n, b in inst.bindings.items()},
                    flat)

    return resolved_outputs
