"""Reaching-definitions analysis for registers and stack slots.

Constraint generation (Appendix A) regains flow sensitivity by pairing the
type abstract interpretation with reaching definitions: every definition site
of a register or stack slot gets its own type variable, and a use generates
constraints from all reaching definitions (Example A.2).  This module computes
those reaching-definition sets at instruction granularity.

Tracked locations:

* every general-purpose register except ``esp``/``ebp`` (which are handled by
  the stack analysis), and
* every resolvable stack frame slot, identified by its offset relative to the
  entry ``esp``.

A definition is a pair ``(location, index)`` where ``index`` is the defining
instruction's position, or ``ENTRY`` (-1) for the value live on entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from .cfg import predecessors, successors
from .instructions import (
    WORD_SIZE,
    BinaryOp,
    Call,
    Compare,
    Imm,
    Instruction,
    Lea,
    Leave,
    Mem,
    Mov,
    Pop,
    Push,
    Reg,
    Ret,
)
from .program import Procedure
from .stackanalysis import StackState, analyze_stack, frame_offset

ENTRY = -1

#: A tracked location: a register name or a stack frame offset.
Location = Union[str, int]
Definition = Tuple[Location, int]

_TRACKED_REGISTERS = ("eax", "ebx", "ecx", "edx", "esi", "edi")


@dataclass
class ReachingDefinitions:
    """Result of the analysis: reaching-definition sets before each instruction."""

    procedure: Procedure
    stack_states: Dict[int, StackState]
    before: Dict[int, Dict[Location, FrozenSet[int]]]

    def reaching(self, index: int, location: Location) -> FrozenSet[int]:
        """Definition sites of ``location`` reaching instruction ``index``."""
        return self.before.get(index, {}).get(location, frozenset({ENTRY}))

    def state(self, index: int) -> StackState:
        return self.stack_states.get(index, StackState(None, None))


def definitions_of(
    instruction: Instruction, index: int, state: StackState
) -> Set[Location]:
    """Locations written by an instruction."""
    defs: Set[Location] = set()
    for register in instruction.register_defs():
        if register in _TRACKED_REGISTERS:
            defs.add(register)
    if isinstance(instruction, Mov) and isinstance(instruction.dst, Mem):
        offset = frame_offset(instruction.dst, state)
        if offset is not None:
            defs.add(offset)
    if isinstance(instruction, Push):
        if state.esp is not None:
            defs.add(state.esp - WORD_SIZE)
    return defs


def uses_of(
    instruction: Instruction, index: int, state: StackState
) -> Set[Location]:
    """Locations read by an instruction (registers and stack slots)."""
    uses: Set[Location] = set()
    for register in instruction.register_uses():
        if register in _TRACKED_REGISTERS:
            uses.add(register)
    for operand in _memory_operands_read(instruction):
        offset = frame_offset(operand, state)
        if offset is not None:
            uses.add(offset)
    return uses


def _memory_operands_read(instruction: Instruction) -> List[Mem]:
    read: List[Mem] = []
    if isinstance(instruction, Mov) and isinstance(instruction.src, Mem):
        read.append(instruction.src)
    if isinstance(instruction, Push) and isinstance(instruction.src, Mem):
        read.append(instruction.src)
    if isinstance(instruction, BinaryOp) and isinstance(instruction.src, Mem):
        read.append(instruction.src)
    if isinstance(instruction, Compare):
        for operand in (instruction.left, instruction.right):
            if isinstance(operand, Mem):
                read.append(operand)
    return read


def analyze_reaching_definitions(procedure: Procedure) -> ReachingDefinitions:
    """Forward may-analysis computing reaching definitions before each instruction."""
    stack_states = analyze_stack(procedure)
    succ_map = successors(procedure)
    count = len(procedure.instructions)

    before: Dict[int, Dict[Location, FrozenSet[int]]] = {}
    if count == 0:
        return ReachingDefinitions(procedure, stack_states, before)

    entry_env: Dict[Location, FrozenSet[int]] = {}
    before[0] = entry_env

    worklist: List[int] = [0]
    while worklist:
        index = worklist.pop()
        env = before.get(index, {})
        state = stack_states.get(index, StackState(None, None))
        instruction = procedure.instructions[index]
        out_env = dict(env)
        for location in definitions_of(instruction, index, state):
            out_env[location] = frozenset({index})
        for succ in succ_map.get(index, []):
            existing = before.get(succ)
            merged = _merge(existing, out_env)
            if existing is None or merged != existing:
                before[succ] = merged
                worklist.append(succ)
    return ReachingDefinitions(procedure, stack_states, before)


def _merge(
    existing: Optional[Dict[Location, FrozenSet[int]]],
    incoming: Dict[Location, FrozenSet[int]],
) -> Dict[Location, FrozenSet[int]]:
    if existing is None:
        return dict(incoming)
    merged = dict(existing)
    for location, defs in incoming.items():
        merged[location] = merged.get(location, frozenset()) | defs
    for location in existing:
        if location not in incoming:
            # The other path may leave the location at its entry value.
            merged[location] = merged[location] | frozenset({ENTRY})
    for location in incoming:
        if location not in existing:
            merged[location] = merged[location] | frozenset({ENTRY})
    return merged
