"""Seeded inputs: generated mini-C programs compiled to asm text.

Every input comes from :mod:`repro.gen` with a seed derived from the
workload seed, so one ``--seed`` always gives the same inputs.  The program
under test only ever sees the asm (``str(program)``), the system's real
input; the generator's answer keys stay on the benchmark's side for scoring.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List

from repro.frontend import compile_c
from repro.gen import EDIT_STATEMENT, GeneratedProgram, GenProfile, generate_edit, generate_program


@dataclass
class Input:
    """One program as the benchmark hands it to the system."""

    name: str
    profile: str
    asm: str
    instructions: int
    generated: GeneratedProgram


def make_input(seed: int, profile: str, name: str) -> Input:
    generated = generate_program(seed, getattr(GenProfile, profile)(), name=name)
    program = generated.compile().program
    return Input(name, profile, str(program), program.instruction_count, generated)


def corpus(
    seed: int, count: int, stress_every: int = 0, tag: str = "p", tick=None
) -> List[Input]:
    """``count`` programs; every ``stress_every``-th is a stress-profile one.

    ``tick``, if given, is called after each program is made.
    """
    out = []
    for index in range(count):
        stress = stress_every and index % stress_every == stress_every - 1
        out.append(
            make_input(
                seed * 1_000_003 + index,
                "stress" if stress else "default",
                f"{tag}{seed}_{index}",
            )
        )
        if tick is not None:
            tick()
    return out


def describe(items: List[Input]) -> Dict[str, object]:
    """The recorded shape of a set of inputs."""
    stress = sum(1 for item in items if item.profile == "stress")
    return {
        "programs": len(items),
        "instructions": sum(item.instructions for item in items),
        "profile_mix": {"default": len(items) - stress, "stress": stress},
    }


class EditStream:
    """Successive one-function edits of one base program.

    Each version is :func:`repro.gen.generate_edit` applied to the previous
    version, so edits accumulate and every version is new content: the
    edited function's SCC and its callers are re-solved each time, as when
    a developer keeps editing one program.
    """

    def __init__(self, base: Input, seed: int) -> None:
        self.base = base
        self.seed = seed
        self.current = base.generated
        self.count = 0

    def next_asm(self) -> Input:
        edit = generate_edit(self.current, edit_seed=self.seed * 7919 + self.count)
        blocks = list(self.current._blocks)
        index = next(i for i, (name, _) in enumerate(blocks) if name == edit.function)
        text = blocks[index][1]
        cut = text.index("\n", text.index("{")) + 1
        blocks[index] = (edit.function, text[:cut] + EDIT_STATEMENT + "\n" + text[cut:])
        if blocks[index][1] not in edit.source:
            raise AssertionError("edit stream lost track of the generator's edit")
        self.current = dataclasses.replace(
            self.current, source=edit.source, _blocks=blocks, _compiled=None
        )
        self.count += 1
        program = compile_c(edit.source).program
        return Input(
            f"{self.base.name}~{self.count}", self.base.profile, str(program),
            program.instruction_count, self.current,
        )
