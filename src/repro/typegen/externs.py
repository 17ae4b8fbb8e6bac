"""Type schemes for well-known external (library) functions.

Pre-computed type schemes for externally linked functions are inserted during
the bottom-up constraint generation phase (section 4.2, Appendix A.4).  Many of
them are genuinely polymorphic (section 2.2): ``malloc`` returns a pointer of
*some* type, ``free`` accepts a pointer of any type, ``memcpy`` relates its two
pointer arguments.  Encoding them as schemes -- rather than as fixed C
signatures -- is exactly what lets Retypd type user-defined allocator wrappers
without per-callsite special cases.

Semantic tags such as ``#FileDescriptor`` and ``#SuccessZ`` are seeded here and
propagate through the program during inference (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.constraints import ConstraintSet, parse_constraint
from ..core.lattice import TypeLattice, default_lattice
from ..core.schemes import TypeScheme
from ..core.variables import DerivedTypeVariable
from ..core.labels import InLabel, OutLabel


@dataclass(frozen=True)
class ExternSignature:
    """Calling-convention facts plus the type scheme of a library function.

    :attr:`scheme` is parsed on first use and cached; the dataclass is frozen
    so no field can change under the cached scheme.  Every solver (and every
    server thread) using this signature shares that one scheme, which nothing
    mutates; two threads racing on first use can only parse it twice.
    """

    name: str
    stack_params: int = 0
    has_return: bool = True
    variadic: bool = False
    constraints: Tuple[str, ...] = ()
    quantified: Tuple[str, ...] = ()

    @property
    def input_locations(self) -> List[str]:
        return [f"stack{4 * j}" for j in range(self.stack_params)]

    @cached_property
    def scheme(self) -> TypeScheme:
        constraint_set = ConstraintSet()
        for text in self.constraints:
            constraint_set.add(parse_constraint(text))
        formal_ins = tuple(
            DerivedTypeVariable(self.name, (InLabel(loc),)) for loc in self.input_locations
        )
        formal_outs = (
            (DerivedTypeVariable(self.name, (OutLabel("eax"),)),) if self.has_return else ()
        )
        return TypeScheme(
            proc=self.name,
            constraints=constraint_set,
            quantified=frozenset(self.quantified),
            formal_ins=formal_ins,
            formal_outs=formal_outs,
        )


def _sig(
    name: str,
    stack_params: int,
    has_return: bool = True,
    constraints: Sequence[str] = (),
    quantified: Sequence[str] = (),
    variadic: bool = False,
) -> ExternSignature:
    return ExternSignature(
        name=name,
        stack_params=stack_params,
        has_return=has_return,
        variadic=variadic,
        constraints=tuple(constraints),
        quantified=tuple(quantified),
    )


#: The standard library modelled by the reproduction.  Constraints are written
#: in the textual constraint syntax over the function's own derived variables.
STANDARD_EXTERNS: Dict[str, ExternSignature] = {
    sig.name: sig
    for sig in [
        # -- allocation: polymorphic (section 2.2) --------------------------------
        _sig("malloc", 1, constraints=["malloc.in_stack0 <= size_t"]),
        _sig("calloc", 2, constraints=["calloc.in_stack0 <= size_t", "calloc.in_stack4 <= size_t"]),
        _sig(
            "realloc",
            2,
            constraints=["realloc.in_stack4 <= size_t", "realloc.in_stack0 <= realloc.out_eax"],
        ),
        _sig("free", 1, has_return=False, constraints=[]),
        # -- memory/string ----------------------------------------------------------
        _sig(
            "memcpy",
            3,
            constraints=[
                # What can be loaded from the source can be stored to the
                # destination; no claim is made about the element type itself.
                "memcpy.in_stack4.load <= memcpy.in_stack0.store",
                "memcpy.in_stack8 <= size_t",
                "memcpy.in_stack0 <= memcpy.out_eax",
            ],
        ),
        _sig(
            "memset",
            3,
            constraints=[
                "memset.in_stack0.store <= TOP",
                "memset.in_stack4 <= int",
                "memset.in_stack8 <= size_t",
                "memset.in_stack0 <= memset.out_eax",
            ],
        ),
        _sig(
            "strlen",
            1,
            constraints=["strlen.in_stack0.load.sigma8@0 <= char", "size_t <= strlen.out_eax"],
        ),
        _sig(
            "strcpy",
            2,
            constraints=[
                "strcpy.in_stack4.load.sigma8@0 <= char",
                "char <= strcpy.in_stack0.store.sigma8@0",
                "strcpy.in_stack0 <= strcpy.out_eax",
            ],
        ),
        _sig(
            "strcmp",
            2,
            constraints=[
                "strcmp.in_stack0.load.sigma8@0 <= char",
                "strcmp.in_stack4.load.sigma8@0 <= char",
                "int <= strcmp.out_eax",
            ],
        ),
        _sig(
            "strdup",
            1,
            constraints=[
                "strdup.in_stack0.load.sigma8@0 <= char",
                "char <= strdup.out_eax.load.sigma8@0",
            ],
        ),
        # -- stdio -------------------------------------------------------------------
        _sig(
            "fopen",
            2,
            constraints=[
                "fopen.in_stack0.load.sigma8@0 <= char",
                "fopen.in_stack4.load.sigma8@0 <= char",
                "FILE <= fopen.out_eax.load.sigma32@0",
            ],
        ),
        _sig(
            "fclose",
            1,
            constraints=[
                "fclose.in_stack0.load.sigma32@0 <= FILE",
                "int <= fclose.out_eax",
                "#SuccessZ <= fclose.out_eax",
            ],
        ),
        _sig(
            "fread",
            4,
            constraints=[
                "fread.in_stack0.store <= TOP",
                "fread.in_stack4 <= size_t",
                "fread.in_stack8 <= size_t",
                "fread.in_stack12.load.sigma32@0 <= FILE",
                "size_t <= fread.out_eax",
            ],
        ),
        _sig(
            "fwrite",
            4,
            constraints=[
                "fwrite.in_stack0.load <= TOP",
                "fwrite.in_stack4 <= size_t",
                "fwrite.in_stack8 <= size_t",
                "fwrite.in_stack12.load.sigma32@0 <= FILE",
                "size_t <= fwrite.out_eax",
            ],
        ),
        _sig(
            "printf",
            1,
            variadic=True,
            constraints=["printf.in_stack0.load.sigma8@0 <= char", "int <= printf.out_eax"],
        ),
        _sig(
            "puts",
            1,
            constraints=["puts.in_stack0.load.sigma8@0 <= char", "int <= puts.out_eax"],
        ),
        # -- POSIX file descriptors (the Figure 2 tags) ----------------------------------
        _sig(
            "open",
            2,
            constraints=[
                "open.in_stack0.load.sigma8@0 <= char",
                "open.in_stack4 <= int",
                "int <= open.out_eax",
                "#FileDescriptor <= open.out_eax",
            ],
        ),
        _sig(
            "close",
            1,
            constraints=[
                "close.in_stack0 <= int",
                "close.in_stack0 <= #FileDescriptor",
                "int <= close.out_eax",
                "#SuccessZ <= close.out_eax",
            ],
        ),
        _sig(
            "read",
            3,
            constraints=[
                "read.in_stack0 <= int",
                "read.in_stack0 <= #FileDescriptor",
                "read.in_stack4.store <= TOP",
                "read.in_stack8 <= size_t",
                "ssize_t <= read.out_eax",
            ],
        ),
        _sig(
            "write",
            3,
            constraints=[
                "write.in_stack0 <= int",
                "write.in_stack0 <= #FileDescriptor",
                "write.in_stack4.load <= TOP",
                "write.in_stack8 <= size_t",
                "ssize_t <= write.out_eax",
            ],
        ),
        _sig(
            "signal",
            2,
            constraints=[
                "signal.in_stack0 <= int",
                "signal.in_stack0 <= #signal-number",
            ],
        ),
        _sig(
            "socket",
            3,
            constraints=[
                "socket.in_stack0 <= int",
                "socket.in_stack4 <= int",
                "socket.in_stack8 <= int",
                "SOCKET <= socket.out_eax",
            ],
        ),
        _sig("exit", 1, has_return=False, constraints=["exit.in_stack0 <= int"]),
        _sig("abort", 0, has_return=False),
        _sig(
            "atoi",
            1,
            constraints=["atoi.in_stack0.load.sigma8@0 <= char", "int <= atoi.out_eax"],
        ),
        _sig("rand", 0, constraints=["int <= rand.out_eax"]),
    ]
}


def standard_externs() -> Dict[str, ExternSignature]:
    """A fresh copy of the standard extern table (callers may extend it)."""
    return dict(STANDARD_EXTERNS)


def extern_schemes(
    externs: Optional[Dict[str, ExternSignature]] = None,
) -> Dict[str, TypeScheme]:
    """Type schemes for the solver, keyed by function name."""
    table = externs if externs is not None else STANDARD_EXTERNS
    return {name: signature.scheme for name, signature in table.items()}


def ensure_lattice_tags(lattice: TypeLattice) -> TypeLattice:
    """Make sure every tag used by the extern schemes exists in the lattice."""
    for tag, parent in [
        ("#FileDescriptor", "int"),
        ("#SuccessZ", "int"),
        ("#signal-number", "int"),
        ("FILE", None),
        ("size_t", "uint"),
        ("ssize_t", "int"),
        ("SOCKET", "uint"),
    ]:
        if tag not in lattice:
            lattice.add_element(tag, [parent] if parent else [])
    return lattice
