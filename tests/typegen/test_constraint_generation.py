"""Unit tests for constraint generation (the Appendix A abstract interpreter) and extern schemes."""

import json

import pytest

from repro import analyze_program
from repro.core import SolverConfig, parse_dtv
from repro.ir import parse_program
from repro.typegen import abstract_interp
from repro.typegen import (
    ExternSignature,
    STANDARD_EXTERNS,
    extern_schemes,
    generate_program_constraints,
    standard_externs,
)


def _constraints_for(asm, name):
    program = parse_program(asm)
    return generate_program_constraints(program)[name]


def test_value_copy_generates_subtype_constraint():
    proc = _constraints_for(
        """
        f:
            mov eax, [esp+4]
            mov ebx, eax
            ret
        """,
        "f",
    )
    texts = {str(c) for c in proc.constraints}
    assert any("f.in_stack0 <=" in t for t in texts)
    assert any("ebx" in t for t in texts)


def test_load_generates_dot_load_sigma():
    proc = _constraints_for(
        """
        f:
            mov ecx, [esp+4]
            mov eax, [ecx+8]
            ret
        """,
        "f",
    )
    texts = " ".join(str(c) for c in proc.constraints)
    assert ".load.sigma32@8" in texts


def test_store_generates_dot_store_sigma():
    proc = _constraints_for(
        """
        f:
            mov ecx, [esp+4]
            mov eax, [esp+8]
            mov [ecx+4], eax
            ret
        """,
        "f",
    )
    texts = " ".join(str(c) for c in proc.constraints)
    assert ".store.sigma32@4" in texts


def test_constant_offset_tracking():
    """add reg, imm is tracked as a pointer offset, not a value copy (section A.2)."""
    proc = _constraints_for(
        """
        f:
            mov ecx, [esp+4]
            add ecx, 12
            mov eax, [ecx]
            ret
        """,
        "f",
    )
    texts = " ".join(str(c) for c in proc.constraints)
    assert ".load.sigma32@12" in texts


def test_xor_zero_is_not_a_typed_value():
    proc = _constraints_for(
        """
        f:
            xor eax, eax
            push eax
            call malloc
            add esp, 4
            ret
        """,
        "f",
    )
    # the pushed zero flows to malloc's size parameter but carries no type of
    # its own: no constraint should relate the xor'd eax to anything else.
    texts = [str(c) for c in proc.constraints]
    assert not any("eax@0" in t and "<=" in t and "in_stack0" in t for t in texts)


def test_callsites_are_tagged_per_instruction():
    proc = _constraints_for(
        """
        f:
            push 4
            call malloc
            add esp, 4
            push 8
            call malloc
            add esp, 4
            ret
        """,
        "f",
    )
    bases = {c.callee for c in proc.callsites}
    assert bases == {"malloc"}
    assert len({c.base for c in proc.callsites}) == 2, "each callsite gets its own instance"


def test_register_parameter_actuals():
    program = parse_program(
        """
        callee:
            mov eax, ecx
            ret

        caller:
            mov ecx, [esp+4]
            call callee
            ret
        """
    )
    inputs = generate_program_constraints(program)
    assert str(inputs["callee"].formal_ins[0]) == "callee.in_ecx"
    texts = " ".join(str(c) for c in inputs["caller"].constraints)
    assert ".in_ecx" in texts


def test_return_value_constraint():
    proc = _constraints_for(
        """
        f:
            mov eax, [esp+4]
            ret
        """,
        "f",
    )
    texts = {str(c) for c in proc.constraints}
    assert any("<= f.out_eax" in t for t in texts)


def test_additive_constraint_for_register_addition():
    proc = _constraints_for(
        """
        f:
            mov eax, [esp+4]
            mov ebx, [esp+8]
            add eax, ebx
            ret
        """,
        "f",
    )
    assert len(proc.constraints.additive) == 1


def test_globals_get_shared_variables():
    program = parse_program(
        """
        .global_var counter 4

        bump:
            mov eax, [g_counter]
            add eax, 1
            mov [g_counter], eax
            ret
        """
    )
    proc = generate_program_constraints(program)["bump"]
    texts = " ".join(str(c) for c in proc.constraints)
    assert "g_counter" in texts


# -- extern schemes ---------------------------------------------------------------------------


def test_standard_externs_cover_figure2_functions():
    externs = standard_externs()
    for name in ("malloc", "free", "memcpy", "close", "open", "fopen", "fclose"):
        assert name in externs


def test_extern_schemes_parse_and_name_formals():
    schemes = extern_schemes()
    close = schemes["close"]
    assert str(close.formal_ins[0]) == "close.in_stack0"
    assert str(close.formal_outs[0]) == "close.out_eax"
    assert len(close.constraints) >= 3


def test_malloc_is_polymorphic():
    """malloc's scheme must not constrain its return type (section 2.2)."""
    scheme = extern_schemes()["malloc"]
    for constraint in scheme.constraints:
        assert "out_eax" not in str(constraint)


def test_memcpy_relates_source_and_destination():
    scheme = extern_schemes()["memcpy"]
    texts = {str(c) for c in scheme.constraints}
    assert any(".load" in t and ".store" in t for t in texts)


def test_extern_signature_scheme_instantiation():
    signature = ExternSignature(
        name="mygetter", stack_params=1, constraints=("mygetter.in_stack0.load.sigma32@0 <= int",)
    )
    scheme = signature.scheme
    assert signature.scheme is scheme  # parsed once per signature
    instantiated = scheme.instantiate_as("mygetter$7")
    assert any("mygetter$7" in str(c) for c in instantiated)


def test_reaching_definitions_run_once_per_procedure(monkeypatch):
    """Interface discovery and the generator share one dataflow pass."""
    from repro.ir import locators

    calls = []
    real = abstract_interp.analyze_reaching_definitions

    def counting(procedure):
        calls.append(procedure.name)
        return real(procedure)

    monkeypatch.setattr(abstract_interp, "analyze_reaching_definitions", counting)
    monkeypatch.setattr(locators, "analyze_reaching_definitions", counting)
    program = parse_program(
        """
        leaf:
            mov eax, [esp+4]
            ret
        caller:
            push dword [esp+4]
            call leaf
            add esp, 4
            ret
        """
    )
    inputs = generate_program_constraints(program)
    assert sorted(calls) == sorted(program.procedures) == sorted(inputs)


EXTERN_CALLER_ASM = """
.extern malloc
.extern memcpy
.extern close

copy_and_close:
    push 16
    call malloc
    add esp, 4
    mov ecx, [esp+4]
    push 16
    push ecx
    push eax
    call memcpy
    add esp, 12
    mov edx, [esp+8]
    push edx
    call close
    add esp, 4
    ret
"""


@pytest.mark.parametrize("polymorphic", [True, False])
def test_analysis_leaves_shared_extern_schemes_unchanged(polymorphic):
    """Every solver shares the signatures' parsed schemes; none may mutate them."""
    names = ("malloc", "memcpy", "close")
    before = {name: json.dumps(STANDARD_EXTERNS[name].scheme.to_json()) for name in names}
    types = analyze_program(EXTERN_CALLER_ASM, config=SolverConfig(polymorphic=polymorphic))
    assert types["copy_and_close"].function_type.params
    assert extern_schemes(standard_externs())["close"] is STANDARD_EXTERNS["close"].scheme
    for name in names:
        assert json.dumps(STANDARD_EXTERNS[name].scheme.to_json()) == before[name]
