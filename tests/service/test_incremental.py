"""Incremental driver: warm-cache identity, exact invalidation cones."""

import pytest

from repro import analyze_program
from repro.frontend import compile_c
from repro.ir.instructions import Nop
from repro.ir.program import Procedure, Program
from repro.service import AnalysisService, IncrementalSession, ServiceConfig
from repro.typegen import ExternSignature

# A call DAG with a diamond and an unrelated component:
#
#   main -> helper -> leaf        (chain)
#   main -> other                 (second callee)
#   standalone                    (independent)
SOURCE = """
struct box { int value; int fd; };

int leaf(const struct box * b) {
    return b->value;
}

int helper(const struct box * b) {
    return leaf(b) + 1;
}

int other(int x) {
    return x * 2;
}

int main_entry(struct box * b, int x) {
    return helper(b) + other(x);
}

int standalone(int a, int b) {
    return a - b;
}
"""


def _program():
    return compile_c(SOURCE).program


def _edit(program, name):
    """A copy of ``program`` with one appended nop in procedure ``name``."""
    edited = Program(
        procedures=dict(program.procedures),
        externs=set(program.externs),
        globals=dict(program.globals),
    )
    victim = edited.procedures[name]
    edited.procedures[name] = Procedure(
        name=name, instructions=list(victim.instructions) + [Nop()]
    )
    return edited


def test_warm_cache_zero_solves_and_identical_output():
    program = _program()
    baseline = analyze_program(program)

    service = AnalysisService()
    cold = service.analyze(program)
    warm = service.analyze(program)

    assert cold.stats["sccs_solved"] == cold.stats["scc_count"]
    assert warm.stats["sccs_solved"] == 0
    assert warm.stats["sccs_cached"] == warm.stats["scc_count"]

    # String-equal signatures across plain pipeline, cold service, warm service.
    for name in baseline.functions:
        assert cold.signature(name) == baseline.signature(name)
        assert warm.signature(name) == baseline.signature(name)
    assert cold.report() == baseline.report()
    assert warm.report() == baseline.report()
    # Schemes survive the serialization round trip verbatim.
    for name in baseline.functions:
        assert str(warm.scheme(name)) == str(baseline.scheme(name))


def test_editing_one_procedure_resolves_exactly_its_cone():
    program = _program()
    session = IncrementalSession(AnalysisService())
    session.analyze(program)

    edited = _edit(program, "helper")
    types = session.analyze(edited)

    # helper changed: helper itself and its transitive caller must re-solve;
    # leaf, other and standalone must come from the cache.
    assert types.stats["invalidated_procedures"] == ["helper", "main_entry"]
    assert types.stats["solved_procedures"] == ["helper", "main_entry"]
    assert set(types.stats["cached_procedures"]) == {"leaf", "other", "standalone"}

    # Editing the root only re-solves the root.
    edited2 = _edit(edited, "main_entry")
    types2 = session.analyze(edited2)
    assert types2.stats["solved_procedures"] == ["main_entry"]

    # Editing the leaf re-solves the whole chain but not the bystanders.
    edited3 = _edit(edited2, "leaf")
    types3 = session.analyze(edited3)
    assert types3.stats["invalidated_procedures"] == ["helper", "leaf", "main_entry"]
    assert types3.stats["solved_procedures"] == ["helper", "leaf", "main_entry"]
    assert set(types3.stats["cached_procedures"]) == {"other", "standalone"}


def test_incremental_results_match_cold_analysis_of_edited_program():
    program = _program()
    session = IncrementalSession(AnalysisService())
    session.analyze(program)

    edited = _edit(program, "helper")
    incremental = session.analyze(edited)
    cold = analyze_program(edited)

    assert incremental.report() == cold.report()
    for name in cold.functions:
        assert incremental.signature(name) == cold.signature(name)
        assert str(incremental.scheme(name)) == str(cold.scheme(name))


def test_recursive_scc_is_cached_as_a_unit():
    source = """
    struct LL { struct LL * next; int handle; };

    int walk(const struct LL * node) {
        if (node == NULL) {
            return 0;
        }
        return 1 + walk(node->next);
    }

    int use(const struct LL * head) {
        return walk(head);
    }
    """
    program = compile_c(source).program
    service = AnalysisService()
    cold = service.analyze(program)
    warm = service.analyze(program)
    assert warm.stats["sccs_solved"] == 0
    assert warm.report() == cold.report()


def test_disk_backed_store_warm_across_services(tmp_path):
    program = _program()
    cold_service = AnalysisService(ServiceConfig(cache_dir=str(tmp_path)))
    cold = cold_service.analyze(program)

    # A brand-new service (fresh memory tier) warm-starts from disk.
    warm_service = AnalysisService(ServiceConfig(cache_dir=str(tmp_path)))
    warm = warm_service.analyze(program)
    assert warm.stats["sccs_solved"] == 0
    assert warm.report() == cold.report()


def test_incremental_session_requires_store():
    with pytest.raises(ValueError):
        IncrementalSession(AnalysisService(ServiceConfig(use_cache=False)))


def test_stage_timings_flow_through_service():
    """Cold analyses carry a per-stage SolveStats record; warm ones report zero work."""
    program = _program()
    service = AnalysisService()
    cold = service.analyze(program)

    stage = cold.stage_seconds
    assert stage["sccs_timed"] == cold.stats["scc_count"]
    assert stage["total_seconds"] == pytest.approx(
        stage["graph_seconds"]
        + stage["saturate_seconds"]
        + stage["simplify_seconds"]
        + stage["sketch_seconds"]
    )
    assert stage["sketch_seconds"] > 0.0
    assert stage["graph_nodes"] > 0 and stage["graph_edges"] > 0

    warm = service.analyze(program)
    warm_stage = warm.stage_seconds
    assert warm_stage["sccs_timed"] == 0
    assert warm_stage["total_seconds"] == 0.0


def test_stage_timings_cover_only_the_invalidation_cone():
    """After an edit, stage counters reflect the re-solved SCCs, not the program."""
    program = _program()
    session = IncrementalSession()
    session.analyze(program)

    edited = _edit(program, "other")  # invalidates other + main_entry only
    types = session.analyze(edited)
    stage = types.stage_seconds
    assert stage["sccs_timed"] == types.stats["sccs_solved"]
    assert 0 < stage["sccs_timed"] < types.stats["scc_count"]


def test_analyze_program_accepts_service_objects():
    program = _program()
    baseline = analyze_program(program)

    service = AnalysisService()
    analyze_program(program, service=service)
    warm = analyze_program(program, service=service)
    assert warm.stats["sccs_solved"] == 0
    assert warm.report() == baseline.report()

    configured = analyze_program(program, service=ServiceConfig(executor="auto", use_cache=False))
    assert configured.report() == baseline.report()


def test_extern_table_edit_reaches_the_solver():
    """Solving reads the live extern table, as the summary keys already do.

    A session over the service reuses a caller's typing input only while the
    extern's calling convention is unchanged: its scheme is read at solve
    time, but its stack parameters shape the generated constraints.
    """
    from repro.gen import result_fingerprint

    asm = """
    f:
        call getfd
        ret

    g:
        mov eax, [esp+4]
        push eax
        call getfd
        add esp, 4
        ret
    """
    service = AnalysisService()
    session = IncrementalSession(service)
    assert service.analyze(asm).signature("f") == "int f(void);"
    assert session.analyze(asm).signature("f") == "int f(void);"
    service.extern_table["getfd"] = ExternSignature(
        "getfd", 0, constraints=("#FileDescriptor <= getfd.out_eax",)
    )
    fresh = AnalysisService(externs=service.extern_table)
    assert fresh.analyze(asm).signature("f") == "#FileDescriptor f(void);"
    assert service.analyze(asm).signature("f") == "#FileDescriptor f(void);"
    # Unknown -> known with the same calling convention: a new callee key.
    types = session.analyze(asm)
    assert types.signature("f") == "#FileDescriptor f(void);"
    assert types.stats["reused_procedures"] == 0
    assert result_fingerprint(types) == _cold_fingerprint(asm, externs=service.extern_table)

    # Only the scheme changes: the input is reused, the solve is not stale.
    service.extern_table["getfd"] = ExternSignature(
        "getfd", 0, constraints=("#SuccessZ <= getfd.out_eax",)
    )
    types = session.analyze(asm)
    assert types.stats["reused_procedures"] == 2
    assert types.signature("f") == "#SuccessZ f(void);"
    assert result_fingerprint(types) == _cold_fingerprint(asm, externs=service.extern_table)

    # One stack parameter: g's argument now flows into the callee.
    service.extern_table["getfd"] = ExternSignature(
        "getfd",
        1,
        constraints=("getfd.in_stack0 <= #FileDescriptor", "#SuccessZ <= getfd.out_eax"),
    )
    types = session.analyze(asm)
    assert types.stats["reused_procedures"] == 0
    assert types.signature("g") == "#SuccessZ g(#FileDescriptor arg_stack0);"
    assert result_fingerprint(types) == _cold_fingerprint(asm, externs=service.extern_table)


# -- front-end reuse across session versions -----------------------------------

CALLEE_ASM = """
.extern close

leaf:
    mov eax, [esp+4]
    ret

caller:
    mov eax, [esp+8]
    push eax
    push 1
    call leaf
    add esp, 8
    ret

bystander:
    mov eax, [esp+4]
    add eax, 1
    ret
"""

# leaf now reads a second stack argument and closes it: its interface
# changes while the text of ``caller``, which passes that argument, does not.
WIDER_LEAF_ASM = CALLEE_ASM.replace(
    "leaf:\n    mov eax, [esp+4]\n",
    "leaf:\n    mov ecx, [esp+8]\n    push ecx\n    call close\n    add esp, 4\n"
    "    mov eax, [esp+4]\n",
)


def _cold_fingerprint(source, **service_kwargs):
    from repro.gen import result_fingerprint

    return result_fingerprint(
        analyze_program(source, service=AnalysisService(**service_kwargs))
    )


def _count_reaching_definitions(monkeypatch):
    """Record the procedure of every reaching-definitions pass typegen runs."""
    from repro.typegen import abstract_interp

    seen = []
    original = abstract_interp.analyze_reaching_definitions

    def counting(procedure):
        seen.append(procedure.name)
        return original(procedure)

    monkeypatch.setattr(abstract_interp, "analyze_reaching_definitions", counting)
    return seen


def test_session_hashes_each_procedure_once_per_analyze(monkeypatch):
    from repro.service import incremental

    calls = []
    original = incremental.program_fingerprints

    def counting(program):
        calls.append(program)
        return original(program)

    monkeypatch.setattr(incremental, "program_fingerprints", counting)
    program = _program()
    session = IncrementalSession(AnalysisService())
    session.analyze(program)
    assert len(calls) == 1
    session.analyze(_edit(program, "helper"))
    assert len(calls) == 2


def test_callee_interface_change_regenerates_unchanged_caller(monkeypatch):
    from repro.gen import result_fingerprint

    session = IncrementalSession(AnalysisService())
    first = session.analyze(CALLEE_ASM)
    assert first.signature("caller") == "int caller(int arg_stack4);"
    assert first.stats["reused_procedures"] == 0

    seen = _count_reaching_definitions(monkeypatch)
    types = session.analyze(WIDER_LEAF_ASM)
    # caller's text is unchanged but its callee key is not: it runs its one
    # dataflow pass and gets a fresh input; only bystander is reused.
    assert sorted(seen) == ["caller", "leaf"]
    assert types.stats["reused_procedures"] == 1
    assert types.signature("caller") == "int caller(#FileDescriptor arg_stack4);"
    assert result_fingerprint(types) == _cold_fingerprint(WIDER_LEAF_ASM)


def test_deleting_a_callee_regenerates_its_callers(monkeypatch):
    from repro.gen import result_fingerprint

    program = compile_c(SOURCE).program
    session = IncrementalSession(AnalysisService())
    session.analyze(program)

    trimmed = Program(
        procedures={n: p for n, p in program.procedures.items() if n != "leaf"},
        externs=set(program.externs),
        globals=dict(program.globals),
    )
    seen = _count_reaching_definitions(monkeypatch)
    types = session.analyze(trimmed)
    assert seen == ["helper"]
    assert types.stats["reused_procedures"] == len(trimmed.procedures) - 1
    assert types.stats["invalidated_procedures"] == ["helper", "main_entry"]
    assert result_fingerprint(types) == _cold_fingerprint(trimmed)


def test_reaching_definitions_run_only_for_changed_procedures(monkeypatch):
    from repro.gen import result_fingerprint

    program = _program()
    assert analyze_program(program).stats["reused_procedures"] == 0
    session = IncrementalSession(AnalysisService())
    session.analyze(program)

    seen = _count_reaching_definitions(monkeypatch)
    same = session.analyze(program)
    assert seen == []
    assert same.stats["reused_procedures"] == len(program.procedures)

    edited = _edit(program, "helper")
    types = session.analyze(edited)
    assert seen == ["helper"]
    assert types.stats["reused_procedures"] == len(program.procedures) - 1
    assert result_fingerprint(types) == _cold_fingerprint(edited)
