"""CallGraph: caller queries, SCC orders, invalidation cones, wave levelling."""

from repro.ir.asmparser import parse_program
from repro.ir.callgraph import CallGraph
from repro.typegen.abstract_interp import generate_program_constraints


def _chain_program():
    # main -> helper -> leaf, plus mutually recursive pair (ping/pong) called
    # by main, plus an isolated procedure.
    return parse_program(
        """
        leaf:
            mov eax, [esp+4]
            ret
        helper:
            mov eax, [esp+4]
            push eax
            call leaf
            add esp, 4
            ret
        ping:
            mov eax, [esp+4]
            push eax
            call pong
            add esp, 4
            ret
        pong:
            mov eax, [esp+4]
            push eax
            call ping
            add esp, 4
            ret
        main:
            mov eax, [esp+4]
            push eax
            call helper
            add esp, 4
            push eax
            call ping
            add esp, 4
            ret
        isolated:
            mov eax, 1
            ret
        """
    )


def test_callers_inverts_callees():
    graph = CallGraph.from_program(_chain_program())
    assert graph.callees("main") == {"helper", "ping"}
    assert graph.callers("leaf") == {"helper"}
    assert graph.callers("helper") == {"main"}
    assert graph.callers("ping") == {"pong", "main"}
    assert graph.callers("main") == set()
    assert graph.callers("isolated") == set()
    # Every callee edge has a matching caller edge and vice versa.
    for name in graph.edges:
        for callee in graph.callees(name):
            assert name in graph.callers(callee)


def test_sccs_bottom_up_put_callees_first():
    graph = CallGraph.from_program(_chain_program())
    bottom_up = graph.sccs_bottom_up()

    position = {}
    for index, scc in enumerate(bottom_up):
        for name in scc:
            position[name] = index
    # Bottom-up: every callee's SCC comes no later than its caller's.
    for caller, callees in graph.edges.items():
        for callee in callees:
            if position[callee] != position[caller]:
                assert position[callee] < position[caller]
    # The recursive pair is one component.
    recursive = next(scc for scc in bottom_up if set(scc) == {"ping", "pong"})
    assert len(recursive) == 2


def test_transitive_callers_cone():
    graph = CallGraph.from_program(_chain_program())
    assert graph.transitive_callers({"leaf"}) == {"leaf", "helper", "main"}
    assert graph.transitive_callers({"ping"}) == {"ping", "pong", "main"}
    assert graph.transitive_callers({"main"}) == {"main"}
    assert graph.transitive_callers({"isolated"}) == {"isolated"}
    assert graph.transitive_callers(set()) == set()


def test_scc_waves_level_the_condensation():
    graph = CallGraph.from_program(_chain_program())
    waves = graph.scc_waves()
    level = {}
    for depth, wave in enumerate(waves):
        for scc in wave:
            for name in scc:
                level[name] = depth
    # leaf, the ping/pong cycle and isolated have no defined callees: wave 0.
    assert level["leaf"] == 0
    assert level["ping"] == level["pong"] == 0
    assert level["isolated"] == 0
    assert level["helper"] == 1
    assert level["main"] == 2
    # Each wave only calls into strictly earlier waves.
    for caller, callees in graph.edges.items():
        for callee in callees:
            if level[callee] == level[caller]:
                # Only within one SCC (the recursive pair).
                assert {caller, callee} <= {"ping", "pong"}
            else:
                assert level[callee] < level[caller]
    # All procedures appear exactly once across the waves.
    flat = [name for wave in waves for scc in wave for name in scc]
    assert sorted(flat) == sorted(graph.edges)


def test_scc_waves_level_a_given_scc_list():
    graph = CallGraph.from_program(_chain_program())
    assert graph.scc_waves(graph.sccs_bottom_up()) == graph.scc_waves()


def test_one_analysis_runs_tarjan_once(monkeypatch):
    from repro import analyze_program
    from repro.ir import callgraph

    calls = []
    original = callgraph.tarjan_sccs

    def counting(edges):
        calls.append(edges)
        return original(edges)

    monkeypatch.setattr(callgraph, "tarjan_sccs", counting)
    analyze_program(_chain_program())
    assert len(calls) == 1


def test_callgraph_from_typing_inputs_matches_program_graph():
    program = _chain_program()
    inputs = generate_program_constraints(program)
    from_inputs = CallGraph.from_typing_inputs(inputs)
    from_program = CallGraph.from_program(program)
    assert from_inputs.edges == from_program.edges
