"""Wave scheduler: levelling invariants, executor strategies, determinism."""

import pytest

import repro.__main__ as repro_cli
import repro.server.__main__ as server_cli
from repro.ir.asmparser import parse_program
from repro.ir.callgraph import CallGraph
from repro.server import ServerConfig, TypeQueryServer
from repro.service import AnalysisService, ServiceConfig, WaveScheduler, choose_executor
from repro.service.scheduler import EXECUTORS, ScheduleStats


def _asm_diamond():
    return parse_program(
        """
        leaf1:
            mov eax, [esp+4]
            ret
        leaf2:
            mov eax, [esp+4]
            ret
        mid1:
            mov eax, [esp+4]
            push eax
            call leaf1
            add esp, 4
            ret
        mid2:
            mov eax, [esp+4]
            push eax
            call leaf2
            add esp, 4
            ret
        top:
            mov eax, [esp+4]
            push eax
            call mid1
            add esp, 4
            push eax
            call mid2
            add esp, 4
            ret
        """
    )


def test_wave_levelling_respects_dependencies():
    graph = CallGraph.from_program(_asm_diamond())
    waves = graph.scc_waves()
    wave_of = {}
    for level, wave in enumerate(waves):
        for scc in wave:
            for name in scc:
                wave_of[name] = level
    # Every callee strictly below its caller.
    for caller, callees in graph.edges.items():
        for callee in callees:
            assert wave_of[callee] < wave_of[caller]
    assert wave_of["leaf1"] == wave_of["leaf2"] == 0
    assert wave_of["mid1"] == wave_of["mid2"] == 1
    assert wave_of["top"] == 2
    assert [len(w) for w in waves] == [2, 2, 1]


def test_wave_levelling_handles_cycles():
    program = parse_program(
        """
        a:
            call b
            ret
        b:
            call a
            ret
        c:
            call a
            ret
        """
    )
    graph = CallGraph.from_program(program)
    waves = graph.scc_waves()
    assert [sorted(scc) for scc in waves[0]] == [["a", "b"]]
    assert waves[1] == [["c"]]


class _ReversedRunner:
    """A fake process runner: solves a wave's SCCs in reverse order."""

    def __init__(self):
        self.waves = []

    def solve_wave(self, wave, fallback):
        self.waves.append([list(scc) for scc in wave])
        done = {tuple(scc): fallback(scc) for scc in reversed(wave)}
        return [(scc, done[tuple(scc)], 0.0) for scc in wave]


def test_scheduler_is_deterministic_and_parallel_safe():
    waves = [[["a"], ["b"], ["c"]], [["d"]]]

    def solve(scc):
        return {name: name.upper() for name in scc}

    serial, serial_stats = WaveScheduler().run(waves, solve)
    remote, remote_stats = WaveScheduler(executor="processes").run(
        waves, solve, remote=_ReversedRunner()
    )
    # Completion order does not leak: results merge in listed SCC order.
    assert [scc for scc, _ in serial] == [scc for scc, _ in remote]
    assert [r for _, r in serial] == [r for _, r in remote]
    assert serial_stats.wave_widths == remote_stats.wave_widths == [3, 1]
    assert serial_stats.executor == "serial" and remote_stats.executor == "processes"
    assert len(remote_stats.scc_seconds) == 4


def test_after_wave_runs_between_waves():
    waves = [[["a"], ["b"]], [["c"]]]
    published = []

    def solve(scc):
        # The second wave must observe the first wave's publication.
        if scc == ["c"]:
            assert set(published) == {"a", "b"}
        return scc[0]

    def publish(wave_results):
        published.extend(result for _, result in wave_results)

    runner = _ReversedRunner()
    WaveScheduler(executor="processes").run(waves, solve, publish, remote=runner)
    assert runner.waves == [[["a"], ["b"]]]
    assert published == ["a", "b", "c"]


def test_schedule_stats_shape():
    stats = ScheduleStats(wave_widths=[3, 2, 1], executor="processes")
    as_stats = stats.as_stats()
    assert as_stats["wave_count"] == 3
    assert as_stats["max_wave_width"] == 3
    assert abs(as_stats["mean_wave_width"] - 2.0) < 1e-9
    assert as_stats["executor"] == "processes"


def test_resolve_decides_auto_and_keeps_explicit_strategies():
    narrow = [[["a"], ["b"]], [["c"]]]
    wide = [[["p%d" % i] for i in range(32)]]
    assert WaveScheduler().resolve(wide) == "serial"
    assert WaveScheduler(executor="processes").resolve(narrow) == "processes"
    assert WaveScheduler(executor="auto").resolve(narrow) == "serial"
    assert WaveScheduler(executor="auto").resolve(wide) == choose_executor(wide)


def test_removed_executor_spellings_are_rejected():
    assert EXECUTORS == ("serial", "processes", "auto")
    # The threads executor: a ValueError naming every accepted executor.
    for make in (
        lambda: WaveScheduler(executor="threads"),
        lambda: AnalysisService(ServiceConfig(executor="threads")),
        lambda: TypeQueryServer(ServerConfig(backend="threads")),
    ):
        with pytest.raises(ValueError) as excinfo:
            make()
        for name in EXECUTORS:
            assert repr(name) in str(excinfo.value)
    # The legacy boolean spellings are gone from every config.
    with pytest.raises(TypeError):
        WaveScheduler(parallel=True)
    with pytest.raises(TypeError):
        ServiceConfig(parallel=True)
    with pytest.raises(TypeError):
        ServerConfig(parallel_waves=True)
    # Both CLIs refuse them at argument parsing (argparse exit code 2).
    for parse in (
        lambda: repro_cli.build_parser().parse_args(["analyze", "prog.s", "--backend", "threads"]),
        lambda: repro_cli.build_parser().parse_args(["gen", "--backends", "serial,threads"]),
        lambda: server_cli.build_parser().parse_args(["--backend", "threads"]),
        lambda: server_cli.build_parser().parse_args(["--parallel-waves"]),
    ):
        with pytest.raises(SystemExit) as excinfo:
            parse()
        assert excinfo.value.code == 2


def test_processes_without_a_remote_runner_degrades_to_serial():
    waves = [[["a"], ["b"]], [["c"]]]
    results, stats = WaveScheduler(executor="processes").run(
        waves, lambda scc: scc[0].upper()
    )
    assert [r for _, r in results] == ["A", "B", "C"]
    assert stats.executor == "serial"


def test_remote_runner_drives_wide_waves_and_requeue_counts_surface():
    class FakeRunner:
        def __init__(self):
            self.waves = []
            self.worker_failed = 2
            self.requeued_sccs = ["b"]

        def solve_wave(self, wave, fallback):
            self.waves.append([list(scc) for scc in wave])
            return [(scc, fallback(scc), 0.0) for scc in wave]

    runner = FakeRunner()
    waves = [[["a"], ["b"]], [["c"]]]
    results, stats = WaveScheduler(executor="processes").run(
        waves, lambda scc: scc[0].upper(), remote=runner
    )
    # Wide wave went to the runner; the single-SCC wave stayed in-process.
    assert runner.waves == [[["a"], ["b"]]]
    assert [r for _, r in results] == ["A", "B", "C"]
    assert stats.executor == "processes"
    assert stats.worker_failed == 2 and stats.requeued_sccs == ["b"]
