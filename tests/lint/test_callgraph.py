"""Unit tests for the project-wide call graph and execution contexts.

Covers entry-point discovery (threads, signals, process pools, handler
classes), context propagation along call edges, the conflict predicate,
and — per the issue checklist — a thread target passed by reference
through a local alias rather than named inline.
"""

import ast
from textwrap import dedent

from repro.lint.callgraph import CallGraph, conflict, conflicting_pair
from repro.lint.project import ProjectModel


def _graph(*items):
    """Build a CallGraph from ``(path, source)`` pairs."""
    return CallGraph(
        ProjectModel.from_sources(
            [(path, dedent(source)) for path, source in items]
        )
    )


def _entry_keys(graph, kind=None):
    return {e.key for e in graph.entries if kind is None or e.kind == kind}


class TestEntryDiscovery:
    def test_thread_target_method_is_an_entry(self):
        graph = _graph(
            (
                "src/repro/svc/worker.py",
                """
                import threading

                class Worker:
                    def start(self):
                        self._t = threading.Thread(target=self._loop)
                        self._t.start()

                    def _loop(self):
                        pass
                """,
            )
        )
        entries = [e for e in graph.entries if e.kind == "thread"]
        assert [e.key for e in entries] == ["repro.svc.worker:Worker._loop"]
        assert entries[0].via_self is True
        assert entries[0].label == "thread:repro.svc.worker:Worker._loop"

    def test_thread_target_passed_by_reference(self):
        # The target is bound to a local name first; resolution follows
        # the single-assignment alias back to the method.
        graph = _graph(
            (
                "src/repro/svc/worker.py",
                """
                import threading

                class Worker:
                    def start(self):
                        fn = self._loop
                        self._t = threading.Thread(target=fn)
                        self._t.start()

                    def _loop(self):
                        pass
                """,
            )
        )
        assert "repro.svc.worker:Worker._loop" in _entry_keys(graph, "thread")

    def test_module_level_thread_target(self):
        graph = _graph(
            (
                "src/repro/svc/bg.py",
                """
                import threading

                def pump():
                    pass

                def launch():
                    threading.Thread(target=pump, daemon=True).start()
                """,
            )
        )
        entries = [e for e in graph.entries if e.kind == "thread"]
        assert [e.key for e in entries] == ["repro.svc.bg:pump"]
        assert entries[0].via_self is False

    def test_signal_handler_is_an_entry(self):
        graph = _graph(
            (
                "src/repro/svc/sig.py",
                """
                import signal

                def _handler(signum, frame):
                    pass

                def install():
                    signal.signal(signal.SIGTERM, _handler)
                """,
            )
        )
        assert _entry_keys(graph, "signal") == {"repro.svc.sig:_handler"}

    def test_process_target_is_a_process_entry(self):
        graph = _graph(
            (
                "src/repro/svc/proc.py",
                """
                import multiprocessing

                def crunch():
                    pass

                def launch():
                    multiprocessing.Process(target=crunch).start()
                """,
            )
        )
        assert _entry_keys(graph, "process") == {"repro.svc.proc:crunch"}

    def test_pool_submit_is_a_thread_entry(self):
        graph = _graph(
            (
                "src/repro/svc/pool.py",
                """
                from concurrent.futures import ThreadPoolExecutor

                def task(x):
                    return x

                def run():
                    with ThreadPoolExecutor() as pool:
                        pool.submit(task, 1)
                """,
            )
        )
        assert "repro.svc.pool:task" in _entry_keys(graph, "thread")

    def test_handler_class_methods_are_thread_entries(self):
        graph = _graph(
            (
                "src/repro/svc/http.py",
                """
                from http.server import BaseHTTPRequestHandler

                class Api(BaseHTTPRequestHandler):
                    def do_GET(self):
                        self._respond()

                    def _respond(self):
                        pass
                """,
            )
        )
        assert "repro.svc.http:Api.do_GET" in _entry_keys(graph, "thread")

    def test_plain_function_is_not_an_entry(self):
        graph = _graph(
            (
                "src/repro/svc/plain.py",
                """
                def helper():
                    pass

                def main():
                    helper()
                """,
            )
        )
        assert graph.entries == []


class TestContexts:
    SOURCE = """
        import threading

        def shared():
            pass

        def worker_only():
            pass

        def _loop():
            worker_only()
            shared()

        def main():
            shared()
            threading.Thread(target=_loop).start()
    """

    def test_entry_function_carries_its_label(self):
        graph = _graph(("src/repro/svc/mod.py", self.SOURCE))
        assert "thread:repro.svc.mod:_loop" in graph.contexts_of(
            "repro.svc.mod:_loop"
        )

    def test_contexts_propagate_to_callees(self):
        graph = _graph(("src/repro/svc/mod.py", self.SOURCE))
        assert "thread:repro.svc.mod:_loop" in graph.contexts_of(
            "repro.svc.mod:worker_only"
        )

    def test_function_called_from_both_sides_has_both_contexts(self):
        graph = _graph(("src/repro/svc/mod.py", self.SOURCE))
        contexts = graph.contexts_of("repro.svc.mod:shared")
        assert "main" in contexts
        assert "thread:repro.svc.mod:_loop" in contexts

    def test_main_only_function_stays_main_only(self):
        graph = _graph(("src/repro/svc/mod.py", self.SOURCE))
        assert graph.contexts_of("repro.svc.mod:main") == {"main"}

    def test_contexts_cross_module_boundaries(self):
        graph = _graph(
            (
                "src/repro/svc/util.py",
                """
                def leaf():
                    pass
                """,
            ),
            (
                "src/repro/svc/runner.py",
                """
                import threading

                from repro.svc.util import leaf

                def _loop():
                    leaf()

                def start():
                    threading.Thread(target=_loop).start()
                """,
            ),
        )
        assert "thread:repro.svc.runner:_loop" in graph.contexts_of(
            "repro.svc.util:leaf"
        )


class TestReachability:
    def test_reachable_from_is_transitive(self):
        graph = _graph(
            (
                "src/repro/svc/chain.py",
                """
                def c():
                    pass

                def b():
                    c()

                def a():
                    b()
                """,
            )
        )
        reach = graph.reachable_from("repro.svc.chain:a")
        assert {"repro.svc.chain:b", "repro.svc.chain:c"} <= reach

    def test_reachable_from_handles_cycles(self):
        graph = _graph(
            (
                "src/repro/svc/cycle.py",
                """
                def ping():
                    pong()

                def pong():
                    ping()
                """,
            )
        )
        reach = graph.reachable_from("repro.svc.cycle:ping")
        assert "repro.svc.cycle:pong" in reach
        assert "repro.svc.cycle:ping" in reach


class TestConflict:
    def test_distinct_thread_contexts_conflict(self):
        assert conflict("thread:m:f", "main")
        assert conflict("thread:m:f", "thread:m:g")

    def test_identical_contexts_do_not_conflict(self):
        assert not conflict("thread:m:f", "thread:m:f")
        assert not conflict("main", "main")

    def test_signal_contexts_never_conflict(self):
        # Signal handlers interleave on the main thread; they are a
        # reentrancy problem (RL-C003), not a memory-visibility one.
        assert not conflict("signal:m:h", "main")
        assert not conflict("signal:m:h", "thread:m:f")

    def test_conflicting_pair_scans_label_sets(self):
        assert conflicting_pair({"main", "thread:m:f"})
        assert not conflicting_pair({"main", "signal:m:h"})
        assert not conflicting_pair({"main"})
        assert not conflicting_pair(set())


class TestResolution:
    """Function and call resolution, which every project rule shares."""

    def _call(self, graph, module, qualname):
        """The first call inside one def, with that def's FunctionInfo."""
        info = graph.functions[f"{module}:{qualname}"]
        record = graph.project.modules[module]
        call = next(n for n in info.scope_nodes if isinstance(n, ast.Call))
        return graph.resolve_in(call.func, record, info)

    def test_resolution_crosses_modules(self):
        graph = _graph(
            ("src/repro/pkg/a.py", "def helper() -> int:\n    return 1\n"),
            (
                "src/repro/pkg/b.py",
                """
                from repro.pkg import a
                from repro.pkg.a import helper

                def direct():
                    return helper()

                def dotted():
                    return a.helper()

                def missing():
                    return a.nope()
                """,
            ),
        )
        for caller in ("direct", "dotted"):
            target = self._call(graph, "repro.pkg.b", caller)
            assert target.key == "repro.pkg.a:helper"
            assert target.record.name == "repro.pkg.a"
            assert target.name == "helper"
        assert self._call(graph, "repro.pkg.b", "missing") is None

    def test_class_methods_are_indexed_by_qualname(self):
        graph = _graph(
            (
                "src/repro/pkg/mod.py",
                """
                class C:
                    def __init__(self):
                        self.m()

                    def m(self) -> int:
                        return 1

                def make():
                    return C()
                """,
            )
        )
        assert graph.functions["repro.pkg.mod:C.m"].class_qual == "C"
        assert self._call(graph, "repro.pkg.mod", "C.__init__").key == (
            "repro.pkg.mod:C.m"
        )
        assert self._call(graph, "repro.pkg.mod", "make").key == (
            "repro.pkg.mod:C.__init__"
        )

    def test_scopes_cover_every_def_body(self):
        graph = _graph(
            (
                "src/repro/pkg/mod.py",
                """
                import sys

                try:
                    from fast import f
                except ImportError:
                    def f():
                        return 1

                if sys.platform == "win32":
                    def g():
                        return 2
                else:
                    def g():
                        return 3

                def outer():
                    def inner():
                        return 4
                    return inner()
                """,
            )
        )
        record = graph.project.modules["repro.pkg.mod"]
        scopes = list(graph.scopes(record))
        assert scopes[0][0] is None
        assert [info.qualname for info, _ in scopes[1:]] == [
            "f", "g", "g", "outer", "outer.inner",
        ]
        # The top level does not descend into def bodies, and neither
        # does a def's scope into its nested defs.
        returns = [
            [n.value.value for n in nodes if isinstance(n, ast.Return)
             and isinstance(n.value, ast.Constant)]
            for _info, nodes in scopes
        ]
        assert returns == [[], [1], [2], [3], [], [4]]
        assert self._call(graph, "repro.pkg.mod", "outer").key == (
            "repro.pkg.mod:outer.inner"
        )


class TestMemoisation:
    def test_of_returns_the_same_graph_per_project(self):
        project = ProjectModel.from_sources(
            [("src/repro/svc/one.py", "def f():\n    pass\n")]
        )
        assert CallGraph.of(project) is CallGraph.of(project)
