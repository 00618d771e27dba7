"""ProjectModel tests: module naming, import graph, cycles, references."""

from repro.lint.project import ProjectModel, module_name_for_path


class TestModuleNaming:
    def test_src_anchored_path(self):
        assert module_name_for_path("src/repro/em/waves.py") == "repro.em.waves"

    def test_absolute_src_anchored_path(self):
        assert (
            module_name_for_path("/root/repo/src/repro/sim/engine.py")
            == "repro.sim.engine"
        )

    def test_package_init_maps_to_package(self):
        assert module_name_for_path("src/repro/utils/__init__.py") == "repro.utils"

    def test_bare_repro_prefix_without_src(self):
        assert module_name_for_path("repro/em/waves.py") == "repro.em.waves"

    def test_unanchored_path_falls_back_to_stem(self):
        assert module_name_for_path("/tmp/scratch/snippet.py") == "snippet"


def _project(*items):
    return ProjectModel.from_sources(list(items))


class TestProjectConstruction:
    def test_records_carry_symbols_and_all(self):
        project = _project(
            (
                "src/repro/pkg/mod.py",
                "__all__ = ['f']\nCONST = 1\n\n\ndef f() -> int:\n    return CONST\n",
            )
        )
        record = project.modules["repro.pkg.mod"]
        assert {"f", "CONST", "__all__"} <= record.symbols
        assert record.dunder_all == ["f"]
        assert record.dunder_all_node is not None

    def test_computed_dunder_all_is_unresolvable(self):
        project = _project(
            ("src/repro/pkg/mod.py", "__all__ = sorted(['a', 'b'])\n")
        )
        assert project.modules["repro.pkg.mod"].dunder_all is None

    def test_syntax_error_files_are_skipped(self):
        project = _project(
            ("src/repro/pkg/ok.py", "__all__ = []\n"),
            ("src/repro/pkg/broken.py", "def broken(:\n"),
        )
        assert len(project) == 1


class TestNameResolution:
    def test_module_of_uses_longest_prefix(self):
        project = _project(
            ("src/repro/em/__init__.py", ""),
            ("src/repro/em/waves.py", "def f():\n    return 1\n"),
        )
        assert project.module_of("repro.em.waves.f").name == "repro.em.waves"
        assert project.module_of("repro.em.other").name == "repro.em"
        assert project.module_of("numpy.random.default_rng") is None


class TestImportGraph:
    def test_top_level_edges_with_linenos(self):
        project = _project(
            ("src/repro/pkg/a.py", "from repro.pkg.b import f\n"),
            ("src/repro/pkg/b.py", "def f():\n    return 1\n"),
        )
        edges = project.import_edges()
        assert edges["repro.pkg.a"] == {"repro.pkg.b": 1}

    def test_lazy_function_level_imports_are_not_edges(self):
        project = _project(
            (
                "src/repro/pkg/a.py",
                "def g():\n    from repro.pkg.b import f\n    return f()\n",
            ),
            ("src/repro/pkg/b.py", "def f():\n    return 1\n"),
        )
        assert project.import_edges()["repro.pkg.a"] == {}

    def test_type_checking_imports_are_not_edges(self):
        project = _project(
            (
                "src/repro/pkg/a.py",
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    from repro.pkg.b import f\n",
            ),
            ("src/repro/pkg/b.py", "def f():\n    return 1\n"),
        )
        assert project.import_edges()["repro.pkg.a"] == {}

    def test_two_module_cycle_is_detected(self):
        project = _project(
            ("src/repro/pkg/a.py", "import repro.pkg.b\n"),
            ("src/repro/pkg/b.py", "import repro.pkg.a\n"),
        )
        assert project.import_cycles() == [["repro.pkg.a", "repro.pkg.b"]]

    def test_three_module_cycle_is_detected_once(self):
        project = _project(
            ("src/repro/pkg/a.py", "import repro.pkg.b\n"),
            ("src/repro/pkg/b.py", "import repro.pkg.c\n"),
            ("src/repro/pkg/c.py", "import repro.pkg.a\n"),
        )
        assert project.import_cycles() == [
            ["repro.pkg.a", "repro.pkg.b", "repro.pkg.c"]
        ]

    def test_acyclic_chain_has_no_cycles(self):
        project = _project(
            ("src/repro/pkg/a.py", "import repro.pkg.b\n"),
            ("src/repro/pkg/b.py", "import repro.pkg.c\n"),
            ("src/repro/pkg/c.py", "X = 1\n"),
        )
        assert project.import_cycles() == []


class TestExternalReferences:
    def test_from_import_counts_as_reference(self):
        project = _project(
            ("src/repro/pkg/a.py", "from repro.pkg.b import f\nY = f()\n"),
            ("src/repro/pkg/b.py", "def f():\n    return 1\n"),
        )
        assert project.external_references()["repro.pkg.b"] == {"f"}

    def test_attribute_access_through_alias_counts(self):
        project = _project(
            ("src/repro/pkg/a.py", "import repro.pkg.b as b\nY = b.f()\n"),
            ("src/repro/pkg/b.py", "def f():\n    return 1\n"),
        )
        assert "f" in project.external_references()["repro.pkg.b"]

    def test_self_references_do_not_count(self):
        project = _project(
            ("src/repro/pkg/b.py", "def f():\n    return 1\n\n\nY = f()\n"),
        )
        assert project.external_references()["repro.pkg.b"] == set()
