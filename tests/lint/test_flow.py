"""Flow-pass variant tests beyond the canonical per-rule fixtures."""

from repro.lint import lint_sources


def _ids(findings):
    return [f.rule_id for f in findings]


_CONSUMER = (
    "src/repro/pkg/helper.py",
    "__all__ = ['consume']\n\n\ndef consume(rng) -> float:\n"
    "    return float(rng.standard_normal())\n",
)


class TestRawGeneratorCrossing:
    def test_stream_derived_generator_is_sanctioned(self):
        main = (
            "src/repro/pkg/main.py",
            "from repro.pkg.helper import consume\n"
            "from repro.utils.rng import RngFactory\n"
            "__all__: list[str] = []\n"
            "def run(factory: RngFactory) -> float:\n"
            "    rng = factory.stream('main')\n"
            "    return consume(rng)\n",
        )
        assert lint_sources([main, _CONSUMER]) == []

    def test_raw_generator_within_one_module_is_allowed(self):
        main = (
            "src/repro/pkg/main.py",
            "import numpy as np\n"
            "__all__: list[str] = []\n"
            "def local(rng) -> float:\n"
            "    return float(rng.random())\n"
            "def run(seed: int) -> float:\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return local(rng)\n",
        )
        assert lint_sources([main]) == []

    def test_raw_generator_to_numpy_api_is_allowed(self):
        main = (
            "src/repro/pkg/main.py",
            "import numpy as np\n"
            "__all__: list[str] = []\n"
            "def run(seed: int) -> float:\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return float(np.mean(rng.random(4)))\n",
        )
        assert lint_sources([main]) == []

    def test_keyword_argument_crossing_fires(self):
        main = (
            "src/repro/pkg/main.py",
            "import numpy as np\n"
            "from repro.pkg.helper import consume\n"
            "__all__: list[str] = []\n"
            "def run(seed: int) -> float:\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return consume(rng=rng)\n",
        )
        assert _ids(lint_sources([main, _CONSUMER])) == ["RL-D005"]

    def test_crossing_into_a_class_without_init_fires(self):
        # A dataclass has no `__init__` def to resolve to; the module
        # owning the class name is still another project module.
        sim = (
            "src/repro/pkg/sim.py",
            "from dataclasses import dataclass\n"
            "__all__ = ['Sim']\n\n\n"
            "@dataclass\n"
            "class Sim:\n"
            "    rng: object\n",
        )
        main = (
            "src/repro/pkg/main.py",
            "import numpy as np\n"
            "from repro.pkg.sim import Sim\n"
            "__all__: list[str] = []\n"
            "def run(seed: int) -> Sim:\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return Sim(rng=rng)\n",
        )
        assert _ids(lint_sources([main, sim])) == ["RL-D005"]

    def test_scopes_do_not_leak_names_across_functions(self):
        # `rng` is raw in one function and sanctioned in another; the
        # sanctioned function's cross-module call must not be flagged.
        main = (
            "src/repro/pkg/main.py",
            "import numpy as np\n"
            "from repro.pkg.helper import consume\n"
            "from repro.utils.rng import coerce_rng\n"
            "__all__: list[str] = []\n"
            "def local_only(seed: int) -> float:\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return float(rng.random())\n"
            "def run(seed: int) -> float:\n"
            "    rng = coerce_rng(seed)\n"
            "    return consume(rng)\n",
        )
        assert lint_sources([main, _CONSUMER]) == []


class TestExternalSeedTaint:
    def test_argv_seed_fires(self):
        mod = (
            "src/repro/pkg/cfg.py",
            "import sys\n"
            "from repro.utils.rng import make_rng\n"
            "__all__: list[str] = []\n"
            "def build():\n"
            "    return make_rng(seed=int(sys.argv[1]))\n",
        )
        assert _ids(lint_sources([mod])) == ["RL-D006"]

    def test_getenv_seed_fires(self):
        mod = (
            "src/repro/pkg/cfg.py",
            "import os\n"
            "from repro.utils.rng import make_rng\n"
            "__all__: list[str] = []\n"
            "def build():\n"
            "    return make_rng(seed=int(os.getenv('SEED', '0')))\n",
        )
        assert _ids(lint_sources([mod])) == ["RL-D006"]

    def test_tainted_positional_arg_to_project_seed_param_fires(self):
        maker = (
            "src/repro/pkg/maker.py",
            "__all__ = ['build']\n\n\ndef build(seed: int):\n    return seed\n",
        )
        mod = (
            "src/repro/pkg/cfg.py",
            "import os\n"
            "from repro.pkg.maker import build\n"
            "__all__: list[str] = []\n"
            "def main():\n"
            "    return build(int(os.environ['SEED']))\n",
        )
        assert _ids(lint_sources([mod, maker])) == ["RL-D006"]

    def test_sanitized_seed_is_clean(self):
        mod = (
            "src/repro/pkg/cfg.py",
            "import sys\n"
            "from repro.utils.rng import make_rng\n"
            "from repro.utils.validation import check_in_range\n"
            "__all__: list[str] = []\n"
            "def build():\n"
            "    seed_raw = int(sys.argv[1])\n"
            "    return make_rng(seed=check_in_range(seed_raw, 0, 2**32))\n",
        )
        assert lint_sources([mod]) == []

    def test_literal_seed_is_clean(self):
        mod = (
            "src/repro/pkg/cfg.py",
            "from repro.utils.rng import make_rng\n"
            "__all__: list[str] = []\n"
            "def build():\n"
            "    return make_rng(seed=1234)\n",
        )
        assert lint_sources([mod]) == []

    def test_tainted_attribute_seed_write_fires(self):
        mod = (
            "src/repro/pkg/cfg.py",
            "import os\n"
            "__all__: list[str] = []\n"
            "class Config:\n"
            "    def __init__(self) -> None:\n"
            "        self.seed = int(os.environ['SEED'])\n",
        )
        assert _ids(lint_sources([mod])) == ["RL-D006"]


class TestCrossModuleUnitInference:
    def test_return_body_inference_without_name_suffix(self):
        conv = (
            "src/repro/pkg/conv.py",
            "__all__ = ['floor']\n\n\ndef floor(bandwidth_hz: float) -> float:\n"
            "    noise_dbm = -174.0 + bandwidth_hz\n"
            "    return noise_dbm\n",
        )
        mod = (
            "src/repro/pkg/link.py",
            "from repro.pkg.conv import floor\n"
            "__all__: list[str] = []\n"
            "def margin(tx_power_w: float) -> float:\n"
            "    return tx_power_w - floor(180.0)\n",
        )
        assert _ids(lint_sources([mod, conv])) == ["RL-P004"]

    def test_converter_call_name_suffix_classifies_result(self):
        mod = (
            "src/repro/pkg/link.py",
            "from repro.utils.units import dbm_to_w\n"
            "__all__: list[str] = []\n"
            "def total(p_dbm: float, q_w: float) -> float:\n"
            "    p_lin = dbm_to_w(p_dbm)\n"
            "    return p_lin + q_w\n",
        )
        assert lint_sources([mod]) == []

    def test_same_unit_propagated_sum_is_clean(self):
        mod = (
            "src/repro/pkg/link.py",
            "__all__: list[str] = []\n"
            "def total(a_w: float, b_w: float) -> float:\n"
            "    first = a_w\n"
            "    second = b_w\n"
            "    return first + second\n",
        )
        assert lint_sources([mod]) == []

    def test_conflicting_bindings_stay_unclassified(self):
        mod = (
            "src/repro/pkg/link.py",
            "__all__: list[str] = []\n"
            "def pick(a_w: float, b_dbm: float, flag: bool) -> float:\n"
            "    value = a_w\n"
            "    if flag:\n"
            "        value = b_dbm\n"
            "    return value + a_w\n",
        )
        assert lint_sources([mod]) == []


class TestExportSurface:
    def test_dead_export_fires_in_multi_module_project(self):
        a = (
            "src/repro/pkg/a.py",
            "__all__ = ['used', 'unused']\n\n\ndef used() -> int:\n"
            "    return 1\n\n\ndef unused() -> int:\n    return 2\n",
        )
        b = (
            "src/repro/pkg/b.py",
            "from repro.pkg.a import used\n"
            "__all__: list[str] = []\n"
            "def f() -> int:\n    return used()\n",
        )
        findings = lint_sources([a, b])
        assert _ids(findings) == ["RL-H006"]
        assert "unused" in findings[0].message

    def test_package_init_reexports_are_exempt(self):
        init = (
            "src/repro/pkg/__init__.py",
            "from repro.pkg.impl import thing\n\n__all__ = ['thing']\n",
        )
        impl = (
            "src/repro/pkg/impl.py",
            "__all__ = ['thing']\n\n\ndef thing() -> int:\n    return 1\n",
        )
        user = (
            "src/repro/pkg2/user.py",
            "from repro.pkg.impl import thing\n"
            "__all__: list[str] = []\n"
            "def g() -> int:\n    return thing()\n",
        )
        assert lint_sources([init, impl, user]) == []

    def test_underscore_names_are_not_checked_for_consumption(self):
        a = (
            "src/repro/pkg/a.py",
            "__all__ = ['_internal']\n\n\ndef _internal() -> int:\n    return 1\n",
        )
        b = (
            "src/repro/pkg/b.py",
            "import repro.pkg.a\n"
            "__all__: list[str] = []\n"
            "X = repro.pkg.a\n",
        )
        assert lint_sources([a, b]) == []


class TestImportCycles:
    def test_three_module_cycle_reports_full_chain(self):
        mods = [
            (
                "src/repro/pkg/a.py",
                "import repro.pkg.b\n__all__: list[str] = []\n",
            ),
            (
                "src/repro/pkg/b.py",
                "import repro.pkg.c\n__all__: list[str] = []\n",
            ),
            (
                "src/repro/pkg/c.py",
                "import repro.pkg.a\n__all__: list[str] = []\n",
            ),
        ]
        findings = lint_sources(mods)
        assert _ids(findings) == ["RL-H007"]
        assert "repro.pkg.a -> repro.pkg.b -> repro.pkg.c -> repro.pkg.a" in (
            findings[0].message
        )

    def test_type_checking_guard_breaks_the_cycle(self):
        mods = [
            (
                "src/repro/pkg/a.py",
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    import repro.pkg.b\n"
                "__all__: list[str] = []\n",
            ),
            (
                "src/repro/pkg/b.py",
                "import repro.pkg.a\n__all__: list[str] = []\n",
            ),
        ]
        assert lint_sources(mods) == []

    def test_lazy_import_breaks_the_cycle(self):
        mods = [
            (
                "src/repro/pkg/a.py",
                "__all__: list[str] = []\n"
                "def f() -> int:\n"
                "    from repro.pkg.b import g\n"
                "    return g()\n",
            ),
            (
                "src/repro/pkg/b.py",
                "import repro.pkg.a\n__all__: list[str] = []\n",
            ),
        ]
        assert lint_sources(mods) == []


def _by_rule(findings, rule_id):
    return [(f.path, f.line) for f in findings if f.rule_id == rule_id]


class TestScopesAndResolution:
    """Flow rules walk one scope per def and resolve calls like RL-C."""

    def test_parameter_passed_on_is_not_a_raw_generator(self):
        # `rng` is raw only inside make(); run() forwards its own
        # parameter, so module-level code must not merge the two scopes.
        main = (
            "src/repro/pkg/a.py",
            "import numpy as np\n"
            "import repro.pkg.b\n"
            "__all__: list[str] = []\n"
            "def make():\n"
            "    rng = np.random.default_rng(0)\n"
            "    return rng\n"
            "def run(rng):\n"
            "    return repro.pkg.b.consume(rng)\n",
        )
        consumer = (
            "src/repro/pkg/b.py",
            "__all__ = ['consume']\n\n\ndef consume(rng) -> float:\n"
            "    return float(rng.standard_normal())\n",
        )
        assert _by_rule(lint_sources([main, consumer]), "RL-D005") == []

    def test_source_order_taint_chain_reaches_the_sink(self):
        mod = (
            "src/repro/pkg/cfg.py",
            "import os\n"
            "from repro.utils.rng import make_rng\n"
            "__all__: list[str] = []\n"
            "def build():\n"
            "    a = os.environ['SEED']\n"
            "    b = a\n"
            "    c = b\n"
            "    return make_rng(seed=c)\n",
        )
        assert _by_rule(lint_sources([mod]), "RL-D006") == [
            ("src/repro/pkg/cfg.py", 8)
        ]

    def test_source_order_unit_chain_is_followed(self):
        conv = (
            "src/repro/pkg/conv.py",
            "__all__ = ['noise_floor_dbm']\n\n\n"
            "def noise_floor_dbm(bandwidth_hz: float) -> float:\n"
            "    return -174.0 + bandwidth_hz\n",
        )
        mod = (
            "src/repro/pkg/link.py",
            "from repro.pkg.conv import noise_floor_dbm\n"
            "__all__: list[str] = []\n"
            "def margin(tx_power_w: float) -> float:\n"
            "    a = noise_floor_dbm(180.0)\n"
            "    b = a\n"
            "    c = b\n"
            "    return tx_power_w - c\n",
        )
        assert _by_rule(lint_sources([mod, conv]), "RL-P004") == [
            ("src/repro/pkg/link.py", 7)
        ]

    def test_same_module_helper_return_unit_is_inferred(self):
        units = (
            "src/repro/pkg/u.py",
            "__all__ = ['tx_power_dbm']\n\n\n"
            "def tx_power_dbm() -> float:\n    return 20.0\n",
        )
        mod = (
            "src/repro/pkg/link.py",
            "from repro.pkg.u import tx_power_dbm\n"
            "__all__: list[str] = []\n"
            "def helper() -> float:\n"
            "    return tx_power_dbm()\n"
            "def total(signal_w: float) -> float:\n"
            "    return signal_w + helper()\n",
        )
        assert _by_rule(lint_sources([mod, units]), "RL-P004") == [
            ("src/repro/pkg/link.py", 6)
        ]

    def test_every_body_of_a_redefined_function_is_checked(self):
        main = (
            "src/repro/pkg/main.py",
            "import sys\n"
            "import numpy as np\n"
            "from repro.pkg.helper import consume\n"
            "__all__: list[str] = []\n"
            "if sys.platform == 'win32':\n"
            "    def f(seed: int) -> float:\n"
            "        return 0.0\n"
            "else:\n"
            "    def f(seed: int) -> float:\n"
            "        rng = np.random.default_rng(seed)\n"
            "        return consume(rng)\n",
        )
        assert _by_rule(lint_sources([main, _CONSUMER]), "RL-D005") == [
            ("src/repro/pkg/main.py", 11)
        ]


def _chain(names):
    """A return-unit chain f0 -> f1 -> ... -> f5 -> tx_power_dbm.

    ``names[k]`` is the module holding ``fk``, so the module names can
    run along the chain or against it.
    """
    depth = len(names)
    files = [
        (
            "src/repro/pkg/u.py",
            "__all__ = ['tx_power_dbm']\n\n\n"
            "def tx_power_dbm() -> float:\n    return 20.0\n",
        )
    ]
    for k, name in enumerate(names):
        if k + 1 < depth:
            callee_mod, callee = names[k + 1], f"f{k + 1}"
        else:
            callee_mod, callee = "u", "tx_power_dbm"
        files.append(
            (
                f"src/repro/pkg/{name}.py",
                f"from repro.pkg.{callee_mod} import {callee}\n"
                f"__all__ = ['f{k}']\n\n\n"
                f"def f{k}() -> float:\n    return {callee}()\n",
            )
        )
    imports = "".join(
        f"from repro.pkg.{name} import f{k}\n" for k, name in enumerate(names)
    )
    body = "".join(
        f"    mixes.append(signal_w + f{k}())\n" for k in range(depth)
    )
    files.append(
        (
            "src/repro/pkg/consumer.py",
            imports
            + "__all__: list[str] = []\n"
            "def total(signal_w: float) -> list[float]:\n"
            "    mixes = []\n" + body + "    return mixes\n",
        )
    )
    return sorted(files)


class TestUnboundedUnitFixpoint:
    ALONG = [f"m{k}" for k in range(6)]
    AGAINST = [f"m{5 - k}" for k in range(6)]

    def test_deep_cross_module_chain_reports_every_mix(self):
        findings = _by_rule(lint_sources(_chain(self.ALONG)), "RL-P004")
        assert findings == [
            ("src/repro/pkg/consumer.py", line) for line in range(10, 16)
        ]

    def test_findings_do_not_depend_on_module_order(self):
        along = lint_sources(_chain(self.ALONG))
        against = lint_sources(_chain(self.AGAINST))
        assert [(f.path, f.line, f.message) for f in along] == [
            (f.path, f.line, f.message) for f in against
        ]

    def test_mutual_recursion_terminates_in_any_order(self):
        ping = (
            "src/repro/pkg/ping.py",
            "__all__ = ['ping']\n\n\n"
            "def ping(n: int, level_dbm: float) -> float:\n"
            "    from repro.pkg.pong import pong\n"
            "    if n > 0:\n"
            "        return pong(n - 1, level_dbm)\n"
            "    return level_dbm\n",
        )
        pong = (
            "src/repro/pkg/pong.py",
            "from repro.pkg.ping import ping\n"
            "__all__ = ['pong']\n\n\n"
            "def pong(n: int, level: float) -> float:\n"
            "    return ping(n, level)\n",
        )
        user = (
            "src/repro/pkg/user.py",
            "from repro.pkg.pong import pong\n"
            "__all__: list[str] = []\n"
            "def total(signal_w: float) -> float:\n"
            "    return signal_w + pong(3, 0.0)\n",
        )
        forward = lint_sources([ping, pong, user])
        backward = lint_sources([user, pong, ping])
        assert _by_rule(forward, "RL-P004") == [("src/repro/pkg/user.py", 4)]
        assert forward == backward
