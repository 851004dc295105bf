"""Public-API surface tests: exports resolve and stay importable."""

import importlib
import os
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.graphs",
    "repro.spectral",
    "repro.walks",
    "repro.core",
    "repro.sim",
    "repro.engine",
    "repro.experiments",
]


class TestTopLevel:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_headline_objects_present(self):
        assert callable(repro.EdgeProcess)
        assert callable(repro.random_connected_regular_graph)
        assert callable(repro.verify_observation_10)


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"

    def test_lazy_greedy_import(self):
        import repro.walks as walks

        assert callable(walks.GreedyRandomWalk)
        assert callable(walks.greedy_random_walk)

    def test_lazy_unknown_attribute_raises(self):
        import repro.walks as walks

        with pytest.raises(AttributeError):
            _ = walks.NotAWalk


class TestLeafModules:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graphs.graph",
            "repro.graphs.cycle_space",
            "repro.graphs.ramanujan",
            "repro.graphs.geometric",
            "repro.spectral.mixing",
            "repro.spectral.expanders",
            "repro.core.eprocess",
            "repro.core.goodness",
            "repro.core.phasestats",
            "repro.sim.blanket",
            "repro.sim.profiles",
            "repro.sim.plot",
            "repro.experiments.spec",
            "repro.experiments.store",
            "repro.experiments.scheduler",
            "repro.experiments.reports",
            "repro.cli",
        ],
    )
    def test_leaf_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
#: Run before anything else in a child interpreter: any later
#: ``import scipy`` / ``import networkx`` raises ModuleNotFoundError.
BLOCK = "sys.modules['scipy'] = sys.modules['networkx'] = None\n"
HEAVY = ("scipy", "networkx", "repro.spectral")


def _python(code, *args, blocked):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH", "")]))
    source = "import sys\n" + (BLOCK if blocked else "") + code
    return subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _cli(argv, blocked):
    return _python("from repro.cli import main\nsys.exit(main(sys.argv[1:]))", *argv, blocked=blocked)


class TestNumpyOnly:
    """``import repro`` and every command but ``spectral`` need numpy alone."""

    @pytest.mark.parametrize("blocked", [True, False], ids=["blocked", "installed"])
    def test_import_loads_no_scipy_or_networkx(self, blocked):
        proc = _python(
            "import repro, repro.cli\n"
            f"print(sorted(m for m in {HEAVY!r} if sys.modules.get(m) is not None))",
            blocked=blocked,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--family", "regular", "--degree", "4", "--sizes", "40", "80",
             "--walk", "eprocess", "--trials", "2", "--seed", "3", "--engine", "fleet"],
            ["cover", "--family", "implicit_hypercube", "--n", "64", "--walk", "srw",
             "--trials", "2", "--seed", "1"],
            ["blanket", "--family", "cycle", "--n", "20", "--trials", "1"],
            ["goodness", "--family", "complete", "--n", "5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_runs_and_matches_unblocked_run(self, argv, tmp_path):
        if argv[0] == "sweep":
            blocked_argv = argv + ["--store", str(tmp_path / "blocked")]
            argv = argv + ["--store", str(tmp_path / "installed")]
        else:
            blocked_argv = argv
        blocked = _cli(blocked_argv, blocked=True)
        installed = _cli(argv, blocked=False)
        assert blocked.returncode == 0, blocked.stderr
        assert installed.returncode == 0, installed.stderr
        assert blocked.stdout and blocked.stdout == installed.stdout

    def test_spectral_without_scipy_names_the_extra(self):
        proc = _cli(["spectral", "--family", "cycle", "--n", "20"], blocked=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "pip install 'repro[spectral]'" in lines[0]
