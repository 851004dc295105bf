"""Public-API surface tests: exports resolve and stay importable."""

import importlib
import json
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

    @pytest.mark.parametrize(
        "module_name",
        ["repro", "repro.graphs", "repro.walks", "repro.core", "repro.sim", "repro.engine"],
    )
    def test_lazy_root_dir_and_unknown_attribute(self, module_name):
        module = importlib.import_module(module_name)
        assert set(module.__all__) <= set(dir(module))
        with pytest.raises(AttributeError):
            _ = module.NotAnExport


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
    """No command but ``spectral`` needs scipy or networkx; store-only
    commands (``--version``, ``report``, ``store``, a fully cached
    ``sweep``) load no numpy either — see :class:`TestImportBudget`."""

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


#: The trial runner's process-pool machinery: only a run that computes
#: trials needs it.
POOL_MODULES = ("multiprocessing", "concurrent.futures.process")

#: Printed by a child interpreter after it ran some commands: whether
#: numpy, which walk-engine modules, and which of :data:`POOL_MODULES`
#: ended up loaded.
REPORT_LOADED = (
    "print('numpy' in sys.modules, "
    "sorted(m for m in sys.modules if m.startswith('repro.engine.')), "
    f"sorted(m for m in {POOL_MODULES!r} if m in sys.modules))\n"
)


class TestImportBudget:
    """Store-only paths import no numpy, no walk engine and no process pool.

    ``import repro`` resolves its exports lazily, each CLI command
    imports what it runs, and the store reads trial outcomes from a leaf
    module (:mod:`repro.sim.outcomes`), so replaying results from the
    store costs neither a numpy import nor the runner's
    ``multiprocessing`` / ``concurrent.futures`` import.
    """

    def test_import_repro_and_cli(self):
        proc = _python("import repro, repro.cli\n" + REPORT_LOADED, blocked=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False [] []"

    def test_python_m_repro_version(self):
        proc = _python(
            "import runpy\n"
            "sys.argv = ['repro', '--version']\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n" + REPORT_LOADED,
            blocked=False,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("repro ")
        assert lines[1] == "False [] []"

    def test_warm_sweep_and_report_on_fleet_store(self, tmp_path):
        grid = ["--family", "regular", "--sizes", "40", "80", "--walk", "eprocess",
                "--trials", "2", "--seed", "3", "--store", str(tmp_path / "s")]
        sweep = ["sweep", *grid, "--engine", "fleet"]
        cold = _cli(sweep, blocked=False)
        assert cold.returncode == 0, cold.stderr
        assert "4 scheduled, 0 cached" in cold.stdout
        proc = _python(
            "import json\n"
            "from repro.cli import main\n"
            "argv = json.loads(sys.argv[1])\n"
            "for args in argv:\n"
            "    assert main(args) == 0\n" + REPORT_LOADED,
            json.dumps([
                # --telemetry too: the run manifest stamps numpy's version
                # without importing it.
                sweep + ["--telemetry", str(tmp_path / "warm.jsonl")],
                ["report", *grid],
                ["store", "ls", "--store", grid[-1]],
            ]),
            blocked=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert "0 scheduled, 4 cached" in proc.stdout
        assert proc.stdout.strip().splitlines()[-1] == "False [] []"
