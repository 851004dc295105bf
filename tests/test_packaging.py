"""Packaging metadata regression tests.

``setup.py`` is a thin shim that defers all metadata to ``pyproject.toml``;
an earlier revision shipped the shim without the TOML file, so editable
installs produced a metadata-less ``UNKNOWN`` dist.  Pin the contract.
"""

from pathlib import Path

import pytest

from repro._version import __version__

REPO_ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = REPO_ROOT / "pyproject.toml"

tomllib = pytest.importorskip("tomllib")  # stdlib on >= 3.11


@pytest.fixture(scope="module")
def pyproject():
    assert PYPROJECT.is_file(), "setup.py defers to pyproject.toml, which must exist"
    return tomllib.loads(PYPROJECT.read_text())


class TestPyproject:
    def test_project_name(self, pyproject):
        assert pyproject["project"]["name"] == "repro"

    def test_version_is_dynamic_from_single_source(self, pyproject):
        assert "version" in pyproject["project"]["dynamic"]
        attr = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"]
        assert attr == "repro._version.__version__"
        assert __version__.count(".") == 2

    def test_src_layout_configured(self, pyproject):
        assert pyproject["tool"]["setuptools"]["package-dir"][""] == "src"
        assert pyproject["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]

    def test_numpy_dependency_declared(self, pyproject):
        # numpy only: scipy rides in the `spectral` extra.
        assert pyproject["project"]["dependencies"] == ["numpy"]

    def test_networkx_nowhere_in_project(self, pyproject):
        assert "networkx" not in repr(pyproject["project"]).lower()

    def test_spectral_extra_lists_scipy(self, pyproject):
        assert pyproject["project"]["optional-dependencies"]["spectral"] == ["scipy"]

    def test_test_extra_covers_tier1_imports(self, pyproject):
        extra = pyproject["project"]["optional-dependencies"]["test"]
        assert {"pytest", "hypothesis", "scipy"} <= set(extra)

    def test_build_backend_reads_project_table(self, pyproject):
        # setuptools >= 61 is the first version that reads [project].
        assert pyproject["build-system"]["build-backend"] == "setuptools.build_meta"
        assert any("setuptools>=61" in req.replace(" ", "") for req in pyproject["build-system"]["requires"])

    def test_cli_entry_point(self, pyproject):
        assert pyproject["project"]["scripts"]["repro"] == "repro.cli:main"


class TestNativeExtension:
    """The fused kernel ships as an *optional* extension: its source must
    be in the tree (setuptools includes declared ext sources in sdists)
    and the build must be declared non-fatal, so installs without a C
    compiler fall back to the numpy path instead of failing."""

    def test_kernel_source_in_package(self):
        assert (REPO_ROOT / "src" / "repro" / "engine" / "native" / "_fused.c").is_file()

    def test_setup_declares_optional_extension(self):
        text = (REPO_ROOT / "setup.py").read_text()
        assert "repro.engine.native._fused" in text
        assert "optional=True" in text
        assert "build_ext" in text
