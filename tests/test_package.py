"""Package-level tests: public API surface, exceptions, version."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.exceptions import (
    ConvergenceError,
    DanglingNodeError,
    GraphFormatError,
    MemoryBudgetExceeded,
    NotPreprocessedError,
    ParameterError,
    ReproError,
)


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_setup_reports_name_and_version(self):
        """``setup.py`` names the distribution and reads the package's
        version, so an install is not ``UNKNOWN 0.0.0``."""
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=root, capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.split() == ["repro", repro.__version__]

    def test_key_entry_points_present(self):
        for name in ("TPA", "cpi", "Graph", "community_graph", "rwr_exact",
                     "BePI", "recall_at_k", "load_dataset"):
            assert name in repro.__all__

    def test_subpackage_all_resolve(self):
        import repro.baselines
        import repro.core
        import repro.graph
        import repro.metrics
        import repro.ranking

        for module in (repro.baselines, repro.core, repro.graph,
                       repro.metrics, repro.ranking):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)


class TestExceptions:
    @pytest.mark.parametrize(
        "exc",
        [
            GraphFormatError,
            DanglingNodeError,
            NotPreprocessedError,
            MemoryBudgetExceeded,
            ConvergenceError,
            ParameterError,
        ],
    )
    def test_hierarchy(self, exc):
        assert issubclass(exc, ReproError)

    def test_memory_budget_fields(self):
        error = MemoryBudgetExceeded("X", 100, 50)
        assert error.method == "X"
        assert error.required_bytes == 100
        assert error.budget_bytes == 50
        assert "exceeds" in str(error)

    def test_catch_all_library_errors(self):
        """A single except ReproError clause covers library failures."""
        from repro.graph.graph import Graph

        with pytest.raises(ReproError):
            Graph(0, [], [])


class TestDocstrings:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.core.cpi",
            "repro.core.tpa",
            "repro.core.bounds",
            "repro.graph.graph",
            "repro.graph.generators",
            "repro.graph.slashburn",
            "repro.graph.diskgraph",
            "repro.baselines.fora",
            "repro.baselines.bepi",
            "repro.metrics.accuracy",
            "repro.experiments",
        ],
    )
    def test_modules_documented(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 40

    def test_public_methods_documented(self):
        from repro.core.tpa import TPA
        from repro.method import PPRMethod

        for cls in (TPA, PPRMethod):
            for attr_name in dir(cls):
                if attr_name.startswith("_"):
                    continue
                attr = getattr(cls, attr_name)
                if callable(attr):
                    assert attr.__doc__, f"{cls.__name__}.{attr_name}"


class TestKnobInventory:
    def test_readme_table_lists_every_environment_knob(self):
        """Every ``REPRO_*`` name ``src/`` mentions has a row in README's
        "Kernel layer and environment knobs" table, and no row outlives
        its knob."""
        root = Path(__file__).resolve().parents[1]
        in_source = set()
        for path in (root / "src").rglob("*.py"):
            in_source.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        rows = re.findall(
            r"^\| `(REPRO_[A-Z_]+)` \|", (root / "README.md").read_text(), re.M
        )
        assert sorted(rows) == sorted(in_source)
