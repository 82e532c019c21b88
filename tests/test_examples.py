"""Examples: importability and one end-to-end smoke run."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
EXAMPLES = [
    "quickstart.py",
    "split_study.py",
    "cxl_vs_nvm.py",
    "custom_policy.py",
    "hotset_timeline.py",
]


class TestExamplesExist:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_present_and_compiles(self, name):
        path = os.path.join(EXAMPLES_DIR, name)
        assert os.path.exists(path)
        source = open(path).read()
        compile(source, path, "exec")
        assert '"""' in source  # documented
        assert "--quick" in source  # supports the fast demo mode


def _repro_imports(path):
    """``(module, name)`` for every ``repro`` import in ``path``
    (``name`` is None for a plain ``import repro...``)."""
    tree = ast.parse(open(path).read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


class TestExampleImports:
    """Every ``repro`` name an example imports still exists, without
    running the example."""

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_repro_imports_resolve(self, name):
        imports = list(_repro_imports(os.path.join(EXAMPLES_DIR, name)))
        assert imports
        for module_name, attr in imports:
            module = importlib.import_module(module_name)
            if attr is not None and not hasattr(module, attr):
                # ``from repro import snapshot`` names a submodule.
                importlib.import_module(f"{module_name}.{attr}")


@pytest.mark.slow
class TestExampleRuns:
    def test_hotset_timeline_quick(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(EXAMPLES_DIR, "hotset_timeline.py"),
             "--quick", "--workload", "654.roms"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "hit ratio" in proc.stdout

    def test_custom_policy_quick(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(EXAMPLES_DIR, "custom_policy.py"),
             "--quick", "--workload", "654.roms"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "memtis" in proc.stdout
