"""Dependency gate: numpy is the only third-party runtime dependency.

CI installs ``numpy`` (plus test tooling) and nothing else, so any other
top-level import in ``src/repro`` would break a clean checkout.  The
CLI's import footprint is checked in a fresh interpreter because every
sweep worker and every cold ``python -m repro`` pays it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: What ``pip install`` lines in CI provide at runtime.
RUNTIME_DEPENDENCIES = {"numpy"}


def _top_level_imports(root: Path):
    names = set()
    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names is 3.10+")
def test_only_numpy_is_imported_from_outside_the_stdlib():
    imported = _top_level_imports(SRC / "repro")
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    assert third_party == RUNTIME_DEPENDENCIES


def test_cli_import_loads_no_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, repro.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('networkx')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
