"""Dependency gate: numpy is the only third-party runtime dependency.

CI installs ``numpy`` (plus test tooling) and nothing else, so any other
top-level import in ``src/repro`` would break a clean checkout, and
``setup.py`` must declare exactly that set.  The CLI's import footprint
is checked in a fresh interpreter because every sweep worker and every
cold ``python -m repro`` pays it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

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


def test_setup_py_declares_exactly_the_runtime_dependencies():
    tree = ast.parse((ROOT / "setup.py").read_text(encoding="utf-8"))
    (call,) = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "setup"]
    (requires,) = [kw.value for kw in call.keywords
                   if kw.arg == "install_requires"]
    assert set(ast.literal_eval(requires)) == RUNTIME_DEPENDENCIES


def _cli_import_loads(prefix):
    """Modules starting with ``prefix`` that ``import repro.cli`` loads
    in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, repro.cli; "
             f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_loads_no_networkx():
    assert _cli_import_loads("networkx") == "[]"


def test_cli_import_loads_no_fabric():
    """The fabric shares the sweep driver, not the other way round: a
    cold CLI start never pays for the coordinator or worker."""
    assert _cli_import_loads("repro.fabric") == "[]"
