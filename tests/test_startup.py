"""Start-up loads only what the command runs.

Every ``repro`` command and every suite run starts by importing
``repro.cli`` and ``repro.batch``.  The package ``__init__``s resolve their
public names on first access (:mod:`repro.lazy`), the CLI imports the
pipeline, the analysis reports and the matrix file formats inside the
commands that use them, and ``scipy.spatial`` is imported by the two
builders that need it.  What a suite cell runs stays eager: workers fork
from the orchestrator at every ``run_suite`` call, so a module the
orchestrator has not loaded would be imported again by every worker.

Each check runs in a fresh interpreter, so no other test has imported
anything first.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Loaded by no start-up: only the commands and builders that use them import them.
DEFERRED = (
    "scipy.spatial",
    "repro.analysis",
    "repro.core",
    "repro.factor",
    "repro.bench.harness",
    "repro.collections.external",
    "repro.store.download",
    "tarfile",
    "urllib.request",
)
#: Loaded by every start-up, because every suite cell runs them.
EAGER = (
    "repro.orderings.registry",
    "repro.eigen.multilevel",
    "scipy.sparse.csgraph",
    "scipy.sparse.linalg",
)
LAZY_PACKAGES = ("repro", "repro.collections", "repro.bench")


def run_fresh(code: str) -> str:
    """Standard output of *code* run by a fresh interpreter on ``src``."""
    env = {key: value for key, value in os.environ.items() if key != "REPRO_STORE"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_start_up_loads_what_cells_run_and_nothing_else():
    loaded = set(json.loads(run_fresh(
        "import json, sys, repro.cli, repro.batch; print(json.dumps(sorted(sys.modules)))"
    )))
    assert sorted(loaded & set(DEFERRED)) == []
    assert sorted(set(EAGER) - loaded) == []


def check_lazy_exports(package_name: str) -> None:
    """Assert the export contract of *package_name* (run in a fresh interpreter)."""
    package = importlib.import_module(package_name)
    listed = dir(package)  # before any name is resolved
    star: dict = {}
    exec(f"from {package_name} import *", star)
    submodules = [module for module_name, module in sys.modules.items()
                  if module_name.startswith(f"{package_name}.")]
    for name in package.__all__:
        value = getattr(package, name)
        assert star[name] is value and name in listed, name
        defining = getattr(value, "__module__", None)
        if defining is not None:  # a function or class
            assert getattr(importlib.import_module(defining), name) is value, name
        elif name != "__version__":  # a constant
            assert any(vars(module).get(name) is value for module in submodules), name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        package.no_such_name


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_lazy_package_exports_resolve_to_their_definitions(package_name):
    run_fresh(
        "from tests.test_startup import check_lazy_exports; "
        f"check_lazy_exports({package_name!r})"
    )


def test_spatial_builders_import_scipy_spatial_themselves():
    digests = json.loads((ROOT / "tests" / "fixtures" / "pattern_digests.json").read_text())
    built = json.loads(run_fresh(
        "import json, sys\n"
        "from repro.collections.registry import load_problem\n"
        "from repro.store.spectral import pattern_digest\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "print(json.dumps({f'{name}@0.25': pattern_digest(load_problem(name, scale=0.25)[0])\n"
        "                  for name in ('CAN1072', 'BARTH4')}))\n"
        "assert 'scipy.spatial' in sys.modules\n"
    ))
    assert built == {case: digests[case] for case in ("CAN1072@0.25", "BARTH4@0.25")}
