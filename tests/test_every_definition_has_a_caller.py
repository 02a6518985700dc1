"""Every top-level function and class of ``src/repro`` has a caller.

New code must earn its line count, so a definition that nothing runs is
deleted rather than kept "for completeness".  The scan parses every Python
file under ``src/``, ``benchmarks/``, ``examples/`` and ``perfbench/`` and
looks at every top-level function and class of ``src/repro``, private ones
included.

* A **reference** is a ``Name`` or ``Attribute`` use of the definition's
  name, or a string constant equal to it (lookups by name, such as
  perfbench's tracer targets, count).
* A use inside the definition's own body, an ``__all__`` entry, a package
  re-export (an import, or an entry of a :func:`repro.lazy.lazy_exports`
  table) and a ``Name`` that is a parameter of its enclosing function are
  **not** references, and neither is a use in ``tests/``.
* A module-level ``__getattr__`` or ``__dir__`` is called by the import
  system (PEP 562), so it always has a caller.

A definition with no reference fails the test unless :data:`ALLOWLIST` names
it under one of five reasons.  An allowlist entry whose definition is gone,
or has gained a caller, fails too, so the list can only shrink.

The same holds for imports, over ``src/``, ``tests/``, ``examples/`` and
``benchmarks/``: an imported name that no ``Name`` node and no ``__all__``
entry of its module uses fails.  ``perfbench/`` stays out, as its
``import repro.cli`` is a deliberate side-effect import.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples", "perfbench")
IMPORT_SCANNED = ("src", "tests", "examples", "benchmarks")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
# Module attributes the import system calls (PEP 562).
IMPORT_HOOKS = ("__getattr__", "__dir__")
# The call whose table re-exports a package's names lazily (repro.lazy).
LAZY_EXPORTS = "lazy_exports"

# The loop twins of the production kernels: tests patch them in, production
# code never imports them (repro.reference).
TEST_REFERENCE = "test reference"
# Code that tests hold against a statement of the paper (Section 2).
PAPER_STATEMENT = "paper statement"
# Lets a test reset or inject process-wide state.
TEST_HOOK = "test hook"
# Small graphs the test fixtures are built from (tests/conftest.py).
FIXTURE_GRAPH = "fixture graph"
# Public API documented for users, with no caller inside the repository.
DOCUMENTED_API = "documented API"

ALLOWLIST = {
    "repro.reference.breadth_first_levels_reference": TEST_REFERENCE,
    "repro.reference.bfs_order_reference": TEST_REFERENCE,
    "repro.reference.number_by_levels_reference": TEST_REFERENCE,
    "repro.reference.sloan_component_reference": TEST_REFERENCE,
    "repro.reference.connected_components_reference": TEST_REFERENCE,
    "repro.reference.subpattern_reference": TEST_REFERENCE,
    "repro.reference.maximal_independent_set_reference": TEST_REFERENCE,
    "repro.reference.grow_domains_reference": TEST_REFERENCE,
    "repro.envelope.bounds.two_sum_lower_bound": PAPER_STATEMENT,
    "repro.envelope.bounds.envelope_work_bounds": PAPER_STATEMENT,
    "repro.envelope.bounds.envelope_size_bounds": PAPER_STATEMENT,
    "repro.envelope.bounds.theorem_2_1_relations": PAPER_STATEMENT,
    "repro.envelope.theory.permutation_vector_from_ordering": PAPER_STATEMENT,
    "repro.envelope.theory.closest_permutation_vector": PAPER_STATEMENT,
    "repro.envelope.theory.is_adjacency_ordering": PAPER_STATEMENT,
    "repro.envelope.theory.spectral_adjacency_violations": PAPER_STATEMENT,
    "repro.envelope.optimal.minimum_envelope_size": PAPER_STATEMENT,
    "repro.envelope.optimal.minimum_bandwidth": PAPER_STATEMENT,
    "repro.graph.laplacian.laplacian_quadratic_form": PAPER_STATEMENT,
    "repro.batch.engine.clear_problem_cache": TEST_HOOK,
    "repro.batch.engine.problem_cache_info": TEST_HOOK,
    "repro.store.core.set_default_store": TEST_HOOK,
    "repro.store.core.reset_default_store": TEST_HOOK,
    "repro.faults.set_fault_plan": TEST_HOOK,
    "repro.collections.meshes.path_pattern": FIXTURE_GRAPH,
    "repro.collections.meshes.cycle_pattern": FIXTURE_GRAPH,
    "repro.collections.meshes.star_pattern": FIXTURE_GRAPH,
    "repro.collections.meshes.complete_pattern": FIXTURE_GRAPH,
    "repro.collections.meshes.binary_tree_pattern": FIXTURE_GRAPH,
    "repro.collections.external.fetch_problem": DOCUMENTED_API,  # docs/collections.md
}


def _module_name(path: str) -> str:
    parts = Path(path).with_suffix("").parts[1:]  # drop "src"
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _assigns_all(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    else:
        return False
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def _parameters(function) -> set[str]:
    args = function.args
    every = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
    return {arg.arg for arg in every if arg is not None}


def _uses(node: ast.AST, parameters: frozenset = frozenset()):
    """The names *node* uses: ``Name`` ids, ``Attribute`` names and strings.

    *parameters* holds the parameters of the enclosing functions; a ``Name``
    among them is a use of the parameter.  Only a function's body sees its
    parameters: decorators, defaults and annotations are evaluated outside.
    Of a ``lazy_exports(...)`` call only the callee is a use; its arguments
    are the export table.
    """
    if isinstance(node, FUNCTIONS):
        inner = parameters | _parameters(node)
        for field, value in ast.iter_fields(node):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from _uses(child, inner if field == "body" else parameters)
        return
    if isinstance(node, ast.Call):
        callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        if callee == LAZY_EXPORTS:
            yield from _uses(node.func, parameters)
            return
    if isinstance(node, ast.Name):
        if node.id not in parameters:
            yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, parameters)


def scan(sources: dict[str, str]) -> tuple[dict, dict]:
    """Definitions and references in *sources* (``{path: text}``).

    Returns ``definitions`` (qualified name -> ``(path, line, name)``, for
    the top-level definitions of files under ``src/repro/``) and
    ``references`` (name -> set of ``(path, owner)``, where ``owner`` is the
    top-level definition whose body holds the use, or ``None``).
    """
    definitions: dict[str, tuple[str, int, str]] = {}
    references: dict[str, set] = {}
    for path, text in sources.items():
        tree = ast.parse(text, filename=path)
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if owner is not None and path.startswith("src/repro/"):
                definitions[f"{_module_name(path)}.{owner}"] = (path, stmt.lineno, owner)
            if owner in IMPORT_HOOKS:
                references.setdefault(owner, set()).add((path, None))
            if _assigns_all(stmt):
                continue
            for name in _uses(stmt):
                references.setdefault(name, set()).add((path, owner))
    return definitions, references


def callers(definition: tuple[str, int, str], references: dict) -> set:
    """The references to *definition* from outside its own body."""
    path, _line, name = definition
    return references.get(name, set()) - {(path, name)}


def orphans(definitions: dict, references: dict, allowlist: dict) -> list[str]:
    """``path:line qualified`` of each caller-less definition *allowlist* lacks."""
    return [
        f"{path}:{line} {qualified}"
        for qualified, (path, line, name) in sorted(definitions.items())
        if qualified not in allowlist and not callers((path, line, name), references)
    ]


def stale_entry(qualified: str, definitions: dict, references: dict) -> str | None:
    """Why the allowlist entry *qualified* must go, or ``None`` if it holds."""
    if qualified not in definitions:
        return f"{qualified} is gone; drop its allowlist entry"
    found = sorted(callers(definitions[qualified], references), key=str)
    if found:
        return f"{qualified} has callers {found}; drop its allowlist entry"
    return None


@lru_cache(maxsize=2)
def _repository_sources(tops: tuple[str, ...] = SCANNED) -> dict[str, str]:
    return {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for top in tops
        for path in sorted((ROOT / top).rglob("*.py"))
    }


@lru_cache(maxsize=1)
def _repository_scan() -> tuple[dict, dict]:
    return scan(_repository_sources())


def test_every_definition_has_a_caller():
    found = orphans(*_repository_scan(), ALLOWLIST)
    assert not found, (
        "definitions with no caller outside tests; delete them, or allowlist "
        "one that a stated reason keeps:\n" + "\n".join(found)
    )


@pytest.mark.parametrize("qualified", sorted(ALLOWLIST))
def test_allowlisted_definition_exists_and_has_no_caller(qualified):
    assert ALLOWLIST[qualified] in (
        TEST_REFERENCE, PAPER_STATEMENT, TEST_HOOK, FIXTURE_GRAPH, DOCUMENTED_API
    )
    reason = stale_entry(qualified, *_repository_scan())
    assert reason is None, reason


RULE_SOURCES = {
    "src/repro/pkg/__init__.py": (
        "from repro.pkg.mod import exported, recursive\n"
        "__all__ = ['exported', 'recursive']\n"
    ),
    "src/repro/pkg/mod.py": (
        "__all__ = ['exported', 'recursive', 'called', 'by_attribute', 'by_string']\n"
        "__all__ += ['in_augmented_all']\n"
        "def exported(): pass\n"
        "def recursive(k): return recursive(k - 1)\n"
        "def called(): pass\n"
        "def by_attribute(): pass\n"
        "def by_string(): pass\n"
        "def in_augmented_all(): pass\n"
        "def imported_only(): pass\n"
        "def named_in_longer_string(): pass\n"
        "def called_by_sibling(): pass\n"
        "def sibling(): return called_by_sibling()\n"
        "class Base: pass\n"
        "class Derived(Base): pass\n"
        "def run_at_import(): return {}\n"
        "TABLE = run_at_import()\n"
        "def lazily_exported(): pass\n"
        "def shadowed(): pass\n"
        "def default_value(): pass\n"
        "def takes_parameter(shadowed=default_value): return run(shadowed=shadowed)\n"
    ),
    "src/repro/pkg/hooks.py": (
        "def __getattr__(name): raise AttributeError(name)\n"
        "def __dir__(): return []\n"
    ),
    "src/repro/pkg/lazy.py": "def lazy_exports(namespace, table): return None, None\n",
    "src/repro/pkg/lazy_package.py": (
        "from repro.pkg.lazy import lazy_exports\n"
        "HOOKS = lazy_exports(globals(), {'repro.pkg.mod': ('lazily_exported',)})\n"
    ),
    "src/repro/pkg/typed.py": (
        "__all__: list[str] = ['in_annotated_all']\n"
        "def in_annotated_all(): pass\n"
    ),
    "examples/use.py": (
        "import repro.pkg.mod as mod\n"
        "from repro.pkg.mod import imported_only\n"
        "called()\n"
        "mod.by_attribute()\n"
        "getattr(mod, 'by_string')\n"
        "print('repro.pkg.mod:named_in_longer_string')\n"
    ),
}


@pytest.mark.parametrize(
    "name, referenced",
    [
        ("exported", False),  # an __all__ entry and a package re-export only
        ("recursive", False),  # used only inside its own body
        ("called", True),
        ("by_attribute", True),
        ("by_string", True),
        ("in_augmented_all", False),  # named only by ``__all__ +=``
        ("in_annotated_all", False),  # named only by ``__all__: list[str] =``
        ("imported_only", False),  # imported by an example that never uses it
        ("named_in_longer_string", False),  # a string counts only when equal to the name
        ("called_by_sibling", True),  # another definition's body is a caller
        ("Base", True),  # a base class is a use
        ("run_at_import", True),  # module-level code of its own file is a caller
        ("__getattr__", True),  # the import system calls a module's hooks
        ("__dir__", True),
        ("lazily_exported", False),  # an entry of a lazy export table only
        ("lazy_exports", True),  # the call is a use; its table is not
        ("shadowed", False),  # a same-named parameter, passed on by keyword
        ("default_value", True),  # a default is evaluated outside the function
    ],
)
def test_what_counts_as_a_reference(name, referenced):
    definitions, references = scan(RULE_SOURCES)
    by_name = {definition[2]: definition for definition in definitions.values()}
    assert bool(callers(by_name[name], references)) is referenced


# The scan run on the repository with one edit made in memory: each edit is a
# regression the test above exists to catch.

FAULT_POINT = '''

def fault_point(site: str, key: str, *, point: str | None = None) -> None:
    if site.startswith("worker."):
        worker_faults(key, point=point or "start")
        return
    if site == "journal.flaky":
        flaky_io(site, key)
        return
    raise ValueError(f"{site!r} is a caller-handled site; use fires()")
'''


def _edited_scan(path: str, edit) -> tuple[dict, dict]:
    sources = dict(_repository_sources())
    sources[path] = edit(sources[path])
    return scan(sources)


@pytest.mark.parametrize(
    "name, source",
    [
        ("unused_helper", "def unused_helper(pattern):\n    return pattern.n\n"),
        ("_unused_helper", "def _unused_helper(pattern):\n    return pattern.n\n"),
        ("UnusedHelper", "class UnusedHelper:\n    pass\n"),
    ],
)
def test_an_added_definition_without_a_caller_is_an_orphan(name, source):
    path = "src/repro/sparse/ops.py"
    definitions, references = _edited_scan(path, lambda text: text + "\n\n" + source)
    line = definitions[f"repro.sparse.ops.{name}"][1]
    assert orphans(definitions, references, ALLOWLIST) == [f"{path}:{line} repro.sparse.ops.{name}"]


def test_restored_fault_point_is_an_orphan():
    def restore(text):
        assert '__all__ = [\n    "FAULT_SITES",' in text
        return text.replace("__all__ = [", '__all__ = [\n    "fault_point",', 1) + FAULT_POINT

    definitions, references = _edited_scan("src/repro/faults.py", restore)
    found = orphans(definitions, references, ALLOWLIST)
    assert [entry.split()[-1] for entry in found] == ["repro.faults.fault_point"]


def test_an_allowlist_entry_for_a_deleted_name_is_stale():
    assert stale_entry("repro.faults.fault_point", *_repository_scan()) == (
        "repro.faults.fault_point is gone; drop its allowlist entry"
    )


def test_an_allowlisted_name_that_gains_a_caller_is_stale():
    qualified = "repro.collections.meshes.path_pattern"
    assert stale_entry(qualified, *_repository_scan()) is None
    edited = _edited_scan("examples/quickstart.py", lambda text: text + "\npath_pattern(3)\n")
    assert stale_entry(qualified, *edited) == (
        f"{qualified} has callers [('examples/quickstart.py', None)]; drop its allowlist entry"
    )


# --------------------------------------------------------------------- #
# unused imports
# --------------------------------------------------------------------- #
def unused_imports(sources: dict[str, str]) -> list[str]:
    """``path:line name`` of each imported name in *sources* that no ``Name``
    node and no ``__all__`` entry of its module uses.

    ``import a.b`` binds ``a``; ``from __future__`` imports are directives.
    """
    found = []
    for path, text in sources.items():
        tree = ast.parse(text, filename=path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.value for stmt in tree.body if _assigns_all(stmt)
                 for node in ast.walk(stmt)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path}:{node.lineno} {name}" for name in bound if name not in used]
    return found


def test_no_unused_imports():
    found = unused_imports(_repository_sources(IMPORT_SCANNED))
    assert not found, "imported names that nothing uses; delete them:\n" + "\n".join(found)


def test_what_counts_as_an_import_use():
    sources = {
        "src/repro/pkg/__init__.py": (
            "from __future__ import annotations\n"
            "from repro.pkg.mod import exported, helper\n"
            "__all__ = ['exported']\n"
        ),
        "examples/use.py": (
            "import os.path\n"
            "import numpy as np\n"
            "from json import dumps as to_text, loads\n"
            "def main():\n"
            "    import math\n"
            "    return os.sep, to_text, math\n"
        ),
    }
    assert unused_imports(sources) == [
        "src/repro/pkg/__init__.py:2 helper",
        "examples/use.py:2 np",
        "examples/use.py:3 loads",
    ]


def test_an_added_unused_import_is_found():
    path = "tests/test_sparse_ops.py"
    sources = dict(_repository_sources(IMPORT_SCANNED))
    sources[path] = "import json\n" + sources[path]
    assert unused_imports(sources) == [f"{path}:1 json"]
