"""Every module under ``src/repro`` is reachable from a program entry point.

The guard builds a static import closure and names every module outside
it, so code that only its own tests import cannot pile up unnoticed.
Nothing is imported or executed: each file is parsed with :mod:`ast`.

Roots: the CLI (``src/repro/cli.py``, ``src/repro/__main__.py``), every
example, every benchmark module (``benchmarks/**``), the chaos suite
(``tests/chaos``) and the task-kind plugin modules that
``repro.campaign.tasks.PLUGIN_KIND_MODULES`` imports by name. The closure
follows every import statement of a module, those inside functions
included, resolves relative imports, and counts a package ``__init__`` as
imported whenever one of its submodules is.

Limitation: reachability is decided per module, not per name. A module
that its package ``__init__`` re-exports is reached whenever anything
imports the package, even if no entry point uses the re-exported names;
and an unused function inside a reached module is not flagged.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, Set

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def module_files(src: Path, package: str) -> Dict[str, Path]:
    """Dotted module name → source file, for every module of ``package``."""
    modules = {}
    for path in sorted((src / package).rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(path: Path, package: str = "") -> Iterator[str]:
    """Every dotted name an import statement in ``path`` may load.

    ``package`` is what relative imports resolve against (empty for a
    file outside any package). ``from a import b`` yields both ``a`` and
    ``a.b``, since ``b`` may be a submodule.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if not package:
                    continue
                parts = package.split(".")
                base = ".".join(parts[:len(parts) - node.level + 1]
                                + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def import_closure(modules: Dict[str, Path], root_files: Iterable[Path],
                   root_modules: Iterable[str]) -> Set[str]:
    """The modules of ``modules`` that the roots import, transitively."""
    reached: Set[str] = set()
    frontier = list(root_modules)
    for path in root_files:
        frontier.extend(imported_names(path))
    while frontier:
        name = frontier.pop()
        parts = name.split(".")
        for k in range(1, len(parts) + 1):
            prefix = ".".join(parts[:k])
            if prefix not in modules or prefix in reached:
                continue
            reached.add(prefix)
            path = modules[prefix]
            package = (prefix if path.name == "__init__.py"
                       else prefix.rpartition(".")[0])
            frontier.extend(imported_names(path, package))
    return reached


def plugin_kind_modules() -> tuple:
    """``PLUGIN_KIND_MODULES`` as written in the source, not as imported."""
    path = SRC / "repro" / "campaign" / "tasks.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name)
                and target.id == "PLUGIN_KIND_MODULES"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"PLUGIN_KIND_MODULES not assigned in {path}")


def entry_point_files() -> Iterator[Path]:
    yield from sorted((REPO / "examples").glob("*.py"))
    yield from sorted((REPO / "benchmarks").rglob("*.py"))
    yield from sorted((REPO / "tests" / "chaos").glob("*.py"))


def test_every_module_is_reachable_from_an_entry_point():
    modules = module_files(SRC, "repro")
    reached = import_closure(modules, entry_point_files(),
                             ("repro.cli", "repro.__main__",
                              *plugin_kind_modules()))
    unreached = sorted(set(modules) - reached)
    assert not unreached, (
        "modules no CLI command, example, benchmark or chaos test "
        "imports; give each a caller or delete it: "
        + ", ".join(unreached))


def test_closure_follows_nested_relative_and_parent_imports(tmp_path):
    files = {
        "pkg/__init__.py": "",
        "pkg/a.py": "def f():\n    from . import b\n",
        "pkg/b.py": "from .sub.c import thing\n",
        "pkg/sub/__init__.py": "",
        "pkg/sub/c.py": "from ..d import x\nthing = x\n",
        "pkg/d.py": "x = 1\n",
        "pkg/orphan.py": "import pkg.d\n",
        "main.py": "import os\n\ndef main():\n    import pkg.a\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    modules = module_files(tmp_path, "pkg")
    reached = import_closure(modules, [tmp_path / "main.py"], ())
    assert set(modules) - reached == {"pkg.orphan"}
    assert import_closure(modules, [], ("pkg.orphan",)) == {
        "pkg", "pkg.orphan", "pkg.d"}
