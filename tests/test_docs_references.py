"""The prose docs name only code that exists.

README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` cite the package
three ways: backticked dotted names (``repro.plc.csma.CsmaSimulator``),
imports inside python code blocks, and test or benchmark file paths. A
rename or a deletion that misses one of them fails here, naming the doc
and the reference.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path
from typing import List, Tuple

REPO = Path(__file__).resolve().parents[1]
DOCS = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
        *sorted((REPO / "docs").glob("*.md"))]

DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)(?:\([^`]*\))?`")
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
CITED_PATH = re.compile(r"\b((?:tests|benchmarks)/[\w./-]*\.py)\b")


def resolves(dotted: str) -> bool:
    """Import the longest importable prefix of ``dotted``, then
    ``getattr`` the rest."""
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        for attr in parts[k:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def references(pattern: re.Pattern) -> List[Tuple[str, str]]:
    return [(doc.name, match.group(1)) for doc in DOCS
            for match in pattern.finditer(doc.read_text(encoding="utf-8"))]


def test_backticked_dotted_names_resolve():
    names = references(DOTTED_NAME)
    assert names
    missing = sorted({(doc, name) for doc, name in names
                      if not resolves(name)})
    assert not missing, f"docs name code that does not exist: {missing}"


def test_python_block_imports_resolve():
    imports = []
    for doc, block in references(PYTHON_BLOCK):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.Import):
                imports += [(doc, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports += [(doc, f"{node.module}.{alias.name}")
                            for alias in node.names]
    imports = [(doc, name) for doc, name in imports
               if name.split(".")[0] == "repro"]
    assert imports
    missing = sorted({(doc, name) for doc, name in imports
                      if not resolves(name)})
    assert not missing, f"doc code blocks import what does not exist: {missing}"


def test_cited_test_and_benchmark_files_exist():
    paths = references(CITED_PATH)
    assert paths
    missing = sorted({(doc, path) for doc, path in paths
                      if not (REPO / path).is_file()})
    assert not missing, f"docs cite files that do not exist: {missing}"
