"""Every Markdown file a ``src/repro`` docstring names exists.

A docstring that sends the reader to a document the repository does
not have states nothing; the fact belongs in the docstring itself.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

_MARKDOWN_PATH = re.compile(r"[\w./-]*\w\.md\b")


def docstring_references():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef,
                                     ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for name in _MARKDOWN_PATH.findall(ast.get_docstring(node) or ""):
                yield path.relative_to(REPO).as_posix(), name


def test_the_pattern_finds_markdown_paths():
    assert _MARKDOWN_PATH.findall(
        "see ARCHITECTURE.md and benchmarks/e2e/README.md, not x.mdx"
    ) == ["ARCHITECTURE.md", "benchmarks/e2e/README.md"]


def test_docstring_markdown_references_exist():
    missing = sorted({(module, name) for module, name in docstring_references()
                      if not (REPO / name).is_file()})
    assert missing == []
