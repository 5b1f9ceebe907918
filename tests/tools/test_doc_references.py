"""Every reference a ``src/repro`` docstring or a project document
makes resolves.

A docstring that sends the reader to a document the repository does
not have, or to a ``repro`` name that no longer exists there, states
nothing; the fact belongs in the docstring itself.  Likewise a project
document citing a source or test file that was deleted.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

_MARKDOWN_PATH = re.compile(r"[\w./-]*\w\.md\b")

#: a repo-relative Python path under one of the source trees
_SOURCE_PATH = re.compile(
    r"(?<![\w./-])(?:tests|src/repro|tools|benchmarks)/[\w./-]*\.py\b")

#: the project documents whose file citations must resolve
DOCUMENTS = ("README.md", "ARCHITECTURE.md", "docs/*.md")


#: a Sphinx cross-reference to a ``repro`` name, ``~`` prefix allowed
_CROSS_REFERENCE = re.compile(
    r":(?:func|class|data|meth|attr|mod):`~?(repro(?:\.\w+)+)`")


def _docstrings():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef,
                                 ast.FunctionDef, ast.AsyncFunctionDef)):
                yield (path.relative_to(REPO).as_posix(),
                       ast.get_docstring(node) or "")


def docstring_references(pattern=_MARKDOWN_PATH):
    for module, docstring in _docstrings():
        for name in pattern.findall(docstring):
            yield module, name


def resolves(target):
    """Whether a dotted ``repro`` name imports: its longest importable
    module prefix, then one attribute per remaining part."""
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(found, attribute):
                return False
            found = getattr(found, attribute)
        return True
    return False


def test_the_pattern_finds_markdown_paths():
    assert _MARKDOWN_PATH.findall(
        "see ARCHITECTURE.md and benchmarks/e2e/README.md, not x.mdx"
    ) == ["ARCHITECTURE.md", "benchmarks/e2e/README.md"]


def test_docstring_markdown_references_exist():
    missing = sorted({(module, name) for module, name in docstring_references()
                      if not (REPO / name).is_file()})
    assert missing == []


def test_the_pattern_finds_cross_references():
    assert _CROSS_REFERENCE.findall(
        "see :func:`repro.core.cyclic.wcoj_cost`, :class:`~repro.Planner`"
        " and :meth:`Table.gather`"
    ) == ["repro.core.cyclic.wcoj_cost", "repro.Planner"]


@pytest.mark.parametrize("target, expected", [
    ("repro.planner.Planner.plan", True),
    ("repro.core.cyclic.MAX_SPANNING_TREES", True),
    ("repro.core.bounds.REGRET_FACTOR", False),
    ("repro.engine.wcoj", True),
    ("repro.planner.Planner.replan_everything", False),
    ("repro.no_such_module.name", False),
])
def test_resolves(target, expected):
    assert resolves(target) is expected


def test_docstring_cross_references_resolve():
    targets = set(docstring_references(_CROSS_REFERENCE))
    assert len({name for _, name in targets}) > 50
    assert sorted((module, name) for module, name in targets
                  if not resolves(name)) == []


def test_the_pattern_finds_source_paths():
    assert _SOURCE_PATH.findall(
        "`tests/service/test_postures.py`, tools/check_invariants.py and "
        "benchmarks/e2e/run.py; not tests/engine/test_*.py or "
        "vendor/tests/x.py"
    ) == ["tests/service/test_postures.py", "tools/check_invariants.py",
          "benchmarks/e2e/run.py"]


def test_document_source_paths_exist():
    documents = sorted({path for pattern in DOCUMENTS
                        for path in REPO.glob(pattern)})
    assert len(documents) >= 3
    cited = {(path.relative_to(REPO).as_posix(), name)
             for path in documents
             for name in _SOURCE_PATH.findall(path.read_text())}
    assert len(cited) > 20
    assert sorted((document, name) for document, name in cited
                  if not (REPO / name).is_file()) == []
