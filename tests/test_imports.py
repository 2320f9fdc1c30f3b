"""Import hygiene: every name a module imports is used in that module, and
only ``files.py`` opens files or spells a file format."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "quadmatch").glob("*.py"))
# the package ``__init__`` imports in order to re-export
FILES = sorted([p for p in PACKAGE if p.name != "__init__.py"]
               + list((ROOT / "tests").glob("*.py")) + list((ROOT / "scripts").glob("*.py")))
FORMAT_CALLS = re.compile(r"\bopen\(|\bjson\.(dump|load)|\bio\.StringIO")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads.

    A dotted ``import a.b`` binds ``a``; ``from __future__`` imports are
    directives, not names.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_name():
    source = ("from __future__ import annotations\nimport os\nimport a.b\n"
              "from x import y, z as w\ndef f() -> y:\n    return a.b\n")
    assert unused_imports(source) == ["os (line 2)", "w (line 4)"]


def format_calls(source: str) -> list[str]:
    """Lines that open a file or write or read JSON or a CSV buffer."""
    return [line.strip() for line in source.splitlines() if FORMAT_CALLS.search(line)]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "files.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_formats_only_in_files_module(path):
    assert format_calls(path.read_text(encoding="utf-8")) == []


def test_format_scan_flags_each_call():
    source = ("with open(p) as fh:\n    json.dump(x, fh)\ny = json.loads(s)\n"
              "buf = io.StringIO()\nexcept json.JSONDecodeError:\nreopen(p)\n")
    assert format_calls(source) == ["with open(p) as fh:", "json.dump(x, fh)",
                                    "y = json.loads(s)", "buf = io.StringIO()"]
