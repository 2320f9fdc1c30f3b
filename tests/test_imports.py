"""Import hygiene: every name a module imports is used in that module, only
``files.py`` opens files or spells a file format, the package uses three
scipy names, only the command line and the package ``__init__`` import the
training module, and only ``__main__`` imports the command line, so
``import quadmatch`` never loads it."""

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
SCIPY_NAMES = {"scipy.optimize.linear_sum_assignment", "scipy.spatial.Delaunay",
               "scipy.spatial.QhullError"}
# inference and the front end need nothing from training; these two compose
# every subcommand or re-export the package's names
TRAIN_IMPORTERS = {"cli.py", "__init__.py"}
CLI_IMPORTERS = {"__main__.py"}


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


def scipy_imports(source: str) -> list[str]:
    """Every scipy module or name an import statement in ``source`` names,
    dotted in full: ``from scipy.x import y`` gives ``scipy.x.y``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            names += [f"{node.module}.{a.name}" for a in node.names]
    return names


def test_package_scipy_surface():
    used = {name for path in PACKAGE for name in scipy_imports(path.read_text(encoding="utf-8"))}
    assert used == SCIPY_NAMES


def test_scipy_scan_names_each_import():
    source = ("import scipy\nimport scipy.sparse as sp\nimport numpy\n"
              "from scipy.sparse.csgraph import maximum_bipartite_matching, floyd_warshall\n"
              "from scipyx import y\nfrom . import scipy\n")
    assert scipy_imports(source) == ["scipy", "scipy.sparse",
                                     "scipy.sparse.csgraph.maximum_bipartite_matching",
                                     "scipy.sparse.csgraph.floyd_warshall"]


def package_imports(source: str, name: str) -> list[int]:
    """Lines of ``source`` whose import statement loads the package's module
    ``name``, in any spelling; for ``train``: ``from .train import x``,
    ``from . import train``, ``import quadmatch.train`` or
    ``from quadmatch import train``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name == f"quadmatch.{name}" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (f".{name}", f"quadmatch.{name}") or (
                    module in (".", "quadmatch") and any(a.name == name for a in node.names)):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name not in TRAIN_IMPORTERS],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_the_cli_imports_train(path):
    assert package_imports(path.read_text(encoding="utf-8"), "train") == []


# the benchmark's set-up runs ``import quadmatch``, so a change to the command
# line cannot move its set-up time or memory
@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name not in CLI_IMPORTERS],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_main_imports_the_cli(path):
    assert package_imports(path.read_text(encoding="utf-8"), "cli") == []


def test_train_scan_flags_each_spelling():
    source = ("from .train import forward\nfrom . import train\nimport quadmatch.train\n"
              "from quadmatch import train as t\nfrom quadmatch.train import TrainConfig\n"
              "from .trainer import x\nfrom .refine import train\nfrom . import refine\n"
              "import quadmatch.training_set\nimport train\n")
    assert package_imports(source, "train") == [1, 2, 3, 4, 5]
