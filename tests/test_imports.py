"""Import hygiene: every name a module imports is used in that module, only
``files.py`` opens files or spells a file format, the package uses three
scipy names, only the command line and the package ``__init__`` import the
training module, only ``__main__`` imports the command line, so
``import quadmatch`` never loads it, and the package itself names only its
modules and what the benchmark reads from it. Also the package's settable
surface outside the command line: every parameter with a default and every
config field, pinned in one table."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "quadmatch").glob("*.py"))
# the package ``__init__`` imports modules in order to load them
FILES = sorted([p for p in PACKAGE if p.name != "__init__.py"]
               + list((ROOT / "tests").glob("*.py")) + list((ROOT / "scripts").glob("*.py")))
FORMAT_CALLS = re.compile(r"\bopen\(|\bjson\.(dump|load)|\bio\.StringIO")
SCIPY_NAMES = {"scipy.optimize.linear_sum_assignment", "scipy.spatial.Delaunay",
               "scipy.spatial.QhullError"}
# inference and the front end need nothing from training; these two compose
# every subcommand or load every module
TRAIN_IMPORTERS = {"cli.py", "__init__.py"}
CLI_IMPORTERS = {"__main__.py"}
# every parameter with a default, by module and qualified function name, and
# every field of a config class: a change that adds or drops a settable value
# edits this table (the command line's options are pinned in test_cli.py)
DEFAULTED = {
    "autodiff.Var.__init__": ("parents", "backward"),
    "autodiff.asum": ("axis", "keepdims"),
    "cli.main": ("argv",),
    "refine.init_parameters": ("n_layers",),
    "train.train": ("params",),
}
CONFIG_FIELDS = {
    "losses.LossConfig": ("alpha", "beta", "clip_eps"),
    "synth.SynthConfig": ("n_inliers", "d", "classes", "feature_noise", "coord_jitter",
                          "n_outliers", "seed", "rotate_b"),
    "train.TrainConfig": ("epochs", "learning_rate", "m1", "m2", "loss", "seed", "loss_cfg",
                          "tau", "n_layers"),
}


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


def package_names(source: str) -> set[str]:
    """Names that ``from quadmatch import ...`` statements in ``source`` read
    from the package itself."""
    return {a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "quadmatch"
            for a in node.names}


def test_package_surface():
    # a fresh interpreter, since other tests load the command line
    script = ("import json, sys, types, quadmatch\n"
              "print(json.dumps([sorted(m for m in sys.modules if m.startswith('quadmatch.')),\n"
              "                  sorted(k for k, v in vars(quadmatch).items() if k[0] != '_'\n"
              "                         and not isinstance(v, types.ModuleType))]))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    loaded, names = json.loads(out)
    modules = {p.stem for p in PACKAGE}
    assert loaded == sorted(f"quadmatch.{m}" for m in modules - {"__init__", "__main__", "cli"})
    benchmark = set().union(*(package_names(p.read_text(encoding="utf-8"))
                              for p in (ROOT / "perfbench").glob("*.py")))
    assert names == sorted(benchmark - modules)


def settable_values(source: str, module: str) -> tuple[dict, dict]:
    """The parameters with a default of each function or lambda in
    ``source``, keyed ``module.qualified_name``, and the annotated fields of
    each class whose name ends in ``Config``."""
    defaulted, fields = {}, {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            name = prefix + (child.name if scoped else "<lambda>")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = child.args
                positional = a.posonlyargs + a.args
                names = [p.arg for p in positional[len(positional) - len(a.defaults):]]
                names += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                if names:
                    defaulted[name] = tuple(names)
            if isinstance(child, ast.ClassDef) and child.name.endswith("Config"):
                fields[name] = tuple(f.target.id for f in child.body
                                     if isinstance(f, ast.AnnAssign))
            visit(child, f"{name}." if scoped else prefix)

    visit(ast.parse(source), f"{module}.")
    return defaulted, fields


def test_settable_surface_is_pinned():
    defaulted, fields = {}, {}
    for path in PACKAGE:
        d, f = settable_values(path.read_text(encoding="utf-8"), path.stem)
        defaulted.update(d)
        fields.update(f)
    assert defaulted == DEFAULTED
    assert fields == CONFIG_FIELDS


def test_settable_scan_names_each_form():
    source = ("def f(a, b=1, *args, c, d=2, **kw):\n    g = lambda x, y=0: x\n"
              "    def inner(z=3):\n        pass\n"
              "class C:\n    def m(self, e=4):\n        pass\n"
              "class RunConfig:\n    n: int = 1\n    seed: int\n    def h(self): pass\n"
              "def plain(a, *, b):\n    pass\n")
    assert settable_values(source, "mod") == (
        {"mod.f": ("b", "d"), "mod.f.<lambda>": ("y",), "mod.f.inner": ("z",),
         "mod.C.m": ("e",)},
        {"mod.RunConfig": ("n", "seed")})
