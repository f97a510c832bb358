import ast
from pathlib import Path
from types import SimpleNamespace

import paprlab
import paprlab.config

SOURCES = sorted(Path(paprlab.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but neither uses nor lists in its __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert SOURCES
    unused = {path.name: found for path in SOURCES
              if (found := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert not unused, unused


def test_package_init_imports_nothing():
    """Every name has one import path, its submodule."""
    tree = ast.parse(Path(paprlab.__file__).read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_unused_import_is_flagged():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\nimport os.path\nfrom .x import a, b as c\n"
                     "__all__ = ['a']\nprint(os.path.sep)\n")
    assert _unused_imports(tree) == ["line 2: math", "line 4: c"]


def test_benchmark_configs_build(tmp_path, monkeypatch):
    """Every benchmark workload's config builds, bare and with the benchmark
    checks' tiny overrides.  The benchmark sets fields such as
    train.schedule and eval.batch, so deleting one would fail every run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import workloads
    from perfbench.tests import check_perfbench

    pkg = SimpleNamespace(config=paprlab.config)
    for wl in workloads.WORKLOADS.values():
        for overrides in (None, check_perfbench.TINY_TRAIN, check_perfbench.TINY_EVAL):
            workloads.make_config(pkg, wl, 1, tmp_path, overrides)
