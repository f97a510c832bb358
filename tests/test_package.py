import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import paprlab
import paprlab.autodiff
import paprlab.config
from paprlab.cli import build_parser

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


def _autodiff_names_used(tree: ast.Module) -> set[str]:
    """Names a module takes from paprlab.autodiff: imported from it by name,
    or read as attributes of an alias of the module."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module == "autodiff":
                    names.add(alias.name)
                elif node.module is None and alias.name == "autodiff":
                    aliases.add(alias.asname or alias.name)
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in aliases)
    return names


def test_every_autodiff_export_is_used_by_the_package():
    """An op of the engine that no other module calls is an op only tests run."""
    used = set().union(*(_autodiff_names_used(ast.parse(path.read_text(encoding="utf-8")))
                         for path in SOURCES if path.name != "autodiff.py"))
    unused = sorted(set(paprlab.autodiff.__all__) - used)
    assert not unused, unused


def test_autodiff_use_is_found_both_ways():
    tree = ast.parse("from . import autodiff as ad\nfrom .autodiff import Tensor\n"
                     "import numpy as np\nad.selu(ad.linear)\nnp.reshape\n")
    assert _autodiff_names_used(tree) == {"Tensor", "selu", "linear"}


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


def _readme_commands(text: str) -> list[str]:
    """The first word of each row of the README's | Command | table."""
    lines = text.splitlines()
    start = lines.index("| Command | Writes |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip().strip("`").split()[0])
    return rows


def test_readme_lists_every_command():
    """The README's command table has one row per subcommand of the CLI."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    readme = Path(__file__).resolve().parents[1] / "README.md"
    listed = _readme_commands(readme.read_text(encoding="utf-8"))
    assert sorted(listed) == sorted(subparsers.choices)
    assert len(listed) == len(set(listed))


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


def test_bench_ops_collects():
    """The per-op benchmarks are outside the default run.  Collecting them
    imports every name they use, so deleting one fails here."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", "tests/bench_ops.py"],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


_RUN_WORKLOADS = """
import json, sys
from pathlib import Path
from perfbench import workloads
from perfbench.tests.check_perfbench import TINY_EVAL, TINY_TRAIN
out = {}
for name in ("train-cae", "train-fcae", "eval-suite"):
    overrides = TINY_EVAL if name == "eval-suite" else TINY_TRAIN
    r = workloads.run_workload(name, 1, 0.0, False, Path(sys.argv[1]) / name, overrides)
    out[name] = [r.failed, len(r.checks), [c for c in r.checks if not c[1]]]
print(json.dumps(out))
"""


def test_benchmark_workloads_pass_their_checks(tmp_path):
    """Every benchmark workload runs untimed at the benchmark checks' tiny
    sizes with no failed op and every check passing, so a change that drops
    a name the benchmark looks up fails here.  It runs in a child process,
    because the benchmark drops and re-imports every paprlab module."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _RUN_WORKLOADS, str(tmp_path)], cwd=root,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(results) == ["eval-suite", "train-cae", "train-fcae"]
    for name, (failed, checks, failing) in results.items():
        assert failed == 0 and checks > 0 and failing == [], (name, failing)
