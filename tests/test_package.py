import argparse
import ast
import json
import os
import subprocess
import sys
from itertools import takewhile
from pathlib import Path
from types import SimpleNamespace

import pytest

import paprlab
import paprlab.config
from paprlab import cli, harness
from paprlab.cli import build_parser
from paprlab.config import NEURAL_METHODS
from paprlab.models import CaeModel, FcAeModel

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
    used.update(_exports(tree))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert SOURCES
    unused = {path.name: found for path in SOURCES
              if (found := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert not unused, unused


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _defined(tree: ast.Module) -> set[str]:
    """Names a module's top level defines: functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _unexported(tree: ast.Module) -> list[str]:
    """Public names a module's top level defines but leaves out of its __all__."""
    return sorted(name for name in _defined(tree) - set(_exports(tree))
                  if not name.startswith("_"))


def test_every_export_is_defined_in_its_module():
    """A module exports exactly the public names it defines, so no module
    re-exports another's names, a folded module cannot return as a shim, and
    every public name is checked for a reader by the test below."""
    foreign, unexported = {}, {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if names := sorted(set(_exports(tree)) - _defined(tree)):
            foreign[path.stem] = names
        if names := _unexported(tree):
            unexported[path.stem] = names
    assert not foreign, foreign
    assert not unexported, unexported


def test_reexport_is_flagged():
    tree = ast.parse("from .x import a\nimport y as b\ndef c(): pass\nclass D: pass\n"
                     "e, f = 1, 2\ng: int = 3\n__all__ = ['a', 'b', 'c', 'D', 'e', 'f', 'g']\n")
    assert sorted(set(_exports(tree)) - _defined(tree)) == ["a", "b"]


def test_unexported_public_name_is_flagged():
    tree = ast.parse("def a(): pass\nclass B: pass\nC = 1\n_d = 2\ndef _e(): pass\n"
                     "__all__ = ['a']\n")
    assert _unexported(tree) == ["B", "C"]


def _names_read(tree: ast.Module, module: str) -> set[str]:
    """Names a module takes from its sibling paprlab.<module>: imported from it
    by name, or read as attributes of an alias of the module."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module == module:
                    names.add(alias.name)
                elif node.module is None and alias.name == module:
                    aliases.add(alias.asname or alias.name)
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in aliases)
    return names


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name and attribute in a tree: the benchmark reads paprlab
    through attribute chains off the modules it imports.  A name it only
    patches, given as a string, is not read: its tracer's op tables still
    name ops the package has deleted, such as conv1d and batch_norm."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _loads(tree: ast.Module) -> set[str]:
    """Names a module reads, leaving out a name it only sets attributes on,
    as in QAM4_LABELS.flags.writeable = False, which is part of defining it."""
    set_on = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            while isinstance(node, ast.Attribute):
                node = node.value
            set_on.add(id(node))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load) and id(node) not in set_on}


def _unread_exports(modules: dict[str, ast.Module], bench: list[ast.Module]) -> list[str]:
    """module.name for each name in a module's __all__ that no pipeline code
    reads: not its own module beyond the definition, no other module and not
    the benchmark."""
    read_by_bench = set().union(*map(_identifiers, bench))
    unread = []
    for module, tree in modules.items():
        read = read_by_bench | _loads(tree)
        read.update(*(_names_read(other, module) for name, other in modules.items()
                      if name != module))
        unread += [f"{module}.{name}" for name in _exports(tree) if name not in read]
    return unread


# Exports that only tests read, each a reference a test checks the pipeline against.
TEST_REFERENCES = {
    "optim.adamw_update": "the AdamW oracle that optim.AdamW's blocked update must match",
    "chain.rapp_gain": "the RAPP gain oracle the differentiable amplifier is checked against",
    "ofdm.QAM4_LABELS": "the label table test_ofdm checks ml_detect and Gray adjacency against",
}


def test_every_export_is_read_by_the_pipeline():
    """A name a module exports that only tests read is code only tests run,
    unless it is a listed test reference."""
    root = Path(__file__).resolve().parents[1]
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    bench = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((root / "perfbench").glob("*.py"))]
    assert bench
    assert sorted(_unread_exports(modules, bench)) == sorted(TEST_REFERENCES)


def test_export_reads_are_found_every_way():
    modules = {
        "a": ast.parse("__all__ = ['own', 'user', 'named', 'aliased', 'bench', 'patched', 'dead']\n"
                       "def own(): pass\ndef user(): return own()\n"
                       "named = aliased = bench = patched = dead = 1\n"
                       "dead.flags.writeable = False\n"),
        "b": ast.parse("from . import a as m\nfrom .a import named\nprint(m.aliased, named)\n"),
    }
    bench = [ast.parse("pkg.a.bench\npatch(pkg.a, 'patched')\n")]
    assert _unread_exports(modules, bench) == ["a.user", "a.patched", "a.dead"]
    assert _unread_exports(modules, []) == ["a.user", "a.bench", "a.patched", "a.dead"]


def test_autodiff_use_is_found_both_ways():
    tree = ast.parse("from . import autodiff as ad\nfrom .autodiff import Tensor\n"
                     "import numpy as np\nad.selu(ad.linear)\nnp.reshape\n")
    assert _names_read(tree, "autodiff") == {"Tensor", "selu", "linear"}


def _thread_builds(tree: ast.Module) -> list[int]:
    """Lines that call ThreadPoolExecutor or threading.Thread, under any alias."""
    makers = {"ThreadPoolExecutor", "Thread"}
    makers.update(alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name in makers and alias.asname)
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in makers]


def test_only_autodiff_builds_a_thread():
    """The package's one extra thread is autodiff._worker: no other module
    builds a thread pool or a thread, so whether a process may use a second
    core is decided in one place."""
    builds = {path.stem: lines for path in SOURCES
              if (lines := _thread_builds(ast.parse(path.read_text(encoding="utf-8"))))}
    assert list(builds) == ["autodiff"] and len(builds["autodiff"]) == 1, builds


def test_thread_build_is_flagged():
    tree = ast.parse("import threading\nimport concurrent.futures as cf\n"
                     "from concurrent.futures import ThreadPoolExecutor as Pool\n"
                     "threading.Thread(target=print)\ncf.ThreadPoolExecutor(1)\nPool(2)\n"
                     "threading.Event()\n")
    assert _thread_builds(tree) == [4, 5, 6]


_RUN_COMMANDS = """
import json, sys, threading
from paprlab import harness
from paprlab.config import config_from_dict
cfg = config_from_dict({
    "system": {"n_subcarriers": 8, "oversampling": 4},
    "model": {"enc_channels": [4, 3], "dec_channels": [3, 4], "fc_hidden": [24, 32]},
    "train": {"epochs": 1, "batches_per_epoch": 2, "batch_size": 8, "stage1_epochs": 0},
    "eval": {"p_snr_db": [8.0], "ber_symbols": 300, "ccdf_symbols": 300, "psd_symbols": 300,
             "table_symbols": 300, "batch": 200, "obo_acpr_ibo_db": [2.0]},
    "methods": ["none", "cf", "slm", "cae"], "slm": {"num_sequences": 4},
    "output_dir": sys.argv[1],
})
checkpoints = {"cae": harness.run_train(cfg, arch="cae")[0]}
for command in (harness.eval_ber, harness.eval_ccdf, harness.eval_psd, harness.eval_table,
                harness.eval_obo_vs_acpr):
    command(cfg, checkpoints)
print(json.dumps(sorted(t.name for t in threading.enumerate())))
"""


def test_training_and_eval_leave_one_extra_thread(tmp_path):
    """After a training run and the five eval commands a process holds its
    main thread and autodiff's worker, and no other thread."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, str(tmp_path)], cwd=root,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == ["MainThread", "paprlab-worker_0"]


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


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_readme_lists_every_command():
    """The README's command table has one row per subcommand of the CLI."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    listed = _readme_commands(readme.read_text(encoding="utf-8"))
    assert sorted(listed) == sorted(_subcommands())
    assert len(listed) == len(set(listed))


def test_eval_commands_are_one_table_of_harness_functions():
    """cli._EVAL_COMMANDS is the one list of eval commands: each runs its own
    eval function of harness, each of those is run by exactly one command,
    and the parser offers train and exactly the table's commands."""
    runs = [run for run, _ in cli._EVAL_COMMANDS.values()]
    assert all(run is getattr(harness, run.__name__) for run in runs)
    assert sorted(run.__name__ for run in runs) == sorted(
        name for name in harness.__all__ if name.startswith("eval_"))
    assert list(_subcommands()) == ["train", *cli._EVAL_COMMANDS]


def test_model_kinds_are_the_neural_methods():
    """The model classes, the config's neural methods and train --arch name
    the same kinds."""
    assert {cls.kind for cls in (CaeModel, FcAeModel)} == set(NEURAL_METHODS)
    arch = next(action for action in _subcommands()["train"]._actions if action.dest == "arch")
    assert arch.choices == NEURAL_METHODS


def test_readme_lists_every_module():
    """The README's layout table has one row per module of the package."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    rows = takewhile(lambda line: line.startswith("|"),
                     lines[lines.index("| Module | Owns |") + 2:])
    listed = [row.split("|")[1].strip().strip("`") for row in rows]
    assert sorted(listed) == sorted(path.stem for path in SOURCES if path.stem != "__init__")
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


def _bench_ops(*args: str) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *args], cwd=root, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def bench_ops_collected() -> subprocess.CompletedProcess:
    return _bench_ops("--collect-only", "tests/bench_ops.py")


def test_bench_ops_collects(bench_ops_collected):
    """The per-op benchmarks are outside the default run.  Collecting them
    imports every name they use, so deleting one fails here."""
    assert bench_ops_collected.returncode == 0, (bench_ops_collected.stdout
                                                 + bench_ops_collected.stderr)


def test_bench_ops_run_once(bench_ops_collected):
    """The first case of every per-op benchmark runs once, untimed, so a
    call the benchmarks make that no longer fits the code fails here."""
    first = {}
    for line in bench_ops_collected.stdout.splitlines():
        if line.startswith("tests/bench_ops.py::"):
            first.setdefault(line.partition("[")[0], line)
    assert first, bench_ops_collected.stdout
    proc = _bench_ops("--benchmark-disable", *first.values())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{len(first)} passed" in proc.stdout, proc.stdout


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
