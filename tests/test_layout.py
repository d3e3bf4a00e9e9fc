"""Package layout: every public top-level function or class in src/regsing is
reached from outside the tests, or is a listed independent oracle, every
name the benchmark's tracer wraps exists, src imports nothing but the
standard library, numpy and itself, and importing the CLI starts no
process machinery."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "regsing"
# kept though only the tests call them: each checks a claim by another route
ORACLES = {"moments_from_multiset"}
ALLOWED_IMPORTS = sys.stdlib_module_names | {"numpy", "regsing"}


def mentions(node: ast.AST) -> set:
    """Identifiers node mentions: names, attribute names, import aliases and
    identifier-shaped string constants (a name looked up by string)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                found.add(sub.value)
    return found


def unreached() -> set:
    """Public top-level definitions that no other src module, no other part of
    their own module and no identifier in perfbench/*.py mentions."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        bench.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    names = set()
    for path, tree in trees.items():
        others = set(bench)
        for other, other_tree in trees.items():
            if other != path:
                others |= mentions(other_tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            rest = set().union(*(mentions(n) for n in tree.body if n is not node))
            if node.name not in others | rest:
                names.add(node.name)
    return names


def test_only_oracles_are_reached_from_tests_alone():
    # equality, not inclusion: an oracle that the package starts to use, or
    # that is deleted, leaves the list too
    assert unreached() == ORACLES


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    """perfbench/worker.py's Tracer wraps layer functions by name, such as
    mc_harness.fp_det or sample_configuration, and a traced benchmark run
    fails at start if one is missing.  Its install runs here on throwaway
    copies of the regsing modules, which leaves the package as it is."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("bench_worker", ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    real, copies = {}, {}
    for name in ("cli", "gfp_core", "graph_model", "lclt", "mc_harness", "rate_ldp", "walk_census"):
        real[name] = importlib.import_module(f"regsing.{name}")
        copies[name] = types.ModuleType(real[name].__name__)
        vars(copies[name]).update(vars(real[name]))
    worker.Tracer().install(copies)
    wrapped = {
        name for name, mod in copies.items() for attr, value in vars(mod).items() if value is not vars(real[name])[attr]
    }
    assert wrapped == {"mc_harness", "walk_census", "lclt", "rate_ldp"}


def test_src_imports_only_stdlib_numpy_and_itself():
    # scipy, sympy and hypothesis are test-only; the package runs on numpy alone
    outside = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.partition(".")[0]]
            else:
                continue
            outside.update(f"{path.name}: {top}" for top in tops if top not in ALLOWED_IMPORTS)
    assert not outside


def test_cli_import_leaves_the_process_pool_out():
    # mc_harness imports its process pool only for a parallel run, so a serial
    # command does not load concurrent.futures.process or multiprocessing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, regsing.cli; print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
