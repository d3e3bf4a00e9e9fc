"""Package layout: every public top-level function or class in src/regsing is
reached from outside the tests, or is a listed independent oracle, every
name the benchmark's tracer wraps exists, src imports nothing but the
standard library, numpy and itself, the exact core imports no numpy, and
importing the CLI, or running a serial or exact subcommand, starts no
process machinery and loads no module it does not call."""

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
# the exact core: the census, the local limit and their checks, numpy-free
CORE = ("common", "walk_census", "lclt")
POOL = {"concurrent.futures.process", "multiprocessing"}


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


def imported(path: Path) -> set:
    """Modules path imports, anywhere in it: dotted names as written, a
    relative import as regsing.<module>."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            mods = [node.module] if node.module else [alias.name for alias in node.names]
            names.update(f"regsing.{mod}" for mod in mods)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


def test_src_imports_only_stdlib_numpy_and_itself():
    # scipy, sympy and hypothesis are test-only; the package runs on numpy
    # alone, and the exact core on the standard library and itself alone
    cases = [
        (sorted(SRC.glob("*.py")), ALLOWED_IMPORTS, set()),
        ([SRC / f"{name}.py" for name in CORE], sys.stdlib_module_names, {f"regsing.{mod}" for mod in CORE}),
    ]
    for paths, tops, modules in cases:
        outside = {
            f"{path.name}: {name}"
            for path in paths
            for name in imported(path)
            if name.partition(".")[0] not in tops and name not in modules
        }
        assert not outside


def test_cli_import_leaves_the_process_pool_out(tmp_path):
    # mc_harness imports its process pool only for a parallel run, so a serial
    # command does not load concurrent.futures.process or multiprocessing; the
    # CLI imports a subcommand's numpy layers only when that subcommand runs
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("REGSING_OUT_DIR", None)
    runs = ["exact --n 10 --d 3 --p 2".split(), "lclt --n 12 --d 3 --p 2".split(), "oracle --n 2 --d 3 --p 2".split()]
    runs.append(["report", "--out", str(tmp_path)])
    cli_absent = POOL | {"numpy"}
    table = [
        ("import " + ", ".join(f"regsing.{name}" for name in CORE), {"numpy"}),
        ("import regsing.cli", cli_absent),
    ]
    table += [(f"import regsing.cli; assert regsing.cli.main({argv!r}) == 0", cli_absent) for argv in runs]
    for code, absent in table:
        code += f"; import sys; print(sorted({sorted(absent)!r} & sys.modules.keys()))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, (code, proc.stderr)
        assert proc.stdout.splitlines()[-1] == "[]", code
