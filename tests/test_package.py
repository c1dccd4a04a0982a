"""The package exports exactly its modules' public names; the benchmark's
imports resolve, and every source file parses as Python 3.10."""

import ast
import importlib
from pathlib import Path

import relaytree

MODULES = ("alphabet", "bounds", "kernel", "logdomain", "oracle", "simulate")
ROOT = Path(__file__).resolve().parent.parent


def test_exports_are_the_union_of_the_module_exports():
    want = {}
    for name in MODULES:
        module = importlib.import_module(f"relaytree.{name}")
        want.update({attr: getattr(module, attr) for attr in module.__all__})
    assert len(want) == 60
    assert relaytree.__all__ == sorted(want)
    for attr, obj in want.items():
        assert getattr(relaytree, attr) is obj


def test_simulate_is_the_module():
    assert relaytree.simulate is importlib.import_module("relaytree.simulate")


def test_logdomain_exports():
    logdomain = importlib.import_module("relaytree.logdomain")
    assert logdomain.__all__ == ["LogProb", "log1mexp", "log_sum_exp"]


def bench_imports() -> list:
    """(file, module, name) for each `from relaytree... import name` in bench/."""
    found = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "relaytree":
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


def resolves(module: str, name: str) -> bool:
    """Whether `from module import name` succeeds: an attribute, or else a
    submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_bench_imports_resolve():
    # bench/ runs against this package, so a name it imports must not go
    found = bench_imports()
    assert len(found) == 15
    missing = [f"{file}: from {module} import {name}"
               for file, module, name in found if not resolves(module, name)]
    assert missing == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10.  This checks the
    # grammar only: a stdlib function or module newer than 3.10 still passes.
    paths = [p for top in ("src", "tests", "bench") for p in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_cli_imports_no_private_name():
    # the CLI goes through each module's public names, so the rules it
    # holds a run to are the ones an API caller meets
    path = ROOT / "src" / "relaytree" / "cli.py"
    private = [f"from {'.' * node.level}{node.module or ''} import {alias.name}"
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
