"""Checks on the package source itself: imports, function signatures and
where the CLI prints errors."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import racnshare

SOURCES = sorted(p for p in Path(racnshare.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__'s imports are the public list
MODULES = [importlib.import_module(f"racnshare.{m.name}")
           for m in pkgutil.iter_modules(racnshare.__path__)]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import in ``tree`` that no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_no_function_takes_a_budget():
    # every search reads rainbow.NODE_BUDGET; a per-call budget would be a second one
    found = []
    for module in MODULES:
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            funcs = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                funcs += [(f"{name}.{k}", v) for k, v in vars(obj).items() if inspect.isfunction(v)]
            for qual, fn in funcs:
                found += [f"{module.__name__}.{qual}({p})"
                          for p in inspect.signature(fn).parameters if "budget" in p]
    assert found == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_function_calls_itself(path):
    # every search is an explicit stack: recursion would hit the interpreter's
    # depth limit on long paths, a RecursionError instead of a budget
    def callee(call):
        f = call.func
        if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) in ("self", "cls"):
            return f.attr
        return getattr(f, "id", None)

    found = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{fn.name} (line {call.lineno})" for call in ast.walk(fn)
                      if isinstance(call, ast.Call) and callee(call) == fn.name]
    assert found == []


def code_names(tree: ast.Module) -> set[str]:
    """Every name that ``tree``'s code reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_only_rainbow_knows_the_packed_path_state():
    # the enumerator's packed state and the adjacency that builds it stay
    # behind rainbow.py, so no other module decodes a path's bits
    found = [f"{path.name}: {name}"
             for path in Path(racnshare.__file__).parent.glob("*.py") if path.name != "rainbow.py"
             for name in sorted(code_names(ast.parse(path.read_text(encoding="utf-8")))
                                & {"_rainbow_paths", "_adjacency"})]
    assert found == []


def test_only_cli_main_turns_errors_into_exit_codes():
    # a command raises on bad input; main alone prints "error: ..." and picks
    # the exit code, so exit 2 has one route and one message style
    cli = Path(racnshare.__file__).parent / "cli.py"
    found = []
    for fn in ast.walk(ast.parse(cli.read_text(encoding="utf-8"))):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "main":
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                    and node.value.value == 2):
                found.append(f"{fn.name} returns 2 (line {node.lineno})")
            elif (isinstance(node, ast.Attribute) and node.attr == "stderr"
                  and getattr(node.value, "id", None) == "sys"):
                found.append(f"{fn.name} names sys.stderr (line {node.lineno})")
    assert found == []
