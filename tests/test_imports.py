"""Every imported name is used in the module that imports it, the
package imports at module level only, and its functions stay within a
budget of defaulted parameters.

An ``ast`` scan of the package and the test suite: a name bound by an
import must occur as a name elsewhere in its module.  Exempt are
``from __future__`` imports and the package ``__init__``'s re-exports.
Package modules may not import inside a function; tests may.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "phaseflow").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or path.name == "__init__.py":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def function_level_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}: in {func.name}"
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_function_level_imports(path):
    assert function_level_imports(path) == []


# Defaulted parameters of the package's functions, each an option a caller
# may set.  A change that adds one raises this budget in its own diff.
DEFAULTED_PARAMETER_BUDGET = 23


def defaulted_parameters(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = func.args
            n = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            found += [f"{path.name}:{func.lineno}: {getattr(func, 'name', 'lambda')}"] * n
    return found


def test_defaulted_parameters_within_budget():
    found = [entry for path in PACKAGE for entry in defaulted_parameters(path)]
    assert len(found) <= DEFAULTED_PARAMETER_BUDGET, found
