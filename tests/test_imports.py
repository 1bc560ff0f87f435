"""Every imported name is used in the module that imports it, the
package imports at module level only, every module-level function, class
and constant of the package and every method and property of its classes
is used in the package, every dataclass field and ``__init__`` attribute
of its classes is read, every parameter of its functions is read, its
functions hold exactly the budgeted number of defaulted parameters, and the
functions of the splitting loop's inner iteration build no sparse structure.

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
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
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


def names_in(node: ast.AST) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def attribute_reads(paths) -> set[str]:
    """Attribute names the files load, or update in place with an
    augmented assignment such as ``report.count += 1``."""
    reads = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                reads.add(node.target.attr)
    return reads


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def stored_attributes(node: ast.ClassDef) -> list[tuple[int, str]]:
    """(line, name) of a dataclass's fields and of the ``self`` attributes
    its ``__init__`` assigns."""
    found = []
    if is_dataclass(node):
        found += [(member.lineno, member.target.id) for member in node.body
                  if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)]
    for member in node.body:
        if isinstance(member, ast.FunctionDef) and member.name == "__init__":
            found += [(target.lineno, target.attr) for target in ast.walk(member)
                      if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                      and isinstance(target.value, ast.Name) and target.value.id == "self"]
    return found


def assigned_names(node: ast.Assign | ast.AnnAssign) -> list[str]:
    """The names a top-level assignment binds, tuple targets unpacked;
    dunders such as ``__all__`` are exempt."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and not n.id[:2] == n.id[-2:] == "__"]


# ``dump_config`` and ``load_config`` read every field of the flat
# configuration through ``dataclasses.fields``
REFLECTIVE = {"app.py": {"Config"}}


def unused_definitions() -> list[str]:
    """Module-level functions, classes and constants (see
    ``assigned_names``) of the package that no other top-level statement of
    the package names, as a name or an attribute, and methods and
    properties of its classes that no other statement of the package names,
    a sibling member included; the ``__init__`` re-exports do not count as
    a use, and dunder methods are exempt.  Also the dataclass
    fields and ``__init__`` attributes of the package's classes that nothing
    in the package or under ``perfbench/`` reads (see ``attribute_reads``),
    the classes in ``REFLECTIVE`` exempt."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in PACKAGE if path.name != "__init__.py"}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    statements = [(node, names_in(node)) for tree in trees.values() for node in tree.body]
    reads = attribute_reads(PACKAGE + PERFBENCH)
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            outside = [names for other, names in statements if other is not node]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                unused += [f"{path.name}:{node.lineno}: {name}" for name in assigned_names(node)
                           if not any(name in names for names in outside)]
            if not isinstance(node, (*functions, ast.ClassDef)):
                continue
            if not any(node.name in names for names in outside):
                unused.append(f"{path.name}:{node.lineno}: {node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in REFLECTIVE.get(path.name, ()):
                unused += [f"{path.name}:{line}: {node.name}.{name}"
                           for line, name in stored_attributes(node) if name not in reads]
            members = [(member, names_in(member)) for member in node.body]
            for member in node.body:
                if not isinstance(member, functions) or member.name[:2] == member.name[-2:] == "__":
                    continue
                siblings = [names for other, names in members if other is not member]
                if not any(member.name in names for names in outside + siblings):
                    unused.append(f"{path.name}:{member.lineno}: {node.name}.{member.name}")
    return unused


def test_every_definition_is_used_in_the_package():
    assert unused_definitions() == []


def unread_parameters(path: pathlib.Path) -> list[str]:
    """Parameters of the file's functions and lambdas that their bodies,
    nested functions included, never name; ``self``, ``cls`` and
    ``_``-prefixed names are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = func.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = func.body if isinstance(func.body, list) else [func.body]
        named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found += [f"{path.name}:{func.lineno}: {getattr(func, 'name', 'lambda')}({name})"
                  for name in params
                  if name not in ("self", "cls") and not name.startswith("_")
                  and name not in named]
    return found


def test_every_parameter_is_read():
    assert [entry for path in PACKAGE for entry in unread_parameters(path)] == []


# Defaulted parameters of the package's functions, each an option a caller
# may set.  A change that adds or removes one sets this count in its own diff.
DEFAULTED_PARAMETER_BUDGET = 4


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
    assert len(found) == DEFAULTED_PARAMETER_BUDGET, found


# The functions of the splitting loop's inner iteration write their
# operators into fixed per-mesh patterns; none of them may build a sparse
# structure anew through these calls.
LOOP_FUNCTIONS = {"solve_momentum", "solve_saddle", "apply_velocity_dirichlet", "assemble_Nb",
                  "ch_diffusive_solve", "fe_convection_matrix"}
RESTRUCTURING_CALLS = {"bmat", "coo_array", "diags_array", "tocsr", "tocsc", "eliminate_zeros",
                       "sum_duplicates"}


def restructuring_calls(paths) -> tuple[set[str], list[str]]:
    """The ``LOOP_FUNCTIONS`` the files define, and every call of a
    ``RESTRUCTURING_CALLS`` name in them, by name or as an attribute."""
    defined, found = set(), []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef) or func.name not in LOOP_FUNCTIONS:
                continue
            defined.add(func.name)
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    callee = node.func
                    name = callee.attr if isinstance(callee, ast.Attribute) else \
                        getattr(callee, "id", None)
                    if name in RESTRUCTURING_CALLS:
                        found.append(f"{path.name}:{node.lineno}: {func.name} calls {name}")
    return defined, found


def test_the_splitting_loop_builds_no_sparse_structure():
    defined, found = restructuring_calls(PACKAGE)
    assert defined == LOOP_FUNCTIONS
    assert found == []
