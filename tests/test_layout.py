"""``src/`` holds only what the program runs.

Every top-level function or class must be reached from ``cli.main`` or
from a module's top-level statements, through the names each reached
definition references, and a public method must be called somewhere in
``src/``.  The modules are the API: ``__init__.py`` holds no names.  Routes
that only tests call live in ``tests/reference.py``, and each of them must
be named by a test module or by another definition there.  Every name a
module imports must be used in that module, and every constant a module
assigns at its top level must be read by ``src/`` code.  Every field of a
``src/`` dataclass must be read, by attribute name, in ``src/`` or
``tests/``: a record field nothing reads is dead weight.  Every defaulted
parameter of a function in ``src/`` must be set by some call in ``src/``
or ``tests/``: a knob nothing turns is a constant.
"""

import ast
from pathlib import Path

import clusterforge

SRC = Path(clusterforge.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
TESTS = Path(__file__).parent


def _referenced(tree) -> set:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _definitions():
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, node


def test_every_definition_is_reached_from_main():
    definitions: dict = {}
    for _, node in _definitions():
        definitions.setdefault(node.name, []).append(node)
    main = [node for node in MODULES["cli"].body if getattr(node, "name", None) == "main"]
    # the roots are main and the top-level statements; an import binds a name without using it
    pending = main + [
        node
        for tree in MODULES.values()
        for node in tree.body
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))
    ]
    reached = {"main"}
    while pending:
        for name in _referenced(pending.pop()) & definitions.keys() - reached:
            reached.add(name)
            pending.extend(definitions[name])
    unreached = [
        f"{module}.{node.name}" for module, node in _definitions() if node.name not in reached
    ]
    assert unreached == []


def test_every_public_method_is_called():
    called = set().union(*(_referenced(tree) for tree in MODULES.values()))
    uncalled = [
        f"{module}.{cls.name}.{method.name}"
        for module, cls in _definitions()
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("_")
        and method.name not in called
    ]
    assert uncalled == []


def test_every_import_is_used():
    unused = []
    for module, tree in MODULES.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{module}: {name}")
    assert unused == []


def test_every_module_constant_is_read():
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in MODULES.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module}.{target.id}"
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id not in read
    ]
    assert unread == []


def test_every_dataclass_field_is_read():
    trees = [*MODULES.values(), *(ast.parse(path.read_text()) for path in TESTS.glob("*.py"))]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module}.{cls.name}.{field.target.id}"
        for module, cls in _definitions()
        if isinstance(cls, ast.ClassDef)
        and any(getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in cls.decorator_list)
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and field.target.id not in read
    ]
    assert unread == []


def test_every_reference_definition_is_used():
    reference = ast.parse((TESTS / "reference.py").read_text())
    test_names = set().union(
        *(_referenced(ast.parse(path.read_text())) for path in TESTS.glob("test_*.py"))
    )
    unused = [
        node.name
        for node in reference.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in test_names
        and not any(node.name in _referenced(other) for other in reference.body if other is not node)
    ]
    assert unused == []


def _calls_by_name() -> dict:
    calls: dict = {}
    trees = [*MODULES.values(), *(ast.parse(path.read_text()) for path in TESTS.glob("*.py"))]
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _defaulted_parameters(tree):
    """(function, parameter, position in a call or None) per defaulted parameter.

    A call to a method names its arguments after ``self``, so a method's
    positions count from its second parameter.
    """
    methods = {
        id(item)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and not any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        skip = 1 if id(node) in methods else 0
        for index in range(first, len(positional)):
            yield node.name, positional[index].arg, index - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _sets(call, parameter, position) -> bool:
    """Whether ``call`` sets the parameter by keyword, by position or through ``*``/``**``."""
    if any(kw.arg is None or kw.arg == parameter for kw in call.keywords):
        return True
    if position is None:  # keyword-only
        return False
    return len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args)


def test_every_default_is_overridden_somewhere():
    calls = _calls_by_name()
    unset = [
        f"{module}.{function}({parameter})"
        for module, tree in MODULES.items()
        for function, parameter, position in _defaulted_parameters(tree)
        if not any(_sets(call, parameter, position) for call in calls.get(function, []))
    ]
    assert unset == []
