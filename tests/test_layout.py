"""The package holds only what its pipeline runs.

Every public function and public method in ``src/skybps`` must be referenced
somewhere in the package outside its own definition: a function by name or
as an attribute, a method as an attribute.  Where another class holds a data
attribute of the method's name (a dataclass field, or an assignment to
``self.<name>``), an attribute of that name counts for the method only on a
value the checker types as the method's class: ``self`` in its methods, the
class itself, a parameter annotated with it, or a local assigned a call of
it.  Import statements and ``__all__`` do not count.  A name that only tests
reach belongs in the tests (``tests/oracles.py`` for references that tests
compare against) or nowhere.  ``cli.main`` is the entry point.

Every field of a dataclass in ``src/skybps`` must be read in the package: as
an attribute, or, for a class whose own methods read ``vars(self)``, through
that.  A field that only tests read is not carried.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "skybps"
EXEMPT = {"cli.main"}


def _public_definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, node) of public module-level functions and
    public methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _is_all(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _references(tree: ast.Module):
    """(name, node) for every Name and Attribute, skipping imports and ``__all__``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and _is_all(node):
            continue
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        stack.extend(ast.iter_child_nodes(node))


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _classes(trees: dict[str, ast.Module]) -> list[ast.ClassDef]:
    return [c for tree in trees.values() for c in tree.body if isinstance(c, ast.ClassDef)]


def _data_attributes(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Bare name -> the classes that hold a data attribute of that name: a
    class-level annotation (a dataclass field) or an assignment to
    ``self.<name>``."""
    held: dict[str, set[str]] = {}
    for cls in _classes(trees):
        names = {item.target.id for item in cls.body
                 if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
        names |= {n.attr for n in ast.walk(cls)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                  and isinstance(n.value, ast.Name) and n.value.id == "self"}
        for name in names:
            held.setdefault(name, set()).add(cls.name)
    return held


def _typed_attributes(trees: dict[str, ast.Module]) -> dict[int, str]:
    """id of an attribute node -> the class of the value it is taken on,
    where the checker can tell: the class named itself, the first parameter
    of one of its methods, a parameter annotated with it, or a local
    assigned a call of it, in the same function."""
    names = {c.name for c in _classes(trees)}
    owner = {id(item): c.name for c in _classes(trees) for item in c.body}
    typed = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            types = {}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if id(node) in owner and args:
                    types[args[0].arg] = owner[id(node)]
                for a in args:
                    if isinstance(a.annotation, ast.Name) and a.annotation.id in names:
                        types[a.arg] = a.annotation.id
                for n in ast.walk(node):
                    if (isinstance(n, ast.Assign) and len(n.targets) == 1
                            and isinstance(n.targets[0], ast.Name) and isinstance(n.value, ast.Call)
                            and isinstance(n.value.func, ast.Name) and n.value.func.id in names):
                        types[n.targets[0].id] = n.value.func.id
            elif not isinstance(node, ast.Module):
                continue
            for n in ast.walk(node):
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                    cls = types.get(n.value.id, n.value.id if n.value.id in names else None)
                    if cls is not None:
                        typed[id(n)] = cls
    return typed


def unreferenced_public_names() -> list[str]:
    trees = _trees()
    refs: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for name, node in _references(tree):
            refs.setdefault(name, []).append(node)
    held, typed = _data_attributes(trees), _typed_attributes(trees)
    orphans = []
    for module, tree in trees.items():
        for qualified, name, node in _public_definitions(tree, module):
            if name.startswith("_") or qualified in EXEMPT:
                continue
            inside = {id(n) for n in ast.walk(node)}
            uses = [r for r in refs.get(name, ()) if id(r) not in inside]
            if qualified.count(".") == 2:
                # a method is reached as an attribute; a local of its name is no use
                uses = [r for r in uses if isinstance(r, ast.Attribute)]
                cls = qualified.split(".")[1]
                if held.get(name, set()) - {cls}:
                    # another class's data attribute of this name: only an
                    # attribute on a value typed as this class is a use
                    uses = [r for r in uses if typed.get(id(r)) == cls]
            if not uses:
                orphans.append(qualified)
    return orphans


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _reads_vars_of_self(node: ast.ClassDef) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "vars" and len(n.args) == 1
               and isinstance(n.args[0], ast.Name) and n.args[0].id == "self"
               for n in ast.walk(node))


def unread_dataclass_fields() -> list[str]:
    trees = _trees()
    reads = {n.attr for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if (not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls))
                    or _reads_vars_of_self(cls)):
                continue
            for item in cls.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and item.target.id not in reads):
                    unread.append(f"{module}.{cls.name}.{item.target.id}")
    return unread


def test_every_public_name_is_reached_from_the_package():
    assert unreferenced_public_names() == []


def test_every_dataclass_field_is_read_in_the_package():
    assert unread_dataclass_fields() == []


_CLASHING_NAMES = """
from dataclasses import dataclass


@dataclass
class Record:
    riemannian: bool
    diagnostics: dict


class Metric:
    def riemannian(self):
        return True

    def det(self):
        return 1.0


class Survey:
    def diagnostics(self):
        return {}


def _run(rec: Record, metric):
    survey = Survey()
    return rec.riemannian, rec.diagnostics, survey.diagnostics(), metric.det()
"""


def test_a_field_of_another_class_does_not_reach_a_method(monkeypatch):
    # Record.riemannian is read, which says nothing of Metric.riemannian;
    # Survey.diagnostics is reached on a local the checker types, and
    # Metric.det, whose name no class holds as data, on any value
    monkeypatch.setattr("test_layout._trees",
                        lambda: {"synthetic": ast.parse(_CLASHING_NAMES)})
    assert unreferenced_public_names() == ["synthetic.Metric.riemannian"]
