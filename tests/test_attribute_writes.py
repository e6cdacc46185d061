"""Each attribute layout has one owner: only a class's own methods write its instance dict.

Every ``vars(x)`` or ``x.__dict__`` write in ``src/`` (a subscript store or
delete, or a mutating method call on it) must target ``self``: the first
parameter of a method of the class whose body holds the write, or, in a
classmethod, the result of ``self = cls.__new__(cls)``. So no module writes
another class's attributes past ``_Immutable``'s refusal.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qdecision"
_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _instance_dict_of(node: ast.AST) -> ast.AST | None:
    """``x`` when ``node`` is ``vars(x)`` or ``x.__dict__``, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars" and len(node.args) == 1:
        return node.args[0]
    if isinstance(node, ast.Attribute) and node.attr == "__dict__":
        return node.value
    return None


def _written(node: ast.AST) -> ast.AST | None:
    """The object whose instance dict ``node`` writes, or None when ``node`` writes none."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return _instance_dict_of(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
        return _instance_dict_of(node.func.value)
    return None


def _body(fn: ast.FunctionDef):
    """Every node of ``fn``'s body, without descending into a nested function, lambda or class."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _self_is_own_instance(fn: ast.FunctionDef) -> bool:
    """``self`` in ``fn``, a function in a class body, is an instance of that class: an instance method's first
    parameter never rebound, or a classmethod's ``self = cls.__new__(cls)``, its only binding of ``self``."""
    decorators = {ast.unparse(d) for d in fn.decorator_list}
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    binds = [n for n in _body(fn) if isinstance(n, ast.Name) and n.id == "self" and not isinstance(n.ctx, ast.Load)]
    if "classmethod" in decorators:
        made = [n for n in _body(fn) if isinstance(n, ast.Assign) and ast.unparse(n) == "self = cls.__new__(cls)"]
        return params[:1] == ["cls"] and len(binds) == len(made) > 0
    return "staticmethod" not in decorators and params[:1] == ["self"] and not binds


def _foreign_writes(source: str) -> list[str]:
    """``line: code`` of each instance-dict write in ``source`` whose target is not its method's own ``self``."""
    tree = ast.parse(source)
    owned = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for fn in cls.body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _self_is_own_instance(fn):
                owned.update(id(n) for n in _body(fn) if isinstance(_written(n), ast.Name) and _written(n).id == "self")
    return [f"{n.lineno}: {ast.unparse(n)}" for n in ast.walk(tree) if _written(n) and id(n) not in owned]


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_a_class_writes_its_own_instance_dict(path):
    assert _foreign_writes(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_the_package_writes():
    """The rule above is not vacuous: each module that builds immutable values writes instance dicts."""
    writers = {p.stem for p in MODULES if any(map(_written, ast.walk(ast.parse(p.read_text(encoding="utf-8")))))}
    assert {"linalg", "variables", "engine", "phenomena"} <= writers


OWN = {
    "method item": "class A:\n    def f(self):\n        vars(self)['x'] = 1\n",
    "method __dict__": "class A:\n    def __init__(self, x):\n        self.__dict__.update(x=x)\n",
    "classmethod": "class A:\n    @classmethod\n    def make(cls):\n        self = cls.__new__(cls)\n        vars(self).update(x=1)\n",
    "a read": "def f(p):\n    return vars(p)['x'] + len(p.__dict__)\n",
}

FOREIGN = {
    "module function": "def f(p):\n    vars(p).update(matrix=1)\n",
    "module level": "vars(p)['x'] = 1\n",
    "delete": "def f(p):\n    del p.__dict__['x']\n",
    "another object in a method": "class A:\n    def f(self, p):\n        vars(p)['x'] = 1\n",
    "self rebound": "class A:\n    def f(self, p):\n        self = p\n        vars(self)['x'] = 1\n",
    "classmethod self from elsewhere": "class A:\n    @classmethod\n    def make(cls, p):\n        self = p\n        vars(self)['x'] = 1\n",
    "staticmethod": "class A:\n    @staticmethod\n    def f(self):\n        vars(self).setdefault('x', 1)\n",
    "nested function": "class A:\n    def f(self):\n        def g():\n            self.__dict__['x'] = 1\n",
}


@pytest.mark.parametrize("source", OWN.values(), ids=OWN)
def test_a_write_to_its_own_instance_passes(source):
    assert _foreign_writes(source) == []


@pytest.mark.parametrize("source", FOREIGN.values(), ids=FOREIGN)
def test_a_write_to_another_object_is_found(source):
    assert len(_foreign_writes(source)) == 1
