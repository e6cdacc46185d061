"""Every public name of a ``qdecision`` module is reached, or kept for a stated reason.

A name in a module's ``__all__`` is reached when another module of the
package reads it (a re-export in ``__init__.py`` does not count), when its
own module reads it outside its own definition, or when a script in
``bench/`` imports it from ``qdecision``, reads it as ``<module>.<name>``, or
names it in a ``"<module>.<name>"`` string (the tracer's targets). Imports
inside the package are not reads. The unreached names must be exactly
``KEPT``: a new unreached public name fails here, and a name leaves ``KEPT``
once something reaches it.

The public members of the classes in ``__all__`` (methods, properties and
class-level annotated fields, so every dataclass field) are held to the same
rule one level down: each is read as ``.<member>`` somewhere in ``src/`` or
``bench/``, or is named by a string constant in ``bench/`` (its ``getattr``
field tables), or it is in ``KEPT_MEMBERS``. Members match by name alone, so a
read of ``x.dim`` reaches every public ``dim``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qdecision"

KEPT = {
    "scenario_to_document": "README documents it",
    "planar_projector": "README documents it",
    "classical_conditional": "acceptance criterion 6 imports it",
    "likelihood_effect": "the paper's likelihood route to the Born rule; a query kind will reach it",
    "apply_function": "the paper's functions of a maximal variable; a query kind will reach it",
    "conjugate": "the paper's unitary relation between maximal variables; a query kind will reach it",
    "are_complementary": "the paper's complementary maximal variables; a query kind will reach it",
}

KEPT_MEMBERS = {
    "probability_of": "acceptance criterion 7 reads an outcome's probability by value",
    "eigenvalues": "read only by the hermitian_eig tests; leaves with the eigensolver (direction 1)",
}

DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _read_names(tree: ast.AST, skip: str | None = None) -> set[str]:
    """Bare names read in ``tree``, outside the definition named ``skip``.

    Attribute names do not count, so ``np.trace`` does not reach a ``trace``.
    """
    read: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, DEFINITIONS) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return read


def _bench_names(modules: set[str]) -> set[str]:
    named: set[str] = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qdecision":
                named.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if len(parts) > 1 and parts[0] in modules:
                    named.add(parts[1])
    return named


def _public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _package_trees() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _unreached() -> set[str]:
    trees = _package_trees()
    read_in = {module: _read_names(tree) for module, tree in trees.items()}
    in_bench = _bench_names(set(trees))
    unreached = set()
    for module, tree in trees.items():
        for name in _public_names(tree):
            elsewhere = any(name in read for other, read in read_in.items() if other != module)
            at_home = name in _read_names(tree, skip=name)
            if not (elsewhere or at_home or name in in_bench):
                unreached.add(name)
    return unreached


def _public_members(cls: ast.ClassDef) -> set[str]:
    members = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            members.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members.add(node.target.id)
    return {m for m in members if not m.startswith("_")}


def _attribute_reads(paths, with_strings: bool) -> set[str]:
    read: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def _unreached_members() -> set[str]:
    read = _attribute_reads(sorted(PACKAGE.glob("*.py")), with_strings=False)
    read |= _attribute_reads(sorted((ROOT / "bench").glob("*.py")), with_strings=True)
    unreached = set()
    for tree in _package_trees().values():
        public = set(_public_names(tree))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in public:
                unreached |= _public_members(node) - read
    return unreached


def test_every_unreached_public_name_is_kept_for_a_reason():
    assert _unreached() == set(KEPT)


def test_every_unreached_public_member_is_kept_for_a_reason():
    assert _unreached_members() == set(KEPT_MEMBERS)
