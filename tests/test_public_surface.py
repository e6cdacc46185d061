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
``bench/``, or is a field that a ``getattr`` table in ``bench/`` reads from its
class (``BENCH_FIELDS``, each entry checked against the strings there), or it
is in ``KEPT_MEMBERS``. A string in ``bench/`` reaches no member by itself: its
dict keys name document and result fields, not members. Attribute reads match
by name alone, so a read of ``x.dim`` reaches every public ``dim``.
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
    "eigenvectors": "read only by the hermitian_eig tests; leaves with the eigensolver (direction 1)",
    "groups": "read only by the hermitian_eig tests; leaves with the eigensolver (direction 1)",
}

# class -> the fields a getattr table in bench/ reads from its instances, by the strings that name them there
BENCH_FIELDS = {
    "ConjunctionReport": {"p_a", "p_b", "p_a_then_b", "p_b_then_a", "order_asymmetry"},  # workloads.py's `fields`
    "TotalProbabilityReport": {"p_direct", "p_via_partition", "interference"},  # reference.py's "values" keys
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


def _bench_paths() -> list[Path]:
    return sorted((ROOT / "bench").glob("*.py"))


def _attribute_reads(paths) -> set[str]:
    read: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _bench_strings() -> set[str]:
    return {
        node.value
        for path in _bench_paths()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _unreached_members(trees: dict[str, ast.Module]) -> set[str]:
    read = _attribute_reads([*sorted(PACKAGE.glob("*.py")), *_bench_paths()])
    unreached = set()
    for tree in trees.values():
        public = set(_public_names(tree))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in public:
                unreached |= _public_members(node) - read - BENCH_FIELDS.get(node.name, set())
    return unreached


def test_every_unreached_public_name_is_kept_for_a_reason():
    assert _unreached() == set(KEPT)


def test_every_unreached_public_member_is_kept_for_a_reason():
    assert _unreached_members(_package_trees()) == set(KEPT_MEMBERS)


def test_each_bench_field_is_a_public_member_named_in_bench():
    """A ``BENCH_FIELDS`` entry holds only while ``bench/`` still names the field and its class still has it."""
    classes = {
        node.name: _public_members(node)
        for tree in _package_trees().values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    strings = _bench_strings()
    for cls, fields in BENCH_FIELDS.items():
        assert fields <= classes[cls] and fields <= strings, cls


def test_a_member_named_like_a_bench_dict_key_is_still_unreached():
    """``"groups"`` is a dict key in ``bench/``; a planted class member of that name that nothing reads is flagged."""
    assert "groups" in _bench_strings() and "groups" not in _attribute_reads(_bench_paths())
    planted = ast.parse('__all__ = ["Planted"]\n\n\nclass Planted:\n    groups: tuple\n\n    def sizes(self): ...\n')
    assert _unreached_members({"planted": planted}) == {"groups", "sizes"}
