"""`src/sgns` holds what the verbs and the demos run.  Every public
module-level function and class of `src/sgns/*.py`, and every public method
of a class there, must be named by another definition of `src/` or by a
demo (`demos/*.py`); code that only the tests reach belongs with the tests,
as an oracle module or a conftest helper.  The check reads the sources with
`ast` and runs nothing.

A name counts as reached when it appears, as a name or an attribute, outside
its own definition; an import alone does not reach it.  So a helper that
only an unreached function calls passes until that function is gone."""

import ast
from pathlib import Path

from sgns.cli import VERBS

ROOT = Path(__file__).resolve().parents[1]

# public names no definition or demo names, kept on purpose
ALLOWED = {
    # the verb runners, which `cli.run_command` looks up by name from `cli.VERBS`
    *VERBS.values(),
    # the reader of the binary snapshot layout that README documents
    "read_snapshot",
    # read by `bench/test_bench.py`
    "RunConfig.base_seed",
}


def _definitions(tree: ast.Module) -> list:
    """(qualified name, short name, node) of each public module-level
    function and class and each public method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out.append((f"{node.name}.{item.name}", item.name, item))
    return out


def _references(tree: ast.Module) -> list:
    """(name, enclosing definition nodes) of every name and attribute read."""
    refs = []

    def walk(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners + (node,)
        if isinstance(node, ast.Name):
            refs.append((node.id, owners))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, owners))
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    walk(tree, ())
    return refs


def unreached() -> list:
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "sgns").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))}
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    missing = []
    for path, tree in trees.items():
        if path.parent.name != "sgns":
            continue
        for qualname, name, node in _definitions(tree):
            if not any(ref == name and node not in owners for ref, owners in refs):
                missing.append(f"{path.stem}.{qualname}")
    return missing


def test_every_public_definition_is_reached_by_src_or_a_demo():
    missing = [name for name in unreached() if name.split(".", 1)[1] not in ALLOWED]
    assert missing == [], f"reached only by tests, if at all: {missing}"


def test_every_allowed_name_is_defined_and_unreached():
    # an allow-list entry that something now reaches, or that no longer
    # exists, is stale
    assert {name.split(".", 1)[1] for name in unreached()} >= ALLOWED
