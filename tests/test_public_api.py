from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import projcode

SRC = Path(projcode.__file__).parent


def _references(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """The (module, name) pairs that the package reads: a bare name in its
    own module or imported from a sibling, or ``module.name``.  Reads inside
    the body of the definition they name do not count."""
    refs = set()
    for module, tree in trees.items():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported[alias.asname or alias.name] = (node.module,
                                                            alias.name)
        for stmt in tree.body:
            own = (module, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    key = imported.get(node.id, (module, node.id))
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in trees):
                    key = (node.value.id, node.attr)
                else:
                    continue
                if key != own:
                    refs.add(key)
    return refs


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _attribute_reads(node: ast.AST) -> Counter:
    """How often each name is read as ``<expr>.name`` within ``node``."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute))


def test_public_definitions_are_used_or_exported():
    # a public module-level function or class must be read somewhere in
    # the package outside its own body, or be part of the public API
    trees = _trees()
    refs = _references(trees)
    unused = [f"{module}.{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in projcode.__all__
              and (module, node.name) not in refs]
    assert not unused, f"no caller in src/ and not exported: {unused}"


def test_public_methods_are_used_or_exported():
    # a public method or property of a class outside the public API must
    # be read as an attribute somewhere in the package outside its own
    # class (a helper only the class reads is private); the match is by
    # name, since the reader's type is not known
    trees = _trees()
    reads = sum((_attribute_reads(tree) for tree in trees.values()),
                Counter())
    unused = [f"{cls.name}.{node.name}"
              for tree in trees.values() for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              and cls.name not in projcode.__all__
              for node in cls.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")
              and reads[node.name] == _attribute_reads(cls)[node.name]]
    assert not unused, f"no reader in src/ and not exported: {unused}"
