"""Every function, class and method defined in src/ is named somewhere else in src/.

A definition is named when an identifier, attribute or identifier-shaped
string (the package's lazy forwarding table) outside its own body spells it;
imports do not count. Methods match by their bare name, so this finds code
that nothing in the package reaches, not every unused overload.
"""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nlhodge"

# Bound by name only for perfbench/tracing.py; each leaves src/ once the
# package records its own trace (ROADMAP item 1).
TRACER_ONLY = {
    "rank_exact",
    "kernel_matrix",
    "hodge_laplacian",
    "TupleSet.contains",
    "HomotopyOperator.psi_matrix",
}


def _names(node: ast.AST) -> Counter:
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out[n.value] += 1
    return out


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node) of each module-level def and class and of
    each method. Dunders are called by the language, and a method that overrides
    one of a base class is called by that base."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("__"):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            mro = getattr(importlib.import_module(f"nlhodge.{module}"), node.name).__mro__
            for member in node.body:
                if isinstance(member, defs) and not member.name.startswith("__") and not any(
                    member.name in vars(base) for base in mro[1:]
                ):
                    yield f"{node.name}.{member.name}", member.name, member


def _unnamed() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    return {
        qualified
        for module, tree in trees.items()
        for qualified, bare, node in _definitions(module, tree)
        if everywhere[bare] == _names(node)[bare]
    }


def test_every_src_definition_is_named_in_src():
    assert _unnamed() == TRACER_ONLY


def test_tracer_only_names_are_still_bound_by_the_tracer():
    tracing = _names(ast.parse((ROOT / "perfbench" / "tracing.py").read_text()))
    for qualified in TRACER_ONLY:
        assert tracing[qualified.rsplit(".", 1)[-1]], qualified
