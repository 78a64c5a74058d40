"""Dead functions get deleted: every top-level function and class of the
package is referenced somewhere outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def references(node) -> Counter:
    """Names read in the subtree: bare loads and attribute names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def test_every_top_level_name_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "demos", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    total = sum((references(tree) for tree in trees.values()), Counter())
    package = ROOT / "src" / "bertinilab"
    defined = [(path.name, node) for path, tree in trees.items()
               if path.is_relative_to(package) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert len(defined) > 100
    dead = [f"{module}:{node.name}" for module, node in defined
            if total[node.name] == references(node)[node.name]]
    assert not dead, f"defined but never referenced: {dead}"
