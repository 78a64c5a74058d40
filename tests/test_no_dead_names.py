"""Dead functions get deleted: every top-level function and class of the
package, and every method and property of its classes, is referenced by
the package or the demos outside its own definition, or is public (the
package ``__init__`` imports it), and every parameter is read.  Reads
from the tests do not count: a name that only tests read is package code
that nothing runs."""

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


def _package_trees():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    total = sum((references(tree) for tree in trees.values()), Counter())
    package = ROOT / "src" / "bertinilab"
    total.update(alias.name for node in trees[package / "__init__.py"].body
                 if isinstance(node, ast.ImportFrom) for alias in node.names)
    return total, [(path.name, tree) for path, tree in trees.items()
                   if path.is_relative_to(package)]


def _dead(total, defined) -> list:
    return [f"{where}:{node.name}" for where, node in defined
            if total[node.name] == references(node)[node.name]]


def test_every_top_level_name_is_referenced():
    total, modules = _package_trees()
    defined = [(module, node) for module, tree in modules for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert len(defined) > 100
    dead = _dead(total, defined)
    assert not dead, f"defined but never referenced: {dead}"


def test_every_method_and_property_is_referenced():
    """Methods and properties of the package's classes, dunders aside
    (Python calls those by protocol): a derived property that nothing
    reads is dead code too.  Names are matched as attribute names, so a
    method shares its count with every attribute of the same name."""
    total, modules = _package_trees()
    defined = [(f"{module}:{cls.name}", node) for module, tree in modules
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert len(defined) > 50
    dead = _dead(total, defined)
    assert not dead, f"defined but never referenced: {dead}"


def _unread_parameters(tree) -> list:
    """Parameters (self and cls aside) that no statement of their
    function's body loads by name, nested functions included; an
    attribute of the same name does not count as a read."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {sub.id for stmt in fn.body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        out += [f"{fn.name}({name})" for name in params
                if name not in ("self", "cls") and name not in read]
    return out


def test_every_parameter_is_read():
    """An argument the function never reads is a dead input every caller
    still has to supply."""
    _, modules = _package_trees()
    unread = [f"{module}:{where}" for module, tree in modules
              for where in _unread_parameters(tree)]
    assert not unread, f"parameters never read: {unread}"
