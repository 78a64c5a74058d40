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


def _locals(fn) -> set:
    """The names a function or lambda binds: its parameters and, in its
    own body (nested functions' bodies aside), what it assigns, imports or
    defines, less what it declares global or nonlocal."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    declared = set()
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_name(alias) for alias in node.names)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return names - declared


def _bound_name(alias) -> str:
    """The name an import binds: ``import a.b`` binds a."""
    return alias.asname or alias.name.split(".")[0]


def _unread_imports(tree) -> list:
    """The names imported in the tree, ``from __future__`` aside, that no
    read resolves to.  A name loaded is looked up from the innermost
    function out to the module, so a local variable of a function that
    shares an imported name's spelling does not read the import."""
    reads, imported = set(), []

    def visit(node, chain):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported.extend((chain[-1][0], _bound_name(alias)) for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add((next((scope for scope, names in reversed(chain) if node.id in names),
                            tree), node.id))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            inner = chain + [(node, _locals(node))]
            # decorators, defaults and annotations belong to the enclosing scope
            for child in ast.iter_child_nodes(node):
                visit(child, inner if any(child is b for b in body) else chain)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, chain)

    visit(tree, [(tree, set())])
    return [name for scope, name in imported if (scope, name) not in reads]


def test_every_import_is_read():
    """Every name a package module imports is read in the scope that
    imports it, the package ``__init__``, whose imports are its public
    names, aside: a leftover import is a dead name too."""
    modules = [(module, tree) for module, tree in _package_trees()[1]
               if module != "__init__.py"]
    assert len(modules) >= 8
    unread = [f"{module}:{name}" for module, tree in modules
              for name in _unread_imports(tree)]
    assert not unread, f"imported but never read: {unread}"
