"""pyproject.toml declares what the code imports: CI installs the package
with its test extra, so a third-party module that the package, the tests,
the demos or the benchmark import but pyproject.toml leaves out breaks a
fresh install, and a declared one that nothing imports is dead."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src", "tests", "demos", "perfbench")


def _imported_top_level_modules(paths) -> set:
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                out.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                out.add(node.module.split(".")[0])
    return out


def _declared_distributions() -> set:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = list(project["dependencies"])
    for extra in project.get("optional-dependencies", {}).values():
        requirements += extra
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}


def test_third_party_imports_are_declared():
    """Third-party means neither the standard library nor the repo's own
    modules: the package and every module file under the scanned folders
    (the benchmark's run and tracer, test helpers).  Each such module here
    is installed under its own name."""
    paths = [path for folder in FOLDERS for path in sorted((ROOT / folder).rglob("*.py"))]
    own = {"bertinilab"} | {path.stem for path in paths}
    third_party = (_imported_top_level_modules(paths) - own
                   - set(sys.stdlib_module_names))
    assert {"numpy", "pytest"} <= third_party
    assert third_party == _declared_distributions()
