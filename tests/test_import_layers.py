"""Each ``pmssc`` module imports only the package modules its layer allows.

The table is the package's layering: the densest-subfamily ladders (``pds``)
reach the LP engine only through ``pmc``, and nothing low imports the CLI.
A module that needs a new package import, or a new module, is added here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pmssc"

ALLOWED = {
    "__init__": {"core", "scheduler"},
    "bounds": {"errors", "rng"},
    "cli": {"core", "errors", "fileio", "oracle", "pmc", "precedence", "scheduler"},
    "core": {"errors"},
    "errors": set(),
    "fileio": {"core", "errors", "rng"},
    "lp": {"core", "errors"},
    "maxcov": {"core", "errors"},
    "oracle": {"core", "errors"},
    "pds": {"core", "errors", "maxcov", "pmc", "rng"},
    "pmc": {"bounds", "core", "errors", "lp", "rng"},
    "precedence": {"core", "errors"},
    "rng": set(),
    "scheduler": {"core", "errors", "oracle", "pds", "rng"},
}


def package_imports(path: Path) -> set:
    """The ``pmssc`` modules that ``path`` imports, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.split(".")[0] == "pmssc":
                parts = node.module.split(".")
                found.update([parts[1]] if len(parts) > 1 else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "pmssc" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_is_in_the_layer_table():
    assert sorted(path.stem for path in SRC.glob("*.py")) == sorted(ALLOWED)


def test_modules_import_only_their_allowed_layers():
    breaches = {
        path.stem: sorted(package_imports(path) - ALLOWED[path.stem])
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: extra for name, extra in breaches.items() if extra} == {}


def test_the_scan_sees_relative_and_absolute_imports(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from . import oracle as o\n"
        "from .lp import WarmStart\n"
        "import pmssc.maxcov\n"
        "def late():\n"
        "    from pmssc.rng import stream\n"
        "    from pmssc import fileio\n"
        "import numpy\n"
    )
    assert package_imports(module) == {"oracle", "lp", "maxcov", "rng", "fileio"}
