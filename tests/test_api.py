"""The package's public names: `__all__` lists exactly what
`metaseg/__init__.py` imports, so a deleted name cannot stay exported,
and every `module.name` the README and the docstrings cite exists, so a
deleted name cannot stay documented."""

import ast
import importlib
import re
from pathlib import Path

import metaseg


def imported_names():
    tree = ast.parse(Path(metaseg.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names if not alias.name.startswith("_")
    }


def test_star_import_binds_every_export():
    namespace = {}
    exec("from metaseg import *", namespace)
    assert set(metaseg.__all__) <= namespace.keys()


def test_all_lists_exactly_the_imported_names():
    assert len(metaseg.__all__) == len(set(metaseg.__all__))
    assert set(metaseg.__all__) == imported_names()


MODULES = ("analysis", "cli", "features", "metaclf", "raster", "scoring", "segments",
           "synth")
# A backticked `raster.thread_map`, `metaseg.raster.thread_map` or
# `segments.label_image(...)`: the module and the name it cites.
REFERENCE = re.compile(rf"`(?:metaseg\.)?({'|'.join(MODULES)})\.(\w+)")
ROOT = Path(__file__).resolve().parent.parent


def docstrings(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield doc


def unresolved(texts):
    refs = [ref for text in texts for ref in REFERENCE.findall(text)]
    assert refs, "no references found"
    return [
        f"{module}.{name}" for module, name in refs
        if not hasattr(importlib.import_module(f"metaseg.{module}"), name)
    ]


def test_readme_references_resolve():
    assert unresolved([(ROOT / "README.md").read_text()]) == []


def test_docstring_references_resolve():
    paths = sorted(Path(metaseg.__file__).parent.glob("*.py"))
    assert unresolved(d for p in paths for d in docstrings(p)) == []
