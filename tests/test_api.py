"""The package's public names: `__all__` lists exactly what
`metaseg/__init__.py` imports, so a deleted name cannot stay exported."""

import ast
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
