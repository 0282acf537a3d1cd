"""The package surface: what `semroute` exports, and what its modules share."""

import ast
from pathlib import Path

import semroute

PACKAGE = Path(semroute.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in semroute.__all__ if not hasattr(semroute, name)]
    assert not missing
    assert len(set(semroute.__all__)) == len(semroute.__all__)


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    private = [
        f"{path.name}:{node.lineno}: {alias.name}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("semroute"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private


def test_the_reference_shares_no_code_with_what_it_referees():
    # `tests/bruteforce.py` decides the relations the kernel decides; it may
    # use the model and the knowledge base, but none of the relations.
    path = Path(__file__).with_name("bruteforce.py")
    refereed = {
        "semroute.syntactic",
        "semroute.semantic",
        "semroute.routing",
        "semroute.sim",
    }
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "semroute.model" in imported
    assert not imported & refereed
