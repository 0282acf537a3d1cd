"""The package surface: what `semroute` exports, and what its modules share."""

import ast
import functools
from pathlib import Path

import semroute

from .conftest import ROOT

PACKAGE = Path(semroute.__file__).resolve().parent
TRACING = ROOT / "bench" / "tracing.py"


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


def _tracer_targets() -> list[tuple[str, str]]:
    """The (owner, attribute) pairs that `bench/tracing.py` patches, read
    from its `COUNTED`, `COUNTED_TRUE`, `TIMED` and `SPANNED` tables without
    importing it; each owner as its dotted name."""
    tables = {"COUNTED", "COUNTED_TRUE", "TIMED", "SPANNED"}
    found = set()
    targets = []
    for node in ast.parse(TRACING.read_text(), filename=str(TRACING)).body:
        name = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(name, ast.Name) and name.id in tables:
            found.add(name.id)
            for entry in node.value.elts:
                owner, attribute, _ = entry.elts
                targets.append((ast.unparse(owner), attribute.value))
    assert found == tables
    return targets


def test_every_name_the_tracer_patches_resolves():
    for owner, attribute in _tracer_targets():
        _, *path = owner.split(".")
        obj = functools.reduce(getattr, path, semroute)
        # `Tracer._patch` reads the raw attribute from the owner itself.
        assert attribute in vars(obj), (owner, attribute)


def test_every_unused_import_is_one_the_tracer_patches():
    patched = set(_tracer_targets())
    kept = [
        (f"semroute.{path.stem}", alias.asname or alias.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for source in [path.read_text()]
        for node in ast.walk(ast.parse(source, filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and "# noqa: F401" in source.splitlines()[node.end_lineno - 1]
        for alias in node.names
    ]
    assert kept
    assert set(kept) <= patched
