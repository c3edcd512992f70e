"""The library ships only what it runs.

Every top-level `def` or `class` of `src/ogaction/*.py` must be referenced
somewhere in `src/ogaction` outside its own definition, or be named in
`perfbench/tracer.py` `TARGETS` (as ``Name`` or ``Name.attr``), which the
benchmark's tracer wraps by name (the tracer raises on a target that no
longer resolves, which `pytest perfbench` checks).  A name that neither the
library nor the tracer reaches belongs in the tests that call it
(`tests/extra_fixtures.py` holds the structures only tests build).
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ogaction"


def _tracer_targets() -> dict[str, tuple[str, ...]]:
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_surface_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _referenced(node: ast.AST) -> set[str]:
    """The identifiers that `node` reads: names, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def unreached_names() -> list[str]:
    """`module.name` for every top-level definition nothing reaches."""
    statements = {
        path.stem: [(node, _referenced(node)) for node in ast.parse(path.read_text()).body]
        for path in sorted(SRC.glob("*.py"))
    }
    pinned = {
        (layer, target.split(".", 1)[0])
        for layer, targets in _tracer_targets().items()
        for target in targets
    }
    unreached = []
    for module, body in statements.items():
        for node, _ in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or (module, node.name) in pinned:
                continue
            if not any(
                node.name in names
                for other_body in statements.values()
                for stmt, names in other_body
                if stmt is not node
            ):
                unreached.append(f"{module}.{node.name}")
    return unreached


def test_every_public_definition_is_reached_by_the_library_or_the_tracer():
    assert unreached_names() == []

