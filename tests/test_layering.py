"""Module layering: ingest, trees, pricing and mining stack in that order.

``core`` (ingest and errors) imports no sibling module, and ``pattern``
(trees and notation) prices nothing and mines nothing, so it imports
neither ``codec`` nor ``miner``.  Every import statement counts,
including those inside function bodies.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import cadence

PACKAGE = Path(cadence.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def sibling_imports(source: str) -> set[str]:
    """Sibling modules of ``cadence`` that a module's source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = "cadence" + (f".{node.module}" if node.module else "")
            else:
                base = node.module or ""
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if len(parts) > 1 and parts[0] == "cadence" and parts[1] in MODULES:
                found.add(parts[1])
    return found


@pytest.fixture(scope="module")
def graph() -> dict[str, set[str]]:
    return {
        name: sibling_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for name in MODULES
    }


def test_walker_sees_every_import_form():
    source = (
        "import cadence.core\n"
        "from cadence.synth import generate\n"
        "from .pattern import Block\n"
        "def late():\n"
        "    from . import codec\n"
    )
    assert sibling_imports(source) == {"core", "synth", "pattern", "codec"}


def test_core_imports_no_sibling_module(graph):
    assert graph["core"] == set()


def test_pattern_imports_neither_codec_nor_miner(graph):
    assert graph["pattern"] & {"codec", "miner"} == set()
