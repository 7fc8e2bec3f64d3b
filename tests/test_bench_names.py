"""The benchmark's tracer names functions that exist.

``perfbench/spans.py`` wraps the ``(module, function)`` pairs in its
``SPANNED`` and ``COUNTED`` tables and silently skips a name that
``cadence`` does not have, so a renamed function would make its layer
metric read 0.  The tables are read from the file's syntax tree; nothing
under ``perfbench/`` is imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TABLES = ("SPANNED", "COUNTED")


def traced_names() -> list[tuple[str, str]]:
    """The ``(module, function)`` pairs of ``SPANNED`` and ``COUNTED``."""
    tables = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in TABLES:
                    tables[target.id] = ast.literal_eval(node.value)
    assert set(tables) == set(TABLES)
    return [pair for name in TABLES for pair in tables[name]]


@pytest.mark.parametrize("module, function", traced_names())
def test_traced_function_exists(module, function):
    found = getattr(importlib.import_module(f"cadence.{module}"), function, None)
    assert callable(found), f"cadence.{module}.{function}"
