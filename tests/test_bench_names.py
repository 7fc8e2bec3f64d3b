"""The benchmark's tracer names functions that exist and are called.

``perfbench/spans.py`` wraps the ``(module, function)`` pairs in its
``SPANNED`` and ``COUNTED`` tables and silently skips a name that
``cadence`` does not have, so a renamed function would make its layer
metric read 0; so would a function that a refactor stopped calling.  The
tables are read from the file's syntax tree; nothing under
``perfbench/`` is imported.
"""

from __future__ import annotations

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

import cadence
from cadence.synth import PlantSpec, generate

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TABLES = ("SPANNED", "COUNTED")
# Traced names that no workload calls, with the reason.
UNCALLED = {
    ("pattern", "expand_tree"): "no hot path calls it; leaf_columns replaced it",
}


# A small synthetic braid log: every stage of mining does some work on it.
SMALL_BRAID = PlantSpec(
    basis="a d=2 b d=1 c",
    depth=2,
    outer_length=(3, 5),
    n_patterns=2,
    shift_level=1,
    shift_density=0.2,
    additive_density=0.1,
    seed=6,
)


def small_braid_log() -> cadence.EventSequence:
    """:data:`SMALL_BRAID`'s perturbed log, read as a user reads one."""
    text = "".join(f"{t}\t{e}\n" for t, e in generate(SMALL_BRAID).perturbed.pairs)
    return cadence.load_sequence(text)


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


def test_traced_functions_are_called(monkeypatch):
    # Wrap each traced function under every cadence name bound to it, as
    # the tracer does, then do what the workloads do: mine a small
    # synthetic braid log, and price its selection from the notations.
    calls: Counter = Counter()
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "cadence"]
    for pair in traced_names():
        module, function = pair
        original = getattr(importlib.import_module(f"cadence.{module}"), function)

        def counting(*args, _pair=pair, _original=original, **kwargs):
            calls[_pair] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)

    seq = small_braid_log()
    result = cadence.mine(seq)
    notations = [c.notation for c in result.selection.candidates]
    cadence.collection_cost([cadence.parse_pattern(n) for n in notations], seq)
    uncalled = {pair for pair in traced_names() if not calls[pair]}
    assert uncalled == set(UNCALLED), calls
