"""Module layering: ingest, trees, pricing and mining stack in that order.

``core`` (ingest and errors) imports no sibling module, and ``pattern``
(trees and notation) prices nothing and mines nothing, so it imports
neither ``codec`` nor ``miner``.  Every import statement counts,
including those inside function bodies.  No module uses another's
underscore-prefixed names, so each one's public functions are the only
way in: the miner prices through ``codec``'s public pricing path.  Only
``codec`` (and ``core``, which defines it) takes logarithms, so the
encoder's terms have one home; only ``codec`` and ``pattern`` read where a
tree's repetition lies and where its last one ends; no module keeps a
function cache: what is computed once lives on its object; no module
imports ``threading`` or ``concurrent.futures``, so mining runs in the
caller's thread; and every field of ``MiningConfig`` and
``IngestOptions`` is read somewhere outside its class, so no setting
does nothing.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import cadence

PACKAGE = Path(cadence.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def imports(source: str) -> set[str]:
    """Dotted names a module's source imports: each module, and for
    ``from module import name`` also ``module.name``, with relative
    imports resolved inside ``cadence``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = "cadence" + (f".{node.module}" if node.module else "")
            else:
                base = node.module or ""
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def sibling_imports(source: str) -> set[str]:
    """Sibling modules of ``cadence`` that a module's source imports."""
    found = set()
    for target in imports(source):
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


def test_walker_sees_standard_library_imports():
    source = (
        "import threading\n"
        "def late():\n"
        "    from concurrent import futures\n"
    )
    assert {"threading", "concurrent.futures"} <= imports(source)


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_threads(name):
    # Stage S runs in the caller's thread: CPython's GIL ran a thread
    # pool over its events one thread at a time, for the pool's cost.
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert not {
        target
        for target in imports(source)
        for banned in ("threading", "concurrent.futures")
        if target == banned or target.startswith(banned + ".")
    }


def test_core_imports_no_sibling_module(graph):
    assert graph["core"] == set()


def test_pattern_imports_neither_codec_nor_miner(graph):
    assert graph["pattern"] & {"codec", "miner"} == set()


def foreign_private_names(source: str) -> set[str]:
    """``module._name`` references a module's source makes to another
    ``cadence`` module's underscore-prefixed (non-dunder) names, by import
    or by attribute."""

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    bound: dict[str, str] = {}  # local name -> sibling module
    found = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = "cadence" + (f".{node.module}" if node.module else "")
            else:
                base = node.module or ""
            parts = base.split(".")
            if parts[0] != "cadence":
                continue
            for alias in node.names:
                if len(parts) == 1 and alias.name in MODULES:
                    bound[alias.asname or alias.name] = alias.name
                elif len(parts) > 1 and parts[1] in MODULES and private(alias.name):
                    found.add(f"{parts[1]}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cadence" and len(parts) > 1 and alias.asname:
                    bound[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not private(node.attr):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in bound:
            found.add(f"{bound[value.id]}.{node.attr}")
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "cadence"
            and value.attr in MODULES
        ):
            found.add(f"{value.attr}.{node.attr}")
    return found


def test_private_name_walker_sees_imports_and_attributes():
    source = (
        "import cadence.codec\n"
        "import cadence.pattern as pat\n"
        "from .codec import _layout_bits, pattern_cost\n"
        "from . import miner\n"
        "def late():\n"
        "    from cadence.core import _parse_line\n"
        "    return miner._dedupe, pat._root_parts, miner.__name__\n"
        "cadence.codec._LOG2_3\n"
    )
    assert foreign_private_names(source) == {
        "codec._layout_bits",
        "core._parse_line",
        "miner._dedupe",
        "pattern._root_parts",
        "codec._LOG2_3",
    }


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reaches_into_another_modules_private_names(name):
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert foreign_private_names(source) == set()


def names_used(source: str) -> set[str]:
    """Every bare name, attribute and imported name a module's source
    mentions, with ``module.attr`` also recorded for attributes of a bare
    name and ``module.name`` for ``from module import name``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
            if isinstance(node.value, ast.Name):
                found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                found.add(alias.name)
                found.add(f"{node.module}.{alias.name}")
    return found


def test_name_walker_sees_attributes_and_imports():
    source = (
        "import math\n"
        "from functools import cache\n"
        "from .core import log2\n"
        "x = math.log2(3.0)\n"
    )
    assert {"log2", "math.log2", "functools.cache", "core.log2"} <= names_used(source)


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"codec", "core"}))
def test_only_the_encoder_takes_logarithms(name):
    # Every bit count is the encoder's: ``core`` defines ``log2`` and
    # ``codec`` prices with it.
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert "log2" not in names_used(source)


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"codec", "pattern"}))
def test_only_the_encoder_and_the_trees_read_where_content_ends(name):
    # Where the last repetition's content ends is the encoder's rule,
    # read off the placement that ``pattern`` works out: no other module
    # reads a placement, or the interleaving or the right-most leaves
    # the end is found from.
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    read = {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
    }
    assert not read & {"interleaved", "last_right", "placement"}


@pytest.mark.parametrize("name", MODULES)
def test_no_module_wide_function_cache(name):
    # What is computed once lives on the object it belongs to.
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    used = names_used(source)
    assert not used & {"functools.lru_cache", "functools.cache", "lru_cache"}, name


def unreferenced_definitions(sources: dict[str, str], exported: set[str]) -> set[str]:
    """``module.name`` of each module-level function and class that no
    source refers to, by bare name or attribute, outside its own body,
    and that is not in ``exported``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    found = set()
    for module, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            if definition.name in exported:
                continue
            stack = list(trees.values())
            while stack:
                node = stack.pop()
                if node is definition:
                    continue
                if (isinstance(node, ast.Name) and node.id == definition.name) or (
                    isinstance(node, ast.Attribute) and node.attr == definition.name
                ):
                    break
                stack.extend(ast.iter_child_nodes(node))
            else:
                found.add(f"{module}.{definition.name}")
    return found


def test_reference_walker_skips_the_own_body_and_imports():
    sources = {
        "a": (
            "from .b import called\n"
            "def lonely(n):\n"
            "    return lonely(n - 1)\n"
            "def shown(): pass\n"
            "class Used: pass\n"
            "def caller():\n"
            "    return called(), Used\n"
        ),
        "b": "def called(): pass\n",
    }
    assert unreferenced_definitions(sources, {"shown"}) == {"a.lonely", "a.caller"}


def test_every_definition_is_referenced_or_exported():
    # A function or class that nothing in the package refers to and the
    # package does not export is dead code: remove it rather than keep
    # a second path that only tests reach.
    sources = {
        name: (PACKAGE / f"{name}.py").read_text(encoding="utf-8") for name in MODULES
    }
    assert unreferenced_definitions(sources, set(cadence.__all__)) == set()


def unread_fields(sources: dict[str, str], owner: str, fields: list[str]) -> set[str]:
    """Those of ``fields`` that no source reads as an attribute (of
    anything: the check goes by name) outside the body of class
    ``owner``."""
    read = set()
    stack = [ast.parse(source) for source in sources.values()]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == owner:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return set(fields) - read


def test_field_walker_skips_the_own_body_and_stores():
    sources = {
        "a": (
            "class Config:\n"
            "    used: int = 1\n"
            "    lonely: int = 2\n"
            "    stored: int = 3\n"
            "    def check(self):\n"
            "        return self.lonely\n"
            "def run(cfg, other):\n"
            "    other.stored = cfg.used\n"
        ),
    }
    assert unread_fields(sources, "Config", ["used", "lonely", "stored"]) == {
        "lonely",
        "stored",
    }


@pytest.mark.parametrize("settings", [cadence.MiningConfig, cadence.IngestOptions])
def test_every_setting_is_read(settings):
    # A setting that nothing outside its own class reads changes nothing
    # a user can observe: remove it rather than keep a knob that does
    # nothing.
    sources = {
        name: (PACKAGE / f"{name}.py").read_text(encoding="utf-8") for name in MODULES
    }
    fields = [f.name for f in dataclasses.fields(settings)]
    assert unread_fields(sources, settings.__name__, fields) == set()


def bare_name(node: ast.AST) -> str | None:
    """The name a ``Name`` or ``Attribute`` node ends in."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def enclosing_functions(source: str, name: str) -> list[str]:
    """The module-level function around each call of ``name``, by bare
    name or attribute, in source order; ``""`` for a call outside every
    function."""
    return owners(source, lambda node: isinstance(node, ast.Call) and bare_name(node.func) == name)


def catching_functions(source: str, error: str) -> list[str]:
    """The module-level function around each ``except`` clause that
    names ``error``, alone or in a tuple, in source order."""

    def catches(node: ast.AST) -> bool:
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            return False
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return error in map(bare_name, types)

    return owners(source, catches)


def owners(source: str, matches) -> list[str]:
    """The module-level function or class around each node that
    ``matches``, in source order; ``""`` for one outside every one."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if matches(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for definition in ast.parse(source).body:
        if isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
            visit(definition, definition.name)
        else:
            visit(definition, "")
    return found


def test_call_walker_names_the_enclosing_function():
    source = (
        "def build(ts):\n"
        "    return fit_cycle(ts, 'a')\n"
        "def stage(ts):\n"
        "    def inner():\n"
        "        return pattern.fit_cycle(ts, 'a')\n"
        "    return fit_period(ts)\n"
        "fit_cycle([1, 2], 'b')\n"
    )
    assert enclosing_functions(source, "fit_cycle") == ["build", "stage", ""]


def test_catch_walker_sees_names_attributes_and_tuples():
    source = (
        "def a():\n"
        "    try: pass\n"
        "    except UncodablePatternError: pass\n"
        "def b():\n"
        "    try: pass\n"
        "    except (ValueError, core.UncodablePatternError): pass\n"
        "    except Exception: pass\n"
        "def c():\n"
        "    try: pass\n"
        "    except: pass\n"
    )
    assert catching_functions(source, "UncodablePatternError") == ["a", "b"]


def test_growth_prices_without_uncodable_branches():
    # A merge or nesting that lists occurrences of its log once is
    # codable (the theorem on ``codec._placed``), so growth prices it to
    # a float: the price each of codec's pricers returns, and
    # ``_nest_cost``.  Only the ``l_max`` probe of ``combine_vertically``
    # may meet an uncodable pattern: it prices perfect times, not the
    # log's.
    source = (PACKAGE / "miner.py").read_text(encoding="utf-8")
    assert catching_functions(source, "UncodablePatternError") == ["combine_vertically"]
    returns = {
        node.name: ast.unparse(node.returns)
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "_nest_cost"
    }
    codec_source = (PACKAGE / "codec.py").read_text(encoding="utf-8")
    for node in ast.parse(codec_source).body:
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_pricer"):
            (price,) = [f for f in node.body if isinstance(f, ast.FunctionDef)]
            returns[node.name] = ast.unparse(price.returns)
    assert returns == {
        "_nest_cost": "float",
        "cycle_pricer": "float",
        "cycle_merge_pricer": "float",
        "merge_pricer": "float",
        "nest_pricer": "float",
    }


def test_miner_lays_out_a_merge_only_at_the_build_site():
    # Every merge is priced in closed form, from its member candidates;
    # only a merge that can survive pruning is laid out, by ``_grow``.
    source = (PACKAGE / "miner.py").read_text(encoding="utf-8")
    assert enclosing_functions(source, "concat_layout") == ["_grow"]
    assert enclosing_functions(source, "factor_layout") == ["_grow"]


def test_miner_fits_a_cycle_only_at_the_build_site():
    # Stage S prices a chain from its timestamps; only a chain that
    # survives pruning is fitted into a cycle, by ``_grow``.
    source = (PACKAGE / "miner.py").read_text(encoding="utf-8")
    assert enclosing_functions(source, "fit_cycle") == ["_grow"]


def test_miner_checks_a_logs_statistics_in_one_place():
    # One codec function checks that statistics describe their log; a
    # log's numbering and ``collection_cost`` both call it, and ``mine``
    # builds the statistics it numbers the log with.
    source = (PACKAGE / "miner.py").read_text(encoding="utf-8")
    assert enclosing_functions(source, "from_sequence") == ["mine"]
    assert enclosing_functions(source, "require_own_stats") == ["Numbering"]
    codec_source = (PACKAGE / "codec.py").read_text(encoding="utf-8")
    assert enclosing_functions(codec_source, "require_own_stats") == ["collection_cost"]
    assert enclosing_functions(codec_source, "from_sequence") == [
        "require_own_stats",
        "collection_cost",
    ]


def test_growth_takes_only_candidates_and_a_width():
    # A candidate is its own growth record, so neither growth takes a
    # cache of records beside the new and pooled candidates.
    source = (PACKAGE / "miner.py").read_text(encoding="utf-8")
    signatures = {
        node.name: ast.unparse(node.args)
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("combine_")
    }
    taken = "new: Sequence[Candidate], pool: Sequence[Candidate], k: int"
    assert signatures == {"combine_vertically": taken, "combine_horizontally": taken}


def annotation_names(node: ast.AST) -> set:
    """The bare names an annotation mentions, inside unions, subscripts
    and quoted annotations too."""
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            names |= annotation_names(ast.parse(part.value, mode="eval"))
        else:
            names.add(bare_name(part))
    return names


def functions_taking(source: str, names: set[str]) -> list[str]:
    """Each function or method, as ``name`` or ``Class.name``, whose
    parameters' annotations between them mention every one of
    ``names``, in source order."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                mentioned = set().union(
                    *(annotation_names(p.annotation) for p in params if p and p.annotation)
                )
                if names <= mentioned:
                    found.append(prefix + child.name)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(source), "")
    return found


def test_signature_walker_sees_methods_unions_and_quotes():
    source = (
        "def a(seq: EventSequence, stats: SeqStats): pass\n"
        "def b(seq: core.EventSequence, *, stats: 'SeqStats | None' = None): pass\n"
        "def c(numbering: Numbering, seq: list[EventSequence]): pass\n"
        "class K:\n"
        "    def m(self, seq: EventSequence, stats: SeqStats): pass\n"
    )
    assert functions_taking(source, {"EventSequence", "SeqStats"}) == ["a", "b", "K.m"]


def test_miner_takes_a_log_as_its_numbering():
    # A log reaches the miner as one handle, its ``Numbering``, which
    # keeps the log and its statistics together: only building one takes
    # the two, so no stage can pair a log with another log's statistics.
    source = (PACKAGE / "miner.py").read_text(encoding="utf-8")
    taking = functions_taking(source, {"EventSequence", "SeqStats"})
    assert taking == ["Numbering.__init__"]


def test_export_list_is_the_imported_names():
    # ``from cadence import *`` binds exactly what ``__init__`` imports:
    # a removed name cannot linger in ``__all__``, nor an import be left
    # out of it.
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exported = cadence.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(cadence, name)] == []
    assert set(exported) == imported
