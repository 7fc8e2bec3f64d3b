"""Shared fixtures: two worked example logs, their hand-verified encodings,
and the acceptance-criteria report hook.

The expected costs below were derived by hand from the code definitions
(see README): every parameter transmitted with a code of ``n`` equally
likely values contributes ``log2(n)`` bits, and corrections cost
``2*len(E) + sum(|e|)`` bits.  Totals are rounded to three decimals, so
comparisons use a +/-0.005 tolerance.
"""

from __future__ import annotations

import random

import pytest

from cadence.codec import SeqStats
from cadence.core import EventSequence
from cadence.pattern import Block, Leaf, Pattern, tree_width

BIT_TOL = 0.005


def approx_bits(value: float):
    return pytest.approx(value, abs=BIT_TOL)


def cycle(event: str, r: int, p: int, tau: int, corrections) -> Pattern:
    """The cycle of ``event`` with these parameters: one block over one
    leaf, placed at ``tau``."""
    return Pattern(Block(r, p, (Leaf(event),), (0,)), tau, tuple(corrections))


def random_tree(rng: random.Random, depth: int, leaves: int) -> Block:
    """A block of height at most ``depth`` with at most ``leaves`` leaves."""
    children: list = []
    while leaves > 0 and (not children or rng.random() < 0.5):
        if depth > 1 and rng.random() < 0.5:
            child = random_tree(rng, depth - 1, leaves)
        else:
            child = Leaf(rng.choice("abc"))
        children.append(child)
        leaves -= tree_width(child)
    distances = (0,) + tuple(rng.randint(0, 8) for _ in children[1:])
    return Block(
        r=rng.randint(2, 4),
        p=rng.randint(1, 12),
        children=tuple(children),
        distances=distances,
    )


def block_records(tree: Block) -> set[str]:
    """The names of what a tree's blocks have worked out and hold beside
    their fields, such as ``count`` and ``placement``."""
    held = set(vars(tree)) - {"r", "p", "children", "distances"}
    for child in tree.children:
        if isinstance(child, Block):
            held |= block_records(child)
    return held


# A dozen "a" occurrences, roughly three bursts of four (or four sparse
# triples), observed on the window [0, 34].
DOZEN_A_PAIRS = tuple(
    (t, "a") for t in (2, 5, 7, 8, 13, 15, 20, 21, 26, 29, 32, 33)
)

# Three interleaved tracks (b, a, c) repeating about every 13 ticks,
# observed on the same window.
TRIAD_PAIRS = (
    (2, "b"),
    (5, "a"),
    (7, "c"),
    (13, "b"),
    (18, "a"),
    (21, "c"),
    (26, "b"),
    (30, "a"),
    (31, "c"),
)

# A small mixed log used by the ingestion and CLI tests.
MIXED_PAIRS = (
    (2, "c"),
    (3, "c"),
    (6, "a"),
    (7, "a"),
    (7, "b"),
    (19, "a"),
    (30, "a"),
    (31, "c"),
    (32, "a"),
    (37, "b"),
    (42, "a"),
    (48, "c"),
    (54, "a"),
)


@pytest.fixture(scope="session")
def dozen_a_seq() -> EventSequence:
    return EventSequence.from_pairs(DOZEN_A_PAIRS)


@pytest.fixture(scope="session")
def triad_seq() -> EventSequence:
    return EventSequence.from_pairs(TRIAD_PAIRS)


@pytest.fixture(scope="session")
def mixed_seq() -> EventSequence:
    return EventSequence.from_pairs(MIXED_PAIRS)


@pytest.fixture(scope="session")
def dozen_a_stats(dozen_a_seq) -> SeqStats:
    return SeqStats.from_sequence(dozen_a_seq, t_start=0, t_end=34)


@pytest.fixture(scope="session")
def triad_stats(triad_seq) -> SeqStats:
    return SeqStats.from_sequence(triad_seq, t_start=0, t_end=34)


# Expected cost breakdowns, keyed by context.  "a12" is the dozen-a log
# on [0, 34]; "abc9" is the triad log on [0, 34].  The "D" entry is the
# whole distance-and-inner-period field.  In the braid pattern the two
# inner distances lie in [0..4], so each takes log2(5) = 2.322 bits; the
# block shift lies in [0..7] for 3.000 bits, giving D = 7.644.
REFERENCE_ROWS = (
    # (context, notation, {field: bits}, total)
    (
        "a12",
        "[r=4 p=2](a) @ tau=2 E=[1,0,-1]",
        {"A": 4.755, "R": 3.585, "p0": 3.459, "D": 0.0, "tau": 4.858, "E": 8.0},
        24.657,
    ),
    (
        "a12",
        "[r=4 p=2](a) @ tau=13 E=[0,3,-1]",
        {"A": 4.755, "R": 3.585, "p0": 3.322, "D": 0.0, "tau": 4.755, "E": 10.0},
        26.417,
    ),
    (
        "a12",
        "[r=4 p=2](a) @ tau=26 E=[1,1,-1]",
        {"A": 4.755, "R": 3.585, "p0": 3.459, "D": 0.0, "tau": 4.807, "E": 9.0},
        25.607,
    ),
    (
        "a12",
        "[r=3 p=13](a) @ tau=2 E=[-2,0]",
        {"A": 4.755, "R": 3.585, "p0": 4.170, "D": 0.0, "tau": 3.459, "E": 6.0},
        21.969,
    ),
    (
        "a12",
        "[r=3 p=13](a) @ tau=5 E=[-3,1]",
        {"A": 4.755, "R": 3.585, "p0": 4.170, "D": 0.0, "tau": 3.459, "E": 8.0},
        23.969,
    ),
    (
        "a12",
        "[r=3 p=13](a) @ tau=7 E=[0,-1]",
        {"A": 4.755, "R": 3.585, "p0": 4.087, "D": 0.0, "tau": 3.322, "E": 5.0},
        20.749,
    ),
    (
        "a12",
        "[r=3 p=13](a) @ tau=8 E=[0,-1]",
        {"A": 4.755, "R": 3.585, "p0": 4.087, "D": 0.0, "tau": 3.322, "E": 5.0},
        20.749,
    ),
    (
        "a12",
        "[r=3 p=13]([r=4 p=2](a)) @ tau=2 E=[1,0,-1,-2,0,3,-1,0,1,1,-1]",
        # D = 3.000 (block shift in [0..7]) + 1.000 (inner period in {1, 2})
        {"A": 7.925, "R": 7.170, "p0": 4.170, "D": 4.000, "tau": 3.459, "E": 33.0},
        59.724,
    ),
    (
        "a12",
        "[r=4 p=2]([r=3 p=13](a)) @ tau=2 E=[-2,0,1,-3,1,0,0,-1,-1,0,-1]",
        # D = 4.807 (block shift in [0..27]) + 3.700 (inner period in [1..13])
        {"A": 7.925, "R": 7.170, "p0": 3.459, "D": 8.507, "tau": 4.858, "E": 32.0},
        63.920,
    ),
    (
        "abc9",
        "[r=3 p=13](b) @ tau=2 E=[-2,0]",
        {"A": 6.340, "R": 1.585, "p0": 4.170, "D": 0.0, "tau": 3.459, "E": 6.0},
        21.554,
    ),
    (
        "abc9",
        "[r=3 p=13](a) @ tau=5 E=[0,-1]",
        {"A": 6.340, "R": 1.585, "p0": 4.087, "D": 0.0, "tau": 3.322, "E": 5.0},
        20.334,
    ),
    (
        "abc9",
        "[r=3 p=13](c) @ tau=7 E=[1,-3]",
        {"A": 6.340, "R": 1.585, "p0": 4.170, "D": 0.0, "tau": 3.459, "E": 8.0},
        23.554,
    ),
    (
        "abc9",
        "[r=3 p=13](b [d=3] a [d=1] c) @ tau=2 E=[0,1,-2,2,2,0,1,0]",
        # D = 2.322 + 2.322 (distances in [0..4]) + 3.000 (shift in [0..7])
        {"A": 12.680, "R": 1.585, "p0": 4.170, "D": 7.644, "tau": 3.459, "E": 24.0},
        53.538,
    ),
)

# Collections over the two logs, each with its expected summed cost.
# Every collection below covers its log completely, so the collection
# total equals the pattern bits alone.
REFERENCE_COLLECTIONS = (
    ("quads", "a12", (0, 1, 2), 76.681),
    ("triples", "a12", (3, 4, 5, 6), 87.437),
    ("nested", "a12", (7,), 59.724),
    ("flipped-nest", "a12", (8,), 63.920),
    ("tracks-apart", "abc9", (9, 10, 11), 65.443),
    ("braid", "abc9", (12,), 53.538),
)


@pytest.fixture(scope="session")
def stats_by_context(dozen_a_stats, triad_stats):
    return {"a12": dozen_a_stats, "abc9": triad_stats}


# ---------------------------------------------------------------------------
# Acceptance reporting: tests/test_acceptance.py records one verdict per
# criterion; the summary hook prints one PASS/FAIL line for each.

ACCEPTANCE_CRITERIA = (
    "reference-costs",
    "reconstruction",
    "segmentation-optimality",
    "period-optimality",
    "greedy-guarantee",
    "planted-recovery",
    "threshold-soundness",
    "scale-smoke",
    "compression-floor",
)

_ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


def record_criterion(name: str, ok: bool, detail: str) -> None:
    assert name in ACCEPTANCE_CRITERIA, f"unknown criterion {name!r}"
    _ACCEPTANCE_RESULTS[name] = (ok, detail)


@pytest.fixture
def acceptance():
    """Callable fixture: acceptance(name, ok, detail)."""
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in ACCEPTANCE_CRITERIA:
        if name in _ACCEPTANCE_RESULTS:
            ok, detail = _ACCEPTANCE_RESULTS[name]
            verdict = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"[{verdict}] {name}: {detail}")
        else:
            terminalreporter.write_line(f"[FAIL] {name}: not run")
