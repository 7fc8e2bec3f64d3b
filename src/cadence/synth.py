"""Synthetic sequences with planted periodic patterns.

A plant specification describes a family of patterns (a basis of leaf
events, a nesting depth, ranges for lengths and periods) plus noise
levels.  Generation plants the patterns with perfect periodicity,
displaces a fixed fraction of occurrences (recorded as corrections, so
the planted patterns stay exact descriptions), and adds a fixed fraction
of spurious occurrences.  The evaluator compares mined output against
the planted ground truth.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Sequence

from .core import LABEL, DomainError, EventSequence
from .pattern import (
    Block,
    Leaf,
    Pattern,
    corrected_occurrences,
    corrected_times,
    format_tree,
    occurrence_count,
    pattern_occurrences,
    solve_corrections,
)
from . import codec


# ---------------------------------------------------------------------------
# Specification


_BASIS_RE = re.compile(rf"^\s*({LABEL.pattern})((?:\s+d=\d+\s+{LABEL.pattern})*)\s*$")
_BASIS_TAIL = re.compile(rf"d=(\d+)\s+({LABEL.pattern})")


def parse_basis(text: str) -> tuple[tuple[str, int], ...]:
    """Parse a basis like ``a d=4 b`` into ((label, distance), ...)."""
    m = _BASIS_RE.match(text)
    if m is None:
        raise DomainError(f"cannot parse basis {text!r}")
    out = [(m.group(1), 0)]
    for d, label in _BASIS_TAIL.findall(m.group(2)):
        out.append((label, int(d)))
    return tuple(out)


@dataclass(frozen=True)
class PlantSpec:
    """What to plant and how much noise to add."""

    basis: str = "a"
    depth: int = 1
    inner_period: tuple[int, int] = (5, 9)
    outer_length: tuple[int, int] = (4, 8)
    outer_period: tuple[int, int] = (30, 60)
    shift_level: int = 0
    shift_density: float = 0.0
    additive_density: float = 0.0
    interleaving: bool = False
    seed: int = 0
    n_patterns: int = 1
    overlay: bool = True

    def __post_init__(self) -> None:
        parse_basis(self.basis)
        if not 1 <= self.depth <= 3:
            raise DomainError(f"depth must be in 1..3, got {self.depth}")
        for name in ("inner_period", "outer_length", "outer_period"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise DomainError(f"{name} must be a range 1 <= lo <= hi")
        if self.outer_length[0] < 2:
            raise DomainError("outer_length must start at 2 or more")
        if self.shift_level < 0:
            raise DomainError("shift_level must be >= 0")
        for name in ("shift_density", "additive_density"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must be in [0, 1]")
        if self.shift_density > 0 and self.shift_level < 1:
            raise DomainError("shift_density > 0 needs shift_level >= 1")
        if not 1 <= self.n_patterns <= 50:
            raise DomainError(f"n_patterns must be in 1..50, got {self.n_patterns}")


_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _number(kind: type, text: str, number: int, key: str):
    """``text`` read as an int or a float; a :class:`DomainError` that
    names the line and the key when it is not one."""
    try:
        return kind(text.strip())
    except ValueError:
        raise DomainError(
            f"line {number}: {key} needs {'an integer' if kind is int else 'a number'}, "
            f"got {text.strip()!r}"
        ) from None


def parse_plant_spec(text: str) -> PlantSpec:
    """Parse a ``key=value`` configuration into a plant specification."""
    kwargs: dict = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"line {number}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "basis":
            kwargs[key] = value
        elif key in ("depth", "shift_level", "seed", "n_patterns"):
            kwargs[key] = _number(int, value, number, key)
        elif key in ("inner_period", "outer_length", "outer_period"):
            parts = [_number(int, x, number, key) for x in value.split(",")]
            if len(parts) != 2:
                raise DomainError(f"line {number}: {key} needs 'lo,hi'")
            kwargs[key] = (parts[0], parts[1])
        elif key in ("shift_density", "additive_density"):
            kwargs[key] = _number(float, value, number, key)
        elif key in ("interleaving", "overlay"):
            if value.lower() not in _BOOL:
                raise DomainError(f"line {number}: {key} must be true or false")
            kwargs[key] = _BOOL[value.lower()]
        else:
            raise DomainError(f"line {number}: unknown key {key!r}")
    return PlantSpec(**kwargs)


def format_plant_spec(spec: PlantSpec) -> str:
    """Render a plant specification as a key=value configuration."""
    lines = [
        f"basis={spec.basis}",
        f"depth={spec.depth}",
        f"inner_period={spec.inner_period[0]},{spec.inner_period[1]}",
        f"outer_length={spec.outer_length[0]},{spec.outer_length[1]}",
        f"outer_period={spec.outer_period[0]},{spec.outer_period[1]}",
        f"shift_level={spec.shift_level}",
        f"shift_density={spec.shift_density}",
        f"additive_density={spec.additive_density}",
        f"interleaving={'true' if spec.interleaving else 'false'}",
        f"seed={spec.seed}",
        f"n_patterns={spec.n_patterns}",
        f"overlay={'true' if spec.overlay else 'false'}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generation


@dataclass(frozen=True)
class GroundTruth:
    """Planted patterns and the sequences they generate."""

    spec: PlantSpec
    patterns: tuple[Pattern, ...]
    clean: EventSequence
    perturbed: EventSequence


def _build_tree(spec: PlantSpec, rng: random.Random) -> Block:
    parts = parse_basis(spec.basis)
    children = tuple(Leaf(label) for label, _ in parts)
    distances = tuple(d for _, d in parts)
    content = sum(distances)
    r = rng.randint(*spec.outer_length)
    p = rng.randint(*spec.inner_period)
    if not spec.interleaving and p <= content:
        p = content + 1
    block = Block(r=r, p=p, children=children, distances=distances)
    span = (r - 1) * p + content
    for _ in range(spec.depth - 1):
        r = rng.randint(*spec.outer_length)
        p = rng.randint(*spec.outer_period)
        if not spec.interleaving and p <= span:
            p = span + 1
        block = Block(r=r, p=p, children=(block,), distances=(0,))
        span = (r - 1) * p + span
    return block


def _pattern_span(tree: Block) -> int:
    return max(corrected_times(Pattern(tree, 0, (0,) * (tree.count - 1))))


def _has_event_collision(pairs: Sequence[tuple[int, str]]) -> bool:
    return len(set(pairs)) < len(pairs)


def _displace(
    p: Pattern, spec: PlantSpec, rng: random.Random, taken: set[tuple[int, str]]
) -> Pattern:
    """Displace a fixed fraction of a pattern's occurrences.

    Displacements are drawn uniformly from the nonzero values in
    ``[-level, level]`` and recorded as corrections, re-drawing when a
    move would collide with another occurrence of the same event, change
    the event's occurrence order inside the pattern, or go negative.
    """
    n = occurrence_count(p.tree)
    count = math.ceil(spec.shift_density * (n - 1))
    if count == 0:
        return p
    corrected = list(corrected_occurrences(p))
    indices = rng.sample(range(1, n), count)
    level = spec.shift_level
    choices = [d for d in range(-level, level + 1) if d != 0]
    for i in sorted(indices):
        t, e = corrected[i]
        for _ in range(1000):
            new_t = t + rng.choice(choices)
            if new_t < 0:
                continue
            others = {ct for j, (ct, ce) in enumerate(corrected) if ce == e and j != i}
            if new_t in others or (new_t, e) in taken:
                continue
            before = [ct for j, (ct, ce) in enumerate(corrected) if ce == e and j < i]
            after = [ct for j, (ct, ce) in enumerate(corrected) if ce == e and j > i]
            if before and new_t <= max(before):
                continue
            if after and new_t >= min(after):
                continue
            corrected[i] = (new_t, e)
            break
        else:
            raise DomainError(
                "could not displace an occurrence without a collision; "
                "lower the shift level or density"
            )
    corrections = solve_corrections(p.tree, p.tau, [t for t, _ in corrected])
    return Pattern(tree=p.tree, tau=p.tau, corrections=corrections)


def generate(spec: PlantSpec) -> GroundTruth:
    """Plant the specified patterns and derive clean and noisy sequences.

    The clean sequence is exactly the union of the planted covers
    (displacements included); the perturbed sequence adds the spurious
    occurrences on top.
    """
    rng = random.Random(spec.seed)
    patterns: list[Pattern] = []
    taken: set[tuple[int, str]] = set()
    next_start = 0
    for _ in range(spec.n_patterns):
        placed = None
        for _ in range(200):
            tree = _build_tree(spec, rng)
            span = _pattern_span(tree)
            if spec.overlay:
                tau = rng.randint(0, span)
            else:
                tau = next_start + rng.randint(5, 20)
            n = occurrence_count(tree)
            candidate = Pattern(tree=tree, tau=tau, corrections=(0,) * (n - 1))
            cover = corrected_occurrences(candidate)
            if _has_event_collision(cover):
                continue
            if any(pair in taken for pair in cover):
                continue
            placed = candidate
            break
        if placed is None:
            raise DomainError(
                "could not place a pattern without collisions; "
                "widen the period ranges or disable overlay"
            )
        if spec.shift_density > 0:
            placed = _displace(placed, spec, rng, taken)
        cover = corrected_occurrences(placed)
        if _has_event_collision(cover) or any(pair in taken for pair in cover):
            raise DomainError("displacement created a collision")
        taken.update(cover)
        next_start = max(next_start, max(t for t, _ in cover) + 1)
        patterns.append(placed)

    clean_pairs = sorted(taken)
    clean = EventSequence.from_pairs(clean_pairs)

    spurious_label = parse_basis(spec.basis)[0][0]
    n_spurious = math.ceil(spec.additive_density * len(clean_pairs))
    perturbed_pairs = set(clean_pairs)
    lo, hi = clean.t_start, clean.t_end
    added = 0
    attempts = 0
    while added < n_spurious:
        attempts += 1
        if attempts > 10_000 * max(1, n_spurious):
            raise DomainError(
                "could not place spurious occurrences; the timeline is too full"
            )
        t = rng.randint(lo, hi)
        if (t, spurious_label) in perturbed_pairs:
            continue
        perturbed_pairs.add((t, spurious_label))
        added += 1
    perturbed = EventSequence.from_pairs(sorted(perturbed_pairs))

    return GroundTruth(
        spec=spec,
        patterns=tuple(sorted(patterns, key=lambda q: q.tau)),
        clean=clean,
        perturbed=perturbed,
    )


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class EvalReport:
    """Mined output versus planted ground truth."""

    exact_recovery: bool
    percent_length_found: float
    percent_length_planted: float
    diff: float

    def to_dict(self) -> dict:
        return {
            "exact_recovery": self.exact_recovery,
            "percent_length_found": self.percent_length_found,
            "percent_length_planted": self.percent_length_planted,
            "diff": self.diff,
        }


def evaluate(found: Sequence[Pattern], truth: GroundTruth) -> EvalReport:
    """Compare mined patterns against the planted ones on the perturbed
    sequence.

    Recovery is exact when the multisets of (tree, cover) agree; the
    percent lengths compare each collection's bits against coding every
    occurrence individually.
    """
    seq = truth.perturbed
    found_keys = sorted(
        (format_tree(p.tree), tuple(pattern_occurrences(p))) for p in found
    )
    planted_keys = sorted(
        (format_tree(p.tree), tuple(pattern_occurrences(p))) for p in truth.patterns
    )
    found_report = codec.collection_cost(list(found), seq)
    planted_report = codec.collection_cost(list(truth.patterns), seq)
    return EvalReport(
        exact_recovery=found_keys == planted_keys,
        percent_length_found=found_report.percent_length,
        percent_length_planted=planted_report.percent_length,
        diff=found_report.percent_length - planted_report.percent_length,
    )
