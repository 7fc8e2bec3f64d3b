"""Seeded input generator for the cadence benchmark.

Everything here uses the standard library only and never imports
``cadence``, so a change to the program cannot change the inputs.  A
plant is a pattern tree placed at a start time, optionally with
wobbled occurrences; the generator renders it both as log lines and
as cadence's pattern notation (``[r=.. p=..](...) @ tau=.. E=[...]``).

Trees are tuples: a leaf is an event label (``str``) and a block is
``(r, p, children, distances)`` with ``distances[0] == 0``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Trees, expansion and notation


def expand(tree) -> list[tuple[int, str]]:
    """Perfect occurrences in traversal order (depth first, repetition major)."""
    out: list[tuple[int, str]] = []

    def walk(node, t0: int) -> None:
        if isinstance(node, str):
            out.append((t0, node))
            return
        r, p, children, distances = node
        for k in range(r):
            offset = 0
            for child, d in zip(children, distances):
                offset += d
                walk(child, t0 + k * p + offset)

    walk(tree, 0)
    return out


def _walk_corrections(tree, values: list[int], solve: bool) -> list[int]:
    """Cumulative offsets from corrections (``solve=False``) or the inverse.

    An occurrence's offset is its own correction plus those of the
    left-most leaves of its left siblings, of the earlier repetitions of
    each enclosing block, and recursively of the enclosing blocks'
    contributors.
    """
    out = [0] * len(values)
    corr = out if solve else values
    idx = 0

    def walk(node, context: int) -> int:
        nonlocal idx
        if isinstance(node, str):
            i = idx
            idx += 1
            out[i] = values[i] - context if solve else values[i] + context
            return i
        r, _, children, _ = node
        first_of_block = -1
        rep_acc = 0
        for _ in range(r):
            first_of_rep = -1
            sib_acc = 0
            for child in children:
                fi = walk(child, context + rep_acc + sib_acc)
                if first_of_rep < 0:
                    first_of_rep = fi
                sib_acc += corr[fi]
            if first_of_block < 0:
                first_of_block = first_of_rep
            rep_acc += corr[first_of_rep]
        return first_of_block

    walk(tree, 0)
    return out


def occurrences(tree, tau: int, corrections: list[int]) -> list[tuple[int, str]]:
    """Corrected occurrences of a pattern, in traversal order."""
    offsets = _walk_corrections(tree, [0] + list(corrections), solve=False)
    return [(tau + t + off, e) for (t, e), off in zip(expand(tree), offsets)]


def solve_corrections(tree, tau: int, corrected: list[int]) -> list[int]:
    """Corrections that move a tree's occurrences onto ``corrected``."""
    targets = [c - tau - t for c, (t, _) in zip(corrected, expand(tree))]
    return _walk_corrections(tree, targets, solve=True)[1:]


def format_tree(node) -> str:
    if isinstance(node, str):
        return node
    r, p, children, distances = node
    parts = [format_tree(children[0])]
    for child, d in zip(children[1:], distances[1:]):
        parts.append(f"[d={d}]")
        parts.append(format_tree(child))
    return f"[r={r} p={p}](" + " ".join(parts) + ")"


def format_pattern(tree, tau: int, corrections: list[int]) -> str:
    return f"{format_tree(tree)} @ tau={tau} E=[{','.join(map(str, corrections))}]"


def _parse_node(text: str, pos: int):
    """Parse one node of the bracket notation starting at ``pos``."""
    while text[pos] == " ":
        pos += 1
    if not text.startswith("[r=", pos):
        end = pos
        while end < len(text) and (text[end].isalnum() or text[end] == "_"):
            end += 1
        if end == pos:
            raise ValueError(f"expected a label at {pos} in {text!r}")
        return text[pos:end], end
    close = text.index("](", pos)
    r_txt, p_txt = text[pos + 1 : close].split()
    r, p = int(r_txt[2:]), int(p_txt[2:])
    pos = close + 2
    child, pos = _parse_node(text, pos)
    children, distances = [child], [0]
    while True:
        while text[pos] == " ":
            pos += 1
        if text[pos] == ")":
            pos += 1
            break
        if not text.startswith("[d=", pos):
            raise ValueError(f"expected '[d=' at {pos} in {text!r}")
        end = text.index("]", pos)
        distances.append(int(text[pos + 3 : end]))
        child, pos = _parse_node(text, end + 1)
        children.append(child)
    return (r, p, tuple(children), tuple(distances)), pos


def parse_pattern(text: str):
    """Parse notation into ``(tree, tau, corrections)``; raises ValueError."""
    tree_txt, sep, rest = text.strip().rpartition(" @ ")
    if not sep:
        raise ValueError(f"no ' @ ' in {text!r}")
    tree, end = _parse_node(tree_txt, 0)
    if tree_txt[end:].strip() or isinstance(tree, str):
        raise ValueError(f"bad tree in {text!r}")
    tau_txt, e_txt = rest.split()
    if not (tau_txt.startswith("tau=") and e_txt.startswith("E=[") and e_txt.endswith("]")):
        raise ValueError(f"bad tau or E in {text!r}")
    body = e_txt[3:-1]
    corrections = [int(x) for x in body.split(",")] if body else []
    if len(corrections) != len(expand(tree)) - 1:
        raise ValueError(f"wrong number of corrections in {text!r}")
    return tree, int(tau_txt[4:]), corrections


def cover_of(notation: str) -> frozenset[tuple[int, str]]:
    """The (timestamp, label) pairs a pattern in notation covers."""
    tree, tau, corrections = parse_pattern(notation)
    return frozenset(occurrences(tree, tau, corrections))


# ---------------------------------------------------------------------------
# Logs


@dataclass(frozen=True)
class Plant:
    notation: str
    cover: frozenset[tuple[int, str]]


@dataclass(frozen=True)
class Log:
    """One generated log and its traffic dimensions."""

    text: str
    pairs: frozenset[tuple[int, str]]
    plants: tuple[Plant, ...]
    events: int
    wobble: float
    spurious: float

    @property
    def occurrences(self) -> int:
        return len(self.pairs)

    @property
    def notations(self) -> str:
        """The planted collection, one pattern in notation per line."""
        return "".join(p.notation + "\n" for p in self.plants)

    def dims(self) -> dict:
        return {
            "occurrences": self.occurrences,
            "events": self.events,
            "plants": len(self.plants),
            "wobble": self.wobble,
            "spurious": self.spurious,
        }


class _Builder:
    """Accumulates plants and spurious occurrences without collisions."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.taken: set[tuple[int, str]] = set()
        self.plants: list[Plant] = []
        self.end = 0  # one past the latest planted timestamp

    def plant(self, tree, tau: int, wobble: float) -> bool:
        """Place ``tree`` at ``tau`` and move a ``wobble`` share of its
        occurrences (never the first) by one tick, keeping each label's
        order; False, placing nothing, when ``tree`` would collide.

        Trees must not interleave: each label's occurrences come in time
        order in the traversal."""
        moved = [(tau + t, e) for t, e in expand(tree)]
        if len(set(moved)) < len(moved) or not self.taken.isdisjoint(moved):
            return False
        same_label: dict[str, list[int]] = {}
        for i, (_, e) in enumerate(moved):
            same_label.setdefault(e, []).append(i)
        rank = {i: k for idxs in same_label.values() for k, i in enumerate(idxs)}
        n_moved = round(wobble * (len(moved) - 1))
        for i in sorted(self.rng.sample(range(1, len(moved)), n_moved)):
            t, e = moved[i]
            idxs, k = same_label[e], rank[i]
            lo = moved[idxs[k - 1]][0] if k > 0 else -1
            hi = moved[idxs[k + 1]][0] if k + 1 < len(idxs) else t + 2
            step = self.rng.choice((-1, 1))
            for nt in (t + step, t - step):
                if lo < nt < hi and (nt, e) not in self.taken:
                    moved[i] = (nt, e)
                    break
        corrections = solve_corrections(tree, tau, [t for t, _ in moved])
        cover = frozenset(moved)
        self.taken |= cover
        self.plants.append(Plant(format_pattern(tree, tau, corrections), cover))
        self.end = max(self.end, max(t for t, _ in moved) + 1)
        return True

    def spurious(self, share: float, labels) -> None:
        """Add ``share`` times the planted count of random occurrences of
        ``labels`` within the planted time range."""
        count = round(share * len(self.taken))
        while count:
            pair = (self.rng.randrange(self.end), self.rng.choice(labels))
            if pair not in self.taken:
                self.taken.add(pair)
                count -= 1

    def log(self, wobble: float, spurious: float) -> Log:
        pairs = sorted(self.taken)
        return Log(
            text="".join(f"{t}\t{e}\n" for t, e in pairs),
            pairs=frozenset(pairs),
            plants=tuple(self.plants),
            events=len({e for _, e in pairs}),
            wobble=wobble,
            spurious=spurious,
        )


def _braid(rng: random.Random, labels, inner_r: int, outer_r: int, outer_p):
    """A depth-2 braid: ``labels`` one or two ticks apart, repeated
    ``inner_r`` times in a short cycle, the whole repeated ``outer_r``
    times in a long one."""
    distances = (0,) + tuple(rng.randint(1, 2) for _ in labels[1:])
    content = sum(distances)
    inner_p = rng.randint(content + 1, content + 3)
    inner_span = (inner_r - 1) * inner_p + content
    outer = max(rng.randint(*outer_p), inner_span + 1)
    return (outer_r, outer, ((inner_r, inner_p, tuple(labels), distances),), (0,))


def braids_log(rng: random.Random) -> Log:
    """Ten sequential depth-2 braids of three events (300 occurrences
    each), 2% of occurrences one tick off, 5% spurious occurrences.

    Braid ``j`` always has the same shape, so the seed moves only the
    gaps, the wobble and the noise, and each seed costs about as much to
    mine: the run's time then tracks the program, not the draw."""
    b = _Builder(rng)
    wobble, spurious = 0.02, 0.05
    for j in range(10):
        distances = (0, 1 + j % 2, 1 + j // 2 % 2)
        inner_p = sum(distances) + 1 + j % 3
        inner = (10, inner_p, ("a", "b", "c"), distances)
        b.plant((10, 120 + 12 * j, (inner,), (0,)), b.end + rng.randint(5, 20), wobble)
    b.spurious(spurious, ("a", "b", "c"))
    return b.log(wobble, spurious)


def heartbeats_log(rng: random.Random, events: int) -> Log:
    """``events`` independent heartbeats of 80 beats each at the distinct
    periods 7, 9, 11, ..., 10% of beats one tick off, plus 5% spurious
    occurrences on a label of their own.  The seed moves the phases, the
    wobble and the noise."""
    b = _Builder(rng)
    wobble, spurious = 0.10, 0.05
    for i in range(events):
        p = 7 + 2 * i
        b.plant((80, p, (f"h{i}",), (0,)), rng.randrange(p), wobble)
    b.spurious(spurious, ("x",))
    return b.log(wobble, spurious)


def _small_plant(rng: random.Random, shape: int, labels):
    """A small plant: a cycle (shape 0), a burst nested in a cycle (1),
    or a two-event braid cycle (2).  Sizes vary little, so that a shape
    costs about the same in every log."""
    if shape == 0:
        return (rng.randint(15, 18), rng.randint(5, 15), (labels[0],), (0,))
    if shape == 1:
        inner = (3, rng.randint(1, 3), (labels[0],), (0,))
        span = 2 * inner[1]
        return (rng.randint(5, 6), rng.randint(span + 5, span + 30), (inner,), (0,))
    d = rng.randint(1, 3)
    return (rng.randint(8, 9), rng.randint(d + 2, d + 10), tuple(labels), (0, d))


def stream_log(rng: random.Random, i: int) -> Log:
    """A small service log: 1-3 plants of mixed shape over labels of
    their own, 5% wobble, and 0-20% spurious occurrences on one label.

    The plant count, shapes and spurious share cycle with the log index
    ``i`` through all 36 combinations, so every run of 36 logs or more
    holds the same mix and only the random details vary with the seed.
    """
    b = _Builder(rng)
    wobble = 0.05
    spurious = (0.0, 0.05, 0.10, 0.20)[i % 4]
    plants = 1 + (i // 4) % 3
    for k in range(plants):
        shape = (i // 12 + k) % 3
        while not b.plant(_small_plant(rng, shape, (f"s{k}", f"t{k}")), rng.randint(0, 50), wobble):
            pass
    b.spurious(spurious, ("s0",))
    return b.log(wobble, spurious)


def score_log(rng: random.Random) -> Log:
    """A large log for pricing: 40 sequential depth-2 braids of three
    labels drawn from twelve (2,100 occurrences each), 5% wobble and 5%
    spurious occurrences: about 88k lines."""
    b = _Builder(rng)
    alphabet = [f"e{i}" for i in range(12)]
    wobble, spurious = 0.05, 0.05
    while len(b.plants) < 40:
        tree = _braid(rng, rng.sample(alphabet, 3), 25, 28, (130, 200))
        b.plant(tree, b.end + rng.randint(0, 50), wobble)
    b.spurious(spurious, alphabet)
    return b.log(wobble, spurious)


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    """A stream of logs and how many of them make one run.

    ``est_s`` is the expected time per log on a 2-core x86 machine; a run
    of ``seconds`` holds ``max(min_logs, round(seconds / est_s))`` logs,
    so the same seed and seconds always give the same logs.
    """

    mode: str  # "mine" or "score"
    make: object  # (rng, index) -> Log
    est_s: float
    min_logs: int

    def count(self, seconds: float) -> int:
        return max(self.min_logs, round(seconds / self.est_s))


WORKLOADS = {
    "braids": Workload("mine", lambda rng, i: braids_log(rng), 20.0, 1),
    "heartbeats": Workload("mine", lambda rng, i: heartbeats_log(rng, 4 + i % 5), 2.8, 5),
    "stream": Workload("mine", stream_log, 0.2, 100),
    "score": Workload("score", lambda rng, i: score_log(rng), 3.0, 3),
}


def logs(workload: str, seed: int, seconds: float):
    """Yield the run's logs; log ``i`` depends only on the workload,
    ``seed`` and ``i``."""
    w = WORKLOADS[workload]
    for i in range(w.count(seconds)):
        yield w.make(random.Random(f"{workload}/{seed}/{i}"), i)
