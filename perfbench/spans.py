"""Spans and counters around calls into cadence's public functions.

The tracer wraps functions at every name a caller looks up: ``miner``
binds ``from .pattern import grow_horizontally``, so wrapping
``cadence.pattern.grow_horizontally`` alone would miss the miner's calls.
:func:`install` therefore replaces every attribute of every loaded
``cadence`` module that is the original function.

Spanned functions record ``(name, parent id, start, end)`` in memory;
counted functions (hot leaves) only bump a per-thread counter.  Worker
threads keep their own span stack; a span opened on a worker thread with
an empty stack takes the main thread's innermost open span as parent,
which is the span that started the pool.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from time import perf_counter

# (module, function): wrapped with a span per call.
SPANNED = (
    ("core", "load_sequence"),
    ("miner", "mine"),
    ("miner", "extract_cycles"),
    ("miner", "extract_cycles_dp"),
    ("miner", "extract_cycles_tri"),
    ("miner", "combine_vertically"),
    ("miner", "combine_horizontally"),
    ("miner", "filter_candidates"),
    ("miner", "greedy_cover"),
    ("codec", "pattern_cost"),
    ("codec", "collection_cost"),
    ("pattern", "grow_horizontally"),
    ("pattern", "grow_vertically"),
    ("pattern", "parse_pattern"),
)
# (module, function): call counter only.
COUNTED = (
    ("codec", "residual_cost"),
    ("pattern", "expand_tree"),
    ("pattern", "fit_cycle"),
)
# Functions whose returned list length adds to ``candidates_out``.
PRODUCERS = ("extract_cycles", "combine_vertically", "combine_horizontally")


class Tracer:
    """In-memory spans and counters; inactive until :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.candidates_out = 0
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._counters: list[Counter] = []
        self._seen: set = set()
        self._repeats = 0
        self._lock = threading.Lock()

    # -- per-thread state -------------------------------------------------

    def _state(self) -> tuple[list[int], Counter]:
        local = self._local
        try:
            return local.stack, local.counts
        except AttributeError:
            local.stack = self._main_stack if threading.current_thread() is self._main else []
            local.counts = Counter()
            self._counters.append(local.counts)
            return local.stack, local.counts

    def new_log(self) -> None:
        """Start a new log: pattern-cost repeats are counted per log."""
        self._seen.clear()

    # -- wrappers -------------------------------------------------------------

    def spanned(self, name: str, fn):
        short = name.rsplit(".", 1)[1]
        produces = short in PRODUCERS
        keyed = short == "pattern_cost"
        spans = self.spans

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._state()[0]
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = -1
            if keyed:
                self._note_cost_key(args, kwargs)
            with self._lock:
                sid = len(spans)
                spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, start, end)
            if produces:
                with self._lock:
                    self.candidates_out += len(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self.enabled:
                self._state()[1][name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_cost_key(self, args, kwargs) -> None:
        # Within one log every context shares its counts, so the window
        # and the interleaving flag complete the memo key.
        ctx = args[1] if len(args) > 1 else kwargs.get("context")
        key = (
            args[0],
            getattr(ctx, "t_start", None),
            getattr(ctx, "t_end", None),
            args[2:],
            tuple(sorted(kwargs.items(), key=lambda kv: kv[0])) if kwargs else (),
        )
        with self._lock:
            if key in self._seen:
                self._repeats += 1
            else:
                self._seen.add(key)

    # -- results --------------------------------------------------------------

    def counts(self) -> Counter:
        """Calls per counted function."""
        total: Counter = Counter()
        for c in self._counters:
            total.update(c)
        return total

    @property
    def cost_repeats(self) -> int:
        return self._repeats

    def span_times(self) -> dict[tuple[str, str], list]:
        """``[calls, total s, self s]`` per (span name, parent span name),
        the parent name being ``""`` at the root.  Self time is the
        span's duration minus the union of its children's intervals."""
        spans = self.spans
        children: dict[int, list[tuple[float, float]]] = {}
        for span in spans:
            if span is not None and span[1] >= 0:
                children.setdefault(span[1], []).append((span[2], span[3]))
        out: dict[tuple[str, str], list] = {}
        for sid, span in enumerate(spans):
            if span is None:
                continue
            name, parent, start, end = span
            covered = 0.0
            cur_hi = start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, cur_hi), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cur_hi = hi
            pname = spans[parent][0] if parent >= 0 and spans[parent] else ""
            row = out.setdefault((name, pname), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return out

    def write_spans(self, path) -> None:
        """Write spans as tab-separated ``id parent name start end`` lines,
        times in seconds from the first span's start."""
        spans = self.spans
        t0 = min((s[2] for s in spans if s is not None), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, span in enumerate(spans):
                if span is None:
                    continue
                name, parent, start, end = span
                fh.write(f"{sid}\t{parent}\t{name}\t{start - t0:.7f}\t{end - t0:.7f}\n")


def install(tracer: Tracer):
    """Wrap every traced function under each cadence name bound to it.

    Functions a cadence version does not have are skipped.  Returns a
    callable that restores the original bindings.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if (n == "cadence" or n.startswith("cadence.")) and m]
    restore = []
    for table, make in ((SPANNED, tracer.spanned), (COUNTED, tracer.counted)):
        for mod_name, fn_name in table:
            mod = sys.modules.get(f"cadence.{mod_name}")
            original = getattr(mod, fn_name, None)
            if original is None:
                continue
            wrapper = make(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        restore.append((module, attr, original))

    def uninstall() -> None:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)

    return uninstall
