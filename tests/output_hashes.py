"""Print one SHA-256 per benchmark workload and seed of what mining
and scoring output, to check that a change leaves every output
bit-identical.

    python3 tests/output_hashes.py SEED [SEED ...]
    python3 tests/output_hashes.py 501-510

A seed may be given as an inclusive range ``A-B``, so the ten-seed
identity check reads ``python3 tests/output_hashes.py 501-510``.

For each workload of ``perfbench/gen.py`` and each seed, the logs of
one benchmark run (``BENCHMARK.json``'s ``run_seconds``) are parsed and
mined or scored as ``perfbench/run.py`` does, and one line ``WORKLOAD
SEED DIGEST`` is printed.  For a mining workload (braids, heartbeats
and stream) the digest hashes, per log, ``mine().to_dict()`` with its
wall clocks removed (each stage's report, totals included) and the
final pool as ``(notation, cost, cover, provenance)`` per candidate,
the cover as its sorted ``(t, label)`` pairs.  For ``score`` it hashes,
per log, ``collection_cost().to_dict()`` of the log's parsed
notations.  Floats are written with ``repr``, so a cost that differs in
its last bit changes the line.  Run it on two checkouts and compare the
lines.  The generator is only imported, never changed, and the script
needs nothing outside the standard library, ``src/`` and
``perfbench/``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from cadence import collection_cost, load_sequence, mine, parse_pattern  # noqa: E402

WORKLOADS = list(gen.WORKLOADS)
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def mine_outputs(text: str) -> dict:
    """What mining one log outputs, wall clocks removed."""
    result = mine(load_sequence(text))
    out = result.to_dict()
    del out["wall_clock_s"]
    out["final_pool"] = [
        (c.notation, c.cost, c.numbering.pairs_of(c.bits), c.provenance) for c in result.pool
    ]
    return out


def score_outputs(log) -> dict:
    """The report of pricing one log's planted notations."""
    patterns = [parse_pattern(line) for line in log.notations.splitlines()]
    return collection_cost(patterns, load_sequence(log.text)).to_dict()


def digest(workload: str, seed: int) -> str:
    mining = gen.WORKLOADS[workload].mode == "mine"
    h = hashlib.sha256()
    for log in gen.logs(workload, seed, SECONDS):
        out = mine_outputs(log.text) if mining else score_outputs(log)
        h.update(json.dumps(out, sort_keys=True).encode())
    return h.hexdigest()


def seeds(args: list[str]) -> list[int]:
    """The seeds the arguments name, each a seed or a range ``A-B``."""
    out = []
    for arg in args:
        first, _, last = arg.partition("-")
        out += range(int(first), int(last or first) + 1)
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for seed in seeds(argv):
        for workload in WORKLOADS:
            print(workload, seed, digest(workload, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
