"""Print one digest of what a few mined logs total, to compare Python
versions.

    python3 tests/version_digest.py

Mines a few logs planted by :func:`cadence.synth.generate` over several
labels, with displaced and spurious occurrences, and one long wobbly
cycle, whose segmentation scan ends on the range bound's float
comparisons (``extract_cycles_dp``), and prints the SHA-256
of every log's ``mine().to_dict()`` (wall clocks removed: each stage's
report, its ``collection_cost`` totals included), its final pool as
``(notation, cost, provenance)`` per candidate, so a price that moves
on a candidate no stage selects shows too, the winning collection's
``collection_cost`` total and the log's ``baseline_cost``.  Stage S is
hashed on its own too: every event's ``extract_cycles_dp`` runs and the
``extract_cycles`` candidates of the log's ``Numbering`` as
``(notation, cost, provenance)``, so a change to the segmentation or to
stage S shows even when no selection moves.  The final pools of three of the planted logs hold 19 merges of
three or more one-leaf cycles (1, 2 and 16), each carrying the price
``codec.cycle_merge_pricer`` gave it, so the digest checks that
pricer's float order too.  None of them is wider than its period, nor
can a mined one be: horizontal growth merges only candidates that
start within the first one's period.  The pricer adds the same terms
in the same order whatever the width.  No candidate of these pools is
a nesting or a merge of nested members, so the digest does not check
the float order of ``codec.merge_pricer`` and ``codec.nest_pricer``;
tier-1 checks each against the encoder float for float on every Python
it runs under (``tests/test_miner.py``).
Floats are written with ``repr``, so a total that differs in its last
bit changes the digest.  Every supported Python must print the same
line.  The script needs nothing outside the standard library and
``src/``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cadence import (  # noqa: E402
    EventSequence,
    Numbering,
    PlantSpec,
    SeqStats,
    baseline_cost,
    collection_cost,
    extract_cycles,
    extract_cycles_dp,
    generate,
    mine,
)

SPECS = tuple(
    PlantSpec(
        basis="a d=2 b d=3 c",
        n_patterns=3,
        shift_level=1,
        shift_density=0.2,
        additive_density=0.2,
        seed=seed,
    )
    for seed in range(4)
)


def wobbly_cycle() -> EventSequence:
    """160 beats of period 9, one in five one tick off, and a few
    occurrences of a second label."""
    rng = random.Random(23)
    beats = [
        (9 * k + (rng.choice((-1, 1)) if rng.random() < 0.2 else 0), "h") for k in range(1, 161)
    ]
    return EventSequence.from_pairs(beats + [(rng.randrange(1450), "x") for _ in range(8)])


def digest() -> str:
    h = hashlib.sha256()
    for seq in [*(generate(spec).perturbed for spec in SPECS), wobbly_cycle()]:
        result = mine(seq)
        out = result.to_dict()
        del out["wall_clock_s"]
        out["final_pool"] = [(c.notation, c.cost, c.provenance) for c in result.pool]
        patterns = [c.pattern for c in result.selection.candidates]
        out["collection_total_bits"] = collection_cost(patterns, seq).total_bits
        stats = SeqStats.from_sequence(seq)
        out["baseline_bits"] = baseline_cost(stats)
        out["dp_runs"] = {
            e: extract_cycles_dp(seq.per_event[e], e, stats) for e in seq.alphabet
        }
        out["stage_s"] = [
            (c.notation, c.cost, c.provenance)
            for c in extract_cycles(Numbering(seq, stats))
        ]
        h.update(json.dumps(out, sort_keys=True).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
