"""A standing parity check of the compiled two-pass plan itself.

One sha256 digest covers every array a run reads from `TwoPassPlan`, on
seeded networks built with the benchmark's generator parameters: bushy
polytrees of 200 and 270 variables, chains of 400 and 1,100 (long runs,
sent by the blocked scan), hubbed loopy networks with 3 and 4 loops
conditioned on their greedy cutset, a 1,100-child binary star and a
bushy polytree with up to 12 states (so the width guard splits phases).
Per network it takes the cases, row widths, sequential order, normalizer
count, owners and belief columns; per phase the rows, spans, slots,
positions, sent and collected counts and width; per step the index and
reads, the einsum spec, sublists and widths, whether it sends and
collects, and the stacked table rows its members read; per `Sequence`
the block, starts, each transfer step with its `at` array, and its
phases.  A compiler change that keeps every plan leaves the digest as it
is; one that moves anything a run reads has to say so by updating it.

`PYTHONPATH=src python tests/test_plan_parity.py` prints the current digest.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

import numpy as np

from beliefprop.cutset import greedy_cutset
from beliefprop.polytree import Phase, Sequence, two_pass_plan
from helpers import binary_star, bushy_polytree

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import netgen  # noqa: E402

DIGEST = "edeb814b6566360a5536f3f66322dae5b876c18ea1e26b78eb7a82d8d48e1692"

#: the column of `Step.index` that holds a member's row in its stack
PLACE = 2


def _record(h, *parts) -> None:
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            part = np.ascontiguousarray(part).tobytes()
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")


def _step(h, step) -> None:
    _record(h, "step", step.index, step.reads, step.spec, step.pis, step.own, step.width,
            step.table, step.sends, step.collects)
    alone = step.stack.ndim < len(step.table)  # a single message over its own table
    _record(h, step.stack if alone else step.stack.take(step.index[:, PLACE], axis=0))


def _phase(h, phase) -> None:
    _record(h, "phase", phase.rows, phase.spans, phase.slots, phase.sent, phase.positions,
            phase.collected, phase.width)
    for step in phase.steps:
        _step(h, step)


def _unit(h, unit) -> None:
    if type(unit) is Sequence:
        _record(h, "sequence", unit.block, unit.starts)
        for step, at in unit.transfers:
            _step(h, step)
            _record(h, at)
        for phase in unit.phases:
            _phase(h, phase)
    else:
        assert type(unit) is Phase
        _phase(h, unit)


def networks():
    """(label, network, cutset members) of every network the digest covers."""
    for i, n in ((0, 200), (7, 270)):  # slot i of the bench's seed-1 networks
        yield f"bushy{n}", netgen.bushy_polytree(random.Random(f"polytree/1/{i}"), n), []
    for i, n in ((8, 400), (9, 1100)):
        yield f"chain{n}", netgen.chain(random.Random(f"polytree/1/{i}"), n), []
    for i, (n, card, loops) in ((6, (100, 2, 3)), (3, (50, 2, 4))):
        net = netgen.hubbed_loopy(random.Random(f"loopy/1/{i}"), n, card, loops)
        yield f"loopy{n}x{card}^{loops}", net, greedy_cutset(net)
    yield "star1100", binary_star(1100, random.Random(0))[0], []
    yield "wide", bushy_polytree(0, n=30, max_card=12)[0], []


def plan_digest() -> str:
    h = hashlib.sha256()
    for label, net, members in networks():
        plan = two_pass_plan(net, members)
        _record(h, label, plan.cases, plan.widths, plan.order, plan.n_normalizers, plan.owners)
        for column in plan.columns:
            _record(h, *column)
        for unit in plan.steps:
            _unit(h, unit)
        _record(h, "beliefs")
        for unit in plan.beliefs:
            _unit(h, unit)
    return h.hexdigest()


def test_compiled_plans_are_identical():
    assert plan_digest() == DIGEST


if __name__ == "__main__":
    print(plan_digest())
