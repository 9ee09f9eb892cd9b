"""Long runs of single messages: a standing bit-parity check of the
two-pass plan on chains, and the work bound of its relaxed runs.

One sha256 digest covers `TwoPassPlan.run`'s buffer rows in the plan's
sequential order, its `log_weights` and `possible`, on benchmark chains
with and without evidence, a slow-mixing and a deterministic chain, a
chain behind a loop on several subsets of its cutset cases, and a chain
with states fainter than 2^-500 and states of probability zero.  The
digest was captured with the runs sent one message at a time, so it
pins every bit of the relaxed runs to the sequential schedule.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from pathlib import Path

import pytest

from beliefprop import polytree
from beliefprop.polytree import two_pass_plan
from helpers import build_net, markov_chain, random_table

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import netgen  # noqa: E402

DIGEST = "bc5c01be92a2026f4981d22a4b0dd558c97a953d2bf25fa600668fd8febc6f09"


def slow_chain(n: int = 1100, leave=(0.01, 0.02)):
    """A binary chain that leaves state 0 with probability leave[0] and
    state 1 with leave[1]: its pi messages keep changing in their last
    bits for hundreds of arcs.  From rows of ones, the rounds of the
    default chain change every pi message until their budget runs out."""
    return markov_chain(n, [0.9, 0.1], [[1 - leave[0], leave[0]], [leave[1], 1 - leave[1]]])


def deterministic_chain(n: int = 400):
    """A 3-state chain whose every table is a permutation."""
    return markov_chain(n, [0.2, 0.3, 0.5], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def chain_behind_loop(n: int = 800):
    """The triangle h -> c -> w, h -> w, with a chain t000 -> t001 -> ...
    of n variables hanging below w; the cutset is [h]."""
    rng = random.Random(11)
    cards = {"h": 3, "c": 2, "w": 3, **{f"t{i:03d}": rng.randint(2, 3) for i in range(n)}}
    parents = {"h": (), "c": ("h",), "w": ("h", "c"), "t000": ("w",)}
    parents.update({f"t{i:03d}": (f"t{i - 1:03d}",) for i in range(1, n)})
    return build_net(
        [(v, tuple(f"s{k}" for k in range(k))) for v, k in cards.items()],
        [(v, ps, random_table(rng, math.prod(cards[p] for p in ps), cards[v]))
         for v, ps in parents.items()],
    )


def faint_chain(n: int = 600):
    """A 3-state chain in which every 40th variable takes state 2 with
    probability 1e-170 whatever its parent, and every 7th is 0 with
    probability 0 when its parent is 1; returns the network and the
    variables with a faint state."""
    rng = random.Random(5)
    names = [f"f{i:03d}" for i in range(n)]
    cpts = [(names[0], (), [[0.2, 0.3, 0.5]])]
    for i in range(1, n):
        table = random_table(rng, 3, 3).tolist()
        if i % 40 == 0:
            table = [[row[0], 1.0 - row[0], 1e-170] for row in table]
        if i % 7 == 0:
            table[1] = [0.0, 0.4, 0.6]
        cpts.append((names[i], (names[i - 1],), table))
    net = build_net([(v, ("s0", "s1", "s2")) for v in names], cpts)
    return net, names[40::40]


def cases():
    """(label, network, cutset, evidence) of every pinned run."""
    for n, seeds in ((400, (1, 2, 3)), (1100, (1, 2))):
        for seed in seeds:
            rng = random.Random(seed)
            net = netgen.chain(rng, n)
            yield f"chain{n}/{seed}", net, [], {}
            yield f"chain{n}/{seed}/evidence", net, [], netgen.chain_evidence(rng, net, 0.1)
    yield "slow", slow_chain(), [], {}
    yield "slow/symmetric", slow_chain(leave=(0.01, 0.01)), [], {}
    yield "deterministic", deterministic_chain(), [], {}
    loop = chain_behind_loop()
    for evidence in ({}, {"h": 0}, {"h": 2}, {"t799": 1}, {"h": 1, "t400": 0},
                     {"c": 0, "t799": 2, "t100": 1}):
        yield f"loop/{sorted(evidence.items())}", loop, ["h"], evidence
    faint, marked = faint_chain()
    yield "faint/none", faint, [], {}
    yield "faint/faint", faint, [], {v: 2 for v in marked}
    yield "faint/mixed", faint, [], {**{v: 2 for v in marked[::2]}, "f599": 0, "f300": 1}
    yield "faint/impossible", faint, [], {"f006": 1, "f007": 0, "f080": 2}


def _record(h, *parts) -> None:
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")


def chain_digest() -> str:
    h = hashlib.sha256()
    for label, net, members, evidence in cases():
        plan = two_pass_plan(net, members)
        run = plan.run(evidence, plan.live_cases(evidence))
        _record(h, label)
        for slot in plan.order:
            _record(h, run.buf[slot].tobytes())
        _record(h, run.log_weights, run.possible.tobytes())
    return h.hexdigest()


def test_chain_runs_are_bit_identical():
    assert chain_digest() == DIGEST


def steps_of(unit) -> tuple:
    """The steps that one `_compute` call runs: a phase's, or a lone step."""
    return unit.steps if type(unit) is polytree.Phase else (unit,)


def members_computed(monkeypatch, run_plan) -> int:
    """How many messages and masses `run_plan()` computes, in phases or
    one at a time: every one is a member of a step."""
    count = [0]
    compute = polytree.TwoPassRun._compute

    def counted(run, unit, *args):
        count[0] += sum(len(step.index) for step in steps_of(unit))
        return compute(run, unit, *args)

    monkeypatch.setattr(polytree.TwoPassRun, "_compute", counted)
    run_plan()
    monkeypatch.undo()
    return count[0]


def test_slow_mixing_chain_stays_within_the_work_budget(monkeypatch):
    plan = two_pass_plan(slow_chain(), [])
    n = len(plan.order) + 1  # every message and the root's mass
    assert members_computed(monkeypatch, lambda: plan.run({})) <= 9 * n


@pytest.mark.parametrize("length", [8, 64, 65])
def test_runs_below_the_threshold_are_sent_in_order(monkeypatch, length):
    # a chain of n variables is one run of 2n - 1 members: 15, 127 and 129
    plan = two_pass_plan(markov_chain(length, [0.5, 0.5], [[0.9, 0.1], [0.3, 0.7]]), [])
    sizes, relaxed = [], []
    compute, relax = polytree.TwoPassRun._compute, polytree.TwoPassRun._relax
    monkeypatch.setattr(polytree.TwoPassRun, "_compute", lambda run, unit: sizes.append(
        max(len(step.index) for step in steps_of(unit))) or compute(run, unit))
    monkeypatch.setattr(polytree.TwoPassRun, "_relax",
                        lambda run, *args: relaxed.append(1) or relax(run, *args))
    plan.run({f"m{length - 1:04d}": 1})
    in_order = max(sizes) == 1 and not relaxed
    assert in_order == (2 * length - 1 < polytree._RELAX_RUN)
