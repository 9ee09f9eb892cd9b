"""Long runs of single messages: a standing bit-parity check of the
two-pass plan on chains, the blocked scan against messages sent one at a
time, its kernel passes, and deep chains against variable elimination.

One sha256 digest covers `TwoPassPlan.run`'s buffer rows in the plan's
sequential order, its `log_weights` and `possible`, on benchmark chains
with and without evidence, a slow-mixing and a deterministic chain, a
chain behind a loop on several subsets of its cutset cases, a chain with
states fainter than 2^-500 and states of probability zero, a comb whose
spine nodes have a second parent each, two chains that merge into a
third, and random trees of branching paths.  The digest was recaptured when long runs moved from relaxed
rounds, whose fixpoint was bit for bit the sequential schedule, to the
blocked scan: the first input of each block now comes from a product of
transfer matrices, not from the message before it, so the messages of a
long run moved in their last bits.  Every row is still computed by the
one kernel, and `test_scan_matches_messages_sent_in_order` holds each
case to 1e-12 of sending every message alone.

`PYTHONPATH=src python tests/test_chain_parity.py` prints the current digest.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import io
import math
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from beliefprop import cli, polytree
from beliefprop import plan as plan_module
from beliefprop.conditioning import auto_infer
from beliefprop.netformat import serialize
from beliefprop.polytree import two_pass_plan
from helpers import assert_sent_in_order, build_net, markov_chain, random_table

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import netgen  # noqa: E402
import refinfer  # noqa: E402

DIGEST = "3cfd385d99de9f382d012be489fdbddf12b9ff5ea9e1d20abb73d697be113e74"


def slow_chain(n: int = 1100, leave=(0.01, 0.02)):
    """A binary chain that leaves state 0 with probability leave[0] and
    state 1 with leave[1]: its pi messages keep changing in their last
    bits for hundreds of arcs."""
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


def comb_chain(n: int = 300):
    """A 3-state spine s000 -> s001 -> ... in which every node after the
    first also has a binary root parent r001, r002, ..., listed before the
    spine parent on even nodes and after it on odd ones."""
    rng = random.Random(13)
    defs = [("s000", ())]
    for k in range(1, n):
        spine, root = f"s{k - 1:03d}", f"r{k:03d}"
        defs += [(root, ()), (f"s{k:03d}", (root, spine) if k % 2 == 0 else (spine, root))]
    card = {v: 2 if v[0] == "r" else 3 for v, _ in defs}
    return build_net(
        [(v, tuple(f"x{j}" for j in range(card[v]))) for v, _ in defs],
        [(v, ps, random_table(rng, math.prod(card[p] for p in ps), card[v])) for v, ps in defs],
    )


def merging_chains(n: int = 200):
    """Chains a000 -> ... and b000 -> ... of n binary variables whose last
    variables are both parents of c000, the head of a third chain: the
    messages through c000 read two long paths at once."""
    rng = random.Random(17)
    defs = [("a000", ()), ("b000", ())]
    for x in "ab":
        defs += [(f"{x}{i:03d}", (f"{x}{i - 1:03d}",)) for i in range(1, n)]
    defs += [("c000", (f"a{n - 1:03d}", f"b{n - 1:03d}"))]
    defs += [(f"c{i:03d}", (f"c{i - 1:03d}",)) for i in range(1, n)]
    return build_net([(v, ("f", "t")) for v, _ in defs],
                     [(v, ps, random_table(rng, 2 ** len(ps), 2)) for v, ps in defs])


def branching_paths(seed: int):
    """A random tree of one to five paths of 20 to 200 variables with 2 to
    4 states, each hanging off a variable before it; an arc points back
    now and then, giving a variable a second parent, so messages turn at
    roots and paths meet."""
    rng = random.Random(seed)
    names, parents = ["a0000"], {"a0000": ()}
    for _ in range(rng.randint(1, 5)):
        prev = rng.choice(names)
        for _ in range(rng.randint(20, 200)):
            v = f"a{len(names):04d}"
            parents[v] = (prev,)
            if rng.random() >= 0.85 and len(parents[prev]) < 2:
                parents[v], parents[prev] = (), parents[prev] + (v,)
            names.append(v)
            prev = v
    cards = {v: rng.randint(2, 4) for v in names}
    return build_net(
        [(v, tuple(f"x{j}" for j in range(cards[v]))) for v in names],
        [(v, ps, random_table(rng, math.prod(cards[p] for p in ps), cards[v]))
         for v, ps in parents.items()],
    )


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
    comb = comb_chain()
    yield "comb/none", comb, [], {}
    yield "comb/evidence", comb, [], {"s150": 2, "r151": 0, "s299": 1}
    merging = merging_chains()
    yield "merging/none", merging, [], {}
    yield "merging/evidence", merging, [], {"a100": 0, "c000": 1, "c199": 0}
    for seed in (31, 38):
        yield f"branching/{seed}", branching_paths(seed), [], {}


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


@functools.cache
def pinned_cases() -> tuple:
    return tuple(cases())


@pytest.mark.parametrize("case", range(len(pinned_cases())),
                         ids=[label for label, *_ in pinned_cases()])
def test_scan_matches_messages_sent_in_order(case):
    label, net, members, evidence = pinned_cases()[case]
    plan = two_pass_plan(net, members)
    assert any(type(unit) is plan_module.Sequence for unit in plan.steps), label
    assert_sent_in_order(plan, evidence)


def heavy_chain(at: int, n: int = 100, children: int = 1100):
    """A binary chain m000 -> ... of n variables in which variable `at`
    has `children` more leaf children: the product of their lambdas falls
    below the float range, so its transfer matrix reads as 0."""
    rng = random.Random(3)
    chain = [f"m{i:03d}" for i in range(n)]
    leaves = [f"x{i:04d}" for i in range(children)]
    defs = [(chain[0], (), [[0.3, 0.7]])]
    defs += [(v, (u,), random_table(rng, 2, 2)) for u, v in zip(chain, chain[1:])]
    defs += [(x, (chain[at],), random_table(rng, 2, 2)) for x in leaves]
    return build_net([(v, ("f", "t")) for v in chain + leaves], defs)


@pytest.mark.parametrize("at", [10, 30])
def test_a_block_input_the_scan_got_wrong_is_mended(at, monkeypatch):
    # the scan writes 0 after the member whose product underflows; the
    # phases run again until every block input is the kernel's own row
    net = heavy_chain(at)
    plan = two_pass_plan(net, [])
    checks = []
    allclose = np.allclose
    monkeypatch.setattr(polytree.np, "allclose", lambda *args, **kwargs: checks.append(
        allclose(*args, **kwargs)) or checks[-1])
    for evidence in ({}, {"m099": 1, "m000": 0}):
        checks.clear()
        assert_sent_in_order(plan, evidence)
        assert checks.count(False) >= 5 and checks[-1]


def test_faint_transfer_matrices_are_scaled_before_they_multiply(monkeypatch):
    # every variable observed in a state of probability 1e-170: each
    # transfer matrix is that small, and two of them multiplied unscaled
    # would underflow and make the phases run again for every block
    rng = random.Random(5)
    names = [f"f{i:03d}" for i in range(200)]
    cpts = [(names[0], (), [[0.2, 0.3, 0.5]])]
    for u, v in zip(names, names[1:]):
        cpts.append((v, (u,), [[row[0], 1.0 - row[0], 1e-170]
                               for row in random_table(rng, 3, 3).tolist()]))
    plan = two_pass_plan(build_net([(v, ("s0", "s1", "s2")) for v in names], cpts), [])
    checks = []
    allclose = np.allclose
    monkeypatch.setattr(polytree.np, "allclose", lambda *args, **kwargs: checks.append(
        allclose(*args, **kwargs)) or checks[-1])
    assert_sent_in_order(plan, {v: 2 for v in names[1:]})
    assert checks == [True]


def kernel_passes(monkeypatch, run_plan) -> int:
    """How many `_compute` calls `run_plan()` makes: phases, lone steps and
    transfer matrices."""
    count = [0]
    compute = polytree.TwoPassRun._compute

    def counted(run, *args, **kwargs):
        count[0] += 1
        return compute(run, *args, **kwargs)

    monkeypatch.setattr(polytree.TwoPassRun, "_compute", counted)
    run_plan()
    monkeypatch.undo()
    return count[0]


def test_slow_mixing_chain_stays_within_the_work_budget(monkeypatch):
    # the chain is one long run; its kernel passes grow as the square root
    plan = two_pass_plan(slow_chain(), [])
    members = len(plan.order) + 1  # every message and the root's mass
    assert [type(unit) for unit in plan.steps] == [plan_module.Sequence]
    assert kernel_passes(monkeypatch, lambda: plan.run({})) <= math.sqrt(members)


@pytest.mark.parametrize("length", [8, 16, 17, 64, 65])
def test_runs_below_the_threshold_are_sent_in_order(monkeypatch, length):
    # a chain of n variables is one run of 2n - 1 members: 15, 31, 33,
    # 127 and 129; below _SCAN_RUN it is one-member steps in phases
    plan = two_pass_plan(markov_chain(length, [0.5, 0.5], [[0.9, 0.1], [0.3, 0.7]]), [])
    sizes, scanned = [], []
    compute, scan = polytree.TwoPassRun._compute, polytree.TwoPassRun._scan
    monkeypatch.setattr(polytree.TwoPassRun, "_compute", lambda run, unit, **kwargs: sizes.append(
        max(len(step.index) for step in steps_of(unit))) or compute(run, unit, **kwargs))
    monkeypatch.setattr(polytree.TwoPassRun, "_scan",
                        lambda run, *args: scanned.append(1) or scan(run, *args))
    plan.run({f"m{length - 1:04d}": 1})
    in_order = max(sizes) == 1 and not scanned
    assert in_order == (2 * length - 1 < plan_module._SCAN_RUN)


def steps_of(unit) -> tuple:
    """The steps that one `_compute` call runs: a phase's, or a lone step."""
    return unit.steps if type(unit) is plan_module.Phase else (unit,)


DEEP = [
    pytest.param(lambda: (netgen.chain(random.Random(1), 3000), None), id="chain3000"),
    pytest.param(lambda: (netgen.chain(random.Random(1), 3000), 0.1), id="chain3000/evidence"),
    pytest.param(lambda: (slow_chain(1100), None), id="slow1100"),
]


@pytest.mark.parametrize("build", DEEP)
def test_deep_chains_match_elimination(build, monkeypatch):
    net, fraction = build()
    evidence = {} if fraction is None else netgen.chain_evidence(random.Random(2), net, fraction)
    names = [v for v in net.var_names() if v not in evidence]
    mixed = auto_infer(net, evidence, names)
    queries = names[::250] + names[-1:]
    truth, log_p = refinfer.Reference(net).answer(evidence, queries)
    assert mixed.log_likelihood == pytest.approx(log_p, abs=1e-9)
    for q in queries:
        np.testing.assert_allclose(mixed.beliefs[q], truth[q], rtol=0, atol=1e-9)
    plan = two_pass_plan(net, [])
    members = len(plan.order) + 1
    assert kernel_passes(monkeypatch, lambda: plan.run(evidence)) <= math.sqrt(members)


def test_a_long_run_plan_holds_little_memory():
    # the benchmark's chain1100, its network's own caches warmed by a
    # first plan: a plan that held a step per run member took 2.1 MiB
    net = netgen.chain(random.Random("polytree/1/9"), 1100)
    plan_module.TwoPassPlan(net, [])
    gc.collect()
    tracemalloc.start()
    try:
        plan = plan_module.TwoPassPlan(net, [])
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [type(unit) for unit in plan.steps] == [plan_module.Sequence]
    assert held <= 1.3 * 2**20


def test_building_the_bench_polytree_plans_is_bounded_in_memory():
    # the benchmark's ten seed-1 polytrees, their networks' own caches
    # warmed by a first plan: the parent of the array compiler peaked at
    # 6.12 MiB and held 3.45 MiB
    slots = [(netgen.bushy_polytree, n) for n in range(200, 280, 10)]
    slots += [(netgen.chain, 400), (netgen.chain, 1100)]
    nets = [make(random.Random(f"polytree/1/{i}"), n) for i, (make, n) in enumerate(slots)]
    for net in nets:
        plan_module.TwoPassPlan(net, [])
    gc.collect()
    tracemalloc.start()
    try:
        plans = [plan_module.TwoPassPlan(net, []) for net in nets]
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(plans) == 10 and peak <= 6.12 * 2**20 and held <= 3.45 * 2**20


def test_infer_on_a_3000_variable_chain_file(tmp_path):
    path = tmp_path / "chain3000.bn"
    path.write_text(serialize(netgen.chain(random.Random(1), 3000)))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["infer", str(path), "--likelihood"], out=out, err=err) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 3001 and lines[-1].startswith("P(e) = ") and err.getvalue() == ""


if __name__ == "__main__":
    print(chain_digest())
