"""Shared fixtures: fixed example networks and seeded random generators."""

from __future__ import annotations

import math
import random

import numpy as np

from beliefprop.model import Cpt, Network, Variable, all_assignments, joint_probability


def build_net(var_defs, cpt_defs, name=None) -> Network:
    """var_defs: [(name, states)]; cpt_defs: [(child, parents, table)]."""
    variables = [Variable(n, tuple(s)) for n, s in var_defs]
    cpts = [Cpt(c, tuple(p), t) for c, p, t in cpt_defs]
    return Network(variables, cpts, name=name)


def chain_net() -> Network:
    """A -> B with P(A)=(0.3,0.7), P(B|A) rows (0.9,0.1) and (0.2,0.8)."""
    return build_net(
        [("A", ("f", "t")), ("B", ("f", "t"))],
        [("A", (), [[0.3, 0.7]]), ("B", ("A",), [[0.9, 0.1], [0.2, 0.8]])],
    )


FIG1_EDGES = {
    "x1": (),
    "x2": ("x1",),
    "x3": ("x1",),
    "x4": ("x1", "x2"),
    "x5": ("x2", "x3"),
    "x6": ("x5",),
}


def fig1_net(seed: int = 0) -> Network:
    """Six binary variables wired x1->{x2,x3,x4}, x2->{x4,x5}, x3->x5,
    x5->x6 (two undirected loops through x1), random positive tables."""
    rng = random.Random(seed)
    var_defs = [(n, ("0", "1")) for n in FIG1_EDGES]
    cpt_defs = [
        (n, ps, random_table(rng, 2 ** len(ps), 2)) for n, ps in FIG1_EDGES.items()
    ]
    return build_net(var_defs, cpt_defs)


def fig1_fixed() -> Network:
    """The fig1 topology with hand-picked skewed tables: x2 and x3 track x1
    closely and x5 reacts to their agreement, so any method that ignores the
    loop is visibly wrong."""
    return build_net(
        [(f"x{i}", ("0", "1")) for i in range(1, 7)],
        [
            ("x1", (), [[0.6, 0.4]]),
            ("x2", ("x1",), [[0.95, 0.05], [0.05, 0.95]]),
            ("x3", ("x1",), [[0.9, 0.1], [0.1, 0.9]]),
            ("x4", ("x1", "x2"), [[0.9, 0.1], [0.3, 0.7], [0.6, 0.4], [0.2, 0.8]]),
            ("x5", ("x2", "x3"), [[0.9, 0.1], [0.1, 0.9], [0.1, 0.9], [0.9, 0.1]]),
            ("x6", ("x5",), [[0.85, 0.15], [0.2, 0.8]]),
        ],
    )


def diamond_net(prefix: str = "", seed: int = 3) -> Network:
    """A -> B, A -> C, B -> D, C -> D (one undirected 4-cycle)."""
    rng = random.Random(seed)
    a, b, c, d = (prefix + n for n in "ABCD")
    return build_net(
        [(n, ("f", "t")) for n in (a, b, c, d)],
        [
            (a, (), random_table(rng, 1, 2)),
            (b, (a,), random_table(rng, 2, 2)),
            (c, (a,), random_table(rng, 2, 2)),
            (d, (b, c), random_table(rng, 4, 2)),
        ],
    )


def binary_star(d: int, rng: random.Random):
    """Root R with prior (0.35, 0.65) and d binary children c0, c1, ...
    (zero-padded) with tables drawn from `rng`; returns the network, the
    prior and the tables."""
    prior = np.array([0.35, 0.65])
    tables = [random_table(rng, 2, 2) for _ in range(d)]
    children = [f"c{i:0{len(str(d - 1))}d}" for i in range(d)]
    net = build_net(
        [("R", ("f", "t"))] + [(c, ("f", "t")) for c in children],
        [("R", (), [prior])] + [(c, ("R",), t) for c, t in zip(children, tables)],
    )
    return net, prior, tables


def faint_evidence_net() -> Network:
    """Root r, uniform, with children c0 ... c3 whose rows are (1, 1e-200)
    and (1e-200, 1), mirrored for c2 and c3.  Observing every child at f
    has probability 1e-400 and leaves r uniform."""
    rows = [[1.0, 1e-200], [1e-200, 1.0]]
    return build_net(
        [(v, ("f", "t")) for v in ("r", "c0", "c1", "c2", "c3")],
        [("r", (), [[0.5, 0.5]])]
        + [(f"c{i}", ("r",), rows if i < 2 else rows[::-1]) for i in range(4)],
    )


def lost_state_net() -> Network:
    """Root r with prior (0, 1) and children c0, c1 with rows (1, 1e-200)
    and (1e-200, 1).  Observing both at f has probability 1e-400, all of
    it on r=t, whose diagnostic support lies 1e-400 below r=f's: more
    than a double can hold apart within one vector."""
    rows = [[1.0, 1e-200], [1e-200, 1.0]]
    return build_net(
        [(v, ("f", "t")) for v in ("r", "c0", "c1")],
        [("r", (), [[0.0, 1.0]]), ("c0", ("r",), rows), ("c1", ("r",), rows)],
    )


def random_table(rng: random.Random, rows: int, k: int, low: float = 0.05):
    t = np.array([[rng.uniform(low, 1.0) for _ in range(k)] for _ in range(rows)])
    return t / t.sum(axis=1, keepdims=True)


def random_polytree(
    seed: int,
    max_nodes: int = 15,
    min_nodes: int = 2,
    max_card: int = 4,
    max_evidence: int = 3,
):
    """A random singly-connected network plus a random evidence set.

    The underlying graph is a uniformly attached random tree with each edge
    oriented by a fair coin.  Cards fall to 2, largest first, while the
    joint has more than 2^20 states, so up to 20 variables the enumeration
    oracle stays applicable.
    """
    rng = random.Random(seed)
    n = rng.randint(min_nodes, max_nodes)
    cards = [rng.randint(2, max_card) for _ in range(n)]
    while math.prod(cards) > 1 << 20 and max(cards) > 2:
        cards[cards.index(max(cards))] = 2
    names = [f"n{i:02d}" for i in range(n)]
    parents: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(1, n):
        j = rng.randrange(i)
        if rng.random() < 0.5:
            parents[i].append(j)
        else:
            parents[j].append(i)
    var_defs = [
        (names[i], tuple(f"s{k}" for k in range(cards[i]))) for i in range(n)
    ]
    cpt_defs = []
    for i in range(n):
        rows = math.prod(cards[p] for p in parents[i])
        cpt_defs.append(
            (names[i], tuple(names[p] for p in parents[i]),
             random_table(rng, rows, cards[i]))
        )
    net = build_net(var_defs, cpt_defs)
    assert net.is_singly_connected()
    picked = rng.sample(range(n), rng.randint(0, min(max_evidence, n)))
    evidence = {names[i]: rng.randrange(cards[i]) for i in picked}
    return net, evidence


def bushy_polytree(seed: int, n: int = 40, max_card: int = 4, max_parents: int = 3):
    """A random singly-connected network of n variables with 2..max_card
    states, plus evidence on a tenth of them.  Each variable links to a
    uniformly drawn earlier one, so the tree is shallow and many nodes
    share a depth; the arc points into the earlier one while it has fewer
    than `max_parents` parents, else out of it."""
    rng = random.Random(seed)
    cards = [rng.randint(2, max_card) for _ in range(n)]
    parents: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        j = rng.randrange(i)
        if len(parents[j]) < max_parents and rng.random() < 0.5:
            parents[j].append(i)
        else:
            parents[i].append(j)
    names = [f"b{i:02d}" for i in range(n)]
    net = build_net(
        [(names[i], tuple(f"s{k}" for k in range(cards[i]))) for i in range(n)],
        [
            (names[i], tuple(names[p] for p in parents[i]),
             random_table(rng, math.prod(cards[p] for p in parents[i]), cards[i]))
            for i in range(n)
        ],
    )
    picked = rng.sample(range(n), n // 10)
    return net, {names[i]: rng.randrange(cards[i]) for i in picked}


def random_loopy(
    seed: int, max_nodes: int = 12, min_nodes: int = 4, max_evidence: int = 3
):
    """A random binary DAG with at least one undirected cycle, plus random
    evidence."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(min_nodes, max_nodes)
        names = [f"n{i:02d}" for i in range(n)]
        var_defs = [(names[i], ("0", "1")) for i in range(n)]
        cpt_defs = []
        for i in range(n):
            n_parents = min(i, rng.choice((0, 1, 1, 2, 2, 3)))
            ps = sorted(rng.sample(range(i), n_parents))
            cpt_defs.append(
                (names[i], tuple(names[p] for p in ps),
                 random_table(rng, 2 ** n_parents, 2))
            )
        net = build_net(var_defs, cpt_defs)
        if not net.is_singly_connected():
            picked = rng.sample(range(n), rng.randint(0, min(max_evidence, n)))
            evidence = {names[i]: rng.randrange(2) for i in picked}
            return net, evidence


def enum_marginal(net: Network, evidence, q: str):
    """Literal per-assignment sum over the joint; the slow cross-check for
    the vectorized oracle."""
    acc = np.zeros(net.card(q))
    for asg in all_assignments(net):
        if all(asg[v] == s for v, s in evidence.items()):
            acc[asg[q]] += joint_probability(net, asg)
    total = acc.sum()
    assert total > 0
    return acc / total


def markov_chain(n: int, prior, rows) -> Network:
    """m0000 -> m0001 -> ... of n variables: `prior` on the first and the
    same table `rows` on every arc."""
    names = [f"m{i:04d}" for i in range(n)]
    states = tuple(f"s{k}" for k in range(len(prior)))
    return build_net(
        [(v, states) for v in names],
        [(names[0], (), [prior])] + [(v, (u,), rows) for u, v in zip(names, names[1:])],
    )


def sent_in_order(plan, evidence, live):
    """The reference for a two-pass run: every message of `plan.order`
    sent alone, as its `plan.single` step, one after another, over the
    cases `live`, then each tree's mass.  Returns the buffer, each case's
    log P(evidence) (collect normalizers and masses, their powers of two
    taken out), the sum of the sizes of the terms that went into it, and
    whether each case is possible."""
    from beliefprop.polytree import TwoPassRun

    run = TwoPassRun(plan, {v: np.eye(plan.cards[plan.ids[v]])[s] for v, s in evidence.items()},
                     live)
    sums, shifts, senders = [], [], set()

    def send(a, to):
        values, total, shift = run._compute(plan.single(a, to))
        sums.append(total[0])
        shifts.append(np.broadcast_to(shift, total.shape)[0])
        return values[0]

    for k, slot in enumerate(plan.order):
        p, c = plan.arcs[slot // 2]
        a, to = (c, p) if slot % 2 else (p, c)
        run.buf[slot, :, :plan.widths[slot]] = send(a, to)
        if k >= len(plan.arcs):  # a distribute message: no normalizer
            sums.pop(), shifts.pop()
        else:
            senders.add(a)
    for a in range(len(plan.names)):
        if a not in senders:  # a root
            send(a, None)
    sums, shifts = np.array(sums).reshape(-1, len(live)), np.array(shifts).reshape(-1, len(live))
    logs = np.log(sums, out=np.zeros_like(sums), where=sums > 0)
    scale = np.abs(logs).sum(axis=0) + np.abs(shifts).sum(axis=0) * math.log(2.0)
    return (run.buf, logs.sum(axis=0) - shifts.sum(axis=0) * math.log(2.0), scale,
            (sums > 0).all(axis=0))


def assert_sent_in_order(plan, evidence, rtol=1e-12):
    """`plan.run` over the cases `evidence` leaves live has every message
    within `rtol` relative, entry by entry, of `sent_in_order`, with the
    same zero entries, the same possible cases, and log P(evidence)
    within `rtol` where possible, relative to the larger of 1 and the
    sizes of the terms summed into it."""
    live = plan.live_cases(evidence)
    run = plan.run(evidence, live)
    buf, logs, scale, possible = sent_in_order(plan, evidence, live)
    rows = list(plan.order)
    ours, theirs = run.buf[rows], buf[rows]
    assert ((ours == 0) == (theirs == 0)).all()
    assert (np.abs(ours - theirs) <= rtol * np.abs(theirs)).all()
    assert run.possible.tolist() == possible.tolist()
    for ours, theirs, size in zip(np.array(run.log_weights)[possible], logs[possible],
                                  scale[possible]):
        assert abs(ours - theirs) <= rtol * max(1.0, size)
