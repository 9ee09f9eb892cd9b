"""Seeded network and evidence generators for the benchmark workloads.

Every generator takes a `random.Random` and nothing else that varies, so the
same seed always yields the same networks.  Generators build `Network`
objects directly; callers push them through `serialize` -> `parse` so the
engine sees exactly what a user loading a `.bn` file would see.

The shapes are chosen so that the cost of an operation depends on the
workload slot (size, cardinality, loop count) and hardly on the seed:
trees have their depth capped and a directed, never observed spine along a
longest path, which pins the number of synchronous sweeps, and loopy
networks get their loops from small disjoint motifs on tree leaves, whose
cutset is fixed by construction and leaves the tree whole.
"""

from __future__ import annotations

import math
import random

import numpy as np

from beliefprop.model import Cpt, Network, Variable

#: default depth cap of a bushy polytree (its spine has 2 * 8 arcs)
BUSHY_DEPTH = 8
#: depth cap of the tree under a loopy network (its spine has 2 * 6 arcs)
LOOPY_DEPTH = 6
#: smallest CPT entry before row normalization; keeps every evidence set possible
TABLE_FLOOR = 0.05

FIG1_TEXT = """\
# six binary variables with two undirected loops through x1
net fig1
var x1 : 0 1
var x2 : 0 1
var x3 : 0 1
var x4 : 0 1
var x5 : 0 1
var x6 : 0 1

cpt x1 :
  0.6 0.4
cpt x2 | x1 :
  0 : 0.95 0.05
  1 : 0.05 0.95
cpt x3 | x1 :
  0 : 0.9 0.1
  1 : 0.1 0.9
cpt x4 | x1 x2 :
  0 0 : 0.9 0.1
  0 1 : 0.3 0.7
  1 0 : 0.6 0.4
  1 1 : 0.2 0.8
cpt x5 | x2 x3 :
  0 0 : 0.9 0.1
  0 1 : 0.1 0.9
  1 0 : 0.1 0.9
  1 1 : 0.9 0.1
cpt x6 | x5 :
  0 : 0.85 0.15
  1 : 0.2 0.8
"""


def _table(rng: random.Random, rows: int, card: int) -> np.ndarray:
    t = np.array([[rng.uniform(TABLE_FLOOR, 1.0) for _ in range(card)] for _ in range(rows)])
    return t / t.sum(axis=1, keepdims=True)


def _build(name: str, names, cards, parents, rng: random.Random) -> Network:
    variables = [
        Variable(names[i], tuple(f"s{k}" for k in range(cards[i]))) for i in range(len(names))
    ]
    cpts = [
        Cpt(
            names[i],
            tuple(names[p] for p in parents[i]),
            _table(rng, math.prod(cards[p] for p in parents[i]), cards[i]),
        )
        for i in range(len(names))
    ]
    return Network(variables, cpts, name=name)


def spine_size(max_depth: int) -> int:
    """Variables 0 .. spine_size - 1 of a capped tree form its spine."""
    return 2 * max_depth + 1


def _capped_tree(rng: random.Random, n: int, max_depth: int, max_parents: int):
    """Random tree on n nodes with a directed spine of 2 * max_depth arcs.

    The spine (when n allows) runs max_depth -> ... -> 1 -> 0 -> max_depth+1
    -> ... -> 2*max_depth.  Every other node attaches to a uniformly chosen
    earlier node above the depth cap, with a fair-coin direction unless
    that would exceed `max_parents`.  The depth cap makes the spine a
    longest path, and while no spine variable is observed, causal support
    needs one synchronous sweep per spine arc to cross it, so the number of
    sweeps stays near that bound (it stops earlier only where the changes
    fall below the tolerance) and the cost of a network hardly depends on
    the seed."""
    depth = [0]
    eligible = [0]
    parents: list[list[int]] = [[]]
    for i in range(1, n):
        if i < spine_size(max_depth):
            j = 0 if i in (1, max_depth + 1) else i - 1
        else:
            j = rng.choice(eligible)
        depth.append(depth[j] + 1)
        parents.append([])
        if depth[i] < max_depth:
            eligible.append(i)
        if i <= max_depth:
            parents[j].append(i)
        elif i < spine_size(max_depth):
            parents[i].append(j)
        elif rng.random() < 0.5 and len(parents[j]) < max_parents:
            parents[j].append(i)
        else:
            parents[i].append(j)
    return parents


def bushy_polytree(
    rng: random.Random, n: int, max_card: int = 4, max_parents: int = 3, max_depth: int = BUSHY_DEPTH
) -> Network:
    """Singly-connected network of n variables with 2..max_card states."""
    parents = _capped_tree(rng, n, max_depth, max_parents)
    cards = [rng.randint(2, max_card) for _ in range(n)]
    names = [f"v{i:04d}" for i in range(n)]
    return _build(f"bushy{n}", names, cards, parents, rng)


def chain(rng: random.Random, n: int, max_card: int = 3) -> Network:
    """c0000 -> c0001 -> ... : every arc points away from the first variable."""
    parents = [[]] + [[i - 1] for i in range(1, n)]
    cards = [rng.randint(2, max_card) for _ in range(n)]
    names = [f"c{i:04d}" for i in range(n)]
    return _build(f"chain{n}", names, cards, parents, rng)


def hubbed_loopy(rng: random.Random, n: int, card: int, loops: int) -> Network:
    """Multiply-connected network of n variables, all with `card` states.

    A capped random tree on n - 2*loops variables gets `loops` triangle
    motifs h -> c -> w plus the extra arc h -> w, each on its own tree leaf
    h (whose tree arc is turned to point into h), with fresh variables c
    and w.  The triangles are disjoint, h has the highest degree on each,
    so the greedy cutset is exactly the hubs: card**loops cases.  A hub
    keeps its tree parent when conditioned on, so every case propagates
    over the whole tree, whose diameter is pinned.
    """
    base = n - 2 * loops
    parents = _capped_tree(rng, base, LOOPY_DEPTH, max_parents=3)
    degree = [len(ps) for ps in parents]
    for i, ps in enumerate(parents):
        for p in ps:
            degree[p] += 1
    leaves = [i for i in range(base) if degree[i] <= 1]
    off_spine = [i for i in leaves if i >= spine_size(LOOPY_DEPTH)]
    hubs = rng.sample(off_spine if len(off_spine) >= loops else leaves, loops)
    for h in hubs:
        for j, ps in enumerate(parents):
            if h in ps:  # h is its neighbour's parent: turn the arc around
                ps.remove(h)
                parents[h].append(j)
        c = len(parents)
        parents.append([h])
        parents.append([c, h])
    names = [f"v{i:03d}" for i in range(n)]
    return _build(f"loopy{n}", names, [card] * n, parents, rng)


def dense_dag(
    rng: random.Random, n: int, arc_prob: float, tables: random.Random | None = None
) -> Network:
    """Binary DAG on n variables: each pair i < j gets the arc i -> j with
    probability `arc_prob` (parents capped at 4 to keep tables small).  The
    arcs come from `rng`, the tables from `tables` (default: `rng` too)."""
    parents: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        for i in range(j):
            if len(parents[j]) < 4 and rng.random() < arc_prob:
                parents[j].append(i)
    names = [f"d{i:02d}" for i in range(n)]
    return _build(f"dense{n}", names, [2] * n, parents, tables or rng)


def count_paths(net: Network, x: str, y: str) -> int:
    """Number of simple paths between x and y in the underlying undirected
    graph (the benchmark's own count, independent of `list_paths`)."""
    adj: dict[str, set[str]] = {v: set() for v in net.var_names()}
    for v in net.var_names():
        for p in net.cpts[v].parents:
            adj[v].add(p)
            adj[p].add(v)
    seen = {x}

    def walk(node: str) -> int:
        total = 0
        for nxt in adj[node]:
            if nxt == y:
                total += 1
            elif nxt not in seen:
                seen.add(nxt)
                total += walk(nxt)
                seen.remove(nxt)
        return total

    return walk(x)


def loopy_evidence(rng: random.Random, net: Network, loops: int, fraction: float) -> dict[str, int]:
    """Evidence for a `hubbed_loopy` network: round(fraction * tree size)
    tree variables other than hubs (and off the spine, see `random_evidence`)
    at uniform states, plus the hub h and the middle variable c of the first
    triangle.  The hubs are the cutset, so exactly one member is observed:
    every operation has the same numbers of live and of impossible cases,
    instead of a count that depends on whether random evidence happened to
    land on a member."""
    names = net.var_names()
    base = len(names) - 2 * loops
    hubs = {net.cpts[names[base + 2 * k]].parents[0] for k in range(loops)}
    c = names[base]
    count = max(1, round(fraction * base))
    tree = [v for v in names[:base] if v not in hubs]
    spine = set(names[: spine_size(LOOPY_DEPTH)])
    off_spine = [v for v in tree if v not in spine]
    pool = off_spine if len(off_spine) >= count else tree
    picked = rng.sample(pool, count) + [net.cpts[c].parents[0], c]
    return {v: rng.randrange(net.card(v)) for v in sorted(picked)}


def chain_evidence(rng: random.Random, net: Network, fraction: float) -> dict[str, int]:
    """Observe every round(1 / fraction)-th variable of a chain (at least the
    last one) at uniform states.  Information crosses only the stretches
    between observed variables, so fixed positions fix the number of sweeps."""
    names = net.var_names()
    spacing = round(1 / fraction)
    picked = names[spacing - 1 :: spacing] or names[-1:]
    return {v: rng.randrange(net.card(v)) for v in picked}


def random_evidence(
    rng: random.Random, net: Network, fraction: float, spine: int = 0
) -> dict[str, int]:
    """Observe round(fraction * n) (at least one) variables at uniform states,
    none of the first `spine` variables when enough others remain.  An
    observed spine variable would cut the spine short and with it the number
    of sweeps, so the cost of an operation would depend on where the
    evidence fell."""
    names = net.var_names()
    count = max(1, round(fraction * len(names)))
    pool = names[spine:] if len(names) - spine >= count else names
    picked = rng.sample(pool, count)
    return {v: rng.randrange(net.card(v)) for v in sorted(picked)}
