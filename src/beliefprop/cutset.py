"""Loop cutsets: validity testing and search.

Instantiating a variable cuts every path that passes *through* it serially
or divergingly, but not a converging connection at it.  Operationally: a
set of variables is a valid cutset when deleting their outgoing arcs (their
incoming arcs stay) leaves a forest, so the conditioned network is singly
connected and plain polytree propagation applies.

Finding a minimum cutset is hard, so the default search is a deterministic
greedy heuristic; an exhaustive search is available for small networks.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .model import Network, is_forest

Cutset = list[str]


def _remaining_arcs(net: Network, members) -> list[tuple[str, str]]:
    chosen = set(members)
    return [(p, c) for p, c in net.edges() if p not in chosen]


def is_valid_cutset(net: Network, members) -> bool:
    """True iff deleting every outgoing arc of every member leaves the
    underlying graph cycle-free."""
    for m in members:
        net.variable(m)
    return is_forest(_remaining_arcs(net, members), net.var_names())


def _cycle_nodes(arcs, nodes) -> set[str]:
    """Nodes lying on some undirected cycle: endpoints of non-bridge edges,
    found with an iterative low-link DFS."""
    adj: dict[str, list[tuple[str, int]]] = {n: [] for n in nodes}
    for i, (p, c) in enumerate(arcs):
        adj[p].append((c, i))
        adj[c].append((p, i))

    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    on_cycle: set[str] = set()
    counter = itertools.count()

    for root in nodes:
        if root in disc:
            continue
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = next(counter)
        while stack:
            node, in_edge, it = stack[-1]
            advanced = False
            for nxt, edge_id in it:
                if edge_id == in_edge:
                    continue
                if nxt not in disc:
                    disc[nxt] = low[nxt] = next(counter)
                    stack.append((nxt, edge_id, iter(adj[nxt])))
                    advanced = True
                    break
                low[node] = min(low[node], disc[nxt])
                if disc[nxt] <= disc[node]:  # back edge closes a cycle
                    on_cycle.update((node, nxt))
            if advanced:
                continue
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[node])
                if low[node] <= disc[parent]:  # tree edge lies on a cycle
                    on_cycle.update((node, parent))
    return on_cycle


def greedy_cutset(net: Network) -> Cutset:
    """Deterministic degree-greedy cutset: while the reduced graph has a
    cycle, take the highest-degree node that lies on a remaining cycle and
    still has an outgoing arc (ties to the lexicographically smallest
    name).  A forest needs no search: its cutset is empty.  The search runs
    once per network; each call returns a fresh list."""
    if net.is_singly_connected():
        return []
    return list(net.cached("greedy cutset", lambda: tuple(_greedy_search(net))))


def _greedy_search(net: Network) -> Cutset:
    chosen: Cutset = []
    nodes, arcs = net.var_names(), net.edges()
    while on_cycle := _cycle_nodes(arcs, nodes):
        out_deg = Counter(p for p, _ in arcs)
        deg = out_deg + Counter(c for _, c in arcs)
        candidates = [n for n in on_cycle if out_deg[n] > 0]
        if not candidates:
            raise RuntimeError("cycle without an outgoing arc; network is not a DAG")
        pick = min(candidates, key=lambda n: (-deg[n], n))
        chosen.append(pick)
        arcs = _remaining_arcs(net, chosen)
    return chosen


def min_cutset_exhaustive(net: Network) -> Cutset:
    """Smallest valid cutset by cardinality (lexicographic tie-break), by
    subset enumeration; refuses networks above 16 variables."""
    names = sorted(net.var_names())
    if len(names) > 16:
        raise ValueError(f"exhaustive search limited to 16 variables, got {len(names)}")
    for size in range(len(names) + 1):
        for combo in itertools.combinations(names, size):
            if is_valid_cutset(net, combo):
                return list(combo)
    raise RuntimeError("no valid cutset found; network is not a DAG")
