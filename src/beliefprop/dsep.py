"""Path blocking and d-separation queries on the underlying graph.

A path between two variables is blocked by a conditioning set S when some
interior node stops it: a serial or diverging node stops the path when it is
observed (in S); a converging (head-to-head) node stops the path unless it
or one of its descendants is observed.  Two variables are d-separated given
S when every underlying path between them is blocked.

Paths are enumerated explicitly; fine at the network sizes this engine
targets, and it lets callers see per-path explanations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Network

SERIAL = "serial"
DIVERGING = "diverging"
CONVERGING = "converging"


@dataclass(frozen=True)
class UndirectedPath:
    """A simple path in the underlying undirected graph."""

    nodes: tuple[str, ...]

    def interior(self) -> tuple[str, ...]:
        return self.nodes[1:-1]

    def kinds(self, net: Network) -> tuple[str, ...]:
        """Connection kind of each interior node, from arc directions."""
        out, parents = [], _parent_sets(net)
        for left, mid, right in zip(self.nodes, self.nodes[1:], self.nodes[2:]):
            in_left, in_right = left in parents[mid], right in parents[mid]
            if in_left and in_right:
                out.append(CONVERGING)
            elif in_left or in_right:
                out.append(SERIAL)
            else:
                out.append(DIVERGING)
        return tuple(out)


def list_paths(net: Network, x: str, y: str) -> list[UndirectedPath]:
    """All simple underlying paths from x to y, in lexicographic order of
    their node sequences."""
    if x == y:
        raise ValueError("endpoints must differ")
    net.variable(x)
    net.variable(y)
    return list(_walk_paths(net, x, y))


def _walk_paths(net: Network, x: str, y: str):
    """Yield the simple paths from x to y in lexicographic order: a
    depth-first walk over sorted neighbors, with an explicit stack so the
    depth is not bounded by the interpreter's recursion limit."""
    trail = [x]
    on_trail = {x}
    stack = [iter(net.neighbors(x))]
    while stack:
        for nxt in stack[-1]:
            if nxt in on_trail:
                continue
            if nxt == y:
                yield UndirectedPath(tuple(trail) + (y,))
                continue
            trail.append(nxt)
            on_trail.add(nxt)
            stack.append(iter(net.neighbors(nxt)))
            break
        else:
            stack.pop()
            on_trail.remove(trail.pop())


def _check_path(net: Network, path: UndirectedPath) -> None:
    if len(path.nodes) < 2 or len(set(path.nodes)) != len(path.nodes):
        raise ValueError("not a simple path")
    for a, b in zip(path.nodes, path.nodes[1:]):
        if b not in net.neighbors(a):
            raise ValueError(f"{a} and {b} are not adjacent")


def blocking_nodes(net: Network, path: UndirectedPath, given) -> list[str]:
    """Interior nodes that stop the path under conditioning set `given`."""
    _check_path(net, path)
    return _blocking_nodes(net, path, set(given))


def _blocking_nodes(net: Network, path: UndirectedPath, s: set) -> list[str]:
    """`blocking_nodes` of a path known to be simple in `net`, such as one
    that `_walk_paths` produced."""
    out, parents, nodes = [], _parent_sets(net), path.nodes
    for left, node, right in zip(nodes, nodes[1:], nodes[2:]):
        if left in parents[node] and right in parents[node]:  # converging
            if node not in s and not (net.descendants(node) & s):
                out.append(node)
        elif node in s:
            out.append(node)
    return out


def is_blocked(net: Network, path: UndirectedPath, given) -> bool:
    return bool(blocking_nodes(net, path, given))


def _parent_sets(net: Network) -> dict[str, frozenset[str]]:
    """Each variable's parents as a set, made once per network."""
    return net.cached("parent sets", lambda: {v: frozenset(net.parents(v)) for v in net.var_names()})


def _query(net: Network, x: str, y: str, given) -> set:
    """The conditioning set of a query, after checking the query."""
    s = set(given)
    if x == y:
        raise ValueError("endpoints must differ")
    if x in s or y in s:
        raise ValueError("the conditioning set may not contain an endpoint")
    for v in (x, y, *s):
        net.variable(v)
    return s


def d_separated(net: Network, x: str, y: str, given) -> bool:
    """True iff every underlying path between x and y is blocked by
    `given`; the walk stops at the first open path."""
    s = _query(net, x, y, given)
    return all(_blocking_nodes(net, p, s) for p in _walk_paths(net, x, y))


def explain(net: Network, x: str, y: str, given) -> list[tuple[UndirectedPath, list[str]]]:
    """Every simple path from x to y, as `list_paths` orders them, with its
    `blocking_nodes` under `given`: x and y are d-separated iff each path
    has one.  Raises as `d_separated` does."""
    s = _query(net, x, y, given)
    return [(p, _blocking_nodes(net, p, s)) for p in _walk_paths(net, x, y)]
