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
        out = []
        for i in range(1, len(self.nodes) - 1):
            left, mid, right = self.nodes[i - 1], self.nodes[i], self.nodes[i + 1]
            parents = net.parents(mid)
            in_left, in_right = left in parents, right in parents
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
    out = []
    for node, kind in zip(path.interior(), path.kinds(net)):
        if kind == CONVERGING:
            if node not in s and not (net.descendants(node) & s):
                out.append(node)
        elif node in s:
            out.append(node)
    return out


def is_blocked(net: Network, path: UndirectedPath, given) -> bool:
    return bool(blocking_nodes(net, path, given))


def d_separated(net: Network, x: str, y: str, given) -> bool:
    """True iff every underlying path between x and y is blocked by `given`."""
    s = set(given)
    if x == y:
        raise ValueError("endpoints must differ")
    if x in s or y in s:
        raise ValueError("the conditioning set may not contain an endpoint")
    for v in (x, y, *s):
        net.variable(v)
    return all(_blocking_nodes(net, p, s) for p in _walk_paths(net, x, y))
