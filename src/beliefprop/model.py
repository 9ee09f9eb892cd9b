"""Discrete Bayes networks: variables, conditional probability tables, topology.

A network is a DAG in which every variable carries exactly one CPT over its
parent set; the product of all CPT entries selected by a full assignment is
the joint probability of that assignment.  Network and Cpt are immutable
after construction, so they can be shared freely across threads.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

# Observed state index per variable name.
Evidence = dict[str, int]

#: rows whose sum is off by no more than this are renormalized at load time
ROW_SUM_RENORM_TOL = 1e-6
#: rows must sum to 1 within this after renormalization
ROW_SUM_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class Variable:
    """A multivalued variable with ordered, labeled states."""

    name: str
    states: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def card(self) -> int:
        return len(self.states)


class Cpt:
    """P(child | parents) as a row-stochastic table.

    One row per parent configuration, enumerated in row-major order of the
    declared parent list (last parent varies fastest); one column per child
    state.  Rows whose sum is within ROW_SUM_RENORM_TOL of 1 are rescaled to
    sum exactly 1 on construction; worse rows are kept as-is so validate()
    can report them.
    """

    def __init__(self, child: str, parents: tuple[str, ...] | list[str], table) -> None:
        self.child = child
        self.parents = tuple(parents)
        arr = np.array(table, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        _renormalize(arr)
        arr.flags.writeable = False
        self.table = arr

    @classmethod
    def _of(cls, child: str, parents, table: np.ndarray) -> Cpt:
        """A Cpt over `table` as it is: renormalized and read-only already."""
        cpt = cls.__new__(cls)
        cpt.child, cpt.parents, cpt.table = child, tuple(parents), table
        return cpt

    @property
    def n_states(self) -> int:
        return self.table.shape[1]

    @property
    def n_rows(self) -> int:
        return self.table.shape[0]


def _renormalize(arr: np.ndarray) -> None:
    """Rescale in place each row of `arr` whose sum is positive and within
    ROW_SUM_RENORM_TOL of 1 (dividing the others by 1.0 keeps their bits)."""
    sums = arr.sum(axis=1)
    fixable = (np.abs(sums - 1.0) <= ROW_SUM_RENORM_TOL) & (sums > 0)
    arr /= np.where(fixable, sums, 1.0)[:, None]


def stacked_cpts(specs) -> list[Cpt]:
    """`[Cpt(child, parents, rows) for child, parents, rows in specs]`, bit
    for bit, with one array and one renormalization per row width instead
    of one per table.  Every table needs at least one row.  numpy sums
    each row of a C-contiguous array on its own, so a row's sum does not
    depend on the rows stacked with it; each table is a read-only view of
    its rows."""
    groups: dict[int, list[int]] = {}
    for i, (_, _, rows) in enumerate(specs):
        groups.setdefault(len(rows[0]), []).append(i)
    tables: list = [None] * len(specs)
    for members in groups.values():
        arr = np.array([row for i in members for row in specs[i][2]], dtype=float)
        _renormalize(arr)
        arr.flags.writeable = False
        start = 0
        for i in members:
            stop = start + len(specs[i][2])
            tables[i], start = arr[start:stop], stop
    return [Cpt._of(child, parents, table) for (child, parents, _), table in zip(specs, tables)]


class Network:
    """A set of variables plus one Cpt per variable; arcs are derived from
    the CPT parent lists.  Construction is permissive (validate() reports
    violations); topology queries assume a valid network."""

    def __init__(self, variables, cpts, name: str | None = None) -> None:
        self.name = name
        self.variables: list[Variable] = list(variables)
        self.vars_by_name: dict[str, Variable] = {v.name: v for v in self.variables}
        self.cpt_list: list[Cpt] = list(cpts)
        self.cpts: dict[str, Cpt] = {}
        for cpt in self.cpt_list:
            self.cpts.setdefault(cpt.child, cpt)
        self._cache: dict = {}

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def variable(self, name: str) -> Variable:
        try:
            return self.vars_by_name[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def card(self, name: str) -> int:
        return self.variable(name).card

    def ids(self) -> dict[str, int]:
        """Each variable's place in declaration order."""
        return self.cached("ids", lambda: {v.name: i for i, v in enumerate(self.variables)})

    def var_names(self) -> list[str]:
        return [v.name for v in self.variables]

    def cpt(self, name: str) -> Cpt:
        self.variable(name)
        return self.cpts[name]

    def parents(self, name: str) -> tuple[str, ...]:
        return self.cpt(name).parents

    def children(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        return self.cached("children", self._children_map).get(name, ())

    def edges(self) -> list[tuple[str, str]]:
        """Directed arcs parent -> child, in declaration order of the child."""
        return self.cached("edges", self._edges)

    def _edges(self) -> list[tuple[str, str]]:
        out = []
        for v in self.variables:
            cpt = self.cpts.get(v.name)
            if cpt is not None:
                out.extend((p, v.name) for p in cpt.parents)
        return out

    def _children_map(self) -> dict[str, tuple[str, ...]]:
        acc: dict[str, list[str]] = {}
        for p, c in self.edges():
            acc.setdefault(p, []).append(c)
        return {p: tuple(cs) for p, cs in acc.items()}

    def neighbors(self, name: str) -> tuple[str, ...]:
        """Adjacent variables in the underlying undirected graph, sorted."""
        return self.cached(
            ("neighbors", name), lambda: tuple(sorted({*self.parents(name), *self.children(name)}))
        )

    def descendants(self, name: str) -> frozenset[str]:
        return self.cached(("descendants", name), lambda: self._descendants(name))

    def _descendants(self, name: str) -> frozenset[str]:
        self.variable(name)
        seen: set[str] = set()
        stack = list(self.children(name))
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(self.children(v))
        return frozenset(seen)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def topological_order(self) -> list[str]:
        """Parents before children, lexicographic tie-break.  On a cyclic
        graph the result is partial (shorter than the variable count)."""
        return self.cached("topo", self._topological_order)

    def _topological_order(self) -> list[str]:
        indeg = {v.name: 0 for v in self.variables}
        for _, c in self.edges():
            indeg[c] += 1
        ready = [n for n, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            n = heapq.heappop(ready)
            order.append(n)
            for c in self.children(n):
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        return order

    def is_singly_connected(self) -> bool:
        """True iff the underlying undirected graph is a forest."""
        return self.cached("forest", lambda: is_forest(self.edges(), self.var_names()))

    def cached(self, key, build):
        """The value cached under `key`, made by `build()` on first use; a
        build that raises caches nothing."""
        try:
            return self._cache[key]
        except KeyError:
            pass
        self._cache[key] = value = build()
        return value

    def underlying_diameter(self) -> int:
        """Longest shortest-path length in the underlying undirected graph,
        maximized over connected components: two breadth-first searches per
        tree on a forest, O(n), and one from every node otherwise."""
        return self.cached("diameter", self._diameter)

    def _diameter(self) -> int:
        if not self.is_singly_connected():  # a breadth-first search from every node
            return max((max(self._distances(v).values()) for v in self.var_names()), default=0)
        # in a tree, the node farthest from any node ends a longest path
        best, seen = 0, set()
        for v in self.var_names():
            if v not in seen:
                dist = self._distances(v)
                seen.update(dist)
                best = max(best, max(self._distances(max(dist, key=dist.get)).values()))
        return best

    def _distances(self, source: str) -> dict[str, int]:
        """Each node of `source`'s component and its distance from it."""
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for n in frontier:
                for m in self.neighbors(n):
                    if m not in dist:
                        dist[m] = dist[n] + 1
                        nxt.append(m)
            frontier = nxt
        return dist

    # ------------------------------------------------------------------
    # table addressing
    # ------------------------------------------------------------------

    def row_index(self, name: str, config: tuple[int, ...]) -> int:
        """Row of `name`'s CPT for the given parent-state configuration."""
        idx = 0
        for p, s in zip(self.parents(name), config):
            idx = idx * self.card(p) + s
        return idx

    def state_slices(self) -> dict[str, slice]:
        """Each variable's slice of a vector over the states of all
        variables, in declaration order."""
        return self.cached("slices", self._state_slices)

    def _state_slices(self) -> dict[str, slice]:
        stops = itertools.accumulate(v.card for v in self.variables)
        return {v.name: slice(stop - v.card, stop) for v, stop in zip(self.variables, stops)}

    def cpt_tensor(self, name: str) -> np.ndarray:
        """CPT reshaped to one axis per parent (declared order) plus a final
        child axis."""
        key = "tensor", name
        tensor = self._cache.get(key)
        if tensor is None:  # cached as `cached` would, without a closure per call
            cpt = self.cpt(name)
            tensor = cpt.table.reshape([*map(self.card, cpt.parents), cpt.n_states])
            self._cache[key] = tensor
        return tensor


def forest_walks(nodes, neighbors) -> tuple:
    """The two-pass walk of each tree of a forest, in order of its first
    node in `nodes`: (its root, its walk).  Each tree is rooted at its
    smallest name; the walk pairs every other node with its neighbor
    towards the root, in depth-first pre-order.  `neighbors(v)` gives v's
    neighbors sorted.  Each tree is walked once, from the smallest node
    not yet walked."""
    first = dict(zip(nodes, itertools.count()))  # each node's place in `nodes`
    walks = []
    for v in sorted(first):
        if v in first:
            walk = _walk(v, neighbors)
            walks.append((min(map(first.pop, [v, *map(itemgetter(0), walk)])), v, walk))
    return tuple((root, walk) for _, root, walk in sorted(walks, key=itemgetter(0)))


def _walk(start, neighbors) -> tuple:
    walk, stack = [], [(m, start) for m in neighbors(start)]
    while stack:
        node, towards = stack.pop()
        walk.append((node, towards))
        stack += [(m, node) for m in neighbors(node) if m != towards]
    return tuple(walk)


def is_forest(arcs, nodes) -> bool:
    """True iff the undirected graph on `nodes` with one edge per arc has no
    cycle (union-find, stopping at the first arc that closes one)."""
    rep = {n: n for n in nodes}

    def find(n):
        while rep[n] != n:
            rep[n] = rep[rep[n]]
            n = rep[n]
        return n

    for p, c in arcs:
        rp, rc = find(p), find(c)
        if rp == rc:
            return False
        rep[rp] = rc
    return True


def validate(net: Network) -> list[str]:
    """Check every Network and Cpt invariant; return one message per
    violation (empty list when the network is well formed)."""
    problems: list[str] = []

    seen_vars: set[str] = set()
    for v in net.variables:
        if v.name in seen_vars:
            problems.append(f"variable {v.name}: duplicate declaration")
        seen_vars.add(v.name)
        if v.card < 2:
            problems.append(f"variable {v.name}: needs at least 2 states, has {v.card}")
        if len(set(v.states)) != len(v.states):
            problems.append(f"variable {v.name}: duplicate state labels")

    seen_cpts: set[str] = set()
    for cpt in net.cpt_list:
        tag = f"cpt {cpt.child}"
        if cpt.child not in net.vars_by_name:
            problems.append(f"{tag}: child is not a declared variable")
            continue
        if cpt.child in seen_cpts:
            problems.append(f"{tag}: duplicate table for this variable")
            continue
        seen_cpts.add(cpt.child)

        bad_ref = False
        for p in cpt.parents:
            if p not in net.vars_by_name:
                problems.append(f"{tag}: unknown parent {p!r}")
                bad_ref = True
        if len(set(cpt.parents)) != len(cpt.parents):
            problems.append(f"{tag}: duplicate parent in parent list")
            bad_ref = True
        if bad_ref:
            continue

        expect_rows = math.prod(net.card(p) for p in cpt.parents)
        if cpt.n_rows != expect_rows:
            problems.append(
                f"{tag}: has {cpt.n_rows} rows, expected {expect_rows}"
            )
            continue
        if cpt.n_states != net.card(cpt.child):
            problems.append(
                f"{tag}: rows have {cpt.n_states} entries, expected {net.card(cpt.child)}"
            )
            continue
        if _rows_pass(cpt.table):
            continue
        for i, row in enumerate(cpt.table):
            if np.any(row < 0) or not np.all(np.isfinite(row)):
                problems.append(f"{tag}: row {i} has a negative or non-finite entry")
            elif abs(row.sum() - 1.0) > ROW_SUM_CHECK_TOL:
                problems.append(f"{tag}: row {i} sums to {row.sum():.9g}, not 1")

    for v in net.variables:
        if v.name not in net.cpts:
            problems.append(f"variable {v.name}: no cpt")

    if not problems and len(net.topological_order()) != len(net.variables):
        on_cycle = sorted(set(net.var_names()) - set(net.topological_order()))
        problems.append(f"graph has a directed cycle involving {', '.join(on_cycle)}")

    return problems


def _rows_pass(table: np.ndarray) -> bool:
    """Whether every row of `table` certainly passes `validate`'s row
    checks: no entry is negative and every row sums to 1 within half the
    tolerance, since the row-by-row sum may round differently.  NaN fails
    both tests and inf the second, so such a table is walked row by row."""
    return bool(
        (table >= 0.0).all()
        and (np.abs(table.sum(axis=1) - 1.0) <= ROW_SUM_CHECK_TOL / 2).all()
    )


def check_evidence(net: Network, evidence: Evidence) -> None:
    """Raise ValueError on an observed state out of its variable's range."""
    for var, s in evidence.items():
        if not 0 <= s < net.card(var):
            raise ValueError(f"state {s} out of range for variable {var!r}")


def joint_probability(net: Network, assignment: dict[str, int]) -> float:
    """Probability of a full assignment: the product over all variables of
    the CPT entry selected by the assignment."""
    for v in net.variables:
        if v.name not in assignment:
            raise ValueError(f"assignment is missing variable {v.name!r}")
        s = assignment[v.name]
        if not 0 <= s < v.card:
            raise ValueError(f"state {s} out of range for variable {v.name!r}")
    p = 1.0
    for v in net.variables:
        cpt = net.cpts[v.name]
        config = tuple(assignment[q] for q in cpt.parents)
        p *= cpt.table[net.row_index(v.name, config), assignment[v.name]]
    return p


def all_assignments(net: Network):
    """Iterate every full assignment as a dict, row-major in declaration
    order.  Intended for small networks only."""
    names = net.var_names()
    for combo in itertools.product(*(range(net.card(n)) for n in names)):
        yield dict(zip(names, combo))
