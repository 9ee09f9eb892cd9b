"""Independent reference answers for checking the engine's outputs.

`Eliminator` runs variable elimination straight over the CPTs: evidence is
sliced out of every table, the remaining variables are summed out in a
min-degree order of the moral graph, and each intermediate factor is
rescaled with its log scale carried separately, so long networks neither
underflow nor overflow.  It shares no code with the message-passing engines.
Where the full joint fits under the oracle's state-space guard the package's
enumeration oracle is used instead.

`d_separated_reference` decides d-separation by the ancestral moral graph
criterion (Lauritzen et al. 1990), not by path enumeration.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from beliefprop.oracle import (
    STATE_SPACE_GUARD,
    oracle_evidence_probability,
    oracle_posteriors,
)


def min_degree_order(net) -> list[str]:
    """Elimination order of all variables: repeatedly take the variable with
    the fewest neighbours in the moral graph (ties to the smaller name) and
    connect its neighbours."""
    adj: dict[str, set[str]] = {v: set() for v in net.var_names()}
    for v in net.var_names():
        scope = [*net.cpts[v].parents, v]
        for a in scope:
            adj[a].update(b for b in scope if b != a)
    heap = [(len(nb), v) for v, nb in adj.items()]
    heapq.heapify(heap)
    order: list[str] = []
    done: set[str] = set()
    while heap:
        deg, v = heapq.heappop(heap)
        if v in done or deg != len(adj[v]):
            continue
        done.add(v)
        order.append(v)
        nbrs = adj.pop(v)
        for a in nbrs:
            adj[a].discard(v)
            adj[a].update(b for b in nbrs if b != a)
        for a in nbrs:
            heapq.heappush(heap, (len(adj[a]), a))
    return order


class Eliminator:
    """Variable elimination over one network; the elimination order is
    computed once and reused for every query."""

    def __init__(self, net) -> None:
        self.net = net
        self.index = {v: i for i, v in enumerate(net.var_names())}
        self.order = min_degree_order(net)
        self.factors = []
        for v in net.var_names():
            cpt = net.cpts[v]
            scope = (*cpt.parents, v)
            shape = tuple(net.card(a) for a in scope)
            self.factors.append((scope, np.asarray(cpt.table).reshape(shape)))

    def _reduced(self, evidence):
        out = []
        for scope, table in self.factors:
            if any(a in evidence for a in scope):
                idx = tuple(evidence[a] if a in evidence else slice(None) for a in scope)
                table = table[idx]
                scope = tuple(a for a in scope if a not in evidence)
            out.append((scope, table))
        return out

    def _product(self, factors, keep):
        """Multiply factors and sum out everything not in `keep`."""
        letters: dict[str, int] = {}  # einsum takes at most 52 distinct subscripts
        operands = []
        for scope, table in factors:
            operands += [table, [letters.setdefault(a, len(letters)) for a in scope]]
        return np.einsum(*operands, [letters[a] for a in keep])

    def query(self, evidence, q: str | None):
        """(belief of q, log P(evidence)).

        The belief is None when `q` is None or observed; both are None when
        the evidence has probability zero."""
        logscale = 0.0
        live: dict[int, tuple] = {}
        holding: dict[str, list[int]] = {}
        next_id = 0

        def add(scope, table) -> bool:
            nonlocal logscale, next_id
            s = float(np.max(table))
            if s <= 0.0:
                return False
            logscale += math.log(s)
            if scope:
                live[next_id] = (scope, table / s)
                for a in scope:
                    holding.setdefault(a, []).append(next_id)
                next_id += 1
            return True

        for scope, table in self._reduced(evidence):
            if not add(scope, table):
                return None, None
        for v in self.order:
            if v == q or v not in holding:
                continue
            group = [live.pop(i) for i in holding.pop(v) if i in live]
            scope = tuple(
                sorted({a for s, _ in group for a in s if a != v}, key=self.index.get)
            )
            if not add(scope, self._product(group, scope)):
                return None, None
        if q is None or q in evidence:
            return None, logscale
        final = self._product(list(live.values()), (q,))
        total = float(np.sum(final))
        if total <= 0.0:
            return None, None
        return final / total, logscale + math.log(total)


class Reference:
    """Reference beliefs and log P(e) for one network, by enumeration when
    the joint fits under the oracle's guard and by elimination otherwise."""

    def __init__(self, net) -> None:
        self.net = net
        self.small = math.prod(v.card for v in net.variables) <= STATE_SPACE_GUARD
        self.eliminator = None if self.small else Eliminator(net)

    def answer(self, evidence, queries):
        """({q: belief}, log P(e)); log P(e) is None for impossible evidence."""
        if self.small:
            p = oracle_evidence_probability(self.net, evidence)
            if p <= 0.0:
                return {}, None
            return oracle_posteriors(self.net, evidence, list(queries)), math.log(p)
        beliefs = {}
        log_p = None
        for q in queries:
            beliefs[q], log_p = self.eliminator.query(evidence, q)
        if log_p is None:
            _, log_p = self.eliminator.query(evidence, None)
        return beliefs, log_p


def d_separated_reference(net, x: str, y: str, given) -> bool:
    """x and y are d-separated by `given` iff they are disconnected in the
    moral graph of the ancestral set of {x, y} | given, with `given` removed."""
    given = set(given)
    ancestors: set[str] = set()
    stack = [x, y, *given]
    while stack:
        v = stack.pop()
        if v not in ancestors:
            ancestors.add(v)
            stack.extend(net.cpts[v].parents)
    adj: dict[str, set[str]] = {v: set() for v in ancestors}
    for v in ancestors:
        scope = [*net.cpts[v].parents, v]
        for a in scope:
            adj[a].update(b for b in scope if b != a)
    seen = {x}
    stack = [x]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w == y:
                return False
            if w not in seen and w not in given:
                seen.add(w)
                stack.append(w)
    return True
