"""Inference by reasoning over loop-cutset cases.

For every joint assignment of the cutset variables, slice the cutset
members out of their children's tables, pin them as evidence, and run plain
polytree propagation on the resulting singly-connected network.  Each case
is weighted by its exact joint likelihood P(evidence, cutset=assignment);
beliefs are mixed across cases only at the very end.  Mixing the messages
earlier would feed the cutset prior into the loop twice and give wrong
answers (there is a regression test for exactly that failure mode).
A singly-connected network is the degenerate case: an empty cutset, one
case, weight 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .cutset import greedy_cutset
from .errors import ImpossibleEvidenceError
from .model import Cpt, Evidence, Network, check_evidence
# bench/spans.py also traces evidence_log_likelihood under this module's name
from .polytree import evidence_log_likelihood, fuse_belief, propagate  # noqa: F401


@dataclass
class ConditionedRun:
    """One cutset assignment: its exact log weight (None when the case is
    impossible) and, for a possible case, the fixpoint belief of each
    query (None otherwise)."""

    assignment: dict[str, int]
    log_weight: float | None
    beliefs: Beliefs | None = None


class Beliefs(Mapping):
    """Read-only map from each query variable to its belief vector.  The
    vectors are views of one array over all the network's states, laid out
    by `Network.state_slices`, so results mix as whole arrays.  A belief
    sums to 1, so only the states of a variable not asked are all 0."""

    def __init__(self, net: Network, queries, values: np.ndarray) -> None:
        self._slices = net.state_slices()
        self._queries = tuple(dict.fromkeys(queries))
        self.values = values
        self.values.flags.writeable = False

    def __getitem__(self, q: str) -> np.ndarray:
        where = self._slices.get(q)
        if where is None or not self.values[where].any():
            raise KeyError(q)
        return self.values[where]

    def __iter__(self):
        return iter(self._queries)

    def __len__(self) -> int:
        return len(self._queries)


@dataclass
class MixedBelief:
    beliefs: Beliefs
    log_likelihood: float


def condition_network(
    net: Network, cutset, assignment: dict[str, int], evidence: Evidence | None = None
) -> tuple[Network, Evidence]:
    """Reduce the network under one cutset assignment.

    Every child of a cutset member gets that member sliced out of its
    table at the assigned state; the member keeps its own table and parents
    and becomes evidence, so its probability is counted exactly once.
    The cutset is valid when the reduced network, which comes back, proves
    in its own cache that it is a forest; when no member has a child, it is
    `net` itself.  Raises ImpossibleEvidenceError when prior evidence
    contradicts the assignment.
    """
    members = list(cutset)
    if set(assignment) != set(members):
        raise ValueError("assignment must cover exactly the cutset members")
    check_evidence(net, assignment)

    reduced = net
    if any(net.children(m) for m in members):  # some table changes
        new_cpts = []
        for v in net.variables:
            cpt = net.cpts[v.name]
            if any(p in assignment for p in cpt.parents):
                index = tuple(assignment.get(p, slice(None)) for p in cpt.parents)
                kept = tuple(p for p in cpt.parents if p not in assignment)
                table = net.cpt_tensor(v.name)[index].reshape(-1, v.card)
                cpt = Cpt(v.name, kept, table)
            new_cpts.append(cpt)
        reduced = Network(net.variables, new_cpts, name=net.name)
    if not reduced.is_singly_connected():
        raise ValueError(f"not a valid cutset: {members}")

    evidence = dict(evidence or {})
    for m in members:
        if evidence.setdefault(m, assignment[m]) != assignment[m]:
            raise ImpossibleEvidenceError(
                f"evidence on {m} contradicts cutset assignment", variable=m
            )
    return reduced, evidence


def infer_conditioned(
    net: Network, evidence: Evidence, cutset, queries, on_update=None
) -> tuple[MixedBelief, list[ConditionedRun]]:
    """Enumerate all cutset assignments, propagate each, and mix.

    Per-case weights are exp(log P(evidence, cutset=assignment)) normalized
    over the possible cases, and the beliefs are the weighted sum of the
    per-case beliefs.  A cutset member is pinned in each case, so its
    belief is the total weight of the cases assigning each of its states.
    An empty cutset is the polytree: one case, weight 1.  A member listed
    twice counts once.  A cutset that leaves a loop raises ValueError
    before any message is sent.
    """
    members = list(dict.fromkeys(cutset))
    queries = list(queries)
    for q in queries:
        net.variable(q)
    check_evidence(net, evidence)
    slices = net.state_slices()
    n_states = sum(v.card for v in net.variables)

    runs: list[ConditionedRun] = []
    for combo in itertools.product(*(range(net.card(m)) for m in members)):
        assignment = dict(zip(members, combo))
        run = ConditionedRun(assignment, None)
        runs.append(run)
        if any(m in evidence and evidence[m] != assignment[m] for m in members):
            continue
        reduced, reduced_ev = condition_network(net, members, assignment, evidence)
        callback = functools.partial(on_update, assignment) if on_update else None
        state, stats = propagate(reduced, reduced_ev, schedule="two-pass", on_update=callback)
        run.log_weight = stats.log_likelihood
        if run.log_weight is not None:
            values = np.zeros(n_states)
            for q in queries:
                values[slices[q]] = fuse_belief(reduced, state, q)
            run.beliefs = Beliefs(net, queries, values)

    live = [r for r in runs if r.log_weight is not None]
    if not live:
        shown = ", ".join(f"{v}={s}" for v, s in sorted(evidence.items()))
        raise ImpossibleEvidenceError(
            f"evidence {{{shown}}} is impossible under every cutset case"
            if members else "evidence has probability zero"
        )
    top = max(r.log_weight for r in live)
    raw = [math.exp(r.log_weight - top) for r in live]
    total = sum(raw)
    log_likelihood = top + math.log(total)
    values = sum(w / total * run.beliefs.values for run, w in zip(live, raw))
    return MixedBelief(Beliefs(net, queries, values), log_likelihood), runs


def auto_infer(
    net: Network, evidence: Evidence, queries, on_update=None
) -> MixedBelief:
    """Greedy cutset conditioning; on a polytree the cutset is empty."""
    return infer_conditioned(net, evidence, greedy_cutset(net), queries, on_update)[0]
