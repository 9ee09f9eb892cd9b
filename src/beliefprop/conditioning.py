"""Inference by reasoning over loop-cutset cases.

For every joint assignment of the cutset variables, slice the cutset
members out of their children's tables, pin them as evidence, and run plain
polytree propagation on the resulting singly-connected network.  All the
cases that agree with the evidence run in one pass of the compiled
two-pass plan, one row per case.  Each case is weighted by its exact joint
likelihood P(evidence, cutset=assignment); beliefs are mixed across cases
only at the very end.  Mixing the messages earlier would feed the cutset
prior into the loop twice and give wrong answers (there is a regression
test for exactly that failure mode).  A singly-connected network is the
degenerate case: an empty cutset, one case, weight 1.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .cutset import greedy_cutset
from .errors import ImpossibleEvidenceError
from .model import Cpt, Evidence, Network, check_evidence
# bench/spans.py traces these under this module's names
from .polytree import evidence_log_likelihood, fuse_belief, propagate  # noqa: F401
from .polytree import two_pass_plan, zero_mass


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
    sums to 1, so only the states of a variable not asked are all 0.  The
    `queries` tuple, which lists each variable once, is kept as given."""

    __slots__ = ("_slices", "_queries", "values")

    def __init__(self, net: Network, queries, values: np.ndarray) -> None:
        self._slices = net.state_slices()
        self._queries = queries
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


@dataclass(slots=True)
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
    A case that contradicts evidence on a member is never computed.  An
    empty cutset is the polytree: one case, weight 1.  A member listed
    twice counts once.  A cutset that leaves a loop raises ValueError
    before any message is sent.  `on_update(assignment, record)` gets each
    case's TraceRecords once the pass is done, case by case.
    """
    members = list(dict.fromkeys(cutset))
    mixed, run, live, values = _mix(net, evidence, members, queries, on_update)
    queries = mixed.beliefs._queries  # shared by every case's Beliefs
    runs = [ConditionedRun(dict(zip(members, combo)), None) for combo in run.plan.cases.tolist()]
    for row, case in enumerate(live.tolist()):
        if run.possible[row]:
            runs[case].log_weight = run.log_weights[row]
            runs[case].beliefs = Beliefs(net, queries, values[row])
    return mixed, runs


def _mix(net: Network, evidence: Evidence, members: list, queries, on_update):
    """`infer_conditioned` for distinct `members`, without its per-case
    results: the mixed belief, the run of the live cases, their indices,
    and their query beliefs, a row per live case laid out by
    `Network.state_slices`.  The queries are checked in one pass, which
    lists each once and finds its id."""
    ids = net.ids()
    try:
        asked = {q: ids[q] for q in queries}
    except KeyError as unknown:
        net.variable(unknown.args[0])  # raises the unknown-variable KeyError
    queries = tuple(asked)
    check_evidence(net, evidence)
    plan = two_pass_plan(net, members)
    live = plan.live_cases(evidence)
    run = plan.run(evidence, live)
    values, masses = run.beliefs(list(asked.values()))  # in state_slices order
    if on_update is not None:
        for row, case in enumerate(live.tolist()):
            assignment = dict(zip(members, plan.cases[case].tolist()))
            for rec in run.records(row):
                on_update(assignment, rec)

    if not run.possible.any():
        shown = ", ".join(f"{v}={s}" for v, s in sorted(evidence.items()))
        raise ImpossibleEvidenceError(
            f"evidence {{{shown}}} is impossible under every cutset case"
            if members else "evidence has probability zero"
        )
    empty = (masses[:, run.possible] <= 0.0).any(axis=1)
    if empty.any():  # a belief lost every state to underflow
        q = queries[int(empty.argmax())]
        raise ImpossibleEvidenceError(zero_mass(q), variable=q)
    log_weights = np.array(run.log_weights)[run.possible]
    top = log_weights.max()
    raw = np.exp(log_weights - top)
    total = raw.sum()
    mixed = (raw / total) @ values[run.possible]
    mixed = MixedBelief(Beliefs(net, queries, mixed), float(top + math.log(total)))
    return mixed, run, live, values


def auto_infer(
    net: Network, evidence: Evidence, queries, on_update=None
) -> MixedBelief:
    """Greedy cutset conditioning; on a polytree the cutset is empty.  No
    per-case result is built."""
    return _mix(net, evidence, greedy_cutset(net), queries, on_update)[0]
