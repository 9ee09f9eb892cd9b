"""Message-passing belief propagation for singly-connected networks.

Every directed arc parent->child carries two dynamic vectors over the
parent's states: a causal-support message (pi) flowing down the arc and a
diagnostic-support message (lambda) flowing up.  Every message and every
belief comes from one sum-product rule (`_sum_product`): a node multiplies
its CPT by what it holds from each neighbor except the recipient (the pi of
each parent, the evidence factor times the lambda of each child) and sums
out every axis but the recipient's, or its own for a belief.  A scheduler
relaxes out-of-kilter messages until every one equals its recomputed value,
and node beliefs are then read off the same rule, normalized.  The two-pass
schedule computes each message once instead; it is compiled per network and
loop cutset (`TwoPassPlan`) and runs the same rule over integer node ids
with one row per cutset case (`TwoPassRun.core`).

Evidence is applied as a per-node indicator factor, equivalent to attaching
an instantiated dummy child.  Root priors enter through the node's own
table, equivalent to a dummy instantiated parent.  Messages are stored
normalized; an all-zero message marks a branch that is impossible under the
evidence and is deliberately left unnormalized.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ImpossibleEvidenceError
from .model import Evidence, Network, check_evidence, forest_walks, is_forest

#: a message moved when it changed by more than this (max-norm)
TOLERANCE = 1e-12


@dataclass
class LinkParameters:
    """Message pair on one directed arc; both vectors range over the
    parent's states."""

    pi: np.ndarray
    lam: np.ndarray


@dataclass
class MessageState:
    messages: dict[tuple[str, str], LinkParameters]
    evidence_factor: dict[str, np.ndarray]


@dataclass
class PropagationStats:
    """`updates` counts applied message changes larger than TOLERANCE.
    `log_likelihood` is log P(evidence) under the two-pass schedule (None
    when the evidence is impossible) and None under the relaxations."""

    sweeps: int
    updates: int
    log_likelihood: float | None = None


@dataclass
class TraceRecord:
    """One applied message update.  `sweep` is the synchronous sweep number,
    the running update count under the fair-random schedule, or 1 under
    the two-pass schedule."""

    sweep: int
    parent: str
    child: str
    direction: str  # "pi" or "lambda"
    old: np.ndarray
    new: np.ndarray


def _normalize(vec: np.ndarray) -> np.ndarray:
    s = vec.sum()
    if s <= 0.0:
        return np.zeros_like(vec)
    return vec / s


@functools.cache
def _uniform(k: int) -> np.ndarray:
    """The read-only uniform vector over `k` states that every message
    starts as; `_store` rebinds a message, never writes into it."""
    vec = np.full(k, 1.0 / k)
    vec.flags.writeable = False
    return vec


def init_messages(net: Network, evidence: Evidence) -> MessageState:
    """Uniform messages on every arc plus evidence indicator factors."""
    if not net.is_singly_connected():
        raise ValueError("network is not singly connected; condition on a cutset first")
    check_evidence(net, evidence)
    messages = {}
    for p, c in net.edges():
        vec = _uniform(net.card(p))
        messages[(p, c)] = LinkParameters(vec, vec)
    factors = {v: np.eye(net.card(v))[s] for v, s in evidence.items()}
    return MessageState(messages, factors)


def _lambda_product(net: Network, state: MessageState, a: str, skip=None) -> np.ndarray:
    """Evidence factor of `a` times the lambda message of every child but
    `skip`."""
    vec = np.ones(net.card(a))
    factor = state.evidence_factor.get(a)
    if factor is not None:
        vec = vec * factor
    for c in net.children(a):
        if c != skip:
            vec = vec * state.messages[(a, c)].lam
    return vec


def _sum_product(
    net: Network, state: MessageState, a: str, to: str | None = None, lam=None
) -> np.ndarray:
    """The one local rule behind every message and belief: `a`'s CPT times
    the pi message of each parent and the diagnostic vector `lam`, summed
    over every axis but the recipient's.  Whatever comes from the recipient
    `to` is left out; the result ranges over `to`'s states when it is a
    parent, else over `a`'s own (a pi message, or a belief when `to` is
    None).  `lam` defaults to `_lambda_product` without `to`; it enters as
    one operand because einsum takes at most 64."""
    parents = net.parents(a)
    n = len(parents)
    if lam is None:
        lam = _lambda_product(net, state, a, skip=to)
    operands: list = [net.cpt_tensor(a), list(range(n + 1))]
    for i, p in enumerate(parents):
        if p != to:
            operands += [state.messages[(p, a)].pi, [i]]
    keep = parents.index(to) if to in parents else n
    return np.einsum(*operands, lam, [n], [keep])


def total_causal_support(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Predicted distribution of `a` from its parents' causal messages: the
    CPT contracted with the incoming pi vector of every parent (the prior
    itself when `a` is a root)."""
    return _sum_product(net, state, a, lam=np.ones(net.card(a)))


def total_diagnostic_support(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Product of the evidence factor (if any) and every child's lambda
    message; all-ones for an uninstantiated leaf."""
    return _lambda_product(net, state, a)


def fuse_belief(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Normalized product of total causal and diagnostic support."""
    bel = _sum_product(net, state, a)
    s = bel.sum()
    if s <= 0.0:
        raise ImpossibleEvidenceError(
            f"evidence is impossible: belief of {a} has zero mass", variable=a
        )
    return bel / s


def link_belief(state: MessageState, parent: str, child: str) -> np.ndarray:
    """Belief of the parent read from one arc alone: normalized elementwise
    product of the arc's pi and lambda."""
    lp = state.messages[(parent, child)]
    bel = lp.pi * lp.lam
    s = bel.sum()
    if s <= 0.0:
        raise ImpossibleEvidenceError(
            f"evidence is impossible: arc {parent}->{child} carries zero mass",
            variable=parent,
        )
    return bel / s


def update_lambda_to_parent(
    net: Network, state: MessageState, a: str, b: str
) -> np.ndarray:
    """Recompute the diagnostic message child `a` sends parent `b`: the CPT
    contracted with a's total diagnostic support and the pi messages of a's
    other parents.  Reads nothing from arc b->a itself."""
    if b not in net.parents(a):
        raise KeyError(f"{b} is not a parent of {a}")
    return _normalize(_sum_product(net, state, a, b))


def update_pi_to_child(
    net: Network, state: MessageState, a: str, x: str
) -> np.ndarray:
    """Recompute the causal message parent `a` sends child `x`: total causal
    support times the evidence factor and the lambda messages of a's other
    children.  Reads nothing from arc a->x itself."""
    if x not in net.children(a):
        raise KeyError(f"{x} is not a child of {a}")
    return _normalize(_sum_product(net, state, a, x))


def _message_keys(net: Network) -> list[tuple[str, str]]:
    """Every directed message as (sender, receiver): senders in topological
    order, each sending to its neighbors in name order."""
    return [(s, r) for s in net.topological_order() for r in net.neighbors(s)]


def _moved(old: np.ndarray, new: np.ndarray) -> bool:
    return float(np.max(np.abs(old - new))) > TOLERANCE


def _store(net, state, sender, receiver, new, on_update, sweep) -> bool:
    """Write the message `sender` sends `receiver`; when it moved by more
    than TOLERANCE, pass it to `on_update` and return True."""
    if receiver in net.parents(sender):
        kind, p, c = "lambda", receiver, sender
        lp = state.messages[(p, c)]
        old, lp.lam = lp.lam, new
    else:
        kind, p, c = "pi", sender, receiver
        lp = state.messages[(p, c)]
        old, lp.pi = lp.pi, new
    moved = _moved(old, new)
    if moved and on_update is not None:
        on_update(TraceRecord(sweep, p, c, kind, old, new))
    return moved


def propagate(
    net: Network,
    evidence: Evidence,
    schedule: str = "synchronous",
    seed: int = 0,
    on_update=None,
) -> tuple[MessageState, PropagationStats]:
    """Bring all messages to the fixpoint.

    `schedule` is "synchronous" (full sweeps, every message recomputed from
    the previous sweep's snapshot, in the fixed order of `_message_keys`),
    "fair-random" (repeatedly pick a random possibly-out-of-kilter message,
    seeded by `seed`, until none is) or "two-pass" (each message computed
    once, see `TwoPassPlan`).  The relaxations stop once every stored
    message matches its recomputed value within TOLERANCE (max-norm) and
    raise ImpossibleEvidenceError on impossible evidence, which two-pass
    reports as a None log-likelihood.  All three reach the same fixpoint.
    """
    state = init_messages(net, evidence)
    if schedule == "two-pass":
        return state, _fill_two_pass(net, state, evidence, on_update)
    if schedule == "synchronous":
        stats = _run_synchronous(net, state, on_update)
    elif schedule == "fair-random":
        stats = _run_fair_random(net, state, seed, on_update)
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    for v in net.var_names():
        fuse_belief(net, state, v)  # raises on a zero-mass belief
    return state, stats


def _run_synchronous(net, state, on_update):
    keys = _message_keys(net)
    max_sweeps = 4 * (net.underlying_diameter() + 2) + 16
    updates = 0
    for sweep in range(1, max_sweeps + 1):
        new = [_normalize(_sum_product(net, state, s, r)) for s, r in keys]
        moved = sum(
            _store(net, state, s, r, m, on_update, sweep) for (s, r), m in zip(keys, new)
        )
        updates += moved
        if not moved:
            return PropagationStats(sweeps=sweep, updates=updates)
    raise ConvergenceError(f"no fixpoint after {max_sweeps} synchronous sweeps")


def _run_fair_random(net, state, seed, on_update):
    keys = _message_keys(net)
    dirty = set(keys)
    pool = list(keys)  # work list; may hold entries already cleaned
    rng = random.Random(seed)
    updates = 0
    budget = 1000 + 200 * len(keys) * (net.underlying_diameter() + 2)
    for _ in range(budget):
        if not dirty:
            return PropagationStats(sweeps=0, updates=updates)
        i = rng.randrange(len(pool))
        pool[i], pool[-1] = pool[-1], pool[i]
        s, r = key = pool.pop()
        if key not in dirty:
            continue
        dirty.remove(key)
        new = _normalize(_sum_product(net, state, s, r))
        if _store(net, state, s, r, new, on_update, updates + 1):
            updates += 1
            # every message r sends reads this one, except the one back to s
            for dep in ((r, m) for m in net.neighbors(r) if m != s):
                if dep not in dirty:
                    dirty.add(dep)
                    pool.append(dep)
    raise ConvergenceError(f"no fixpoint after {budget} fair-random relaxations")


def _fill_two_pass(net, state, evidence, on_update):
    """Run the empty-cutset plan and store its messages in `state`."""
    run = two_pass_plan(net, []).run(evidence)
    for arc, (p, c) in enumerate(net.edges()):
        lp = state.messages[(p, c)]
        lp.pi, lp.lam = run.msgs[2 * arc][0], run.msgs[2 * arc + 1][0]
    updates = 0
    for rec in run.records(0):
        updates += 1
        if on_update is not None:
            on_update(rec)
    log_likelihood = run.log_weights[0] if run.possible[0] else None
    return PropagationStats(sweeps=1, updates=updates, log_likelihood=log_likelihood)


def evidence_log_likelihood(net: Network, evidence: Evidence) -> float | None:
    """log P(evidence), or None when the evidence has zero probability: the
    two-pass schedule's collect normalizers."""
    return propagate(net, evidence, schedule="two-pass")[1].log_likelihood


# ----------------------------------------------------------------------
# the two-pass schedule, compiled once per network and cutset
# ----------------------------------------------------------------------

#: einsum label of the case axis; a node's own axes are labeled from 0
_CASE = 51
#: einsum sublist of a message over node axis j, one row per case
_ROW = [[_CASE, j] for j in range(_CASE)]


def _normalize_rows(core: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_normalize` of each row, and the row sums."""
    sums = core.sum(axis=1)
    return core / (sums if sums.all() else np.where(sums > 0, sums, 1.0))[:, None], sums


@functools.cache
def _axes(n_parents: int, batched: bool) -> list[int]:
    return [_CASE] * batched + list(range(n_parents + 1))


@functools.cache
def _eye(k: int) -> np.ndarray:
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def two_pass_plan(net: Network, members) -> TwoPassPlan:
    """The plan of `net` conditioned on the cutset `members` (listed once
    each), cached in the network.  Raises KeyError on an unknown member and
    ValueError when the members leave a loop."""
    return net.cached(("two-pass plan", tuple(members)), lambda: TwoPassPlan(net, members))


class TwoPassPlan:
    """Pearl's collect/distribute schedule over the forest left by
    conditioning on a loop cutset, with integer node ids.

    Every arc out of a member is cut: the member's children get a leading
    case axis on their tables, one row per joint member assignment
    (`cases`, in `itertools.product` order), and each member is pinned
    per case.  So one einsum per message serves every case.  The arcs that
    remain are numbered as in `Network.edges`; the pi message on arc `a`
    lives in slot 2a and its lambda in slot 2a + 1.  Node i's parents are
    `parents[i]`, over arcs `first[i]`, `first[i] + 1`, ...; `down[i]` are
    the arcs to its children, and `arc_child[a]` is the child end of arc a.
    Each of `trees` is (its root, its walk's nodes, each one's neighbor
    towards the root), as in `forest_walks`.  With no members this is plain
    polytree propagation with one case.
    """

    __slots__ = ("names", "ids", "cards", "members", "cases", "parents", "first",
                 "down", "arc_child", "tensors", "trees")

    def __init__(self, net: Network, members) -> None:
        self.members = tuple(members)
        ranges = [range(net.card(m)) for m in self.members]
        self.cases = np.array(list(itertools.product(*ranges)), dtype=np.intp).reshape(
            math.prod(map(len, ranges)), len(ranges)
        )
        self.cases.flags.writeable = False
        self.names = tuple(net.var_names())
        cut = set(self.members)
        arcs = [(p, c) for p, c in net.edges() if p not in cut]
        if not (is_forest(arcs, self.names) if cut else net.is_singly_connected()):
            raise ValueError(f"not a valid cutset: {list(self.members)}")

        self.ids = {v: i for i, v in enumerate(self.names)}
        self.cards = tuple(net.card(v) for v in self.names)
        parents = [[] for _ in self.names]
        down = [[] for _ in self.names]
        first = [0] * len(self.names)
        neighbors = {v: [] for v in self.names}
        for arc, (p, c) in enumerate(arcs):
            i, j = self.ids[p], self.ids[c]
            if not parents[j]:
                first[j] = arc
            parents[j].append(i)
            down[i].append(arc)
            neighbors[p].append(c)
            neighbors[c].append(p)
        self.parents = tuple(map(tuple, parents))
        self.down = tuple(map(tuple, down))
        self.first = tuple(first)
        self.arc_child = tuple(self.ids[c] for _, c in arcs)
        self.tensors = tuple(self._tensor(net, v) for v in self.names)
        self.trees = []
        for root, walk in forest_walks(self.names, lambda v: sorted(neighbors[v])):
            nodes = tuple(self.ids[a] for a, _ in walk)
            towards = tuple(self.ids[b] for _, b in walk)
            self.trees.append((self.ids[root], nodes, towards))

    def _tensor(self, net: Network, v: str) -> np.ndarray:
        """v's CPT tensor; with the members among its parents moved to the
        front and indexed by the case array, giving one leading case axis."""
        tensor = net.cpt_tensor(v)
        cut = [k for k, p in enumerate(net.parents(v)) if p in self.members]
        if not cut:
            return tensor
        columns = [self.cases[:, self.members.index(net.parents(v)[k])] for k in cut]
        tensor = np.moveaxis(tensor, cut, range(len(cut)))[tuple(columns)]
        tensor.flags.writeable = False  # shared by every run of the plan
        return tensor

    def live_cases(self, evidence: Evidence) -> np.ndarray:
        """Indices of the cases that agree with the evidence on members."""
        live = np.ones(len(self.cases), dtype=bool)
        for j, m in enumerate(self.members):
            if m in evidence:
                live &= self.cases[:, j] == evidence[m]
        return np.flatnonzero(live)

    def run(self, evidence: Evidence, live: np.ndarray | None = None) -> TwoPassRun:
        """One pass over the cases `live` (all by default)."""
        return TwoPassRun(self, evidence, np.arange(len(self.cases)) if live is None else live)


class TwoPassRun:
    """The messages of one pass, a row per live case.  Each message is
    `_sum_product` over the case axis, normalized per case; a case whose
    normalizer is 0 is impossible and its row stays 0.  A stored collect
    message is its exact unnormalized value divided by its own normalizer
    and every normalizer below it, so all of them times the root's mass
    give each case's P(evidence): `log_weights`, valid where `possible`."""

    __slots__ = ("plan", "tensors", "factors", "ones", "msgs", "sent", "possible",
                 "log_weights")

    def __init__(self, plan: TwoPassPlan, evidence: Evidence, live: np.ndarray) -> None:
        self.plan = plan
        n_cases = len(live)
        self.tensors = plan.tensors
        if n_cases < len(plan.cases):  # keep the live rows of the case axes
            self.tensors = [
                t if t.ndim == len(ps) + 1 else t[live] for t, ps in zip(plan.tensors, plan.parents)
            ]
        self.factors = [None] * len(plan.names)
        for v, s in evidence.items():
            i = plan.ids[v]
            self.factors[i] = np.broadcast_to(_eye(plan.cards[i])[s], (n_cases, plan.cards[i]))
        for j, m in enumerate(plan.members):
            i = plan.ids[m]
            self.factors[i] = _eye(plan.cards[i])[plan.cases[live, j]]
        self.ones = {k: np.ones((n_cases, k)) for k in set(plan.cards)}
        self.msgs: list = [None] * (2 * len(plan.arc_child))
        self.sent: list[int] = []  # slots in the order they were sent

        scales = [np.ones(n_cases)]  # collect normalizers, then each root's mass
        for root, nodes, towards in plan.trees:
            scales += [self._send(a, to) for a, to in zip(reversed(nodes), reversed(towards))]
            scales.append(self.core(root).sum(axis=1))
        for _, nodes, towards in plan.trees:
            for a, to in zip(nodes, towards):
                self._send(to, a)
        scales = np.array(scales)
        # a zero normalizer zeroes its root's mass too, so this is P(e) > 0
        self.possible = (scales > 0).all(axis=0)
        logs = np.log(scales, out=np.zeros_like(scales), where=scales > 0)
        self.log_weights = np.add.accumulate(logs)[-1].tolist()

    def core(self, a: int, to: int | None = None) -> np.ndarray:
        """`_sum_product` of node `a` towards `to` (a belief when None),
        one row per case."""
        plan, msgs = self.plan, self.msgs
        lam = self.factors[a]
        for arc in plan.down[a]:
            if plan.arc_child[arc] != to:
                lam = msgs[2 * arc + 1] if lam is None else lam * msgs[2 * arc + 1]
        if lam is None:
            lam = self.ones[plan.cards[a]]
        parents, first, tensor = plan.parents[a], plan.first[a], self.tensors[a]
        n = len(parents)
        operands = [tensor, _axes(n, tensor.ndim > n + 1)]
        keep = n
        for j, p in enumerate(parents):
            if p == to:
                keep = j
            else:
                operands += (msgs[2 * (first + j)], _ROW[j])
        return np.einsum(*operands, lam, _ROW[n], _ROW[keep])

    def _send(self, a: int, to: int) -> np.ndarray:
        """Store the message `a` sends `to`; return its normalizers."""
        plan = self.plan
        if to in plan.parents[a]:
            slot = 2 * (plan.first[a] + plan.parents[a].index(to)) + 1
        else:
            slot = next(2 * arc for arc in plan.down[a] if plan.arc_child[arc] == to)
        self.msgs[slot], sums = _normalize_rows(self.core(a, to))
        self.sent.append(slot)
        return sums

    def belief(self, a: int) -> np.ndarray:
        """Normalized belief of node `a`, one row per case (0 where the
        case is impossible)."""
        return _normalize_rows(self.core(a))[0]

    def records(self, case: int):
        """The TraceRecords of one case: each message that moved away from
        its uniform start, in the order sent."""
        plan = self.plan
        for slot in self.sent:
            arc, is_lambda = divmod(slot, 2)
            c = plan.arc_child[arc]
            p = plan.parents[c][arc - plan.first[c]]
            new = self.msgs[slot][case]
            old = _uniform(len(new))
            if _moved(old, new):
                kind = "lambda" if is_lambda else "pi"
                yield TraceRecord(1, plan.names[p], plan.names[c], kind, old, new)
