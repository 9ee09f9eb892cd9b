"""Message-passing belief propagation for singly-connected networks.

Every directed arc parent->child carries two dynamic vectors over the
parent's states: a causal-support message (pi) flowing down the arc and a
diagnostic-support message (lambda) flowing up.  Every message and every
belief comes from one sum-product rule, `TwoPassRun.core`, under every
schedule: a node multiplies its CPT by what it holds from each neighbor
except the recipient (the pi of each parent, the evidence factor times the
lambda of each child) and sums out every axis but the recipient's, or its
own for a belief.  The rule runs on a plan compiled per network and loop
cutset (`TwoPassPlan`), over integer node ids and message slots with one
row per cutset case.  The two-pass schedule computes each message once.
The relaxations recompute the out-of-kilter messages of a one-case run of
the empty-cutset plan until every one equals its recomputed value, and
node beliefs are then read off the same rule, normalized.  The
per-message functions load the `MessageState` they are given into such a
run.

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


@functools.cache
def _uniform(k: int) -> np.ndarray:
    """The read-only uniform vector over `k` states that every message
    starts as; a message is rebound, never written into."""
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


def _load(net: Network, state: MessageState) -> TwoPassRun:
    """A one-case run of the empty-cutset plan that holds `state`'s
    messages and evidence factors and has sent nothing yet."""
    run = TwoPassRun(two_pass_plan(net, []), state.evidence_factor, np.arange(1))
    for arc, (p, c) in enumerate(net.edges()):
        lp = state.messages[(p, c)]
        run.msgs[2 * arc], run.msgs[2 * arc + 1] = lp.pi[None], lp.lam[None]
    return run


def _core(net: Network, state: MessageState, a: str, to: str | None = None) -> np.ndarray:
    """`TwoPassRun.core` of `a` towards `to` on `state`'s messages (one row)."""
    net.variable(a)  # an unknown name raises as it does everywhere else
    run = _load(net, state)
    ids = run.plan.ids
    return run.core(ids[a], None if to is None else ids[to])


def _normalized(bel: np.ndarray, what: str, variable: str) -> np.ndarray:
    """`bel` divided by its sum; raises when `what` has zero mass."""
    s = bel.sum()
    if s <= 0.0:
        raise ImpossibleEvidenceError(f"evidence is impossible: {what}", variable=variable)
    return bel / s


def total_causal_support(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Predicted distribution of `a` from its parents' causal messages: the
    CPT contracted with the incoming pi vector of every parent (the prior
    itself when `a` is a root).  This is `a`'s unnormalized belief with
    every lambda message all-ones and no evidence."""
    causal = {
        arc: LinkParameters(lp.pi, np.ones_like(lp.lam)) for arc, lp in state.messages.items()
    }
    return _core(net, MessageState(causal, {}), a)[0]


def total_diagnostic_support(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Product of the evidence factor (if any) and every child's lambda
    message; all-ones for an uninstantiated leaf."""
    net.variable(a)
    run = _load(net, state)
    return run.diagnostic(run.plan.ids[a])[0]


def fuse_belief(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Normalized product of total causal and diagnostic support."""
    return _normalized(_core(net, state, a)[0], f"belief of {a} has zero mass", a)


def link_belief(state: MessageState, parent: str, child: str) -> np.ndarray:
    """Belief of the parent read from one arc alone: normalized elementwise
    product of the arc's pi and lambda."""
    lp = state.messages[(parent, child)]
    return _normalized(lp.pi * lp.lam, f"arc {parent}->{child} carries zero mass", parent)


def update_lambda_to_parent(
    net: Network, state: MessageState, a: str, b: str
) -> np.ndarray:
    """Recompute the diagnostic message child `a` sends parent `b`: the CPT
    contracted with a's total diagnostic support and the pi messages of a's
    other parents.  Reads nothing from arc b->a itself."""
    if b not in net.parents(a):
        raise KeyError(f"{b} is not a parent of {a}")
    message, _ = _normalize_rows(_core(net, state, a, b))
    return message[0]


def update_pi_to_child(
    net: Network, state: MessageState, a: str, x: str
) -> np.ndarray:
    """Recompute the causal message parent `a` sends child `x`: total causal
    support times the evidence factor and the lambda messages of a's other
    children.  Reads nothing from arc a->x itself."""
    if x not in net.children(a):
        raise KeyError(f"{x} is not a child of {a}")
    message, _ = _normalize_rows(_core(net, state, a, x))
    return message[0]


def _message_keys(net: Network, plan: TwoPassPlan) -> list[tuple[int, int, int]]:
    """Every directed message as (sender id, receiver id, slot): senders in
    topological order, each sending to its neighbors in name order."""
    ids = plan.ids
    pairs = [(ids[s], ids[r]) for s in net.topological_order() for r in net.neighbors(s)]
    return [(i, j, plan.slot(i, j)) for i, j in pairs]


def _moved(old: np.ndarray, new: np.ndarray) -> bool:
    return float(np.max(np.abs(old - new))) > TOLERANCE


def _store(run: TwoPassRun, slot: int, new: np.ndarray, on_update, sweep: int) -> bool:
    """Write the message `new` into `slot` of the one-case `run`; when it
    moved by more than TOLERANCE, pass it to `on_update` and return True."""
    old, run.msgs[slot] = run.msgs[slot], new
    moved = _moved(old, new)
    if moved and on_update is not None:
        on_update(run.plan.record(sweep, slot, old[0], new[0]))
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
        run = two_pass_plan(net, []).run(evidence)
        records = list(run.records(0))
        log_likelihood = run.log_weights[0] if run.possible[0] else None
        stats = PropagationStats(sweeps=1, updates=len(records), log_likelihood=log_likelihood)
        if on_update is not None:
            for rec in records:
                on_update(rec)
    elif schedule == "synchronous":
        run = _load(net, state)
        stats = _run_synchronous(net, run, on_update)
    elif schedule == "fair-random":
        run = _load(net, state)
        stats = _run_fair_random(net, run, seed, on_update)
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    for arc, (p, c) in enumerate(net.edges()):
        lp = state.messages[(p, c)]
        lp.pi, lp.lam = run.msgs[2 * arc][0], run.msgs[2 * arc + 1][0]
    if schedule != "two-pass":
        for v in net.var_names():
            fuse_belief(net, state, v)  # raises on a zero-mass belief
    return state, stats


def _run_synchronous(net, run, on_update):
    keys = _message_keys(net, run.plan)
    max_sweeps = 4 * (net.underlying_diameter() + 2) + 16
    updates = 0
    for sweep in range(1, max_sweeps + 1):
        new = [_normalize_rows(run.core(s, r))[0] for s, r, _ in keys]
        moved = sum(
            _store(run, slot, m, on_update, sweep) for (_, _, slot), m in zip(keys, new)
        )
        updates += moved
        if not moved:
            return PropagationStats(sweeps=sweep, updates=updates)
    raise ConvergenceError(f"no fixpoint after {max_sweeps} synchronous sweeps")


def _run_fair_random(net, run, seed, on_update):
    keys = _message_keys(net, run.plan)
    sends: dict[int, list] = {}  # each sender's keys, in the order of `keys`
    for key in keys:
        sends.setdefault(key[0], []).append(key)
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
        key = pool.pop()
        if key not in dirty:
            continue
        dirty.remove(key)
        s, r, slot = key
        new = _normalize_rows(run.core(s, r))[0]
        if _store(run, slot, new, on_update, updates + 1):
            updates += 1
            # every message r sends reads this one, except the one back to s
            for dep in sends[r]:
                if dep[1] != s and dep not in dirty:
                    dirty.add(dep)
                    pool.append(dep)
    raise ConvergenceError(f"no fixpoint after {budget} fair-random relaxations")


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
    """Each row divided by its sum (a row summing to 0 stays 0), and the
    row sums."""
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
        factors = {v: _eye(self.cards[self.ids[v]])[s] for v, s in evidence.items()}
        run = TwoPassRun(self, factors, np.arange(len(self.cases)) if live is None else live)
        run.two_pass()
        return run

    def slot(self, a: int, to: int) -> int:
        """The slot of the message node `a` sends its neighbor `to`."""
        if to in self.parents[a]:
            return 2 * (self.first[a] + self.parents[a].index(to)) + 1
        return next(2 * arc for arc in self.down[a] if self.arc_child[arc] == to)

    def record(self, sweep: int, slot: int, old: np.ndarray, new: np.ndarray) -> TraceRecord:
        """The TraceRecord of the message in `slot` moving from `old` to `new`."""
        arc, is_lambda = divmod(slot, 2)
        c = self.arc_child[arc]
        p = self.parents[c][arc - self.first[c]]
        kind = "lambda" if is_lambda else "pi"
        return TraceRecord(sweep, self.names[p], self.names[c], kind, old, new)


class TwoPassRun:
    """The messages of `plan` over the cases `live`, a row per case, with
    the evidence factor `factors[v]` (a vector over v's states) on each
    variable v that has one.  `core` is the one sum-product rule under
    every schedule: `two_pass` sends each message once, and the
    relaxations recompute the slots of a one-case run until none moves.
    Each message is `core` normalized per case; a case whose normalizer is
    0 is impossible and its row stays 0.  After `two_pass`, a stored
    collect message is its exact unnormalized value divided by its own
    normalizer and every normalizer below it, so all of them times the
    root's mass give each case's P(evidence): `log_weights`, valid where
    `possible`."""

    __slots__ = ("plan", "n_cases", "tensors", "factors", "ones", "msgs", "sent",
                 "possible", "log_weights")

    def __init__(self, plan: TwoPassPlan, factors, live: np.ndarray) -> None:
        self.plan = plan
        self.n_cases = n_cases = len(live)
        self.tensors = plan.tensors
        if n_cases < len(plan.cases):  # keep the live rows of the case axes
            self.tensors = [
                t if t.ndim == len(ps) + 1 else t[live] for t, ps in zip(plan.tensors, plan.parents)
            ]
        self.factors = [None] * len(plan.names)
        for v, factor in factors.items():
            i = plan.ids[v]
            self.factors[i] = np.broadcast_to(factor, (n_cases, plan.cards[i]))
        for j, m in enumerate(plan.members):
            i = plan.ids[m]
            self.factors[i] = _eye(plan.cards[i])[plan.cases[live, j]]
        self.ones = {k: np.ones((n_cases, k)) for k in set(plan.cards)}
        self.msgs: list = [None] * (2 * len(plan.arc_child))
        self.sent: list[int] = []  # slots in the order they were sent

    def two_pass(self) -> None:
        """Send every message once: collect towards each tree's root, then
        distribute away from it."""
        plan = self.plan
        scales = [np.ones(self.n_cases)]  # collect normalizers, then each root's mass
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

    def diagnostic(self, a: int, to: int | None = None) -> np.ndarray:
        """Evidence factor of node `a` times the lambda message of every
        child but `to`, one row per case; all-ones when there is neither."""
        plan, msgs = self.plan, self.msgs
        lam = self.factors[a]
        for arc in plan.down[a]:
            if plan.arc_child[arc] != to:
                lam = msgs[2 * arc + 1] if lam is None else lam * msgs[2 * arc + 1]
        return self.ones[plan.cards[a]] if lam is None else lam

    def core(self, a: int, to: int | None = None) -> np.ndarray:
        """The local rule behind every message and belief, one row per
        case: node `a`'s table times the pi message of each parent and its
        `diagnostic` vector, summed over every axis but the recipient's.
        Whatever comes from the neighbor `to` is left out; the result
        ranges over `to`'s states when it is a parent, else over `a`'s own
        (a pi message, or a belief when `to` is None).  The diagnostic
        vector enters as one operand because einsum takes at most 64."""
        plan, msgs = self.plan, self.msgs
        parents, first, tensor = plan.parents[a], plan.first[a], self.tensors[a]
        n = len(parents)
        operands = [tensor, _axes(n, tensor.ndim > n + 1)]
        keep = n
        for j, p in enumerate(parents):
            if p == to:
                keep = j
            else:
                operands += (msgs[2 * (first + j)], _ROW[j])
        return np.einsum(*operands, self.diagnostic(a, to), _ROW[n], _ROW[keep])

    def _send(self, a: int, to: int) -> np.ndarray:
        """Store the message `a` sends `to`; return its normalizers."""
        slot = self.plan.slot(a, to)
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
        for slot in self.sent:
            new = self.msgs[slot][case]
            old = _uniform(len(new))
            if _moved(old, new):
                yield self.plan.record(1, slot, old, new)
