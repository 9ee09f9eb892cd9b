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
row per cutset case; the plan compiles, once, which slots each message
and belief reads and writes (`Rule`).  The two-pass schedule computes
each message once.
The relaxations recompute the out-of-kilter messages of a one-case run of
the empty-cutset plan until every one equals its recomputed value, and
node beliefs are then read off the same rule, normalized.  The
per-message functions load the `MessageState` they are given into such a
run.

Evidence is applied as a per-node indicator factor, equivalent to attaching
an instantiated dummy child.  Root priors enter through the node's own
table, equivalent to a dummy instantiated parent.  Messages are stored
normalized; an all-zero message marks a branch that is impossible under the
evidence and is deliberately left unnormalized.  A product of many
children's lambdas can fall below the float range; a message or belief
whose mass falls below 2^-500 is recomputed with its diagnostic vector
rescaled by a power of two, which the evidence likelihood takes back out.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

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
    plan = two_pass_plan(net, [])
    run = TwoPassRun(plan, state.evidence_factor, np.arange(1))
    for i, j in plan.arcs:
        lp = state.messages[plan.names[i], plan.names[j]]
        run.msgs[plan.rules[i, j].slot] = lp.pi[None]
        run.msgs[plan.rules[j, i].slot] = lp.lam[None]
    return run


def _loaded(net: Network, state: MessageState, a: str, to: str | None = None):
    """`state` loaded into a one-case run (see `_load`), and the ids of
    `a` and of `to` (None stays None)."""
    net.variable(a)  # an unknown name raises as it does everywhere else
    run = _load(net, state)
    ids = run.plan.ids
    return run, ids[a], None if to is None else ids[to]


def zero_mass(variable: str) -> str:
    """The message of the ImpossibleEvidenceError raised when a belief of
    `variable` has zero mass although its case is possible."""
    return f"evidence is impossible: belief of {variable} has zero mass"


def total_causal_support(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Predicted distribution of `a` from its parents' causal messages: the
    CPT contracted with the incoming pi vector of every parent (the prior
    itself when `a` is a root).  This is `a`'s unnormalized belief with
    every lambda message all-ones and no evidence."""
    causal = {
        arc: LinkParameters(lp.pi, np.ones_like(lp.lam)) for arc, lp in state.messages.items()
    }
    run, i, _ = _loaded(net, MessageState(causal, {}), a)
    return run.core(i)[0]


def total_diagnostic_support(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Product of the evidence factor (if any) and every child's lambda
    message; all-ones for an uninstantiated leaf."""
    run, i, _ = _loaded(net, state, a)
    return run.diagnostic(i, run.plan.rules[i, None].lams)[0]


def fuse_belief(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Normalized product of total causal and diagnostic support."""
    run, i, _ = _loaded(net, state, a)
    belief, mass, _ = run.normalized(i)
    if mass[0] <= 0.0:
        raise ImpossibleEvidenceError(zero_mass(a), variable=a)
    return belief[0]


def link_belief(state: MessageState, parent: str, child: str) -> np.ndarray:
    """Belief of the parent read from one arc alone: normalized elementwise
    product of the arc's pi and lambda."""
    lp = state.messages[(parent, child)]
    bel = lp.pi * lp.lam
    s = bel.sum()
    if s <= 0.0:
        raise ImpossibleEvidenceError(
            f"evidence is impossible: arc {parent}->{child} carries zero mass", variable=parent
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
    run, i, j = _loaded(net, state, a, b)
    return run.normalized(i, j)[0][0]


def update_pi_to_child(
    net: Network, state: MessageState, a: str, x: str
) -> np.ndarray:
    """Recompute the causal message parent `a` sends child `x`: total causal
    support times the evidence factor and the lambda messages of a's other
    children.  Reads nothing from arc a->x itself."""
    if x not in net.children(a):
        raise KeyError(f"{x} is not a child of {a}")
    run, i, j = _loaded(net, state, a, x)
    return run.normalized(i, j)[0][0]


def _message_keys(net: Network, plan: TwoPassPlan) -> list[tuple[int, int]]:
    """Every directed message as (sender id, receiver id): senders in
    topological order, each sending to its neighbors in name order."""
    ids = plan.ids
    return [(ids[s], ids[r]) for s in net.topological_order() for r in net.neighbors(s)]


def _moved(old: np.ndarray, new: np.ndarray) -> bool:
    return float(np.max(np.abs(old - new))) > TOLERANCE


def _store(run: TwoPassRun, key, new: np.ndarray, on_update, sweep: int) -> bool:
    """Write `new` as the message `key` of the one-case `run`; when it
    moved by more than TOLERANCE, pass it to `on_update` and return True."""
    slot = run.plan.rules[key].slot
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
    run = _load(net, state)
    if schedule == "two-pass":
        run.two_pass()
        records = list(run.records(0))
        log_likelihood = run.log_weights[0] if run.possible[0] else None
        stats = PropagationStats(sweeps=1, updates=len(records), log_likelihood=log_likelihood)
        if on_update is not None:
            for rec in records:
                on_update(rec)
    elif schedule == "synchronous":
        stats = _run_synchronous(net, run, on_update)
    elif schedule == "fair-random":
        stats = _run_fair_random(net, run, seed, on_update)
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    plan = run.plan
    for i, j in plan.arcs:
        lp = state.messages[plan.names[i], plan.names[j]]
        lp.pi, lp.lam = run.msgs[plan.rules[i, j].slot][0], run.msgs[plan.rules[j, i].slot][0]
    if schedule != "two-pass":
        for v in net.var_names():
            fuse_belief(net, state, v)  # raises on a zero-mass belief
    return state, stats


def _run_synchronous(net, run, on_update):
    keys = _message_keys(net, run.plan)
    max_sweeps = 4 * (net.underlying_diameter() + 2) + 16
    updates = 0
    for sweep in range(1, max_sweeps + 1):
        new = [run.normalized(s, r)[0] for s, r in keys]
        moved = sum(_store(run, key, m, on_update, sweep) for key, m in zip(keys, new))
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
        s, r = key
        new = run.normalized(s, r)[0]
        if _store(run, key, new, on_update, updates + 1):
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


#: a row sum below this is recomputed with the diagnostic vector rescaled
_TINY = 2.0**-500


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


class Rule(NamedTuple):
    """How a node computes one message or its belief: the slot it writes
    (None for a belief), the einsum sublist of its table, the (slot,
    sublist) of each pi it reads in table order, the slots of the lambdas
    it reads in arc order, and the sublists of its diagnostic vector and
    of the result.  The pi of arc k lives in slot 2k, its lambda in 2k+1."""

    slot: int | None
    table: list[int]
    pis: tuple[tuple[int, list[int]], ...]
    lams: tuple[int, ...]
    own: list[int]
    out: list[int]


class TwoPassPlan:
    """Pearl's collect/distribute schedule over the forest left by
    conditioning on a loop cutset, with integer node ids.

    Every arc out of a member is cut: the member's children get a leading
    case axis on their tables, one row per joint member assignment
    (`cases`, in `itertools.product` order), and each member is pinned
    per case.  So one einsum per message serves every case.  `arcs` are
    the arcs that remain, as (parent id, child id) in `Network.edges`
    order.  `rules[a, to]` is the `Rule` of the message node `a` sends its
    neighbor `to`, and `rules[a, None]` that of a's belief, each compiled
    once.  Each of `trees` is (its root, its walk's nodes, each one's
    neighbor towards the root), as in `forest_walks`.  With no members
    this is plain polytree propagation with one case.
    """

    __slots__ = ("names", "ids", "cards", "members", "cases", "arcs", "rules", "tensors", "trees")

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
        self.arcs = tuple((self.ids[p], self.ids[c]) for p, c in arcs)
        self.tensors = tuple(self._tensor(net, v) for v in self.names)
        slots, ups, downs = {}, [[] for _ in self.names], [[] for _ in self.names]
        for arc, (p, c) in enumerate(self.arcs):
            slots[p, c], slots[c, p] = 2 * arc, 2 * arc + 1  # the arc's pi and lambda
            ups[c].append(p)
            downs[p].append(c)
        self.rules = rules = {}
        neighbors = {}
        for a, tensor in enumerate(self.tensors):
            neighbors[self.names[a]] = sorted(self.names[k] for k in (*ups[a], *downs[a]))
            n = len(ups[a])
            table, own = _axes(n, tensor.ndim > n + 1), _ROW[n]
            pis = tuple((slots[p, a], _ROW[j]) for j, p in enumerate(ups[a]))
            lams = tuple(slots[c, a] for c in downs[a])
            rules[a, None] = Rule(None, table, pis, lams, own, own)
            for j, p in enumerate(ups[a]):  # the lambda message to parent j
                rules[a, p] = Rule(slots[a, p], table, pis[:j] + pis[j + 1:], lams, own, _ROW[j])
            for k, c in enumerate(downs[a]):  # the pi message to child k
                rules[a, c] = Rule(slots[a, c], table, pis, lams[:k] + lams[k + 1:], own, own)
        self.trees = []
        for root, walk in forest_walks(self.names, neighbors.__getitem__):
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

    def record(self, sweep: int, slot: int, old: np.ndarray, new: np.ndarray) -> TraceRecord:
        """The TraceRecord of the message in `slot` moving from `old` to `new`."""
        arc, is_lambda = divmod(slot, 2)
        p, c = self.arcs[arc]
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
    `possible`.  A normalizer computed from a rescaled diagnostic vector
    (see `normalized`) comes with its power of two, which `log_weights`
    takes back out, so a product below the float range stays exact."""

    __slots__ = ("plan", "n_cases", "tensors", "factors", "ones", "msgs", "sent",
                 "possible", "log_weights")

    def __init__(self, plan: TwoPassPlan, factors, live: np.ndarray) -> None:
        self.plan = plan
        self.n_cases = n_cases = len(live)
        self.tensors = plan.tensors
        if n_cases < len(plan.cases):  # keep the live rows of the case axes
            self.tensors = [
                t[live] if plan.rules[a, None].table[0] == _CASE else t
                for a, t in enumerate(plan.tensors)
            ]
        self.factors = [None] * len(plan.names)
        for v, factor in factors.items():
            i = plan.ids[v]
            self.factors[i] = np.broadcast_to(factor, (n_cases, plan.cards[i]))
        for j, m in enumerate(plan.members):
            i = plan.ids[m]
            self.factors[i] = _eye(plan.cards[i])[plan.cases[live, j]]
        self.ones = {k: np.ones((n_cases, k)) for k in set(plan.cards)}
        self.msgs: list = [None] * (2 * len(plan.arcs))
        self.sent: list[int] = []  # slots in the order they were sent

    def two_pass(self) -> None:
        """Send every message once: collect towards each tree's root, then
        distribute away from it."""
        plan = self.plan
        collected = []  # (normalizers, shift) of each collect message, then of each root's mass
        for root, nodes, towards in plan.trees:
            collected += [self._send(a, to) for a, to in zip(reversed(nodes), reversed(towards))]
            collected.append(self.normalized(root)[1:])
        for _, nodes, towards in plan.trees:
            for a, to in zip(nodes, towards):
                self._send(to, a)
        scales = np.array([np.ones(self.n_cases)] + [sums for sums, _ in collected])
        # a zero normalizer zeroes its root's mass too, so this is P(e) > 0
        self.possible = (scales > 0).all(axis=0)
        logs = np.log(scales, out=np.zeros_like(scales), where=scales > 0)
        shift = sum(shift for _, shift in collected)
        self.log_weights = (np.add.accumulate(logs)[-1] - shift * math.log(2.0)).tolist()

    def diagnostic(self, a: int, lams) -> np.ndarray:
        """Evidence factor of node `a` times the lambda in each slot of
        `lams`, one row per case; all-ones when there is neither."""
        msgs = self.msgs
        lam = self.factors[a]
        for slot in lams:
            lam = msgs[slot] if lam is None else lam * msgs[slot]
        return self.ones[self.plan.cards[a]] if lam is None else lam

    def _rescaled(self, a: int, lams) -> tuple[np.ndarray, np.ndarray]:
        """`diagnostic(a, lams)` times 2**shift per row, and `shift`.  The
        product is formed from mantissas and exponents kept apart, so no
        entry underflows on the way; then each row is scaled by the power
        of two that brings its largest entry to [0.5, 1).  An entry more
        than 2^-1074 below its row's largest still ends as 0."""
        factors = [self.diagnostic(a, ()), *map(self.msgs.__getitem__, lams)]
        stacked = np.concatenate(factors).reshape(len(factors), self.n_cases, -1)
        mants, pows = np.frexp(stacked)
        lam, power = np.ones(mants.shape[1:]), pows.sum(axis=0)
        for start in range(0, len(mants), 512):  # 512 mantissas multiply to 2^-512 or more
            lam, e = np.frexp(lam * np.prod(mants[start:start + 512], axis=0))
            power += e
        top = np.where(lam > 0, power, power.min()).max(axis=1)  # moot for an all-zero row
        return np.ldexp(lam, power - top[:, None]), -top

    def core(self, a: int, to: int | None = None, lam: np.ndarray | None = None) -> np.ndarray:
        """The local rule behind every message and belief, one row per
        case: node `a`'s table times the pi message of each parent and its
        `diagnostic` vector, summed over every axis but the recipient's.
        Whatever comes from the neighbor `to` is left out; the result
        ranges over `to`'s states when it is a parent, else over `a`'s own
        (a pi message, or a belief when `to` is None).  The diagnostic
        vector enters as one operand because einsum takes at most 64;
        `lam`, when given, stands for it."""
        _, table, pis, lams, own, out = self.plan.rules[a, to]
        msgs = self.msgs
        operands = [self.tensors[a], table]
        for slot, sub in pis:
            operands += (msgs[slot], sub)
        return np.einsum(*operands, self.diagnostic(a, lams) if lam is None else lam, own, out)

    def normalized(self, a: int, to: int | None = None):
        """`core(a, to)` with each row divided by its sum (a row summing to
        0 stays 0), the row sums, and the power of two by which each sum
        exceeds the true one.  A row summing below 2^-500, which may have
        underflowed, is recomputed from the `_rescaled` diagnostic vector;
        every other row keeps its bits and a shift of 0."""
        core = self.core(a, to)
        sums = core.sum(axis=1)
        if sums.min() >= _TINY:
            return core / sums[:, None], sums, 0
        low = sums < _TINY
        lam, shift = self._rescaled(a, self.plan.rules[a, to].lams)
        core[low] = self.core(a, to, lam)[low]
        sums = core.sum(axis=1)
        return core / np.where(sums > 0, sums, 1.0)[:, None], sums, np.where(low, shift, 0)

    def _send(self, a: int, to: int):
        """Store the message `a` sends `to`; return its normalizers and
        their shift."""
        slot = self.plan.rules[a, to].slot
        self.msgs[slot], sums, shift = self.normalized(a, to)
        self.sent.append(slot)
        return sums, shift

    def records(self, case: int):
        """The TraceRecords of one case: each message that moved away from
        its uniform start, in the order sent."""
        for slot in self.sent:
            new = self.msgs[slot][case]
            old = _uniform(len(new))
            if _moved(old, new):
                yield self.plan.record(1, slot, old, new)
