"""Message-passing belief propagation for singly-connected networks.

Every directed arc parent->child carries two dynamic vectors over the
parent's states: a causal-support message (pi) flowing down the arc and a
diagnostic-support message (lambda) flowing up.  Every message and every
belief comes from one sum-product rule (`_sum_product`): a node multiplies
its CPT by what it holds from each neighbor except the recipient (the pi of
each parent, the evidence factor times the lambda of each child) and sums
out every axis but the recipient's, or its own for a belief.  A scheduler
relaxes out-of-kilter messages until every one equals its recomputed value,
and node beliefs are then read off the same rule, normalized.

Evidence is applied as a per-node indicator factor, equivalent to attaching
an instantiated dummy child.  Root priors enter through the node's own
table, equivalent to a dummy instantiated parent.  Messages are stored
normalized; an all-zero message marks a branch that is impossible under the
evidence and is deliberately left unnormalized.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ImpossibleEvidenceError
from .model import Evidence, Network, check_evidence

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
    moved = float(np.max(np.abs(old - new))) > TOLERANCE
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
    once, see `_run_two_pass`).  The relaxations stop once every stored
    message matches its recomputed value within TOLERANCE (max-norm) and
    raise ImpossibleEvidenceError on impossible evidence, which two-pass
    reports as a None log-likelihood.  All three reach the same fixpoint.
    """
    state = init_messages(net, evidence)
    if schedule == "two-pass":
        return state, _run_two_pass(net, state, on_update)
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


def _run_two_pass(net, state, on_update):
    """Pearl's collect/distribute order.  In each component every node sends
    towards the root once its subtree has reported (post-order), then the
    root side answers outward (pre-order), so each of the 2|E| messages is
    computed once, from final inputs.  A stored collect message is its exact
    unnormalized value divided by its own normalizer and every normalizer
    below it, so all of them times the root's mass give P(evidence)."""
    updates = 0

    def send(sender, receiver):
        nonlocal updates
        core = _sum_product(net, state, sender, receiver)
        updates += _store(net, state, sender, receiver, _normalize(core), on_update, 1)
        return core.sum()

    walks = net.tree_walks()
    scales = []  # collect normalizers, then each root's mass
    for root, walk in walks:
        scales += [send(node, towards) for node, towards in reversed(walk)]
        scales.append(_sum_product(net, state, root).sum())
    for _, walk in walks:
        for node, towards in walk:
            send(towards, node)
    # a zero normalizer zeroes its root's mass too, so this is P(e) > 0
    possible = all(s > 0.0 for s in scales)
    log_likelihood = sum(map(math.log, scales)) if possible else None
    return PropagationStats(sweeps=1, updates=updates, log_likelihood=log_likelihood)


def evidence_log_likelihood(net: Network, evidence: Evidence) -> float | None:
    """log P(evidence), or None when the evidence has zero probability: the
    two-pass schedule's collect normalizers."""
    return propagate(net, evidence, schedule="two-pass")[1].log_likelihood
