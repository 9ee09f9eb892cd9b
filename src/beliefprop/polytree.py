"""Message-passing belief propagation for singly-connected networks.

Every directed arc parent->child carries two dynamic vectors over the
parent's states: a causal-support message (pi) flowing down the arc and a
diagnostic-support message (lambda) flowing up.  Each message is a pure
function of the neighboring messages; a scheduler relaxes out-of-kilter
messages until every one equals its recomputed value, and node beliefs are
then read off as the normalized product of total causal and diagnostic
support.

Evidence is applied as a per-node indicator factor, equivalent to attaching
an instantiated dummy child.  Root priors enter through the node's own
table, equivalent to a dummy instantiated parent.  Messages are stored
normalized; an all-zero message marks a branch that is impossible under the
evidence and is deliberately left unnormalized.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ImpossibleEvidenceError
from .model import Evidence, Network

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
    """`updates` counts applied message changes larger than the tolerance.
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


def _maxdiff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def init_messages(net: Network, evidence: Evidence) -> MessageState:
    """Uniform messages on every arc plus evidence indicator factors."""
    if not net.is_singly_connected():
        raise ValueError("network is not singly connected; condition on a cutset first")
    for var, s in evidence.items():
        if not 0 <= s < net.card(var):
            raise ValueError(f"state {s} out of range for variable {var!r}")
    messages = {}
    for p, c in net.edges():
        k = net.card(p)
        messages[(p, c)] = LinkParameters(np.full(k, 1.0 / k), np.full(k, 1.0 / k))
    factors = {v: np.eye(net.card(v))[s] for v, s in evidence.items()}
    return MessageState(messages, factors)


def total_causal_support(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Predicted distribution of `a` from its parents' causal messages: the
    CPT contracted with the incoming pi vector of every parent (the prior
    itself when `a` is a root)."""
    vec = net.cpt_tensor(a)
    for p in net.parents(a):
        vec = np.tensordot(state.messages[(p, a)].pi, vec, axes=(0, 0))
    return vec


def total_diagnostic_support(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Product of the evidence factor (if any) and every child's lambda
    message; all-ones for an uninstantiated leaf."""
    vec = np.ones(net.card(a))
    factor = state.evidence_factor.get(a)
    if factor is not None:
        vec = vec * factor
    for c in net.children(a):
        vec = vec * state.messages[(a, c)].lam
    return vec


def fuse_belief(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Normalized product of total causal and diagnostic support."""
    bel = total_causal_support(net, state, a) * total_diagnostic_support(net, state, a)
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
    return _normalize(_lambda_core(net, state, a, b))


def _lambda_core(net: Network, state: MessageState, a: str, b: str) -> np.ndarray:
    parents = net.parents(a)
    n = len(parents)
    operands: list = [net.cpt_tensor(a), list(range(n + 1))]
    for i, p in enumerate(parents):
        if p != b:
            operands += [state.messages[(p, a)].pi, [i]]
    operands += [total_diagnostic_support(net, state, a), [n]]
    return np.einsum(*operands, [parents.index(b)])


def update_pi_to_child(
    net: Network, state: MessageState, a: str, x: str
) -> np.ndarray:
    """Recompute the causal message parent `a` sends child `x`: total causal
    support times the evidence factor and the lambda messages of a's other
    children.  Reads nothing from arc a->x itself."""
    if x not in net.children(a):
        raise KeyError(f"{x} is not a child of {a}")
    return _normalize(_pi_core(net, state, a, x))


def _pi_core(net: Network, state: MessageState, a: str, x: str) -> np.ndarray:
    vec = total_causal_support(net, state, a)
    factor = state.evidence_factor.get(a)
    if factor is not None:
        vec = vec * factor
    for y in net.children(a):
        if y != x:
            vec = vec * state.messages[(a, y)].lam
    return vec


def _arc_order(net: Network) -> list[tuple[str, str]]:
    pos = {n: i for i, n in enumerate(net.topological_order())}
    return sorted(set(net.edges()), key=lambda e: (pos[e[0]], pos[e[1]]))


def _message_keys(net: Network) -> list[tuple[str, str, str]]:
    keys = []
    for p, c in _arc_order(net):
        keys.append(("pi", p, c))
        keys.append(("lambda", p, c))
    return keys


def _recompute(net, state, kind, p, c):
    if kind == "pi":
        return update_pi_to_child(net, state, p, c)
    return update_lambda_to_parent(net, state, c, p)


def _dependents(net: Network, key: tuple[str, str, str]) -> set[tuple[str, str, str]]:
    """Messages whose recomputation reads the given message."""
    kind, p, c = key
    deps: set[tuple[str, str, str]] = set()
    if kind == "pi":
        # pi on p->c is read at node c
        for b in net.parents(c):
            if b != p:
                deps.add(("lambda", b, c))
        for y in net.children(c):
            deps.add(("pi", c, y))
    else:
        # lambda on p->c is read at node p
        for y in net.children(p):
            if y != c:
                deps.add(("pi", p, y))
        for b in net.parents(p):
            deps.add(("lambda", b, p))
    return deps


def propagate(
    net: Network,
    evidence: Evidence,
    schedule: str = "synchronous",
    tolerance: float = 1e-12,
    seed: int = 0,
    max_sweeps: int | None = None,
    on_update=None,
) -> tuple[MessageState, PropagationStats]:
    """Bring all messages to the fixpoint.

    `schedule` is "synchronous" (full sweeps, every message recomputed from
    the previous sweep's snapshot, arcs in a fixed
    topological-then-lexicographic order), "fair-random" (repeatedly pick a
    random possibly-out-of-kilter message, seeded by `seed`, until none is)
    or "two-pass" (each message computed once, see `_run_two_pass`).  The
    relaxations stop once every stored message matches its recomputed value
    within `tolerance` (max-norm) and raise ImpossibleEvidenceError on
    impossible evidence, which two-pass reports as a None log-likelihood.
    All three reach the same fixpoint.
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    state = init_messages(net, evidence)
    if schedule == "two-pass":
        return state, _run_two_pass(net, state, tolerance, on_update)
    if schedule == "synchronous":
        stats = _run_synchronous(net, state, tolerance, max_sweeps, on_update)
    elif schedule == "fair-random":
        stats = _run_fair_random(net, state, tolerance, seed, on_update)
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    for v in net.var_names():
        fuse_belief(net, state, v)  # raises on a zero-mass belief
    return state, stats


def _run_synchronous(net, state, tolerance, max_sweeps, on_update):
    arcs = _arc_order(net)
    if max_sweeps is None:
        max_sweeps = 4 * (net.underlying_diameter() + 2) + 16
    updates = 0
    for sweep in range(1, max_sweeps + 1):
        new_messages = {}
        delta = 0.0
        for p, c in arcs:
            old = state.messages[(p, c)]
            new_pi = update_pi_to_child(net, state, p, c)
            new_lam = update_lambda_to_parent(net, state, c, p)
            new_messages[(p, c)] = LinkParameters(new_pi, new_lam)
            for direction, o, n in (("pi", old.pi, new_pi), ("lambda", old.lam, new_lam)):
                d = _maxdiff(o, n)
                delta = max(delta, d)
                if d > tolerance:
                    updates += 1
                    if on_update is not None:
                        on_update(TraceRecord(sweep, p, c, direction, o, n))
        state.messages = new_messages
        if delta <= tolerance:
            return PropagationStats(sweeps=sweep, updates=updates)
    raise ConvergenceError(f"no fixpoint after {max_sweeps} synchronous sweeps")


def _run_fair_random(net, state, tolerance, seed, on_update):
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
        key = pool.pop()
        if key not in dirty:
            continue
        dirty.remove(key)
        kind, p, c = key
        new = _recompute(net, state, kind, p, c)
        lp = state.messages[(p, c)]
        old = lp.pi if kind == "pi" else lp.lam
        if _maxdiff(new, old) > tolerance:
            if kind == "pi":
                state.messages[(p, c)] = LinkParameters(new, lp.lam)
            else:
                state.messages[(p, c)] = LinkParameters(lp.pi, new)
            updates += 1
            for dep in _dependents(net, key):
                if dep not in dirty:
                    dirty.add(dep)
                    pool.append(dep)
            if on_update is not None:
                on_update(TraceRecord(updates, p, c, kind, old, new))
    raise ConvergenceError(f"no fixpoint after {budget} fair-random relaxations")


def _tree_walks(net: Network, pivot: str | None):
    """Per connected component: its root (`pivot` if the component holds
    it, else its first name) and every other node paired with its neighbor
    towards the root, in depth-first pre-order."""
    for comp in net.components():
        root = pivot if pivot in comp else comp[0]
        walk = []
        stack = [(m, root) for m in net.neighbors(root)]
        while stack:
            node, towards = stack.pop()
            walk.append((node, towards))
            stack.extend((m, node) for m in net.neighbors(node) if m != towards)
        yield root, walk


def _run_two_pass(net, state, tolerance, on_update, pivot=None, distribute=True):
    """Pearl's collect/distribute order.  In each component every node sends
    towards the root once its subtree has reported (post-order), then the
    root side answers outward (pre-order), so each of the 2|E| messages is
    computed once, from final inputs.  A stored collect message is its exact
    unnormalized value divided by its own normalizer and every normalizer
    below it, so all of them times the root's mass give P(evidence)."""
    updates = 0

    def send(sender, receiver):
        nonlocal updates
        if receiver in net.parents(sender):
            kind, p, c = "lambda", receiver, sender
            core = _lambda_core(net, state, sender, receiver)
        else:
            kind, p, c = "pi", sender, receiver
            core = _pi_core(net, state, sender, receiver)
        new = _normalize(core)
        lp = state.messages[(p, c)]
        old = lp.pi if kind == "pi" else lp.lam
        if kind == "pi":
            lp.pi = new
        else:
            lp.lam = new
        if _maxdiff(old, new) > tolerance:
            updates += 1
            if on_update is not None:
                on_update(TraceRecord(1, p, c, kind, old, new))
        return core.sum()

    walks = list(_tree_walks(net, pivot))
    scales = []  # collect normalizers, then each root's mass
    for root, walk in walks:
        scales += [send(node, towards) for node, towards in reversed(walk)]
        causal = total_causal_support(net, state, root)
        scales.append((causal * total_diagnostic_support(net, state, root)).sum())
    if distribute:
        for _, walk in walks:
            for node, towards in walk:
                send(towards, node)
    # a zero normalizer zeroes its root's mass too, so this is P(e) > 0
    possible = all(s > 0.0 for s in scales)
    log_likelihood = sum(map(math.log, scales)) if possible else None
    return PropagationStats(sweeps=1, updates=updates, log_likelihood=log_likelihood)


def evidence_log_likelihood(
    net: Network, evidence: Evidence, pivot: str | None = None
) -> float | None:
    """log P(evidence), or None when the evidence has zero probability.

    The collect half of the two-pass schedule, rooted at `pivot` in its
    component; the result does not depend on the pivot choice.
    """
    state = init_messages(net, evidence)
    if pivot is not None:
        net.variable(pivot)
    return _run_two_pass(net, state, 1e-12, None, pivot, distribute=False).log_likelihood
