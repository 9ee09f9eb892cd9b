"""Message-passing belief propagation for singly-connected networks.

Every directed arc parent->child carries two dynamic vectors over the
parent's states: a causal-support message (pi) flowing down the arc and a
diagnostic-support message (lambda) flowing up.  Every message and every
belief comes from one sum-product rule under every schedule: a node
multiplies its CPT by what it holds from each neighbor except the
recipient (the pi of each parent, the evidence factor times the lambda of
each child) and sums out every axis but the recipient's, or its own for a
belief.  The rule has one implementation, `TwoPassRun._compute`, which
computes a `Step` (a batch of same-shaped messages or beliefs, or a
single one) or a `Phase` of steps.  It runs on a plan compiled per
network and loop cutset (`TwoPassPlan`), over integer node ids and one
buffer of zero-padded message rows with a row per cutset case; the plan
is never written after it is built.

The two-pass schedule computes each message once, as soon as its sender
has heard from every other neighbor, in steps and phases of steps (see
`TwoPassPlan`), each message with the bits it gets alone in the
sequential schedule, whose order log P(evidence) and the trace keep; a
long run of single messages, such as a chain's, is sent by a blocked
scan (`Sequence`) to rounding of those bits.  The relaxations and
the per-message functions compute one-member steps cut from the plan's
steps on a one-case run, loaded from the `MessageState` they are given.

Evidence is applied as a per-node indicator factor, equivalent to attaching
an instantiated dummy child.  Root priors enter through the node's own
table, equivalent to a dummy instantiated parent.  Messages are stored
normalized; an all-zero message marks a branch that is impossible under the
evidence and is deliberately left unnormalized.  A product of many
children's lambdas can fall below the float range; a message or belief
whose mass falls below 2^-500 is recomputed with its diagnostic vector
rescaled by a power of two, which the evidence likelihood takes back out,
unless a zero it reads makes it exactly 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, ImpossibleEvidenceError, SizeError
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


def _load(net: Network, state: MessageState, slots=None) -> TwoPassRun:
    """A one-case run of the empty-cutset plan that holds `state`'s
    evidence factors and its messages in the rows `slots` (the pi of arc k
    in row 2k and its lambda in row 2k+1; every row by default), and has
    sent nothing yet."""
    plan = two_pass_plan(net, [])
    run = TwoPassRun(plan, state.evidence_factor, np.arange(1))
    for slot in range(plan.ones) if slots is None else slots:
        p, c = plan.arcs[slot // 2]
        lp = state.messages[plan.names[p], plan.names[c]]
        run.buf[slot, 0, :plan.cards[p]] = lp.lam if slot % 2 else lp.pi
    return run


def _loaded(net: Network, state: MessageState, a: str, to: str | None = None):
    """The one-member step of the message `a` sends `to`, or of a's belief
    when `to` is None, and a one-case run (see `_load`) that holds the
    messages of `state` it reads."""
    net.variable(a)  # an unknown name raises as it does everywhere else
    plan = two_pass_plan(net, [])
    step = plan.single(plan.ids[a], None if to is None else plan.ids[to])
    return _load(net, state, [slot for slot in step.reads[0].tolist() if slot < plan.ones]), step


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
    run, step = _loaded(net, MessageState(causal, {}), a)
    return run._compute(step, raw=True)[0][0, 0]


def total_diagnostic_support(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Product of the evidence factor (if any) and every child's lambda
    message; all-ones for an uninstantiated leaf."""
    run, step = _loaded(net, state, a)
    return run._compute(step, raw=True)[1][0, 0]


def fuse_belief(net: Network, state: MessageState, a: str) -> np.ndarray:
    """Normalized product of total causal and diagnostic support."""
    run, step = _loaded(net, state, a)
    belief, mass, _ = run._compute(step)
    if mass[0, 0] <= 0.0:
        raise ImpossibleEvidenceError(zero_mass(a), variable=a)
    return belief[0, 0]


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
    run, step = _loaded(net, state, a, b)
    return run._compute(step)[0][0, 0]


def update_pi_to_child(
    net: Network, state: MessageState, a: str, x: str
) -> np.ndarray:
    """Recompute the causal message parent `a` sends child `x`: total causal
    support times the evidence factor and the lambda messages of a's other
    children.  Reads nothing from arc a->x itself."""
    if x not in net.children(a):
        raise KeyError(f"{x} is not a child of {a}")
    run, step = _loaded(net, state, a, x)
    return run._compute(step)[0][0, 0]


def _message_keys(net: Network, plan: TwoPassPlan) -> list[tuple[int, int]]:
    """Every directed message as (sender id, receiver id): senders in
    topological order, each sending to its neighbors in name order."""
    ids = plan.ids
    return [(ids[s], ids[r]) for s in net.topological_order() for r in net.neighbors(s)]


def _sending_steps(plan: TwoPassPlan) -> list[Step]:
    """The plan's steps that send messages, each phase's steps and each
    run's members one by one: together they send every message once."""
    return [one for step in plan.steps
            for one in (step.members if type(step) is Sequence else step.steps) if one.sends]


def _message_steps(plan: TwoPassPlan) -> dict[tuple[int, int], Step]:
    """The one-member step of every directed message, keyed (sender id,
    receiver id), each cut from the plan's step that sends the message
    (see `_sending_steps`), so nothing is compiled again."""
    alone = {}
    for step in _sending_steps(plan):
        for g, (a, to) in enumerate(step.index[:, :_PLACE].tolist()):
            alone[a, to] = step if len(step.index) == 1 else step._replace(
                index=step.index[g:g + 1], reads=step.reads[g:g + 1])
    return alone


def _residual(old: np.ndarray, new: np.ndarray) -> float:
    return float(np.abs(old - new).max())


def _store(run: TwoPassRun, slot: int, new: np.ndarray, on_update, sweep: int) -> float:
    """Write `new`, zero-padded or not, as the message in row `slot` of the
    one-case `run` and return how far it moved (max-norm); when that
    exceeds TOLERANCE, pass it to `on_update`."""
    held = run.msg(slot)
    new = new[:, :held.shape[1]]
    residual = _residual(held, new)
    if residual > TOLERANCE and on_update is not None:
        on_update(run.plan.record(sweep, slot, held[0].copy(), new[0]))
    held[...] = new
    return residual


def _no_fixpoint(run: TwoPassRun, what: str, slot: int, residual: float) -> ConvergenceError:
    """The ConvergenceError of a relaxation that ran out of budget, naming
    the message in row `slot` and how far it moved last."""
    parent, child, direction = run.plan.arc(slot)
    return ConvergenceError(
        f"no fixpoint after {what}; worst message: {direction} {parent}->{child} "
        f"moved {residual:.3g}",
        arc=(parent, child),
        direction=direction,
        residual=residual,
    )


def propagate(
    net: Network,
    evidence: Evidence,
    schedule: str = "synchronous",
    seed: int = 0,
    on_update=None,
) -> tuple[MessageState, PropagationStats]:
    """Bring all messages to the fixpoint.

    `schedule` is "synchronous" (full sweeps, every message recomputed from
    the previous sweep's snapshot and stored in the fixed order of
    `_message_keys`),
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
    for slot in range(0, plan.ones, 2):
        lp = state.messages[plan.arc(slot)[:2]]
        lp.pi, lp.lam = run.msg(slot)[0], run.msg(slot + 1)[0]
    if schedule != "two-pass":
        zero = np.flatnonzero(run.beliefs(range(len(plan.names)))[1][:, 0] <= 0.0)
        if len(zero):
            v = plan.names[zero[0]]
            raise ImpossibleEvidenceError(zero_mass(v), variable=v)
    return state, stats


def _run_synchronous(net, run, on_update):
    steps = _sending_steps(run.plan)
    slots = [run.plan.rule(*key).slot for key in _message_keys(net, run.plan)]
    max_sweeps = 4 * (net.underlying_diameter() + 2) + 16
    updates = 0
    for sweep in range(1, max_sweeps + 1):
        new = {}  # every message from the last sweep's, a step at a time
        for step in steps:
            new.update(zip(step.index[:, _SLOT].tolist(), run._compute(step)[0]))
        residuals = [_store(run, slot, new[slot], on_update, sweep) for slot in slots]
        moved = sum(r > TOLERANCE for r in residuals)
        updates += moved
        if not moved:
            return PropagationStats(sweeps=sweep, updates=updates)
    worst = max(range(len(slots)), key=residuals.__getitem__)
    raise _no_fixpoint(run, f"{max_sweeps} synchronous sweeps", slots[worst], residuals[worst])


def _run_fair_random(net, run, seed, on_update):
    steps = _message_steps(run.plan)
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
        slot = int(steps[key].index[0, _SLOT])
        last = slot, _store(run, slot, run._compute(steps[key])[0][0], on_update, updates + 1)
        if last[1] > TOLERANCE:
            updates += 1
            # every message r sends reads this one, except the one back to s
            for dep in sends[r]:
                if dep[1] != s and dep not in dirty:
                    dirty.add(dep)
                    pool.append(dep)
    raise _no_fixpoint(run, f"{budget} fair-random relaxations", *last)


def evidence_log_likelihood(net: Network, evidence: Evidence) -> float | None:
    """log P(evidence), or None when the evidence has zero probability: the
    two-pass schedule's collect normalizers."""
    return propagate(net, evidence, schedule="two-pass")[1].log_likelihood


# ----------------------------------------------------------------------
# the two-pass schedule, compiled once per network and cutset
# ----------------------------------------------------------------------

#: einsum label of the case axis; a node's own axes are labeled from 0
_CASE = 51
#: einsum label of the member axis of a compiled step
_MEMBER = 50
#: einsum sublist of a message over node axis j, one row per case, behind
#: the member axis of a step
_ROW = tuple((_MEMBER, _CASE, j) for j in range(_MEMBER))


#: a row sum below this is recomputed with the diagnostic vector rescaled
_TINY = 2.0**-500

#: floats of tables and diagnostic rows that one step, or one phase of
#: steps, may gather; the messages of a node with many children are spread
#: over several steps
_STEP_FLOATS = 1 << 20

#: an axis this wide is never zero-padded in a step: numpy adds 8 or more
#: terms in another order than fewer (pairwise, or in SIMD lanes), so the
#: padding would move the last bits of the sums
_UNPADDED = 8

#: a run of single messages this long or longer is sent by a blocked scan
#: (`Sequence`), faster from 23 members on; bushy and loopy runs stay below 18
_SCAN_RUN = 32

#: refuse a plan whose message rows, case-axis tables and transfer
#: matrices would hold more floats than this (1 GiB) over its cases
RUN_FLOATS_GUARD = 1 << 27


@functools.cache
def _subscripts(*sublists: tuple) -> str:
    """The einsum subscripts of operands and then a result given as
    sublists, each label k written as the letter numpy gives it in sublist
    form (A to Z, then a to z), so the contraction is the same; numpy
    parses subscripts faster than sublists."""
    *operands, result = ("".join(chr(k + 65 if k < 26 else k + 71) for k in sub)
                         for sub in sublists)
    return ",".join(operands) + "->" + result


@functools.cache
def _axes(n_parents: int, batched: bool) -> tuple:
    """The einsum sublist of a table in a step."""
    return (_MEMBER, *[_CASE] * batched, *range(n_parents + 1))


@functools.cache
def _eye(k: int) -> np.ndarray:
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def _check_size(cases: int, floats: int) -> None:
    """Raise SizeError if `cases` cases of `floats` floats each are too many."""
    if cases * floats > RUN_FLOATS_GUARD:
        raise SizeError(f"{cases} cutset cases would need about {cases * floats:.3g} floats "
                        f"of messages and tables, above the {RUN_FLOATS_GUARD} guard")


def _scaled(matrices: np.ndarray) -> np.ndarray:
    """Contiguous, not negative `matrices`, each scaled in place by the power
    of two that brings the sum of its entries to [0.5, 1) (0 stays 0)."""
    size = matrices.shape[-1] * matrices.shape[-2]
    _, powers = np.frexp(matrices.reshape(-1, size) @ np.ones(size))  # BLAS, not a short axis
    matrices *= np.ldexp(1.0, -powers).reshape(matrices.shape[:-2] + (1, 1))
    return matrices


def two_pass_plan(net: Network, members) -> TwoPassPlan:
    """The plan of `net` conditioned on the cutset `members` (listed once
    each), cached in the network.  Raises KeyError on an unknown member and
    ValueError when the members leave a loop."""
    return net.cached(("two-pass plan", tuple(members)), lambda: TwoPassPlan(net, members))


class Rule(NamedTuple):
    """How node `node` computes one message or its belief: the buffer row
    it writes (None for a belief), the einsum sublist of its table, the
    (row, sublist) of each pi it reads in table order, the rows of the
    lambdas it reads in arc order, and the sublists of its diagnostic
    vector and of the result."""

    node: int
    slot: int | None
    table: tuple
    pis: tuple
    lams: tuple[int, ...]
    own: tuple
    out: tuple


#: the columns of `Step.index`
_NODE, _TO, _PLACE, _SLOT, _POSITION = range(5)


class Step(NamedTuple):
    """Messages or beliefs whose rules share one shape class (see
    `TwoPassPlan._shape_class`) and recipient axis, computed by one einsum
    over a leading member axis: ready ones taken together by
    `TwoPassPlan._schedule`, or a single one (`TwoPassPlan.single`).  Row
    g of `index` is about member g: its node, its recipient, its table's
    row in `stack`, the row it writes and its normalizer position (-1 for
    no recipient, row or position).  Row g of `reads` lists the rows
    member g reads: the row of each pi, then its diagnostic rows (its
    evidence row and `Rule.lams`, padded with the all-ones row); in a
    `Phase` it is a view of the phase's `rows`.  `sends` tells whether
    the members are messages or beliefs.  `table` is the tables' einsum
    sublist, and each of `pis` the padded width of one pi operand; a
    single message's `stack` is its node's own table, without the member
    axis.  The diagnostic rows multiply to one operand `own` states wide.
    `spec` holds the einsum subscripts of the table, the pis and the
    diagnostic operand and of the result (see `_subscripts`), which is
    `width` states wide.  `collects` tells whether its row sums are
    normalizers of log P(evidence)."""

    index: np.ndarray
    reads: np.ndarray
    sends: bool
    stack: np.ndarray
    table: tuple
    pis: tuple
    own: int
    spec: str
    width: int
    collects: bool


class Phase(NamedTuple):
    """Consecutive steps of the schedule of which no member reads a row
    that another member writes, computed by `TwoPassRun._compute` with one
    gather, an einsum per step, one normalization and one scatter.  `rows`
    lists every row the phase reads, step after step, each step's column
    by column (the first row of every member, then the second), so that
    a step's pis and diagnostic rows gather as whole blocks and multiply
    along the first axis; each step's `reads` is a view of its block, and
    its `index` a view of the phase's members' index rows, so nothing is
    held twice.  `spans[k]` gives the first and end entry of `steps[k]` in
    `rows` and its first and end member in the results.  The results are
    `width` states wide, zero past a narrower step's
    width; a result of _UNPADDED states or more is never beside a narrower
    one.  The steps that send come first, and the first `sent` members
    write the rows `slots`; the members from number `collected` on are
    normalizers, at `positions`."""

    steps: tuple
    rows: np.ndarray
    spans: tuple
    slots: np.ndarray
    sent: int
    positions: np.ndarray
    collected: int
    width: int


class Sequence(NamedTuple):
    """One wave of a run of _SCAN_RUN single messages or more, sent by a
    blocked scan (`TwoPassRun._scan`): paths in which each member after
    the first reads one run member, the one before, so its row is a linear
    map of that member's.  Paths are cut into blocks of `block` members;
    `phases` computes member j of every block, j after j.  Block b + 1 of
    path k first reads row `starts[k, b]` (-1 past its end; paths from the
    most blocks to the fewest).  Each of `transfers`, (step, at), gives the
    transfer matrices of members outside a path's last block: their rules
    with the read of the member before left out and its axis kept in the
    result, behind the member and case axes; member g's matrix goes to
    block position at[g] (path, block, member j)."""

    phases: tuple
    block: int
    starts: np.ndarray
    transfers: tuple

    @property
    def members(self) -> list:
        """Every member as its one-member step, phase by phase."""
        return [step._replace(index=step.index[g:g + 1], reads=step.reads[g:g + 1])
                for phase in self.phases for step in phase.steps for g in range(len(step.index))]


class TwoPassPlan:
    """Pearl's collect/distribute schedule over the forest left by
    conditioning on a loop cutset, with integer node ids, compiled into
    steps and phases of steps.

    Every arc out of a member is cut: the member's children get a leading
    case axis on their tables, one row per joint member assignment
    (`cases`, in `itertools.product` order), and each member is pinned
    per case.  So one einsum serves every case.  `arcs` are the arcs that
    remain, as (parent id, child id) in `Network.edges` order.

    A run keeps its messages in one buffer of zero-padded rows, one row
    per case each: the pi of arc k in row 2k and its lambda in row 2k+1,
    then the all-ones row `ones`, then each node a's evidence factor in
    row `ones + 1 + a` (all-ones where it has none); `widths` gives each
    row's number of states.  `rules[a]` is the `Rule` of node a's belief,
    and `rule(a, to)` derives that of the message a sends its neighbor
    `to`; `single(a, to)` compiles either into a one-member step.  Nothing
    in a plan changes after it is built, so every run and relaxation of
    the same network shares it.

    Each tree is rooted at its smallest name and walked as in
    `forest_walks`; a message towards the root collects, one away from it
    distributes.  The message a node sends a neighbor is ready once the
    node has heard from every other neighbor, and a root's belief, whose
    row sums are its tree's mass, once the root has heard from all of
    them.  The schedule `_schedule` gives is by readiness, not by depth:
    a step holds ready members that share a shape, and collect and
    distribute messages run side by side.  `steps` computes every message
    and mass as phases (`_phases`): each is a maximal run of consecutive
    steps in which no member reads a row that another member writes, so
    the whole run can gather first and scatter last.  Consecutive steps
    of one message or mass each are a run of single messages, whose steps
    join phases like any other unless the run holds _SCAN_RUN or more:
    then it is sent as Sequences (`_sequence`).  `beliefs` holds the
    phases of every node's belief, with a step or a few per shape class.
    The tables of shape class k (`classes[a]` is node a's) are zero-padded
    to the class's largest and stacked once, in `stacks[k]`, node a in row
    `places[a]`.  `columns[i]` is about `beliefs[i]`: its first array
    lists the phase's nodes, member by member; its second and third, the
    member and state of each state that is its node's, member by member;
    its fourth, the column of each such state in a vector over the states
    of every node in id order, whose column k is a state of node
    `owners[k]`.  `order` lists the message rows
    in the sequential schedule: each tree's collect messages in reverse
    walk order, tree by tree, then each tree's distribute messages in walk
    order.  Trace records follow it, and so do the `n_normalizers`
    normalizer positions of the steps, with an all-ones row first and each
    tree's root mass after its collect messages.  With no members this is
    plain polytree propagation with one case.
    """

    __slots__ = ("names", "ids", "cards", "members", "cases", "arcs", "rules", "tensors",
                 "ones", "widths", "classes", "stacks", "places", "order", "steps", "beliefs",
                 "columns", "owners", "n_normalizers")

    def __init__(self, net: Network, members) -> None:
        self.members = tuple(members)
        ranges = [range(net.card(m)) for m in self.members]
        self.names = tuple(net.var_names())
        cut = set(self.members)
        arcs = [(p, c) for p, c in net.edges() if p not in cut]
        if not (is_forest(arcs, self.names) if cut else net.is_singly_connected()):
            raise ValueError(f"not a valid cutset: {list(self.members)}")
        n_cases, widest = math.prod(map(len, ranges)), max(map(net.card, self.names), default=1)
        # a case's rows, and each table with a case axis twice (its stack too)
        floats = (2 * len(arcs) + 1 + len(self.names)) * widest + 2 * sum(
            net.card(v) * math.prod(net.card(p) for p in net.parents(v) if p not in cut)
            for v in self.names if cut.intersection(net.parents(v)))
        _check_size(n_cases, floats)
        self.cases = np.array(list(itertools.product(*ranges)), dtype=np.intp)
        self.cases = self.cases.reshape(n_cases, len(ranges))
        self.cases.flags.writeable = False

        self.ids = ids = {v: i for i, v in enumerate(self.names)}
        self.cards = tuple(net.card(v) for v in self.names)
        self.arcs = tuple((ids[p], ids[c]) for p, c in arcs)
        self.tensors = tuple(self._tensor(net, v) for v in self.names)
        self.ones = 2 * len(self.arcs)
        self.widths = tuple(self.cards[p] for p, _ in self.arcs for _ in range(2))
        self.widths += (max(self.cards, default=1), *self.cards)
        slots, ups, downs = {}, [[] for _ in self.names], [[] for _ in self.names]
        for arc, (p, c) in enumerate(self.arcs):
            slots[p, c], slots[c, p] = 2 * arc, 2 * arc + 1  # the arc's pi and lambda
            ups[c].append(p)
            downs[p].append(c)
        rules, neighbors = [], {}
        for a, tensor in enumerate(self.tensors):
            neighbors[self.names[a]] = sorted(self.names[k] for k in (*ups[a], *downs[a]))
            n = len(ups[a])
            table, own = _axes(n, tensor.ndim > n + 1), _ROW[n]
            pis = tuple((slots[p, a], _ROW[j]) for j, p in enumerate(ups[a]))
            lams = tuple(slots[c, a] for c in downs[a])
            rules.append(Rule(a, None, table, pis, lams, own, own))
        self.rules = tuple(rules)

        classes: dict = {}
        for a in range(len(self.names)):
            classes.setdefault(self._shape_class(a), []).append(a)
        self.places, self.classes = [0] * len(self.names), [0] * len(self.names)
        self.stacks = tuple(map(self._stack, classes.values()))
        for k, nodes in enumerate(classes.values()):
            for a in nodes:
                self.classes[a] = k

        # (entry number, node, recipient, normalizer position) of each
        # message and mass, in an order where each comes after what it reads
        entries, distribute = [], []
        for root, walk in forest_walks(self.names, neighbors.__getitem__):
            for a, towards in reversed(walk):
                entries.append((len(entries), ids[a], ids[towards], len(entries) + 1))
            entries.append((len(entries), ids[root], None, len(entries) + 1))  # the mass
            distribute += ((ids[towards], ids[a]) for a, towards in walk)
        del neighbors  # freed before the steps are built, to lower the peak
        self.n_normalizers = len(entries) + 1  # normalizer 0 is all-ones
        entries += [(e, a, to, None) for e, (a, to) in enumerate(distribute, len(entries))]
        self.order = tuple(slots[a, to] for _, a, to, _ in entries if to is not None)
        steps, alone = [], []  # runs of single members
        for chunk in self._schedule(entries):
            if len(chunk) == 1:
                alone += chunk
                continue
            steps += self._sequence(alone)
            alone = []
            steps.append(self._step(chunk))
        steps += self._sequence(alone)
        del entries, distribute, alone
        self.steps = self._phases(steps)
        del steps
        transfers = sum(run.starts.size * run.block for run in self.steps if type(run) is Sequence)
        _check_size(n_cases, floats + transfers * widest ** 2)
        beliefs = [(a, a, None, None) for a in range(len(self.names))]
        self.beliefs = self._phases(list(map(self._step, self._schedule(beliefs))))
        cards, offsets = np.array(self.cards, dtype=np.intp), np.cumsum((0, *self.cards[:-1]))
        self.owners = np.repeat(np.arange(len(cards)), cards)
        self.owners.flags.writeable = False
        self.columns = []
        for phase in self.beliefs:
            nodes = np.concatenate([step.index[:, _NODE] for step in phase.steps])
            states = np.arange(phase.width)
            columns = np.where(states < cards[nodes, None], offsets[nodes, None] + states, -1)
            members, states = np.nonzero(columns >= 0)
            flat = columns[members, states]
            for array in (nodes, members, states, flat):
                array.flags.writeable = False
            self.columns.append((nodes, members, states, flat))
        self.columns = tuple(self.columns)

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

    def _stack(self, nodes) -> np.ndarray:
        """The tables of `nodes`, zero-padded to the largest and stacked in
        that order; each node's row goes to `places`."""
        tables = [self.tensors[a] for a in nodes]
        stack = np.zeros((len(nodes), *np.max([t.shape for t in tables], axis=0).tolist()))
        for g, (a, table) in enumerate(zip(nodes, tables)):
            stack[(g, *map(slice, table.shape))] = table
            self.places[a] = g
        stack.flags.writeable = False  # shared by every run of the plan
        return stack

    def _shape_class(self, a: int) -> tuple:
        """What node a's rules share with those of the nodes in its stack:
        the table's sublist, and the width of each axis of _UNPADDED states
        or more."""
        wide = tuple(k if k >= _UNPADDED else 0 for k in self.tensors[a].shape)
        return tuple(self.rules[a].table), wide

    def _key(self, rule: Rule, entry) -> tuple:
        """What the members of one step share: shape class, recipient axis,
        and whether they are beliefs or masses and whether they collect."""
        return self.classes[rule.node], rule.out[-1], rule.slot is None, entry[3] is None

    def _schedule(self, entries):
        """Yield `entries`, each (entry number, node, recipient, normalizer
        position) and numbered from 0 in a list where each comes after what
        it reads, as lists of (rule, entry) that one step can compute, each
        after the steps of everything its members read.  The message a
        sends `to` is ready once a has heard from every neighbor but `to`,
        and a root's mass or a belief once its node has heard from all of
        them.  Ready entries wait in groups by `_key`.  Each time, the group
        that holds the ready entry with the longest chain of readers ahead
        of it is taken whole and split by `_split`; ties go to the larger
        group, then to the lower entry number (critical-path list
        scheduling, HLFET in Kwok & Ahmad 1999)."""
        # the longest chain from each entry through its readers, found from
        # each node's two longest outgoing chains: the message a sends `to`
        # is read by every message `to` sends except the one back, and by
        # to's mass
        n = len(self.names)
        tails, top, top_to, second = [1] * len(entries), [0] * n, [None] * n, [0] * n
        sends = [[] for _ in range(n)]  # (recipient, entry number) of each node's entries
        waiting, unheard = [0] * n, [0] * n  # each node's neighbors not heard from, ids summed
        for e, a, to, _ in reversed(entries):
            sends[a].append((to, e))
            if to is not None:
                waiting[a] += 1
                unheard[a] += to
                tails[e] += top[to] if top_to[to] != a else second[to]
            if tails[e] > top[a]:
                second[a], top[a], top_to[a] = top[a], tails[e], to
            elif tails[e] > second[a]:
                second[a] = tails[e]
        del top, top_to, second
        groups: dict = {}  # key: [longest tail, size, -lowest entry number, key, members]
        # ready from the start: a leaf's message to its one neighbor, and
        # the mass or belief of a node with no neighbor
        ready = [e for a, mine in enumerate(sends) if waiting[a] <= 1
                 for to, e in mine if waiting[a] == 0 or to is not None]
        while True:
            for e in ready:
                entry = entries[e]
                rule = self.rule(entry[1], entry[2])
                key = self._key(rule, entry)
                group = groups.get(key)
                if group is None:
                    groups[key] = [tails[e], 1, -e, key, [(rule, entry)]]
                    continue
                if tails[e] > group[0]:
                    group[0] = tails[e]
                if -e > group[2]:
                    group[2] = -e
                group[1] += 1
                group[4].append((rule, entry))
            if not groups:
                return
            group = max(groups.values())  # entry numbers differ, so keys are never compared
            del groups[group[3]]
            yield from self._split(group[4])
            ready = []
            for _, (_, a, to, _) in group[4]:  # `to` hears from `a`
                if to is None:
                    continue
                waiting[to] -= 1
                unheard[to] -= a
                if waiting[to] == 1:
                    for x, e in sends[to]:
                        if x == unheard[to]:
                            ready.append(e)
                            break
                elif waiting[to] == 0:
                    for x, e in sends[to]:
                        if x != a:
                            ready.append(e)

    def _split(self, members) -> list:
        """`members`, (rule, entry) pairs of one shape class and recipient
        axis, in order of the number of diagnostic rows, as a list of
        chunks that gather at most _STEP_FLOATS floats of tables and rows;
        a single member as it is."""
        if len(members) == 1:
            return [members]
        per_row = len(self.cases) * self.widths[self.ones]  # the all-ones row is the widest
        table = self.stacks[self.classes[members[0][0].node]][0].size
        chunks, chunk = [], []
        for member in sorted(members, key=lambda member: len(member[0].lams)):
            rows = 1 + len(member[0].lams)  # the most in the chunk, with the evidence row
            if chunk and (len(chunk) + 1) * (table + rows * per_row) > _STEP_FLOATS:
                chunks.append(chunk)
                chunk = []
            chunk.append(member)
        return [*chunks, chunk]

    def _sequence(self, members) -> list:
        """The run of single `members`, as `_schedule` yields them: one-member
        steps, or from _SCAN_RUN on a Sequence per wave of paths.  A member
        reading one run member continues its path unless another did or it
        is a pi reading a lambda; else it starts a path in a later wave."""
        if len(members) < _SCAN_RUN:
            return [self._step([member], alone=True) for member in members]
        paths, waves, tails, wave_of = [], [], {}, {}  # tails: a path's last row
        for rule, entry in members:
            read = [slot for slot in (*(s for s, _ in rule.pis), *rule.lams) if slot in wave_of]
            turns = rule.slot is not None and rule.out == rule.own and {*read} & {*rule.lams}
            if len(read) == 1 and read[0] in tails and not turns:
                path = tails.pop(read[0])
            else:
                path = len(paths)
                paths.append([])
                waves.append(1 + max((wave_of[slot] for slot in read), default=-1))
            paths[path].append((rule, entry))
            tails[rule.slot], wave_of[rule.slot] = path, waves[path]
        return [self._wave([path for path, w in zip(paths, waves) if w == wave])
                for wave in range(max(waves) + 1)]

    def _wave(self, paths) -> Sequence:
        """The Sequence of `paths`, lists of (rule, entry) pairs in which
        each member after the first reads the one before it."""
        paths = sorted(paths, key=len, reverse=True)
        block = 1 << max(0, math.isqrt(len(paths[0]) // 4).bit_length() - 1)
        blocks = -(-len(paths[0]) // block)
        starts = np.array([[path[b * block - 1][0].slot if b * block < len(path) else -1
                            for b in range(1, blocks)] for path in paths], dtype=np.intp)
        at_j, opened = [{} for _ in range(block)], {}  # member j of every block, by `_key`
        for k, path in enumerate(paths):
            for i, (rule, entry) in enumerate(path):
                at_j[i % block].setdefault(self._key(rule, entry), []).append((rule, entry))
                before = path[i - 1][0].slot if i else None  # the row it reads from its path
                if i // block < (len(path) - 1) // block:  # not in the path's last block
                    if i:  # its transfer matrix: the read of the member before left open
                        axis = [sub for slot, sub in rule.pis if slot == before] or [rule.own]
                        rule = rule._replace(
                            pis=tuple(pi for pi in rule.pis if pi[0] != before),
                            lams=tuple(slot for slot in rule.lams if slot != before),
                            out=(_MEMBER, _CASE, axis[0][-1], rule.out[-1]))
                    key = self._key(rule, entry), tuple(sub for _, sub in rule.pis), rule.out
                    opened.setdefault(key, []).append(((rule, entry), k * (blocks - 1) * block + i))
        transfers = tuple((self._step([m for m, _ in group]), np.array([at for _, at in group]))
                          for group in opened.values())
        phases = self._phases([self._step(chunk) for groups in at_j for group in groups.values()
                               for chunk in self._split(group)])
        return Sequence(phases, block, starts, transfers)

    def _phases(self, steps) -> tuple:
        """`steps`, Steps and Sequences in schedule order, with each
        maximal run of consecutive Steps in which no member reads a row
        that another member writes made one Phase.  A phase gathers at
        most _STEP_FLOATS floats of tables and rows (a Step alone may
        gather more) and puts no result of _UNPADDED states or more beside
        a narrower one, since numpy sums 8 or more terms in another order;
        a Sequence stays on its own."""
        per_row = len(self.cases) * self.widths[self.ones]  # the all-ones row is the widest
        written = np.zeros(len(self.widths), dtype=bool)  # the rows the open phase writes
        phases, group, floats, width = [], [], 0, 0
        for step in steps:
            run = type(step) is Sequence
            if not run:
                alone = step.stack.ndim < len(step.table)
                size = step.stack.size if alone else len(step.index) * step.stack[0].size
                size += step.reads.size * per_row
            if group and (run or written.take(step.reads).any() or floats + size > _STEP_FLOATS
                          or step.width != width and max(step.width, width) >= _UNPADDED):
                phases.append(self._phase(group))
                written.put(phases[-1].slots, False)
                group, floats, width = [], 0, 0
            if run:
                phases.append(step)
                continue
            group.append(step)
            floats, width = floats + size, max(width, step.width)
            if step.sends:
                written.put(step.index[:, _SLOT], True)
        if group:
            phases.append(self._phase(group))
        return tuple(phases)

    @staticmethod
    def _phase(steps) -> Phase:
        """The Phase of `steps`: the steps that send distribute messages
        first, then those that send collect messages, then the rest
        (masses, or beliefs), each kind in schedule order, so the members
        that send and those that collect are each one block."""
        steps = sorted(steps, key=lambda step: (not step.sends, step.collects))
        rows = np.concatenate([step.reads.T.ravel() for step in steps])
        index = np.concatenate([step.index for step in steps])
        spans, start, first = [], 0, 0
        for k, step in enumerate(steps):  # each step's arrays become views of the phase's
            end, last = start + step.reads.size, first + len(step.index)
            reads = rows[start:end].reshape(step.reads.shape[::-1]).T
            steps[k] = Step(index[first:last], reads, *step[2:])
            spans.append((start, end, first, last))
            start, first = end, last
        sent = sum(len(step.index) for step in steps if step.sends)
        collected = sum(len(step.index) for step in steps if not step.collects)
        return Phase(tuple(steps), rows, tuple(spans), index[:sent, _SLOT], sent,
                     index[collected:, _POSITION], collected, max(step.width for step in steps))

    def _step(self, members, alone: bool = False) -> Step:
        """The Step of `members`, as `_schedule` yields them, over their
        class's stack; with `alone`, of the one member over its node's own
        table, so nothing is padded."""
        rules, members = zip(*members)
        first, a = rules[0], members[0][1]
        stack = self.tensors[a] if alone else self.stacks[self.classes[a]]
        shape = stack.shape if alone else stack.shape[1:]
        width = dict(zip(first.table[1:], shape))  # each node axis label's padded width
        rows = [(a, -1 if to is None else to, 0 if alone else self.places[a],
                 -1 if rule.slot is None else rule.slot, -1 if position is None else position,
                 *[slot for slot, _ in rule.pis], self.ones + 1 + a, *rule.lams)
                for (_, a, to, position), rule in zip(members, rules)]
        columns = max(map(len, rows))
        rows = np.array([row + (self.ones,) * (columns - len(row)) for row in rows], dtype=np.int32)
        return Step(
            rows[:, :_POSITION + 1],
            rows[:, _POSITION + 1:],
            first.slot is not None,
            stack,
            first.table,
            tuple(width[sub[-1]] for _, sub in first.pis),
            width[first.own[-1]],
            _subscripts(first.table, *[sub for _, sub in first.pis], first.own, first.out),
            width[first.out[-1]],
            members[0][3] is not None,
        )

    def single(self, a: int, to: int | None) -> Step:
        """The one-member step of the message node `a` sends its neighbor
        `to`, or of a's belief when `to` is None, over a's own table and
        with no normalizer position."""
        return self._step([(self.rule(a, to), (0, a, to, None))], alone=True)

    def rule(self, a: int, to: int | None) -> Rule:
        """The rule of the message node `a` sends its neighbor `to`, or of
        a's belief when `to` is None, derived from a's belief rule.  The pi
        of arc k is in row 2k and its lambda in row 2k+1; the arc to a
        child is found among the child's parents."""
        belief = self.rules[a]
        if to is None:
            return belief
        _, _, table, pis, lams, own, _ = belief
        for j, (slot, _) in enumerate(pis):  # the lambda message to parent j
            if self.arcs[slot // 2][0] == to:
                return Rule(a, slot + 1, table, pis[:j] + pis[j + 1:], lams, own, _ROW[j])
        for slot, _ in self.rules[to].pis:  # the pi message to child `to`
            if self.arcs[slot // 2][0] == a:
                k = lams.index(slot + 1)
                return Rule(a, slot, table, pis, lams[:k] + lams[k + 1:], own, own)
        raise KeyError((a, to))

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

    def arc(self, slot: int) -> tuple[str, str, str]:
        """The parent and child names of the arc of message `slot`, and the
        message's direction ("pi" or "lambda")."""
        arc, is_lambda = divmod(slot, 2)
        p, c = self.arcs[arc]
        return self.names[p], self.names[c], "lambda" if is_lambda else "pi"

    def record(self, sweep: int, slot: int, old: np.ndarray, new: np.ndarray) -> TraceRecord:
        """The TraceRecord of the message in `slot` moving from `old` to `new`."""
        return TraceRecord(sweep, *self.arc(slot), old, new)


class TwoPassRun:
    """The messages of `plan` over the cases `live`, in the plan's buffer
    layout with a row per case, with the evidence factor `factors[v]` (a
    vector over v's states) on each variable v that has one.  `_compute`
    is the one sum-product kernel under every schedule: it computes the
    members of a `Step`, a batch of same-shaped messages or beliefs or a
    single one, or of a `Phase` of steps, and the transfer matrices of a
    long run.  `two_pass` runs the plan's phases, each with one gather,
    one normalization and one scatter (`_apply`), and sends each long run
    of single messages by its blocked scan (`_scan`); the relaxations and
    the per-message functions compute lone one-member steps on a one-case
    run.  A run writes only its own buffer: it reads the plan's tables in
    place, cut to the live cases where a table has a case axis, and the
    steps from the plan.  Each message is normalized per case; a case
    whose normalizer is 0 is impossible and its row stays 0.  After
    `two_pass`, a stored collect message is its unnormalized value divided
    by its own normalizer and every normalizer below it (to rounding where
    a scanned block starts), so all of them times the root's mass give
    each case's P(evidence): `log_weights`, valid where `possible`.  A
    normalizer computed from a rescaled diagnostic vector (see `_compute`)
    comes with its power of two, which `log_weights` takes back out."""

    __slots__ = ("plan", "n_cases", "live", "buf", "possible", "log_weights")

    def __init__(self, plan: TwoPassPlan, factors, live: np.ndarray) -> None:
        self.plan = plan
        self.n_cases = n_cases = len(live)
        self.live = None if n_cases == len(plan.cases) else live
        self.buf = np.zeros((len(plan.widths), n_cases, max(plan.widths)))
        self.buf[plan.ones:] = 1.0
        for v, factor in factors.items():
            i = plan.ids[v]
            self.buf[plan.ones + 1 + i, :, :plan.cards[i]] = factor
        for j, m in enumerate(plan.members):
            i = plan.ids[m]
            self.buf[plan.ones + 1 + i, :, :plan.cards[i]] = _eye(plan.cards[i])[plan.cases[live, j]]

    def msg(self, slot: int) -> np.ndarray:
        """The message in row `slot`, one row per case: a view of the buffer."""
        return self.buf[slot, :, :self.plan.widths[slot]]

    def two_pass(self) -> None:
        """Run the plan's phases and long runs, which send every message
        once, each after the messages it reads.  The normalizers and their
        powers of two go to their sequential positions before the log sum,
        so `log_weights` adds them in the same order whatever the phases."""
        plan = self.plan
        scales = np.ones((plan.n_normalizers, self.n_cases))
        shifts = np.zeros(scales.shape, dtype=np.int64)
        for phase in plan.steps:
            if type(phase) is Sequence:
                self._scan(phase, scales, shifts)
            else:
                self._apply(phase, scales, shifts)
        # a zero normalizer zeroes its root's mass too, so this is P(e) > 0
        self.possible = (scales > 0).all(axis=0)
        logs = np.log(scales, out=np.zeros_like(scales), where=scales > 0)
        shift = shifts.sum(axis=0) * math.log(2.0)
        self.log_weights = (np.add.accumulate(logs)[-1] - shift).tolist()

    def _apply(self, phase: Phase, scales: np.ndarray, shifts: np.ndarray) -> None:
        """Compute `phase`, write its messages into their rows with one
        scatter and its normalizers and their shifts into `scales` and
        `shifts` by position."""
        values, sums, found = self._compute(phase)
        if len(phase.positions):
            scales[phase.positions] = sums[phase.collected:]
            if type(found) is not int:  # a scalar 0 moves nothing: shifts start at 0
                shifts[phase.positions] = found[phase.collected:]
        if phase.sent:
            self.buf[phase.slots, :, :phase.width] = values[:phase.sent]

    def _scan(self, run: Sequence, scales: np.ndarray, shifts: np.ndarray) -> None:
        """Send the wave `run`, its normalizers and shifts into `scales` and
        `shifts`.  Each block's transfer matrices are multiplied pairwise, a
        level at a time, then the blocks' products into the product of all
        up to each (Hillis & Steele), each scaled; its row 0 (a path's first
        member has no other), normalized, is the next block's first input.
        Then member j of every block is computed, j after j, overwriting
        those inputs, again while one was off by over 1e-12 relative."""
        written = run.starts >= 0
        if run.starts.size:
            found = [(self._compute(step, raw=True)[0], at) for step, at in run.transfers]
            width = max(max(matrices.shape[2:]) for matrices, _ in found)
            shape = (*run.starts.shape, run.block, self.n_cases, width, width)
            products = np.zeros((math.prod(shape[:3]), *shape[3:]))
            for matrices, at in found:
                matrices = matrices if matrices.ndim == 4 else matrices[:, :, None]
                products[at, :, :matrices.shape[2], :matrices.shape[3]] = _scaled(matrices)
            products = products.reshape(shape)
            while products.shape[2] > 1:  # blocks are a power of two long
                products = _scaled(products[:, :, 0::2] @ products[:, :, 1::2])
            products, span = products[:, :, 0], 1
            while span < products.shape[1]:
                products[:, span:] = _scaled(products[:, :-span] @ products[:, span:])
                span *= 2
            firsts = products[written][:, :, :1]
            np.divide(firsts, sums := firsts.sum(axis=3, keepdims=True), out=firsts, where=sums > 0)
            self.buf[run.starts[written], :, :width] = firsts[:, :, 0]
        for _ in range(run.starts.shape[1] + 1):
            inputs = self.buf[run.starts[written]]
            for phase in run.phases:
                self._apply(phase, scales, shifts)
            if np.allclose(self.buf[run.starts[written]], inputs, rtol=1e-12, atol=0):
                break

    def _compute(self, step: Step | Phase, raw: bool = False):
        """The sum-product rule behind every message and belief, for every
        member of `step`, a Step or a Phase: the member's table times the
        pi message of each parent it reads and its diagnostic vector (its
        evidence factor times the lambda of each child it reads, multiplied
        left to right), summed over every axis but the recipient's, one row
        per case.  Whatever comes from the recipient is left out; the
        result ranges over its states when it is a parent, else over the
        node's own (a pi message, or a belief).  Returned normalized,
        stacked and zero-padded to the step's or the phase's width (a row
        summing to 0 stays 0), with the row sums and the power of two by
        which each sum exceeds the true one (0 when none does), one row per
        member, the phase's members in the order of its steps; with `raw`,
        a Step's results and diagnostic vectors before normalization.

        A phase gathers every row it reads with one `take` and runs one
        einsum per step into one result array, which is normalized as a
        whole.  A row that may have underflowed is recomputed from the
        `_rescaled` diagnostic vector of its member, by one einsum over
        that member's operands; every other row keeps its bits and a shift
        of 0.  The diagnostic vector enters as one operand because einsum
        takes at most 64."""
        buf, live = self.buf, self.live
        if type(step) is Step:
            steps, spans, flat = (step,), ((0, 0, 0, len(step.index)),), None
        else:
            steps, spans = step.steps, step.spans
            # every row the phase reads, each step's column by column
            flat = buf.take(step.rows, axis=0) if len(steps) > 1 else None
        result, parts = None, []
        for one, (start, end, first, last) in zip(steps, spans):
            if flat is None:
                gathered = buf.take(one.reads.T, axis=0)  # the pis, then the diagnostic rows
            else:
                gathered = flat[start:end].reshape(one.reads.shape[::-1] + flat.shape[1:])
            if one.stack.ndim < len(one.table):  # a single message over its own table
                tensor = one.stack[None]
            else:
                tensor = one.stack.take(one.index[:, _PLACE], axis=0)
            if live is not None and one.table[1] == _CASE:  # the live rows of the case axis
                tensor = tensor.take(live, axis=1)
            operands = [tensor]
            for j, width in enumerate(one.pis):
                operands.append(gathered[j, :, :, :width])
            rows = gathered[len(one.pis):, :, :, :one.own]
            lam = rows.prod(axis=0)
            if len(steps) == 1:
                result = np.einsum(one.spec, *operands, lam)
                if raw:
                    return result, lam
            else:
                if result is None:
                    result = np.zeros((spans[-1][3], self.n_cases, step.width))
                np.einsum(one.spec, *operands, lam, out=result[first:last, :, :one.width])
            parts.append((operands, rows))
        sums = result.sum(axis=2)
        if sums.min() >= _TINY:
            return result / sums[..., None], sums, 0
        # a sum below 2^-500 may have underflowed, unless a pi row it reads is
        # all zero, or a zero factor meets each entry of its diagnostic vector
        shifts = np.zeros(sums.shape, dtype=np.int64)
        for one, (operands, rows), (_, _, first, last) in zip(steps, parts, spans):
            if sums[first:last].min() >= _TINY:
                continue
            low = (sums[first:last] < _TINY) & ~(rows == 0).any(axis=0).all(axis=2)
            for pi in operands[1:]:
                low &= pi.any(axis=2)
            for g in np.flatnonzero(low.any(axis=1)).tolist():
                lam, top = self._rescaled(rows[:, g])
                member = [operand[g:g + 1] for operand in operands]
                fixed = np.einsum(one.spec, *member, lam[None])[0]
                result[first + g, low[g], :one.width] = fixed[low[g]]
                shifts[first + g] = np.where(low[g], top, 0)
        sums = result.sum(axis=2)
        return result / np.where(sums > 0, sums, 1.0)[..., None], sums, shifts

    @staticmethod
    def _rescaled(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The product of the diagnostic `rows`, stacked along axis 0 with
        a row per case each, times 2**shift per row, and `shift`.  The
        product is formed from mantissas and exponents kept apart, so no
        entry underflows on the way; then each row is scaled by the power
        of two that brings its largest entry to [0.5, 1).  An entry more
        than 2^-1074 below its row's largest still ends as 0."""
        mants, pows = np.frexp(rows)
        lam, power = np.ones(mants.shape[1:]), pows.sum(axis=0)
        for start in range(0, len(mants), 512):  # 512 mantissas multiply to 2^-512 or more
            lam, e = np.frexp(lam * np.prod(mants[start:start + 512], axis=0))
            power += e
        top = np.where(lam > 0, power, power.min()).max(axis=1)  # moot for an all-zero row
        return np.ldexp(lam, power - top[:, None]), -top

    def beliefs(self, nodes):
        """The beliefs of `nodes`, each normalized per case, in one array
        with a row per case over the states of every node in id order
        (zero where a node is not in `nodes`), and their row sums, row k
        for `nodes[k]`.  The plan's belief phases compute every belief,
        each phase's rows go in with one assignment through its compiled
        members, states and columns (`columns`), and the columns of the
        nodes not asked are zeroed once."""
        plan = self.plan
        values = np.zeros((self.n_cases, len(plan.owners)))
        masses = np.empty((len(plan.cards), self.n_cases))
        for phase, (phase_nodes, members, states, flat) in zip(plan.beliefs, plan.columns):
            beliefs, sums, _ = self._compute(phase)
            values.T[flat] = beliefs[members, :, states]
            masses[phase_nodes] = sums
        asked = np.zeros(len(plan.cards), dtype=bool)
        asked[nodes] = True
        if not asked.all():
            values[:, ~asked[plan.owners]] = 0.0
        return values, masses[nodes]

    def records(self, case: int):
        """The TraceRecords of one case: each message that moved away from
        its uniform start, in the plan's sequential `order`."""
        for slot in self.plan.order:
            new = self.msg(slot)[case]
            old = _uniform(len(new))
            if _residual(old, new) > TOLERANCE:
                yield self.plan.record(1, slot, old, new)
