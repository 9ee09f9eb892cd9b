"""Message-passing belief propagation for singly-connected networks.

Every directed arc parent->child carries a causal-support message (pi)
down and a diagnostic-support message (lambda) up, both over the
parent's states.  Every message and belief comes from one sum-product
rule, `TwoPassRun._compute`: a node multiplies its CPT by what it holds
from each neighbor but the recipient (each parent's pi, the evidence
factor times each child's lambda) and sums out every axis but the
recipient's, or its own for a belief.  It runs the steps and phases of a
plan that the `plan` module compiles once per network and loop cutset;
this module keeps the paper's per-message functions, the relaxations
(one-member steps cut from the plan, on a one-case run) and the run.

The two-pass schedule computes each message once, with the bits it gets
alone in the sequential schedule, whose order log P(evidence) and the
trace keep; a long run of single messages, such as a chain's, is sent by
a blocked scan to rounding of those bits.  Evidence is an indicator
factor per node, root priors enter through the node's own table, and
messages are stored normalized, all-zero where a branch is impossible
under the evidence.  A message or belief whose mass falls below 2^-500
is recomputed with its diagnostic vector rescaled by a power of two,
which the evidence likelihood takes back out.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ImpossibleEvidenceError
from .model import Evidence, Network, check_evidence
from .plan import (_CASE, _PLACE, _SLOT, Phase, Sequence, Step, TwoPassPlan, _eye,
                   two_pass_plan)

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
    """The read-only uniform vector over `k` states that messages start as."""
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
    evidence factors and its messages in the rows `slots` (every row by
    default), and has sent nothing yet."""
    plan = two_pass_plan(net, [])
    run = TwoPassRun(plan, state.evidence_factor, np.arange(1))
    for slot in range(plan.ones) if slots is None else slots:
        p, c = plan.arcs[slot // 2]
        lp = state.messages[plan.names[p], plan.names[c]]
        run.buf[slot, 0, :plan.cards[p]] = lp.lam if slot % 2 else lp.pi
    return run


def _loaded(net: Network, state: MessageState, a: str, to: str | None = None):
    """A one-case run holding the messages of `state` that the message `a`
    sends `to` reads (a's belief when `to` is None), and its one-member step."""
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
    CPT contracted with the pi of every parent (the prior for a root)."""
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
    """The plan's steps that send messages, a run's members one by one."""
    return [one for step in plan.steps
            for one in (step.members if type(step) is Sequence else step.steps) if one.sends]


def _message_steps(plan: TwoPassPlan) -> dict[tuple[int, int], Step]:
    """The one-member step of every directed message, keyed (sender id,
    receiver id), cut from the plan's steps (see `_sending_steps`)."""
    return {(a, to): step._replace(index=step.index[g:g + 1], reads=step.reads[g:g + 1])
            for step in _sending_steps(plan)
            for g, (a, to) in enumerate(step.index[:, :_PLACE].tolist())}


def _residual(old: np.ndarray, new: np.ndarray) -> float:
    return float(np.abs(old - new).max())


def _store(run: TwoPassRun, slot: int, new: np.ndarray, on_update, sweep: int) -> float:
    """Write `new` as the message in row `slot` of the one-case `run` and
    return how far it moved, passed to `on_update` above TOLERANCE."""
    held = run.msg(slot)
    new = new[:, :held.shape[1]]
    residual = _residual(held, new)
    if residual > TOLERANCE and on_update is not None:
        on_update(run.plan.record(sweep, slot, held[0].copy(), new[0]))
    held[...] = new
    return residual


def _no_fixpoint(run: TwoPassRun, what: str, slot: int, residual: float) -> ConvergenceError:
    """The ConvergenceError of a relaxation out of budget, naming `slot`."""
    parent, child, direction = run.plan.arc(slot)
    return ConvergenceError(f"no fixpoint after {what}; worst message: {direction} "
                            f"{parent}->{child} moved {residual:.3g}", arc=(parent, child),
                            direction=direction, residual=residual)


def propagate(
    net: Network,
    evidence: Evidence,
    schedule: str = "synchronous",
    seed: int = 0,
    on_update=None,
) -> tuple[MessageState, PropagationStats]:
    """Bring all messages to the fixpoint.  `schedule` is "synchronous"
    (full sweeps from the last sweep's snapshot, stored in the order of
    `_message_keys`), "fair-random" (a random possibly-out-of-kilter
    message, seeded by `seed`, until none is) or "two-pass" (each message
    once).  The relaxations stop once every message matches its recomputed
    value within TOLERANCE and raise ImpossibleEvidenceError on impossible
    evidence, which two-pass reports as a None log-likelihood."""
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
    """log P(evidence) from the two-pass normalizers, or None if it is 0."""
    return propagate(net, evidence, schedule="two-pass")[1].log_likelihood


#: a row sum below this is recomputed with the diagnostic vector rescaled
_TINY = 2.0**-500


def _scaled(matrices: np.ndarray) -> np.ndarray:
    """Contiguous, not negative `matrices`, each scaled in place by the power
    of two that brings the sum of its entries to [0.5, 1) (0 stays 0)."""
    size = matrices.shape[-1] * matrices.shape[-2]
    _, powers = np.frexp(matrices.reshape(-1, size) @ np.ones(size))  # BLAS, not a short axis
    matrices *= np.ldexp(1.0, -powers).reshape(matrices.shape[:-2] + (1, 1))
    return matrices


class TwoPassRun:
    """The messages of `plan` over the cases `live`, in the plan's buffer
    layout with a row per case, with the evidence factor `factors[v]` on
    each variable v that has one.  `two_pass` runs the plan's phases
    (`_apply`) and sends each long run by its blocked scan (`_scan`); the
    relaxations and per-message functions compute one-member steps on a
    one-case run.  A run writes only its own buffer.  A case whose
    normalizer is 0 is impossible and its rows stay 0.  The normalizers
    of the collect messages times each root's mass give each case's
    P(evidence): `log_weights`, valid where `possible`, with the powers of
    two of rescaled diagnostic vectors taken back out."""

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
        """Send every message once, each after what it reads.  Normalizers
        go to their sequential positions, so `log_weights` adds them in the
        same order whatever the phases."""
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
        """Compute `phase`, scatter its messages into their rows and its
        normalizers and shifts into `scales` and `shifts`."""
        values, sums, found = self._compute(phase)
        if len(phase.positions):
            scales[phase.positions] = sums[phase.collected:]
            if type(found) is not int:  # a scalar 0 moves nothing: shifts start at 0
                shifts[phase.positions] = found[phase.collected:]
        if phase.sent:
            self.buf[phase.slots, :, :phase.width] = values[:phase.sent]

    def _scan(self, run: Sequence, scales: np.ndarray, shifts: np.ndarray) -> None:
        """Send the wave `run`.  Each block's transfer matrices are multiplied
        pairwise, then the blocks' products into the product of all up to
        each (Hillis & Steele), each scaled; its row 0, normalized, is the
        next block's first input.  Then member j of every block is computed,
        j after j, again while an input was off by over 1e-12 relative."""
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
        """The sum-product rule for every member of a Step or Phase: its
        table times each pi it reads and its diagnostic vector (one operand,
        as einsum takes at most 64), summed over all but the recipient's
        axis, a row per case.  Returned normalized and padded to the width
        (a zero row stays 0), with the row sums and the power of two by
        which each exceeds the true one; with `raw`, a Step's results and
        diagnostic vectors.  A row whose sum is below 2^-500 may have
        underflowed and is recomputed from the `_rescaled` diagnostic
        vector, the shift taken back out of the evidence likelihood."""
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
        """The product of the diagnostic `rows` (stacked along axis 0) times
        2**shift per row, and `shift`, formed from mantissas and exponents
        kept apart so that nothing underflows on the way, each row scaled
        to bring its largest entry to [0.5, 1)."""
        mants, pows = np.frexp(rows)
        lam, power = np.ones(mants.shape[1:]), pows.sum(axis=0)
        for start in range(0, len(mants), 512):  # 512 mantissas multiply to 2^-512 or more
            lam, e = np.frexp(lam * np.prod(mants[start:start + 512], axis=0))
            power += e
        top = np.where(lam > 0, power, power.min()).max(axis=1)  # moot for an all-zero row
        return np.ldexp(lam, power - top[:, None]), -top

    def beliefs(self, nodes):
        """The beliefs of `nodes`, normalized per case, in one array with a
        row per case over the states of every node in id order (zero where a
        node is not asked), and their row sums, row k for `nodes[k]`.  Only
        the belief phases that hold an asked node are computed."""
        plan = self.plan
        values = np.zeros((self.n_cases, len(plan.owners)))
        masses = np.empty((len(plan.cards), self.n_cases))
        asked = np.zeros(len(plan.cards), dtype=bool)
        asked[nodes] = True
        for phase, (phase_nodes, members, states, flat) in zip(plan.beliefs, plan.columns):
            if asked[phase_nodes].any():
                beliefs, sums, _ = self._compute(phase)
                values.T[flat] = beliefs[members, :, states]
                masses[phase_nodes] = sums
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
