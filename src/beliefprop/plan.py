"""The two-pass plan (`TwoPassPlan`), compiled once per network and loop
cutset into steps, phases and blocked scans.  A node sends a neighbor
its message once it has heard from every other neighbor; the compiler
turns that rule into a critical-path list schedule (HLFET, Kwok & Ahmad
1999) from arrays built in a few passes: parents and children as CSR id
arrays, a column per property of each message, and each phase's arrays
built once.  `polytree.TwoPassRun` runs a plan, which never changes.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence as _Sequence
from typing import NamedTuple

import numpy as np

from .errors import SizeError
from .model import Evidence, Network, forest_walks, is_forest

#: einsum labels of the case axis and of a step's member axis; a node's
#: own axes are labeled from 0
_CASE, _MEMBER = 51, 50
#: einsum sublist of a message over node axis j, behind the member axis
_ROW = tuple((_MEMBER, _CASE, j) for j in range(_MEMBER))

#: floats of tables and diagnostic rows that one step, or one phase of
#: steps, may gather
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

#: a read position past every row: no read is left out
_NONE = 1 << 30


@functools.cache
def _subscripts(*sublists: tuple) -> str:
    """The einsum subscripts of sublists (operands, then the result), label
    k written as the letter numpy gives it in sublist form, which numpy
    parses faster than sublists."""
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


def two_pass_plan(net: Network, members) -> TwoPassPlan:
    """The plan of `net` conditioned on the cutset `members`, cached in the
    network.  Raises KeyError on an unknown member, ValueError on a loop."""
    return net.cached(("two-pass plan", tuple(members)), lambda: TwoPassPlan(net, members))


class Rule(NamedTuple):
    """How node `node` computes one message or its belief: the row it
    writes (None for a belief), the einsum sublist of its table, the (row,
    sublist) of each pi it reads, the rows of the lambdas it reads, and the
    sublists of its diagnostic vector and of the result."""

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
    """Messages or beliefs of one shape class (tables' sublist, and widths
    of _UNPADDED states or more) and recipient axis, one einsum over a
    leading member axis.  Row g of `index` holds member g's node,
    recipient, table row in `stack` (a single message's is its own table),
    written row and normalizer position (-1 for none); row g of `reads`
    the row of each pi, then its evidence and lambda rows, padded with
    the all-ones row.  `pis` and `own` are the padded operand widths,
    `spec` the einsum subscripts, `width` the result's width; `collects`
    tells whether row sums are normalizers of log P(evidence)."""

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
    """Consecutive steps of which no member reads a row that another member
    writes, computed with one gather and one scatter.  `rows` lists every
    row read, each step's column by column (its `reads` is a view of them).
    `spans[k]` gives the first and end entry of `steps[k]` in `rows` and its
    first and end member in the results, `width` states wide.  The first
    `sent` members write the rows `slots`; the members from number
    `collected` on are normalizers, at `positions`."""

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
    blocked scan: paths in which each member reads the one before, cut
    into blocks of `block` members; `phases` computes member j of every
    block, j after j.  Block b + 1 of path k first reads row `starts[k, b]`
    (-1 past its end).  Each of `transfers`, (step, at), gives the transfer
    matrices of members outside a path's last block, member g's to block
    position at[g] (path, block, member j)."""

    phases: tuple
    block: int
    starts: np.ndarray
    transfers: tuple

    @property
    def members(self) -> list:
        """Every member as its one-member step, phase by phase."""
        return [step._replace(index=step.index[g:g + 1], reads=step.reads[g:g + 1])
                for phase in self.phases for step in phase.steps for g in range(len(step.index))]


def _widths(table: tuple, shape: tuple, pis: list, own: tuple, out: tuple) -> tuple:
    """The padded widths of the pi operands and the diagnostic operand, the
    einsum subscripts and the result's width, of tables `table` of `shape`."""
    width = dict(zip(table[1:], shape))
    return (tuple(width[sub[-1]] for sub in pis), width[own[-1]],
            _subscripts(table, *pis, own, out), width[out[-1]])


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each item's block and its place in it, for blocks of `counts` items."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


class TwoPassPlan:
    """Pearl's collect/distribute schedule over the forest left by cutting
    every arc out of a cutset member, over integer node ids (`arcs` remain).
    The members' children get a leading case axis, a row per joint member
    assignment (`cases`).  A run keeps its messages in one buffer of rows,
    a row per case each: the pi of arc k in row 2k and its lambda in row
    2k+1, the all-ones row `ones`, then node a's evidence factor in row
    `ones + 1 + a`; `widths` gives each row's states.  `rules[a]` is the
    `Rule` of a's belief.  `steps` computes every message and root mass,
    `beliefs` every belief; `columns[i]` holds the nodes of `beliefs[i]`,
    the member and state of each of their states, and its column in a
    vector over every node's states (column k of node `owners[k]`).  `order`
    lists the message rows in the sequential schedule: each tree's collect
    messages in reverse walk order (trees rooted at their smallest name),
    then each tree's distribute messages in walk order.  Traces follow it,
    and so do the `n_normalizers` normalizer positions, each root's mass
    after its tree's collect messages."""

    __slots__ = ("names", "ids", "cards", "members", "cases", "arcs", "rules", "tensors",
                 "ones", "widths", "order", "steps", "beliefs", "columns", "owners",
                 "n_normalizers")

    def __init__(self, net: Network, members) -> None:
        self.members = tuple(members)
        ranges = [range(net.card(m)) for m in self.members]
        self.names = names = tuple(net.var_names())
        cut = set(self.members)
        arcs = [(p, c) for p, c in net.edges() if p not in cut]
        if not (is_forest(arcs, names) if cut else net.is_singly_connected()):
            raise ValueError(f"not a valid cutset: {list(self.members)}")
        n_cases = math.prod(map(len, ranges))
        self.cards = tuple(len(v.states) for v in net.variables)
        widest = max(self.cards, default=1)
        batched = {c for p, c in net.edges() if p in cut}  # the tables with a case axis
        # a case's rows, and each table with a case axis twice (its stack too)
        floats = (2 * len(arcs) + 1 + len(names)) * widest + 2 * sum(
            net.card(v) * math.prod(net.card(p) for p in net.parents(v) if p not in cut)
            for v in batched)
        _check_size(n_cases, floats)
        self.cases = np.array(list(itertools.product(*ranges)), dtype=np.intp).reshape(n_cases, -1)
        self.ids = ids = net.ids()
        self.arcs = tuple((ids[p], ids[c]) for p, c in arcs)
        cased = {ids[v]: self._tensor(net, v) for v in batched}
        self.tensors = _Lazy(len(names), lambda a: cased[a] if a in cased
                             else net.cpt_tensor(names[a]))
        self.ones = 2 * len(arcs)
        ends = np.fromiter(itertools.chain.from_iterable(self.arcs), dtype=np.intp,
                           count=self.ones).reshape(-1, 2)
        cards = np.array(self.cards, dtype=np.intp)
        self.widths = (*np.repeat(cards[ends[:, 0]], 2).tolist(), widest, *self.cards)
        build = _Compiler(self, ends, np.isin(np.arange(len(names)), list(cased)),
                          [cased[a] if a in cased else net.cpts[v].table for a, v in enumerate(names)])
        self.rules = build.rules
        self.order, self.n_normalizers, self.steps = build.messages()
        transfers = sum(run.starts.size * run.block for run in self.steps if type(run) is Sequence)
        _check_size(n_cases, floats + transfers * widest ** 2)
        self.beliefs = build.beliefs()
        del build
        offsets = np.cumsum(cards) - cards
        self.owners = np.repeat(np.arange(len(cards)), cards)
        self.columns = []
        for phase in self.beliefs:
            nodes = np.concatenate([step.index[:, _NODE] for step in phase.steps])
            members, states = np.nonzero(np.arange(phase.width) < cards[nodes, None])
            self.columns.append((nodes, members, states, offsets[nodes[members]] + states))
        self.columns = tuple(self.columns)
        for array in (self.cases, self.owners, *itertools.chain(*self.columns)):
            array.flags.writeable = False  # shared by every run of the plan

    def _tensor(self, net: Network, v: str) -> np.ndarray:
        """v's CPT tensor with its member parents indexed by the cases, as
        one leading case axis."""
        parents = net.parents(v)
        cut = [k for k, p in enumerate(parents) if p in self.members]
        columns = [self.cases[:, self.members.index(parents[k])] for k in cut]
        tensor = np.moveaxis(net.cpt_tensor(v), cut, range(len(cut)))[tuple(columns)]
        tensor.flags.writeable = False  # shared by every run of the plan
        return tensor

    def single(self, a: int, to: int | None) -> Step:
        """The one-member step of the message node `a` sends `to`, or of a's
        belief when `to` is None, over a's own table."""
        rule = self.rule(a, to)
        slot = -1 if rule.slot is None else rule.slot
        reads = [*(slot for slot, _ in rule.pis), self.ones + 1 + a, *rule.lams]
        pis = [sub for _, sub in rule.pis]
        return Step(np.array([[a, -1 if to is None else to, 0, slot, -1]], dtype=np.int32),
                    np.array([reads], dtype=np.int32), rule.slot is not None, self.tensors[a],
                    rule.table, *_widths(rule.table, self.tensors[a].shape, pis, rule.own,
                                         rule.out), False)

    def rule(self, a: int, to: int | None) -> Rule:
        """The rule of the message node `a` sends `to`, or of a's belief when
        `to` is None, derived from a's belief rule."""
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

    def run(self, evidence: Evidence, live: np.ndarray | None = None):
        """One `polytree.TwoPassRun` over the cases `live` (all by default)."""
        from .polytree import TwoPassRun

        factors = {v: _eye(self.cards[self.ids[v]])[s] for v, s in evidence.items()}
        run = TwoPassRun(self, factors, np.arange(len(self.cases)) if live is None else live)
        run.two_pass()
        return run

    def arc(self, slot: int) -> tuple[str, str, str]:
        """The parent and child of the arc of message `slot`, and "pi" or
        "lambda"."""
        arc, is_lambda = divmod(slot, 2)
        p, c = self.arcs[arc]
        return self.names[p], self.names[c], "lambda" if is_lambda else "pi"

    def record(self, sweep: int, slot: int, old: np.ndarray, new: np.ndarray):
        """The `polytree.TraceRecord` of message `slot` moving to `new`."""
        from .polytree import TraceRecord

        return TraceRecord(sweep, *self.arc(slot), old, new)


class _Lazy(_Sequence):
    """`length` items, item a made by `make(a)` when looked up."""

    def __init__(self, length: int, make) -> None:
        self.length, self.make = length, make

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, a: int):
        return self.make(range(self.length)[a])


def _belief_rule(reads: np.ndarray, start: np.ndarray, ups: np.ndarray, batched, a: int) -> Rule:
    """The `Rule` of node a's belief: a reads `reads[start[a]:start[a + 1]]`."""
    k = int(ups[a])
    rows = reads[start[a]:start[a + 1]].tolist()
    return Rule(a, None, _axes(k, bool(batched[a])), tuple(zip(rows[:k], _ROW)),
                tuple(rows[k + 1:]), _ROW[k], _ROW[k])


class _Compiler:
    """What building a plan's steps needs and the plan does not keep.  Node
    a reads `reads[start[a]:start[a] + length[a]]`: the pi row of each of
    its `ups[a]` parents in table order, its evidence row, then the lambda
    row of each child in arc order; `reads` ends with the all-ones row.
    Shape class k's tables, zero-padded to the largest, are `stacks[k]`,
    node a's in row `places[a]` of the stack of class `classes[a]`."""

    def __init__(self, plan: TwoPassPlan, ends: np.ndarray, batched: np.ndarray, tables) -> None:
        self.plan, self.ends, self.batched = plan, ends, batched
        n, arcs = len(plan.names), len(ends)
        self.ups = ups = np.bincount(ends[:, 1], minlength=n)  # arcs come grouped by child
        downs = np.bincount(ends[:, 0], minlength=n)
        self.first_up = np.cumsum(ups) - ups
        by_parent = np.argsort(ends[:, 0], kind="stable")
        self.child_at = np.zeros(arcs + 1, dtype=np.intp)  # each arc's place among its parent's
        self.child_at[by_parent] = _ragged(downs)[1]
        self.length = ups + 1 + downs
        self.start = np.cumsum(self.length) - self.length
        node, at = _ragged(self.length)
        reads = np.where(at < ups[node], 2 * (self.first_up[node] + at), plan.ones + 1 + node)
        lam = np.flatnonzero(at > ups[node])
        first_down = (np.cumsum(downs) - downs)[node[lam]]
        reads[lam] = 2 * by_parent[first_down + at[lam] - ups[node[lam]] - 1] + 1
        self.reads = np.append(reads, plan.ones).astype(np.int32)
        self.rules = _Lazy(n, functools.partial(_belief_rule, self.reads,
                                                np.append(self.start, len(reads)), ups, batched))
        self.metas: dict = {}  # what the steps of one code share (see `_meta`)
        self.per_row = len(plan.cases) * max(plan.widths)  # floats of a gathered row
        self._stack(tables)

    def _stack(self, tables: list) -> None:
        """Number the shape classes in order of their first node, and stack
        each class's tables in one buffer written with one scatter."""
        plan, ups, n = self.plan, self.ups, len(self.ups)
        cards = np.array(plan.cards, dtype=np.intp)
        # each table's shape: its case axis (1 for none), its parents' states,
        # its own, then 1s
        shapes = np.ones((n, 2 + int(ups.max(initial=0))), dtype=np.intp)
        shapes[self.batched, 0] = len(plan.cases)
        owner, j = _ragged(ups)
        shapes[owner, 1 + j] = cards[self.ends[:, 0]]
        shapes[np.arange(n), 1 + ups] = cards
        wide = np.where(shapes[:, 1:] >= _UNPADDED, shapes[:, 1:], 0)  # cases: `batched`
        keys = np.column_stack([2 * ups + self.batched, wide[:, wide.any(axis=0)]])
        _, first, inverse = np.unique(keys if wide.any() else keys[:, 0], return_index=True,
                                      return_inverse=True, axis=0)
        self.classes = classes = np.argsort(np.argsort(first))[inverse.reshape(-1)]
        counts = np.bincount(classes, minlength=len(first))
        by_class = np.argsort(classes, kind="stable")
        self.places = np.empty(n, dtype=np.intp)
        self.places[by_class] = _ragged(counts)[1]
        largest = np.maximum.reduceat(shapes[by_class], np.cumsum(counts) - counts)
        sizes = largest.prod(axis=1)
        self.table = sizes.tolist()
        bases = np.cumsum(counts * sizes) - counts * sizes
        buffer = np.zeros(int((counts * sizes).sum()))
        # entry f of a table goes to its place in its padded row
        owner, f = _ragged(shapes.prod(axis=1))
        at = (bases[classes] + self.places * sizes[classes])[owner]
        strides = np.cumprod(largest[:, :0:-1], axis=1)[:, ::-1]  # of each axis but the first
        for d in np.flatnonzero((shapes > 1).any(axis=0)).tolist()[::-1]:
            f, index = np.divmod(f, shapes[owner, d])
            at += index * (strides[classes[owner], d] if d + 1 < shapes.shape[1] else 1)
        buffer[at] = np.concatenate([np.zeros(0), *tables], axis=None)
        buffer.flags.writeable = False  # shared by every run of the plan
        heads = by_class[np.cumsum(counts) - counts]
        self.stacks = [buffer[base:base + count * sizes[k]].reshape(
            count, *largest[k, 1 - self.batched[a]:2 + ups[a]].tolist()) for k, (a, base, count)
            in enumerate(zip(heads.tolist(), bases.tolist(), counts.tolist()))]

    def messages(self) -> tuple:
        """The plan's `order`, `n_normalizers` and `steps`."""
        plan, ends, ups = self.plan, self.ends, self.ups
        n, names = len(plan.names), plan.names
        # each tree's collect messages, its mass, then the distribute
        # messages of every tree, as (node, recipient) in name ranks
        rank = np.empty(n, dtype=np.intp)
        rank[sorted(range(n), key=names.__getitem__)] = np.arange(n)
        one, other = np.concatenate([rank[ends], rank[ends[:, ::-1]]]).T
        adjacent = other[np.lexsort((other, one))].tolist()
        bounds = [0, *np.cumsum(np.bincount(one, minlength=n)).tolist()]
        walks = forest_walks(rank.tolist(), lambda r: adjacent[bounds[r]:bounds[r + 1]])
        lengths = np.array([len(walk) for _, walk in walks], dtype=np.intp)
        walked = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(
            walk for _, walk in walks)), dtype=np.intp, count=2 * lengths.sum()).reshape(-1, 2)
        tree, i = _ragged(lengths)
        masses = np.cumsum(lengths + 1) - 1  # each tree's mass after its collect messages
        pairs = np.full((len(walked) + len(walks), 2), -1)
        pairs[masses[tree] - 1 - i] = walked
        pairs[masses, 0] = [root for root, _ in walks]
        pairs = np.concatenate([pairs, walked[:, ::-1]])
        pairs = np.where(pairs >= 0, np.argsort(rank)[pairs], -1)
        a, to = pairs[:, 0], pairs[:, 1]
        # each message's row: the pi of arc k (to a child) is 2k, its lambda 2k + 1
        sent = np.flatnonzero(to >= 0)
        keys = np.concatenate([ends[:, 0] * n + ends[:, 1], ends[:, 1] * n + ends[:, 0]])
        rows = np.arange(2 * len(ends)).reshape(-1, 2).T.reshape(-1)  # 0, 2, .., 1, 3, ..
        by_key = np.argsort(keys)
        slot = np.full(len(a), -1)
        slot[sent] = rows[by_key[np.searchsorted(keys[by_key], a[sent] * n + to[sent])]]
        arc, up = slot // 2, (slot % 2 == 1) & (to >= 0)
        position = np.arange(1, len(a) + 1)
        position[len(walked) + len(walks):] = -1
        axis = np.where(up, arc - self.first_up[a], ups[a])
        drop = np.where(to >= 0, np.where(up, axis, ups[a] + 1 + self.child_at[arc]), _NONE)
        self._entries(a, to, slot, position, axis, drop, (to >= 0) & ~up)
        self.slot, self.slots = slot, slot.tolist()
        units = []  # each run of single members goes through `_sequence`
        for alone, chunks in itertools.groupby(self._schedule(a, to), lambda c: len(c) == 1):
            units += self._sequence([c[0] for c in chunks]) if alone else [(c, False) for c in chunks]
        return tuple(slot[sent].tolist()), len(walked) + len(walks) + 1, self._phases(units)

    def beliefs(self) -> tuple:
        """The plan's `beliefs`: each shape class's beliefs together, the
        largest class first."""
        nodes = np.arange(len(self.plan.names))
        none = np.full(len(nodes), -1)
        self._entries(nodes, none, none, none, self.ups, np.full(len(nodes), _NONE), nodes < 0)
        groups = sorted(_groups(nodes, np.array(self.code)), key=len, reverse=True)
        return self._phases([(chunk, False) for group in groups
                             for chunk in self._split(group.tolist())])

    def _entries(self, a, to, slot, position, axis, drop, to_child) -> None:
        """A column per property of the entries, the messages `a` sends `to`
        (-1 for a mass or belief; `to_child` marks the pi messages): `index`
        as in `Step.index`, the read each leaves out (`drop`, _NONE for
        none), its number of reads, its recipient axis, the `code` that the
        members of a step share, and its number of lambda rows."""
        self.index = np.column_stack([a, to, self.places[a], slot, position]).astype(np.int32)
        code = ((self.classes[a] * (_MEMBER + 1) + axis) * 2 + (slot < 0)) * 2 + (position < 0)
        self.drop, self.n_reads, self.axis = drop, self.length[a] - (to >= 0), axis
        self.code, self.lams = code.tolist(), (self.length[a] - self.ups[a] - 1 - to_child).tolist()

    def _schedule(self, a: np.ndarray, to: np.ndarray) -> list:
        """Every entry (the message `a[e]` sends `to[e]`, or a root's mass)
        after what it reads, as lists of entries that one step computes.
        The message a sends `to` is ready once a has heard from every other
        neighbor, and a mass once its root has heard from all.  Ready
        entries wait in groups by code; each time the group holding the
        ready entry with the longest chain of readers ahead is taken and
        split (`_split`); ties go to the larger group, then the lower entry
        (HLFET list scheduling)."""
        n, senders, recipients = len(self.plan.names), a.tolist(), to.tolist()
        # the longest chain from each entry through its readers, found in
        # one pass from the last entry back, from each node's two longest
        # outgoing chains: the message a sends `to` is read by every
        # message `to` sends except the one back, and by to's mass
        tails, top, top_to, second = [1] * len(a), [0] * n, [-2] * n, [0] * n
        for e in range(len(a) - 1, -1, -1):
            node, recipient = senders[e], recipients[e]
            if recipient >= 0:
                tails[e] += top[recipient] if top_to[recipient] != node else second[recipient]
            if tails[e] > top[node]:
                second[node], top[node], top_to[node] = top[node], tails[e], recipient
            elif tails[e] > second[node]:
                second[node] = tails[e]
        del top, top_to, second
        sent = np.flatnonzero(to >= 0)
        message = dict(zip((a * n + to)[sent].tolist(), sent.tolist()))  # by sender, recipient
        sends = (len(a) - 1 - np.argsort(a[::-1], kind="stable")).tolist()  # the last first
        first = [0, *np.cumsum(np.bincount(a, minlength=n)).tolist()]
        # the neighbors each node has not heard from, and their ids summed
        waiting = np.bincount(a[sent], minlength=n)
        unheard = np.bincount(a[sent], to[sent], minlength=n).astype(np.intp).tolist()
        # ready from the start: a leaf's message to its one neighbor, and
        # the mass of a node with no neighbor
        ready = np.flatnonzero((waiting[a] == 0) | (waiting[a] == 1) & (to >= 0))
        ready = ready[np.argsort(a[ready], kind="stable")].tolist()
        waiting = waiting.tolist()
        codes, groups, chunks = self.code, {}, []
        while True:
            if len(ready) == 1 and not groups:  # the one ready entry, alone
                chosen = ready
                chunks.append(chosen)
            else:
                for e in ready:  # group: [longest tail, size, -lowest entry, code, members]
                    group = groups.get(codes[e])
                    if group is None:
                        groups[codes[e]] = [tails[e], 1, -e, codes[e], [e]]
                        continue
                    if tails[e] > group[0]:
                        group[0] = tails[e]
                    if -e > group[2]:
                        group[2] = -e
                    group[1] += 1
                    group[4].append(e)
                if not groups:
                    return chunks
                if len(groups) == 1:
                    group = groups.popitem()[1]
                else:  # entry numbers differ, so codes are never compared
                    group = max(groups.values())
                    del groups[group[3]]
                chosen = group[4]
                chunks += self._split(chosen) if group[1] > 1 else [chosen]
            ready = []
            for e in chosen:  # `to` hears from `a`
                recipient = recipients[e]
                if recipient < 0:
                    continue
                waiting[recipient] -= 1
                unheard[recipient] -= senders[e]
                if waiting[recipient] == 1:  # its message to the one left
                    ready.append(message[recipient * n + unheard[recipient]])
                elif waiting[recipient] == 0:  # all the others, and its mass
                    mine = sends[first[recipient]:first[recipient + 1]]
                    ready += mine
                    del ready[len(ready) - len(mine)
                              + mine.index(message[recipient * n + senders[e]])]

    def _split(self, members: list) -> list:
        """`members` of one code, by their number of lambda rows, in chunks
        that gather at most _STEP_FLOATS floats of tables and rows."""
        if len(members) == 1:
            return [members]
        lams, per_row = self.lams, self.per_row
        members = sorted(members, key=lams.__getitem__)
        table = self.table[self.classes[self.index[members[0], _NODE]]]
        if len(members) * (table + (1 + lams[members[-1]]) * per_row) <= _STEP_FLOATS:
            return [members]
        chunks, chunk = [], []
        for member in members:
            rows = 1 + lams[member]  # the most in the chunk, with the evidence row
            if chunk and (len(chunk) + 1) * (table + rows * per_row) > _STEP_FLOATS:
                chunks.append(chunk)
                chunk = []
            chunk.append(member)
        return [*chunks, chunk]

    def _rows(self, e: np.ndarray, j: np.ndarray, before=None) -> np.ndarray:
        """Read `j` of each entry `e`, or the all-ones row past its last;
        with `before`, also leaving out that read of its node."""
        drop, length = self.drop[e], self.n_reads[e]
        if before is not None:
            drop, before = np.minimum(drop, before), np.maximum(drop, before)
            length = length - (before < _NONE)
        at = j + (j >= drop)
        if before is not None:
            at += at >= before
        at = np.where(j < length, self.start[self.index[e, _NODE]] + at, len(self.reads) - 1)
        return self.reads[at]

    def _meta(self, code: int, a: int, axis: int, alone: bool, before: int = -1) -> tuple:
        """The stack, table sublist, widths and subscripts (`_widths`) of a
        step of node `a`'s entries of `code` over recipient axis `axis`, on
        a's own table when `alone`; with `before`, of their transfer
        matrices, that axis kept in the result."""
        key = code, a if alone else -1, before
        if key not in self.metas:
            k = int(self.ups[a])
            table = _axes(k, bool(self.batched[a]))
            stack = self.plan.tensors[a] if alone else self.stacks[self.classes[a]]
            pis = [sub for j, sub in enumerate(_ROW[:k]) if j != axis and j != before]
            out = _ROW[axis] if before < 0 else (_MEMBER, _CASE, before, axis)
            self.metas[key] = (stack, table,
                               *_widths(table, stack.shape[1 - alone:], pis, _ROW[k], out))
        return self.metas[key]

    def _sequence(self, members: list) -> list:
        """The run of single `members`: one-member steps, or from _SCAN_RUN
        on a Sequence per wave.  A member reading one run member continues
        its path unless another did or it is a pi reading a lambda; else it
        starts a path in a later wave."""
        if len(members) < _SCAN_RUN:
            return [([e], True) for e in members]
        run = np.array(members)
        owner, j = _ragged(self.n_reads[run])
        rows = self._rows(run[owner], j)
        slots = self.index[run, _SLOT]
        written = np.zeros(len(self.plan.widths), dtype=bool)
        written[slots[slots >= 0]] = True
        owner, rows = owner[written[rows]], rows[written[rows]]  # the reads of run members
        # the one run member each member reads, unless it is a pi reading a lambda
        once = np.bincount(owner, minlength=len(run)) == 1
        once &= (slots < 0) | (slots % 2 == 1) | (np.bincount(owner[rows % 2 == 1],
                                                               minlength=len(run)) == 0)
        follows = np.full(len(run), -2)
        follows[owner] = rows
        follows = np.where(once, follows, -2).tolist()
        reads, bounds = rows.tolist(), np.searchsorted(owner, np.arange(len(run) + 1)).tolist()
        paths, waves, tails, wave_of = [], [], {}, {}  # tails: a path's last row
        for g, (e, slot) in enumerate(zip(members, slots.tolist())):
            if follows[g] in tails:
                path = tails.pop(follows[g])
            else:
                path = len(paths)
                paths.append([])
                waves.append(1 + max((wave_of[row] for row in reads[bounds[g]:bounds[g + 1]]),
                                     default=-1))
            paths[path].append(e)
            tails[slot], wave_of[slot] = path, waves[path]
        return [self._wave([path for path, w in zip(paths, waves) if w == wave])
                for wave in range(max(waves) + 1)]

    def _wave(self, paths: list) -> Sequence:
        """The Sequence of `paths`, each member reading the one before."""
        paths = sorted(paths, key=len, reverse=True)
        block = 1 << max(0, math.isqrt(len(paths[0]) // 4).bit_length() - 1)
        blocks = -(-len(paths[0]) // block)
        starts = np.array([[self.slots[path[b * block - 1]] if b * block < len(path) else -1
                            for b in range(1, blocks)] for path in paths], dtype=np.intp)
        lengths = np.array([len(path) for path in paths])
        k, i = _ragged(lengths)
        e = np.array([e for path in paths for e in path])
        code = np.array([self.code[member] for member in e.tolist()])
        before = np.where(i > 0, self.slot[e[np.arange(len(e)) - 1]], -1)  # the row it reads
        # member j of every block, a step or a few per code in order of
        # its first member
        units = [(chunk, False) for group in _groups(e, code, i % block)
                 for chunk in self._split(group.tolist())]
        # transfer matrices of the members outside their path's last block,
        # each with the read of the member before left open
        opened = np.flatnonzero(i // block < (lengths[k] - 1) // block)
        e, k, i, before, code = e[opened], k[opened], i[opened], before[opened], code[opened]
        node = self.index[e, _NODE]
        pi, arc = before % 2 == 0, before // 2
        label = np.where(before < 0, -1, np.where(pi, arc - self.first_up[node], self.ups[node]))
        place = np.where(before < 0, _NONE,
                         np.where(pi, label, self.ups[node] + 1 + self.child_at[arc]))
        transfers = []
        for group in _groups(np.arange(len(e)), code * (_MEMBER + 2) + label + 1):
            members = e[group]
            cols = int((self.n_reads[members] - (place[group] < _NONE)).max())
            g, j = np.divmod(np.arange(len(members) * cols), cols)
            reads = self._rows(members[g], j, place[group][g]).reshape(-1, cols)
            stack, *meta = self._meta(self.code[members[0]], int(node[group[0]]),
                                      int(self.axis[members[0]]), False, int(label[group[0]]))
            transfers.append((Step(self.index[members], reads, True, stack, *meta,
                                   bool(self.index[members[0], _POSITION] >= 0)),
                              k[group] * (blocks - 1) * block + i[group]))
        return Sequence(self._phases(units), block, starts, tuple(transfers))

    def _phases(self, units: list) -> tuple:
        """`units`, Sequences and steps as (members, alone), with each maximal
        run of steps in which no member reads what another writes made a
        Phase that gathers at most _STEP_FLOATS floats (a lone step may
        gather more) and puts no result of _UNPADDED states or more beside
        a narrower one.  In a phase, the steps that send distribute
        messages come first, then collect messages, then masses or beliefs,
        so senders and collectors are each one block."""
        members = [unit[0] for unit in units if type(unit) is not Sequence]
        if not members:
            return tuple(units)
        counts = np.array([len(chunk) for chunk in members])
        flat = np.fromiter(itertools.chain.from_iterable(members), dtype=np.intp,
                           count=counts.sum())
        step, _ = _ragged(counts)
        index = self.index[flat]
        firsts = (np.cumsum(counts) - counts).tolist()
        # the last step before each step that writes a row it reads (a
        # later one writes a block input of a scan)
        lengths = self.n_reads[flat]
        owner, j = _ragged(lengths)
        written = np.full(len(self.plan.widths), -1)
        writes = index[:, _SLOT] >= 0
        written[index[writes, _SLOT]] = step[writes]
        latest = written[self._rows(flat[owner], j)]
        latest[latest >= step[owner]] = -1
        latest = np.maximum.reduceat(latest, (np.cumsum(lengths) - lengths)[firsts]).tolist()
        cols = np.maximum.reduceat(lengths, firsts)
        sends, collects = (index[firsts, _SLOT] >= 0).tolist(), (index[firsts, _POSITION] >= 0).tolist()
        nodes, axes = index[firsts, _NODE], self.axis[flat[firsts]].tolist()
        reads = (counts * cols * self.per_row).tolist()
        sizes = (counts * cols * self.per_row + counts * np.array(self.table)[self.classes[nodes]])
        sizes, nodes = sizes.tolist(), nodes.tolist()
        groups, group, floats, width, metas, k = [], [], 0, 0, [], 0
        for unit in units:
            if type(unit) is Sequence:
                groups += [group, unit] if group else [unit]
                group = []
                continue
            meta = self._meta(self.code[unit[0][0]], nodes[k], axes[k], unit[1])
            size = reads[k] + meta[0].size if unit[1] else sizes[k]
            if group and (latest[k] >= group[0] or floats + size > _STEP_FLOATS
                          or meta[-1] != width and max(meta[-1], width) >= _UNPADDED):
                groups.append(group)
                group, floats, width = [], 0, 0
            metas.append((meta, unit[1]))
            group.append(k)
            floats, width, k = floats + size, max(width, meta[-1]), k + 1
        if group:
            groups.append(group)
        groups = [unit if type(unit) is Sequence else
                  sorted(unit, key=lambda k: (not sends[k], collects[k])) for unit in groups]
        order = [k for group in groups if type(group) is not Sequence for k in group]
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        moved = np.argsort(rank[step], kind="stable")
        flat, index = flat[moved], index[moved]
        counts, cols = counts[order], cols[order]
        step, at = _ragged(counts * cols)  # each step's column by column
        j, g = np.divmod(at, counts[step])
        rows = self._rows(flat[(np.cumsum(counts) - counts)[step] + g], j)
        ends, stops = [0, *np.cumsum(counts * cols).tolist()], [0, *np.cumsum(counts).tolist()]
        phases, k, cols = [], 0, cols.tolist()
        for group in groups:
            if type(group) is Sequence:
                phases.append(group)
                continue
            start, first, k = ends[k], stops[k], k + len(group)
            block, members = rows[start:ends[k]].copy(), index[first:stops[k]]
            done, spans = [], []
            for q in range(k - len(group), k):
                (stack, *meta), alone = metas[order[q]]
                if alone:
                    index[stops[q], _PLACE] = 0
                done.append(Step(index[stops[q]:stops[q + 1]],
                                 block[ends[q] - start:ends[q + 1] - start].reshape(cols[q], -1).T,
                                 sends[order[q]], stack, *meta, collects[order[q]]))
                spans.append((ends[q] - start, ends[q + 1] - start, stops[q] - first,
                              stops[q + 1] - first))
            sent = sum(len(step.index) for step in done if step.sends)
            collected = sum(len(step.index) for step in done if not step.collects)
            phases.append(Phase(tuple(done), block, tuple(spans), members[:sent, _SLOT], sent,
                                members[collected:, _POSITION], collected,
                                max(step.width for step in done)))
        return tuple(phases)


def _groups(items: np.ndarray, keys: np.ndarray, major=None) -> list:
    """`items` grouped by `keys` (and `major`), in order of `major`, then of
    their first item."""
    if not len(items):
        return []
    if major is not None:
        keys = major * (keys.max() + 1) + keys
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.lexsort((np.arange(len(keys)), first[inverse], *(() if major is None else (major,))))
    bounds = np.flatnonzero(np.diff(inverse[order])) + 1
    return np.split(items[order], bounds)
