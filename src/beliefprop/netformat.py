"""Line-oriented text format for networks: parser, serializer, evidence args.

The format:

    net <name>                      # optional header
    var <name> : <state> <state> ...
    cpt <root> :
      <p1> ... <pk>
    cpt <child> | <parent> ... :
      <pstate> ... : <p1> ... <pk>  # one row per parent configuration,
      ...                           # row-major in the declared parent order

`#` starts a comment; blank lines are ignored; statements start in column 1
and CPT rows are indented.  Variable names are identifiers (letter or
underscore first); state labels may also be bare digits.

The parser splits each line once with `str.split` and checks its words as
plain strings; numbers are Python floats.  A word's `line:column` span is
worked out only when a ParseError is raised, by finding that word again in
its line, so valid input builds no per-word object.  The checked
probabilities of each row width go into one stdlib `array("d")`, which
`model.stacked_cpts` makes into numpy tables when a table is first read.
So parsing needs no numpy, and neither does validating a table whose
every row sum `parse` found within `_CERTIFIED_TOL` of 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from array import array
from dataclasses import dataclass

from .model import ROW_SUM_RENORM_TOL, Evidence, Network, Variable, stacked_cpts

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")
TOKEN_RE = re.compile(r"\S+")
#: a table whose every row sums to 1 within this, as parsed, is certified:
#: numpy's row sum, in any order, then renormalizes each row, so the table
#: passes validate's row checks
_CERTIFIED_TOL = ROW_SUM_RENORM_TOL / 2


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str) -> None:
        super().__init__(f"{span.line}:{span.column}: {message}")
        self.span = span
        self.message = message


class _WordError(Exception):
    """A bad word of the line being parsed: (its index, the message).  The
    parse loop turns it into a ParseError with the word's span."""


def _span(raw: str, lineno: int, i: int) -> SourceSpan:
    """Where the i-th word of line `raw` starts.  Words are what
    `str.split` finds before any `#`; `TOKEN_RE` matches the same runs, so
    this is worked out only when an error is raised."""
    body = raw.split("#", 1)[0]
    match = next(itertools.islice(TOKEN_RE.finditer(body), i, None))
    return SourceSpan(lineno, match.start() + 1)


def _parse_prob(text: str, i: int) -> float:
    try:
        p = float(text)
    except ValueError:
        raise _WordError(i, f"malformed number {text!r}") from None
    if not math.isfinite(p):
        raise _WordError(i, f"malformed number {text!r}")
    if p < 0.0 or p > 1.0:
        raise _WordError(i, f"probability {text} outside [0, 1]")
    return p


class _CptBlock:
    """An open `cpt` statement waiting for its configuration rows."""

    def __init__(self, header: tuple[str, int], child: Variable, parents: list[Variable],
                 flat: array):
        self.header = header  # (line, line number) of the statement
        self.child = child
        self.parents = parents
        # each row's parent states, in row-major order of the parent list
        self.labels = list(map(list, itertools.product(*(p.states for p in parents))))
        self.flat = flat  # the probabilities of every row of this width so far
        self.n_rows = 0
        self.certified = True

    @property
    def complete(self) -> bool:
        return self.n_rows == len(self.labels)

    def describe_config(self, idx: int) -> str:
        return " ".join(self.labels[idx]) if self.parents else "(root)"


def parse(text: str) -> Network:
    """Parse a network description; raises ParseError with a source span."""
    name: str | None = None
    variables: list[Variable] = []
    by_name: dict[str, Variable] = {}
    cpts: list[tuple] = []  # (child, parents, n_rows, width, certified) in declaration order
    rows: dict[int, array] = {}  # each row width's probabilities, row after row
    tabled: set[str] = set()  # children with a cpt
    block: _CptBlock | None = None
    saw_statement = False

    def close_block() -> None:
        nonlocal block
        if block is None:
            return
        if not block.complete:
            raise ParseError(
                _span(*block.header, 1),
                f"missing configuration row for {block.child.name} "
                f"(expected {block.describe_config(block.n_rows)!r} next)",
            )
        cpts.append((block.child.name, [p.name for p in block.parents], block.n_rows,
                     block.child.card, block.certified))
        tabled.add(block.child.name)
        block = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        try:
            if raw[0].isspace():  # an indented row
                if block is None:
                    raise _WordError(0, "row outside of a cpt statement")
                if block.complete:
                    raise _WordError(0, f"too many rows for cpt {block.child.name}")
                _parse_row(block, words)
                continue

            close_block()
            keyword = words[0]
            if keyword == "net":
                if saw_statement:
                    raise _WordError(0, "net header must come first")
                if len(words) != 2 or not IDENT_RE.match(words[1]):
                    raise _WordError(0, "expected: net <identifier>")
                name = words[1]
            elif keyword == "var":
                v = _parse_var(words, by_name)
                variables.append(v)
                by_name[v.name] = v
            elif keyword == "cpt":
                block = _open_cpt(words, (raw, lineno), by_name, tabled, rows)
            else:
                raise _WordError(0, f"unknown statement {keyword!r}")
            saw_statement = True
        except _WordError as e:
            i, message = e.args
            raise ParseError(_span(raw, lineno, i), message) from None

    close_block()
    return Network(variables, stacked_cpts(cpts, rows), name=name)


def _parse_var(words: list[str], by_name: dict[str, Variable]) -> Variable:
    if len(words) < 2 or not IDENT_RE.match(words[1]):
        raise _WordError(0, "expected: var <name> : <state> <state> ...")
    name = words[1]
    if name in by_name:
        raise _WordError(1, f"duplicate variable {name!r}")
    if len(words) < 3 or words[2] != ":":
        raise _WordError(1, "expected ':' after variable name")
    states = words[3:]
    if len(states) < 2:
        raise _WordError(1, "a variable needs at least 2 states")
    seen: set[str] = set()
    for i, s in enumerate(states, start=3):
        if not LABEL_RE.match(s):
            raise _WordError(i, f"bad state label {s!r}")
        if s in seen:
            raise _WordError(i, f"duplicate state label {s!r}")
        seen.add(s)
    return Variable(name, tuple(states))


def _open_cpt(
    words: list[str], header: tuple[str, int], by_name: dict[str, Variable], tabled: set[str],
    rows: dict[int, array],
) -> _CptBlock:
    if len(words) < 2:
        raise _WordError(0, "expected: cpt <child> [| <parents>] :")
    child = words[1]
    if child not in by_name:
        raise _WordError(1, f"unknown variable {child!r}")
    if child in tabled:
        raise _WordError(1, f"duplicate cpt for {child!r}")
    if words[-1] != ":":
        raise _WordError(len(words) - 1, "cpt statement must end with ':'")
    middle = words[2:-1]
    parents: list[Variable] = []
    if middle:
        if middle[0] != "|":
            raise _WordError(2, "expected '|' before parent list")
        seen: set[str] = set()
        for i, t in enumerate(middle[1:], start=3):
            if t not in by_name:
                raise _WordError(i, f"unknown variable {t!r}")
            if t in seen:
                raise _WordError(i, f"duplicate parent {t!r}")
            seen.add(t)
            parents.append(by_name[t])
        if not parents:
            raise _WordError(2, "parent list after '|' is empty")
    card = by_name[child].card
    return _CptBlock(header, by_name[child], parents, rows.setdefault(card, array("d")))


def _parse_row(block: _CptBlock, words: list[str]) -> None:
    """Add a row's probabilities to `block`.  The common case is screened
    with whole-row tests; any row that fails them is walked word by word,
    in the order of the checks, so that the walk alone picks the message."""
    k = block.child.card
    n = len(block.parents)
    if n and (len(words) <= n or words[n] != ":" or words[:n] != block.labels[block.n_rows]):
        _check_config(block, words)
    probs = words[n + 1 :] if n else words
    if len(probs) != k:
        raise _WordError(0, f"expected {k} probabilities, got {len(probs)}")
    try:
        row = [float(t) for t in probs]
    except ValueError:
        row = []
    total = sum(row)
    # NaN and inf fail the sum test, so a row that passes all three is finite
    if not (row and min(row) >= 0.0 and max(row) <= 1.0 and abs(total - 1.0) <= 1e-6):
        for i, t in enumerate(probs, start=len(words) - k):
            _parse_prob(t, i)
        raise _WordError(0, f"row sum is {total:.9g}, not 1")
    if abs(total - 1.0) > _CERTIFIED_TOL:
        block.certified = False
    block.flat.fromlist(row)
    block.n_rows += 1


def _check_config(block: _CptBlock, words: list[str]) -> None:
    """Raise the error of a row whose parent states are not the next
    configuration's labels followed by ':'."""
    if ":" not in words:
        raise _WordError(0, "expected '<parent states> : <probabilities>'")
    sep = words.index(":")
    if sep != len(block.parents):
        raise _WordError(0, f"expected {len(block.parents)} parent states before ':'")
    for i, (parent, t) in enumerate(zip(block.parents, words)):
        if t not in parent.states:
            raise _WordError(i, f"unknown state {t!r} of {parent.name}")
    if words[:sep] != block.labels[block.n_rows]:  # state labels are distinct
        raise _WordError(
            0,
            f"configuration out of order: expected "
            f"{block.describe_config(block.n_rows)!r}",
        )


@functools.lru_cache(maxsize=1024)
def _template(labels: tuple, width: int) -> str:
    """The `%` template of a table's rows below parents of state labels
    `labels`, one line per parent configuration and none without one, each
    entry to 12 significant digits (`%.12g`, as `format(p, ".12g")`)."""
    probs = " ".join(["%.12g"] * width)
    if not labels:
        return "  " + probs
    return "".join(f"\n  {' '.join(config).replace('%', '%%')} : {probs}"
                   for config in itertools.product(*labels))


def serialize(net: Network) -> str:
    """Canonical text form; parse(serialize(net)) is structurally equal to
    net (tables compared within 1e-9).  A root's table is written as its
    first row; any other table as one row per parent configuration."""
    lines: list[str] = []
    if net.name:
        lines.append(f"net {net.name}")
    for v in net.variables:
        lines.append(f"var {v.name} : {' '.join(v.states)}")
    for v in net.variables:
        cpt = net.cpts[v.name]
        if cpt.parents:
            labels = tuple(net.variable(p).states for p in cpt.parents)
            n_rows = math.prod(map(len, labels))
            if cpt.n_rows < n_rows:  # no row for a configuration
                raise IndexError("list index out of range")
            rows = cpt.table[:n_rows].ravel().tolist()  # Python floats format faster
            lines.append(f"cpt {v.name} | {' '.join(cpt.parents)} :"
                         + _template(labels, cpt.n_states) % tuple(rows))
        else:
            lines.append(f"cpt {v.name} :")
            lines.append(_template((), cpt.n_states) % tuple(cpt.table[0].tolist()))
    return "\n".join(lines) + "\n"


def structurally_equal(a: Network, b: Network, tol: float = 1e-9) -> bool:
    """Same name, variables, states, and parent lists; tables within tol."""
    import numpy as np

    if a.name != b.name or a.var_names() != b.var_names():
        return False
    for va, vb in zip(a.variables, b.variables):
        if va.states != vb.states:
            return False
    for v in a.variables:
        ca, cb = a.cpts.get(v.name), b.cpts.get(v.name)
        if (ca is None) != (cb is None):
            return False
        if ca is None:
            continue
        if ca.parents != cb.parents or ca.table.shape != cb.table.shape:
            return False
        if np.max(np.abs(ca.table - cb.table)) > tol:
            return False
    return True


def parse_evidence(tokens: list[str], net: Network) -> Evidence:
    """Resolve 'Var=state' command-line tokens against a network."""
    evidence: Evidence = {}
    for tok in tokens:
        var, eq, label = tok.partition("=")
        if not eq or not var or not label:
            raise ValueError(f"bad evidence {tok!r}, expected Var=state")
        if var not in net.vars_by_name:
            raise ValueError(f"unknown variable {var!r}")
        states = net.variable(var).states
        if label not in states:
            raise ValueError(f"unknown state {label!r} of variable {var!r}")
        if var in evidence:
            raise ValueError(f"duplicate evidence for variable {var!r}")
        evidence[var] = states.index(label)
    return evidence
