"""A standing parity check of the cold path: `netformat.parse`, then
`model.validate`.

One sha256 digest covers, for every input of a seeded corpus, either the
`ParseError` (message and span) or the parsed network (name, variables
and states, each table's child, parents, shape and bytes) followed by
the `validate` messages.  The corpus is the three fixtures and five
serialized bushy polytrees, each as written and under 40 seeded line
mutations (tokens and rows dropped, repeated or swapped; malformed,
non-finite and out-of-range numbers; wrong parent labels and colons;
comments inside rows; Unicode indentation; CRLF; rows off by 2e-6),
plus tables that only `validate` rejects (negative, NaN, infinite and
zero entries, wrong row and entry counts).  The digest was captured
before the parser stopped building a token object per word; messages and
spans must not move, so it is never updated to follow a change in the
parser or the validator.

The counting tests guard the gain itself: a valid file is parsed
without working out a single span, and a valid network is validated
without walking the rows of any table.

`PYTHONPATH=src python tests/test_parse_parity.py` prints the current digest.
"""

from __future__ import annotations

import hashlib
import random
import sys
import threading
from array import array
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from beliefprop import model, netformat
from beliefprop.model import Cpt, Network, validate
from beliefprop.netformat import ParseError, parse, serialize

from helpers import bushy_polytree

DIGEST = "73e45193e115cb6a255c96eaa369c70aebca36e18ae4e840562ab2d97ec5151a"

FIXTURES = Path(__file__).parent / "fixtures"
MUTATIONS = 40
NUMBERS = ("nan", "inf", "-inf", "1e400", "1e-400", "-0.1", "-0", "1.5", "1_0",
           "\u0663", "0x1p-3", "0.5.", "+0.25", ".5", "1e", "0.3e0")
SPACES = ("\t", "\xa0", "\u2003", "\u3000", " \t")


def _sources():
    """(name, text) of every unmutated input."""
    for path in sorted(FIXTURES.glob("*.bn")):
        yield path.name, path.read_text()
    for seed in range(5):
        yield f"bushy{seed}", serialize(bushy_polytree(seed)[0])


def _split(line: str):
    """A line as (indentation, words, comment or None)."""
    body, hash_, comment = line.partition("#")
    lead = body[: len(body) - len(body.lstrip())]
    return lead, body.split(), comment if hash_ else None


def _join(lead: str, words: list, comment, sep: str = " ") -> str:
    return lead + sep.join(words) + ("" if comment is None else " #" + comment)


def _mutate(text: str, rng: random.Random) -> str:
    """`text` with one seeded line mutation, sometimes with CRLF endings."""
    lines = text.splitlines()
    worded = [i for i, line in enumerate(lines) if _split(line)[1]]
    rows = [i for i in worded if lines[i][:1].isspace()]
    i = rng.choice(worded)
    lead, words, comment = _split(lines[i])
    sep = " "
    kind = rng.randrange(14)
    if kind == 0:  # drop a token
        del words[rng.randrange(len(words))]
    elif kind == 1:  # repeat a token
        j = rng.randrange(len(words))
        words.insert(j, words[j])
    elif kind == 2:  # swap two tokens
        j, k = rng.randrange(len(words)), rng.randrange(len(words))
        words[j], words[k] = words[k], words[j]
    elif kind == 3:  # drop a line
        del lines[i]
        i = None
    elif kind == 4:  # repeat a line
        lines.insert(i, lines[i])
        i = None
    elif kind == 5:  # swap two lines
        k = rng.choice(worded)
        lines[i], lines[k] = lines[k], lines[i]
        i = None
    elif kind == 6:  # a strange number in a row
        i = rng.choice(rows)
        lead, words, comment = _split(lines[i])
        first = words.index(":") + 1 if ":" in words else 0
        for _ in range(rng.choice((1, 1, 2))):
            words[rng.randrange(first, len(words))] = rng.choice(NUMBERS)
    elif kind == 7:  # a wrong or reordered parent label
        i = rng.choice(rows)
        lead, words, comment = _split(lines[i])
        if ":" in words and words.index(":") >= 2 and rng.random() < 0.5:
            colon = words.index(":")
            words[:colon] = words[:colon][::-1]
        elif ":" in words:
            words[rng.randrange(words.index(":") + 1)] = rng.choice(("s0", "s3", "t", "x9", "0"))
    elif kind == 8:  # a missing or an extra ':'
        if ":" in words and rng.random() < 0.5:
            words.remove(":")
        else:
            words.insert(rng.randrange(len(words) + 1), ":")
    elif kind == 9:  # a comment inside a row
        i = rng.choice(rows)
        lead, words, comment = _split(lines[i])
        j = rng.randrange(1, len(words) + 1)
        words[j:] = [("#" if rng.random() < 0.5 else "#x") + " ".join(words[j:])]
    elif kind == 10:  # Unicode or missing indentation, Unicode separators
        lead = rng.choice(SPACES + ("",)) if lead else rng.choice(SPACES)
        sep = rng.choice((" ",) + SPACES)
    elif kind == 11:  # a row sum off by 2e-6, or by less than the tolerance
        i = rng.choice(rows)
        lead, words, comment = _split(lines[i])
        delta = rng.choice((2e-6, -2e-6, 4e-7, -4e-7))
        words[-1] = repr(float(words[-1]) + delta)
    elif kind == 12:  # reordered or unknown parents in a cpt header
        heads = [k for k in worded if lines[k].startswith("cpt")]
        i = rng.choice(heads)
        lead, words, comment = _split(lines[i])
        if "|" in words and len(words) >= 6:
            words[3], words[4] = words[4], words[3]
        else:
            words.insert(len(words) - 1, rng.choice(("|", "nobody", words[1])))
    else:  # a statement changed
        words[0] = rng.choice(("var", "cpt", "net", "Var", "vars"))
    if i is not None:
        lines[i] = _join(lead, words, comment, sep)
    return ("\r\n" if rng.random() < 0.2 else "\n").join(lines) + "\n"


def _broken_tables(net: Network, rng: random.Random):
    """Copies of `net` with one table that only `validate` rejects."""
    for kind in range(8):
        cpt = rng.choice(net.cpt_list)
        table = cpt.table.copy()
        r, c = rng.randrange(table.shape[0]), rng.randrange(table.shape[1])
        if kind == 0:
            table[r, c] = -0.25
        elif kind == 1:
            table[r, c] = np.nan
        elif kind == 2:
            table[r, c] = np.inf
        elif kind == 3:
            table[r] = 0.0
        elif kind == 4:
            table = table[1:] if table.shape[0] > 1 else np.vstack([table, table])
        elif kind == 5:
            table = np.hstack([table, table[:, :1]])
        elif kind == 6:
            table[r, c] += 2e-6
        else:
            table[r, c] = -0.0
        cpts = [Cpt(x.child, x.parents, table) if x is cpt else x for x in net.cpt_list]
        yield Network(net.variables, cpts, name=net.name)


def _record(h, net: Network) -> None:
    h.update(repr((net.name, [(v.name, v.states) for v in net.variables])).encode())
    for cpt in net.cpt_list:
        h.update(repr((cpt.child, cpt.parents, cpt.table.shape)).encode())
        h.update(cpt.table.tobytes())
    h.update("\n".join(validate(net)).encode() + b"\x00")


def parse_digest() -> str:
    h = hashlib.sha256()
    for name, source in _sources():
        rng = random.Random(f"parse-parity/{name}")
        texts = [source] + [_mutate(source, rng) for _ in range(MUTATIONS)]
        for text in texts:
            h.update(name.encode() + b"\x00" + text.encode() + b"\x00")
            try:
                net = parse(text)
            except ParseError as e:
                h.update(f"{e.span.line}:{e.span.column} {e.message}\x00".encode())
                continue
            _record(h, net)
        for net in _broken_tables(parse(source), rng):
            _record(h, net)
    return h.hexdigest()


def test_parse_and_validate_are_unchanged():
    assert parse_digest() == DIGEST


def _counting(monkeypatch, module, name: str) -> list:
    """Replace `module.name` by a wrapper that records each result."""
    results, real = [], getattr(module, name)

    def wrapper(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(module, name, wrapper)
    return results


def test_valid_input_builds_no_span(monkeypatch):
    text = serialize(bushy_polytree(0, 300)[0])
    spans = _counting(monkeypatch, netformat, "_span")
    built = _counting(monkeypatch, netformat, "SourceSpan")
    net = parse(text)
    assert len(net.variables) == 300 and not spans and not built
    with pytest.raises(ParseError) as bad:
        parse(text.replace(" : ", " ; ", 1))
    assert spans == [bad.value.span] and built == spans


def test_valid_network_walks_no_rows(monkeypatch):
    net = bushy_polytree(0, 300)[0]
    screened = _counting(monkeypatch, model, "_rows_pass")
    assert validate(net) == []
    assert screened == [True] * 300
    screened.clear()
    cpts = [Cpt(c.child, c.parents, -c.table) if c.child == "b07" else c for c in net.cpt_list]
    assert len(validate(Network(net.variables, cpts))) == cpts[7].n_rows
    assert screened.count(False) == 1
    screened.clear()
    parsed = parse(serialize(net))  # certified by parse: not even screened
    assert validate(parsed) == [] and not screened
    assert not any("table" in vars(cpt) for cpt in parsed.cpt_list)


def _stacked(tables) -> list[Cpt]:
    """`model.stacked_cpts` over `tables`, a list of 2-D arrays."""
    rows, specs = {}, []
    for i, table in enumerate(tables):
        n_rows, width = table.shape
        rows.setdefault(width, array("d")).extend(table.ravel().tolist())
        specs.append((f"v{i}", [f"p{i}"], n_rows, width, False))
    return model.stacked_cpts(specs, rows)


def test_stacked_tables_are_the_tables_built_one_by_one():
    rng = np.random.default_rng(5)
    tables = []
    for _ in range(400):
        rows, width = int(rng.integers(1, 30)), int(rng.integers(1, 21))
        table = rng.random((rows, width)) ** 3
        table /= table.sum(axis=1, keepdims=True) * (1 + rng.uniform(-2e-6, 2e-6, (rows, 1)))
        spoil = rng.random(table.shape) < 0.02
        table[spoil] = rng.choice([0.0, -0.0, -0.5, 1.5, np.nan, np.inf], spoil.sum())
        tables.append(table)
    for table, cpt in zip(tables, _stacked(tables)):
        alone = Cpt(cpt.child, cpt.parents, table.tolist())
        assert (cpt.n_rows, cpt.n_states) == alone.table.shape == cpt.table.shape
        assert cpt.table.tobytes() == alone.table.tobytes()
        assert not cpt.table.flags.writeable


def _parse_valid_rows(rng: np.random.Generator, n_rows: int, width: int, total: float):
    """`n_rows` rows of `width` entries in [0, 1] whose Python sums are
    `total` to within an ulp or so (None where that cannot be done)."""
    rows = []
    for _ in range(n_rows):
        head = rng.random(width - 1) ** 3
        head *= total * rng.uniform(0.2, 0.95) / max(head.sum(), 1e-300)
        head = head.tolist()
        last = total - sum(head)
        if not 0.0 <= last <= 1.0:
            return None
        rows.append([*head, last])
    return rows


def _text(tables: dict[str, list]) -> str:
    """A network of one child per table below a parent `P` of as many
    states as each table has rows, every float written exactly."""
    n_rows = len(next(iter(tables.values())))
    lines = [f"var P : {' '.join(f'p{r}' for r in range(n_rows))}"]
    lines += [f"var {name} : {' '.join(f's{j}' for j in range(len(rows[0])))}"
              for name, rows in tables.items()]
    lines += ["cpt P :", "  " + " ".join([repr(1 / n_rows)] * n_rows)]
    for name, rows in tables.items():
        lines.append(f"cpt {name} | P :")
        lines += [f"  p{r} : {' '.join(map(repr, row))}" for r, row in enumerate(rows)]
    return "\n".join(lines) + "\n"


def test_certified_tables_would_pass_the_row_screen():
    """Rows at and beside the certification margin (1 +- 5e-7) and the
    parse tolerance (1 +- 1e-6): each certified table passes the numpy row
    screen, and `validate` gives what it gives when every table is
    screened.  From 8 entries on numpy sums a row pairwise, not in order.
    A variable has at least two states, so no parsed table is narrower."""
    rng = np.random.default_rng(23)
    for width in range(2, 41):
        tables = {}
        for base in (1 - 1e-6, 1 - 5e-7, 1 + 5e-7, 1 + 1e-6):
            for ulps in range(-3, 4):
                total = base
                for _ in range(abs(ulps)):
                    total = np.nextafter(total, 2.0 if ulps > 0 else 0.0)
                rows = _parse_valid_rows(rng, 6, width, float(total))
                if rows is not None and all(abs(sum(r) - 1.0) <= 1e-6 for r in rows):
                    tables[f"w{width}_{len(tables)}"] = rows
        net = parse(_text(tables))
        certified = [cpt for cpt in net.cpt_list[1:] if cpt._certified]
        assert 0 < len(certified) < len(tables)
        for cpt in certified:
            assert model._rows_pass(cpt.table)
        shortcut = validate(net)
        for cpt in certified:  # now validate screens every table
            cpt._certified = False
        assert validate(net) == shortcut


def test_lazily_stacked_tables_are_made_once_under_threads(monkeypatch):
    """Eight threads read a parsed network's tables first, at once: the
    tables are made once (one renormalization per row width), every thread
    gets the same objects, and they are the tables built one by one."""
    rng = np.random.default_rng(9)
    tables = {}
    for i in range(120):
        width = int(rng.integers(2, 21))
        rows = _parse_valid_rows(rng, 6, width, 1 + float(rng.uniform(-9e-7, 9e-7)))
        if rows is not None:
            tables[f"c{i}"] = rows
    text = _text(tables)
    widths = len({len(rows[0]) for rows in tables.values()} | {6})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            net = parse(text)
            made = _counting(monkeypatch, model, "_renormalize")
            start = threading.Barrier(8, timeout=30)

            def read(k):
                start.wait()
                return [cpt.table for cpt in net.cpt_list[k::8] + net.cpt_list]

            with ThreadPoolExecutor(8) as pool:
                seen = list(pool.map(read, range(8), timeout=60))
            assert len(made) == widths
            monkeypatch.undo()
            for k, got in enumerate(seen):
                assert all(a is cpt.table for a, cpt in zip(got, net.cpt_list[k::8] + net.cpt_list))
    finally:
        sys.setswitchinterval(interval)
    for cpt in net.cpt_list[1:]:
        alone = Cpt(cpt.child, cpt.parents, tables[cpt.child])
        assert cpt.table.tobytes() == alone.table.tobytes()
        assert not cpt.table.flags.writeable


if __name__ == "__main__":
    print(parse_digest())
