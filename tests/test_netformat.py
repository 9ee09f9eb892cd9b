import itertools
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefprop.model import validate
from beliefprop.netformat import (
    ParseError,
    parse,
    parse_evidence,
    serialize,
    structurally_equal,
)

from helpers import build_net, chain_net, random_polytree

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import netgen  # noqa: E402

MINIMAL = "var A : f t\ncpt A :\n  0.3 0.7\n"

CHAIN = """\
net chain
var A : f t
var B : f t

cpt A :
  0.3 0.7
cpt B | A :
  f : 0.9 0.1
  t : 0.2 0.8
"""


def err(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse(text)
    return info.value


class TestParse:
    def test_minimal(self):
        net = parse(MINIMAL)
        assert net.var_names() == ["A"]
        assert net.variable("A").states == ("f", "t")
        np.testing.assert_allclose(net.cpts["A"].table, [[0.3, 0.7]])
        assert validate(net) == []

    def test_chain(self):
        net = parse(CHAIN)
        assert net.name == "chain"
        assert net.parents("B") == ("A",)
        np.testing.assert_allclose(net.cpts["B"].table, [[0.9, 0.1], [0.2, 0.8]])

    def test_comments_blanks_crlf(self):
        text = CHAIN.replace("\n", "  # a comment\r\n") + "\r\n\r\n"
        assert structurally_equal(parse(text), parse(CHAIN))

    def test_row_sum_error(self):
        e = err("var A : f t\ncpt A :\n  0.5 0.6\n")
        assert "row sum" in str(e)
        assert e.span.line == 3

    def test_missing_configuration(self):
        e = err("var A : f t\nvar B : f t\ncpt B | A :\n  f : 0.9 0.1\n")
        assert "missing configuration" in e.message
        assert e.span.line == 3  # the cpt header

    def test_out_of_order_configuration(self):
        e = err(
            "var A : f t\nvar B : f t\ncpt B | A :\n  t : 0.9 0.1\n  f : 0.2 0.8\n"
        )
        assert "out of order" in e.message
        assert e.span.line == 4

    def test_unknown_variable_in_cpt(self):
        e = err("var A : f t\ncpt Z :\n  0.5 0.5\n")
        assert "unknown variable 'Z'" in e.message

    def test_unknown_parent(self):
        e = err("var A : f t\nvar B : f t\ncpt B | Q :\n  f : 0.5 0.5\n")
        assert "unknown variable 'Q'" in e.message

    def test_unknown_state_in_row(self):
        e = err("var A : f t\nvar B : f t\ncpt B | A :\n  x : 0.9 0.1\n")
        assert "unknown state 'x'" in e.message
        assert e.span.line == 4 and e.span.column == 3

    def test_duplicate_var(self):
        e = err("var A : f t\nvar A : f t\n")
        assert "duplicate variable" in e.message
        assert e.span.line == 2

    def test_duplicate_cpt(self):
        e = err("var A : f t\ncpt A :\n  0.5 0.5\ncpt A :\n  0.4 0.6\n")
        assert "duplicate cpt" in e.message

    def test_duplicate_state(self):
        assert "duplicate state" in err("var A : f f\n").message

    def test_single_state_var(self):
        assert "at least 2 states" in err("var A : f\n").message

    def test_malformed_number(self):
        e = err("var A : f t\ncpt A :\n  0.5 zebra\n")
        assert "malformed number" in e.message
        assert e.span.line == 3 and e.span.column == 7

    def test_probability_out_of_range(self):
        assert "outside" in err("var A : f t\ncpt A :\n  1.5 -0.5\n").message

    def test_too_many_rows(self):
        e = err("var A : f t\ncpt A :\n  0.5 0.5\n  0.4 0.6\n")
        assert "too many rows" in e.message

    def test_row_outside_cpt(self):
        assert "row outside" in err("  0.5 0.5\n").message

    def test_wrong_probability_count(self):
        assert "expected 2 probabilities" in err("var A : f t\ncpt A :\n  0.5\n").message

    def test_net_header_not_first(self):
        assert "must come first" in err("var A : f t\nnet late\n").message

    def test_unknown_statement(self):
        assert "unknown statement" in err("frob A\n").message

    def test_cpt_header_without_child(self):
        e = err("var A : f t\ncpt\n")
        assert str(e) == "2:1: expected: cpt <child> [| <parents>] :"

    def test_near_one_row_is_renormalized(self):
        net = parse("var A : f t\ncpt A :\n  0.3 0.6999995\n")
        assert net.cpts["A"].table.sum() == pytest.approx(1.0, abs=1e-15)

    def test_identifiers_are_case_sensitive(self):
        net = parse(
            "var A : f t\nvar a : f t\ncpt A :\n  0.5 0.5\ncpt a :\n  0.4 0.6\n"
        )
        assert net.var_names() == ["A", "a"]

    def test_cycle_is_left_to_validate(self):
        text = (
            "var A : f t\nvar B : f t\n"
            "cpt A | B :\n  f : 0.5 0.5\n  t : 0.5 0.5\n"
            "cpt B | A :\n  f : 0.5 0.5\n  t : 0.5 0.5\n"
        )
        net = parse(text)  # grammatically fine
        assert any("cycle" in p for p in validate(net))

    def test_spans_point_inside_the_line(self):
        bad = [
            "var A : f t\ncpt A :\n  0.5 0.6\n",
            "var A : f t\nvar A : f t\n",
            "var A : f t\ncpt A :\n  0.5 oops\n",
            "frob\n",
        ]
        for text in bad:
            e = err(text)
            line = text.splitlines()[e.span.line - 1]
            assert 1 <= e.span.column <= len(line) + 1


class TestSerialize:
    def test_canonical_form(self):
        out = serialize(parse(MINIMAL))
        assert "var A : f t" in out
        assert out.endswith("\n")

    def test_chain_structure(self):
        out = serialize(parse(CHAIN))
        assert "cpt B | A :" in out
        block = out.split("cpt B | A :\n", 1)[1]
        assert block.splitlines()[0].startswith("  f : ")
        assert block.splitlines()[1].startswith("  t : ")

    def test_round_trip(self):
        first = parse(CHAIN)
        again = parse(serialize(first))
        assert structurally_equal(first, again)

    def test_round_trip_is_stable(self):
        first = parse(serialize(parse(CHAIN)))
        second = parse(serialize(first))
        assert structurally_equal(first, second)


def serialize_by_rows(net) -> str:
    """`serialize` as it was first written, one `format` call per entry and
    one join per row: the reference its table templates must match byte
    for byte."""
    lines = [f"net {net.name}"] if net.name else []
    lines += [f"var {v.name} : {' '.join(v.states)}" for v in net.variables]
    for v in net.variables:
        cpt = net.cpts[v.name]
        if cpt.parents:
            lines.append(f"cpt {v.name} | {' '.join(cpt.parents)} :")
            parent_vars = [net.variable(p) for p in cpt.parents]
            rows = cpt.table.tolist()
            for i, config in enumerate(itertools.product(*(range(p.card) for p in parent_vars))):
                labels = " ".join(p.states[s] for p, s in zip(parent_vars, config))
                lines.append(f"  {labels} : {' '.join(format(x, '.12g') for x in rows[i])}")
        else:
            lines.append(f"cpt {v.name} :")
            lines.append("  " + " ".join(format(x, ".12g") for x in cpt.table[0].tolist()))
    return "\n".join(lines) + "\n"


#: entries that format differently: extremes, subnormals, rounding at the
#: 12th digit, and rows a Cpt keeps as they are because it cannot
#: renormalize them
AWKWARD = [0.0, 1.0, 5e-324, 1e-300, 0.1 + 0.2, 0.123456789012345, 2 / 3, 1 / 7 * 1e-5,
           123456789.123456789, -0.0, float("nan"), float("inf"), -2.5]


def awkward_net(seed: int):
    """Roots and tables of 1-4 parents, some state labels made of digits,
    rows drawn at random or from AWKWARD."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(rng.randint(2, 9))]
    variables = [(v, tuple(rng.choice([f"s{k}", str(k)]) for k in range(rng.randint(2, 4))))
                 for v in names]
    cards = {v: len(states) for v, states in variables}
    tables = []
    for i, v in enumerate(names):
        parents = tuple(rng.sample(names[:i], min(i, rng.randint(0, 4))))
        rows = []
        for _ in range(math.prod(cards[p] for p in parents)):
            if rng.random() < 0.4:
                rows.append([rng.choice(AWKWARD) for _ in range(cards[v])])
            else:
                row = [rng.random() ** 3 for _ in range(cards[v])]
                rows.append([x / sum(row) for x in row])
        tables.append((v, parents, rows))
    return build_net(variables, tables, name=rng.choice([None, f"n{seed}"]))


class TestSerializeBytes:
    @pytest.mark.parametrize("seed", range(60))
    def test_same_bytes_as_formatting_each_entry(self, seed):
        net = awkward_net(seed)
        assert serialize(net) == serialize_by_rows(net)

    def test_bench_polytrees(self):
        for i, n in enumerate([200, 270, 400]):
            make = netgen.chain if n == 400 else netgen.bushy_polytree
            net = make(random.Random(f"polytree/1/{i}"), n)
            assert serialize(net) == serialize_by_rows(net)

    def test_a_root_table_of_two_rows_writes_its_first(self):
        net = build_net([("A", "ft")], [("A", (), [[0.3, 0.7], [0.6, 0.4]])])
        assert serialize(net) == serialize_by_rows(net) == "var A : f t\ncpt A :\n  0.3 0.7\n"

    def test_a_table_with_a_row_too_many_writes_one_per_configuration(self):
        net = build_net([("A", "ft"), ("B", "ft")],
                        [("A", (), [[0.3, 0.7]]), ("B", ("A",), [[0.9, 0.1]] * 3)])
        assert serialize(net) == serialize_by_rows(net)

    def test_a_table_missing_a_row_raises_the_same_error(self):
        net = build_net([("A", "abc"), ("B", "ft")],
                        [("A", (), [[0.2, 0.3, 0.5]]), ("B", ("A",), [[0.9, 0.1]] * 2)])
        with pytest.raises(IndexError) as reference:
            serialize_by_rows(net)
        with pytest.raises(IndexError) as info:
            serialize(net)
        assert str(info.value) == str(reference.value)


class TestStructurallyEqual:
    TABLES = [("A", (), [[0.3, 0.7]]), ("B", ("A",), [[0.9, 0.1], [0.2, 0.8]])]

    @pytest.mark.parametrize("variables, tables, name", [
        ([("A", "ft"), ("B", "ft")], TABLES, "other"),
        ([("B", "ft"), ("A", "ft")], TABLES, "chain"),
        ([("A", "ft"), ("B", "fT")], TABLES, "chain"),
        ([("A", "ft"), ("B", "ft")], TABLES[:1], "chain"),
    ])
    def test_a_difference_is_not_equal(self, variables, tables, name):
        # the name, the variable order, a state label, a missing table
        chain = build_net([("A", "ft"), ("B", "ft")], self.TABLES, "chain")
        other = build_net(variables, tables, name)
        assert not structurally_equal(chain, other) and not structurally_equal(other, chain)

    def test_other_parents_of_the_same_shape_are_not_equal(self):
        variables = [("A", "ft"), ("B", "ft"), ("C", "ft")]
        roots = [("A", (), [[0.3, 0.7]]), ("B", (), [[0.4, 0.6]])]
        a, b = (build_net(variables, roots + [("C", (p,), [[0.9, 0.1], [0.2, 0.8]])])
                for p in "AB")
        assert a.cpts["C"].table.shape == b.cpts["C"].table.shape
        assert not structurally_equal(a, b)

    def test_a_table_of_another_shape_is_not_equal(self):
        # one row that would broadcast against two equal rows
        a, b = (build_net([("A", "ft"), ("B", "ft")], [("A", (), [[0.3, 0.7]]), ("B", ("A",), rows)])
                for rows in ([[0.5, 0.5]] * 2, [[0.5, 0.5]]))
        assert not structurally_equal(a, b) and not structurally_equal(b, a)

    @pytest.mark.parametrize("moved, equal", [(2e-9, False), (5e-10, True), (0.0, True)])
    def test_tables_equal_within_tol(self, moved, equal):
        chain = build_net([("A", "ft")], [("A", (), [[0.3, 0.7]])])
        other = build_net([("A", "ft")], [("A", (), [[0.3 + moved, 0.7 - moved]])])
        gap = np.abs(chain.cpts["A"].table - other.cpts["A"].table).max()  # after renormalizing
        assert (gap <= 1e-9) == equal and (gap > 0) == (moved > 0)
        assert structurally_equal(chain, other) == equal


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_random_networks(seed):
    net, _ = random_polytree(seed, max_nodes=8, max_card=3)
    assert structurally_equal(net, parse(serialize(net)))


class TestParseEvidence:
    def test_resolves_labels(self):
        net = parse(MINIMAL)
        assert parse_evidence(["A=t"], net) == {"A": 1}

    def test_unknown_state(self):
        with pytest.raises(ValueError, match="unknown state"):
            parse_evidence(["A=x"], parse(MINIMAL))

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            parse_evidence(["Q=t"], parse(MINIMAL))

    def test_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_evidence(["A=t", "A=f"], parse(MINIMAL))

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="expected Var=state"):
            parse_evidence(["At"], parse(MINIMAL))
