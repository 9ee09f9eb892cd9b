"""Structural differential fuzz: small networks built directly, with loops
or without, zeros and deterministic rows in the tables, evidence that may be
impossible and queries that may be observed.  Every inference route must
agree with the enumeration oracle and with the others.  Above the oracle's
state-space guard, hubbed loopy networks with up to 1,024 cutset cases are
checked against the benchmark's variable elimination instead."""

import io
import math
import random
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beliefprop.cli import run
from beliefprop.conditioning import auto_infer
from beliefprop.cutset import greedy_cutset
from beliefprop.errors import ImpossibleEvidenceError
from beliefprop.netformat import parse, serialize
from beliefprop.oracle import STATE_SPACE_GUARD, oracle_infer
from beliefprop.polytree import propagate

from helpers import build_net

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import netgen  # noqa: E402
import refinfer  # noqa: E402

DIFFERENTIAL = settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def rows(draw, k):
    """A probability row over k states from small integer weights, so zeros
    and deterministic rows are common."""
    weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    weights[draw(st.integers(0, k - 1))] += 1
    return [w / sum(weights) for w in weights]


@st.composite
def cases(draw):
    """(network, evidence, queries).  Variable i may only have parents
    declared before it, so the graph is a DAG; a tree case links each
    variable to one earlier one in either direction.  Names are shuffled so
    that the smallest name is any node of its tree."""
    n = draw(st.integers(2, 8))
    names = draw(st.permutations("ABCDEFGH"[:n]))
    cards = draw(st.lists(st.sampled_from((2, 3)), min_size=n, max_size=n))
    parents = {i: [] for i in range(n)}
    if draw(st.booleans()):
        for i in range(1, n):
            j = draw(st.integers(0, i - 1))
            if draw(st.booleans()):
                parents[i].append(j)
            else:
                parents[j].append(i)
    else:
        for i in range(1, n):
            parents[i] = draw(st.lists(st.integers(0, i - 1), max_size=3, unique=True))
    var_defs = [(names[i], [f"s{k}" for k in range(cards[i])]) for i in range(n)]
    cpt_defs = []
    for i in range(n):
        n_rows = math.prod(cards[p] for p in parents[i])
        table = [draw(rows(cards[i])) for _ in range(n_rows)]
        cpt_defs.append((names[i], [names[p] for p in parents[i]], table))
    net = parse(serialize(build_net(var_defs, cpt_defs)))
    observed = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    evidence = {names[i]: draw(st.integers(0, cards[i] - 1)) for i in observed}
    queries = draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
    return net, evidence, queries


def cli_infer(path, net, evidence, queries, method):
    argv = ["infer", str(path), "--method", method, "--likelihood"]
    for v, s in evidence.items():
        argv += ["-e", f"{v}={net.variable(v).states[s]}"]
    for q in queries:
        argv += ["-q", q]
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue().splitlines()


@DIFFERENTIAL
@given(case=cases())
def test_every_route_agrees_with_the_oracle(tmp_path, case):
    net, evidence, queries = case
    path = tmp_path / "net.bn"
    path.write_text(serialize(net), encoding="utf-8")
    methods = ["auto", "conditioning", "exact"]
    if net.is_singly_connected():
        methods.append("polytree")

    # the CLI: one exit code and one set of belief lines; P(e) may differ
    # between `exact` and the engines in its 12th significant digit
    results = {m: cli_infer(path, net, evidence, queries, m) for m in methods}
    (code, lines), *others = results.values()
    assert code in (0, 4)
    for other_code, other_lines in others:
        assert other_code == code
        assert other_lines[:-1] == lines[:-1]
        if code == 0:
            p_e = Decimal(lines[-1].removeprefix("P(e) = "))
            other = Decimal(other_lines[-1].removeprefix("P(e) = "))
            assert abs(other - p_e) <= Decimal("1e-11") * p_e

    # the API, against the oracle
    asked = queries or net.var_names()
    try:
        truth, p_e = oracle_infer(net, evidence, asked)
    except ImpossibleEvidenceError:
        assert code == 4
        with pytest.raises(ImpossibleEvidenceError):
            auto_infer(net, evidence, asked)
        return
    assert code == 0
    mixed = auto_infer(net, evidence, asked)
    assert mixed.log_likelihood == pytest.approx(math.log(p_e), abs=1e-9)
    for q in asked:
        np.testing.assert_allclose(mixed.beliefs[q], truth[q], rtol=0, atol=1e-9)

    # the three schedules, on a forest: one fixpoint
    if net.is_singly_connected():
        states = [
            propagate(net, evidence, schedule=s)[0]
            for s in ("two-pass", "synchronous", "fair-random")
        ]
        for arc, link in states[0].messages.items():
            for state in states[1:]:
                np.testing.assert_allclose(state.messages[arc].pi, link.pi, rtol=0, atol=1e-9)
                np.testing.assert_allclose(state.messages[arc].lam, link.lam, rtol=0, atol=1e-9)


@pytest.mark.parametrize("member_observed", [False, True], ids=["free", "member-observed"])
@pytest.mark.parametrize("loops", range(3, 11))
def test_above_the_guard_matches_elimination(loops, member_observed):
    """Binary hubbed networks with 8 to 1,024 cutset cases, against
    variable elimination to 1e-9 on beliefs and log P(e)."""
    rng = random.Random(f"above-guard/{loops}")
    net = netgen.hubbed_loopy(rng, 30 + 3 * loops, 2, loops)
    assert math.prod(v.card for v in net.variables) > STATE_SPACE_GUARD
    members = greedy_cutset(net)
    assert len(members) == loops
    evidence = netgen.loopy_evidence(rng, net, loops, 0.1)  # observes one member
    if not member_observed:
        evidence = {v: s for v, s in evidence.items() if v not in members}
    assert sum(m in evidence for m in members) == member_observed
    queries = [v for v in net.var_names() if v not in evidence]

    mixed = auto_infer(net, evidence, queries)
    truth, log_p = refinfer.Reference(net).answer(evidence, queries)
    assert mixed.log_likelihood == pytest.approx(log_p, abs=1e-9)
    for q in queries:
        np.testing.assert_allclose(mixed.beliefs[q], truth[q], rtol=0, atol=1e-9)


@st.composite
def long_chains(draw):
    """(network, evidence, queries): a benchmark chain of 400 to 1,100
    variables with 2 to 4 states, every tenth variable observed or none,
    and a few unobserved queries, the last variable among them."""
    n = draw(st.integers(400, 1100))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    net = netgen.chain(rng, n, max_card=draw(st.integers(2, 4)))
    evidence = netgen.chain_evidence(rng, net, 0.1) if draw(st.booleans()) else {}
    free = [v for v in net.var_names() if v not in evidence]
    picked = draw(st.lists(st.integers(0, len(free) - 1), min_size=1, max_size=6, unique=True))
    return net, evidence, sorted({free[i] for i in picked} | {free[-1]})


@settings(DIFFERENTIAL, max_examples=10)
@given(case=long_chains())
def test_long_chains_match_elimination(case):
    """Chains far above the oracle's guard, whose single-message runs are
    relaxed in rounds, against variable elimination to 1e-9."""
    net, evidence, queries = case
    assert math.prod(v.card for v in net.variables) > STATE_SPACE_GUARD
    mixed = auto_infer(net, evidence, net.var_names())
    truth, log_p = refinfer.Reference(net).answer(evidence, queries)
    assert mixed.log_likelihood == pytest.approx(log_p, abs=1e-9)
    for q in queries:
        np.testing.assert_allclose(mixed.beliefs[q], truth[q], rtol=0, atol=1e-9)
