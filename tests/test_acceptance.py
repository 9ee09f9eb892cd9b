"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`)."""

import itertools
import math
import random
import time

import numpy as np
import pytest

from beliefprop.conditioning import auto_infer, infer_conditioned
from beliefprop.cutset import greedy_cutset, is_valid_cutset
from beliefprop.dsep import blocking_nodes, d_separated, list_paths
from beliefprop.model import validate
from beliefprop.netformat import parse, serialize, structurally_equal
from beliefprop.oracle import (
    oracle_conditional_independence,
    oracle_evidence_probability,
    oracle_marginal,
    oracle_posteriors,
)
from beliefprop.polytree import (
    LinkParameters,
    fuse_belief,
    init_messages,
    propagate,
    update_lambda_to_parent,
    update_pi_to_child,
)

from helpers import (
    build_net,
    fig1_fixed,
    fig1_net,
    random_loopy,
    random_polytree,
)
from test_cli import CHAIN, DETERMINISTIC, FIG1, cli
from test_conditioning import premixed_network

N_POLYTREES = 200
N_LOOPY = 100


def report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def polytree_fixpoints():
    start = time.perf_counter()
    out = []
    for seed in range(N_POLYTREES):
        net, evidence = random_polytree(seed)
        state, stats = propagate(net, evidence)
        out.append((net, evidence, state, stats))
    return out, time.perf_counter() - start


def test_c01_polytree_exactness(polytree_fixpoints):
    fixpoints, build_time = polytree_fixpoints
    start = time.perf_counter()
    worst = 0.0
    for net, evidence, state, _ in fixpoints:
        truth = oracle_posteriors(net, evidence)
        for q in net.var_names():
            err = np.max(np.abs(fuse_belief(net, state, q) - truth[q]))
            worst = max(worst, err)
    elapsed = build_time + time.perf_counter() - start
    assert worst <= 1e-9, f"max belief error {worst:.3e}"
    assert elapsed <= 10.0, f"generate+propagate+verify took {elapsed:.1f}s"
    report(1, "polytree exactness",
           f"{N_POLYTREES} nets, max err {worst:.2e}, {elapsed:.1f}s")


def test_c02_conditioning_exactness():
    start = time.perf_counter()
    worst_belief = worst_pd = 0.0
    for seed in range(N_LOOPY):
        net, evidence = random_loopy(seed)
        members = greedy_cutset(net)
        queries = net.var_names()
        mixed, _ = infer_conditioned(net, evidence, members, queries)
        truth = oracle_posteriors(net, evidence)
        for q in queries:
            err = np.max(np.abs(mixed.beliefs[q] - truth[q]))
            worst_belief = max(worst_belief, err)
        pd_err = abs(
            math.exp(mixed.log_likelihood) - oracle_evidence_probability(net, evidence)
        )
        worst_pd = max(worst_pd, pd_err)
    elapsed = time.perf_counter() - start
    assert worst_belief <= 1e-9, f"max belief error {worst_belief:.3e}"
    assert worst_pd <= 1e-9, f"max P(D) error {worst_pd:.3e}"
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    report(2, "conditioning exactness",
           f"{N_LOOPY} nets, max belief err {worst_belief:.2e}, "
           f"max P(D) err {worst_pd:.2e}, {elapsed:.1f}s")


def test_c03_fig1_reference_checks():
    net = fig1_net()
    assert d_separated(net, "x2", "x3", {"x1"})
    assert d_separated(net, "x2", "x3", {"x1", "x4"})
    assert not d_separated(net, "x2", "x3", {"x1", "x6"})
    assert is_valid_cutset(net, {"x1"})
    assert is_valid_cutset(net, {"x2"})
    assert not is_valid_cutset(net, {"x5"})
    report(3, "fig1 separation and cutset checks")


def test_c04_diameter_convergence(polytree_fixpoints):
    worst_ratio = 0.0
    for net, _, _, stats in polytree_fixpoints[0]:
        d = net.underlying_diameter()
        assert stats.sweeps <= 2 * d + 2, (
            f"{stats.sweeps} sweeps on diameter-{d} net"
        )
        worst_ratio = max(worst_ratio, stats.sweeps / max(d, 1))
    report(4, "diameter-bounded convergence",
           f"max sweeps/diameter ratio {worst_ratio:.2f}")


def test_c05_orthogonality():
    rng = random.Random(99)
    nprng = np.random.default_rng(99)
    nets = [random_polytree(1000 + i, max_nodes=8)[0] for i in range(50)]

    def randomized_state(net):
        state = init_messages(net, {})
        for arc in state.messages:
            k = net.card(arc[0])
            pi = nprng.random(k)
            lam = nprng.random(k)
            state.messages[arc] = LinkParameters(pi / pi.sum(), lam / lam.sum())
        return state

    checked = 0
    while checked < 1000:
        net = nets[rng.randrange(len(nets))]
        arcs = list(net.edges())
        if not arcs:
            continue
        state = randomized_state(net)
        p, c = arcs[rng.randrange(len(arcs))]
        lam_before = update_lambda_to_parent(net, state, c, p)
        pi_before = update_pi_to_child(net, state, p, c)
        noise_pi = nprng.random(net.card(p))
        noise_lam = nprng.random(net.card(p))
        state.messages[(p, c)] = LinkParameters(
            noise_pi / noise_pi.sum(), noise_lam / noise_lam.sum()
        )
        assert np.array_equal(lam_before, update_lambda_to_parent(net, state, c, p))
        assert np.array_equal(pi_before, update_pi_to_child(net, state, p, c))
        checked += 1
    report(5, "pi/lambda orthogonality", f"{checked} randomized states, bitwise")


def test_c06_schedule_independence(polytree_fixpoints):
    worst = worst_log_p = 0.0
    for net, evidence, sync_state, _ in polytree_fixpoints[0]:
        sync_beliefs = {q: fuse_belief(net, sync_state, q) for q in net.var_names()}
        two_pass_state, two_pass_stats = propagate(net, evidence, schedule="two-pass")
        states = [two_pass_state] + [
            propagate(net, evidence, schedule="fair-random", seed=seed)[0]
            for seed in range(20)
        ]
        for state in states:
            for q in net.var_names():
                err = np.max(np.abs(fuse_belief(net, state, q) - sync_beliefs[q]))
                worst = max(worst, err)
        truth = math.log(oracle_evidence_probability(net, evidence))
        worst_log_p = max(worst_log_p, abs(two_pass_stats.log_likelihood - truth))
    assert worst <= 1e-9, f"max schedule disagreement {worst:.3e}"
    assert worst_log_p <= 1e-9, f"max two-pass log P(e) error {worst_log_p:.3e}"
    report(6, "schedule independence",
           f"two-pass + 20 seeds x {N_POLYTREES} nets, max {worst:.2e}, "
           f"log P(e) max err {worst_log_p:.2e}")


def test_c07_explaining_away():
    # two marginally independent causes, noisy-OR effect
    priors = [[0.9, 0.1]]
    activation, leak = 0.8, 0.01

    def p_effect(c1, c2):
        q = (1 - leak) * (1 - activation) ** (c1 + c2)
        return [q, 1 - q]

    net = build_net(
        [("cause1", ("f", "t")), ("cause2", ("f", "t")), ("effect", ("f", "t"))],
        [
            ("cause1", (), priors),
            ("cause2", (), priors),
            ("effect", ("cause1", "cause2"),
             [p_effect(c1, c2) for c1 in (0, 1) for c2 in (0, 1)]),
        ],
    )
    assert oracle_conditional_independence(net, "cause1", "cause2", set())

    def engine(evidence):
        return auto_infer(net, evidence, ["cause1"]).beliefs["cause1"][1]

    def oracle(evidence):
        return oracle_marginal(net, evidence, "cause1")[1]

    for bel in (engine, oracle):
        alone = bel({"effect": 1})
        explained = bel({"effect": 1, "cause2": 1})
        assert explained < alone, (alone, explained)
    report(7, "explaining away",
           f"engine {engine({'effect': 1, 'cause2': 1}):.4f} < {engine({'effect': 1}):.4f}")


def test_c08_separate_then_average_regression():
    net = fig1_fixed()
    evidence = {"x6": 1}
    truth = oracle_marginal(net, evidence, "x2")

    wrong_net = premixed_network(net, "x1")
    state, _ = propagate(wrong_net, evidence)
    premix_gap = np.max(np.abs(fuse_belief(wrong_net, state, "x2") - truth))
    assert premix_gap > 1e-3, f"pre-mixing off by only {premix_gap:.2e}"

    mixed = auto_infer(net, evidence, ["x2"])
    per_run_gap = np.max(np.abs(mixed.beliefs["x2"] - truth))
    assert per_run_gap <= 1e-9, f"per-run mixing off by {per_run_gap:.2e}"
    report(8, "separate-then-average regression",
           f"pre-mix gap {premix_gap:.2e} vs per-run gap {per_run_gap:.2e}")


def test_c09_d_separation_soundness():
    checked = 0
    for seed in range(50):
        net, _ = random_loopy(seed + 500, max_nodes=9, min_nodes=4, max_evidence=0)
        names = net.var_names()
        for i, x in enumerate(names):
            for y in names[i + 1 :]:
                paths = list_paths(net, x, y)
                rest = [n for n in names if n not in (x, y)]
                for r in range(len(rest) + 1):
                    for s in itertools.combinations(rest, r):
                        s = set(s)
                        if all(blocking_nodes(net, p, s) for p in paths):
                            assert oracle_conditional_independence(net, x, y, s, 1e-9), (
                                seed, x, y, s,
                            )
                            checked += 1
    report(9, "d-separation soundness", f"{checked} separated triples vs oracle")


def test_c10_format_and_cli():
    # round-trip every fixture
    for path in (CHAIN, FIG1, DETERMINISTIC):
        with open(path, encoding="utf-8") as fh:
            net = parse(fh.read())
        assert validate(net) == []
        assert structurally_equal(net, parse(serialize(net)))

    # golden outputs: byte-identical across methods and repeated runs
    golden = "BEL(A) f=0.658537 t=0.341463\n"
    for method in ("auto", "polytree", "conditioning", "exact"):
        code, out, _ = cli("infer", CHAIN, "-e", "B=f", "--method", method)
        assert (code, out) == (0, golden), method
    for method in ("auto", "conditioning", "exact"):
        runs = {cli("infer", FIG1, "-e", "x6=1", "--method", method) for _ in range(2)}
        assert len(runs) == 1
    methods_out = {
        cli("infer", FIG1, "-e", "x6=1", "--method", m)[1]
        for m in ("auto", "conditioning", "exact")
    }
    assert len(methods_out) == 1

    # documented exit codes on crafted bad inputs
    assert cli("infer", CHAIN, "-e", "B=maybe")[0] == 1          # usage
    assert cli("infer", FIG1, "--method", "polytree")[0] == 1    # loops refused
    assert cli("validate", "missing.bn")[0] == 1
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.bn")
        with open(bad, "w") as fh:
            fh.write("var A : f t\ncpt A :\n  0.7 0.7\n")
        assert cli("validate", bad)[0] == 2                      # parse error
        cyclic = os.path.join(tmp, "cyclic.bn")
        with open(cyclic, "w") as fh:
            fh.write(
                "var A : f t\nvar B : f t\n"
                "cpt A | B :\n  f : 0.5 0.5\n  t : 0.5 0.5\n"
                "cpt B | A :\n  f : 0.5 0.5\n  t : 0.5 0.5\n"
            )
        assert cli("validate", cyclic)[0] == 3                   # validation
    assert cli("infer", DETERMINISTIC, "-e", "A=f", "-e", "B=t")[0] == 4
    report(10, "format round-trip, golden CLI output, exit codes")
