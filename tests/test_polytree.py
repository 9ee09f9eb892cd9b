import gc
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from beliefprop import netformat, polytree
from beliefprop import plan as plan_module
from beliefprop.conditioning import auto_infer, infer_conditioned
from beliefprop.cutset import greedy_cutset
from beliefprop.errors import ConvergenceError, ImpossibleEvidenceError
from beliefprop.model import Network, validate
from beliefprop.oracle import oracle_evidence_probability, oracle_marginal
from beliefprop.polytree import (
    LinkParameters,
    evidence_log_likelihood,
    fuse_belief,
    init_messages,
    link_belief,
    propagate,
    total_causal_support,
    total_diagnostic_support,
    two_pass_plan,
    update_lambda_to_parent,
    update_pi_to_child,
)

from helpers import (
    assert_sent_in_order,
    binary_star,
    build_net,
    bushy_polytree,
    chain_net,
    fig1_net,
    lost_state_net,
    markov_chain,
    random_loopy,
    random_polytree,
    random_table,
)
from test_conditioning import count_calls


def deterministic_chain():
    return build_net(
        [("A", ("f", "t")), ("B", ("f", "t"))],
        [("A", (), [[1.0, 0.0]]), ("B", ("A",), [[1.0, 0.0], [0.0, 1.0]])],
    )


def star_net():
    """Root R with two children S and T (used for sibling-product checks)."""
    return build_net(
        [("R", ("f", "t")), ("S", ("f", "t")), ("T", ("f", "t"))],
        [
            ("R", (), [[0.3, 0.7]]),
            ("S", ("R",), [[0.9, 0.1], [0.2, 0.8]]),
            ("T", ("R",), [[0.6, 0.4], [0.5, 0.5]]),
        ],
    )


# Relaxation traces of random_polytree(41, max_nodes=12) with its evidence
# (8 variables, 3 observed): (sweeps, updates), then every record as
# (sweep, parent, child, direction, old, new).
SYNCHRONOUS_TRACE_41 = (
    (3, 15),
    [
        (1, "n03", "n02", "pi",
         [0.3333333333333333, 0.3333333333333333, 0.3333333333333333],
         [0.5639081500783487, 0.1636642168700249, 0.2724276330516264]),
        (1, "n05", "n01", "pi",
         [0.25, 0.25, 0.25, 0.25],
         [0.1461652652238928, 0.31695757473432895, 0.27166749669176143, 0.2652096633500167]),
        (1, "n05", "n06", "pi",
         [0.25, 0.25, 0.25, 0.25],
         [0.1461652652238928, 0.31695757473432895, 0.27166749669176143, 0.2652096633500167]),
        (1, "n05", "n06", "lambda",
         [0.25, 0.25, 0.25, 0.25],
         [0.21100596313010853, 0.3712853314962719, 0.3062080339490356, 0.1115006714245839]),
        (1, "n07", "n02", "pi",
         [0.25, 0.25, 0.25, 0.25],
         [0.0, 1.0, 0.0, 0.0]),
        (1, "n02", "n00", "pi",
         [0.5, 0.5],
         [1.0, 0.0]),
        (1, "n03", "n02", "lambda",
         [0.3333333333333333, 0.3333333333333333, 0.3333333333333333],
         [0.29674223349924744, 0.3729985257732509, 0.3302592407275018]),
        (1, "n07", "n02", "lambda",
         [0.25, 0.25, 0.25, 0.25],
         [0.25254509961334165, 0.25613408045456876, 0.23646291304421682, 0.25485790688787285]),
        (1, "n00", "n01", "pi",
         [0.3333333333333333, 0.3333333333333333, 0.3333333333333333],
         [0.2300732061212374, 0.27668313696687835, 0.4932436569118843]),
        (1, "n00", "n04", "pi",
         [0.3333333333333333, 0.3333333333333333, 0.3333333333333333],
         [0.2300732061212374, 0.27668313696687835, 0.4932436569118843]),
        (2, "n05", "n01", "pi",
         [0.1461652652238928, 0.31695757473432895, 0.27166749669176143, 0.2652096633500167],
         [0.11804038994207566, 0.4504023570025188, 0.31838015488568844, 0.11317709816971706]),
        (2, "n03", "n02", "lambda",
         [0.29674223349924744, 0.3729985257732509, 0.3302592407275018],
         [0.3537604355388276, 0.3206219192433883, 0.3256176452177841]),
        (2, "n07", "n02", "lambda",
         [0.25254509961334165, 0.25613408045456876, 0.23646291304421682, 0.25485790688787285],
         [0.2189996833178004, 0.27408889041243417, 0.25429660174980157, 0.252614824519964]),
        (2, "n00", "n01", "pi",
         [0.2300732061212374, 0.27668313696687835, 0.4932436569118843],
         [0.41504631453102253, 0.06911062832315745, 0.5158430571458201]),
        (2, "n00", "n04", "pi",
         [0.2300732061212374, 0.27668313696687835, 0.4932436569118843],
         [0.41504631453102253, 0.06911062832315745, 0.5158430571458201]),
    ],
)
FAIR_RANDOM_TRACE_41 = (
    (0, 12),
    [
        (1, "n05", "n06", "lambda",
         [0.25, 0.25, 0.25, 0.25],
         [0.21100596313010853, 0.3712853314962719, 0.3062080339490356, 0.1115006714245839]),
        (2, "n00", "n01", "pi",
         [0.3333333333333333, 0.3333333333333333, 0.3333333333333333],
         [0.2300732061212374, 0.27668313696687835, 0.4932436569118843]),
        (3, "n05", "n06", "pi",
         [0.25, 0.25, 0.25, 0.25],
         [0.1461652652238928, 0.31695757473432895, 0.27166749669176143, 0.2652096633500167]),
        (4, "n02", "n00", "pi",
         [0.5, 0.5],
         [1.0, 0.0]),
        (5, "n00", "n01", "pi",
         [0.2300732061212374, 0.27668313696687835, 0.4932436569118843],
         [0.41504631453102253, 0.06911062832315745, 0.5158430571458201]),
        (6, "n07", "n02", "lambda",
         [0.25, 0.25, 0.25, 0.25],
         [0.25254509961334165, 0.25613408045456876, 0.23646291304421682, 0.25485790688787285]),
        (7, "n05", "n01", "pi",
         [0.25, 0.25, 0.25, 0.25],
         [0.11804038994207566, 0.4504023570025188, 0.31838015488568844, 0.11317709816971706]),
        (8, "n07", "n02", "pi",
         [0.25, 0.25, 0.25, 0.25],
         [0.0, 1.0, 0.0, 0.0]),
        (9, "n03", "n02", "pi",
         [0.3333333333333333, 0.3333333333333333, 0.3333333333333333],
         [0.5639081500783487, 0.1636642168700249, 0.2724276330516264]),
        (10, "n07", "n02", "lambda",
         [0.25254509961334165, 0.25613408045456876, 0.23646291304421682, 0.25485790688787285],
         [0.2189996833178004, 0.27408889041243417, 0.25429660174980157, 0.252614824519964]),
        (11, "n00", "n04", "pi",
         [0.3333333333333333, 0.3333333333333333, 0.3333333333333333],
         [0.41504631453102253, 0.06911062832315745, 0.5158430571458201]),
        (12, "n03", "n02", "lambda",
         [0.3333333333333333, 0.3333333333333333, 0.3333333333333333],
         [0.3537604355388276, 0.3206219192433883, 0.3256176452177841]),
    ],
)


class TestInitMessages:
    def test_all_messages_uniform(self):
        net, _ = random_polytree(1, max_nodes=8)
        state = init_messages(net, {})
        for (p, _), lp in state.messages.items():
            k = net.card(p)
            np.testing.assert_array_equal(lp.pi, np.full(k, 1 / k))
            np.testing.assert_array_equal(lp.lam, np.full(k, 1 / k))

    def test_uniform_vectors_are_shared_and_read_only(self):
        state = init_messages(star_net(), {})
        vectors = {id(v) for lp in state.messages.values() for v in (lp.pi, lp.lam)}
        assert len(vectors) == 1
        lp = next(iter(state.messages.values()))
        with pytest.raises(ValueError, match="read-only"):
            lp.pi[0] = 1.0

    def test_evidence_indicator(self):
        state = init_messages(chain_net(), {"B": 1})
        np.testing.assert_array_equal(state.evidence_factor["B"], [0.0, 1.0])

    def test_single_root_belief_is_prior(self):
        net = build_net([("A", ("f", "t"))], [("A", (), [[0.3, 0.7]])])
        state = init_messages(net, {})
        np.testing.assert_allclose(fuse_belief(net, state, "A"), [0.3, 0.7])

    def test_rejects_loopy_net(self):
        with pytest.raises(ValueError, match="singly connected"):
            init_messages(fig1_net(), {})

    def test_rejects_bad_evidence(self):
        with pytest.raises(ValueError, match="out of range"):
            init_messages(chain_net(), {"B": 7})


class TestTotalCausalSupport:
    def test_chain_marginal(self):
        net = chain_net()
        state = init_messages(net, {})
        state.messages[("A", "B")] = LinkParameters(
            np.array([0.3, 0.7]), state.messages[("A", "B")].lam
        )
        np.testing.assert_allclose(
            total_causal_support(net, state, "B"), [0.41, 0.59], atol=1e-12
        )

    def test_root_gives_prior(self):
        net = chain_net()
        state = init_messages(net, {})
        np.testing.assert_allclose(total_causal_support(net, state, "A"), [0.3, 0.7])

    def test_deterministic_and_with_point_mass_parents(self):
        net = build_net(
            [("U", ("f", "t")), ("V", ("f", "t")), ("T", ("f", "t"))],
            [
                ("U", (), [[0.5, 0.5]]),
                ("V", (), [[0.5, 0.5]]),
                ("T", ("U", "V"), [[1, 0], [1, 0], [1, 0], [0, 1]]),
            ],
        )
        state = init_messages(net, {})
        state.messages[("U", "T")] = LinkParameters(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        state.messages[("V", "T")] = LinkParameters(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        np.testing.assert_array_equal(total_causal_support(net, state, "T"), [0.0, 1.0])


class TestTotalDiagnosticSupport:
    def test_anticipatory_leaf_is_ones(self):
        net = chain_net()
        state = init_messages(net, {})
        np.testing.assert_array_equal(total_diagnostic_support(net, state, "B"), [1, 1])

    def test_evidence_indicator(self):
        net = chain_net()
        state = init_messages(net, {"B": 1})
        np.testing.assert_array_equal(total_diagnostic_support(net, state, "B"), [0, 1])

    def test_two_children_product(self):
        net = star_net()
        state = init_messages(net, {})
        state.messages[("R", "S")] = LinkParameters(
            state.messages[("R", "S")].pi, np.array([0.5, 1.0])
        )
        state.messages[("R", "T")] = LinkParameters(
            state.messages[("R", "T")].pi, np.array([0.4, 0.2])
        )
        np.testing.assert_allclose(
            total_diagnostic_support(net, state, "R"), [0.2, 0.2], atol=1e-15
        )


class TestFuseBelief:
    def test_prior_without_evidence(self):
        net = chain_net()
        state, _ = propagate(net, {})
        np.testing.assert_allclose(fuse_belief(net, state, "A"), [0.3, 0.7], atol=1e-12)

    def test_posterior_with_evidence(self):
        net = chain_net()
        state, _ = propagate(net, {"B": 0})
        bel = fuse_belief(net, state, "A")
        np.testing.assert_allclose(bel, [27 / 41, 14 / 41], atol=1e-9)
        assert f"{bel[0]:.6f} {bel[1]:.6f}" == "0.658537 0.341463"

    def test_instantiated_variable(self):
        net = chain_net()
        state, _ = propagate(net, {"A": 1})
        np.testing.assert_array_equal(fuse_belief(net, state, "A"), [0, 1])

    def test_zero_mass_reports_variable(self):
        net = deterministic_chain()
        state = init_messages(net, {"A": 1})
        with pytest.raises(ImpossibleEvidenceError) as info:
            fuse_belief(net, state, "A")
        assert info.value.variable == "A"

    def test_state_lost_below_double_range_is_zero_mass(self):
        # P(e) = 1e-400, all on r=t; r's diagnostic vector cannot hold
        # both states, so its belief has no mass left
        net = lost_state_net()
        state, stats = propagate(net, {"c0": 0, "c1": 0}, schedule="two-pass")
        assert stats.log_likelihood == pytest.approx(-400 * math.log(10), abs=1e-9)
        message = "^evidence is impossible: belief of r has zero mass$"
        with pytest.raises(ImpossibleEvidenceError, match=message) as info:
            fuse_belief(net, state, "r")
        assert info.value.variable == "r"


class TestLinkBelief:
    def test_uniform_lambda_returns_pi(self):
        net = chain_net()
        state = init_messages(net, {})
        state.messages[("A", "B")] = LinkParameters(
            np.array([0.3, 0.7]), np.array([0.5, 0.5])
        )
        np.testing.assert_allclose(link_belief(state, "A", "B"), [0.3, 0.7])

    def test_uniform_pi_normalizes_lambda(self):
        net = chain_net()
        state = init_messages(net, {})
        state.messages[("A", "B")] = LinkParameters(
            np.array([0.5, 0.5]), np.array([0.9, 0.2])
        )
        got = link_belief(state, "A", "B")
        np.testing.assert_allclose(got, [9 / 11, 2 / 11], atol=1e-12)
        assert f"{got[0]:.6f} {got[1]:.6f}" == "0.818182 0.181818"

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_parent_belief_at_fixpoint(self, seed):
        net, evidence = random_polytree(seed, max_nodes=10)
        if oracle_evidence_probability(net, evidence) == 0:
            evidence = {}
        state, _ = propagate(net, evidence)
        for p, c in net.edges():
            np.testing.assert_allclose(
                link_belief(state, p, c), fuse_belief(net, state, p), atol=1e-9
            )


class TestUpdateLambda:
    def test_no_evidence_below_gives_uniform(self):
        net = chain_net()
        state = init_messages(net, {})
        np.testing.assert_allclose(
            update_lambda_to_parent(net, state, "B", "A"), [0.5, 0.5]
        )

    def test_chain_single_parent(self):
        net = chain_net()
        state = init_messages(net, {"B": 0})
        got = update_lambda_to_parent(net, state, "B", "A")
        np.testing.assert_allclose(got, [9 / 11, 2 / 11], atol=1e-12)

    def test_bitwise_invariant_to_same_link_pi(self):
        rng = np.random.default_rng(42)
        net, evidence = random_polytree(17, max_nodes=10)
        state = init_messages(net, evidence)
        arcs = [e for e in net.edges()]
        for p, c in arcs:
            before = update_lambda_to_parent(net, state, c, p)
            lp = state.messages[(p, c)]
            noise = rng.random(net.card(p))
            state.messages[(p, c)] = LinkParameters(noise / noise.sum(), lp.lam)
            after = update_lambda_to_parent(net, state, c, p)
            np.testing.assert_array_equal(before, after)

    def test_not_a_parent(self):
        with pytest.raises(KeyError):
            update_lambda_to_parent(chain_net(), init_messages(chain_net(), {}), "A", "B")


class TestUpdatePi:
    def test_root_single_child_gets_prior(self):
        net = chain_net()
        state = init_messages(net, {})
        np.testing.assert_allclose(
            update_pi_to_child(net, state, "A", "B"), [0.3, 0.7], atol=1e-15
        )

    def test_sibling_lambda_scales_prior(self):
        net = star_net()
        state = init_messages(net, {})
        state.messages[("R", "T")] = LinkParameters(
            state.messages[("R", "T")].pi, np.array([0.5, 1.0])
        )
        got = update_pi_to_child(net, state, "R", "S")
        np.testing.assert_allclose(got, [3 / 17, 14 / 17], atol=1e-12)
        assert f"{got[0]:.6f} {got[1]:.6f}" == "0.176471 0.823529"

    def test_bitwise_invariant_to_same_link_lambda(self):
        rng = np.random.default_rng(43)
        net, evidence = random_polytree(19, max_nodes=10)
        state = init_messages(net, evidence)
        for p, c in net.edges():
            before = update_pi_to_child(net, state, p, c)
            lp = state.messages[(p, c)]
            noise = rng.random(net.card(p))
            state.messages[(p, c)] = LinkParameters(lp.pi, noise / noise.sum())
            after = update_pi_to_child(net, state, p, c)
            np.testing.assert_array_equal(before, after)

    def test_not_a_child(self):
        with pytest.raises(KeyError):
            update_pi_to_child(chain_net(), init_messages(chain_net(), {}), "B", "A")


def subtree_below(net, p, c):
    """Nodes on the child side of arc p->c in the underlying tree."""
    seen = {p, c}
    stack = [c]
    while stack:
        n = stack.pop()
        for m in net.neighbors(n):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    seen.discard(p)
    return seen


class TestPropagate:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_oracle(self, seed):
        net, evidence = random_polytree(seed, max_nodes=12)
        if oracle_evidence_probability(net, evidence) == 0:
            evidence = {}
        state, stats = propagate(net, evidence)
        for q in net.var_names():
            np.testing.assert_allclose(
                fuse_belief(net, state, q),
                oracle_marginal(net, evidence, q),
                atol=1e-9,
            )

    def test_no_evidence_gives_prior_marginals(self):
        net, _ = random_polytree(5, max_nodes=10)
        state, _ = propagate(net, {})
        for q in net.var_names():
            np.testing.assert_allclose(
                fuse_belief(net, state, q), oracle_marginal(net, {}, q), atol=1e-9
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_sweep_bound(self, seed):
        net, evidence = random_polytree(seed + 100, max_nodes=15)
        if oracle_evidence_probability(net, evidence) == 0:
            evidence = {}
        _, stats = propagate(net, evidence)
        assert stats.sweeps <= 2 * net.underlying_diameter() + 2

    @pytest.mark.parametrize("seed", range(5))
    def test_schedules_agree(self, seed):
        net, evidence = random_polytree(seed + 40, max_nodes=10)
        if oracle_evidence_probability(net, evidence) == 0:
            evidence = {}
        sync_state, _ = propagate(net, evidence, schedule="synchronous")
        for chaos in range(3):
            rand_state, stats = propagate(
                net, evidence, schedule="fair-random", seed=chaos
            )
            assert stats.sweeps == 0
            for q in net.var_names():
                np.testing.assert_allclose(
                    fuse_belief(net, sync_state, q),
                    fuse_belief(net, rand_state, q),
                    atol=1e-9,
                )

    def test_vacuous_subtree_lambda_is_uniform(self):
        for seed in range(10):
            net, evidence = random_polytree(seed + 60, max_nodes=10)
            if oracle_evidence_probability(net, evidence) == 0:
                evidence = {}
            state, _ = propagate(net, evidence)
            for p, c in net.edges():
                if not subtree_below(net, p, c) & set(evidence):
                    k = net.card(p)
                    np.testing.assert_allclose(
                        state.messages[(p, c)].lam, np.full(k, 1 / k), atol=1e-12
                    )

    def test_impossible_evidence_reports_variable(self):
        for schedule in ("synchronous", "fair-random"):
            with pytest.raises(ImpossibleEvidenceError) as info:
                propagate(deterministic_chain(), {"A": 0, "B": 1}, schedule)
            assert str(info.value) == "evidence is impossible: belief of A has zero mass"
            assert info.value.variable == "A"

    @pytest.mark.parametrize("schedule", ["two-pass", "synchronous", "fair-random"])
    def test_loads_the_message_state_once(self, schedule, monkeypatch):
        loads = []
        original = polytree._load
        monkeypatch.setattr(polytree, "_load", lambda *args: loads.append(args) or original(*args))
        propagate(*random_polytree(7), schedule)
        assert len(loads) == 1

    def test_rejects_multiply_connected(self):
        with pytest.raises(ValueError, match="singly connected"):
            propagate(fig1_net(), {})

    def test_rejects_unknown_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            propagate(chain_net(), {}, schedule="chaotic")

    def test_trace_records(self):
        records = []
        propagate(chain_net(), {"B": 0}, on_update=records.append)
        assert records
        assert all(r.direction in ("pi", "lambda") for r in records)
        assert all(len(r.old) == len(r.new) == 2 for r in records)
        sweeps = [r.sweep for r in records]
        assert sweeps == sorted(sweeps)

    def test_two_pass_sends_each_message_once(self, monkeypatch):
        def no_diameter(net):
            raise AssertionError("two-pass must not ask for the diameter")

        monkeypatch.setattr(Network, "underlying_diameter", no_diameter)
        net, evidence = random_polytree(31, max_nodes=14)
        records = []
        state, stats = propagate(
            net, evidence, schedule="two-pass", on_update=records.append
        )
        assert stats.sweeps == 1
        keys = [(r.direction, r.parent, r.child) for r in records]
        assert len(keys) == len(set(keys)) == stats.updates
        assert all(r.sweep == 1 for r in records)
        moved = 0
        for (p, c), lp in state.messages.items():
            uniform = np.full(net.card(p), 1 / net.card(p))
            moved += np.max(np.abs(lp.pi - uniform)) > 1e-12
            moved += np.max(np.abs(lp.lam - uniform)) > 1e-12
            assert np.max(np.abs(update_pi_to_child(net, state, p, c) - lp.pi)) <= 1e-12
            assert np.max(np.abs(update_lambda_to_parent(net, state, c, p) - lp.lam)) <= 1e-12
        assert stats.updates == moved

    def test_fair_random_is_reproducible_across_hash_seeds(self):
        script = (
            "from helpers import random_polytree\n"
            "from beliefprop.polytree import propagate\n"
            "net, evidence = random_polytree(41, max_nodes=12)\n"
            "records = []\n"
            "propagate(net, evidence, schedule='fair-random', seed=3, on_update=records.append)\n"
            "for r in records:\n"
            "    print(r.sweep, r.parent, r.child, r.direction, r.old.tolist(), r.new.tolist())\n"
        )
        here = Path(__file__).parent
        path = os.pathsep.join([str(here.parent / "src"), str(here)])
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] and outputs[0] == outputs[1]


    @pytest.mark.parametrize(
        "schedule, seed, expected",
        [("synchronous", 0, SYNCHRONOUS_TRACE_41), ("fair-random", 3, FAIR_RANDOM_TRACE_41)],
        ids=["synchronous", "fair-random"],
    )
    def test_relaxation_trace_is_pinned(self, schedule, seed, expected):
        net, evidence = random_polytree(41, max_nodes=12)
        records = []
        _, stats = propagate(net, evidence, schedule=schedule, seed=seed, on_update=records.append)
        got = [
            (r.sweep, r.parent, r.child, r.direction, r.old.tolist(), r.new.tolist())
            for r in records
        ]
        assert ((stats.sweeps, stats.updates), got) == expected

    @pytest.mark.parametrize("schedule", ["synchronous", "fair-random", "two-pass"])
    def test_root_with_80_observed_children(self, schedule):
        # one lambda operand per child would exceed einsum's 64 operands
        self.check_observed_star(80, schedule, checked=80)

    def test_root_with_1100_observed_children(self):
        # the product of the children's lambdas falls below 2^-1074; each
        # fuse_belief call loads every message, so check a few children
        self.check_observed_star(1100, "two-pass", checked=3)

    @staticmethod
    def check_observed_star(d, schedule, checked):
        rng = random.Random(d)
        net, prior, tables = binary_star(d, rng)
        evidence = {c: rng.randrange(2) for c in net.children("R")}
        # log P(R, e) and log P(e), in log space
        observed = zip(tables, evidence.values())
        log_joint = np.log(prior) + sum(np.log(t[:, s]) for t, s in observed)
        top = log_joint.max()
        log_p = top + math.log(np.exp(log_joint - top).sum())
        state, stats = propagate(net, evidence, schedule=schedule)
        np.testing.assert_allclose(fuse_belief(net, state, "R"), np.exp(log_joint - log_p), atol=1e-9)
        for c, s in list(evidence.items())[:checked]:
            np.testing.assert_allclose(fuse_belief(net, state, c), np.eye(2)[s], atol=1e-9)
        if schedule == "two-pass":
            assert stats.log_likelihood == pytest.approx(log_p, abs=1e-9)

    def test_two_pass_reports_impossible_evidence_as_none(self):
        net = deterministic_chain()
        state, stats = propagate(net, {"A": 0, "B": 1}, schedule="two-pass")
        assert stats.log_likelihood is None
        with pytest.raises(ImpossibleEvidenceError):
            fuse_belief(net, state, "A")

    def test_fixpoint_is_in_kilter(self):
        net, evidence = random_polytree(77, max_nodes=12)
        if oracle_evidence_probability(net, evidence) == 0:
            evidence = {}
        state, _ = propagate(net, evidence)
        for p, c in net.edges():
            lp = state.messages[(p, c)]
            assert np.max(np.abs(update_pi_to_child(net, state, p, c) - lp.pi)) <= 1e-12
            assert (
                np.max(np.abs(update_lambda_to_parent(net, state, c, p) - lp.lam))
                <= 1e-12
            )


class TestEvidenceLogLikelihood:
    def test_empty_evidence_is_zero(self):
        assert evidence_log_likelihood(chain_net(), {}) == pytest.approx(0.0, abs=1e-12)

    def test_chain_value(self):
        got = evidence_log_likelihood(chain_net(), {"B": 0})
        assert got == pytest.approx(math.log(0.41), abs=1e-12)

    def test_contradiction_returns_none(self):
        assert evidence_log_likelihood(deterministic_chain(), {"A": 0, "B": 1}) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_pivot_independent_and_matches_oracle(self, seed):
        # each tree is rooted at its smallest name; the oracle is root-free
        net, evidence = random_polytree(seed + 200, max_nodes=10)
        truth = oracle_evidence_probability(net, evidence)
        value = evidence_log_likelihood(net, evidence)
        if truth == 0:
            assert value is None
        else:
            assert value == pytest.approx(math.log(truth), abs=1e-9)

    def test_forest_multiplies_components(self):
        net = build_net(
            [("A", ("f", "t")), ("B", ("f", "t")), ("C", ("f", "t"))],
            [
                ("A", (), [[0.3, 0.7]]),
                ("B", ("A",), [[0.9, 0.1], [0.2, 0.8]]),
                ("C", (), [[0.25, 0.75]]),
            ],
        )
        got = evidence_log_likelihood(net, {"B": 0, "C": 1})
        assert got == pytest.approx(math.log(0.41 * 0.75), abs=1e-12)


class TestTwoPassPlan:
    @pytest.mark.parametrize("seed", range(6))
    def test_record_names_every_compiled_rule(self, seed):
        net, _ = random_loopy(seed) if seed % 2 else random_polytree(seed)
        members = greedy_cutset(net)
        plan = two_pass_plan(net, members)
        kept = [(p, c) for p, c in net.edges() if p not in members]
        assert [(plan.names[i], plan.names[j]) for i, j in plan.arcs] == kept
        old, new = np.zeros(2), np.ones(2)
        singles = {(a, None): plan.single(a, None) for a in range(len(plan.names))}
        for i, j in plan.arcs:  # a message's step is made when asked for
            singles[i, j], singles[j, i] = plan.single(i, j), plan.single(j, i)
        slots = []
        for (a, to), step in singles.items():
            assert step.index[0, :2].tolist() == [a, -1 if to is None else to]
            slot = int(step.index[0, plan_module._SLOT])
            assert step.sends == (to is not None) == (slot >= 0)
            if to is None:
                continue
            sender, receiver = plan.names[a], plan.names[to]
            if receiver in net.parents(sender):
                expected = (receiver, sender, "lambda")
            else:
                expected = (sender, receiver, "pi")
            rec = plan.record(3, slot, old, new)
            assert (rec.sweep, rec.parent, rec.child, rec.direction) == (3, *expected)
            assert rec.old is old and rec.new is new
            slots.append(slot)
        assert sorted(slots) == list(range(2 * len(kept)))
        reads, start, _ = plan.reads  # every node's reads, then the all-ones row
        assert len(start) == len(plan.names) + 1 and start[-1] == len(reads) - 1

    def test_single_refuses_a_pair_that_is_not_adjacent(self):
        star = two_pass_plan(star_net(), [])
        s, t = star.ids["S"], star.ids["T"]
        net, _ = random_loopy(1)
        members = greedy_cutset(net)
        cut = two_pass_plan(net, members)
        m = next(m for m in members if net.children(m))  # its arcs are cut out of the forest
        arc = cut.ids[m], cut.ids[net.children(m)[0]]
        for plan, a, to in ((star, s, t), (star, t, s), (star, s, s), (cut, *arc), (cut, *arc[::-1])):
            with pytest.raises(KeyError):
                plan.single(a, to)


def star_and_small_tree():
    """A forest: the 1,100-child binary star of `binary_star` rooted at R,
    and a tree a0 -> a1, a0 -> a2, a1 -> a3, whose messages share tree
    depths and rule shapes with the star's."""
    star, _, _ = binary_star(1100, random.Random(3))
    rng = random.Random(4)
    small = [("a0", ()), ("a1", ("a0",)), ("a2", ("a0",)), ("a3", ("a1",))]
    return build_net(
        [(v.name, v.states) for v in star.variables] + [(v, ("f", "t")) for v, _ in small],
        [(c, star.parents(c), star.cpt_tensor(c).reshape(-1, 2)) for c in star.var_names()]
        + [(v, ps, random_table(rng, 2 ** len(ps), 2)) for v, ps in small],
    )


def hub_net():
    """A hub h with children c and w, c also a parent of w, and 200 more
    nodes below w; P(c=1 | h=1) = 0, so with cutset [h] and evidence c=1
    the case h=1 is impossible."""
    rng = random.Random(7)
    defs = [("h", ()), ("c", ("h",)), ("w", ("h", "c"))]
    for i in range(200):
        defs.append((f"b{i:03d}", (rng.choice(["w"] + [v for v, _ in defs[3:]]),)))
    tables = {"h": [[0.5, 0.5]], "c": [[0.6, 0.4], [1.0, 0.0]]}
    return build_net(
        [(v, ("f", "t")) for v, _ in defs],
        [(v, ps, tables.get(v) or random_table(rng, 2 ** len(ps), 2)) for v, ps in defs],
    )


def slot_of(plan, a: int, to: int) -> int:
    """The row that the message node `a` sends `to` writes, read from its
    `TwoPassPlan.single` step."""
    return int(plan.single(a, to).index[0, plan_module._SLOT])


def assert_steps_match_messages(plan, run):
    """Every message and belief that `run`'s steps computed is bit for bit
    what its unpadded one-member step (`TwoPassPlan.single`) gives for it
    alone, on the same buffer."""
    for i, j in plan.arcs:
        for a, to in ((i, j), (j, i)):
            alone = run._compute(plan.single(a, to))[0][0]
            assert run.msg(slot_of(plan, a, to)).tobytes() == alone.tobytes()
    values, masses = run.beliefs(list(range(len(plan.names))))
    stops = np.cumsum(plan.cards)
    for a in range(len(plan.names)):
        expected, sums, _ = run._compute(plan.single(a, None))
        belief = values[:, stops[a] - plan.cards[a]:stops[a]]
        assert (belief.tobytes(), masses[a].tobytes()) == (expected[0].tobytes(), sums[0].tobytes())


def steps_of(unit) -> tuple:
    """The steps that one `_compute` call runs: a phase's, or a lone step."""
    return unit.steps if type(unit) is plan_module.Phase else (unit,)


def plan_steps(plan) -> list:
    """Every step of the plan's phases, its messages' and its beliefs'."""
    return [step for unit in plan.steps + plan.beliefs
            if type(unit) is plan_module.Phase for step in unit.steps]


def spy_on_rescaled(monkeypatch) -> list[int]:
    """A list that gains, for each member a phase or step recomputes from
    its `_rescaled` diagnostic vector, the member's node: the first member
    of the phase whose gathered diagnostic rows are the rows rescaled."""
    nodes, current = [], [None]
    compute, rescaled = polytree.TwoPassRun._compute, polytree.TwoPassRun._rescaled

    def computing(run, unit, *args):
        current[0] = unit
        return compute(run, unit, *args)

    def spy(run, rows):
        members = [(step, g) for step in steps_of(current[0]) for g in range(len(step.index))]
        gathered = [run.buf[step.reads[g, len(step.pis):], :, :step.own].tobytes()
                    for step, g in members]
        step, g = members[gathered.index(rows.tobytes())]
        nodes.append(int(step.index[g, plan_module._NODE]))
        return rescaled(rows)

    monkeypatch.setattr(polytree.TwoPassRun, "_compute", computing)
    monkeypatch.setattr(polytree.TwoPassRun, "_rescaled", spy)
    return nodes


class TestCompiledSteps:
    @pytest.mark.parametrize("seed", range(12))
    def test_polytree_steps_match_messages(self, seed):
        net, evidence = (random_polytree if seed % 2 else bushy_polytree)(seed)
        plan = two_pass_plan(net, [])
        assert_steps_match_messages(plan, plan.run(evidence))

    @pytest.mark.parametrize("seed", range(4))
    def test_variables_with_8_states_or_more_match_messages(self, seed):
        # numpy sums 8 or more terms in another order, so those are not padded
        net, evidence = bushy_polytree(seed, n=30, max_card=12)
        plan = two_pass_plan(net, [])
        assert_steps_match_messages(plan, plan.run(evidence))

    @pytest.mark.parametrize("leave", [0.02, 0.3])
    def test_scanned_runs_match_messages_sent_in_order(self, leave):
        # the chain's one run, sent by the blocked scan, is within 1e-12 of
        # every message computed alone from the one before it
        net = markov_chain(300, [0.9, 0.1], [[0.99, 0.01], [leave, 1 - leave]])
        plan = two_pass_plan(net, [])
        assert len(plan.steps) == 1 and plan.steps[0].transfers
        assert_sent_in_order(plan, {"m0150": 1, "m0299": 0})

    def test_bushy_levels_batch_many_messages(self):
        plan = two_pass_plan(bushy_polytree(0)[0], [])
        batches = [step for unit in plan.steps for step in steps_of(unit)]
        assert max(len(step.index) for step in batches) >= 5
        assert len(plan.steps) < 2 / 3 * len(plan.order)
        # one step per number of parents, 0 to 3
        assert sum(len(phase.steps) for phase in plan.beliefs) == 4

    @pytest.mark.parametrize("seed", range(8))
    def test_live_cases_and_case_axes_match_messages(self, seed):
        net, evidence = random_loopy(seed)
        members = greedy_cutset(net)
        plan = two_pass_plan(net, members)
        evidence = {**evidence, members[0]: seed % 2}
        live = plan.live_cases(evidence)
        assert len(live) < len(plan.cases)
        assert any(step.table[1] == plan_module._CASE for step in plan_steps(plan))
        assert_steps_match_messages(plan, plan.run(evidence, live))

    def test_only_underflowing_members_take_the_rescaled_path(self, monkeypatch):
        net = star_and_small_tree()
        plan = two_pass_plan(net, [])
        ids = plan.ids
        mixed = [step for step in plan_steps(plan)
                 if {ids["R"], ids["a0"]} <= set(step.index[:, plan_module._NODE].tolist())]
        assert mixed  # the roots' masses and the roots' pi messages share steps
        rescaled = spy_on_rescaled(monkeypatch)
        run = plan.run({"a3": 1})
        assert set(rescaled) == {ids["R"]}
        monkeypatch.undo()
        assert_steps_match_messages(plan, run)

    def test_impossible_case_recomputes_only_its_own_zeros(self, monkeypatch):
        # in case h=1, c's table and evidence give 0; every message that
        # reads that 0 is exactly 0 and is not recomputed rescaled
        net = hub_net()
        plan = two_pass_plan(net, ["h"])
        rescaled = spy_on_rescaled(monkeypatch)
        mixed, runs = infer_conditioned(net, {"c": 1}, ["h"], net.var_names())
        assert [plan.names[a] for a in rescaled] == ["c", "c"]  # its message to w and its belief
        assert [run.log_weight for run in runs] == [mixed.log_likelihood, None]
        assert mixed.log_likelihood == pytest.approx(math.log(0.5 * 0.4), abs=1e-12)
        monkeypatch.undo()
        assert_steps_match_messages(plan, plan.run({"c": 1}))

    def test_records_follow_the_sequential_order(self):
        net, evidence = bushy_polytree(3)
        plan = two_pass_plan(net, [])
        records = list(plan.run(evidence).records(0))
        slots = [plan.order.index(slot_of(plan, plan.ids[r.parent], plan.ids[r.child])
                                  if r.direction == "pi" else
                                  slot_of(plan, plan.ids[r.child], plan.ids[r.parent]))
                 for r in records]
        assert slots == sorted(slots) and len(records) > len(plan.steps)

    def test_convergence_error_names_the_worst_message(self, monkeypatch):
        monkeypatch.setattr(polytree, "TOLERANCE", -1.0)  # every message keeps moving
        with pytest.raises(ConvergenceError) as info:
            propagate(star_net(), {"S": 0}, schedule="synchronous")
        exc = info.value
        assert exc.arc in (("R", "S"), ("R", "T"))
        assert exc.direction in ("pi", "lambda") and 0.0 <= exc.residual <= 1.0
        parent, child = exc.arc
        assert str(exc).startswith("no fixpoint after 32 synchronous sweeps; worst message: ")
        assert str(exc).endswith(f"{exc.direction} {parent}->{child} moved {exc.residual:.3g}")

    def test_convergence_error_names_the_last_fair_random_pick(self, monkeypatch):
        # on a tree fair-random always settles, so cut its budget to 1,000 picks
        names = [f"v{i:03d}" for i in range(600)]
        net = build_net(
            [(v, ("f", "t")) for v in names],
            [(names[0], (), [[0.5, 0.5]])]
            + [(v, (u,), [[0.9, 0.1], [0.2, 0.8]]) for u, v in zip(names, names[1:])],
        )
        monkeypatch.setattr(net, "underlying_diameter", lambda: -2)
        with pytest.raises(ConvergenceError, match="^no fixpoint after 1000 fair-random") as info:
            propagate(net, {names[-1]: 0}, schedule="fair-random")
        exc = info.value
        assert exc.arc in list(net.edges()) and exc.direction in ("pi", "lambda")
        assert exc.residual >= 0.0


def isolated_node_forest():
    """Two small trees and a node with no neighbor: three roots."""
    return build_net(
        [(v, ("f", "t")) for v in ("a", "b", "c", "d", "e", "iso")],
        [("a", (), [[0.3, 0.7]]), ("b", ("a",), [[0.9, 0.1], [0.2, 0.8]]),
         ("c", ("a",), [[0.6, 0.4], [0.5, 0.5]]), ("d", (), [[0.1, 0.9]]),
         ("e", ("d",), [[0.7, 0.3], [0.4, 0.6]]), ("iso", (), [[0.25, 0.75]])],
    )


def loopy_with_cutset(seed):
    net = random_loopy(seed)[0]
    return net, greedy_cutset(net)


def units_in_order(plan):
    """What the plan computes in order, as lists of steps that read the
    buffer before any of them writes, each with whether it is a long run's
    member: each phase's steps, and each long run's members one by one,
    each after the one it reads (the scan computes them side by side)."""
    for unit in plan.steps:
        if type(unit) is plan_module.Sequence:
            yield from (([member], True) for member in in_path_order(unit.members))
        else:
            yield list(unit.steps), False


def in_path_order(members):
    """`members`, the one-member steps of a wave, each after the wave
    member whose row it reads (it reads at most one)."""
    writer = {int(member.index[0, plan_module._SLOT]): g for g, member in enumerate(members)}
    before = [[writer[slot] for slot in member.reads[0].tolist() if slot in writer]
              for member in members]
    assert all(len(read) <= 1 for read in before)
    depth = [None] * len(members)  # how many members lie before each on its path
    for g in range(len(members)):
        path = []
        while g is not None and depth[g] is None:
            path.append(g)
            g = before[g][0] if before[g] else None
        known = -1 if g is None else depth[g]
        for k, h in enumerate(reversed(path), 1):
            depth[h] = known + k
    return [members[g] for g in sorted(range(len(members)), key=depth.__getitem__)]


def gathered_floats(plan, phase) -> int:
    """The floats of tables and buffer rows that `phase` gathers."""
    tables = sum(step.stack.size if step.stack.ndim < len(step.table)
                 else len(step.index) * step.stack[0].size for step in phase.steps)
    return tables + len(phase.rows) * len(plan.cases) * plan.widths[plan.ones]


SCHEDULED = [
    *[pytest.param(lambda seed=seed: (random_polytree(seed)[0], []), id=f"random{seed}")
      for seed in range(6)],
    *[pytest.param(lambda seed=seed: (bushy_polytree(seed, n=60)[0], []), id=f"bushy{seed}")
      for seed in range(6)],
    *[pytest.param(lambda seed=seed: loopy_with_cutset(seed), id=f"loopy{seed}")
      for seed in range(6)],
    pytest.param(lambda: (binary_star(40, random.Random(4))[0], []), id="star"),
    pytest.param(lambda: (markov_chain(150, [0.4, 0.6], [[0.9, 0.1], [0.3, 0.7]]), []),
                 id="chain"),
    pytest.param(lambda: (isolated_node_forest(), []), id="forest"),
    pytest.param(lambda: (bushy_polytree(0, n=30, max_card=12)[0], []), id="wide"),
]


class TestReadinessSchedule:
    @pytest.mark.parametrize("build", SCHEDULED)
    def test_every_read_row_is_written_before(self, build):
        # a phase reads the buffer before it writes any member, a run
        # member after every earlier member; evidence rows and the
        # all-ones row are final from the start
        plan = two_pass_plan(*build())
        written, positions = set(), []
        for steps, in_run in units_in_order(plan):
            assert not in_run or len(steps[0].index) == 1
            for step in steps:
                reads = step.reads
                assert set(reads[reads < plan.ones].tolist()) <= written
            for step in steps:
                if step.sends:
                    slots = step.index[:, plan_module._SLOT].tolist()
                    assert written.isdisjoint(slots) and len(set(slots)) == len(slots)
                    written.update(slots)
                if step.collects:
                    positions += step.index[:, plan_module._POSITION].tolist()
        assert written == set(range(plan.ones))  # every message once
        assert sorted(positions) == list(range(1, plan.n_normalizers))

    @pytest.mark.parametrize("build", SCHEDULED)
    def test_no_member_reads_what_its_phase_writes(self, build):
        plan = two_pass_plan(*build())
        for phase in plan.steps:
            if type(phase) is plan_module.Phase:
                assert set(phase.rows.tolist()).isdisjoint(phase.slots.tolist())
                for step, (start, end, _, _) in zip(phase.steps, phase.spans):
                    assert step.reads.base is phase.rows  # a view, not a copy
                    assert step.reads.T.ravel().tobytes() == phase.rows[start:end].tobytes()

    @pytest.mark.parametrize("build", SCHEDULED)
    def test_phases_write_every_row_and_normalizer_once(self, build):
        # a phase's scatter writes its `slots` from its first `sent`
        # members, its normalizers at `positions` from member `collected`
        plan = two_pass_plan(*build())
        slots, positions = [], []
        for unit in plan.steps:
            if type(unit) is plan_module.Sequence:
                slots += [int(step.index[0, plan_module._SLOT])
                          for step in unit.members if step.sends]
                positions += [int(step.index[0, plan_module._POSITION])
                              for step in unit.members if step.collects]
                continue
            index = np.concatenate([step.index for step in unit.steps])
            sends = np.concatenate([[step.sends] * len(step.index) for step in unit.steps])
            collects = np.concatenate([[step.collects] * len(step.index) for step in unit.steps])
            assert sends.tolist() == [True] * unit.sent + [False] * (len(index) - unit.sent)
            assert collects[unit.collected:].all() and not collects[:unit.collected].any()
            assert unit.slots.tolist() == index[:unit.sent, plan_module._SLOT].tolist()
            assert unit.positions.tolist() == index[unit.collected:, plan_module._POSITION].tolist()
            slots += unit.slots.tolist()
            positions += unit.positions.tolist()
        assert sorted(slots) == list(range(plan.ones))
        assert sorted(positions) == list(range(1, plan.n_normalizers))
        for phase in plan.beliefs:
            assert phase.sent == 0 and len(phase.positions) == 0
            assert phase.collected == phase.spans[-1][3]  # every member

    @pytest.mark.parametrize("bound", [None, 3000], ids=["default", "small"])
    @pytest.mark.parametrize("build", SCHEDULED)
    def test_phases_gather_a_bounded_number_of_floats(self, build, bound, monkeypatch):
        # a step alone may gather more; the small bound splits phases
        if bound is not None:
            monkeypatch.setattr(plan_module, "_STEP_FLOATS", bound)
        plan = two_pass_plan(*build())
        for phase in plan.steps + plan.beliefs:
            if type(phase) is plan_module.Phase and len(phase.steps) > 1:
                assert gathered_floats(plan, phase) <= plan_module._STEP_FLOATS

    @pytest.mark.parametrize("build", SCHEDULED)
    def test_no_narrow_result_is_padded_to_8_states(self, build):
        # numpy sums 8 or more terms in another order than fewer
        plan = two_pass_plan(*build())
        for phase in plan.steps + plan.beliefs:
            if type(phase) is plan_module.Phase and phase.width >= plan_module._UNPADDED:
                assert {step.width for step in phase.steps} == {phase.width}

    @pytest.mark.parametrize("build", SCHEDULED)
    def test_asked_beliefs_are_the_bytes_of_all_beliefs(self, build):
        net, members = build()
        plan = two_pass_plan(net, members)
        run = plan.run({})
        every, every_mass = run.beliefs(list(range(len(plan.names))))
        asked = list(range(0, len(plan.names), 3))
        values, masses = run.beliefs(asked)
        stops = np.cumsum(plan.cards)
        for a in range(len(plan.names)):
            columns = slice(stops[a] - plan.cards[a], stops[a])
            expected = every[:, columns] if a in asked else np.zeros_like(every[:, columns])
            assert values[:, columns].tobytes() == expected.tobytes()
        assert masses.tobytes() == every_mass[asked].tobytes()
        beliefs = auto_infer(net, {}, [plan.names[a] for a in asked]).beliefs
        for a in range(len(plan.names)):
            if a in asked:
                assert beliefs[plan.names[a]].sum() == pytest.approx(1.0)
            else:
                with pytest.raises(KeyError):
                    beliefs[plan.names[a]]

    @pytest.mark.parametrize("seed", range(4))
    def test_bushy_plans_run_in_few_steps(self, seed, monkeypatch):
        # by readiness, not by depth: a message waits only for what it reads
        net, evidence = bushy_polytree(seed)
        plan = two_pass_plan(net, [])
        calls, compute = [0], polytree.TwoPassRun._compute

        def counted(run, step, *args):
            calls[0] += 1
            return compute(run, step, *args)

        monkeypatch.setattr(polytree.TwoPassRun, "_compute", counted)
        plan.run(evidence)
        assert calls[0] <= 17  # kernel passes: phases and lone steps

    @pytest.mark.parametrize("n", [40, 300])
    def test_a_chain_is_one_run_of_every_member(self, n):
        # a run shorter than _SCAN_RUN is sent as one-member steps, in
        # phases; a longer one is one Sequence
        plan = two_pass_plan(markov_chain(n, [0.4, 0.6], [[0.9, 0.1], [0.3, 0.7]]), [])
        steps = [step for unit, _ in units_in_order(plan) for step in unit]
        assert len(steps) == len(plan.order) + 1  # every message and the mass
        assert all(len(step.index) == 1 for step in steps)
        relaxed = 2 * n - 1 >= plan_module._SCAN_RUN
        assert relaxed == (len(plan.steps) == 1 and type(plan.steps[0]) is plan_module.Sequence)

    @pytest.mark.parametrize("make", [lambda: bushy_polytree(5, n=80)[0],
                                      lambda: random_loopy(3)[0]])
    def test_plans_of_separately_parsed_copies_match(self, make):
        text = netformat.serialize(make())
        indexes = []
        for net in (netformat.parse(text), netformat.parse(text)):
            plan = two_pass_plan(net, greedy_cutset(net))
            steps = [step for unit, _ in units_in_order(plan) for step in unit] + plan_steps(plan)
            indexes.append([step.index.tobytes() + step.reads.tobytes() for step in steps])
        assert indexes[0] == indexes[1]


@pytest.mark.parametrize("build", SCHEDULED)
def test_one_by_one_order_is_the_list_schedule(build, monkeypatch):
    # `_singles` orders the entries by tail when no two ready entries ever
    # share a code: it must give the list schedule's order, and decline
    # exactly where the list schedule joins entries in a step
    schedule, singles = plan_module._Compiler._schedule, plan_module._Compiler._singles
    orders = []

    def one_by_one(compiler, a, to, tails):
        orders.append(singles(compiler, a, to, tails))
        return orders[-1]

    def both(compiler, a, to):
        with monkeypatch.context() as m:
            m.setattr(plan_module._Compiler, "_singles", lambda *args: None)
            listed = schedule(compiler, a, to)
        tried = len(orders)
        assert schedule(compiler, a, to) == listed
        used = len(orders) > tried and orders[-1] is not None
        assert used == all(len(chunk) == 1 for chunk in listed)
        return listed

    monkeypatch.setattr(plan_module._Compiler, "_singles", one_by_one)
    monkeypatch.setattr(plan_module._Compiler, "_schedule", both)
    plan_module.TwoPassPlan(*build())


def test_plan_is_not_written_by_runs_or_relaxations():
    net, _, _ = binary_star(1100, random.Random(3))
    state = init_messages(net, {})
    net.underlying_diameter()  # the relaxations' budget, cached on the network
    gc.collect()
    tracemalloc.start()
    try:
        auto_infer(net, {}, net.var_names())
        gc.collect()
        built = tracemalloc.get_traced_memory()[0]
        plan = two_pass_plan(net, [])
        reads, steps = plan.reads, plan.steps
        for schedule in ("synchronous", "fair-random"):
            propagate(net, {}, schedule)
        fuse_belief(net, state, "R")
        update_pi_to_child(net, state, "R", "c0000")
        update_lambda_to_parent(net, state, "c0000", "R")
        auto_infer(net, {}, net.var_names())
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - built
    finally:
        tracemalloc.stop()
    assert two_pass_plan(net, []) is plan
    assert plan.reads is reads and plan.steps is steps
    assert not any(array.flags.writeable for array in reads)
    # a kept read list per message to a child would hold 1,099 rows each, 9 MiB
    assert built < 8 << 20 and grown < 1 << 20


@pytest.mark.parametrize("children", [1, 3, 6])
def test_diagnostic_support_multiplies_left_to_right(children):
    # the evidence factor times each child's lambda in arc order, one
    # product after another, whatever the number of children
    net, _, _ = binary_star(children, random.Random(children))
    rng = np.random.default_rng(children)
    for _ in range(50):
        state = init_messages(net, {})
        state.evidence_factor["R"] = expected = rng.random(2)
        for p, c in net.edges():
            state.messages[p, c].lam = lam = rng.random(2)
            expected = expected * lam
        assert total_diagnostic_support(net, state, "R").tobytes() == expected.tobytes()


def test_every_contraction_runs_in_compute(monkeypatch):
    callers = []
    count_calls(monkeypatch, "einsum", callers=callers)
    net, evidence = random_polytree(2)
    for schedule in ("two-pass", "synchronous", "fair-random"):
        state, _ = propagate(net, evidence, schedule)
    a, (p, c) = net.var_names()[0], next(iter(net.edges()))
    total_causal_support(net, state, a)
    total_diagnostic_support(net, state, a)
    fuse_belief(net, state, a)
    update_pi_to_child(net, state, p, c)
    update_lambda_to_parent(net, state, c, p)
    star, _, _ = binary_star(1100, random.Random(3))
    propagate(star, {}, "two-pass")  # the rescaled rows of R's messages and mass
    assert callers and {name for module, name in callers if module == polytree.__name__} == {"_compute"}


def test_random_polytree_above_20_nodes():
    net, _ = random_polytree(0, max_nodes=30, min_nodes=25)
    assert 25 <= len(net.var_names()) <= 30 and net.is_singly_connected()


def test_one_query_runs_one_belief_phase(monkeypatch):
    # only the belief phases that hold an asked node are computed
    net = bushy_polytree(0, n=30, max_card=12)[0]
    plan = two_pass_plan(net, [])
    run = plan.run({})
    every, every_mass = run.beliefs(list(range(len(plan.names))))
    calls, compute = [0], polytree.TwoPassRun._compute

    def counted(run, unit, *args):
        calls[0] += 1
        return compute(run, unit, *args)

    monkeypatch.setattr(polytree.TwoPassRun, "_compute", counted)
    stops = np.cumsum(plan.cards)
    assert len(plan.beliefs) > 1
    for a in range(len(plan.names)):
        calls[0] = 0
        values, masses = run.beliefs([a])
        columns = slice(stops[a] - plan.cards[a], stops[a])
        assert calls[0] == 1 and values[:, columns].tobytes() == every[:, columns].tobytes()
        assert masses.tobytes() == every_mass[[a]].tobytes()


def test_network_without_variables_has_no_phases():
    plan = two_pass_plan(build_net([], []), [])
    assert plan.steps == () and plan.beliefs == () and len(plan.owners) == 0
    values, masses = plan.run({}).beliefs([])
    assert (values.shape, masses.shape) == ((1, 0), (0, 1))
