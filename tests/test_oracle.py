import math

import numpy as np
import pytest

from beliefprop.errors import ImpossibleEvidenceError
from beliefprop.model import Cpt, Network, Variable, all_assignments, joint_probability
from beliefprop.oracle import (
    STATE_SPACE_GUARD,
    joint_table,
    oracle_conditional_independence,
    oracle_evidence_probability,
    oracle_infer,
    oracle_marginal,
)

from helpers import build_net, chain_net, enum_marginal, fig1_net, random_loopy, random_polytree


def deterministic_chain():
    return build_net(
        [("A", ("f", "t")), ("B", ("f", "t"))],
        [("A", (), [[1.0, 0.0]]), ("B", ("A",), [[1.0, 0.0], [0.0, 1.0]])],
    )


class TestMarginal:
    def test_chain_posterior(self):
        got = oracle_marginal(chain_net(), {"B": 0}, "A")
        np.testing.assert_allclose(got, [27 / 41, 14 / 41], atol=1e-12)

    def test_root_prior_without_evidence(self):
        got = oracle_marginal(chain_net(), {}, "A")
        np.testing.assert_allclose(got, [0.3, 0.7], atol=1e-12)

    def test_evidence_on_query_gives_indicator(self):
        got = oracle_marginal(chain_net(), {"A": 1}, "A")
        np.testing.assert_allclose(got, [0.0, 1.0], atol=0)

    def test_impossible_evidence(self):
        with pytest.raises(ImpossibleEvidenceError):
            oracle_marginal(deterministic_chain(), {"A": 0, "B": 1}, "A")

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_literal_enumeration(self, seed):
        net, evidence = random_polytree(seed, max_nodes=6, max_card=3)
        if oracle_evidence_probability(net, evidence) == 0:
            evidence = {}
        for q in net.var_names():
            if q in evidence:
                continue
            got = oracle_marginal(net, evidence, q)
            np.testing.assert_allclose(got, enum_marginal(net, evidence, q), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_literal_enumeration_loopy(self, seed):
        net, _ = random_loopy(seed, max_nodes=7)
        for q in net.var_names():
            got = oracle_marginal(net, {}, q)
            np.testing.assert_allclose(got, enum_marginal(net, {}, q), atol=1e-12)


class TestEvidenceProbability:
    def test_empty_evidence(self):
        assert oracle_evidence_probability(chain_net(), {}) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_chain_value(self):
        assert oracle_evidence_probability(chain_net(), {"B": 0}) == pytest.approx(
            0.41, abs=1e-12
        )

    def test_contradiction_is_zero(self):
        assert oracle_evidence_probability(deterministic_chain(), {"A": 0, "B": 1}) == 0.0

    def test_guard(self):
        n = 23  # 2^23 joint states, just over the guard
        variables = [Variable(f"r{i}", ("f", "t")) for i in range(n)]
        cpts = [Cpt(f"r{i}", (), [[0.5, 0.5]]) for i in range(n)]
        net = Network(variables, cpts)
        assert 2 ** n > STATE_SPACE_GUARD
        with pytest.raises(ValueError, match="guard"):
            oracle_evidence_probability(net, {})


class TestInfer:
    @pytest.mark.parametrize("seed", range(4))
    def test_posteriors_and_evidence_probability_match_enumeration(self, seed):
        net, evidence = random_loopy(seed, max_nodes=7)
        literal = sum(
            joint_probability(net, asg)
            for asg in all_assignments(net)
            if all(asg[v] == s for v, s in evidence.items())
        )
        if literal == 0:
            evidence, literal = {}, 1.0
        posteriors, p_e = oracle_infer(net, evidence)
        assert p_e == pytest.approx(literal, abs=1e-12)
        assert list(posteriors) == net.var_names()
        for q, vec in posteriors.items():
            np.testing.assert_allclose(vec, enum_marginal(net, evidence, q), atol=1e-12)

    def test_impossible_evidence(self):
        with pytest.raises(ImpossibleEvidenceError, match="probability zero"):
            oracle_infer(deterministic_chain(), {"A": 0, "B": 1}, [])


class TestJointTable:
    @pytest.mark.parametrize("seed", range(5))
    def test_sums_to_one(self, seed):
        net, _ = random_polytree(seed, max_nodes=8)
        assert joint_table(net).sum() == pytest.approx(1.0, abs=1e-9)


class TestConditionalIndependence:
    def test_disconnected_roots(self):
        net = build_net(
            [("A", ("f", "t")), ("B", ("f", "t"))],
            [("A", (), [[0.3, 0.7]]), ("B", (), [[0.6, 0.4]])],
        )
        assert oracle_conditional_independence(net, "A", "B", set())

    def test_fig1_blocked_and_unblocked(self):
        net = fig1_net(seed=5)
        assert oracle_conditional_independence(net, "x2", "x3", {"x1"})
        assert not oracle_conditional_independence(net, "x2", "x3", {"x1", "x6"})

    def test_overlapping_arguments_rejected(self):
        with pytest.raises(ValueError):
            oracle_conditional_independence(fig1_net(), "x2", "x2", set())
        with pytest.raises(ValueError):
            oracle_conditional_independence(fig1_net(), "x2", "x3", {"x2"})


def test_marginal_self_consistency():
    # marginal with no evidence equals per-variable naive summation
    net, _ = random_polytree(33, max_nodes=7, max_card=3)
    joint = joint_table(net)
    for i, name in enumerate(net.var_names()):
        axes = tuple(j for j in range(joint.ndim) if j != i)
        np.testing.assert_allclose(
            oracle_marginal(net, {}, name), joint.sum(axis=axes), atol=1e-12
        )
