"""The benchmark's own reference answers against the package's oracles."""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import netgen  # noqa: E402
from beliefprop import (  # noqa: E402
    d_separated,
    list_paths,
    oracle_evidence_probability,
    oracle_posteriors,
)
from refinfer import Eliminator, d_separated_reference  # noqa: E402


def _small(kind: str, seed: int):
    """A network whose joint fits under the oracle's state-space guard."""
    rng = random.Random(f"{kind}/{seed}")
    if kind == "polytree":
        net = netgen.bushy_polytree(rng, rng.randint(2, 12), max_card=3, max_depth=3)
    else:
        net = netgen.hubbed_loopy(rng, rng.randint(6, 12), rng.choice((2, 3)), rng.randint(1, 2))
    evidence = netgen.random_evidence(rng, net, rng.choice((0.1, 0.3)))
    return net, evidence


@pytest.mark.parametrize("kind", ["polytree", "loopy"])
def test_elimination_matches_oracle(kind):
    for seed in range(40):
        net, evidence = _small(kind, seed)
        eliminator = Eliminator(net)
        expected = oracle_posteriors(net, evidence)
        log_p = math.log(oracle_evidence_probability(net, evidence))
        for q in net.var_names():
            belief, got_log_p = eliminator.query(evidence, q)
            assert abs(got_log_p - log_p) <= 1e-9
            if q in evidence:
                assert belief is None
            else:
                assert np.max(np.abs(belief - expected[q])) <= 1e-9
        assert abs(eliminator.query(evidence, None)[1] - log_p) <= 1e-9


def test_elimination_keeps_scale_on_long_chains():
    # 2000 observations drive P(e) far below the smallest double; the log
    # scale must carry it.  Reference: the scaled forward recursion.
    net = netgen.chain(random.Random(0), 2000, max_card=2)
    names = net.var_names()
    evidence = {v: i % 3 % 2 for i, v in enumerate(names)}
    alpha, log_p = np.ones(1), 0.0
    for v in names:
        alpha = alpha @ net.cpts[v].table
        if v in evidence:
            alpha = np.where(np.arange(len(alpha)) == evidence[v], alpha, 0.0)
        log_p += math.log(alpha.sum())
        alpha = alpha / alpha.sum()
    _, got = Eliminator(net).query(evidence, None)
    assert log_p < -745  # exp(log_p) underflows to 0.0
    assert abs(got - log_p) <= 1e-9


def test_dsep_reference_and_path_count_match_enumeration():
    for seed in range(60):
        rng = random.Random(f"dsep/{seed}")
        net = netgen.dense_dag(rng, 8, 0.35)
        x, y, *given = rng.sample(net.var_names(), 4)
        assert d_separated_reference(net, x, y, given) == d_separated(net, x, y, given)
        assert netgen.count_paths(net, x, y) == len(list_paths(net, x, y))
